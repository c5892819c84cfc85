//! The bid-book's column store, checked from outside.
//!
//! - `submit_batch` ≡ `n × submit`: a batch returns the ids the single
//!   submissions would, and leaves the same records and the same next
//!   step reports — for mixed kinds and work models, empty batches,
//!   batches after `reserve`, batches while bids are parked after a
//!   reclamation, finite supply, and `MarketSet` members.
//! - Records built from the columns reconcile with the report stream:
//!   interruption counts, closed phases, `closed_at` and `submitted_at`
//!   all agree with what the reports said, slot by slot.

use spotbid_market::multi::{MarketSet, MarketSpec};
use spotbid_market::provider::ProviderPolicy;
use spotbid_market::sim::{
    BidId, BidKind, BidPhase, BidRequest, SlotReport, SpotMarket, Supply, WorkModel,
};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::Rng;

fn params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
}

fn slot_len() -> Hours {
    Hours::from_minutes(5.0)
}

fn finite(capacity: u32, od_cap: u32) -> Supply {
    Supply::Finite {
        capacity,
        policy: ProviderPolicy::UtilizationTracking { od_cap },
    }
}

/// A bid of either kind and either work model, priced over and around
/// the book's range.
fn request(g: &mut Rng) -> BidRequest {
    BidRequest {
        price: Price::new(g.range_f64(0.0, 0.4)),
        kind: if g.chance(0.5) {
            BidKind::Persistent
        } else {
            BidKind::OneTime
        },
        work: if g.chance(0.3) {
            WorkModel::Geometric
        } else {
            WorkModel::FixedSlots(g.range_usize(9) as u32)
        },
    }
}

/// The wave size for a slot: often empty, sometimes large.
fn wave_size(g: &mut Rng, slot: usize) -> usize {
    match (slot, g.range_usize(4)) {
        (0, _) => 200 + g.range_usize(800),
        (_, 0) => 0,
        (_, 1) => 100 + g.range_usize(300),
        _ => g.range_usize(40),
    }
}

/// Steps both markets and asserts identical reports.
fn step_both(a: &mut SpotMarket, b: &mut SpotMarket, ra: &mut Rng, rb: &mut Rng, what: &str) {
    let (x, y) = (a.step(ra), b.step(rb));
    assert_eq!(x, y, "{what}");
}

/// One random session: `plain` submits bid by bid, `batched` one batch
/// per slot (sometimes after a `reserve`); reclamations and on-demand
/// churn hit both. Returns how many batches went in while persistent bids
/// sat parked by a reclamation.
fn batch_session(seed: u64, supply: Supply) -> usize {
    let mut g = Rng::seed_from_u64(seed);
    let mut plain = SpotMarket::with_supply(params(), slot_len(), supply);
    let mut batched = SpotMarket::with_supply(params(), slot_len(), supply);
    let (mut ra, mut rb) = (
        Rng::seed_from_u64(seed ^ 0xA5),
        Rng::seed_from_u64(seed ^ 0xA5),
    );
    let mut parked_batches = 0;
    let mut parked = false;
    for slot in 0..40 {
        let wave: Vec<BidRequest> = (0..wave_size(&mut g, slot))
            .map(|_| request(&mut g))
            .collect();
        if g.chance(0.3) {
            batched.reserve(g.range_usize(2 * wave.len() + 1));
        }
        let ids: Vec<BidId> = wave.iter().map(|&r| plain.submit(r)).collect();
        let range = batched.submit_batch(&wave);
        assert_eq!(
            range.clone().map(BidId).collect::<Vec<_>>(),
            ids,
            "seed {seed} slot {slot}: batch ids"
        );
        assert_eq!(plain.submitted(), batched.submitted());
        parked_batches += usize::from(parked && !wave.is_empty());
        let reclaim = g.chance(0.1);
        if reclaim {
            plain.reclaim_next_slot();
            batched.reclaim_next_slot();
        }
        if g.chance(0.2) {
            let n = g.range_usize(30) as u32;
            assert_eq!(plain.request_on_demand(n), batched.request_on_demand(n));
        }
        if g.chance(0.2) {
            let n = g.range_usize(30) as u32;
            plain.release_on_demand(n);
            batched.release_on_demand(n);
        }
        let (x, y) = (plain.step(&mut ra), batched.step(&mut rb));
        assert_eq!(x, y, "seed {seed} slot {slot}");
        // Persistent runners interrupted by an outage park until the
        // next normal slot (one-time ones are terminated too).
        parked = reclaim && x.interrupted.len() > x.terminated.len();
        if slot % 8 == 0 {
            assert_eq!(
                plain.records(),
                batched.records(),
                "seed {seed} slot {slot}"
            );
        }
    }
    for k in 0..30 {
        step_both(
            &mut plain,
            &mut batched,
            &mut ra,
            &mut rb,
            &format!("seed {seed} tail {k}"),
        );
    }
    assert_eq!(
        plain.records(),
        batched.records(),
        "seed {seed} final records"
    );
    assert_eq!(plain.provider_slots(), batched.provider_slots());
    parked_batches
}

#[test]
fn submit_batch_matches_single_submissions() {
    let mut parked_batches = 0;
    for seed in 0..24u64 {
        let supply = match seed % 3 {
            0 => Supply::Unbounded,
            1 => finite(150, 40),
            _ => finite(600, 0),
        };
        parked_batches += batch_session(seed, supply);
    }
    assert!(
        parked_batches > 5,
        "only {parked_batches} batches while parked"
    );
}

#[test]
fn empty_batch_is_a_no_op() {
    let mut m = SpotMarket::new(params(), slot_len());
    assert_eq!(m.submit_batch(&[]), 0..0);
    let mut g = Rng::seed_from_u64(7);
    let wave: Vec<BidRequest> = (0..50).map(|_| request(&mut g)).collect();
    assert_eq!(m.submit_batch(&wave), 0..50);
    m.step(&mut g);
    let before = m.records();
    assert_eq!(m.submit_batch(&[]), 50..50);
    assert_eq!(m.records(), before);
    assert_eq!(m.submit(wave[0]), BidId(50));
}

#[test]
fn set_batches_match_member_submissions() {
    // One batch per member per slot against bid-by-bid submissions to an
    // identical set, with one finite member.
    let specs = || {
        vec![
            MarketSpec::new("a", params()),
            MarketSpec::with_supply("b", params(), finite(200, 30)),
            MarketSpec::new("c", params()),
        ]
    };
    let mut plain = MarketSet::new(specs(), slot_len()).unwrap();
    let mut batched = MarketSet::new(specs(), slot_len()).unwrap();
    let mut g = Rng::seed_from_u64(0x5E7);
    let mut ra: Vec<Rng> = (0..3).map(Rng::seed_from_u64).collect();
    let mut rb = ra.clone();
    for slot in 0..70 {
        for m in 0..3 {
            let n = if slot < 40 {
                wave_size(&mut g, slot)
            } else {
                0
            };
            let wave: Vec<BidRequest> = (0..n).map(|_| request(&mut g)).collect();
            let ids: Vec<BidId> = wave.iter().map(|&r| plain.submit(m, r)).collect();
            let range = batched.submit_batch(m, &wave);
            assert_eq!(range.map(BidId).collect::<Vec<_>>(), ids, "market {m}");
        }
        if slot % 11 == 5 {
            plain.reclaim_next_slot(1);
            batched.reclaim_next_slot(1);
        }
        assert_eq!(plain.step(&mut ra), batched.step(&mut rb), "slot {slot}");
    }
    for m in 0..3 {
        assert_eq!(plain.records(m), batched.records(m), "market {m}");
        assert_eq!(plain.provider_slots(m), batched.provider_slots(m));
    }
}

/// What the report stream says about one bid.
#[derive(Debug, Clone, Default)]
struct Seen {
    submitted_at: u64,
    interrupted: u32,
    closed: Option<(u64, BidPhase)>,
}

fn note_closed(seen: &mut [Seen], ids: &[BidId], report: &SlotReport, phase: BidPhase) {
    for id in ids {
        let s = &mut seen[id.0 as usize];
        assert!(s.closed.is_none(), "{id:?} closed twice");
        s.closed = Some((report.t, phase));
    }
}

#[test]
fn records_reconcile_with_the_report_stream() {
    for seed in 0..12u64 {
        let mut g = Rng::seed_from_u64(0xC0_1A + seed);
        let mut m = SpotMarket::with_supply(params(), slot_len(), finite(120, 30));
        let mut rng = Rng::seed_from_u64(seed);
        let mut seen: Vec<Seen> = Vec::new();
        let (mut interrupted, mut finished, mut terminated) = (0u64, 0usize, 0usize);
        for slot in 0..60u64 {
            let wave: Vec<BidRequest> = (0..wave_size(&mut g, slot as usize))
                .map(|_| request(&mut g))
                .collect();
            // Batches and single submissions alike.
            if g.chance(0.5) {
                m.submit_batch(&wave);
            } else {
                wave.iter().for_each(|&r| {
                    m.submit(r);
                });
            }
            seen.resize(
                m.submitted(),
                Seen {
                    submitted_at: slot,
                    ..Seen::default()
                },
            );
            if g.chance(0.08) {
                m.reclaim_next_slot();
            }
            m.request_on_demand(g.range_usize(12) as u32);
            m.release_on_demand(g.range_usize(12) as u32);
            let report = m.step(&mut rng);
            interrupted += report.interrupted.len() as u64;
            finished += report.finished.len();
            terminated += report.terminated.len();
            for id in &report.interrupted {
                seen[id.0 as usize].interrupted += 1;
            }
            note_closed(&mut seen, &report.finished, &report, BidPhase::Finished);
            note_closed(&mut seen, &report.terminated, &report, BidPhase::Terminated);

            let records = m.records();
            assert_eq!(records.len(), seen.len());
            let sum: u64 = records.iter().map(|r| u64::from(r.interruptions)).sum();
            assert_eq!(sum, interrupted, "seed {seed} slot {slot}: Σ interruptions");
            let count = |p| records.iter().filter(|r| r.phase == p).count();
            assert_eq!(
                count(BidPhase::Finished),
                finished,
                "seed {seed} slot {slot}"
            );
            assert_eq!(
                count(BidPhase::Terminated),
                terminated,
                "seed {seed} slot {slot}"
            );
            assert_eq!(
                count(BidPhase::Pending) + count(BidPhase::Running),
                m.open_bids()
            );
            for (r, s) in records.iter().zip(&seen) {
                assert_eq!(r.submitted_at, s.submitted_at, "{:?}", r.id);
                assert_eq!(r.interruptions, s.interrupted, "{:?}", r.id);
                match s.closed {
                    Some((t, phase)) => {
                        assert_eq!(r.closed_at, Some(t), "{:?}", r.id);
                        assert_eq!(r.phase, phase, "{:?}", r.id);
                    }
                    None => {
                        assert_eq!(r.closed_at, None, "{:?}", r.id);
                        assert!(matches!(r.phase, BidPhase::Pending | BidPhase::Running));
                    }
                }
            }
        }
        assert!(
            interrupted > 0 && finished > 0 && terminated > 0,
            "seed {seed}"
        );
    }
}
