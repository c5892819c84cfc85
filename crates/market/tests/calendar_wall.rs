//! The fixed-work finish calendar against the `sim::naive` oracle.
//!
//! The bid-book files each running fixed-work bid once, in a wheel of
//! `SPAN = 256` slot lists for the near window, a wheel of 256 epoch lists
//! beyond it and a far list past that, and refiles a restarted bid lazily
//! when its old entry comes up (DESIGN.md §5e). These sessions run for
//! many spans with work sizes on and around every window edge — 1,
//! span − 1, span, span + 1, 1000, the far edge span² and `u32::MAX` —
//! while price crossings, capacity evictions, parked restarts and
//! reclamation outages interrupt and restart bids across window turns.
//! A finish-wave session launches an equal-work cohort that finishes in
//! one slot, so the book takes its finishers out of their running lists
//! in bulk. Every slot's report, the provider log and the final records
//! must match the oracle bit for bit.

use spotbid_market::provider::ProviderPolicy;
use spotbid_market::sim::{
    naive, BidKind, BidPhase, BidRecord, BidRequest, SpotMarket, Supply, WorkModel,
};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::Rng;

/// The calendar's near-wheel span in slots.
const SPAN: u32 = 256;

fn params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
}

/// Work sizes on and around the calendar's window edges.
const EDGES: [u32; 10] = [
    0,
    1,
    SPAN - 1,
    SPAN,
    SPAN + 1,
    1000,
    SPAN * SPAN - 1,
    SPAN * SPAN,
    SPAN * SPAN + 1,
    u32::MAX,
];

fn request(g: &mut Rng, edges: &[u32]) -> BidRequest {
    let work = if g.chance(0.15) {
        WorkModel::Geometric
    } else if g.chance(0.6) {
        WorkModel::FixedSlots(edges[g.range_usize(edges.len())])
    } else {
        WorkModel::FixedSlots(1 + g.range_usize(2 * SPAN as usize) as u32)
    };
    BidRequest {
        price: Price::new(g.range_f64(0.02, 0.36)),
        kind: if g.chance(0.8) {
            BidKind::Persistent
        } else {
            BidKind::OneTime
        },
        work,
    }
}

/// What a session exercised.
#[derive(Debug, Default)]
struct Seen {
    reclaims: u64,
    parked_restarts: u64,
    outages: usize,
    /// Bids that finished after at least one interruption.
    restarted_finishes: usize,
    /// Bids with work of at least `SPAN` (filed beyond the near wheel at
    /// their first launch) that finished.
    long_finishes: usize,
    /// Bids with work beyond `SPAN²` (filed far) that finished.
    far_finishes: usize,
}

/// One session: `initial` bids, then per slot a Poisson burst of new bids,
/// on-demand churn under finite supply and an outage with probability
/// `outage`, both markets stepped and compared.
fn session(
    seed: u64,
    supply: Supply,
    initial: usize,
    arrivals: f64,
    outage: f64,
    slots: usize,
    edges: &[u32],
) -> Seen {
    let slot_len = Hours::from_minutes(5.0);
    let mut book = SpotMarket::with_supply(params(), slot_len, supply);
    let mut base = naive::SpotMarket::with_supply(params(), slot_len, supply);
    let mut g = Rng::seed_from_u64(seed);
    let (mut rb, mut rn) = (Rng::seed_from_u64(seed ^ 7), Rng::seed_from_u64(seed ^ 7));
    let mut seen = Seen::default();
    for _ in 0..initial {
        let req = request(&mut g, edges);
        assert_eq!(book.submit(req), base.submit(req));
    }
    for s in 0..slots {
        for _ in 0..g.poisson(arrivals) {
            let req = request(&mut g, edges);
            assert_eq!(book.submit(req), base.submit(req));
        }
        if let Supply::Finite { capacity, .. } = supply {
            let depart = (0..book.od_active()).filter(|_| g.chance(0.05)).count() as u32;
            book.release_on_demand(depart);
            base.release_on_demand(depart);
            let arrive = g.poisson(f64::from(capacity) / 60.0) as u32;
            assert_eq!(
                book.request_on_demand(arrive),
                base.request_on_demand(arrive)
            );
        }
        if g.chance(outage) {
            book.reclaim_next_slot();
            base.reclaim_next_slot();
            seen.outages += 1;
        }
        let (x, y) = (book.step(&mut rb), base.step(&mut rn));
        assert_eq!(x, y, "seed {seed} slot {s}");
        assert_eq!(
            book.provider_slots().last(),
            base.provider_slots().last(),
            "seed {seed} slot {s}"
        );
    }
    let records = book.records();
    assert_eq!(records, base.records(), "seed {seed} final records");
    assert_eq!(book.provider_report(), base.provider_report());
    if let Some(p) = book.provider_report() {
        seen.reclaims = p.reclaims;
        seen.parked_restarts = p.parked_restarts;
    }
    let finished_fixed = |r: &&BidRecord| {
        r.phase == BidPhase::Finished && matches!(r.request.work, WorkModel::FixedSlots(_))
    };
    for r in records.iter().filter(finished_fixed) {
        let WorkModel::FixedSlots(work) = r.request.work else {
            unreachable!()
        };
        seen.restarted_finishes += usize::from(r.interruptions > 0);
        seen.long_finishes += usize::from(work >= SPAN);
        seen.far_finishes += usize::from(work > SPAN * SPAN);
    }
    seen
}

fn finite(capacity: u32, od_cap: u32) -> Supply {
    Supply::Finite {
        capacity,
        policy: ProviderPolicy::UtilizationTracking { od_cap },
    }
}

#[test]
fn calendar_matches_the_oracle_across_window_turns() {
    // Twelve spans of slots, every window edge, restarts from price
    // crossings, capacity evictions, parked restarts and outages.
    let slots = 12 * SPAN as usize;
    for seed in [1u64, 2, 3] {
        let seen = session(seed, finite(60, 30), 150, 0.6, 0.004, slots, &EDGES);
        assert!(seen.reclaims > 40, "seed {seed}: {seen:?}");
        assert!(seen.parked_restarts > 100, "seed {seed}: {seen:?}");
        assert!(seen.outages > 2, "seed {seed}: {seen:?}");
        assert!(seen.restarted_finishes > 20, "seed {seed}: {seen:?}");
        assert!(seen.long_finishes > 5, "seed {seed}: {seen:?}");

        let seen = session(seed, Supply::Unbounded, 150, 0.6, 0.004, slots, &EDGES);
        assert!(seen.outages > 2, "seed {seed}: {seen:?}");
        assert!(seen.restarted_finishes > 20, "seed {seed}: {seen:?}");
        assert!(seen.long_finishes > 5, "seed {seed}: {seen:?}");
    }
}

#[test]
fn calendar_matches_the_oracle_across_far_turns() {
    // Past two far turns (every SPAN² slots), with work sizes around the
    // far edge: bids filed far come back through the epoch wheel and the
    // near wheel, some after outages restarted them.
    let edges = [
        1,
        SPAN - 1,
        SPAN + 1,
        SPAN * SPAN - 1,
        SPAN * SPAN,
        SPAN * SPAN + 1,
        SPAN * SPAN + 3 * SPAN,
        u32::MAX,
    ];
    let slots = 2 * (SPAN * SPAN) as usize + 3 * SPAN as usize;
    let seen = session(11, Supply::Unbounded, 40, 0.002, 0.0005, slots, &edges);
    assert!(seen.outages > 30, "{seen:?}");
    assert!(seen.far_finishes >= 3, "{seen:?}");
    assert!(seen.restarted_finishes >= 3, "{seen:?}");
}

/// A price in the middle part of bucket `b` of the book's 512 (any draw
/// of `g` keeps it there), so a session chooses which bids share a
/// running list.
fn in_bucket(g: &mut Rng, b: u32) -> Price {
    let p = params();
    let (lo, w) = (p.pi_min.as_f64(), p.spread().as_f64() / 512.0);
    Price::new(lo + (f64::from(b) + 0.25 + g.range_f64(0.0, 0.5)) * w)
}

/// The buckets a finish-wave session fills, near the top of the range so
/// their bids win every auction.
const WAVE_BUCKETS: [u32; 6] = [500, 502, 503, 505, 508, 511];

/// Runners in each of [`WAVE_BUCKETS`] and how many of them the slot-0
/// wave holds: a bucket that loses at least a quarter of its list is
/// compacted, one that loses less swap-removes its finishers.
const WAVE_SHAPES: [(usize, usize); 6] =
    [(40, 40), (100, 25), (100, 24), (60, 50), (90, 10), (7, 2)];

/// The buckets later arrivals join: all but the two whose wave is a
/// quarter of the list and one bid short of it.
const LATER_BUCKETS: [u32; 4] = [500, 505, 508, 511];

/// One finish-wave session: in slot 0, every bucket of [`WAVE_BUCKETS`]
/// launches its [`WAVE_SHAPES`] runners, the wave's (`work` slots each)
/// interleaved with long-running ones, so the wave finishes together in
/// slot `work - 1`. Later slots launch more bids into most of the same
/// buckets, behind the wave in their lists: longer fixed work and
/// geometric work, whose finishes, like capacity evictions, take a runner
/// out at the position its run entry holds. Under finite supply the
/// on-demand pool grows after the wave until the capacity pass evicts.
/// Every slot's report, the provider log and the final records must match
/// the oracle. Returns the largest number of bids one slot finished and
/// the capacity reclaims.
fn wave_session(seed: u64, supply: Supply, work: u32, slots: usize) -> (usize, u64) {
    let slot_len = Hours::from_minutes(5.0);
    let mut book = SpotMarket::with_supply(params(), slot_len, supply);
    let mut base = naive::SpotMarket::with_supply(params(), slot_len, supply);
    let mut g = Rng::seed_from_u64(seed);
    let (mut rb, mut rn) = (Rng::seed_from_u64(seed ^ 5), Rng::seed_from_u64(seed ^ 5));
    let bid = |price, work| BidRequest {
        price,
        kind: BidKind::Persistent,
        work,
    };
    let mut submit = |req: BidRequest| assert_eq!(book.submit(req), base.submit(req));
    // Slot 0: each bucket's wave members spread evenly among its runners.
    for (&b, &(runners, wave)) in WAVE_BUCKETS.iter().zip(&WAVE_SHAPES) {
        for k in 0..runners {
            let joins = (k + 1) * wave / runners > k * wave / runners;
            let w = if joins { work } else { 4 * work + 7 };
            submit(bid(in_bucket(&mut g, b), WorkModel::FixedSlots(w)));
        }
    }
    let mut most = 0;
    for s in 0..slots {
        if s > 0 {
            for _ in 0..g.poisson(3.0) {
                let b = LATER_BUCKETS[g.range_usize(LATER_BUCKETS.len())];
                let w = if g.chance(0.5) {
                    WorkModel::Geometric
                } else {
                    WorkModel::FixedSlots(work + g.range_usize(3 * work as usize) as u32)
                };
                let req = bid(in_bucket(&mut g, b), w);
                assert_eq!(book.submit(req), base.submit(req));
            }
        }
        if let Supply::Finite { .. } = supply {
            let depart = (0..book.od_active()).filter(|_| g.chance(0.02)).count() as u32;
            book.release_on_demand(depart);
            base.release_on_demand(depart);
            let arrive = g.poisson(if s < work as usize { 0.5 } else { 15.0 }) as u32;
            assert_eq!(
                book.request_on_demand(arrive),
                base.request_on_demand(arrive)
            );
        }
        let (x, y) = (book.step(&mut rb), base.step(&mut rn));
        assert_eq!(x, y, "seed {seed} slot {s}");
        assert_eq!(
            book.provider_slots().last(),
            base.provider_slots().last(),
            "seed {seed} slot {s}"
        );
        most = most.max(x.finished.len());
    }
    assert_eq!(book.records(), base.records(), "seed {seed} final records");
    assert_eq!(book.provider_report(), base.provider_report());
    (most, book.provider_report().map_or(0, |p| p.reclaims))
}

#[test]
fn a_finish_wave_leaves_its_running_lists_as_the_oracle_does() {
    // The wave is 151 of the 397 slot-0 runners; under finite supply the
    // growing on-demand pool later reclaims survivors.
    let wave: usize = WAVE_SHAPES.iter().map(|&(_, w)| w).sum();
    for seed in [1u64, 2, 3] {
        for supply in [Supply::Unbounded, finite(600, 560)] {
            let (most, reclaims) = wave_session(seed, supply, 12, 120);
            assert!(
                most >= wave,
                "seed {seed}, {supply:?}: {most} finished together"
            );
            let finite = matches!(supply, Supply::Finite { .. });
            assert!(
                !finite || reclaims > 100,
                "seed {seed}: {reclaims} reclaims"
            );
        }
    }
}
