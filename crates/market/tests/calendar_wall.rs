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
//! Every slot's report, the provider log and the final records must match
//! the oracle bit for bit.

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
