//! One seed of each market equivalence wall, small enough for a debug
//! `cargo test`.
//!
//! The full walls (`crates/market/tests/{bidbook_equiv, calendar_wall,
//! multi_equiv, bid_columns}.rs`) run many seeds and regimes; this file
//! runs one seed of each (three for the price regimes) so that a change
//! which breaks the bid-book, its finish calendar, the provider pool or
//! the `MarketSet` fails here too:
//!
//! - book ≡ naive oracle on uniform prices, prices exactly on bucket
//!   boundaries, prices exactly at posted prices and prices out of range;
//! - book ≡ naive through reclamation outages;
//! - book ≡ naive on finite supply, with on-demand requests and releases
//!   every slot;
//! - book ≡ naive with fixed-work bids that cross calendar window turns;
//! - `MarketSet` ≡ its markets stepped one by one.
//!
//! Every case compares every `SlotReport`, every `ProviderSlot` and the
//! final records, and checks that the regime it names really occurred.

use spotbid::market::multi::{MarketSet, MarketSpec};
use spotbid::market::provider::{optimal_price, ProviderPolicy};
use spotbid::market::sim::{
    naive, BidKind, BidPhase, BidRequest, SlotReport, SpotMarket, Supply, WorkModel,
};
use spotbid::market::units::{Hours, Price};
use spotbid::market::MarketParams;
use spotbid::numerics::rng::Rng;

/// The book's bucket count and the calendar's near-wheel span.
const BUCKETS: f64 = 512.0;
const SPAN: u32 = 256;

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

/// How a bid's price is drawn.
#[derive(Clone, Copy)]
enum Prices {
    Uniform,
    /// `π_min + k·spread/512`: every price on a bucket edge.
    Boundaries,
    /// Eq. 3's price at a demand of 1–400: bids that tie the posted price
    /// exactly on the slots whose demand matches, where the accept rule's
    /// `>=` decides.
    Posted,
    /// Below the floor, above the cap, or (a fifth of them) uniform.
    OutOfRange,
}

/// A random bid of either kind; `work` draws its work model.
fn request(g: &mut Rng, prices: Prices, work: impl Fn(&mut Rng) -> WorkModel) -> BidRequest {
    let p = params();
    let (lo, hi) = (p.pi_min.as_f64(), p.pi_bar.as_f64());
    let price = match prices {
        Prices::Uniform => g.range_f64(lo, hi),
        Prices::Boundaries => {
            lo + g.range_f64(0.0, BUCKETS + 1.0).floor().min(BUCKETS) * (hi - lo) / BUCKETS
        }
        Prices::Posted => optimal_price(&p, (1 + g.range_usize(400)) as f64).as_f64(),
        Prices::OutOfRange => match g.range_usize(5) {
            0 | 1 => g.range_f64(0.0, lo),
            2 | 3 => g.range_f64(hi, 2.0 * hi),
            _ => g.range_f64(lo, hi),
        },
    };
    BidRequest {
        price: Price::new(price),
        kind: if g.chance(0.45) {
            BidKind::OneTime
        } else {
            BidKind::Persistent
        },
        work: work(g),
    }
}

/// Geometric work, or a short fixed job (zero-slot jobs included).
fn short_work(g: &mut Rng) -> WorkModel {
    if g.chance(0.4) {
        WorkModel::Geometric
    } else {
        WorkModel::FixedSlots(g.range_usize(20) as u32)
    }
}

/// Fixed work on and around the calendar's window edges.
fn edge_work(g: &mut Rng) -> WorkModel {
    let edges = [1, SPAN - 1, SPAN, SPAN + 1, 2 * SPAN + 3, 1000];
    if g.chance(0.1) {
        WorkModel::Geometric
    } else {
        WorkModel::FixedSlots(edges[g.range_usize(edges.len())])
    }
}

/// What one lockstep session exercised.
#[derive(Debug, Default)]
struct Seen {
    outages: usize,
    evicted: usize,
    /// Running spot instances the provider reclaimed.
    reclaims: u64,
    /// Fixed-work bids of at least `SPAN` slots that finished.
    long_finishes: usize,
}

/// One session of the bid-book against the naive oracle: `initial` bids,
/// then per slot a few arrivals, an outage with probability `outage`
/// and, under finite supply, an on-demand request and a release.
fn lockstep(
    seed: u64,
    supply: Supply,
    prices: Prices,
    work: fn(&mut Rng) -> WorkModel,
    (initial, slots, outage): (usize, usize, f64),
) -> Seen {
    let mut book = SpotMarket::with_supply(params(), slot_len(), supply);
    let mut base = naive::SpotMarket::with_supply(params(), slot_len(), supply);
    let mut g = Rng::seed_from_u64(seed);
    let (mut rb, mut rn) = (Rng::seed_from_u64(!seed), Rng::seed_from_u64(!seed));
    let mut seen = Seen::default();
    for _ in 0..initial {
        let req = request(&mut g, prices, work);
        assert_eq!(book.submit(req), base.submit(req));
    }
    let mut report = SlotReport::empty();
    for s in 0..slots {
        for _ in 0..g.poisson(1.5) {
            let req = request(&mut g, prices, work);
            assert_eq!(book.submit(req), base.submit(req));
        }
        if let Supply::Finite { capacity, .. } = supply {
            let n = g.range_usize(capacity as usize / 4 + 1) as u32;
            assert_eq!(book.request_on_demand(n), base.request_on_demand(n));
            let n = g.range_usize(capacity as usize / 4 + 1) as u32;
            book.release_on_demand(n);
            base.release_on_demand(n);
            assert_eq!(book.od_active(), base.od_active(), "seed {seed} slot {s}");
        }
        if g.chance(outage) {
            book.reclaim_next_slot();
            base.reclaim_next_slot();
            seen.outages += 1;
        }
        book.step_into(&mut rb, &mut report);
        assert_eq!(report, base.step(&mut rn), "seed {seed} slot {s}");
        assert_eq!(
            book.provider_slots().last(),
            base.provider_slots().last(),
            "seed {seed} slot {s}"
        );
        seen.evicted += report.evicted.len();
    }
    let records = book.records();
    assert_eq!(records, base.records(), "seed {seed} final records");
    assert_eq!(book.provider_slots(), base.provider_slots());
    assert_eq!(book.provider_report(), base.provider_report());
    seen.reclaims = book.provider_report().map_or(0, |p| p.reclaims);
    seen.long_finishes = records
        .iter()
        .filter(|r| {
            r.phase == BidPhase::Finished
                && matches!(r.request.work, WorkModel::FixedSlots(w) if w >= SPAN)
        })
        .count();
    seen
}

#[test]
fn book_matches_naive_on_uniform_boundary_posted_and_out_of_range_prices() {
    for prices in [
        Prices::Uniform,
        Prices::Boundaries,
        Prices::Posted,
        Prices::OutOfRange,
    ] {
        // Three seeds: a session sees only a few exact ties.
        for seed in [11, 12, 13] {
            lockstep(seed, Supply::Unbounded, prices, short_work, (200, 80, 0.0));
        }
    }
}

#[test]
fn book_matches_naive_through_reclamation_outages() {
    let seen = lockstep(
        13,
        Supply::Unbounded,
        Prices::Uniform,
        short_work,
        (200, 80, 0.1),
    );
    assert!(seen.outages >= 3, "{seen:?}");
}

#[test]
fn book_matches_naive_on_finite_supply_with_on_demand_churn() {
    let seen = lockstep(
        17,
        finite(40, 24),
        Prices::Uniform,
        short_work,
        (200, 80, 0.0),
    );
    assert!(seen.evicted > 0 && seen.reclaims > 0, "{seen:?}");
}

#[test]
fn book_matches_naive_across_calendar_window_turns() {
    // Past two window turns of the calendar (slots 256 and 512), with
    // fixed work filed in its near wheel, its epoch wheel, and past it.
    let seen = lockstep(
        19,
        finite(60, 20),
        Prices::Uniform,
        edge_work,
        (120, 2 * SPAN as usize + 40, 0.004),
    );
    assert!(seen.long_finishes > 3, "{seen:?}");
}

#[test]
fn market_set_matches_its_markets_stepped_one_by_one() {
    let supplies = [Supply::Unbounded, finite(30, 16), finite(200, 50)];
    let specs = supplies
        .iter()
        .enumerate()
        .map(|(m, &supply)| MarketSpec::with_supply(format!("m{m}"), params(), supply))
        .collect();
    let mut set = MarketSet::new(specs, slot_len()).unwrap();
    let mut lone: Vec<SpotMarket> = supplies
        .iter()
        .map(|&supply| SpotMarket::with_supply(params(), slot_len(), supply))
        .collect();
    let streams = |m: u64| Rng::seed_from_u64(0x5E7 + m);
    let mut set_rngs: Vec<Rng> = (0..3).map(streams).collect();
    let mut lone_rngs: Vec<Rng> = (0..3).map(streams).collect();
    let mut g = Rng::seed_from_u64(23);
    let mut reports = vec![SlotReport::empty(); 3];
    for s in 0..80 {
        for (m, market) in lone.iter_mut().enumerate() {
            for _ in 0..g.poisson(if s == 0 { 150.0 } else { 2.0 }) {
                let req = request(&mut g, Prices::Uniform, short_work);
                assert_eq!(set.submit(m, req), market.submit(req));
            }
            let n = g.range_usize(8) as u32;
            assert_eq!(set.request_on_demand(m, n), market.request_on_demand(n));
            let n = g.range_usize(8) as u32;
            set.release_on_demand(m, n);
            market.release_on_demand(n);
            if g.chance(0.03) {
                set.reclaim_next_slot(m);
                market.reclaim_next_slot();
            }
        }
        set.step_into(&mut set_rngs, &mut reports);
        for (m, market) in lone.iter_mut().enumerate() {
            assert_eq!(
                reports[m],
                market.step(&mut lone_rngs[m]),
                "market {m} slot {s}"
            );
            assert_eq!(set.provider_slots(m), market.provider_slots(), "market {m}");
        }
    }
    for (m, market) in lone.iter_mut().enumerate() {
        assert_eq!(set.records(m), market.records(), "market {m} final records");
        assert_eq!(set.provider_report(m), market.provider_report());
    }
    let squeezed = set.provider_report(1).unwrap();
    assert!(
        squeezed.reclaims + squeezed.fresh_evictions > 0,
        "{squeezed:?}"
    );
}
