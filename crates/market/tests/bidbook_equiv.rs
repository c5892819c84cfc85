//! Randomized exact-equivalence suite: the price-indexed bid-book vs the
//! retained `sim::naive` oracle.
//!
//! The bid-book's contract (DESIGN.md §5e) is **bit-identical** output:
//! the same `SlotReport`s slot by slot (same ids, same order in every
//! event vector, same float price), the same `BidRecord`s (same `charged`
//! float accumulation), and the same RNG draw order. These tests drive
//! both implementations with identical submissions and identically-seeded
//! RNGs across seeds, bid mixes, and price regimes — including the hostile
//! ones: prices on exact bucket boundaries, below the price floor, above
//! the cap, zero-slot jobs, and mid-run submission bursts.

use spotbid_market::provider::{optimal_price, ProviderPolicy};
use spotbid_market::sim::{
    naive, BidId, BidKind, BidRequest, SlotReport, SpotMarket, Supply, WorkModel,
};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::Rng;

const BUCKETS: f64 = 512.0;

fn params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
}

fn pair(p: MarketParams) -> (SpotMarket, naive::SpotMarket) {
    let slot = Hours::from_minutes(5.0);
    (SpotMarket::new(p, slot), naive::SpotMarket::new(p, slot))
}

fn pair_finite(p: MarketParams, supply: Supply) -> (SpotMarket, naive::SpotMarket) {
    let slot = Hours::from_minutes(5.0);
    (
        SpotMarket::with_supply(p, slot, supply),
        naive::SpotMarket::with_supply(p, slot, supply),
    )
}

/// A price regime: maps a uniform draw to a bid price.
type PriceGen = fn(&MarketParams, &mut Rng) -> Price;

fn uniform_price(p: &MarketParams, rng: &mut Rng) -> Price {
    Price::new(rng.range_f64(p.pi_min.as_f64(), p.pi_bar.as_f64()))
}

/// Clusters around a few focal prices — deep buckets, heavy boundary work.
fn clustered_price(p: &MarketParams, rng: &mut Rng) -> Price {
    let focals = [0.05, 0.12, 0.175, 0.21, 0.34];
    let f = focals[(rng.range_f64(0.0, focals.len() as f64) as usize).min(focals.len() - 1)];
    let jitter = rng.range_f64(-0.004, 0.004);
    Price::new((f + jitter).clamp(p.pi_min.as_f64(), p.pi_bar.as_f64()))
}

/// Exact bucket-boundary grid: `π_min + k·spread/512` — every price sits
/// on a bucket edge, the worst case for the float bucket classifier.
fn boundary_price(p: &MarketParams, rng: &mut Rng) -> Price {
    let k = rng.range_f64(0.0, BUCKETS + 1.0).floor().min(BUCKETS);
    Price::new(p.pi_min.as_f64() + k * (p.spread().as_f64() / BUCKETS))
}

/// Eq. 3's price at a demand of 1–400: these bids tie the posted price
/// exactly on every slot whose demand matches, where the accept rule's
/// `>=` decides.
fn posted_price(p: &MarketParams, rng: &mut Rng) -> Price {
    optimal_price(p, (1 + rng.range_usize(400)) as f64)
}

/// Out-of-range prices: below the floor (never accepted) and above the
/// cap (always accepted), exercising the open-ended edge buckets.
fn extreme_price(p: &MarketParams, rng: &mut Rng) -> Price {
    let u = rng.range_f64(0.0, 1.0);
    if u < 0.4 {
        Price::new(rng.range_f64(0.0, p.pi_min.as_f64()))
    } else if u < 0.8 {
        Price::new(rng.range_f64(p.pi_bar.as_f64(), 2.0 * p.pi_bar.as_f64()))
    } else {
        uniform_price(p, rng)
    }
}

fn random_request(p: &MarketParams, gen: PriceGen, rng: &mut Rng) -> BidRequest {
    let kind = if rng.chance(0.45) {
        BidKind::OneTime
    } else {
        BidKind::Persistent
    };
    let work = if rng.chance(0.4) {
        WorkModel::Geometric
    } else {
        // Includes 0-slot jobs (accepted-then-immediately-finished) and
        // effectively-unbounded ones.
        let draw = rng.range_f64(0.0, 1.0);
        if draw < 0.05 {
            WorkModel::FixedSlots(0)
        } else if draw < 0.1 {
            WorkModel::FixedSlots(u32::MAX)
        } else {
            WorkModel::FixedSlots((rng.range_f64(1.0, 20.0)) as u32)
        }
    };
    BidRequest {
        price: gen(p, rng),
        kind,
        work,
    }
}

fn assert_sorted(rep: &SlotReport) {
    for v in [
        &rep.started,
        &rep.interrupted,
        &rep.finished,
        &rep.terminated,
    ] {
        assert!(
            v.windows(2).all(|w| w[0] < w[1]),
            "report t={} has an unsorted event vector: {v:?}",
            rep.t
        );
    }
}

/// Core driver: identical submissions into both markets, identically
/// seeded step RNGs, slot-by-slot `SlotReport` equality, interleaved
/// mid-run `record()` reads, and final full-`records()` equality.
fn run_equivalence(seed: u64, gen: PriceGen, initial: usize, slots: usize, churn: f64) {
    run_equivalence_reclaiming(seed, gen, initial, slots, churn, 0.0);
}

/// As [`run_equivalence`], with each slot independently being a capacity
/// reclamation with probability `reclaim` (exercising the parked-bid
/// path, including consecutive reclamations and arrivals mid-outage).
fn run_equivalence_reclaiming(
    seed: u64,
    gen: PriceGen,
    initial: usize,
    slots: usize,
    churn: f64,
    reclaim: f64,
) {
    run_equivalence_supply(
        seed,
        gen,
        initial,
        slots,
        churn,
        reclaim,
        Supply::Unbounded,
        0.0,
    );
}

/// The full driver: as [`run_equivalence_reclaiming`] under an arbitrary
/// supply model, with each slot independently seeing an on-demand demand
/// shift with probability `od_churn` (a request or a release, identical
/// in both markets — the provider-initiated reclamation source). Under
/// finite supply the per-slot provider telemetry and the final
/// `ProviderReport` must also match bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn run_equivalence_supply(
    seed: u64,
    gen: PriceGen,
    initial: usize,
    slots: usize,
    churn: f64,
    reclaim: f64,
    supply: Supply,
    od_churn: f64,
) {
    let p = params();
    let (mut book, mut base) = pair_finite(p, supply);
    let mut sub_rng = Rng::seed_from_u64(seed);
    let mut rng_book = Rng::seed_from_u64(seed ^ 0xFEED);
    let mut rng_base = Rng::seed_from_u64(seed ^ 0xFEED);

    for _ in 0..initial {
        let req = random_request(&p, gen, &mut sub_rng);
        assert_eq!(book.submit(req), base.submit(req));
    }

    for s in 0..slots {
        // Mid-run submission bursts, occasionally heavy.
        let burst = if sub_rng.chance(churn) {
            if sub_rng.chance(0.1) {
                40
            } else {
                1 + (sub_rng.range_f64(0.0, 4.0) as usize)
            }
        } else {
            0
        };
        for _ in 0..burst {
            let req = random_request(&p, gen, &mut sub_rng);
            assert_eq!(book.submit(req), base.submit(req));
        }
        if reclaim > 0.0 && sub_rng.chance(reclaim) {
            book.reclaim_next_slot();
            base.reclaim_next_slot();
        }
        if od_churn > 0.0 && sub_rng.chance(od_churn) {
            let n = 1 + (sub_rng.range_f64(0.0, 6.0) as u32);
            if sub_rng.chance(0.5) {
                assert_eq!(
                    book.request_on_demand(n),
                    base.request_on_demand(n),
                    "od admissions at slot {s}"
                );
            } else {
                book.release_on_demand(n);
                base.release_on_demand(n);
            }
            assert_eq!(book.od_active(), base.od_active());
        }
        assert_eq!(book.open_bids(), base.open_bids(), "demand at slot {s}");

        let rb = book.step(&mut rng_book);
        let rn = base.step(&mut rng_base);
        assert_eq!(rb, rn, "seed {seed} slot {s} diverged");
        assert_sorted(&rb);
        assert_eq!(
            book.provider_slots().last(),
            base.provider_slots().last(),
            "seed {seed} slot {s} provider telemetry diverged"
        );

        // Mid-run record reads (forces + checks the lazy charge sync).
        if s % 7 == 3 && !base.records().is_empty() {
            let probe = BidId(
                (sub_rng.range_f64(0.0, base.records().len() as f64) as u64)
                    .min(base.records().len() as u64 - 1),
            );
            assert_eq!(book.record(probe), base.record(probe));
        }
    }

    assert_eq!(book.records(), base.records(), "seed {seed} final records");
    assert_eq!(book.open_bids(), base.open_bids());
    assert_eq!(book.now(), base.now());
    assert_eq!(book.provider_slots(), base.provider_slots());
    assert_eq!(book.provider_report(), base.provider_report());
}

fn finite(capacity: u32, od_cap: u32) -> Supply {
    Supply::Finite {
        capacity,
        policy: ProviderPolicy::UtilizationTracking { od_cap },
    }
}

#[test]
fn equivalent_under_uniform_prices() {
    for seed in [1u64, 2, 3, 42, 0xDEAD] {
        run_equivalence(seed, uniform_price, 200, 120, 0.7);
    }
}

#[test]
fn equivalent_under_clustered_prices() {
    for seed in [7u64, 8, 9, 0xC0FFEE] {
        run_equivalence(seed, clustered_price, 300, 100, 0.6);
    }
}

#[test]
fn equivalent_on_exact_bucket_boundaries() {
    for seed in [11u64, 13, 17, 19] {
        run_equivalence(seed, boundary_price, 250, 100, 0.5);
    }
}

#[test]
fn equivalent_on_exact_posted_prices() {
    for seed in [101u64, 103, 0x7E5] {
        run_equivalence(seed, posted_price, 250, 100, 0.6);
        run_equivalence_reclaiming(seed, posted_price, 200, 100, 0.5, 0.05);
        run_equivalence_supply(seed, posted_price, 250, 100, 0.6, 0.0, finite(64, 32), 0.3);
    }
}

#[test]
fn equivalent_under_out_of_range_prices() {
    for seed in [23u64, 29, 31] {
        run_equivalence(seed, extreme_price, 200, 90, 0.6);
    }
}

#[test]
fn equivalent_with_no_initial_bids_and_sparse_churn() {
    // Exercises the empty book, the +∞ pre-first-step posted price, and
    // slots where nothing happens at all.
    for seed in [37u64, 41] {
        run_equivalence(seed, uniform_price, 0, 150, 0.25);
    }
}

#[test]
fn equivalent_on_a_moderate_burst() {
    // One 5k-bid burst: the bucket build and first-auction path at scale.
    run_equivalence(0xB16B00B5 % 9973, uniform_price, 5000, 40, 0.3);
}

#[test]
fn equivalent_under_capacity_reclamations() {
    // Scattered single-slot outages: parked running bids, parked pending
    // sweeps, arrivals mid-outage, and the individual re-auction pass.
    for seed in [43u64, 47, 53, 0xFA17] {
        run_equivalence_reclaiming(seed, uniform_price, 250, 120, 0.6, 0.08);
        run_equivalence_reclaiming(seed, clustered_price, 200, 100, 0.5, 0.08);
    }
}

#[test]
fn equivalent_under_heavy_reclamations() {
    // Back-to-back outages: parked bids carried across consecutive
    // reclamation slots, boundary prices, and out-of-range bids that sit
    // parked through an outage.
    for seed in [59u64, 61, 67] {
        run_equivalence_reclaiming(seed, boundary_price, 150, 100, 0.5, 0.4);
        run_equivalence_reclaiming(seed, extreme_price, 150, 100, 0.5, 0.4);
    }
}

#[test]
fn equivalent_under_finite_supply() {
    // Binding, near-binding, and slack capacities: capacity evictions of
    // fresh winners and carried runners, the clearing-price branch, and
    // matching per-slot provider telemetry.
    for seed in [71u64, 73, 79, 0xCAFE] {
        run_equivalence_supply(seed, uniform_price, 250, 120, 0.7, 0.0, finite(64, 32), 0.3);
        run_equivalence_supply(
            seed,
            clustered_price,
            200,
            100,
            0.6,
            0.0,
            finite(24, 16),
            0.4,
        );
        run_equivalence_supply(
            seed,
            uniform_price,
            200,
            100,
            0.6,
            0.0,
            finite(100_000, 64),
            0.3,
        );
    }
}

#[test]
fn equivalent_under_finite_supply_reclamation_storm() {
    // The reclamation-heavy regime: dense forced outages layered over
    // provider-initiated reclamations from on-demand churn against a
    // tight capacity — parked victims carried through outages, boundary
    // and out-of-range bids evicted mid-flight.
    for seed in [83u64, 89, 97, 0xFA57] {
        run_equivalence_supply(seed, uniform_price, 200, 120, 0.6, 0.3, finite(48, 24), 0.5);
        run_equivalence_supply(
            seed,
            boundary_price,
            150,
            100,
            0.5,
            0.3,
            finite(16, 12),
            0.5,
        );
        run_equivalence_supply(seed, extreme_price, 150, 100, 0.5, 0.3, finite(32, 16), 0.5);
    }
}

/// Bid `i` of a golden-ratio ladder over `[π_min, π̄)` starting at `phase`.
fn laddered(p: &MarketParams, phase: f64, i: usize) -> Price {
    let frac = (phase + i as f64 * 0.618_033_988_749_895) % 1.0;
    Price::new(p.pi_min.as_f64() + frac * p.spread().as_f64())
}

/// The standing-squeeze regime: `standing` laddered persistent bids that
/// never finish, a box of about an eighth of the book, on-demand churn
/// every slot and four one-time geometric churn bids per slot. The few
/// victims sit just above the clearing price, so the capacity pass's
/// cutoff bucket is among the first that hold candidates and it gathers
/// only a sliver of them. Returns how many slots evicted something.
fn run_standing_squeeze(seed: u64, standing: usize, slots: usize) -> usize {
    let p = params();
    let capacity = (standing / 8) as u32;
    let (mut book, mut base) = pair_finite(p, finite(capacity, capacity / 2));
    let mut sub_rng = Rng::seed_from_u64(seed);
    let mut rng_book = Rng::seed_from_u64(seed ^ 0xFEED);
    let mut rng_base = Rng::seed_from_u64(seed ^ 0xFEED);
    let phase = sub_rng.range_f64(0.0, 1.0);
    let mut next = 0usize;
    let mut ladder = |kind, work| {
        next += 1;
        BidRequest {
            price: laddered(&p, phase, next - 1),
            kind,
            work,
        }
    };
    for _ in 0..standing {
        let req = ladder(BidKind::Persistent, WorkModel::FixedSlots(u32::MAX));
        assert_eq!(book.submit(req), base.submit(req));
    }

    let mut evicting = 0;
    for s in 0..slots {
        let depart = (0..book.od_active())
            .filter(|_| sub_rng.chance(0.1))
            .count() as u32;
        book.release_on_demand(depart);
        base.release_on_demand(depart);
        let arrive = sub_rng.poisson(f64::from(capacity) / 40.0) as u32;
        assert_eq!(
            book.request_on_demand(arrive),
            base.request_on_demand(arrive)
        );
        for _ in 0..4 {
            let req = ladder(BidKind::OneTime, WorkModel::Geometric);
            assert_eq!(book.submit(req), base.submit(req));
        }

        let rb = book.step(&mut rng_book);
        let rn = base.step(&mut rng_base);
        assert_eq!(rb, rn, "seed {seed} slot {s} diverged");
        assert_sorted(&rb);
        assert_eq!(
            book.provider_slots().last(),
            base.provider_slots().last(),
            "seed {seed} slot {s} provider telemetry diverged"
        );
        evicting += usize::from(!rb.evicted.is_empty());
        if s % 13 == 5 {
            let probe = BidId(sub_rng.range_f64(0.0, base.records().len() as f64) as u64);
            assert_eq!(book.record(probe), base.record(probe));
        }
    }
    assert_eq!(book.records(), base.records(), "seed {seed} final records");
    assert_eq!(book.provider_report(), base.provider_report());
    evicting
}

#[test]
fn equivalent_under_a_standing_squeeze() {
    // Thousands of standing bids against a box an eighth their size: the
    // workload shape where the capacity pass selects a few victims out of
    // a deep book (cutoff bucket well below the top one).
    for seed in [107u64, 109, 0x5E1E] {
        let slots = 150;
        let evicting = run_standing_squeeze(seed, 3000, slots);
        assert!(
            evicting * 10 >= slots * 8,
            "seed {seed}: only {evicting} of {slots} slots evicted"
        );
    }
}

#[test]
fn run_matches_stepwise_and_naive() {
    let p = params();
    let (mut book, mut base) = pair(p);
    let mut sub = Rng::seed_from_u64(77);
    for _ in 0..150 {
        let req = random_request(&p, uniform_price, &mut sub);
        book.submit(req);
        base.submit(req);
    }
    let mut r1 = Rng::seed_from_u64(99);
    let mut r2 = Rng::seed_from_u64(99);
    let a = book.run(80, &mut r1);
    let b = base.run(80, &mut r2);
    assert_eq!(a, b);
}

#[test]
fn recycled_arena_path_matches_naive() {
    // step_into on one report reused across slots (the engine's arena
    // path) against the oracle.
    let p = params();
    let (mut book, mut base) = pair(p);
    let mut sub = Rng::seed_from_u64(123);
    let mut rb = Rng::seed_from_u64(321);
    let mut rn = Rng::seed_from_u64(321);
    let mut arena = SlotReport::empty();
    for s in 0..120 {
        if sub.chance(0.6) {
            let req = random_request(&p, clustered_price, &mut sub);
            book.submit(req);
            base.submit(req);
        }
        book.step_into(&mut rb, &mut arena);
        let expect = base.step(&mut rn);
        assert_eq!(arena, expect, "slot {s}");
    }
    assert_eq!(book.records(), base.records());
}
