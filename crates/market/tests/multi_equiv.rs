//! The M=1 `MarketSet` parity wall (DESIGN.md §5h).
//!
//! A one-member `MarketSet` is not a new market — it must be the *same*
//! market: identical `SlotReport`s slot by slot (same ids, same order in
//! every event vector, same float price) and identical final `BidRecord`s
//! to a lone `SpotMarket` driven with the same submissions and an
//! identically-seeded RNG. These tests hold that contract across the same
//! four price regimes as the bid-book equivalence wall — uniform,
//! clustered, exact bucket boundaries, and out-of-range extremes — plus
//! capacity reclamations and the engine's `step_into` arena path.

use spotbid_market::multi::{MarketSet, MarketSpec};
use spotbid_market::provider::ProviderPolicy;
use spotbid_market::sim::{BidKind, BidRequest, SlotReport, SpotMarket, Supply, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::Rng;

const BUCKETS: f64 = 512.0;

fn params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
}

fn pair(p: MarketParams) -> (MarketSet, SpotMarket) {
    pair_finite(p, Supply::Unbounded)
}

fn pair_finite(p: MarketParams, supply: Supply) -> (MarketSet, SpotMarket) {
    let slot = Hours::from_minutes(5.0);
    (
        MarketSet::new(vec![MarketSpec::with_supply("solo", p, supply)], slot).unwrap(),
        SpotMarket::with_supply(p, slot, supply),
    )
}

/// A price regime: maps a uniform draw to a bid price (same generators as
/// `bidbook_equiv.rs`).
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

/// Core driver: identical submissions into the one-member set and the lone
/// market, identically seeded step RNGs, slot-by-slot `SlotReport`
/// equality, and final full-`records()` equality.
fn run_equivalence(
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

/// As [`run_equivalence`] under an arbitrary supply model, with each slot
/// independently seeing an identical on-demand demand shift in both the
/// set member and the lone market with probability `od_churn`. Finite
/// supply also pins the per-slot provider telemetry and the final report.
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
    let (mut set, mut lone) = pair_finite(p, supply);
    let mut sub_rng = Rng::seed_from_u64(seed);
    let mut rngs_set = vec![Rng::seed_from_u64(seed ^ 0xFEED)];
    let mut rng_lone = Rng::seed_from_u64(seed ^ 0xFEED);

    for _ in 0..initial {
        let req = random_request(&p, gen, &mut sub_rng);
        assert_eq!(set.submit(0, req), lone.submit(req));
    }

    for s in 0..slots {
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
            assert_eq!(set.submit(0, req), lone.submit(req));
        }
        if reclaim > 0.0 && sub_rng.chance(reclaim) {
            set.reclaim_next_slot(0);
            lone.reclaim_next_slot();
        }
        if od_churn > 0.0 && sub_rng.chance(od_churn) {
            let n = 1 + (sub_rng.range_f64(0.0, 6.0) as u32);
            if sub_rng.chance(0.5) {
                assert_eq!(
                    set.request_on_demand(0, n),
                    lone.request_on_demand(n),
                    "od admissions at slot {s}"
                );
            } else {
                set.release_on_demand(0, n);
                lone.release_on_demand(n);
            }
        }

        let rs = set.step(&mut rngs_set);
        let rl = lone.step(&mut rng_lone);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs[0], rl, "seed {seed} slot {s} diverged");
        assert_eq!(
            set.provider_slots(0).last(),
            lone.provider_slots().last(),
            "seed {seed} slot {s} provider telemetry diverged"
        );
    }

    assert_eq!(set.records(0), lone.records(), "seed {seed} final records");
    assert_eq!(set.now(), lone.now());
    assert_eq!(set.provider_slots(0), lone.provider_slots());
    assert_eq!(set.provider_report(0), lone.provider_report());
}

#[test]
fn singleton_set_equivalent_under_uniform_prices() {
    for seed in [1u64, 2, 42, 0xDEAD] {
        run_equivalence(seed, uniform_price, 200, 120, 0.7, 0.0);
    }
}

#[test]
fn singleton_set_equivalent_under_clustered_prices() {
    for seed in [7u64, 9, 0xC0FFEE] {
        run_equivalence(seed, clustered_price, 300, 100, 0.6, 0.0);
    }
}

#[test]
fn singleton_set_equivalent_on_exact_bucket_boundaries() {
    for seed in [11u64, 13, 19] {
        run_equivalence(seed, boundary_price, 250, 100, 0.5, 0.0);
    }
}

#[test]
fn singleton_set_equivalent_under_out_of_range_prices() {
    for seed in [23u64, 29, 31] {
        run_equivalence(seed, extreme_price, 200, 90, 0.6, 0.0);
    }
}

#[test]
fn singleton_set_equivalent_under_capacity_reclamations() {
    for seed in [43u64, 53, 0xFA17] {
        run_equivalence(seed, uniform_price, 250, 120, 0.6, 0.08);
        run_equivalence(seed, boundary_price, 150, 100, 0.5, 0.4);
    }
}

#[test]
fn singleton_set_equivalent_under_finite_supply() {
    // Finite-capacity members: capacity evictions, on-demand churn, and —
    // in the second regime — dense forced outages layered on top (the
    // reclamation-heavy wall), all bit-identical to a lone finite market.
    let tight = Supply::Finite {
        capacity: 48,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 24 },
    };
    let tiny = Supply::Finite {
        capacity: 16,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 12 },
    };
    for seed in [101u64, 103, 0xCAFE] {
        run_equivalence_supply(seed, uniform_price, 250, 120, 0.7, 0.0, tight, 0.4);
        run_equivalence_supply(seed, boundary_price, 150, 100, 0.5, 0.3, tiny, 0.5);
    }
}

/// Bid `i` of a golden-ratio ladder over `[π_min, π̄)` starting at `phase`.
fn laddered(p: &MarketParams, phase: f64, i: usize) -> Price {
    let frac = (phase + i as f64 * 0.618_033_988_749_895) % 1.0;
    Price::new(p.pi_min.as_f64() + frac * p.spread().as_f64())
}

#[test]
fn singleton_set_equivalent_under_a_standing_squeeze() {
    // The `bidbook_equiv` standing-squeeze regime through the set: a deep
    // laddered book against a box an eighth its size, on-demand churn and
    // one-time geometric churn every slot, so most slots evict a few bids.
    let p = params();
    let (standing, slots) = (3000usize, 150usize);
    let capacity = (standing / 8) as u32;
    let supply = Supply::Finite {
        capacity,
        policy: ProviderPolicy::UtilizationTracking {
            od_cap: capacity / 2,
        },
    };
    for seed in [113u64, 127] {
        let (mut set, mut lone) = pair_finite(p, supply);
        let mut sub_rng = Rng::seed_from_u64(seed);
        let mut rngs_set = vec![Rng::seed_from_u64(seed ^ 0xFEED)];
        let mut rng_lone = Rng::seed_from_u64(seed ^ 0xFEED);
        let phase = sub_rng.range_f64(0.0, 1.0);
        for i in 0..standing {
            let req = BidRequest {
                price: laddered(&p, phase, i),
                kind: BidKind::Persistent,
                work: WorkModel::FixedSlots(u32::MAX),
            };
            assert_eq!(set.submit(0, req), lone.submit(req));
        }
        let mut next = standing;
        let mut evicting = 0;
        for s in 0..slots {
            let depart = (0..lone.od_active())
                .filter(|_| sub_rng.chance(0.1))
                .count() as u32;
            set.release_on_demand(0, depart);
            lone.release_on_demand(depart);
            let arrive = sub_rng.poisson(f64::from(capacity) / 40.0) as u32;
            assert_eq!(
                set.request_on_demand(0, arrive),
                lone.request_on_demand(arrive)
            );
            for _ in 0..4 {
                let req = BidRequest {
                    price: laddered(&p, phase, next),
                    kind: BidKind::OneTime,
                    work: WorkModel::Geometric,
                };
                next += 1;
                assert_eq!(set.submit(0, req), lone.submit(req));
            }

            let rs = set.step(&mut rngs_set);
            let rl = lone.step(&mut rng_lone);
            assert_eq!(rs[0], rl, "seed {seed} slot {s} diverged");
            assert_eq!(
                set.provider_slots(0).last(),
                lone.provider_slots().last(),
                "seed {seed} slot {s} provider telemetry diverged"
            );
            evicting += usize::from(!rl.evicted.is_empty());
        }
        assert!(
            evicting * 10 >= slots * 8,
            "seed {seed}: only {evicting} of {slots} slots evicted"
        );
        assert_eq!(set.records(0), lone.records(), "seed {seed} final records");
        assert_eq!(set.provider_report(0), lone.provider_report());
    }
}

#[test]
fn singleton_set_arena_path_matches_lone_market() {
    // step_into with caller-owned reports (the engine's arena path)
    // against a lone market's step, across every regime.
    for (gen, seed) in [
        (uniform_price as PriceGen, 123u64),
        (clustered_price, 231),
        (boundary_price, 312),
        (extreme_price, 321),
    ] {
        let p = params();
        let (mut set, mut lone) = pair(p);
        let mut sub = Rng::seed_from_u64(seed);
        let mut rngs = vec![Rng::seed_from_u64(seed ^ 0xA12A)];
        let mut rl = Rng::seed_from_u64(seed ^ 0xA12A);
        let mut arena = vec![SlotReport::empty(); 1];
        for s in 0..120 {
            if sub.chance(0.6) {
                let req = random_request(&p, gen, &mut sub);
                set.submit(0, req);
                lone.submit(req);
            }
            set.step_into(&mut rngs, &mut arena);
            let expect = lone.step(&mut rl);
            assert_eq!(arena[0], expect, "slot {s}");
        }
        assert_eq!(set.records(0), lone.records());
    }
}
