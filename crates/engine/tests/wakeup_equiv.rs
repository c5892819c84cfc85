//! The wakeup-fleet equivalence wall: event-driven fleet ≡ frozen
//! `closedloop::dense` oracle, bit for bit.
//!
//! The contract (DESIGN.md §5f) is the tenant-side mirror of the market's
//! bid-book contract: identical `ClosedLoopReport`s (same costs down to
//! float accumulation order), identical `Event` streams (same order,
//! same slots, same prices), and identical RNG stream reservations at any
//! thread count. These tests drive both fleets over the four threshold
//! regimes of `market/tests/bidbook_equiv.rs` — uniform, clustered,
//! exact-bucket-boundary, out-of-range — plus fault plans with feed gaps
//! and capacity reclamations. Both loops refill a report they hold every
//! slot (the kernel hands each spent `SlotReport` back via
//! `PriceSource::reclaim`, and the next `step_into` reuses its buffers),
//! so every run here exercises that path.
//!
//! Two wakeup invariants are also checked directly against the wakeup
//! fleet's own event stream, independent of the oracle:
//!
//! - **no threshold skipped**: replaying the events slot by slot, every
//!   pending bid priced at-or-above the slot's posted price is accepted
//!   that slot — a tenant whose threshold lies between consecutive prices
//!   can never sleep through its crossing;
//! - **skip accounting**: `FleetStats::skipped_slots` equals the number
//!   of zero-activity slots in the dense run (slots whose only event is
//!   `PricePosted`).

use std::collections::BTreeMap;

use spotbid_core::{BiddingStrategy, JobSpec};
use spotbid_engine::closedloop::dense;
use spotbid_engine::{
    run_closed_loop_logged, run_closed_loop_with_stats, ClosedLoopConfig, ClosedLoopReport, Event,
    FleetStats, LoopFaults,
};
use spotbid_market::units::{Hours, Price};
use spotbid_market::{MarketParams, ProviderPolicy, Supply};
use spotbid_numerics::rng::Rng;

const BUCKETS: f64 = 512.0;

fn params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap()
}

fn config(horizon_slots: usize) -> ClosedLoopConfig {
    ClosedLoopConfig {
        params: params(),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 60,
        horizon_slots,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    }
}

/// A threshold regime: maps a uniform draw to a fixed-bid price, placing
/// tenant wakeup thresholds where the bucket classifier hurts most.
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

/// Exact bucket-boundary grid: `π_min + k·spread/512` — every threshold
/// sits on a wakeup-bucket edge, the worst case for the sweep filter.
fn boundary_price(p: &MarketParams, rng: &mut Rng) -> Price {
    let k = rng.range_f64(0.0, BUCKETS + 1.0).floor().min(BUCKETS);
    Price::new(p.pi_min.as_f64() + k * (p.spread().as_f64() / BUCKETS))
}

/// Out-of-range thresholds: below the floor (a bid that never runs and
/// parks in the book forever) and above the cap (always accepted),
/// exercising the open-ended edge buckets.
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

/// A strategy mix dominated by regime-placed fixed thresholds, salted
/// with every adaptive strategy so their decision paths ride along.
fn strategies(n: usize, gen: PriceGen, seed: u64) -> Vec<BiddingStrategy> {
    let p = params();
    let mut rng = Rng::seed_from_u64(seed ^ 0x57A7E61E5);
    (0..n)
        .map(|i| match i % 13 {
            3 => BiddingStrategy::OptimalPersistent,
            5 => BiddingStrategy::BestOffline {
                lookback_hours: 10.0,
            },
            7 => BiddingStrategy::Percentile(0.90),
            9 => BiddingStrategy::OptimalOneTime,
            11 => BiddingStrategy::OnDemand,
            _ => BiddingStrategy::FixedBid(gen(&p, &mut rng)),
        })
        .collect()
}

/// Core assertion: the wakeup fleet reproduces the dense oracle bit for
/// bit — same report (costs, savings, price path) and same event stream —
/// and its unlogged run reproduces its logged one, report and stats.
fn assert_equivalent(
    strats: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
) -> (ClosedLoopReport, Vec<Event>, FleetStats) {
    let (wr, we, stats) = run_closed_loop_logged(strats, cfg, seed, faults).unwrap();
    let (dr, de) = dense::run_closed_loop_logged(strats, cfg, seed, faults).unwrap();
    assert_eq!(wr, dr, "seed {seed}: reports diverged");
    assert_eq!(we.len(), de.len(), "seed {seed}: event counts diverged");
    for (k, (w, d)) in we.iter().zip(&de).enumerate() {
        assert_eq!(w, d, "seed {seed}: event {k} diverged");
    }
    // The unlogged path settles running tenants lazily and never visits a
    // carried runner; it must report exactly what the logged run did.
    let (ur, ustats) = run_closed_loop_with_stats(strats, cfg, seed, faults).unwrap();
    assert_eq!(ur, wr, "seed {seed}: unlogged report diverged");
    assert_eq!(ustats, stats, "seed {seed}: unlogged stats diverged");
    (wr, we, stats)
}

fn sweep(gen: PriceGen, seeds: &[u64]) {
    for &seed in seeds {
        let strats = strategies(60, gen, seed);
        let cfg = config(300);
        let (report, _, stats) = assert_equivalent(&strats, &cfg, seed, None);
        assert_eq!(report.tenants.len(), 60);
        assert_eq!(
            stats.slots, report.slots,
            "every simulated slot was advanced"
        );
    }
}

#[test]
fn equivalent_under_uniform_thresholds() {
    sweep(uniform_price, &[1, 2, 42, 0xDEAD]);
}

#[test]
fn equivalent_under_clustered_thresholds() {
    sweep(clustered_price, &[7, 8, 0xC0FFEE]);
}

#[test]
fn equivalent_on_exact_bucket_boundaries() {
    sweep(boundary_price, &[11, 13, 17]);
}

#[test]
fn equivalent_under_out_of_range_thresholds() {
    sweep(extreme_price, &[23, 29, 31]);
}

#[test]
fn equivalent_under_faults_across_regimes() {
    // Randomized fault plans: scattered feed gaps plus reclamation
    // outages (including back-to-back ones), across all four regimes.
    let regimes: [PriceGen; 4] = [
        uniform_price,
        clustered_price,
        boundary_price,
        extreme_price,
    ];
    for (r, gen) in regimes.into_iter().enumerate() {
        for seed in [101u64 + r as u64, 0xFA17 + r as u64] {
            let cfg = config(200);
            let total = cfg.warmup_slots + cfg.horizon_slots;
            let mut frng = Rng::seed_from_u64(seed ^ 0xFA151);
            let faults = LoopFaults {
                gap: (0..total).map(|_| frng.chance(0.05)).collect(),
                reclaim: (0..total).map(|_| frng.chance(0.10)).collect(),
            };
            let strats = strategies(40, gen, seed);
            assert_equivalent(&strats, &cfg, seed, Some(&faults));
        }
    }
}

#[test]
fn equivalent_under_finite_supply() {
    // Finite-capacity provider: capacity evictions and on-demand churn
    // interrupt running winners and restart parked victims on slots whose
    // price path alone predicts neither. The market's slot report names
    // both (DESIGN.md §5i), and waking its bid owners must keep the fleet
    // bit-identical to the dense oracle.
    let regimes: [PriceGen; 3] = [uniform_price, clustered_price, boundary_price];
    let mut reclaims = 0u64;
    for (r, gen) in regimes.into_iter().enumerate() {
        for seed in [211u64 + r as u64, 0xF177 + r as u64] {
            let cfg = ClosedLoopConfig {
                supply: Supply::Finite {
                    capacity: 40,
                    policy: ProviderPolicy::UtilizationTracking { od_cap: 24 },
                },
                od_arrivals: 1.5,
                od_departure: 0.25,
                ..config(200)
            };
            let strats = strategies(60, gen, seed);
            let (report, _, _) = assert_equivalent(&strats, &cfg, seed, None);
            let p = report.provider.expect("finite run reports the provider");
            assert_eq!(p.capacity, 40);
            reclaims += p.reclaims;
        }
    }
    assert!(
        reclaims > 0,
        "capacity never bound: the wall proved nothing"
    );
}

#[test]
fn equivalent_under_finite_supply_with_faults() {
    // The reclamation-heavy wall: provider-initiated evictions layered
    // under forced reclamation outages and feed gaps, on a tiny box so
    // capacity binds nearly every slot.
    for seed in [307u64, 0xFA57] {
        let cfg = ClosedLoopConfig {
            supply: Supply::Finite {
                capacity: 24,
                policy: ProviderPolicy::StaticSplit { reserved: 8 },
            },
            od_arrivals: 2.0,
            od_departure: 0.3,
            ..config(160)
        };
        let total = cfg.warmup_slots + cfg.horizon_slots;
        let mut frng = Rng::seed_from_u64(seed ^ 0xFA151);
        let faults = LoopFaults {
            gap: (0..total).map(|_| frng.chance(0.05)).collect(),
            reclaim: (0..total).map(|_| frng.chance(0.10)).collect(),
        };
        let strats = strategies(48, extreme_price, seed);
        assert_equivalent(&strats, &cfg, seed, Some(&faults));
    }
}

#[test]
fn cap_below_a_posted_price_fails_alike() {
    // An on-demand price below π̄: once capacity binds and the market
    // posts a price above the cap, the next tenant decision finds the cap
    // below the observed maximum. The slot's shared price view must fail
    // with exactly the dense fleet's per-tenant error — after a first
    // decision round that both fleets survive.
    for (r, gen) in [uniform_price as PriceGen, clustered_price]
        .into_iter()
        .enumerate()
    {
        for seed in [401u64 + r as u64, 0xCA9 + r as u64] {
            let cfg = ClosedLoopConfig {
                on_demand: Price::new(0.2),
                supply: Supply::Finite {
                    capacity: 40,
                    policy: ProviderPolicy::UtilizationTracking { od_cap: 24 },
                },
                od_arrivals: 1.5,
                od_departure: 0.25,
                ..config(200)
            };
            let strats = strategies(60, gen, seed);
            let first_round = ClosedLoopConfig {
                horizon_slots: 1,
                ..cfg
            };
            assert_equivalent(&strats, &first_round, seed, None);
            let w = run_closed_loop_logged(&strats, &cfg, seed, None)
                .expect_err("a posted price tops the cap");
            let d = dense::run_closed_loop_logged(&strats, &cfg, seed, None)
                .expect_err("the oracle fails too");
            assert_eq!(w.to_string(), d.to_string(), "seed {seed}");
            assert!(
                w.to_string().contains("below observed maximum"),
                "seed {seed}: {w}"
            );
        }
    }
}

#[test]
fn equivalent_on_a_big_fleet_burst() {
    // One 2k-tenant session: deep buckets, large needy batches, the
    // sharded decision fan-out with many shards.
    let strats = strategies(2000, clustered_price, 0xB16);
    let cfg = config(120);
    assert_equivalent(&strats, &cfg, 0xB16, None);
}

/// Replays a wakeup event stream slot by slot and asserts the crossing
/// invariant: every bid pending at a slot whose posted price is at or
/// below its price must be accepted that very slot. A tenant whose
/// threshold lies between consecutive slot prices is exactly such a bid
/// at the crossing slot, so none can ever be skipped. (Fault-free only:
/// during a reclamation outage the market starts nothing.)
fn check_no_crossing_skipped(events: &[Event]) {
    // Group per slot; within one slot events are ordered: submissions
    // (before_slot), PricePosted, then per-tenant report processing.
    let mut by_slot: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
    for e in events {
        let slot = match e {
            Event::PricePosted { slot, .. }
            | Event::BidSubmitted { slot, .. }
            | Event::BidAccepted { slot, .. }
            | Event::Interrupted { slot, .. }
            | Event::Reclaimed { slot, .. }
            | Event::Rejected { slot, .. }
            | Event::Completed { slot, .. }
            | Event::FeedOutage { slot, .. } => *slot,
            Event::Charged { item } => item.slot,
        };
        by_slot.entry(slot).or_default().push(e);
    }
    // tenant → (bid price, running?) for tenants holding a live bid.
    let mut live: BTreeMap<u32, (f64, bool)> = BTreeMap::new();
    let mut crossings = 0u64;
    for (slot, evs) in &by_slot {
        let price = evs
            .iter()
            .find_map(|e| match e {
                Event::PricePosted { price, .. } => Some(price.as_f64()),
                _ => None,
            })
            .unwrap_or_else(|| panic!("slot {slot} has no PricePosted"));
        for e in evs.iter() {
            match e {
                Event::BidSubmitted {
                    tenant, price: bid, ..
                } => {
                    live.insert(*tenant, (bid.as_f64(), false));
                }
                Event::BidAccepted { tenant, .. } => {
                    live.get_mut(tenant).expect("accepted bid is live").1 = true;
                }
                Event::Interrupted { tenant, .. } => {
                    if let Some(s) = live.get_mut(tenant) {
                        s.1 = false;
                    }
                }
                Event::Rejected { tenant, .. } | Event::Completed { tenant, .. } => {
                    live.remove(tenant);
                }
                _ => {}
            }
        }
        // After the slot settles: no pending bid at-or-above the posted
        // price may remain un-started — the market would have started it,
        // so a fleet that left it asleep has skipped a crossing.
        for (tenant, (bid, running)) in &live {
            assert!(
                *running || *bid < price,
                "slot {slot}: tenant {tenant} pending at {bid} ≥ posted {price} was skipped"
            );
            if *running {
                crossings += 1;
            }
        }
    }
    assert!(
        crossings > 0,
        "the session never started a bid — vacuous run"
    );
}

#[test]
fn no_threshold_between_consecutive_prices_is_skipped() {
    // Boundary thresholds are the hardest case for the sweep's bucket
    // filter; uniform gives broad coverage.
    for (gen, seed) in [
        (boundary_price as PriceGen, 5u64),
        (uniform_price as PriceGen, 6u64),
    ] {
        let strats = strategies(80, gen, seed);
        let cfg = config(300);
        let (_, events, _) = run_closed_loop_logged(&strats, &cfg, seed, None).unwrap();
        check_no_crossing_skipped(&events);
    }
}

#[test]
fn skip_count_equals_dense_zero_activity_slots() {
    // Fault-free, a skipped slot is exactly a dense-run slot whose only
    // event is the price posting: any tenant state change emits at least
    // one event in its slot (submission, acceptance, charge, rejection,
    // completion), and on-demand resolutions emit their Completed on
    // their decision slot.
    for (gen, seed) in [
        (uniform_price as PriceGen, 21u64),
        (clustered_price as PriceGen, 22u64),
        (extreme_price as PriceGen, 23u64),
    ] {
        let strats = strategies(50, gen, seed);
        let cfg = config(250);
        let (_, events, stats) = assert_equivalent(&strats, &cfg, seed, None);
        let mut active_slots: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::PricePosted { .. } => None,
                Event::Charged { item } => Some(item.slot),
                Event::BidSubmitted { slot, .. }
                | Event::BidAccepted { slot, .. }
                | Event::Interrupted { slot, .. }
                | Event::Reclaimed { slot, .. }
                | Event::Rejected { slot, .. }
                | Event::Completed { slot, .. }
                | Event::FeedOutage { slot, .. } => Some(*slot),
            })
            .collect();
        active_slots.sort_unstable();
        active_slots.dedup();
        assert_eq!(
            stats.skipped_slots,
            stats.slots - active_slots.len() as u64,
            "seed {seed}: skip accounting diverged from the event stream"
        );
        assert!(
            stats.skipped_slots > 0,
            "seed {seed}: a 250-slot tail should go quiet"
        );
    }
}
