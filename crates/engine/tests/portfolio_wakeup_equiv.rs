//! The portfolio wakeup-fleet equivalence wall: event-driven portfolio
//! fleet ≡ frozen `closedloop::portfolio::dense` oracle, bit for bit
//! (DESIGN.md §5j).
//!
//! The contract mirrors the single-market wall (`tests/wakeup_equiv.rs`),
//! lifted to M markets: identical `PortfolioReport`s (same costs down to
//! float accumulation order), identical `Event` streams (same order, same
//! slots, same per-market prices), at any thread count. The threshold
//! regimes are the bid-book quartet — uniform, clustered,
//! exact-bucket-boundary, out-of-range — driven through the portfolio
//! strategy shells so every member market sees hostile thresholds, plus
//! per-market fault plans and mixed
//! `Supply::Finite`/`Supply::Unbounded` memberships.
//!
//! The degenerate corner is held down twice: an M=1 wakeup portfolio
//! must reproduce `run_closed_loop` — which the parity wall in
//! `tests/portfolio.rs` checks event-for-event — and here its *wakeup
//! accounting* (slots, skips, wakeups) must match the single-market
//! fleet's too: same machinery, same wake sets, one market.

use std::collections::BTreeMap;

use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::strategy::BiddingStrategy;
use spotbid_core::JobSpec;
use spotbid_engine::closedloop::portfolio::dense;
use spotbid_engine::{
    run_closed_loop_logged, run_portfolio_loop_logged, run_portfolio_loop_with_stats,
    ClosedLoopConfig, Event, LoopFaults, PortfolioLoopConfig, PortfolioMarket, PortfolioReport,
};
use spotbid_exec::with_threads;
use spotbid_market::units::{Hours, Price};
use spotbid_market::{MarketParams, ProviderPolicy, Supply};
use spotbid_numerics::rng::Rng;

const BUCKETS: f64 = 512.0;

fn params(i: usize) -> MarketParams {
    MarketParams::new(
        Price::new(0.35),
        Price::new(0.02 + 0.004 * i as f64),
        0.05,
        0.05,
    )
    .unwrap()
}

fn config(horizon_slots: usize) -> PortfolioLoopConfig {
    PortfolioLoopConfig {
        markets: (0..3)
            .map(|i| PortfolioMarket {
                name: format!("zone-{i}"),
                params: params(i),
                idio_arrivals: 1.5,
                supply: Supply::Unbounded,
            })
            .collect(),
        shared_arrivals: 1.5,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 40,
        horizon_slots,
        max_resubmissions: 3,
    }
}

/// A threshold regime, as in the single-market wall: maps a uniform draw
/// to a fixed-bid price placed where the bucket classifier hurts most.
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

/// Exact bucket-boundary grid of the *first* market; the staggered floors
/// of the other members turn the same prices into off-grid thresholds
/// there, so both edge cases run in one sweep.
fn boundary_price(p: &MarketParams, rng: &mut Rng) -> Price {
    let k = rng.range_f64(0.0, BUCKETS + 1.0).floor().min(BUCKETS);
    Price::new(p.pi_min.as_f64() + k * (p.spread().as_f64() / BUCKETS))
}

/// Out-of-range thresholds: below every floor (a bid that parks in its
/// book forever) and above the cap (always accepted immediately).
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

/// Regime-placed thresholds wrapped in every portfolio shell: single-leg
/// zone fallback, M-leg even splits, and spot/on-demand contracts, salted
/// with the adaptive bases so their decision paths ride along.
fn portfolio_strategies(n: usize, gen: PriceGen, seed: u64) -> Vec<PortfolioStrategy> {
    let p = params(0);
    let mut rng = Rng::seed_from_u64(seed ^ 0x57A7E61E5);
    (0..n)
        .map(|i| {
            let base = match i % 13 {
                3 => BiddingStrategy::OptimalPersistent,
                5 => BiddingStrategy::BestOffline {
                    lookback_hours: 10.0,
                },
                7 => BiddingStrategy::Percentile(0.90),
                9 => BiddingStrategy::OptimalOneTime,
                11 => BiddingStrategy::OnDemand,
                _ => BiddingStrategy::FixedBid(gen(&p, &mut rng)),
            };
            match i % 3 {
                0 => PortfolioStrategy::ZoneFallback { home: i % 3, base },
                1 => PortfolioStrategy::SplitEven { base },
                _ => PortfolioStrategy::Contract {
                    spot_share: 0.5 + (i % 5) as f64 * 0.1,
                    base,
                },
            }
        })
        .collect()
}

/// Core assertion: the wakeup portfolio fleet reproduces the dense oracle
/// bit for bit — same report and same event stream — and its unlogged run
/// reproduces its logged one, report and stats.
fn assert_equivalent(
    strats: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
) -> (PortfolioReport, Vec<Event>) {
    let (wr, we, stats) = run_portfolio_loop_logged(strats, cfg, seed, faults).unwrap();
    let (dr, de) = dense::run_portfolio_loop_logged(strats, cfg, seed, faults).unwrap();
    assert_eq!(wr, dr, "seed {seed}: reports diverged");
    assert_eq!(we.len(), de.len(), "seed {seed}: event counts diverged");
    for (k, (w, d)) in we.iter().zip(&de).enumerate() {
        assert_eq!(w, d, "seed {seed}: event {k} diverged");
    }
    // The unlogged path settles running legs lazily and never visits a
    // carried runner; it must report exactly what the logged run did.
    let (ur, ustats) = run_portfolio_loop_with_stats(strats, cfg, seed, faults).unwrap();
    assert_eq!(ur, wr, "seed {seed}: unlogged report diverged");
    assert_eq!(ustats, stats, "seed {seed}: unlogged stats diverged");
    (wr, we)
}

fn sweep(gen: PriceGen, seeds: &[u64]) {
    for &seed in seeds {
        let strats = portfolio_strategies(60, gen, seed);
        let cfg = config(200);
        let (report, _) = assert_equivalent(&strats, &cfg, seed, None);
        assert_eq!(report.tenants.len(), 60);
        assert_eq!(report.mean_price.len(), 3);
    }
}

#[test]
fn equivalent_under_uniform_thresholds() {
    sweep(uniform_price, &[1, 2, 0xDEAD]);
}

#[test]
fn equivalent_under_clustered_thresholds() {
    sweep(clustered_price, &[7, 0xC0FFEE]);
}

#[test]
fn equivalent_on_exact_bucket_boundaries() {
    sweep(boundary_price, &[11, 17]);
}

#[test]
fn equivalent_under_out_of_range_thresholds() {
    sweep(extreme_price, &[23, 31]);
}

#[test]
fn equivalent_under_per_market_faults() {
    // Independent randomized fault plans per member market: scattered
    // feed gaps plus reclamation outages (including back-to-back ones),
    // across all four regimes.
    let regimes: [PriceGen; 4] = [
        uniform_price,
        clustered_price,
        boundary_price,
        extreme_price,
    ];
    let mut any_interrupted = false;
    for (r, gen) in regimes.into_iter().enumerate() {
        let seed = 0xFA17 + r as u64;
        let cfg = config(160);
        let total = cfg.warmup_slots + cfg.horizon_slots;
        let faults: Vec<LoopFaults> = (0..cfg.markets.len())
            .map(|m| {
                let mut frng = Rng::seed_from_u64(seed ^ (0xFA151 + m as u64));
                LoopFaults {
                    gap: (0..total).map(|_| frng.chance(0.05)).collect(),
                    reclaim: (0..total).map(|_| frng.chance(0.10)).collect(),
                }
            })
            .collect();
        let strats = portfolio_strategies(48, gen, seed);
        let (report, _) = assert_equivalent(&strats, &cfg, seed, Some(&faults));
        any_interrupted |= report.tenants.iter().any(|t| t.interruptions > 0);
    }
    assert!(
        any_interrupted,
        "no reclamation ever bit across the regimes"
    );
}

#[test]
fn equivalent_with_mixed_finite_supply_members() {
    // One unbounded zone next to two finite boxes small enough to bind:
    // provider evictions park victims and restart them on slots no price
    // path predicts, in some markets but not others. Waking the owners
    // each market's report names must keep the fleets bit-identical.
    let mut reclaims = 0u64;
    for (gen, seed) in [
        (uniform_price as PriceGen, 211u64),
        (clustered_price as PriceGen, 0xF177),
    ] {
        let mut cfg = config(160);
        cfg.markets[1].supply = Supply::Finite {
            capacity: 12,
            policy: ProviderPolicy::StaticSplit { reserved: 4 },
        };
        cfg.markets[2].supply = Supply::Finite {
            capacity: 40,
            policy: ProviderPolicy::UtilizationTracking { od_cap: 24 },
        };
        let strats = portfolio_strategies(60, gen, seed);
        let (report, _) = assert_equivalent(&strats, &cfg, seed, None);
        assert!(
            report.provider[0].is_none(),
            "unbounded zone grew a provider"
        );
        for m in [1, 2] {
            let p = report.provider[m].expect("finite member reports its provider");
            reclaims += p.reclaims;
        }
    }
    assert!(
        reclaims > 0,
        "capacity never bound: the wall proved nothing"
    );
}

#[test]
fn cap_below_a_posted_price_fails_alike() {
    // An on-demand price below π̄ over finite boxes: once a box binds and
    // its market posts a price above the cap, the next plan whose legs
    // consult that market finds the cap below the observed maximum. The
    // slot's shared portfolio view must fail with exactly the dense
    // fleet's per-tenant error — after a first planning round that both
    // fleets survive.
    for (gen, seed) in [
        (uniform_price as PriceGen, 421u64),
        (clustered_price as PriceGen, 0xCA9),
    ] {
        let mut cfg = config(160);
        cfg.on_demand = Price::new(0.25);
        for market in &mut cfg.markets {
            market.supply = Supply::Finite {
                capacity: 12,
                policy: ProviderPolicy::StaticSplit { reserved: 4 },
            };
        }
        let strats = portfolio_strategies(60, gen, seed);
        let first_round = PortfolioLoopConfig {
            horizon_slots: 1,
            ..cfg.clone()
        };
        assert_equivalent(&strats, &first_round, seed, None);
        let w = run_portfolio_loop_logged(&strats, &cfg, seed, None)
            .expect_err("a posted price tops the cap");
        let d = dense::run_portfolio_loop_logged(&strats, &cfg, seed, None)
            .expect_err("the oracle fails too");
        assert_eq!(w.to_string(), d.to_string(), "seed {seed}");
        assert!(
            w.to_string().contains("below observed maximum"),
            "seed {seed}: {w}"
        );
    }
}

/// The one-market portfolio of a single-market config: same market, same
/// background process (all idiosyncratic, zero shared shock), same
/// horizon.
fn one_market(cfg: &ClosedLoopConfig) -> PortfolioLoopConfig {
    PortfolioLoopConfig {
        markets: vec![PortfolioMarket {
            name: "solo".into(),
            params: cfg.params,
            idio_arrivals: cfg.background_arrivals,
            supply: cfg.supply,
        }],
        shared_arrivals: 0.0,
        slot_len: cfg.slot_len,
        on_demand: cfg.on_demand,
        job: cfg.job,
        warmup_slots: cfg.warmup_slots,
        horizon_slots: cfg.horizon_slots,
        max_resubmissions: cfg.max_resubmissions,
    }
}

#[test]
fn degenerate_single_market_wakeup_accounting_matches() {
    // M=1 is not a new simulator: the parity wall in `tests/portfolio.rs`
    // pins the degenerate report and event stream to `run_closed_loop`;
    // here the wakeup *accounting* must agree too — same processed
    // slots, same O(1) skips, same total wakeups as the single-market
    // fleet on the identical session.
    let single = ClosedLoopConfig {
        params: params(0),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 60,
        horizon_slots: 240,
        background_arrivals: 3.0,
        max_resubmissions: 3,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    };
    let pcfg = one_market(&single);
    let mut rng = Rng::seed_from_u64(0xDE6E);
    let bases: Vec<BiddingStrategy> = (0..80)
        .map(|i| match i % 13 {
            3 => BiddingStrategy::OptimalPersistent,
            9 => BiddingStrategy::OptimalOneTime,
            _ => BiddingStrategy::FixedBid(uniform_price(&single.params, &mut rng)),
        })
        .collect();
    let ports: Vec<PortfolioStrategy> = bases
        .iter()
        .map(|&base| PortfolioStrategy::ZoneFallback { home: 0, base })
        .collect();
    let (_, _, sstats) = run_closed_loop_logged(&bases, &single, 0xDE6E, None).unwrap();
    let (_, pstats) = run_portfolio_loop_with_stats(&ports, &pcfg, 0xDE6E, None).unwrap();
    assert_eq!(pstats.slots, sstats.slots, "processed-slot counts diverged");
    assert_eq!(
        pstats.skipped_slots, sstats.skipped_slots,
        "skip accounting diverged from the single-market fleet"
    );
    assert_eq!(pstats.woken, sstats.woken, "wakeup counts diverged");
    assert_eq!(pstats.swept.len(), 1);
    assert!(pstats.skipped_slots > 0, "a 240-slot tail should go quiet");
}

#[test]
fn digest_identical_at_1_and_4_threads_with_stats() {
    // Thread-invariance of the wakeup path including its accounting: the
    // wake sets themselves must not depend on the worker count.
    let strats = portfolio_strategies(200, clustered_price, 0x907F);
    let cfg = config(160);
    let one = with_threads(1, || {
        run_portfolio_loop_with_stats(&strats, &cfg, 0x907F, None).unwrap()
    });
    let four = with_threads(4, || {
        run_portfolio_loop_with_stats(&strats, &cfg, 0x907F, None).unwrap()
    });
    assert_eq!(one.0, four.0, "thread count leaked into the report");
    assert_eq!(one.1, four.1, "thread count leaked into the wakeup stats");
    assert_eq!(one.1.swept.len(), 3);
    assert!(one.1.woken > 0);
}

#[test]
fn skip_count_equals_dense_zero_activity_slots() {
    // Fault-free and unbounded, a skipped slot is exactly a dense-run
    // slot whose only events are the M price postings: every tenant
    // state change emits at least one event in its slot.
    for (gen, seed) in [
        (uniform_price as PriceGen, 21u64),
        (clustered_price as PriceGen, 22u64),
        (extreme_price as PriceGen, 23u64),
    ] {
        let strats = portfolio_strategies(50, gen, seed);
        let cfg = config(200);
        let (_, events) = assert_equivalent(&strats, &cfg, seed, None);
        let (_, stats) = run_portfolio_loop_with_stats(&strats, &cfg, seed, None).unwrap();
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
            "seed {seed}: a 200-slot tail should go quiet"
        );
    }
}

/// Paired wake chains under mixed finite supply: a BTreeMap audit that
/// the ordering of per-slot events is reproducible at a second thread
/// count even when evictions dominate (the mixed-supply analog of the
/// thread-invariance digest above).
#[test]
fn mixed_supply_thread_invariant() {
    let mut cfg = config(120);
    cfg.markets[0].supply = Supply::Finite {
        capacity: 16,
        policy: ProviderPolicy::StaticSplit { reserved: 4 },
    };
    let strats = portfolio_strategies(96, uniform_price, 0x51AB);
    let one = with_threads(1, || {
        run_portfolio_loop_logged(&strats, &cfg, 0x51AB, None).unwrap()
    });
    let four = with_threads(4, || {
        run_portfolio_loop_logged(&strats, &cfg, 0x51AB, None).unwrap()
    });
    assert_eq!(one.0, four.0);
    assert_eq!(one.1, four.1);
    let mut per_slot: BTreeMap<u64, usize> = BTreeMap::new();
    for e in &one.1 {
        if let Event::PricePosted { slot, .. } = e {
            *per_slot.entry(*slot).or_default() += 1;
        }
    }
    // Every simulated slot posts exactly M prices, in market order.
    assert!(per_slot.values().all(|&m| m == cfg.markets.len()));
}
