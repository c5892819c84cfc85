//! Scale determinism: the closed loop at 10k–1M tenants must be a pure
//! function of its seed, independent of the worker count.
//!
//! The wakeup fleet parallelizes only the pure decision stage; bid ids,
//! events, and reports are produced serially in tenant order. These tests
//! hold that contract at the target populations: identical
//! `ClosedLoopReport`s — and identical digests of the full per-tenant
//! outcome stream — at 1 and 4 `spotbid-exec` workers, at 10k and 100k
//! tenants (and 1M — single-market and 2-market portfolio — behind
//! `SPOTBID_SCALE_FULL=1`), plus a 32-seed chaos
//! sweep under `spotbid-faults` schedules (feed gaps, capacity
//! reclamations) pinning the wakeup fleet to the frozen dense oracle.

use spotbid_core::strategy::BiddingStrategy;
use spotbid_core::JobSpec;
use spotbid_engine::closedloop::dense;
use spotbid_engine::{
    run_closed_loop, run_closed_loop_logged, ClosedLoopConfig, ClosedLoopReport, LoopFaults,
};
use spotbid_exec::with_threads;
use spotbid_faults::{FaultConfig, FaultSchedule};
use spotbid_market::units::{Hours, Price};
use spotbid_market::{MarketParams, ProviderPolicy, Supply};

/// A short-horizon 10k-tenant session: FixedBid-heavy (cheap to decide in
/// debug builds) with a sprinkling of history-fitting strategies so the
/// sharded decision stage does real work.
fn config() -> ClosedLoopConfig {
    ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 10,
        horizon_slots: 40,
        background_arrivals: 3.0,
        max_resubmissions: 2,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    }
}

fn strategies(n: usize) -> Vec<BiddingStrategy> {
    (0..n)
        .map(|i| match i % 97 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.90),
            _ => BiddingStrategy::FixedBid(Price::new(0.05 + (i % 13) as f64 * 0.023)),
        })
        .collect()
}

/// FNV-1a over every field of every tenant outcome plus the aggregate
/// price path — a digest of the full report, not just its summary.
fn digest(report: &ClosedLoopReport) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    eat(report.completed as u64);
    eat(report.slots);
    eat(report.mean_savings.to_bits());
    eat(report.mean_price.as_f64().to_bits());
    eat(report.peak_price.as_f64().to_bits());
    for t in &report.tenants {
        eat(u64::from(t.tenant));
        eat(u64::from(t.completed));
        eat(t.spot_slots);
        eat(u64::from(t.interruptions));
        eat(u64::from(t.resubmissions));
        eat(t.cost.as_f64().to_bits());
        eat(t.savings.to_bits());
    }
    if let Some(p) = &report.provider {
        eat(u64::from(p.capacity));
        eat(p.slots);
        eat(p.spot_revenue.as_f64().to_bits());
        eat(p.od_revenue.as_f64().to_bits());
        eat(p.reclaims);
        eat(p.od_admissions);
        eat(p.od_rejections);
        eat(p.mean_utilization.to_bits());
        eat(p.peak_price.as_f64().to_bits());
    }
    h
}

#[test]
fn ten_k_tenants_identical_digests_at_1_and_4_threads() {
    let strategies = strategies(10_000);
    let cfg = config();
    let one = with_threads(1, || run_closed_loop(&strategies, &cfg, 0x5CA1E).unwrap());
    let four = with_threads(4, || run_closed_loop(&strategies, &cfg, 0x5CA1E).unwrap());
    assert_eq!(
        digest(&one),
        digest(&four),
        "thread count leaked into the result"
    );
    assert_eq!(one, four);
    assert_eq!(one.tenants.len(), 10_000);
    // The market actually did something at this scale.
    assert!(one.mean_price > Price::ZERO);
    assert!(one.tenants.iter().any(|t| t.spot_slots > 0));
}

#[test]
fn small_fleet_matches_itself_across_thread_counts() {
    // A population smaller than one 64-tenant stream block must be just
    // as thread-invariant.
    let strategies = strategies(17);
    let cfg = config();
    let a = with_threads(1, || run_closed_loop(&strategies, &cfg, 42).unwrap());
    let b = with_threads(3, || run_closed_loop(&strategies, &cfg, 42).unwrap());
    assert_eq!(a, b);
}

#[test]
fn hundred_k_tenants_identical_digests_at_1_and_4_threads() {
    let strategies = strategies(100_000);
    let cfg = config();
    let one = with_threads(1, || run_closed_loop(&strategies, &cfg, 0x1000).unwrap());
    let four = with_threads(4, || run_closed_loop(&strategies, &cfg, 0x1000).unwrap());
    assert_eq!(
        digest(&one),
        digest(&four),
        "thread count leaked into the result"
    );
    assert_eq!(one, four);
    assert_eq!(one.tenants.len(), 100_000);
    assert!(one.tenants.iter().any(|t| t.spot_slots > 0));
}

/// CI-budgeted million-tenant smoke: run with `SPOTBID_SCALE_FULL=1`.
/// Quiet-slot dominated (low fixed bids under a crowded market), so the
/// wakeup fleet's skip path carries almost the whole horizon.
#[test]
fn million_tenants_smoke_behind_env_gate() {
    if std::env::var("SPOTBID_SCALE_FULL").ok().as_deref() != Some("1") {
        eprintln!("skipped: set SPOTBID_SCALE_FULL=1 to run the 1M smoke");
        return;
    }
    let strategies = vec![BiddingStrategy::FixedBid(Price::new(0.03)); 1_000_000];
    let cfg = ClosedLoopConfig {
        horizon_slots: 80,
        ..config()
    };
    let one = with_threads(1, || {
        run_closed_loop(&strategies, &cfg, 0x1_000_000).unwrap()
    });
    let four = with_threads(4, || {
        run_closed_loop(&strategies, &cfg, 0x1_000_000).unwrap()
    });
    assert_eq!(digest(&one), digest(&four));
    assert_eq!(one.tenants.len(), 1_000_000);
}

/// Nightly million-tenant portfolio smoke: run with `SPOTBID_SCALE_FULL=1`.
/// Split-even legs across two correlated markets, quiet-slot dominated
/// like the single-market smoke above — the §5j wakeup fleet must stay a
/// pure function of its seed at this population too.
#[test]
fn million_tenant_portfolio_smoke_behind_env_gate() {
    use spotbid_core::portfolio::PortfolioStrategy;
    use spotbid_engine::{run_portfolio_loop, PortfolioLoopConfig, PortfolioMarket};

    if std::env::var("SPOTBID_SCALE_FULL").ok().as_deref() != Some("1") {
        eprintln!("skipped: set SPOTBID_SCALE_FULL=1 to run the 1M portfolio smoke");
        return;
    }
    let strategies = vec![
        PortfolioStrategy::SplitEven {
            base: BiddingStrategy::FixedBid(Price::new(0.03)),
        };
        1_000_000
    ];
    let cfg = PortfolioLoopConfig {
        markets: (0..2)
            .map(|i| PortfolioMarket {
                name: format!("zone-{i}"),
                params: MarketParams::new(
                    Price::new(0.35),
                    Price::new(0.02 + 0.004 * i as f64),
                    0.05,
                    0.05,
                )
                .unwrap(),
                idio_arrivals: 2.0,
                supply: Supply::Unbounded,
            })
            .collect(),
        shared_arrivals: 1.0,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 10,
        horizon_slots: 60,
        max_resubmissions: 2,
    };
    let one = with_threads(1, || {
        run_portfolio_loop(&strategies, &cfg, 0x1_000_000).unwrap()
    });
    let four = with_threads(4, || {
        run_portfolio_loop(&strategies, &cfg, 0x1_000_000).unwrap()
    });
    assert_eq!(one, four, "thread count leaked into the portfolio result");
    assert_eq!(one.tenants.len(), 1_000_000);
}

/// The finite-capacity variant of `config()`: a box small enough that
/// capacity binds at these populations, with an on-demand churn process
/// competing for the same servers.
fn finite_config() -> ClosedLoopConfig {
    ClosedLoopConfig {
        supply: Supply::Finite {
            capacity: 600,
            policy: ProviderPolicy::UtilizationTracking { od_cap: 200 },
        },
        od_arrivals: 4.0,
        od_departure: 0.15,
        ..config()
    }
}

/// Bids packed just under π̄, well above the 10k-tenant clearing price —
/// accepted demand far exceeds the box, so the eviction path runs hot.
fn aggressive_strategies(n: usize) -> Vec<BiddingStrategy> {
    (0..n)
        .map(|i| match i % 97 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.90),
            _ => BiddingStrategy::FixedBid(Price::new(0.30 + (i % 13) as f64 * 0.004)),
        })
        .collect()
}

#[test]
fn finite_supply_ten_k_tenants_identical_digests_at_1_and_4_threads() {
    // The finite-capacity closed loop — provider evictions, on-demand
    // churn, clearing-price spikes — is just as much a pure function of
    // its seed as the unbounded loop, at any worker count.
    let strategies = aggressive_strategies(10_000);
    let cfg = finite_config();
    let one = with_threads(1, || run_closed_loop(&strategies, &cfg, 0x5CA1E).unwrap());
    let four = with_threads(4, || run_closed_loop(&strategies, &cfg, 0x5CA1E).unwrap());
    assert_eq!(
        digest(&one),
        digest(&four),
        "thread count leaked into the finite-supply result"
    );
    assert_eq!(one, four);
    let p = one.provider.as_ref().expect("finite run has a provider");
    assert!(p.reclaims > 0, "capacity never bound at 10k tenants");
    assert!(p.mean_utilization > 0.5, "the box sat idle: {p:?}");
}

#[test]
fn finite_supply_quiet_session_still_skips_slots() {
    // 100k low bidders under a finite box: the clearing price sits far
    // above every bid, nothing ever starts, and the capacity pass evicts
    // nobody — so the wakeup fleet must skip the tail in O(1) exactly as
    // it does unbounded. (This is the regression wall for the old
    // finite-supply unconditional re-arm, which woke every tenant every
    // slot and zeroed `skipped_slots` the moment supply went finite.)
    let strategies = vec![BiddingStrategy::FixedBid(Price::new(0.021)); 100_000];
    let cfg = ClosedLoopConfig {
        horizon_slots: 50,
        ..finite_config()
    };
    let (report, stats) =
        spotbid_engine::run_closed_loop_with_stats(&strategies, &cfg, 0x5C1E7, None).unwrap();
    assert_eq!(stats.slots, 50);
    assert!(
        stats.skipped_slots > 0,
        "a quiet finite-supply session must still skip slots: {stats:?}"
    );
    let p = report.provider.expect("finite run reports the provider");
    assert_eq!(p.reclaims, 0, "nothing ran, so nothing was evicted");
    assert_eq!(report.completed, 0);
}

/// 32-seed chaos sweep over the finite-capacity closed loop: fault
/// schedules layered on top of provider evictions and on-demand churn.
/// No panics, wakeup ≡ dense throughout, billing stays sane, and the
/// zero-fault schedule reproduces the clean (fault-free) baseline.
#[test]
fn chaos_sweep_finite_supply_wakeup_matches_dense() {
    let chaos = FaultConfig {
        gap: 0.06,
        reclamation: 0.08,
        ..FaultConfig::NONE
    };
    let cfg = ClosedLoopConfig {
        horizon_slots: 120,
        supply: Supply::Finite {
            capacity: 20,
            policy: ProviderPolicy::UtilizationTracking { od_cap: 12 },
        },
        od_arrivals: 1.0,
        od_departure: 0.2,
        ..config()
    };
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let strategies = strategies(48);
    let od_cost = 0.35;
    let mut any_reclaimed = false;
    for seed in 0..32u64 {
        let schedule = FaultSchedule::generate(seed ^ 0xFA17, total, 1, &chaos);
        let faults = LoopFaults {
            gap: (0..total).map(|s| schedule.gap(s)).collect(),
            reclaim: (0..total).map(|s| schedule.reclaimed(s)).collect(),
        };
        let (wr, we, _) = run_closed_loop_logged(&strategies, &cfg, seed, Some(&faults)).unwrap();
        let (dr, de) =
            dense::run_closed_loop_logged(&strategies, &cfg, seed, Some(&faults)).unwrap();
        assert_eq!(digest(&wr), digest(&dr), "seed {seed}: digests diverged");
        assert_eq!(wr, dr, "seed {seed}: reports diverged");
        assert_eq!(we, de, "seed {seed}: event streams diverged");
        // Billing sanity: every cost is finite and non-negative, and the
        // reported savings are exactly `1 − cost/(π̄·Ts)`.
        for t in &wr.tenants {
            let cost = t.cost.as_f64();
            assert!(cost.is_finite() && cost >= 0.0, "{t:?}");
            assert!((t.savings - (1.0 - cost / od_cost)).abs() < 1e-12, "{t:?}");
        }
        any_reclaimed |= wr.provider.as_ref().is_some_and(|p| p.reclaims > 0);
    }
    assert!(
        any_reclaimed,
        "no provider eviction ever bit across 32 seeds"
    );

    // The all-clear schedule is not a different world: it must reproduce
    // the fault-free baseline bit for bit.
    let clear = LoopFaults {
        gap: vec![false; total],
        reclaim: vec![false; total],
    };
    let (zr, ze, _) = run_closed_loop_logged(&strategies, &cfg, 7, Some(&clear)).unwrap();
    let (cr, ce, _) = run_closed_loop_logged(&strategies, &cfg, 7, None).unwrap();
    assert_eq!(zr, cr, "zero-fault run diverged from the clean baseline");
    assert_eq!(ze, ce);
}

/// 32-seed chaos sweep: `spotbid-faults` schedules (feed gaps + capacity
/// reclamations) driven through both fleets; the wakeup fleet must stay
/// bit-identical to the frozen dense oracle under every plan.
#[test]
fn chaos_sweep_wakeup_matches_dense_under_faults() {
    let chaos = FaultConfig {
        gap: 0.06,
        reclamation: 0.08,
        ..FaultConfig::NONE
    };
    let cfg = ClosedLoopConfig {
        horizon_slots: 120,
        ..config()
    };
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let strategies = strategies(48);
    let mut any_interrupted = false;
    for seed in 0..32u64 {
        let schedule = FaultSchedule::generate(seed ^ 0xFA17, total, 1, &chaos);
        let faults = LoopFaults {
            gap: (0..total).map(|s| schedule.gap(s)).collect(),
            reclaim: (0..total).map(|s| schedule.reclaimed(s)).collect(),
        };
        let (wr, we, _) = run_closed_loop_logged(&strategies, &cfg, seed, Some(&faults)).unwrap();
        let (dr, de) =
            dense::run_closed_loop_logged(&strategies, &cfg, seed, Some(&faults)).unwrap();
        assert_eq!(digest(&wr), digest(&dr), "seed {seed}: digests diverged");
        assert_eq!(wr, dr, "seed {seed}: reports diverged");
        assert_eq!(we, de, "seed {seed}: event streams diverged");
        any_interrupted |= wr.tenants.iter().any(|t| t.interruptions > 0);
    }
    assert!(any_interrupted, "no reclamation ever bit across 32 seeds");
}
