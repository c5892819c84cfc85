//! The multi-market parity wall (DESIGN.md §5h).
//!
//! A one-market portfolio is not a new simulator — it is the *same*
//! simulator: `run_portfolio_loop` with M=1, a zero shared shock, and
//! [`PortfolioStrategy::ZoneFallback`] must reproduce the single-market
//! `run_closed_loop` path bit-for-bit — same per-tenant outcomes, same
//! aggregate report, same full event stream, clean and under fault
//! injection. That parity is what lets the M>1 code paths inherit the
//! single-market wall's trust.
//!
//! The second half of the contract: a genuinely multi-market portfolio
//! session is a pure function of its seed at any `SPOTBID_THREADS` —
//! identical full-report digests at 1 and 4 workers.

use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::strategy::BiddingStrategy;
use spotbid_core::JobSpec;
use spotbid_engine::{
    run_closed_loop_logged, run_portfolio_loop, run_portfolio_loop_logged, ClosedLoopConfig,
    LoopFaults, PortfolioLoopConfig, PortfolioMarket, PortfolioReport,
};
use spotbid_exec::with_threads;
use spotbid_market::units::{Hours, Price};
use spotbid_market::{MarketParams, Supply};

fn single_config() -> ClosedLoopConfig {
    ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
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

/// A mixed fleet crossing the 64-tenant shard boundary, with every base
/// strategy family represented (history-fitting, percentile, fixed-ladder,
/// one-time, on-demand).
fn base_strategies(n: usize) -> Vec<BiddingStrategy> {
    (0..n)
        .map(|i| match i % 7 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.90),
            2 => BiddingStrategy::OptimalOneTime,
            3 => BiddingStrategy::OnDemand,
            _ => BiddingStrategy::FixedBid(Price::new(0.05 + (i % 13) as f64 * 0.023)),
        })
        .collect()
}

/// Field-for-field comparison of a degenerate portfolio report against the
/// single-market report it must reproduce. Strategy enums differ in type,
/// so `PartialEq` on the whole struct is unavailable — everything else is
/// compared exactly (bit equality for the floats).
fn assert_single_market_parity(
    p: &PortfolioReport,
    s: &spotbid_engine::ClosedLoopReport,
    what: &str,
) {
    assert_eq!(p.tenants.len(), s.tenants.len(), "{what}: tenant count");
    for (pt, st) in p.tenants.iter().zip(&s.tenants) {
        assert_eq!(pt.tenant, st.tenant, "{what}: tag");
        assert_eq!(
            pt.completed, st.completed,
            "{what}: completed {}",
            pt.tenant
        );
        assert_eq!(
            pt.spot_slots, st.spot_slots,
            "{what}: spot_slots {}",
            pt.tenant
        );
        assert_eq!(
            pt.interruptions, st.interruptions,
            "{what}: interruptions {}",
            pt.tenant
        );
        assert_eq!(
            pt.resubmissions, st.resubmissions,
            "{what}: resubmissions {}",
            pt.tenant
        );
        assert_eq!(pt.cost, st.cost, "{what}: cost {}", pt.tenant);
        assert_eq!(
            pt.savings.to_bits(),
            st.savings.to_bits(),
            "{what}: savings {}",
            pt.tenant
        );
    }
    assert_eq!(p.completed, s.completed, "{what}: completed count");
    assert_eq!(
        p.mean_savings.to_bits(),
        s.mean_savings.to_bits(),
        "{what}: mean savings"
    );
    assert_eq!(p.mean_price, vec![s.mean_price], "{what}: mean price");
    assert_eq!(p.peak_price, vec![s.peak_price], "{what}: peak price");
    assert_eq!(p.slots, s.slots, "{what}: slots");
}

/// FNV-1a over every field of every portfolio outcome plus the per-market
/// price paths — the full-report digest for thread-invariance checks.
fn digest(report: &PortfolioReport) -> u64 {
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
    for p in &report.mean_price {
        eat(p.as_f64().to_bits());
    }
    for p in &report.peak_price {
        eat(p.as_f64().to_bits());
    }
    for t in &report.tenants {
        eat(u64::from(t.tenant));
        eat(u64::from(t.completed));
        eat(t.spot_slots);
        eat(u64::from(t.interruptions));
        eat(u64::from(t.resubmissions));
        eat(t.cost.as_f64().to_bits());
        eat(t.savings.to_bits());
    }
    h
}

#[test]
fn degenerate_portfolio_matches_single_market_loop() {
    let cfg = single_config();
    let pcfg = one_market(&cfg);
    let bases = base_strategies(130);
    let ports: Vec<PortfolioStrategy> = bases
        .iter()
        .map(|&base| PortfolioStrategy::ZoneFallback { home: 0, base })
        .collect();
    for seed in [0xC105ED, 0xBEEF, 7] {
        let (sr, se, _) = run_closed_loop_logged(&bases, &cfg, seed, None).unwrap();
        let (pr, pe, _) = run_portfolio_loop_logged(&ports, &pcfg, seed, None).unwrap();
        assert_single_market_parity(&pr, &sr, &format!("seed {seed}"));
        assert_eq!(pe, se, "seed {seed}: event streams diverged");
    }
}

#[test]
fn degenerate_portfolio_matches_single_market_loop_under_faults() {
    let cfg = single_config();
    let pcfg = one_market(&cfg);
    let bases = base_strategies(72);
    let ports: Vec<PortfolioStrategy> = bases
        .iter()
        .map(|&base| PortfolioStrategy::ZoneFallback { home: 0, base })
        .collect();
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let mut faults = LoopFaults {
        gap: vec![false; total],
        reclaim: vec![false; total],
    };
    for s in (0..total).step_by(17) {
        faults.gap[s] = true;
    }
    for s in ((cfg.warmup_slots + 3)..total).step_by(4) {
        faults.reclaim[s] = true;
    }
    let (sr, se, _) = run_closed_loop_logged(&bases, &cfg, 0xFA17, Some(&faults)).unwrap();
    let (pr, pe, _) =
        run_portfolio_loop_logged(&ports, &pcfg, 0xFA17, Some(std::slice::from_ref(&faults)))
            .unwrap();
    assert_single_market_parity(&pr, &sr, "faulted");
    assert_eq!(pe, se, "faulted event streams diverged");
    // The schedule actually bit: reclamations interrupted somebody.
    assert!(
        pr.tenants.iter().any(|t| t.interruptions > 0),
        "no reclamation ever bit: {pr:?}"
    );
}

fn multi_config() -> PortfolioLoopConfig {
    PortfolioLoopConfig {
        markets: (0..3)
            .map(|i| PortfolioMarket {
                name: format!("zone-{i}"),
                params: MarketParams::new(
                    Price::new(0.35),
                    Price::new(0.02 + 0.004 * i as f64),
                    0.05,
                    0.05,
                )
                .unwrap(),
                idio_arrivals: 1.5,
                supply: Supply::Unbounded,
            })
            .collect(),
        shared_arrivals: 1.5,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 40,
        horizon_slots: 160,
        max_resubmissions: 3,
    }
}

fn portfolio_strategies(n: usize) -> Vec<PortfolioStrategy> {
    (0..n)
        .map(|i| match i % 4 {
            0 => PortfolioStrategy::ZoneFallback {
                home: i % 3,
                base: BiddingStrategy::OptimalPersistent,
            },
            1 => PortfolioStrategy::SplitEven {
                base: BiddingStrategy::Percentile(0.90),
            },
            2 => PortfolioStrategy::Contract {
                spot_share: 0.5 + (i % 5) as f64 * 0.1,
                base: BiddingStrategy::OptimalOneTime,
            },
            _ => PortfolioStrategy::ZoneFallback {
                home: i % 3,
                base: BiddingStrategy::FixedBid(Price::new(0.05 + (i % 13) as f64 * 0.023)),
            },
        })
        .collect()
}

#[test]
fn portfolio_digest_identical_at_1_and_4_threads() {
    let strategies = portfolio_strategies(200);
    let cfg = multi_config();
    let one = with_threads(1, || run_portfolio_loop(&strategies, &cfg, 0x907F).unwrap());
    let four = with_threads(4, || run_portfolio_loop(&strategies, &cfg, 0x907F).unwrap());
    assert_eq!(
        digest(&one),
        digest(&four),
        "thread count leaked into the portfolio result"
    );
    assert_eq!(one, four);
    assert_eq!(one.tenants.len(), 200);
    assert!(one.tenants.iter().any(|t| t.spot_slots > 0));
}

/// Pearson correlation of two equal-length series.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let (va, vb): (f64, f64) = (
        a.iter().map(|x| (x - ma).powi(2)).sum(),
        b.iter().map(|y| (y - mb).powi(2)).sum(),
    );
    cov / (va * vb).sqrt()
}

#[test]
fn shared_shock_correlates_market_price_paths() {
    // With all arrivals in the shared shock, every market sees the same
    // background demand sequence each slot — so their posted price paths
    // co-move; with all arrivals idiosyncratic they draw independently.
    // The per-slot price series are reconstructed from the event log
    // (`PricePosted` comes M-per-slot in market order). The lone tenant
    // bids below π_min so it is never accepted and the kernel holds the
    // session open for the whole horizon without disturbing the market.
    let price_corr = |cfg: &PortfolioLoopConfig, seed: u64| {
        let (_, events, _) = run_portfolio_loop_logged(
            &[PortfolioStrategy::ZoneFallback {
                home: 0,
                base: BiddingStrategy::FixedBid(Price::new(0.001)),
            }],
            cfg,
            seed,
            None,
        )
        .unwrap();
        let posted: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                spotbid_engine::Event::PricePosted { price, .. } => Some(price.as_f64()),
                _ => None,
            })
            .collect();
        let m = cfg.markets.len();
        let per_market: Vec<Vec<f64>> = (0..m)
            .map(|k| posted.iter().skip(k).step_by(m).copied().collect())
            .collect();
        pearson(&per_market[0], &per_market[1])
    };
    let mut correlated = multi_config();
    let params = correlated.markets[0].params;
    for m in &mut correlated.markets {
        m.idio_arrivals = 0.0;
        m.params = params;
    }
    let mut independent = correlated.clone();
    correlated.shared_arrivals = 12.0;
    independent.shared_arrivals = 0.0;
    for m in &mut independent.markets {
        m.idio_arrivals = 12.0;
    }
    let (mut shared_sum, mut indep_sum) = (0.0, 0.0);
    for seed in 0..6u64 {
        shared_sum += price_corr(&correlated, 0x5A00 + seed);
        indep_sum += price_corr(&independent, 0x5A00 + seed);
    }
    assert!(
        shared_sum > indep_sum + 0.5,
        "a pure shared shock should visibly correlate the price paths: \
         shared Σr = {shared_sum:.3}, independent Σr = {indep_sum:.3}"
    );
}
