//! Portfolio bidding across correlated markets: savings and completion
//! vs the single-market baselines, plus a crowding sweep.
//!
//! The paper's bidders live in one market. The multi-market closed loop
//! (DESIGN.md §5h) gives each tenant M correlated spot markets — instance
//! types × zones — and the `strategy::portfolio` family three ways to use
//! them: cross-zone fallback after a reclamation, an even job split across
//! the cheapest zones, and a spot/on-demand contract mix. This experiment
//! pins those against the single-market optimal-persistent baseline on a
//! comparable market, and sweeps the tenant count to see whether spreading
//! demand across M books softens the crowding penalty the single-market
//! sweep documents.

use super::closedloop;
use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::strategy::BiddingStrategy;
use spotbid_core::JobSpec;
use spotbid_engine::{
    run_portfolio_loop, run_portfolio_loop_with_stats, PortfolioFleetStats, PortfolioLoopConfig,
    PortfolioMarket, PortfolioReport,
};
use spotbid_market::units::{Hours, Price};
use spotbid_market::{MarketParams, Supply};

/// Tenant counts swept in the crowding comparison.
pub const TENANT_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 256];

/// Markets in the portfolio world.
pub const MARKETS: usize = 3;

/// One row of either table.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioRow {
    /// Strategy label.
    pub strategy: &'static str,
    /// Tenants bidding.
    pub tenants: usize,
    /// How many completed their job in the loop (before the §5.1 top-up).
    pub completed: usize,
    /// Mean savings over all-on-demand across tenants.
    pub mean_savings: f64,
    /// Mean posted price of the cheapest (home) market.
    pub mean_price: f64,
    /// Total tenant interruptions.
    pub interruptions: u32,
    /// Total re-plans after rejections/terminations.
    pub resubmissions: u32,
}

/// The 3-market portfolio world: market 0 matches the single-market
/// experiment's r3.xlarge-like parameters, markets 1–2 sit at slightly
/// higher price floors (a pricier sibling zone and instance type). A third
/// of the background load is the shared shock, so the zones' demand
/// co-moves the way real regions do.
pub fn config() -> PortfolioLoopConfig {
    PortfolioLoopConfig {
        markets: (0..MARKETS)
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
        warmup_slots: 100,
        horizon_slots: 500,
        max_resubmissions: 4,
    }
}

fn row(strategy: &'static str, tenants: usize, report: &PortfolioReport) -> PortfolioRow {
    PortfolioRow {
        strategy,
        tenants,
        completed: report.completed,
        mean_savings: report.mean_savings,
        mean_price: report.mean_price[0].as_f64(),
        interruptions: report.tenants.iter().map(|t| t.interruptions).sum(),
        resubmissions: report.tenants.iter().map(|t| t.resubmissions).sum(),
    }
}

/// The portfolio strategies compared in the headline table, all on the
/// optimal-persistent base bid.
fn families() -> [(&'static str, PortfolioStrategy); 3] {
    [
        (
            "zone-fallback",
            PortfolioStrategy::ZoneFallback {
                home: 0,
                base: BiddingStrategy::OptimalPersistent,
            },
        ),
        (
            "split-even",
            PortfolioStrategy::SplitEven {
                base: BiddingStrategy::OptimalPersistent,
            },
        ),
        (
            "contract-50/50",
            PortfolioStrategy::Contract {
                spot_share: 0.5,
                base: BiddingStrategy::OptimalPersistent,
            },
        ),
    ]
}

/// Runs one portfolio loop of `tenants` identical `strategy` bidders.
pub fn run_one(
    strategy: PortfolioStrategy,
    label: &'static str,
    tenants: usize,
    seed: u64,
) -> PortfolioRow {
    let strategies = vec![strategy; tenants];
    let report = run_portfolio_loop(&strategies, &config(), seed).unwrap();
    row(label, tenants, &report)
}

/// The headline table: the single-market optimal-persistent baseline
/// (from the closed-loop experiment's market, which portfolio market 0
/// mirrors) against each portfolio family, at a fixed small fleet.
pub fn run_strategies(tenants: usize, seed: u64) -> Vec<PortfolioRow> {
    let mut rows = Vec::with_capacity(1 + families().len());
    let base = closedloop::run_one(tenants, seed);
    rows.push(PortfolioRow {
        strategy: "single-market",
        tenants,
        completed: base.completed,
        mean_savings: base.mean_savings,
        mean_price: base.mean_price,
        interruptions: base.interruptions,
        resubmissions: 0,
    });
    for (label, strategy) in families() {
        rows.push(run_one(strategy, label, tenants, seed));
    }
    rows
}

/// Wakeup accounting of one split-even portfolio session on the
/// experiment's world: processed slots, O(1) skips, total wakeups, and
/// per-market sweep-driven wake counts (DESIGN.md §5j).
pub fn run_wakeup_stats(tenants: usize, seed: u64) -> PortfolioFleetStats {
    let strategies = vec![
        PortfolioStrategy::SplitEven {
            base: BiddingStrategy::OptimalPersistent,
        };
        tenants
    ];
    let (_, stats) = run_portfolio_loop_with_stats(&strategies, &config(), seed, None).unwrap();
    stats
}

/// The crowding sweep: split-even portfolio tenants vs the single-market
/// baseline at each count. `counts` must be a leading slice of
/// [`TENANT_COUNTS`] so per-count seeds match the full sweep row-for-row.
/// Returns `(single, portfolio)` row pairs. One executor task per count
/// and side.
pub fn run_crowding(counts: &[usize], seed: u64) -> Vec<(PortfolioRow, PortfolioRow)> {
    spotbid_exec::par_map(counts.len(), |i| {
        let per_seed = seed ^ (0x907F_0110 + i as u64);
        let base = closedloop::run_one(counts[i], per_seed);
        let single = PortfolioRow {
            strategy: "single-market",
            tenants: counts[i],
            completed: base.completed,
            mean_savings: base.mean_savings,
            mean_price: base.mean_price,
            interruptions: base.interruptions,
            resubmissions: 0,
        };
        let split = run_one(
            PortfolioStrategy::SplitEven {
                base: BiddingStrategy::OptimalPersistent,
            },
            "split-even",
            counts[i],
            per_seed,
        );
        (single, split)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Debug-friendly prefix (the 256-tenant tail runs in release via the
    /// `portfolio_markets` bin).
    fn small() -> &'static [usize] {
        &TENANT_COUNTS[..4]
    }

    #[test]
    fn strategy_table_is_deterministic_and_complete() {
        let a = run_strategies(4, 0x907F);
        let b = run_strategies(4, 0x907F);
        assert_eq!(a, b, "table is not a pure function of its seed");
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].strategy, "single-market");
        for row in &a {
            assert_eq!(row.tenants, 4);
            assert!(row.mean_price.is_finite() && row.mean_price > 0.0);
            assert!(row.mean_savings <= 1.0);
            assert!(row.completed <= row.tenants);
        }
    }

    #[test]
    fn crowding_sweep_pairs_match_counts() {
        let pairs = run_crowding(small(), 0xB1D);
        assert_eq!(pairs.len(), small().len());
        for ((single, split), &n) in pairs.iter().zip(small().iter()) {
            assert_eq!(single.tenants, n);
            assert_eq!(split.tenants, n);
            assert!(single.mean_savings.is_finite());
            assert!(split.mean_savings.is_finite());
        }
    }
}
