//! The closed loops at a workload-like scale: the event-driven fleets,
//! which resolve every tenant of a slot against one shared price view,
//! stepped against the frozen dense fleets, which build a fresh view per
//! tenant decision. Reports and event streams must be bit-identical —
//! the shared view changes nothing but where the empirical model is
//! built.

use spotbid::core::{BiddingStrategy, JobSpec, PortfolioStrategy};
use spotbid::engine::closedloop::{dense, portfolio};
use spotbid::engine::{
    run_closed_loop_logged, run_portfolio_loop_logged, ClosedLoopConfig, Event,
    PortfolioLoopConfig, PortfolioMarket,
};
use spotbid::market::units::{Hours, Price};
use spotbid::market::{MarketParams, Supply};

const TENANTS: usize = 2_000;

fn params(i: usize) -> MarketParams {
    MarketParams::new(
        Price::new(0.35),
        Price::new(0.02 + 0.004 * i as f64),
        0.05,
        0.05,
    )
    .unwrap()
}

fn job() -> JobSpec {
    JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap()
}

/// All six strategies: a 13-rung fixed-bid ladder carrying one tenant in
/// seven of each adaptive strategy and of on-demand.
fn strategy(i: usize) -> BiddingStrategy {
    match i % 7 {
        0 => BiddingStrategy::OptimalOneTime,
        1 => BiddingStrategy::OptimalPersistent,
        2 => BiddingStrategy::Percentile(0.9),
        3 => BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        },
        4 => BiddingStrategy::OnDemand,
        _ => BiddingStrategy::FixedBid(Price::new(0.03 + (i % 13) as f64 * 0.025)),
    }
}

fn assert_same_events(fast: &[Event], oracle: &[Event]) {
    assert_eq!(fast.len(), oracle.len(), "event counts diverged");
    for (k, (f, o)) in fast.iter().zip(oracle).enumerate() {
        assert_eq!(f, o, "event {k} diverged");
    }
}

#[test]
fn single_market_fleet_matches_the_dense_oracle() {
    let cfg = ClosedLoopConfig {
        params: params(0),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: job(),
        warmup_slots: 30,
        horizon_slots: 60,
        background_arrivals: 3.0,
        max_resubmissions: 3,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    };
    let strats: Vec<BiddingStrategy> = (0..TENANTS).map(strategy).collect();
    let (fast, fast_events, stats) =
        run_closed_loop_logged(&strats, &cfg, 0xC1_05ED, None).unwrap();
    let (oracle, oracle_events) =
        dense::run_closed_loop_logged(&strats, &cfg, 0xC1_05ED, None).unwrap();
    assert_eq!(fast, oracle, "reports diverged");
    assert_same_events(&fast_events, &oracle_events);
    let submissions = fast_events
        .iter()
        .filter(|e| matches!(e, Event::BidSubmitted { .. }))
        .count();
    assert!(
        submissions > TENANTS / 2 && fast.completed > 0 && stats.woken > 0,
        "a vacuous session: {submissions} bids, {} completed",
        fast.completed
    );
}

#[test]
fn portfolio_fleet_matches_the_dense_oracle() {
    let cfg = PortfolioLoopConfig {
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
        job: job(),
        warmup_slots: 30,
        horizon_slots: 60,
        max_resubmissions: 3,
    };
    let strats: Vec<PortfolioStrategy> = (0..TENANTS / 4)
        .map(|i| {
            let base = strategy(i);
            match i % 3 {
                0 => PortfolioStrategy::ZoneFallback { home: i % 5, base },
                1 => PortfolioStrategy::SplitEven { base },
                _ => PortfolioStrategy::Contract {
                    spot_share: 0.75,
                    base,
                },
            }
        })
        .collect();
    let (fast, fast_events) = run_portfolio_loop_logged(&strats, &cfg, 0x9F_0110, None).unwrap();
    let (oracle, oracle_events) =
        portfolio::dense::run_portfolio_loop_logged(&strats, &cfg, 0x9F_0110, None).unwrap();
    assert_eq!(fast, oracle, "reports diverged");
    assert_same_events(&fast_events, &oracle_events);
    assert!(
        fast.tenants.iter().any(|t| t.spot_slots > 0),
        "no leg ever ran on spot"
    );
}
