//! The closed loops at a workload-like scale: the event-driven fleets,
//! which resolve every tenant of a slot against one shared price view,
//! stepped against the frozen dense fleets, which build a fresh view per
//! tenant decision. Reports and event streams must be bit-identical —
//! the shared view changes nothing but where the empirical model is
//! built.
//!
//! The sessions keep one running cost total per tenant, not a ledger; the
//! reconciliation tests rebuild the ledger from each run's `Charged`
//! events and hold every reported cost to it (bill ≡ Σ charges).

use spotbid::core::{BiddingStrategy, JobSpec, PortfolioStrategy};
use spotbid::engine::closedloop::{dense, portfolio};
use spotbid::engine::{
    run_closed_loop_logged, run_portfolio_loop_logged, Bill, ClosedLoopConfig, Event,
    PortfolioLoopConfig, PortfolioMarket, UsageKind,
};
use spotbid::market::units::{Cost, Hours, Price};
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

fn single_config() -> ClosedLoopConfig {
    ClosedLoopConfig {
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
    }
}

fn single_strategies() -> Vec<BiddingStrategy> {
    (0..TENANTS).map(strategy).collect()
}

fn portfolio_config() -> PortfolioLoopConfig {
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
        job: job(),
        warmup_slots: 30,
        horizon_slots: 60,
        max_resubmissions: 3,
    }
}

fn portfolio_strategies() -> Vec<PortfolioStrategy> {
    (0..TENANTS / 4)
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
        .collect()
}

fn assert_same_events(fast: &[Event], oracle: &[Event]) {
    assert_eq!(fast.len(), oracle.len(), "event counts diverged");
    for (k, (f, o)) in fast.iter().zip(oracle).enumerate() {
        assert_eq!(f, o, "event {k} diverged");
    }
}

#[test]
fn single_market_fleet_matches_the_dense_oracle() {
    let cfg = single_config();
    let strats = single_strategies();
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
    let cfg = portfolio_config();
    let strats = portfolio_strategies();
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

/// The item ledger rebuilt from a run's `Charged` events — the oracle the
/// sessions' running totals are held to.
fn ledger(events: &[Event]) -> Bill {
    let mut bill = Bill::new();
    for e in events {
        if let Event::Charged { item } = e {
            bill.try_charge(*item).unwrap();
        }
    }
    bill
}

/// Asserts `cost` is the ledger's total for the tenant plus, when it did
/// not complete, the §5.1 on-demand fallback for `remaining` work — bit
/// for bit. Returns whether a fallback was charged.
fn assert_reconciles(
    tenant: u32,
    cost: Cost,
    spot: Cost,
    completed: bool,
    od: Price,
    remaining: Hours,
) -> bool {
    let fallback = !completed && remaining > Hours::ZERO;
    let expected = if fallback {
        spot + od * remaining
    } else {
        spot
    };
    assert_eq!(
        cost.as_f64().to_bits(),
        expected.as_f64().to_bits(),
        "tenant {tenant}: reported {cost:?}, charges + fallback {expected:?}"
    );
    fallback
}

#[test]
fn single_market_costs_equal_the_charged_events() {
    let cfg = single_config();
    let strats = single_strategies();
    let (fast, fast_events, _) = run_closed_loop_logged(&strats, &cfg, 0xC1_05ED, None).unwrap();
    let (oracle, oracle_events) =
        dense::run_closed_loop_logged(&strats, &cfg, 0xC1_05ED, None).unwrap();
    for (report, events) in [(&fast, &fast_events), (&oracle, &oracle_events)] {
        let bill = ledger(events);
        let totals = bill.totals_by_tag(strats.len());
        let mut fallbacks = 0;
        for t in &report.tenants {
            let remaining =
                (cfg.job.execution - cfg.slot_len * t.spot_slots as f64).max(Hours::ZERO);
            fallbacks += usize::from(assert_reconciles(
                t.tenant,
                t.cost,
                totals[t.tenant as usize],
                t.completed,
                cfg.on_demand,
                remaining,
            ));
        }
        assert!(
            fallbacks > 0 && bill.total_for_kind(UsageKind::Spot) > Cost::ZERO,
            "a vacuous reconciliation: {fallbacks} fallbacks, {} items",
            bill.items().len()
        );
    }
}

#[test]
fn portfolio_costs_equal_the_charged_events() {
    let cfg = portfolio_config();
    let strats = portfolio_strategies();
    let (fast, fast_events) = run_portfolio_loop_logged(&strats, &cfg, 0x9F_0110, None).unwrap();
    let (oracle, oracle_events) =
        portfolio::dense::run_portfolio_loop_logged(&strats, &cfg, 0x9F_0110, None).unwrap();
    for (report, events) in [(&fast, &fast_events), (&oracle, &oracle_events)] {
        let bill = ledger(events);
        let totals = bill.totals_by_tag(strats.len());
        // On-demand work bought during the horizon (contract shares), per
        // tenant, summed in charge order as the fleets sum it.
        let mut od_bought = vec![Hours::ZERO; strats.len()];
        for item in bill.items() {
            if item.kind == UsageKind::OnDemand {
                od_bought[item.tag as usize] += item.duration;
            }
        }
        let mut fallbacks = 0;
        for t in &report.tenants {
            let remaining = (cfg.job.execution
                - cfg.job.slot * t.spot_slots as f64
                - od_bought[t.tenant as usize])
                .max(Hours::ZERO);
            fallbacks += usize::from(assert_reconciles(
                t.tenant,
                t.cost,
                totals[t.tenant as usize],
                t.completed,
                cfg.on_demand,
                remaining,
            ));
        }
        assert!(
            fallbacks > 0 && od_bought.iter().any(|&h| h > Hours::ZERO),
            "a vacuous reconciliation: {fallbacks} fallbacks, no contract share bought"
        );
    }
}
