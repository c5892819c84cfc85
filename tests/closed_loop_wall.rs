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
//!
//! Unlogged, the event-driven fleets never visit a running tenant the
//! market's report does not name: its charges are settled lazily from a
//! per-slot table. The unlogged tests hold that path — the one every
//! caller that does not log runs — to the dense oracles directly, under
//! capacity reclamations and under finite supply.
//!
//! The wave tests hold the slot-0 submission wave itself: sessions of one
//! or two horizon slots, where every tenant decides against the same view
//! and the event-driven fleets decide once per distinct strategy. They run
//! a mix of repeated strategies (memo hits, on-demand tenants included)
//! and an all-distinct mix (memo misses only), logged and unlogged; the
//! two-slot sessions add the resubmissions of the wave's rejected bids,
//! so the owner columns hold superseded ids.
//!
//! The one-market test holds the portfolio loop at M = 1 to the
//! single-market dense oracle: a single-market bidder is a one-market
//! zone-fallback portfolio, clean and under faults.
//!
//! The unlogged wave tests hold the wave loop the way the end-to-end
//! benchmark runs it, unlogged: the benchmark's 97-cycle tenant mix, and a
//! mix that alternates, tenant by tenant, lone spot tenants on the common
//! plan with tenants the general apply arm takes (on-demand bidders,
//! one-time bidders re-planning after termination, and two-market
//! zone-fallback bidders at home in the second market).
//!
//! The staggered-cohort tests hold the settlement memo: a reclamation
//! outage plus resubmissions makes the tenants finishing in one slot
//! settle streaks of different starts from different totals, interleaved
//! by tenant id, so consecutive settlements alternate between memo keys.
//!
//! The source test holds the one market source both fleets share to a
//! bare `SpotMarket` driven by hand: finite supply with on-demand churn,
//! reclamations and feed gaps, its own RNG streams drawn in their order.

use spotbid::core::{BiddingStrategy, JobSpec, PortfolioStrategy};
use spotbid::engine::closedloop::{dense, portfolio};
use spotbid::engine::{
    run_closed_loop_logged, run_closed_loop_with_stats, run_portfolio_loop_logged,
    run_portfolio_loop_with_stats, Bill, ClosedLoopConfig, ClosedLoopReport, Event, LoopFaults,
    PortfolioLoopConfig, PortfolioMarket, PortfolioReport, UsageKind,
};
use spotbid::market::sim::{BidKind, BidRequest, ProviderReport, SpotMarket, WorkModel};
use spotbid::market::units::{Cost, Hours, Price};
use spotbid::market::{MarketParams, ProviderPolicy, Supply};
use spotbid::numerics::rng::RngStreams;

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
    let (fast, fast_events, _) = run_portfolio_loop_logged(&strats, &cfg, 0x9F_0110, None).unwrap();
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
    let (fast, fast_events, _) = run_portfolio_loop_logged(&strats, &cfg, 0x9F_0110, None).unwrap();
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

#[test]
fn unlogged_single_market_fleet_matches_the_dense_oracle_under_faults() {
    let cfg = single_config();
    let strats = single_strategies();
    let total = cfg.warmup_slots + cfg.horizon_slots;
    // Feed gaps every 7th slot; a reclamation every 5th slot after warmup
    // interrupts every runner mid-streak, 12-slot jobs many times over.
    let faults = LoopFaults {
        gap: (0..total).map(|s| s % 7 == 3).collect(),
        reclaim: (0..total)
            .map(|s| s > cfg.warmup_slots && s % 5 == 2)
            .collect(),
    };
    let (fast, stats) =
        run_closed_loop_with_stats(&strats, &cfg, 0xFA_0115, Some(&faults)).unwrap();
    let (oracle, _) =
        dense::run_closed_loop_logged(&strats, &cfg, 0xFA_0115, Some(&faults)).unwrap();
    assert_eq!(fast, oracle, "reports diverged");
    assert!(
        fast.tenants.iter().any(|t| t.interruptions > 0) && stats.woken > 0,
        "the reclamations never interrupted a runner"
    );
}

#[test]
fn unlogged_finite_supply_portfolio_matches_the_dense_oracle() {
    let mut cfg = portfolio_config();
    for (i, market) in cfg.markets.iter_mut().enumerate() {
        market.supply = Supply::Finite {
            capacity: 12 + 4 * i as u32,
            policy: ProviderPolicy::StaticSplit { reserved: 4 },
        };
    }
    let strats = portfolio_strategies();
    let (fast, _) = run_portfolio_loop_with_stats(&strats, &cfg, 0xF1_0117, None).unwrap();
    let (oracle, _) =
        portfolio::dense::run_portfolio_loop_logged(&strats, &cfg, 0xF1_0117, None).unwrap();
    assert_eq!(fast, oracle, "reports diverged");
    let reclaims: u64 = fast.provider.iter().flatten().map(|p| p.reclaims).sum();
    assert!(
        reclaims > 0,
        "capacity never bound: the test proved nothing"
    );
}

/// Every tenant its own strategy: fixed bids on `n` distinct prices.
fn distinct_bids(n: usize) -> Vec<BiddingStrategy> {
    (0..n)
        .map(|i| BiddingStrategy::FixedBid(Price::new(0.03 + 0.3 * i as f64 / n as f64)))
        .collect()
}

/// Whether any bid was submitted after the slot-0 wave.
fn resubmitted_after_the_wave(events: &[Event]) -> bool {
    events
        .iter()
        .any(|e| matches!(e, Event::BidSubmitted { slot, .. } if *slot > 0))
}

/// A wave-dominated single-market session, logged and unlogged, against
/// the dense oracle; returns the oracle's report and events.
fn single_wave(
    strats: &[BiddingStrategy],
    horizon: usize,
    seed: u64,
) -> (ClosedLoopReport, Vec<Event>) {
    let cfg = ClosedLoopConfig {
        horizon_slots: horizon,
        ..single_config()
    };
    let (logged, events, _) = run_closed_loop_logged(strats, &cfg, seed, None).unwrap();
    let (unlogged, _) = run_closed_loop_with_stats(strats, &cfg, seed, None).unwrap();
    let (oracle, oracle_events) = dense::run_closed_loop_logged(strats, &cfg, seed, None).unwrap();
    assert_eq!(logged, oracle, "logged report diverged (horizon {horizon})");
    assert_eq!(
        unlogged, oracle,
        "unlogged report diverged (horizon {horizon})"
    );
    assert_same_events(&events, &oracle_events);
    (oracle, oracle_events)
}

#[test]
fn single_market_wave_matches_the_dense_oracle() {
    let repeated = single_strategies();
    let distinct = distinct_bids(TENANTS);
    for horizon in [1, 2] {
        let seed = 0x3A_7E00 + horizon as u64;
        let (r, events) = single_wave(&repeated, horizon, seed);
        let on_demand = r
            .tenants
            .iter()
            .filter(|t| t.strategy == BiddingStrategy::OnDemand)
            .all(|t| t.completed && t.spot_slots == 0);
        assert!(on_demand, "an on-demand tenant ran on spot");
        // The wave's rejected bids queue resubmissions; the second slot
        // submits them.
        assert!(r.tenants.iter().any(|t| t.resubmissions > 0));
        assert_eq!(resubmitted_after_the_wave(&events), horizon == 2);
        let (d, _) = single_wave(&distinct, horizon, seed);
        assert!(
            d.tenants.iter().any(|t| t.spot_slots > 0),
            "no distinct bid ran"
        );
    }
    // A failing strategy mid-wave: both fleets refuse the session alike.
    let mut failing = repeated.clone();
    failing[TENANTS / 2] = BiddingStrategy::Percentile(1.5);
    let cfg = ClosedLoopConfig {
        horizon_slots: 1,
        ..single_config()
    };
    let fast = run_closed_loop_with_stats(&failing, &cfg, 0x3A_7E01, None).unwrap_err();
    let oracle = dense::run_closed_loop_logged(&failing, &cfg, 0x3A_7E01, None).unwrap_err();
    assert_eq!(fast, oracle);
}

/// A wave-dominated portfolio session, logged and unlogged, against the
/// dense oracle; returns the oracle's report and events.
fn portfolio_wave(
    strats: &[PortfolioStrategy],
    horizon: usize,
    seed: u64,
) -> (PortfolioReport, Vec<Event>) {
    let cfg = PortfolioLoopConfig {
        horizon_slots: horizon,
        ..portfolio_config()
    };
    let (logged, events, _) = run_portfolio_loop_logged(strats, &cfg, seed, None).unwrap();
    let (unlogged, _) = run_portfolio_loop_with_stats(strats, &cfg, seed, None).unwrap();
    let (oracle, oracle_events) =
        portfolio::dense::run_portfolio_loop_logged(strats, &cfg, seed, None).unwrap();
    assert_eq!(logged, oracle, "logged report diverged (horizon {horizon})");
    assert_eq!(
        unlogged, oracle,
        "unlogged report diverged (horizon {horizon})"
    );
    assert_same_events(&events, &oracle_events);
    (oracle, oracle_events)
}

#[test]
fn portfolio_wave_matches_the_dense_oracle() {
    let repeated = portfolio_strategies();
    // Every tenant distinct: its own fixed bid in every family.
    let distinct: Vec<PortfolioStrategy> = distinct_bids(TENANTS / 4)
        .into_iter()
        .enumerate()
        .map(|(i, base)| match i % 3 {
            0 => PortfolioStrategy::ZoneFallback { home: i % 3, base },
            1 => PortfolioStrategy::SplitEven { base },
            _ => PortfolioStrategy::Contract {
                spot_share: 0.5,
                base,
            },
        })
        .collect();
    for horizon in [1, 2] {
        let seed = 0x9A_7E00 + horizon as u64;
        let (r, events) = portfolio_wave(&repeated, horizon, seed);
        assert!(r.tenants.iter().any(|t| t.resubmissions > 0));
        assert_eq!(resubmitted_after_the_wave(&events), horizon == 2);
        let (d, _) = portfolio_wave(&distinct, horizon, seed);
        assert!(
            d.tenants.iter().any(|t| t.spot_slots > 0),
            "no distinct leg ran"
        );
    }
}

#[test]
fn rotating_zone_fallback_tenants_plan_for_their_current_home() {
    // One starting strategy, one-time bids into three small finite
    // markets. Identical tenants move in lockstep until the capacity pass
    // lets a few of them run; outages then terminate those runners while
    // the rest keep rotating, so tenants of one starting strategy re-plan
    // side by side for different home markets.
    let mut cfg = portfolio_config();
    for market in &mut cfg.markets {
        market.supply = Supply::Finite {
            capacity: 40,
            policy: ProviderPolicy::StaticSplit { reserved: 4 },
        };
    }
    cfg.max_resubmissions = 40;
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let faults: Vec<LoopFaults> = (0..3)
        .map(|m| LoopFaults {
            gap: Vec::new(),
            reclaim: (0..total)
                .map(|s| s > cfg.warmup_slots && s % 7 == 2 * m)
                .collect(),
        })
        .collect();
    let strats = vec![
        PortfolioStrategy::ZoneFallback {
            home: 0,
            base: BiddingStrategy::OptimalOneTime,
        };
        600
    ];
    let seed = 0x20_7A7E;
    let (fast, _) = run_portfolio_loop_with_stats(&strats, &cfg, seed, Some(&faults)).unwrap();
    let (oracle, _) =
        portfolio::dense::run_portfolio_loop_logged(&strats, &cfg, seed, Some(&faults)).unwrap();
    assert_eq!(fast, oracle, "reports diverged");
    let homes: std::collections::BTreeSet<usize> = fast
        .tenants
        .iter()
        .filter_map(|t| match t.strategy {
            PortfolioStrategy::ZoneFallback { home, .. } => Some(home),
            _ => None,
        })
        .collect();
    assert!(homes.len() > 1, "every tenant ended at home {homes:?}");
}

/// The reclamation outage slots, as a fault schedule over a session of
/// `total` slots whose horizon starts after `warmup`.
fn outage_at(total: usize, warmup: usize, slot: usize) -> LoopFaults {
    LoopFaults {
        gap: Vec::new(),
        reclaim: (0..total).map(|s| s == warmup + slot).collect(),
    }
}

/// Whether some slot's spot finishers settle staggered streaks: their
/// last streaks began in at least two different slots, one of them with
/// charges already in its total, and the groups of equal (streak start,
/// total) interleave in tenant order — the keys a lazy settlement sees.
fn staggered_cohort(events: &[Event]) -> bool {
    use std::collections::{BTreeMap, BTreeSet};
    let mut total: BTreeMap<u32, f64> = BTreeMap::new();
    // Per tenant: its last streak's first slot and its total then.
    let mut streak: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    let mut spot_at: BTreeMap<u32, u64> = BTreeMap::new();
    let mut cohorts: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for e in events {
        match *e {
            Event::BidAccepted { slot, tenant } => {
                let held = total.get(&tenant).copied().unwrap_or(0.0);
                streak.insert(tenant, (slot, held.to_bits()));
            }
            Event::Charged { item } => {
                *total.entry(item.tag).or_default() += item.amount().as_f64();
                if item.kind == UsageKind::Spot {
                    spot_at.insert(item.tag, item.slot);
                }
            }
            Event::Completed { slot, tenant } if spot_at.get(&tenant) == Some(&slot) => {
                cohorts.entry(slot).or_default().push(tenant);
            }
            _ => {}
        }
    }
    cohorts.values().any(|finishers| {
        let mut keys: Vec<(u32, (u64, u64))> = finishers.iter().map(|&t| (t, streak[&t])).collect();
        keys.sort_unstable();
        let distinct: BTreeSet<(u64, u64)> = keys.iter().map(|k| k.1).collect();
        let starts: BTreeSet<u64> = distinct.iter().map(|k| k.0).collect();
        let held = distinct.iter().any(|k| k.1 != 0);
        let runs = 1 + keys.windows(2).filter(|w| w[0].1 != w[1].1).count();
        starts.len() >= 2 && held && runs > distinct.len()
    })
}

#[test]
fn single_market_staggered_cohorts_match_the_dense_oracle() {
    // An outage in a capacity-bound market: one-time tenants are
    // terminated and resubmit, and the capacity pass lets the resubmitted
    // bids and the parked persistent ones back in over several slots, so
    // a finishing cohort mixes streaks of different starts and totals.
    let mut cfg = single_config();
    cfg.supply = Supply::Finite {
        capacity: 81,
        policy: ProviderPolicy::StaticSplit { reserved: 10 },
    };
    cfg.od_arrivals = 8.0;
    cfg.od_departure = 0.2;
    cfg.max_resubmissions = 10;
    let n = 150;
    let strats: Vec<BiddingStrategy> = (0..n)
        .map(|i| match i % 3 {
            0 => BiddingStrategy::OptimalOneTime,
            _ => BiddingStrategy::FixedBid(Price::new(
                0.168 + 0.05 * ((i * 37) % n) as f64 / n as f64,
            )),
        })
        .collect();
    let faults = outage_at(cfg.warmup_slots + cfg.horizon_slots, cfg.warmup_slots, 5);
    let seed = 11;
    let (logged, events, _) = run_closed_loop_logged(&strats, &cfg, seed, Some(&faults)).unwrap();
    let (unlogged, _) = run_closed_loop_with_stats(&strats, &cfg, seed, Some(&faults)).unwrap();
    let (oracle, oracle_events) =
        dense::run_closed_loop_logged(&strats, &cfg, seed, Some(&faults)).unwrap();
    assert_eq!(logged, oracle, "logged report diverged");
    assert_eq!(unlogged, oracle, "unlogged report diverged");
    assert_same_events(&events, &oracle_events);
    assert!(
        oracle.tenants.iter().any(|t| t.resubmissions > 0),
        "no bid was resubmitted"
    );
    assert!(
        staggered_cohort(&oracle_events),
        "no finishing cohort mixed staggered streaks"
    );
}

#[test]
fn portfolio_staggered_cohorts_match_the_dense_oracle() {
    // One outage per market, a slot apart: legs resume in different
    // slots with different totals, and tenants of every family finish
    // side by side.
    let cfg = portfolio_config();
    let strats = portfolio_strategies();
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let faults: Vec<LoopFaults> = (0..cfg.markets.len())
        .map(|m| outage_at(total, cfg.warmup_slots, 4 + m))
        .collect();
    let seed = 0x9A_66_E0;
    let (logged, events, _) =
        run_portfolio_loop_logged(&strats, &cfg, seed, Some(&faults)).unwrap();
    let (unlogged, _) = run_portfolio_loop_with_stats(&strats, &cfg, seed, Some(&faults)).unwrap();
    let (oracle, oracle_events) =
        portfolio::dense::run_portfolio_loop_logged(&strats, &cfg, seed, Some(&faults)).unwrap();
    assert_eq!(logged, oracle, "logged report diverged");
    assert_eq!(unlogged, oracle, "unlogged report diverged");
    assert_same_events(&events, &oracle_events);
    assert!(
        oracle.tenants.iter().any(|t| t.resubmissions > 0),
        "no leg was resubmitted"
    );
    assert!(
        staggered_cohort(&oracle_events),
        "no finishing cohort mixed staggered streaks"
    );
}

#[test]
fn one_market_portfolio_matches_the_single_market_dense_oracle() {
    let cfg = single_config();
    let one = PortfolioLoopConfig {
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
    };
    let bases = single_strategies();
    let homes: Vec<PortfolioStrategy> = bases
        .iter()
        .map(|&base| PortfolioStrategy::ZoneFallback { home: 0, base })
        .collect();
    let total = cfg.warmup_slots + cfg.horizon_slots;
    // Feed gaps every 7th slot and a reclamation every 5th slot after
    // warmup, as in the unlogged fault test.
    let faults = LoopFaults {
        gap: (0..total).map(|s| s % 7 == 3).collect(),
        reclaim: (0..total)
            .map(|s| s > cfg.warmup_slots && s % 5 == 2)
            .collect(),
    };
    for plan in [None, Some(faults)] {
        let seed = 0x0E_3A2E;
        let (port, port_events, _) =
            run_portfolio_loop_logged(&homes, &one, seed, plan.as_ref().map(std::slice::from_ref))
                .unwrap();
        let (oracle, oracle_events) =
            dense::run_closed_loop_logged(&bases, &cfg, seed, plan.as_ref()).unwrap();
        let faulted = plan.is_some();
        assert_eq!(port.tenants.len(), oracle.tenants.len());
        for (p, o) in port.tenants.iter().zip(&oracle.tenants) {
            let home = PortfolioStrategy::ZoneFallback {
                home: 0,
                base: o.strategy,
            };
            assert_eq!(
                (p.tenant, p.strategy, p.completed, p.spot_slots),
                (o.tenant, home, o.completed, o.spot_slots),
                "tenant {} (faults: {faulted})",
                o.tenant
            );
            assert_eq!(
                (p.interruptions, p.resubmissions),
                (o.interruptions, o.resubmissions),
                "tenant {} (faults: {faulted})",
                o.tenant
            );
            assert_eq!(
                (p.cost.as_f64().to_bits(), p.savings.to_bits()),
                (o.cost.as_f64().to_bits(), o.savings.to_bits()),
                "tenant {} (faults: {faulted})",
                o.tenant
            );
        }
        assert_eq!(port.completed, oracle.completed);
        assert_eq!(port.mean_savings.to_bits(), oracle.mean_savings.to_bits());
        assert_eq!(
            (port.mean_price.as_slice(), port.peak_price.as_slice()),
            (
                [oracle.mean_price].as_slice(),
                [oracle.peak_price].as_slice()
            ),
            "prices diverged (faults: {faulted})"
        );
        assert_eq!(port.slots, oracle.slots);
        assert_eq!(port.provider, vec![oracle.provider]);
        assert_same_events(&port_events, &oracle_events);
        assert!(
            oracle.tenants.iter().any(|t| t.resubmissions > 0) && oracle.completed > 0,
            "a vacuous session (faults: {faulted})"
        );
    }
}

/// The end-to-end benchmark's tenant mix: a 97-cycle of one optimal
/// persistent bidder, one 90th-percentile bidder and 95 fixed bids on a
/// 13-rung ladder.
fn benchmark_mix(n: usize, phase: usize) -> Vec<BiddingStrategy> {
    (0..n)
        .map(|i| match i % 97 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.90),
            _ => BiddingStrategy::FixedBid(Price::new(0.05 + ((i + phase) % 13) as f64 * 0.023)),
        })
        .collect()
}

#[test]
fn unlogged_benchmark_mix_matches_the_dense_oracle() {
    // The benchmark's market and job: 4-hour jobs of 48 slots, so the
    // horizon holds the wave, the cohort that finishes in one slot and
    // the restarts after it.
    let cfg = ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
        job: JobSpec::builder(4.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 20,
        horizon_slots: 80,
        max_resubmissions: 4,
        ..single_config()
    };
    for (phase, seed) in [(0, 0xE2E_0001), (7, 0xE2E_0002)] {
        let strats = benchmark_mix(97 * 20, phase);
        let (fast, stats) = run_closed_loop_with_stats(&strats, &cfg, seed, None).unwrap();
        let oracle = dense::run_closed_loop(&strats, &cfg, seed).unwrap();
        assert_eq!(fast, oracle, "report diverged (phase {phase})");
        // The wave's cohort finishes in the horizon, and the ladder's low
        // rungs never run and pay the on-demand fallback.
        let finished = fast.tenants.iter().filter(|t| t.completed).count();
        assert!(
            finished > 0 && finished < strats.len() && stats.woken > 0,
            "a vacuous session (phase {phase}): {finished} completed"
        );
    }
}

/// Lone spot tenants on the common plan (even tags) alternating with
/// tenants the general apply arm takes or that switch market (odd tags).
fn interleaved_arms(n: usize) -> Vec<PortfolioStrategy> {
    (0..n)
        .map(|i| {
            let ladder = BiddingStrategy::FixedBid(Price::new(0.03 + (i % 13) as f64 * 0.025));
            if i % 2 == 0 {
                return PortfolioStrategy::ZoneFallback {
                    home: 0,
                    base: ladder,
                };
            }
            match (i / 2) % 3 {
                0 => PortfolioStrategy::ZoneFallback {
                    home: 0,
                    base: BiddingStrategy::OnDemand,
                },
                1 => PortfolioStrategy::ZoneFallback {
                    home: 0,
                    base: BiddingStrategy::OptimalOneTime,
                },
                _ => PortfolioStrategy::ZoneFallback {
                    home: 1,
                    base: ladder,
                },
            }
        })
        .collect()
}

#[test]
fn unlogged_general_arm_tenants_interleaved_with_lone_spot_tenants_match_the_dense_oracle() {
    let cfg = PortfolioLoopConfig {
        markets: portfolio_config().markets.into_iter().take(2).collect(),
        ..portfolio_config()
    };
    let strats = interleaved_arms(1_200);
    let total = cfg.warmup_slots + cfg.horizon_slots;
    // Reclamations in market 0 terminate one-time legs, whose tenants
    // re-plan, and move zone-fallback homes between the two markets.
    let reclaim = LoopFaults {
        gap: Vec::new(),
        reclaim: (0..total)
            .map(|s| s > cfg.warmup_slots && s % 9 == 4)
            .collect(),
    };
    let faults = [reclaim, LoopFaults::default()];
    for plan in [None, Some(&faults[..])] {
        let seed = 0x1A_7E4F;
        let (fast, _) = run_portfolio_loop_with_stats(&strats, &cfg, seed, plan).unwrap();
        let (oracle, _) =
            portfolio::dense::run_portfolio_loop_logged(&strats, &cfg, seed, plan).unwrap();
        let faulted = plan.is_some();
        assert_eq!(fast, oracle, "report diverged (faults: {faulted})");
        let replanned = oracle.tenants.iter().any(|t| t.resubmissions > 0);
        let second_home = oracle
            .tenants
            .iter()
            .enumerate()
            .any(|(i, t)| i % 2 == 1 && (i / 2) % 3 == 2 && t.spot_slots > 0);
        let bought = oracle
            .tenants
            .iter()
            .any(|t| t.completed && t.spot_slots == 0);
        assert!(
            replanned && second_home && bought,
            "a vacuous mix (faults: {faulted}): re-plans {replanned}, \
             market-1 runs {second_home}, on-demand {bought}"
        );
    }
}

/// The provider side of a session with every float compared bit for bit.
fn provider_bits(p: &ProviderReport) -> (ProviderReport, [u64; 4]) {
    let bits = [
        p.spot_revenue.as_f64().to_bits(),
        p.od_revenue.as_f64().to_bits(),
        p.mean_utilization.to_bits(),
        p.peak_price.as_f64().to_bits(),
    ];
    (*p, bits)
}

#[test]
fn single_market_source_matches_a_market_driven_by_hand() {
    // Every tenant buys on demand, so no spot bid reaches the market and
    // the session ends in its first horizon slot: everything the market
    // does happens in the long warmup, where on-demand churn, reclamation
    // outages and feed gaps all fire.
    let mut cfg = single_config();
    cfg.warmup_slots = 600;
    cfg.supply = Supply::Finite {
        capacity: 30,
        policy: ProviderPolicy::StaticSplit { reserved: 6 },
    };
    cfg.od_arrivals = 2.5;
    cfg.od_departure = 0.15;
    let n = 150;
    let strats = vec![BiddingStrategy::OnDemand; n];
    let total = cfg.warmup_slots + cfg.horizon_slots;
    let faults = LoopFaults {
        gap: (0..total).map(|s| s % 11 == 4).collect(),
        reclaim: (0..cfg.warmup_slots).map(|s| s % 37 == 20).collect(),
    };
    let seed = 0x50_42CE;
    let (fast, _) = run_closed_loop_with_stats(&strats, &cfg, seed, Some(&faults)).unwrap();
    let (oracle, _) = dense::run_closed_loop_logged(&strats, &cfg, seed, Some(&faults)).unwrap();
    assert!(
        fast.tenants
            .iter()
            .all(|t| t.completed && t.spot_slots == 0),
        "a tenant bid on spot"
    );

    // The same market by hand: stream 0 departures, stream 1 background,
    // stream 2 + ceil(N/64) on-demand churn; each slot reclaims, churns,
    // lets the background arrive and clears, in that order.
    let streams = RngStreams::new(seed);
    let (mut departures, mut background) = (streams.stream(0), streams.stream(1));
    let mut churn = streams.stream(2 + n.div_ceil(64) as u64);
    let mut market = SpotMarket::with_supply(cfg.params, cfg.slot_len, cfg.supply);
    let (lo, hi) = (cfg.params.pi_min.as_f64(), cfg.params.pi_bar.as_f64());
    let (mut prices, mut departed_total) = (Vec::new(), 0);
    for slot in 0..cfg.warmup_slots + fast.slots as usize {
        if faults.reclaim.get(slot) == Some(&true) {
            market.reclaim_next_slot();
        }
        let departed = (0..market.od_active())
            .filter(|_| churn.chance(cfg.od_departure))
            .count() as u32;
        market.release_on_demand(departed);
        departed_total += departed;
        let requested = churn.poisson(cfg.od_arrivals) as u32;
        if requested > 0 {
            market.request_on_demand(requested);
        }
        for _ in 0..background.poisson(cfg.background_arrivals) {
            market.submit(BidRequest {
                price: Price::new(background.range_f64(lo, hi)),
                kind: BidKind::OneTime,
                work: WorkModel::Geometric,
            });
        }
        prices.push(market.step(&mut departures).price);
    }
    let visible = &prices[cfg.warmup_slots..];
    let mean = visible.iter().map(|p| p.as_f64()).sum::<f64>() / visible.len() as f64;
    let peak = visible
        .iter()
        .copied()
        .fold(Price::ZERO, |a, b| if b > a { b } else { a });
    let hand = market.provider_report().expect("finite supply");
    for (name, report) in [("wakeup", &fast), ("dense", &oracle)] {
        assert_eq!(
            provider_bits(&report.provider.expect("finite supply")),
            provider_bits(&hand),
            "{name}: provider diverged"
        );
        assert_eq!(
            (
                report.mean_price.as_f64().to_bits(),
                report.peak_price.as_f64().to_bits(),
                report.slots
            ),
            (
                mean.to_bits(),
                peak.as_f64().to_bits(),
                visible.len() as u64
            ),
            "{name}: price summary diverged"
        );
    }
    assert!(
        departed_total > 0 && hand.od_admissions > 0 && hand.od_rejections > 0 && hand.reclaims > 0,
        "a vacuous source: {departed_total} departures, {hand:?}"
    );
}
