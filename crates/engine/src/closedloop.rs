//! Multi-tenant closed-loop bidding: the capability none of the old loops
//! had.
//!
//! The paper's two halves never meet: Sections 5–7 bidders are price-takers
//! replaying recorded traces, and the Section-4 equilibrium market is only
//! exercised with synthetic uniform bids. Here they are joined — N
//! strategy-driven tenants observe the prices an endogenous
//! [`SpotMarket`](spotbid_market::sim::SpotMarket) has posted *so far*,
//! resolve their `BiddingStrategy` online, and submit real bids whose
//! demand moves the very price process they are bidding against (the
//! regime studied by feedback-control bidding, arXiv:1708.01391, and
//! strategic multi-bidder interaction, arXiv:2305.19578).
//!
//! Background load keeps the market alive: each slot, `Poisson(λ)` one-time
//! bidders with geometric work arrive, bidding uniformly over
//! `[π_min, π̄]` — the paper's §4 uniform-bid assumption. Everything is
//! deterministic from one `u64` seed via `RngStreams` substreams: stream
//! 0 drives market departures, stream 1 the background arrivals, and
//! under finite supply the on-demand churn draws from stream
//! `2 + ⌈N/64⌉` (`TENANTS_PER_STREAM`); tenants themselves draw no
//! randomness.
//!
//! A single-market bidder is the one-market case of a portfolio (Zhang,
//! Ghosh & Aggarwal's portfolio contracts): [`run_closed_loop`] runs the
//! engine's one wakeup fleet under the [`portfolio`] session shell with
//! one market and every tenant a zone-fallback bidder at home there, and
//! builds the [`ClosedLoopReport`] rows directly; crate-privately it adds
//! the on-demand churn above and its rule that an on-demand decision buys
//! all the remaining work (DESIGN.md §5f). [`dense`] runs the portfolio
//! loop's frozen dense fleet, which scans every tenant every slot, on the
//! same one-market session: it is the oracle, with bit-identical reports,
//! events, `BidId`s and RNG draws at any thread count
//! (`tests/wakeup_equiv.rs`).

use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::observer::EventLog;
use crate::EngineError;
use portfolio::{PortfolioLoopConfig, PortfolioMarket, Session, SessionFleet, SingleMarket};
use spotbid_core::{BiddingStrategy, JobSpec, PortfolioStrategy};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{ProviderReport, Supply};
use spotbid_market::units::{Cost, Hours, Price};

pub mod portfolio;

/// A single-market session of N tenants draws its on-demand churn from
/// stream `2 + ⌈N / TENANTS_PER_STREAM⌉` (streams 0 and 1 drive the market
/// and the background arrivals). The streams between are never drawn
/// from; the value stays 64 because it fixes where the on-demand stream
/// sits, and with it every finite-supply single-market report and digest.
pub(crate) const TENANTS_PER_STREAM: usize = 64;

/// Configuration of one closed-loop session.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoopConfig {
    /// The provider's market parameters (Eq. 3 pricing).
    pub params: MarketParams,
    /// Pricing-slot length (5 minutes on EC2).
    pub slot_len: Hours,
    /// The on-demand price — every tenant's outside option.
    pub on_demand: Price,
    /// The job each tenant needs to run.
    pub job: JobSpec,
    /// Background-only slots simulated before tenants may bid, so their
    /// strategies have an observed history to fit. Must be ≥ 1.
    pub warmup_slots: usize,
    /// Slots simulated with tenants in the market.
    pub horizon_slots: usize,
    /// Mean background arrivals per slot (`Poisson(λ)` one-time bidders
    /// with geometric work, bidding uniformly over `[π_min, π̄]`).
    pub background_arrivals: f64,
    /// Times a tenant whose bid was rejected/terminated may re-bid before
    /// giving up on spot.
    pub max_resubmissions: u32,
    /// The market's supply model: unbounded Eq. 3 pricing (the default
    /// regime, bit-identical to the pre-supply loop) or a finite provider
    /// whose on-demand pool competes with the spot book for servers.
    pub supply: Supply,
    /// Mean on-demand instance requests per slot (`Poisson`); drawn from
    /// a reserved substream, only under finite supply.
    pub od_arrivals: f64,
    /// Per-slot departure probability of each active on-demand instance
    /// (geometric holding times); only under finite supply.
    pub od_departure: f64,
}

/// What happened to one tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantOutcome {
    /// The tenant's billing tag (its index in the strategy slice).
    pub tenant: u32,
    /// The strategy it bid with.
    pub strategy: BiddingStrategy,
    /// Whether its job's work was completed (on spot or on demand).
    pub completed: bool,
    /// Slots it ran on spot instances.
    pub spot_slots: u64,
    /// Interruptions suffered.
    pub interruptions: u32,
    /// Times it re-bid after a rejection/termination.
    pub resubmissions: u32,
    /// Total cost, including the on-demand completion of any work left
    /// unfinished when the horizon closed.
    pub cost: Cost,
    /// Savings vs. running the whole job on demand: `1 − cost/(π̄·T_s)`.
    pub savings: f64,
}

/// Aggregate result of one closed-loop session.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedLoopReport {
    /// Per-tenant accounting, in tag order.
    pub tenants: Vec<TenantOutcome>,
    /// Tenants whose work completed.
    pub completed: usize,
    /// Mean savings across tenants.
    pub mean_savings: f64,
    /// Mean posted price over the tenant-visible horizon.
    pub mean_price: Price,
    /// Peak posted price over the tenant-visible horizon.
    pub peak_price: Price,
    /// Slots simulated after warmup.
    pub slots: u64,
    /// The provider's side of the session — revenue, utilization,
    /// reclamations, on-demand rejections over the **whole** run (warmup
    /// included). `None` under unbounded supply.
    pub provider: Option<ProviderReport>,
}

/// Wakeup accounting for one closed-loop session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Slots the fleet was asked to advance.
    pub slots: u64,
    /// Slots skipped: the wake set was empty and nothing was running.
    /// Fault-free, exactly the dense run's zero-activity slots.
    pub skipped_slots: u64,
    /// Tenant wakeups summed over all slots: each slot's wake set (fresh
    /// tenants plus the owners of the bids its report names), counted
    /// once per tenant. Runners carried through a slot are not counted.
    pub woken: u64,
}

/// A fault plan for one market of a closed-loop session, indexed by
/// **absolute** slot (warmup slots included). The session's one market
/// source reads it at the same point of each slot whichever fleet runs, so
/// a faulted wakeup run stays bit-identical to the faulted dense run.
/// Slots beyond a vector's length are fault-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoopFaults {
    /// Feed gaps: the slot's posted price never reaches the tenants'
    /// observed history (the market itself is unaffected).
    pub gap: Vec<bool>,
    /// Capacity reclamations: the provider takes every instance back this
    /// slot regardless of bids (see `SpotMarket::reclaim_next_slot`).
    pub reclaim: Vec<bool>,
}

impl LoopFaults {
    fn gap_at(&self, slot: usize) -> bool {
        self.gap.get(slot).copied().unwrap_or(false)
    }

    fn reclaim_at(&self, slot: usize) -> bool {
        self.reclaim.get(slot).copied().unwrap_or(false)
    }
}

/// Validates slot `slot`'s spot charge the way each of its `Charged`
/// items is validated. The refusal names only the price and the slot, so
/// it is the same for every tenant that ran.
pub(crate) fn spot_charge(slot: u64, price: Price, slot_len: Hours) -> Result<(), EngineError> {
    LineItem {
        slot,
        price,
        duration: slot_len,
        kind: UsageKind::Spot,
        tag: 0,
    }
    .validate()
}

/// Runs one closed-loop session on the event-driven wakeup fleet: warms
/// the market up with background load, then lets one tenant per strategy
/// bid into it for `horizon_slots`. Deterministic from `seed`, and
/// bit-identical to [`dense::run_closed_loop`] at any thread count.
///
/// Tenants left incomplete at the horizon finish their remaining work on
/// demand (the §5.1 fallback), so every reported cost is for a completed
/// job and savings are comparable across tenant counts.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] for empty strategy lists, zero warmup or
/// horizon, more warmup plus horizon slots than `u32` holds, a non-finite
/// arrival rate or more expected background bids than the market's `u32`
/// bid ids hold, or finite supply of capacity 0;
/// [`EngineError::Core`] if a strategy fails to resolve.
pub fn run_closed_loop(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
) -> Result<ClosedLoopReport, EngineError> {
    run(strategies, cfg, seed, None, None, false).map(|(report, _)| report)
}

/// As [`run_closed_loop`], optionally fault-injected, also returning the
/// fleet's wakeup statistics (processed/skipped slots, wakeup counts).
///
/// # Errors
///
/// As [`run_closed_loop`].
pub fn run_closed_loop_with_stats(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
) -> Result<(ClosedLoopReport, FleetStats), EngineError> {
    run(strategies, cfg, seed, faults, None, false)
}

/// As [`run_closed_loop`], optionally fault-injected, also returning the
/// full event stream and the fleet's wakeup statistics — the equivalence
/// suite's view of a run.
///
/// # Errors
///
/// As [`run_closed_loop`].
pub fn run_closed_loop_logged(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
) -> Result<(ClosedLoopReport, Vec<Event>, FleetStats), EngineError> {
    let mut log = EventLog::new();
    let (report, stats) = run(strategies, cfg, seed, faults, Some(&mut log), false)?;
    Ok((report, log.into_events(), stats))
}

/// The frozen dense oracle of the single-market loop: the portfolio
/// loop's dense fleet ([`portfolio::dense`]) run on the same one-market
/// session as [`run_closed_loop`].
pub mod dense {
    use super::{run, ClosedLoopConfig, ClosedLoopReport, LoopFaults};
    use crate::event::Event;
    use crate::observer::EventLog;
    use crate::EngineError;
    use spotbid_core::BiddingStrategy;

    /// Runs one closed-loop session on the frozen dense fleet. Same
    /// contract as [`super::run_closed_loop`] — and, by the §5f
    /// equivalence wall, the same bits out.
    ///
    /// # Errors
    ///
    /// As [`super::run_closed_loop`].
    pub fn run_closed_loop(
        strategies: &[BiddingStrategy],
        cfg: &ClosedLoopConfig,
        seed: u64,
    ) -> Result<ClosedLoopReport, EngineError> {
        run(strategies, cfg, seed, None, None, true).map(|(report, _)| report)
    }

    /// As [`run_closed_loop`], optionally fault-injected, also returning
    /// the full event stream — the oracle side of the equivalence suite.
    ///
    /// # Errors
    ///
    /// As [`super::run_closed_loop`].
    pub fn run_closed_loop_logged(
        strategies: &[BiddingStrategy],
        cfg: &ClosedLoopConfig,
        seed: u64,
        faults: Option<&LoopFaults>,
    ) -> Result<(ClosedLoopReport, Vec<Event>), EngineError> {
        let mut log = EventLog::new();
        let (report, _) = run(strategies, cfg, seed, faults, Some(&mut log), true)?;
        Ok((report, log.into_events()))
    }
}

/// The single-market session as a one-market portfolio: every tenant a
/// zone-fallback bidder at home in the one market, run on the wakeup fleet
/// or, when `dense`, on the frozen dense fleet (whose stats stay zero).
fn run(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
    log: Option<&mut EventLog>,
    dense: bool,
) -> Result<(ClosedLoopReport, FleetStats), EngineError> {
    let one = PortfolioLoopConfig {
        markets: vec![PortfolioMarket {
            name: String::new(),
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
    let single = SingleMarket {
        od_arrivals: cfg.od_arrivals,
        od_departure: cfg.od_departure,
        od_stream: 2 + strategies.len().div_ceil(TENANTS_PER_STREAM) as u64,
    };
    let tenants = strategies
        .iter()
        .map(|&base| PortfolioStrategy::ZoneFallback { home: 0, base });
    let faults = faults.map(std::slice::from_ref);
    if dense {
        let mut session = portfolio::dense::run(tenants, &one, seed, faults, Some(&single), log)?;
        Ok((report(&mut session, &one)?, FleetStats::default()))
    } else {
        let mut session = portfolio::wakeup::run(tenants, &one, seed, faults, Some(&single), log)?;
        let report = report(&mut session, &one)?;
        let s = &session.fleet.stats;
        let stats = FleetStats {
            slots: s.slots,
            skipped_slots: s.skipped_slots,
            woken: s.woken,
        };
        Ok((report, stats))
    }
}

/// A one-market session's report, its rows built directly.
fn report<F: SessionFleet>(
    session: &mut Session<F>,
    one: &PortfolioLoopConfig,
) -> Result<ClosedLoopReport, EngineError> {
    let (tenants, completed, mean_savings) =
        session.outcomes(one, |t, cost, savings| TenantOutcome {
            tenant: t.tag,
            strategy: match *t.strategy {
                PortfolioStrategy::ZoneFallback { base, .. } => base,
                _ => unreachable!("every single-market tenant is a zone-fallback bidder"),
            },
            completed: t.completed,
            spot_slots: t.spot_slots,
            interruptions: t.interruptions,
            resubmissions: t.resubmissions,
            cost,
            savings,
        })?;
    let (mean_price, peak_price, slots) = session.prices(0, one.warmup_slots);
    Ok(ClosedLoopReport {
        tenants,
        completed,
        mean_savings,
        mean_price,
        peak_price,
        slots,
        provider: session.provider(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::CostTotals;
    use spotbid_market::sim::ChargeTable;
    use spotbid_numerics::rng::Rng;

    fn config() -> ClosedLoopConfig {
        ClosedLoopConfig {
            params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 100,
            horizon_slots: 400,
            background_arrivals: 3.0,
            max_resubmissions: 4,
            supply: Supply::Unbounded,
            od_arrivals: 0.0,
            od_departure: 0.0,
        }
    }

    #[test]
    fn deterministic_from_seed() {
        let strategies = [
            BiddingStrategy::OptimalPersistent,
            BiddingStrategy::Percentile(0.95),
            BiddingStrategy::FixedBid(Price::new(0.30)),
        ];
        let cfg = config();
        let a = run_closed_loop(&strategies, &cfg, 0xC105ED).unwrap();
        let b = run_closed_loop(&strategies, &cfg, 0xC105ED).unwrap();
        assert_eq!(a, b);
        let c = run_closed_loop(&strategies, &cfg, 0xC105ED + 1).unwrap();
        assert_ne!(
            a.mean_price, c.mean_price,
            "different seed, different market"
        );
    }

    #[test]
    fn tenants_complete_and_save() {
        let strategies = [BiddingStrategy::FixedBid(Price::new(0.34)); 4];
        let cfg = config();
        let report = run_closed_loop(&strategies, &cfg, 7).unwrap();
        assert_eq!(report.tenants.len(), 4);
        // Every cost is finite and every tenant's job is accounted for:
        // completed on spot, or topped up on demand.
        for t in &report.tenants {
            assert!(t.cost.as_f64().is_finite() && t.cost.as_f64() > 0.0);
            assert!(t.savings <= 1.0);
        }
        // A near-π̄ persistent bid in this quiet market should complete.
        assert!(report.completed > 0, "{report:?}");
        assert!(report.mean_price > Price::ZERO);
        assert!(report.peak_price >= report.mean_price);
    }

    #[test]
    fn on_demand_strategy_charges_full_job() {
        let cfg = config();
        let report = run_closed_loop(&[BiddingStrategy::OnDemand], &cfg, 11).unwrap();
        let t = &report.tenants[0];
        assert!(t.completed);
        assert_eq!(t.spot_slots, 0);
        assert!((t.cost.as_f64() - 0.35).abs() < 1e-12, "od × 1h job");
        assert!(t.savings.abs() < 1e-12);
    }

    #[test]
    fn on_demand_buys_the_whole_remaining_job() {
        // 111 one-minute slots make 1.8499999999999999 h, just short of
        // the 1.85 h job: a portfolio's on-demand leg would buy the
        // former, the single-market loop buys the job's remaining work.
        let minute = Hours::from_minutes(1.0);
        let cfg = ClosedLoopConfig {
            slot_len: minute,
            job: JobSpec::builder(1.85)
                .recovery_secs(60.0)
                .slot(minute)
                .build()
                .unwrap(),
            ..config()
        };
        assert!(minute * (cfg.job.slots_needed() as f64) < cfg.job.execution);
        let strategies = [BiddingStrategy::OnDemand];
        let (report, events, _) = run_closed_loop_logged(&strategies, &cfg, 5, None).unwrap();
        let oracle = dense::run_closed_loop_logged(&strategies, &cfg, 5, None).unwrap();
        assert_eq!((report, &events), (oracle.0, &oracle.1));
        let bought: Vec<Hours> = events
            .iter()
            .filter_map(|e| match e {
                Event::Charged { item } => Some(item.duration),
                _ => None,
            })
            .collect();
        assert_eq!(bought, vec![cfg.job.execution]);
    }

    #[test]
    fn demand_moves_the_price() {
        // More tenants → more accepted demand → higher posted prices
        // (Eq. 3's price rises with L). Compare 1 vs 24 aggressive
        // persistent bidders on the same seed.
        let cfg = ClosedLoopConfig {
            background_arrivals: 1.0,
            ..config()
        };
        let lone =
            run_closed_loop(&[BiddingStrategy::FixedBid(Price::new(0.34))], &cfg, 99).unwrap();
        let crowd_strats = vec![BiddingStrategy::FixedBid(Price::new(0.34)); 24];
        let crowd = run_closed_loop(&crowd_strats, &cfg, 99).unwrap();
        assert!(
            crowd.mean_price > lone.mean_price,
            "crowd {} vs lone {}",
            crowd.mean_price,
            lone.mean_price
        );
    }

    #[test]
    fn invalid_configs_are_refused() {
        let cfg = config();
        assert!(matches!(
            run_closed_loop(&[], &cfg, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
        let bad = ClosedLoopConfig {
            warmup_slots: 0,
            ..cfg
        };
        assert!(run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1).is_err());
        let bad = ClosedLoopConfig {
            background_arrivals: f64::NAN,
            ..cfg
        };
        assert!(run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1).is_err());
        let bad = ClosedLoopConfig {
            slot_len: Hours::from_minutes(10.0),
            ..cfg
        };
        assert!(run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1).is_err());
        // Sessions whose slots overflow the fleet's u32 slot counters, or
        // usize itself, with no background arrivals to refuse them first.
        let max = u32::MAX as usize;
        for (warmup_slots, horizon_slots) in [(1, max), (max, 1), (usize::MAX, 1), (1, usize::MAX)]
        {
            let bad = ClosedLoopConfig {
                warmup_slots,
                horizon_slots,
                background_arrivals: 0.0,
                ..cfg
            };
            assert!(
                matches!(
                    run_closed_loop(&[BiddingStrategy::OnDemand], &bad, 1),
                    Err(EngineError::InvalidConfig { .. })
                ),
                "{warmup_slots} + {horizon_slots} slots"
            );
        }
    }

    /// One tenant's legs (markets in plan order) under a random wake
    /// schedule: at each wake slot a random subset of legs ran, and a
    /// random subset of those keeps running until the next wake.
    struct Streaks {
        legs: Vec<usize>,
        /// `(slot, ran, keeps_running)`, ascending by slot; the sets are
        /// indices into `legs`, ascending.
        wakes: Vec<(u64, Vec<usize>, Vec<usize>)>,
    }

    fn random_streaks(rng: &mut Rng, markets: usize, slots: u64, split: bool) -> Streaks {
        let legs: Vec<usize> = if split {
            (0..markets).collect()
        } else {
            vec![(rng.range_f64(0.0, markets as f64) as usize).min(markets - 1)]
        };
        let subset = |rng: &mut Rng, from: &[usize]| -> Vec<usize> {
            from.iter().copied().filter(|_| rng.chance(0.6)).collect()
        };
        let all: Vec<usize> = (0..legs.len()).collect();
        let mut wakes = Vec::new();
        let p = rng.range_f64(0.02, 0.3);
        for slot in 0..slots {
            // Slot 0 wakes often, so streaks start at the session start.
            if (slot == 0 && rng.chance(0.7)) || rng.chance(p) {
                let ran = subset(rng, &all);
                let keeps = subset(rng, &ran);
                wakes.push((slot, ran, keeps));
            }
        }
        Streaks { legs, wakes }
    }

    #[test]
    fn lazy_settlement_matches_eager_accrual_bit_for_bit() {
        // Eager accrual charges every running leg every slot, in plan
        // order; lazy settlement charges a tenant's carried slots from
        // the table only at its next wake (or at the session end), slot
        // by slot over the legs still running. Per tenant the two must add
        // the same floats in the same order.
        let slot_len = Hours::from_minutes(5.0);
        let mut rng = Rng::seed_from_u64(0x1A2_5E77);
        let (mut from_zero, mut open_at_end, mut carried) = (0, 0, 0u64);
        for round in 0..24 {
            let markets = 1 + round % 3;
            let slots = 1 + rng.range_f64(0.0, 150.0) as u64;
            let mut charges = ChargeTable::new(markets);
            for _ in 0..slots {
                for _ in 0..markets {
                    // Prices with long mantissas, so the order of the
                    // additions shows in the sums.
                    charges.push(Price::new(rng.range_f64(0.0, 0.4) / 3.0) * slot_len);
                }
            }
            assert_eq!(charges.slots(), slots);
            let n = 150;
            let mut eager = CostTotals::new(n);
            let mut lazy = CostTotals::new(n);
            for t in 0..n as u32 {
                let st = random_streaks(&mut rng, markets, slots, t % 2 == 1);
                let markets_of =
                    |set: &[usize]| set.iter().map(|&k| st.legs[k]).collect::<Vec<_>>();

                // Eager: walk every slot.
                let mut running: Vec<usize> = Vec::new();
                let mut next = 0;
                for slot in 0..slots {
                    let ran = match st.wakes.get(next) {
                        Some((w, ran, keeps)) if *w == slot => {
                            next += 1;
                            let ran = markets_of(ran);
                            running = markets_of(keeps);
                            ran
                        }
                        _ => running.clone(),
                    };
                    for m in ran {
                        eager.totals_mut()[t as usize] += charges.at(slot, m);
                    }
                }

                // Lazy: settle the carried slots at each wake, then charge
                // the wake slot itself; the session end settles the rest.
                let (mut since, mut running) = (0, Vec::new());
                for (w, ran, keeps) in &st.wakes {
                    let total = &mut lazy.totals_mut()[t as usize];
                    *total = charges.settle(*total, since, *w, running.iter().copied());
                    carried += (*w - since) * running.len() as u64;
                    for m in markets_of(ran) {
                        lazy.totals_mut()[t as usize] += charges.at(*w, m);
                    }
                    if *w == 0 && !ran.is_empty() {
                        from_zero += 1;
                    }
                    since = w + 1;
                    running = markets_of(keeps);
                }
                if !running.is_empty() && since < slots {
                    open_at_end += 1;
                }
                let total = &mut lazy.totals_mut()[t as usize];
                *total = charges.settle(*total, since, slots, running.iter().copied());
            }
            let (e, l) = (eager.into_totals(), lazy.into_totals());
            for (t, (e, l)) in e.iter().zip(&l).enumerate() {
                assert_eq!(
                    e.as_f64().to_bits(),
                    l.as_f64().to_bits(),
                    "round {round}, tenant {t}: eager {e:?} vs lazy {l:?}"
                );
            }
        }
        assert!(
            from_zero > 0 && open_at_end > 0 && carried > 0,
            "vacuous schedules: {from_zero} streaks from slot 0, \
             {open_at_end} open at the end, {carried} carried leg-slots"
        );
    }

    #[test]
    fn wakeup_matches_dense_on_a_small_session() {
        // The in-crate smoke version of tests/wakeup_equiv.rs: identical
        // reports, events, and skip accounting on one mixed session.
        let strategies = [
            BiddingStrategy::OptimalPersistent,
            BiddingStrategy::Percentile(0.95),
            BiddingStrategy::FixedBid(Price::new(0.30)),
            BiddingStrategy::OptimalOneTime,
            BiddingStrategy::OnDemand,
        ];
        let cfg = config();
        let (wr, we, stats) = run_closed_loop_logged(&strategies, &cfg, 0xBEEF, None).unwrap();
        let (dr, de) = dense::run_closed_loop_logged(&strategies, &cfg, 0xBEEF, None).unwrap();
        assert_eq!(wr, dr);
        assert_eq!(we, de);
        assert!(
            stats.skipped_slots > 0,
            "a 400-slot tail should have quiet slots"
        );
    }

    #[test]
    fn faulted_wakeup_matches_faulted_dense() {
        let strategies = [
            BiddingStrategy::FixedBid(Price::new(0.30)),
            BiddingStrategy::OptimalPersistent,
        ];
        let cfg = config();
        let total = cfg.warmup_slots + cfg.horizon_slots;
        let mut faults = LoopFaults {
            gap: vec![false; total],
            reclaim: vec![false; total],
        };
        for s in (0..total).step_by(17) {
            faults.gap[s] = true;
        }
        // Jobs need 12 slots; an outage every 4th slot interrupts every
        // tenant mid-run repeatedly.
        for s in ((cfg.warmup_slots + 3)..total).step_by(4) {
            faults.reclaim[s] = true;
        }
        let (wr, we, _) = run_closed_loop_logged(&strategies, &cfg, 0xFA17, Some(&faults)).unwrap();
        let (dr, de) =
            dense::run_closed_loop_logged(&strategies, &cfg, 0xFA17, Some(&faults)).unwrap();
        assert_eq!(wr, dr);
        assert_eq!(we, de);
        // Reclamations actually bit: somebody was interrupted.
        assert!(wr.tenants.iter().any(|t| t.interruptions > 0), "{wr:?}");
    }
}
