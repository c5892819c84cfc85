//! The portfolio closed loop: N tenants holding positions in M correlated
//! markets at once (DESIGN.md §5h).
//!
//! This is the multi-market sibling of the single-market closed loop: a
//! [`MarketSet`] of M spot markets (instance types × zones) advances in
//! lockstep under one kernel, background demand arrives through the
//! common-shock [`CorrelatedArrivals`] process, and tenants resolve
//! [`PortfolioStrategy`] plans — job splits, cross-zone fallback,
//! spot/on-demand contracts — against the per-market observed histories.
//!
//! Two fleet implementations share this module's source, validation, and
//! report assembly (DESIGN.md §5j):
//!
//! - [`dense`] — the original fleet, every tenant re-evaluated every
//!   slot. Frozen as the equivalence oracle, exactly like
//!   [`crate::closedloop::dense`].
//! - `wakeup` (private; behind [`run_portfolio_loop`]) — the event-driven
//!   default: a tenant is touched only on its fresh plan or when a member
//!   market's slot report names one of its legs, running legs are
//!   settled lazily, and slots where nothing fires and nothing runs are
//!   skipped. Bit-identical to [`dense`]
//!   (`tests/portfolio_wakeup_equiv.rs`).
//!
//! ## RNG stream layout
//!
//! Everything is deterministic from one `u64` seed via [`RngStreams`]:
//!
//! - stream `2m` — market `m`'s departure draws,
//! - stream `2m+1` — market `m`'s idiosyncratic background arrivals
//!   (count and bid prices),
//! - stream `2M` — the shared arrival shock,
//! - streams `2M+1 …` — reserved one-per-decision-shard (never drawn
//!   from today, exactly like the single-market fleets).
//!
//! At `M = 1` with a zero shared rate this collapses to the historical
//! layout — stream 0 market, stream 1 background, shared stream untouched
//! (a zero-mean Poisson draws nothing) — which is what makes the
//! degenerate-portfolio parity tests in `tests/portfolio.rs` possible:
//! a one-market [`run_portfolio_loop`] with
//! [`PortfolioStrategy::ZoneFallback`] reproduces [`super::run_closed_loop`]
//! outcome-for-outcome and event-for-event.
//!
//! ## Determinism contract
//!
//! As in the single-market fleets (§5e/§5f): plan resolution is pure and
//! fans out over `spotbid-exec` shards, while bid submission (which
//! assigns per-market [`spotbid_market::sim::BidId`]s), event emission,
//! and report processing stay serial in ascending tenant order, with each
//! tenant's legs processed in plan order. The whole session is
//! bit-identical at any `SPOTBID_THREADS`.

pub mod dense;
mod wakeup;

pub use wakeup::PortfolioFleetStats;

use super::LoopFaults;
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{JobDriver, Kernel};
use crate::observer::{CostTotals, EventLog, Observer};
use crate::source::PriceSource;
use crate::EngineError;
use spotbid_core::portfolio::PortfolioStrategy;
use spotbid_core::JobSpec;
use spotbid_market::multi::{CorrelatedArrivals, MarketSet, MarketSpec};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{BidKind, BidRequest, ProviderReport, SlotReport, Supply, WorkModel};
use spotbid_market::units::{Cost, Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};
use spotbid_trace::SpotPriceHistory;

/// One member market of a portfolio session.
#[derive(Debug, Clone)]
pub struct PortfolioMarket {
    /// Display name, e.g. `"m1.small/us-east-1a"`.
    pub name: String,
    /// Pricing parameters (Eq. 3) for this market.
    pub params: MarketParams,
    /// Mean idiosyncratic background arrivals per slot.
    pub idio_arrivals: f64,
    /// Supply model: unbounded Eq. 3 pricing or a finite-capacity
    /// provider with capacity evictions (DESIGN.md §5i). Members may mix.
    pub supply: Supply,
}

/// Configuration of one portfolio closed-loop session.
#[derive(Debug, Clone)]
pub struct PortfolioLoopConfig {
    /// The member markets (M ≥ 1).
    pub markets: Vec<PortfolioMarket>,
    /// Mean shared-shock arrivals per slot, added to every market
    /// (dials cross-market demand correlation; 0 = independent).
    pub shared_arrivals: f64,
    /// Pricing-slot length, shared by every market.
    pub slot_len: Hours,
    /// The on-demand price — every tenant's outside option.
    pub on_demand: Price,
    /// The job each tenant needs to run.
    pub job: JobSpec,
    /// Background-only slots before tenants may bid. Must be ≥ 1.
    pub warmup_slots: usize,
    /// Slots simulated with tenants in the market.
    pub horizon_slots: usize,
    /// Times a tenant whose leg was rejected/terminated may re-plan
    /// before giving up on the lost work.
    pub max_resubmissions: u32,
}

impl PortfolioLoopConfig {
    /// The degenerate one-market portfolio equivalent of a single-market
    /// [`super::ClosedLoopConfig`]: same market, same background process
    /// (all idiosyncratic, zero shared shock), same horizon. Used by the
    /// parity wall to pin the M=1 case to the historical path.
    pub fn single(cfg: &super::ClosedLoopConfig, name: impl Into<String>) -> Self {
        PortfolioLoopConfig {
            markets: vec![PortfolioMarket {
                name: name.into(),
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
}

/// What happened to one portfolio tenant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioTenantOutcome {
    /// The tenant's billing tag (its index in the strategy slice).
    pub tenant: u32,
    /// The strategy it planned with.
    pub strategy: PortfolioStrategy,
    /// Whether its job's work was completed (on spot or on demand).
    pub completed: bool,
    /// Slots it ran on spot instances, summed across markets.
    pub spot_slots: u64,
    /// Interruptions suffered, summed across legs.
    pub interruptions: u32,
    /// Times it re-planned after a rejection/termination.
    pub resubmissions: u32,
    /// Total cost, including the on-demand completion of any work left
    /// unfinished when the horizon closed.
    pub cost: Cost,
    /// Savings vs. running the whole job on demand: `1 − cost/(π̄·T_s)`.
    pub savings: f64,
}

/// Aggregate result of one portfolio session.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioReport {
    /// Per-tenant accounting, in tag order.
    pub tenants: Vec<PortfolioTenantOutcome>,
    /// Tenants whose work completed.
    pub completed: usize,
    /// Mean savings across tenants.
    pub mean_savings: f64,
    /// Per-market mean posted price over the tenant-visible horizon.
    pub mean_price: Vec<Price>,
    /// Per-market peak posted price over the tenant-visible horizon.
    pub peak_price: Vec<Price>,
    /// Slots simulated after warmup.
    pub slots: u64,
    /// Per-market provider telemetry: `Some` for finite-capacity members
    /// (revenue split, utilization, reclaims), `None` for unbounded ones.
    pub provider: Vec<Option<ProviderReport>>,
}

/// M endogenous markets as one kernel price source: each slot the
/// correlated background arrives, every market clears, and each posted
/// price is appended to that market's observed history (unless a
/// per-market feed gap swallows it).
#[derive(Debug)]
struct PortfolioSource {
    set: MarketSet,
    arrivals: CorrelatedArrivals,
    /// Stream `2m`: market `m`'s departure draws.
    market_rngs: Vec<Rng>,
    /// Stream `2m+1`: market `m`'s idiosyncratic arrivals and prices.
    arr_rngs: Vec<Rng>,
    /// Stream `2M`: the shared shock (untouched when its rate is 0).
    shared_rng: Rng,
    slot_len: Hours,
    /// Per-market posted prices, in slot order (ground truth).
    posted: Vec<Vec<Price>>,
    /// Per-market prices that reached the tenants' feed.
    observed: Vec<Vec<Price>>,
    faults: Option<Vec<LoopFaults>>,
    /// Scratch: this slot's arrival counts.
    counts: Vec<u64>,
    /// Recycled report buffers (the quote arena).
    spare: Option<Vec<SlotReport>>,
}

impl PortfolioSource {
    fn new(
        cfg: &PortfolioLoopConfig,
        streams: &RngStreams,
        faults: Option<&[LoopFaults]>,
    ) -> Result<Self, EngineError> {
        let m = cfg.markets.len();
        let specs: Vec<MarketSpec> = cfg
            .markets
            .iter()
            .map(|mk| MarketSpec::with_supply(mk.name.clone(), mk.params, mk.supply))
            .collect();
        let set = MarketSet::new(specs, cfg.slot_len).map_err(|e| EngineError::InvalidConfig {
            what: e.to_string(),
        })?;
        let arrivals = CorrelatedArrivals::new(
            cfg.shared_arrivals,
            cfg.markets.iter().map(|mk| mk.idio_arrivals).collect(),
        )
        .map_err(|e| EngineError::InvalidConfig {
            what: e.to_string(),
        })?;
        // Streams 0..2M interleave (market, arrivals) per market; 2M is
        // the shared shock. Decision shards reserve 2M+1… in the fleet.
        let mut chain = streams.streams(2 * m + 1);
        let shared_rng = chain.pop().expect("2M+1 streams");
        let mut market_rngs = Vec::with_capacity(m);
        let mut arr_rngs = Vec::with_capacity(m);
        for (i, rng) in chain.into_iter().enumerate() {
            if i % 2 == 0 {
                market_rngs.push(rng);
            } else {
                arr_rngs.push(rng);
            }
        }
        Ok(PortfolioSource {
            set,
            arrivals,
            market_rngs,
            arr_rngs,
            shared_rng,
            slot_len: cfg.slot_len,
            posted: vec![Vec::new(); m],
            observed: vec![Vec::new(); m],
            faults: faults.map(<[LoopFaults]>::to_vec),
            counts: Vec::new(),
            spare: None,
        })
    }

    fn advance_into(&mut self, reports: &mut [SlotReport]) {
        let slot = self.posted[0].len();
        if let Some(faults) = &self.faults {
            for (m, f) in faults.iter().enumerate() {
                if f.reclaim_at(slot) {
                    self.set.reclaim_next_slot(m);
                }
            }
        }
        self.arrivals
            .draw_into(&mut self.shared_rng, &mut self.arr_rngs, &mut self.counts);
        for m in 0..self.set.len() {
            let (lo, hi) = (
                self.set.market(m).params().pi_min.as_f64(),
                self.set.market(m).params().pi_bar.as_f64(),
            );
            let rng = &mut self.arr_rngs[m];
            for _ in 0..self.counts[m] {
                let price = Price::new(rng.range_f64(lo, hi));
                self.set.submit(
                    m,
                    BidRequest {
                        price,
                        kind: BidKind::OneTime,
                        work: WorkModel::Geometric,
                    },
                );
            }
        }
        self.set.step_into(&mut self.market_rngs, reports);
        for (m, report) in reports.iter().enumerate() {
            self.posted[m].push(report.price);
            let gap = self.faults.as_ref().is_some_and(|fs| fs[m].gap_at(slot));
            if !gap {
                self.observed[m].push(report.price);
            }
        }
    }

    fn warmup(&mut self, slots: usize) {
        let mut reports = vec![SlotReport::empty(); self.set.len()];
        for _ in 0..slots {
            self.advance_into(&mut reports);
        }
        self.spare = Some(reports);
    }

    /// One observed history per market (every price that reached the feed
    /// so far).
    fn observed(&self) -> Result<Vec<SpotPriceHistory>, EngineError> {
        self.observed
            .iter()
            .map(|prices| {
                SpotPriceHistory::new(self.slot_len, prices.clone()).map_err(|e| {
                    EngineError::InvalidConfig {
                        what: format!("observed history: {e}"),
                    }
                })
            })
            .collect()
    }
}

impl PriceSource for PortfolioSource {
    type Quote = Vec<SlotReport>;

    fn markets(&self) -> usize {
        self.set.len()
    }

    fn post(&mut self, slot: u64, _demand: usize) -> Option<Vec<SlotReport>> {
        self.post_many(slot, &[])
    }

    fn post_many(&mut self, _slot: u64, _demands: &[usize]) -> Option<Vec<SlotReport>> {
        // Demand moves prices through the bids actually in each book, not
        // through the kernel's aggregate (same as the single-market loop).
        let mut reports = self
            .spare
            .take()
            .unwrap_or_else(|| vec![SlotReport::empty(); self.set.len()]);
        self.advance_into(&mut reports);
        Some(reports)
    }

    fn quote_events(&self, slot: u64, quote: &Vec<SlotReport>, emit: &mut dyn FnMut(Event)) {
        // One PricePosted per market, in market order (market identity is
        // positional, exactly like the quote vector itself).
        for report in quote {
            emit(Event::PricePosted {
                slot,
                price: report.price,
            });
        }
    }

    fn reclaim(&mut self, quote: Vec<SlotReport>) {
        self.spare = Some(quote);
    }
}

fn validate(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    faults: Option<&[LoopFaults]>,
) -> Result<(), EngineError> {
    if strategies.is_empty() {
        return Err(EngineError::InvalidConfig {
            what: "no tenants".into(),
        });
    }
    if cfg.markets.is_empty() {
        return Err(EngineError::InvalidConfig {
            what: "no markets".into(),
        });
    }
    if cfg.warmup_slots == 0 || cfg.horizon_slots == 0 {
        return Err(EngineError::InvalidConfig {
            what: "warmup_slots and horizon_slots must be ≥ 1".into(),
        });
    }
    let bad = |r: f64| !r.is_finite() || r < 0.0;
    if bad(cfg.shared_arrivals) || cfg.markets.iter().any(|m| bad(m.idio_arrivals)) {
        return Err(EngineError::InvalidConfig {
            what: "arrival rates must be finite and ≥ 0".into(),
        });
    }
    cfg.job.validate().map_err(EngineError::Core)?;
    if cfg.job.slot != cfg.slot_len {
        return Err(EngineError::InvalidConfig {
            what: "job slot length must equal the market slot length".into(),
        });
    }
    if let Some(f) = faults {
        if f.len() != cfg.markets.len() {
            return Err(EngineError::InvalidConfig {
                what: format!(
                    "fault plans ({}) must match markets ({})",
                    f.len(),
                    cfg.markets.len()
                ),
            });
        }
    }
    Ok(())
}

/// One tenant's session-final state, extracted from a fleet for the
/// shared report assembly — everything the §5.1 fallback and the outcome
/// rows need, independent of the fleet's internal layout.
struct TenantFinal {
    tag: u32,
    strategy: PortfolioStrategy,
    completed: bool,
    spot_slots: u64,
    interruptions: u32,
    resubmissions: u32,
    /// Execution work still uncovered at the horizon close (the §5.1
    /// on-demand fallback charge for incomplete tenants).
    remaining: Hours,
}

/// What the shared session shell needs from a fleet besides driving it.
trait SessionFleet: JobDriver<PortfolioSource> {
    /// The fleet's own per-tenant cost totals, or `None` when it bills
    /// through its `Charged` events alone (the shell then folds those).
    fn costs(&mut self) -> Option<&mut CostTotals>;

    /// Every tenant's state at the session end, in tag order, with
    /// anything still accruing settled through the last slot.
    fn finals(&mut self, job: &JobSpec) -> Vec<TenantFinal>;
}

/// The shared session shell both fleets run under: validation, source
/// construction and warmup, the kernel loop, the §5.1 fallback, and the
/// report assembly — all in a fixed order so every float accumulates
/// identically whichever fleet ran. Returns the fleet alongside the
/// report so callers can read fleet-specific telemetry.
fn run_session<F: SessionFleet>(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    log: Option<&mut EventLog>,
    make_fleet: impl FnOnce(&RngStreams) -> F,
) -> Result<(PortfolioReport, F), EngineError> {
    validate(strategies, cfg, faults)?;

    let streams = RngStreams::new(seed);
    let mut source = PortfolioSource::new(cfg, &streams, faults)?;
    source.warmup(cfg.warmup_slots);

    let mut fleet = make_fleet(&streams);
    let mut event_costs = CostTotals::new(strategies.len());
    let fold_events = fleet.costs().is_none();
    {
        let mut kernel = Kernel::new(cfg.slot_len, source);
        let horizon = Some(cfg.horizon_slots as u64);
        let mut observers: Vec<&mut dyn Observer> = Vec::with_capacity(2);
        if fold_events {
            observers.push(&mut event_costs);
        }
        if let Some(l) = log {
            observers.push(l);
        }
        kernel.run(&mut [&mut fleet], &mut observers, horizon)?;
        source = kernel.into_source();
    }
    let finals = fleet.finals(&cfg.job);
    let mut costs = match fleet.costs() {
        Some(own) => std::mem::replace(own, CostTotals::new(0)),
        None => event_costs,
    };

    // §5.1 fallback: incomplete tenants finish their remaining work on
    // demand at the horizon close, in tag order (the float accumulation
    // order is part of the parity contract with the single-market loop).
    for t in &finals {
        if !t.completed && t.remaining > Hours::ZERO {
            costs.try_charge(&LineItem {
                slot: (cfg.warmup_slots + cfg.horizon_slots) as u64,
                price: cfg.on_demand,
                duration: t.remaining,
                kind: UsageKind::OnDemand,
                tag: t.tag,
            })?;
        }
    }
    let od_cost = (cfg.on_demand * cfg.job.execution).as_f64();
    let totals = costs.into_totals();
    let outcomes: Vec<PortfolioTenantOutcome> = finals
        .iter()
        .map(|t| {
            let cost = totals[t.tag as usize];
            PortfolioTenantOutcome {
                tenant: t.tag,
                strategy: t.strategy,
                completed: t.completed,
                spot_slots: t.spot_slots,
                interruptions: t.interruptions,
                resubmissions: t.resubmissions,
                cost,
                savings: 1.0 - cost.as_f64() / od_cost,
            }
        })
        .collect();
    let mut mean_price = Vec::with_capacity(cfg.markets.len());
    let mut peak_price = Vec::with_capacity(cfg.markets.len());
    let mut slots = 0;
    for posted in &source.posted {
        let visible = &posted[cfg.warmup_slots..];
        mean_price.push(Price::new(
            visible.iter().map(|p| p.as_f64()).sum::<f64>() / visible.len().max(1) as f64,
        ));
        peak_price.push(
            visible
                .iter()
                .copied()
                .fold(Price::ZERO, |a, b| if b > a { b } else { a }),
        );
        slots = visible.len() as u64;
    }
    let provider = (0..cfg.markets.len())
        .map(|m| source.set.provider_report(m))
        .collect();
    let report = PortfolioReport {
        completed: outcomes.iter().filter(|o| o.completed).count(),
        mean_savings: outcomes.iter().map(|o| o.savings).sum::<f64>() / outcomes.len() as f64,
        tenants: outcomes,
        mean_price,
        peak_price,
        slots,
        provider,
    };
    Ok((report, fleet))
}

/// Runs one portfolio closed-loop session: warms M correlated markets up
/// with background load, then lets one tenant per strategy plan and bid
/// across them for `horizon_slots`. Deterministic from `seed` at any
/// thread count; at M=1 with [`PortfolioStrategy::ZoneFallback`] it
/// reproduces the single-market [`super::run_closed_loop`] bit-for-bit
/// (see `tests/portfolio.rs`).
///
/// Runs the event-driven wakeup fleet; [`dense::run_portfolio_loop`] is
/// the frozen dense oracle it is held bit-identical to.
///
/// Tenants left incomplete at the horizon finish their remaining work on
/// demand (the §5.1 fallback), so every reported cost is for a completed
/// job and savings are comparable across configurations.
///
/// # Errors
///
/// [`EngineError::InvalidConfig`] for empty strategy or market lists, zero
/// warmup or horizon, non-finite arrival rates, or a fault-plan/market
/// count mismatch; [`EngineError::Core`] if a strategy fails to resolve.
pub fn run_portfolio_loop(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
) -> Result<PortfolioReport, EngineError> {
    wakeup::run(strategies, cfg, seed, None, None).map(|(report, _)| report)
}

/// As [`run_portfolio_loop`], optionally fault-injected (one
/// [`LoopFaults`] plan per market), also returning the wakeup fleet's
/// [`PortfolioFleetStats`] (skipped slots, wakeups, per-market report
/// wakeups).
///
/// # Errors
///
/// As [`run_portfolio_loop`].
pub fn run_portfolio_loop_with_stats(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
) -> Result<(PortfolioReport, PortfolioFleetStats), EngineError> {
    wakeup::run(strategies, cfg, seed, faults, None)
}

/// As [`run_portfolio_loop_with_stats`], also returning the full event
/// stream — the parity wall's view of a run.
///
/// # Errors
///
/// As [`run_portfolio_loop`].
pub fn run_portfolio_loop_logged(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
) -> Result<(PortfolioReport, Vec<Event>, PortfolioFleetStats), EngineError> {
    let mut log = EventLog::new();
    let (report, stats) = wakeup::run(strategies, cfg, seed, faults, Some(&mut log))?;
    Ok((report, log.into_events(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_core::BiddingStrategy;

    fn market(name: &str, pi_min: f64, idio: f64) -> PortfolioMarket {
        PortfolioMarket {
            name: name.into(),
            params: MarketParams::new(Price::new(0.35), Price::new(pi_min), 0.05, 0.05).unwrap(),
            idio_arrivals: idio,
            supply: Supply::Unbounded,
        }
    }

    fn config(m: usize) -> PortfolioLoopConfig {
        PortfolioLoopConfig {
            markets: (0..m)
                .map(|i| market(&format!("zone-{i}"), 0.02 + 0.005 * i as f64, 2.0))
                .collect(),
            shared_arrivals: 1.0,
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 60,
            horizon_slots: 300,
            max_resubmissions: 4,
        }
    }

    fn strategies() -> Vec<PortfolioStrategy> {
        vec![
            PortfolioStrategy::ZoneFallback {
                home: 0,
                base: BiddingStrategy::FixedBid(Price::new(0.30)),
            },
            PortfolioStrategy::SplitEven {
                base: BiddingStrategy::FixedBid(Price::new(0.32)),
            },
            PortfolioStrategy::Contract {
                spot_share: 0.5,
                base: BiddingStrategy::OptimalPersistent,
            },
        ]
    }

    #[test]
    fn deterministic_from_seed() {
        let cfg = config(3);
        let strats = strategies();
        let a = run_portfolio_loop(&strats, &cfg, 0xF011).unwrap();
        let b = run_portfolio_loop(&strats, &cfg, 0xF011).unwrap();
        assert_eq!(a, b);
        let c = run_portfolio_loop(&strats, &cfg, 0xF012).unwrap();
        assert_ne!(a.mean_price, c.mean_price);
    }

    #[test]
    fn portfolio_tenants_complete_and_are_accounted() {
        let cfg = config(4);
        let report = run_portfolio_loop(&strategies(), &cfg, 42).unwrap();
        assert_eq!(report.tenants.len(), 3);
        assert_eq!(report.mean_price.len(), 4);
        assert_eq!(report.peak_price.len(), 4);
        for t in &report.tenants {
            assert!(t.cost.as_f64().is_finite() && t.cost.as_f64() > 0.0);
            assert!(t.savings <= 1.0);
        }
        // Quiet markets, near-π̄ bids: everyone should finish.
        assert_eq!(report.completed, 3, "{report:?}");
    }

    #[test]
    fn wakeup_default_matches_dense_oracle_smoke() {
        // The full four-regime wall lives in
        // `tests/portfolio_wakeup_equiv.rs`; this in-tree smoke keeps the
        // contract visible next to the implementation.
        let cfg = config(3);
        let strats = strategies();
        let a = run_portfolio_loop(&strats, &cfg, 0xD0_11AB).unwrap();
        let b = dense::run_portfolio_loop(&strats, &cfg, 0xD0_11AB).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stats_report_skipped_slots_on_quiet_sessions() {
        // The high bidders start immediately and finish fast; the
        // below-floor persistent bid pends forever, pinning the session
        // to the full horizon — whose tail must then skip in O(1).
        let cfg = config(2);
        let mut strats = strategies();
        strats.push(PortfolioStrategy::ZoneFallback {
            home: 0,
            base: BiddingStrategy::FixedBid(Price::new(0.005)),
        });
        let (report, stats) = run_portfolio_loop_with_stats(&strats, &cfg, 0x57A7, None).unwrap();
        assert_eq!(stats.slots, cfg.horizon_slots as u64);
        assert_eq!(stats.swept.len(), 2);
        assert!(
            stats.skipped_slots > 0,
            "quiet session must skip slots: {stats:?} {report:?}"
        );
        assert!(stats.woken > 0);
    }

    #[test]
    fn contract_share_zero_is_pure_on_demand() {
        let cfg = config(2);
        let report = run_portfolio_loop(
            &[PortfolioStrategy::Contract {
                spot_share: 0.0,
                base: BiddingStrategy::FixedBid(Price::new(0.30)),
            }],
            &cfg,
            7,
        )
        .unwrap();
        let t = &report.tenants[0];
        assert!(t.completed);
        assert_eq!(t.spot_slots, 0);
        assert!((t.cost.as_f64() - 0.35).abs() < 1e-12, "od × 1h job");
        assert!(t.savings.abs() < 1e-12);
    }

    #[test]
    fn zone_fallback_rotates_on_reclamation() {
        // Market 0 is reclaimed every other slot after warmup (a reclaim
        // on *every* slot would let pending bids wait the outage out
        // forever — see `SpotMarket::reclaim_next_slot`); a one-time
        // bidder whose home is 0 starts on a normal slot, is reclaimed on
        // the next, and must fall back to market 1.
        let cfg = config(2);
        let total = cfg.warmup_slots + cfg.horizon_slots;
        let mut f0 = LoopFaults {
            gap: vec![false; total],
            reclaim: vec![false; total],
        };
        for s in (cfg.warmup_slots..total).step_by(2) {
            f0.reclaim[s] = true;
        }
        let faults = vec![f0, LoopFaults::default()];
        let (report, events, _) = run_portfolio_loop_logged(
            &[PortfolioStrategy::ZoneFallback {
                home: 0,
                base: BiddingStrategy::OptimalOneTime,
            }],
            &cfg,
            11,
            Some(&faults),
        )
        .unwrap();
        let t = &report.tenants[0];
        assert!(
            t.resubmissions > 0,
            "constant reclamation must force a fallback: {report:?}"
        );
        assert!(
            events.iter().any(|e| matches!(e, Event::Rejected { .. })),
            "the reclaimed one-time leg is rejected"
        );
        // Whatever happened, the job's work is fully accounted for.
        assert!(t.cost.as_f64() > 0.0);
    }

    #[test]
    fn invalid_configs_are_refused() {
        let cfg = config(2);
        let strats = strategies();
        assert!(run_portfolio_loop(&[], &cfg, 1).is_err());
        let bad = PortfolioLoopConfig {
            markets: Vec::new(),
            ..cfg.clone()
        };
        assert!(run_portfolio_loop(&strats, &bad, 1).is_err());
        let bad = PortfolioLoopConfig {
            shared_arrivals: f64::NAN,
            ..cfg.clone()
        };
        assert!(run_portfolio_loop(&strats, &bad, 1).is_err());
        // One fault plan for two markets.
        let r = run_portfolio_loop_logged(&strats, &cfg, 1, Some(&[LoopFaults::default()]));
        assert!(r.is_err());
    }
}
