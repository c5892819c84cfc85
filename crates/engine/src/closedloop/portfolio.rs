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
//! Two fleets run under this module's session shell (source, validation,
//! the §5.1 fallback and the outcome rows; DESIGN.md §5j):
//!
//! - `wakeup` (private; behind [`run_portfolio_loop`]) — the engine's one
//!   event-driven fleet: a tenant is touched only on its fresh plan or
//!   when a member market's slot report names one of its legs, running
//!   legs are settled lazily, and slots where nothing fires and nothing
//!   runs are skipped. Bit-identical to [`dense`]
//!   (`tests/portfolio_wakeup_equiv.rs`).
//! - [`dense`] — the original fleet, every tenant re-evaluated every
//!   slot. Frozen as the equivalence oracle of both closed loops.
//!
//! The single-market loop is this loop at `M = 1`:
//! [`super::run_closed_loop`] runs the wakeup fleet, and
//! [`super::dense`] the dense one, under the same shell with one market
//! and every tenant a [`PortfolioStrategy::ZoneFallback`] at home there.
//! Both add two things crate-privately (`SingleMarket`): a finite
//! market's on-demand churn, drawn from stream `2 + ⌈N/64⌉` after the
//! slot's reclamation and before its background arrivals, and its rule
//! that an on-demand decision buys all the remaining work.
//!
//! ## RNG stream layout
//!
//! Everything is deterministic from one `u64` seed via [`RngStreams`]:
//!
//! - stream `2m` — market `m`'s departure draws,
//! - stream `2m+1` — market `m`'s idiosyncratic background arrivals
//!   (count and bid prices),
//! - stream `2M` — the shared arrival shock,
//! - streams `2M+1 …` — never drawn from, but for the single-market
//!   loop's on-demand churn at stream `2 + ⌈N/64⌉`.
//!
//! At `M = 1` with a zero shared rate this collapses to the single-market
//! layout — stream 0 market, stream 1 background, shared stream untouched
//! (a zero-mean Poisson draws nothing). The root
//! `tests/closed_loop_wall.rs` holds that layout to a bare `SpotMarket`
//! driven by hand, and the one-market parity tests of `tests/portfolio.rs`
//! and `tests/closed_loop_wall.rs` hold the one-market conversion to a
//! configuration built by hand.
//!
//! ## Determinism contract
//!
//! As in the single-market loop (§5e/§5f): plan resolution is pure (the
//! dense fleet plans tenant by tenant, the wakeup fleet once per distinct
//! strategy), while bid submission (which assigns per-market
//! [`spotbid_market::sim::BidId`]s), event emission, and report
//! processing stay serial in ascending tenant order, with each tenant's
//! legs processed in plan order. The whole session runs on one thread and
//! is bit-identical at any `SPOTBID_THREADS`.

pub mod dense;
pub(super) mod wakeup;

pub use wakeup::PortfolioFleetStats;

use super::LoopFaults;
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{self, JobDriver};
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
pub(super) struct PortfolioSource {
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
    /// The single-market loop's on-demand churn in its one market, under
    /// finite supply, and the churn's substream.
    churn: Option<(SingleMarket, Rng)>,
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
        single: Option<&SingleMarket>,
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
        // the shared shock.
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
        // The single-market loop's churn draws from its own substream, and
        // only under finite supply, so the unbounded layout is untouched.
        let churn = single
            .filter(|_| matches!(cfg.markets[0].supply, Supply::Finite { .. }))
            .map(|s| (*s, streams.stream(s.od_stream)));
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
            churn,
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
        if let Some((churn, rng)) = &mut self.churn {
            // On-demand churn: each active instance departs with
            // probability `od_departure`, then `Poisson(od_arrivals)` new
            // requests contend for the pool; admissions shrink the spot
            // share and may force the market to reclaim spot instances.
            let market = self.set.market_mut(0);
            let departed = (0..market.od_active())
                .filter(|_| rng.chance(churn.od_departure))
                .count();
            market.release_on_demand(departed as u32);
            let requested = rng.poisson(churn.od_arrivals).min(u64::from(u32::MAX)) as u32;
            if requested > 0 {
                market.request_on_demand(requested);
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

    fn post(&mut self, _slot: u64) -> Option<Vec<SlotReport>> {
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

/// What turns a one-market session into the single-market loop behind
/// [`super::run_closed_loop`]. Crate-private: no portfolio caller sets it.
#[derive(Debug, Clone, Copy)]
pub(super) struct SingleMarket {
    /// Mean on-demand requests per slot (`Poisson`), under finite supply.
    pub(super) od_arrivals: f64,
    /// Per-slot departure probability of each active on-demand instance.
    pub(super) od_departure: f64,
    /// The churn's substream: `2 + ⌈N/64⌉` (`TENANTS_PER_STREAM`).
    pub(super) od_stream: u64,
}

/// The one validator of both closed loops.
fn validate(
    tenants: usize,
    cfg: &PortfolioLoopConfig,
    faults: Option<&[LoopFaults]>,
    single: Option<&SingleMarket>,
) -> Result<(), EngineError> {
    let invalid = |what: String| Err(EngineError::InvalidConfig { what });
    if tenants == 0 {
        return invalid("no tenants".into());
    }
    if cfg.markets.is_empty() {
        return invalid("no markets".into());
    }
    if cfg.warmup_slots == 0 || cfg.horizon_slots == 0 {
        return invalid("warmup_slots and horizon_slots must be ≥ 1".into());
    }
    // The fleet keeps a tenant's slot counters in u32: the slot a running
    // streak began is below the session's slot count, and its spot slots
    // are at most the job's slots (checked below).
    let total = cfg.warmup_slots.checked_add(cfg.horizon_slots);
    if total.is_none_or(|slots| u32::try_from(slots).is_err()) {
        return invalid(format!(
            "warmup_slots {} + horizon_slots {} must fit the fleet's u32 slot counters",
            cfg.warmup_slots, cfg.horizon_slots
        ));
    }
    let bad = |r: f64| !r.is_finite() || r < 0.0;
    if bad(cfg.shared_arrivals) || cfg.markets.iter().any(|m| bad(m.idio_arrivals)) {
        return invalid("arrival rates must be finite and ≥ 0".into());
    }
    // Every background arrival takes a market bid id, and the ids are u32.
    let slots = (cfg.warmup_slots + cfg.horizon_slots) as f64;
    for (i, m) in cfg.markets.iter().enumerate() {
        let expected = (cfg.shared_arrivals + m.idio_arrivals) * slots;
        if expected > f64::from(u32::MAX) {
            return invalid(format!(
                "market {i} expects {expected:e} background bids, more than its u32 bid ids hold"
            ));
        }
    }
    if let Some(s) = single {
        if bad(s.od_arrivals) {
            return invalid(format!(
                "od_arrivals {} must be finite and ≥ 0",
                s.od_arrivals
            ));
        }
        if !(0.0..=1.0).contains(&s.od_departure) {
            return invalid(format!("od_departure {} must be in [0, 1]", s.od_departure));
        }
    }
    for m in &cfg.markets {
        if let Supply::Finite { capacity: 0, .. } = m.supply {
            return invalid(format!("finite supply of {:?} needs capacity ≥ 1", m.name));
        }
    }
    cfg.job.validate().map_err(EngineError::Core)?;
    if cfg.job.slot != cfg.slot_len {
        return invalid("job slot length must equal the market slot length".into());
    }
    if u32::try_from(cfg.job.slots_needed()).is_err() {
        return invalid(
            "a job's slots must fit the market's u32 work model and spot slot counts".into(),
        );
    }
    if let Some(f) = faults {
        if f.len() != cfg.markets.len() {
            return invalid(format!(
                "fault plans ({}) must match markets ({})",
                f.len(),
                cfg.markets.len()
            ));
        }
    }
    Ok(())
}

/// One tenant's session-final state, extracted from a fleet for the
/// report assembly — everything the §5.1 fallback and the outcome rows
/// need, independent of the fleet's internal layout.
pub(super) struct TenantFinal<'a> {
    pub(super) tag: u32,
    pub(super) strategy: &'a PortfolioStrategy,
    pub(super) completed: bool,
    pub(super) spot_slots: u64,
    pub(super) interruptions: u32,
    pub(super) resubmissions: u32,
    /// Execution work an incomplete tenant left uncovered at the horizon
    /// close (its §5.1 on-demand fallback charge); zero for a complete
    /// one.
    pub(super) remaining: Hours,
}

/// What the session shell needs from a fleet besides driving it.
pub(super) trait SessionFleet: JobDriver<PortfolioSource> {
    /// The fleet's own per-tenant cost totals, or `None` when it bills
    /// through its `Charged` events alone (the shell then folds those).
    fn costs(&mut self) -> Option<&mut CostTotals>;

    /// Settles anything still accruing through the last slot into the
    /// fleet's own cost totals (nothing, for a fleet billed through its
    /// events).
    fn close(&mut self) {}

    /// Tenant `tag`'s state at the session end.
    fn tenant_final(&self, tag: u32) -> TenantFinal<'_>;
}

/// A session run to its end: the fleet, every tenant's cost total, and
/// what the report needs of the markets — their posted prices and
/// provider telemetry. The markets themselves, with every bid column, are
/// dropped before the report rows are built.
pub(super) struct Session<F> {
    tenants: u32,
    costs: CostTotals,
    pub(super) fleet: F,
    /// Per market, every posted price in slot order.
    posted: Vec<Vec<Price>>,
    /// Per market, the provider telemetry (`None` under unbounded supply).
    provider: Vec<Option<ProviderReport>>,
}

/// The session shell every fleet runs under: validation, source
/// construction and warmup, the kernel loop and the final settlement, in
/// a fixed order so every float accumulates identically whichever fleet
/// ran.
fn run_session<F: SessionFleet>(
    tenants: usize,
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    single: Option<&SingleMarket>,
    log: Option<&mut EventLog>,
    make_fleet: impl FnOnce() -> F,
) -> Result<Session<F>, EngineError> {
    validate(tenants, cfg, faults, single)?;

    let streams = RngStreams::new(seed);
    let mut source = PortfolioSource::new(cfg, &streams, faults, single)?;
    source.warmup(cfg.warmup_slots);

    let mut fleet = make_fleet();
    // A fleet without its own totals is billed by folding its events.
    let mut event_costs = fleet.costs().is_none().then(|| CostTotals::new(tenants));
    let horizon = Some(cfg.horizon_slots as u64);
    let mut observers: Vec<&mut dyn Observer> = Vec::with_capacity(2);
    if let Some(folded) = event_costs.as_mut() {
        observers.push(folded);
    }
    if let Some(l) = log {
        observers.push(l);
    }
    kernel::run(&mut source, &mut fleet, &mut observers, horizon)?;
    // Only the prices and the provider telemetry outlive the loop: the
    // markets and their bid books are dropped here.
    let set = &source.set;
    let provider = (0..set.len()).map(|m| set.provider_report(m)).collect();
    let posted = std::mem::take(&mut source.posted);
    drop(source);
    fleet.close();
    let costs = match (event_costs, fleet.costs()) {
        (Some(folded), _) => folded,
        (None, own) => std::mem::replace(own.expect("billed by itself"), CostTotals::new(0)),
    };
    Ok(Session {
        tenants: tenants as u32,
        fleet,
        posted,
        provider,
        costs,
    })
}

impl<F: SessionFleet> Session<F> {
    /// One pass in tag order: the §5.1 fallback (an incomplete tenant
    /// finishes its remaining work on demand at the horizon close; the
    /// float accumulation order is part of the parity contract with the
    /// dense oracle), then the row `row` builds from the tenant's final
    /// state, cost and savings. Returns the rows, the count of tenants
    /// that completed and their mean savings.
    pub(super) fn outcomes<R>(
        &mut self,
        cfg: &PortfolioLoopConfig,
        row: impl Fn(TenantFinal<'_>, Cost, f64) -> R,
    ) -> Result<(Vec<R>, usize, f64), EngineError> {
        let od_cost = (cfg.on_demand * cfg.job.execution).as_f64();
        let mut rows = Vec::with_capacity(self.tenants as usize);
        // `Iterator::sum` over the rows' savings, in row order, from the
        // same neutral element.
        let (mut completed, mut savings_sum) = (0, -0.0);
        for tag in 0..self.tenants {
            let t = self.fleet.tenant_final(tag);
            if !t.completed && t.remaining > Hours::ZERO {
                self.costs.try_charge(&LineItem {
                    slot: (cfg.warmup_slots + cfg.horizon_slots) as u64,
                    price: cfg.on_demand,
                    duration: t.remaining,
                    kind: UsageKind::OnDemand,
                    tag: t.tag,
                })?;
            }
            let cost = self.costs.total(t.tag);
            let savings = 1.0 - cost.as_f64() / od_cost;
            completed += usize::from(t.completed);
            savings_sum += savings;
            rows.push(row(t, cost, savings));
        }
        let mean_savings = savings_sum / rows.len() as f64;
        Ok((rows, completed, mean_savings))
    }
}

impl<F> Session<F> {
    /// Market `m`'s mean and peak posted price over the tenant-visible
    /// horizon, and the horizon's length in slots.
    pub(super) fn prices(&self, m: usize, warmup_slots: usize) -> (Price, Price, u64) {
        let visible = &self.posted[m][warmup_slots..];
        let mean = Price::new(
            visible.iter().map(|p| p.as_f64()).sum::<f64>() / visible.len().max(1) as f64,
        );
        let peak = visible
            .iter()
            .copied()
            .fold(Price::ZERO, |a, b| if b > a { b } else { a });
        (mean, peak, visible.len() as u64)
    }

    /// Market `m`'s provider telemetry (`None` under unbounded supply).
    pub(super) fn provider(&self, m: usize) -> Option<ProviderReport> {
        self.provider[m]
    }
}

/// Assembles a portfolio session's report.
fn portfolio_report<F: SessionFleet>(
    session: &mut Session<F>,
    cfg: &PortfolioLoopConfig,
) -> Result<PortfolioReport, EngineError> {
    let (tenants, completed, mean_savings) =
        session.outcomes(cfg, |t, cost, savings| PortfolioTenantOutcome {
            tenant: t.tag,
            strategy: *t.strategy,
            completed: t.completed,
            spot_slots: t.spot_slots,
            interruptions: t.interruptions,
            resubmissions: t.resubmissions,
            cost,
            savings,
        })?;
    let m = cfg.markets.len();
    let (mut mean_price, mut peak_price) = (Vec::with_capacity(m), Vec::with_capacity(m));
    let mut slots = 0;
    for k in 0..m {
        let (mean, peak, visible) = session.prices(k, cfg.warmup_slots);
        mean_price.push(mean);
        peak_price.push(peak);
        slots = visible;
    }
    Ok(PortfolioReport {
        tenants,
        completed,
        mean_savings,
        mean_price,
        peak_price,
        slots,
        provider: (0..m).map(|k| session.provider(k)).collect(),
    })
}

/// Runs one portfolio closed-loop session: warms M correlated markets up
/// with background load, then lets one tenant per strategy plan and bid
/// across them for `horizon_slots`. Deterministic from `seed` at any
/// thread count. [`super::run_closed_loop`] is this loop at M = 1 with
/// every tenant on [`PortfolioStrategy::ZoneFallback`].
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
/// warmup or horizon, more warmup plus horizon slots than `u32` holds,
/// non-finite arrival rates or more expected background
/// bids in a market than its `u32` bid ids hold, a finite market of
/// capacity 0, or a fault-plan/market count mismatch;
/// [`EngineError::Core`] if a strategy fails to resolve.
pub fn run_portfolio_loop(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
) -> Result<PortfolioReport, EngineError> {
    run(strategies, cfg, seed, None, None).map(|(report, _)| report)
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
    run(strategies, cfg, seed, faults, None)
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
    let (report, stats) = run(strategies, cfg, seed, faults, Some(&mut log))?;
    Ok((report, log.into_events(), stats))
}

fn run(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    log: Option<&mut EventLog>,
) -> Result<(PortfolioReport, PortfolioFleetStats), EngineError> {
    let mut session = wakeup::run(strategies.iter().copied(), cfg, seed, faults, None, log)?;
    let report = portfolio_report(&mut session, cfg)?;
    Ok((report, session.fleet.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_core::BiddingStrategy;
    use spotbid_market::ProviderPolicy;

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
        // A finite member market with no servers, as the single-market
        // loop refuses it.
        let mut bad = cfg.clone();
        bad.markets[1].supply = Supply::Finite {
            capacity: 0,
            policy: ProviderPolicy::StaticSplit { reserved: 0 },
        };
        assert!(matches!(
            run_portfolio_loop(&strats, &bad, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
        // Background arrivals whose expected count over the session
        // overflows a member market's u32 bid ids, shared or idiosyncratic.
        let slots = (cfg.warmup_slots + cfg.horizon_slots) as f64;
        let rate = f64::from(u32::MAX) / slots;
        let mut bad = cfg.clone();
        bad.markets[1].idio_arrivals = rate * 1.01;
        assert!(matches!(
            run_portfolio_loop(&strats, &bad, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
        let bad = PortfolioLoopConfig {
            shared_arrivals: rate,
            ..cfg.clone()
        };
        assert!(matches!(
            run_portfolio_loop(&strats, &bad, 1),
            Err(EngineError::InvalidConfig { .. })
        ));
        // Sessions whose slots overflow the fleet's u32 slot counters, or
        // usize itself, with no background arrivals to refuse them first.
        let quiet = |warmup_slots, horizon_slots| {
            let mut bad = PortfolioLoopConfig {
                warmup_slots,
                horizon_slots,
                shared_arrivals: 0.0,
                ..cfg.clone()
            };
            bad.markets.iter_mut().for_each(|m| m.idio_arrivals = 0.0);
            run_portfolio_loop(&strats, &bad, 1)
        };
        let max = u32::MAX as usize;
        for (warmup, horizon) in [(1, max), (max, 1), (usize::MAX, 1), (1, usize::MAX)] {
            assert!(
                matches!(
                    quiet(warmup, horizon),
                    Err(EngineError::InvalidConfig { .. })
                ),
                "{warmup} + {horizon} slots"
            );
        }
    }
}
