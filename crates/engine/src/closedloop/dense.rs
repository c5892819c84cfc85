//! The frozen per-slot single-market session: the behavioral oracle for
//! [`super::run_closed_loop`], which runs the one wakeup fleet as a
//! one-market portfolio.
//!
//! This is the original `TenantFleet` implementation, retained verbatim
//! with its own market source, validation and report assembly
//! (analogous to `market::sim::naive`): every slot it scans *every*
//! tenant, re-checks who must (re-)bid, and binary-searches every live
//! bid against the slot report — O(N) per slot regardless of how few
//! tenants actually change state. Simple, obviously correct, and the
//! reference the wakeup fleet must reproduce **bit-identically**: same
//! `BidId`s, same event order, same bills, same RNG stream reservations
//! at any thread count (`tests/wakeup_equiv.rs`, DESIGN.md §5f).
//!
//! All tenants live in one `TenantFleet` kernel driver that decides, bids
//! and processes reports serially in tenant order (one RNG substream
//! reserved per 64-tenant decision shard, never drawn) — so bid ids,
//! event order, and results are identical to the legacy
//! one-driver-per-tenant loop at any thread count.

use super::{ClosedLoopConfig, ClosedLoopReport, LoopFaults, TenantOutcome, TENANTS_PER_STREAM};
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{self, DriverStatus, JobDriver};
use crate::observer::{CostTotals, EventLog, Observer};
use crate::source::PriceSource;
use crate::EngineError;
use spotbid_core::{BidDecision, BiddingStrategy, JobSpec};
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, SpotMarket, Supply, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};
use spotbid_trace::SpotPriceHistory;

/// An endogenous market as a kernel price source: each slot, background
/// bidders arrive, then the market clears, and the posted price is
/// appended to the history tenants observe (unless a feed gap swallows
/// it). The one-market session source of [`super::portfolio`] reproduces
/// it draw for draw.
#[derive(Debug)]
struct ClosedLoopSource {
    market: SpotMarket,
    /// Geometric departures inside `SpotMarket::step`.
    market_rng: Rng,
    /// Background arrival process — a separate substream so tenant demand
    /// never shifts the background draws.
    bg_rng: Rng,
    arrivals: f64,
    slot_len: Hours,
    /// On-demand churn process — its own reserved substream (placed after
    /// the decision shards), present only under finite supply so the
    /// unbounded stream layout is untouched.
    od_rng: Option<Rng>,
    od_arrivals: f64,
    od_departure: f64,
    /// Every price the market posted, in slot order (ground truth).
    posted: Vec<Price>,
    /// The prices that reached the tenants' feed (gap slots omitted).
    observed: Vec<Price>,
    faults: Option<LoopFaults>,
    /// The report the next slot refills: the last one handed back.
    spare: SlotReport,
}

impl ClosedLoopSource {
    fn new(
        cfg: &ClosedLoopConfig,
        streams: &RngStreams,
        faults: Option<&LoopFaults>,
        n_tenants: usize,
    ) -> Self {
        // Streams 0/1 belong to the market and the background process and
        // 2.. to the decision shards; the on-demand process reserves the
        // next index after the shards, so it exists at any tenant count
        // without shifting any pre-existing stream.
        let od_rng = match cfg.supply {
            Supply::Unbounded => None,
            Supply::Finite { .. } => {
                Some(streams.stream(2 + n_tenants.div_ceil(TENANTS_PER_STREAM) as u64))
            }
        };
        ClosedLoopSource {
            market: SpotMarket::with_supply(cfg.params, cfg.slot_len, cfg.supply),
            market_rng: streams.stream(0),
            bg_rng: streams.stream(1),
            arrivals: cfg.background_arrivals,
            slot_len: cfg.slot_len,
            od_rng,
            od_arrivals: cfg.od_arrivals,
            od_departure: cfg.od_departure,
            posted: Vec::new(),
            observed: Vec::new(),
            faults: faults.cloned(),
            spare: SlotReport::empty(),
        }
    }

    fn advance(&mut self) -> SlotReport {
        let slot = self.posted.len();
        let (gap, reclaim) = match &self.faults {
            Some(f) => (f.gap_at(slot), f.reclaim_at(slot)),
            None => (false, false),
        };
        if reclaim {
            self.market.reclaim_next_slot();
        }
        if let Some(od_rng) = self.od_rng.as_mut() {
            // On-demand churn: each active instance departs with
            // probability `od_departure`, then `Poisson(od_arrivals)` new
            // requests contend for the pool — admissions shrink the spot
            // share the market clears this slot, and may force it to
            // reclaim running spot instances.
            let mut departed = 0u32;
            for _ in 0..self.market.od_active() {
                if od_rng.chance(self.od_departure) {
                    departed += 1;
                }
            }
            self.market.release_on_demand(departed);
            let requested = od_rng.poisson(self.od_arrivals).min(u64::from(u32::MAX)) as u32;
            if requested > 0 {
                self.market.request_on_demand(requested);
            }
        }
        let n = self.bg_rng.poisson(self.arrivals);
        let (lo, hi) = (
            self.market.params().pi_min.as_f64(),
            self.market.params().pi_bar.as_f64(),
        );
        for _ in 0..n {
            let price = Price::new(self.bg_rng.range_f64(lo, hi));
            self.market.submit(BidRequest {
                price,
                kind: BidKind::OneTime,
                work: WorkModel::Geometric,
            });
        }
        let mut report = std::mem::replace(&mut self.spare, SlotReport::empty());
        self.market.step_into(&mut self.market_rng, &mut report);
        self.posted.push(report.price);
        if !gap {
            self.observed.push(report.price);
        }
        report
    }

    fn warmup(&mut self, slots: usize) {
        for _ in 0..slots {
            self.spare = self.advance();
        }
    }

    /// The history a tenant may observe (every price that reached the
    /// feed so far).
    fn observed(&self) -> Result<SpotPriceHistory, EngineError> {
        SpotPriceHistory::new(self.slot_len, self.observed.clone()).map_err(|e| {
            EngineError::InvalidConfig {
                what: format!("observed history: {e}"),
            }
        })
    }
}

impl PriceSource for ClosedLoopSource {
    type Quote = SlotReport;

    fn post(&mut self, _slot: u64) -> Option<SlotReport> {
        Some(self.advance())
    }

    fn quote_events(&self, slot: u64, quote: &SlotReport, emit: &mut dyn FnMut(Event)) {
        emit(Event::PricePosted {
            slot,
            price: quote.price,
        });
    }

    fn reclaim(&mut self, quote: SlotReport) {
        // Keep the spent report for the next slot to refill, so the
        // closed loop steps without per-slot event allocation.
        self.spare = quote;
    }
}

/// Per-tenant final state, as the fleet hands it to the report assembly.
/// Field-for-field what [`TenantOutcome`] needs before costs.
struct TenantFinal {
    tag: u32,
    strategy: BiddingStrategy,
    completed: bool,
    slots_run: u64,
    interruptions: u32,
    resubmissions: u32,
}

fn validate(strategies: &[BiddingStrategy], cfg: &ClosedLoopConfig) -> Result<(), EngineError> {
    if strategies.is_empty() {
        return Err(EngineError::InvalidConfig {
            what: "no tenants".into(),
        });
    }
    if cfg.warmup_slots == 0 || cfg.horizon_slots == 0 {
        return Err(EngineError::InvalidConfig {
            what: "warmup_slots and horizon_slots must be ≥ 1".into(),
        });
    }
    if !cfg.background_arrivals.is_finite() || cfg.background_arrivals < 0.0 {
        return Err(EngineError::InvalidConfig {
            what: format!(
                "background_arrivals {} must be finite and ≥ 0",
                cfg.background_arrivals
            ),
        });
    }
    if !cfg.od_arrivals.is_finite() || cfg.od_arrivals < 0.0 {
        return Err(EngineError::InvalidConfig {
            what: format!("od_arrivals {} must be finite and ≥ 0", cfg.od_arrivals),
        });
    }
    if !(0.0..=1.0).contains(&cfg.od_departure) {
        return Err(EngineError::InvalidConfig {
            what: format!("od_departure {} must be in [0, 1]", cfg.od_departure),
        });
    }
    if let Supply::Finite { capacity, .. } = cfg.supply {
        if capacity == 0 {
            return Err(EngineError::InvalidConfig {
                what: "finite supply needs capacity ≥ 1".into(),
            });
        }
    }
    cfg.job.validate().map_err(EngineError::Core)?;
    if cfg.job.slot != cfg.slot_len {
        return Err(EngineError::InvalidConfig {
            what: "job slot length must equal the market slot length".into(),
        });
    }
    Ok(())
}

/// §5.1 fallback plus aggregation in one pass over the tenants' final
/// states in tag order: an incomplete tenant
/// finishes its remaining work on demand (charged at the horizon close;
/// the float accumulation order is part of the bit-equivalence contract),
/// then its outcome row is built; the price-path summary follows. `costs`
/// holds the session's spot charges per tenant (tags are tenant indices
/// here).
fn assemble_report(
    finals: impl ExactSizeIterator<Item = TenantFinal>,
    mut costs: CostTotals,
    source: &ClosedLoopSource,
    cfg: &ClosedLoopConfig,
) -> Result<ClosedLoopReport, EngineError> {
    let od_cost = (cfg.on_demand * cfg.job.execution).as_f64();
    let mut outcomes = Vec::with_capacity(finals.len());
    for f in finals {
        if !f.completed {
            let work = (cfg.job.execution - cfg.slot_len * f.slots_run as f64).max(Hours::ZERO);
            if work > Hours::ZERO {
                costs.try_charge(&LineItem {
                    slot: (cfg.warmup_slots + cfg.horizon_slots) as u64,
                    price: cfg.on_demand,
                    duration: work,
                    kind: UsageKind::OnDemand,
                    tag: f.tag,
                })?;
            }
        }
        let cost = costs.total(f.tag);
        outcomes.push(TenantOutcome {
            tenant: f.tag,
            strategy: f.strategy,
            completed: f.completed,
            spot_slots: f.slots_run,
            interruptions: f.interruptions,
            resubmissions: f.resubmissions,
            cost,
            savings: 1.0 - cost.as_f64() / od_cost,
        });
    }
    let visible = &source.posted[cfg.warmup_slots..];
    let mean_price =
        Price::new(visible.iter().map(|p| p.as_f64()).sum::<f64>() / visible.len().max(1) as f64);
    let peak_price = visible
        .iter()
        .copied()
        .fold(Price::ZERO, |a, b| if b > a { b } else { a });
    Ok(ClosedLoopReport {
        completed: outcomes.iter().filter(|o| o.completed).count(),
        mean_savings: outcomes.iter().map(|o| o.savings).sum::<f64>() / outcomes.len() as f64,
        tenants: outcomes,
        mean_price,
        peak_price,
        slots: visible.len() as u64,
        provider: source.market.provider_report(),
    })
}

/// One strategy-driven tenant: re-resolves its strategy against the
/// observed history whenever it must (re-)bid, and tracks its bid through
/// the market's per-slot reports.
#[derive(Debug)]
struct TenantBidder {
    strategy: BiddingStrategy,
    job: JobSpec,
    on_demand: Price,
    tag: u32,
    slots_needed: u64,
    slots_run: u64,
    running: bool,
    bid_id: Option<BidId>,
    needs_submit: bool,
    resubmissions: u32,
    max_resubmissions: u32,
    interruptions: u32,
    completed: bool,
    /// Set when the strategy resolved to on-demand: charged in
    /// `before_slot`, reported done at the next `on_slot`.
    done_pending: bool,
}

impl TenantBidder {
    fn new(strategy: BiddingStrategy, cfg: &ClosedLoopConfig, tag: u32) -> Self {
        TenantBidder {
            strategy,
            job: cfg.job,
            on_demand: cfg.on_demand,
            tag,
            slots_needed: cfg.job.slots_needed(),
            slots_run: 0,
            running: false,
            bid_id: None,
            needs_submit: true,
            resubmissions: 0,
            max_resubmissions: cfg.max_resubmissions,
            interruptions: 0,
            completed: false,
            done_pending: false,
        }
    }

    /// Execution work still undone, given the slots run so far.
    fn remaining_work(&self, slot_len: Hours) -> Hours {
        (self.job.execution - slot_len * self.slots_run as f64).max(Hours::ZERO)
    }
}

impl TenantBidder {
    /// Acts on a resolved strategy decision: charges the on-demand path or
    /// submits the spot bid. Serial per tenant — this is where bid ids are
    /// assigned, so call order must be tenant order.
    fn apply_decision(
        &mut self,
        decision: BidDecision,
        slot: u64,
        source: &mut ClosedLoopSource,
        emit: &mut dyn FnMut(Event),
    ) {
        match decision {
            BidDecision::OnDemand { price } => {
                let work = self.remaining_work(source.slot_len);
                if work > Hours::ZERO {
                    emit(Event::Charged {
                        item: LineItem {
                            slot,
                            price,
                            duration: work,
                            kind: UsageKind::OnDemand,
                            tag: self.tag,
                        },
                    });
                }
                self.completed = true;
                self.done_pending = true;
                emit(Event::Completed {
                    slot,
                    tenant: self.tag,
                });
            }
            BidDecision::Spot { price, persistent } => {
                let remaining = (self.slots_needed - self.slots_run).max(1) as u32;
                let id = source.market.submit(BidRequest {
                    price,
                    kind: if persistent {
                        BidKind::Persistent
                    } else {
                        BidKind::OneTime
                    },
                    work: WorkModel::FixedSlots(remaining),
                });
                self.bid_id = Some(id);
                emit(Event::BidSubmitted {
                    slot,
                    tenant: self.tag,
                    price,
                    persistent,
                });
            }
        }
    }

    /// Advances the tenant one slot against the market's report. Event
    /// vectors are id-sorted (the market's determinism contract), so each
    /// membership test is a binary search, not a scan.
    fn slot_update(
        &mut self,
        slot: u64,
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
    ) -> DriverStatus {
        if self.done_pending {
            return DriverStatus::Done;
        }
        let Some(id) = self.bid_id else {
            return DriverStatus::Active;
        };
        let started = report.started.binary_search(&id).is_ok();
        let interrupted = report.interrupted.binary_search(&id).is_ok();
        let finished = report.finished.binary_search(&id).is_ok();
        let terminated = report.terminated.binary_search(&id).is_ok();
        let ran = started || (self.running && !interrupted && !terminated);
        if started {
            self.running = true;
            emit(Event::BidAccepted {
                slot,
                tenant: self.tag,
            });
        }
        if interrupted {
            self.interruptions += 1;
            emit(Event::Interrupted {
                slot,
                tenant: self.tag,
            });
        }
        if ran {
            // The provider charges running bids the posted price per slot
            // (§3.2); mirror the market's internal `charged` accrual in
            // this tenant's own ledger.
            self.slots_run += 1;
            emit(Event::Charged {
                item: LineItem {
                    slot,
                    price: report.price,
                    duration: self.job.slot,
                    kind: UsageKind::Spot,
                    tag: self.tag,
                },
            });
        }
        if interrupted || terminated || finished {
            self.running = false;
        }
        if finished {
            self.completed = true;
            emit(Event::Completed {
                slot,
                tenant: self.tag,
            });
            return DriverStatus::Done;
        }
        if terminated {
            emit(Event::Rejected {
                slot,
                tenant: self.tag,
            });
            self.bid_id = None;
            if self.resubmissions < self.max_resubmissions {
                self.resubmissions += 1;
                self.needs_submit = true;
            } else {
                return DriverStatus::Done;
            }
        }
        DriverStatus::Active
    }
}

/// Every tenant as one kernel driver. Each slot the tenants that must
/// (re-)bid decide and submit in ascending tenant order, so bid ids
/// ([`BidId`]), events and reports are bit-identical to the legacy
/// one-driver-per-tenant loop, and a session is the same at any
/// `SPOTBID_THREADS`.
struct TenantFleet {
    tenants: Vec<TenantBidder>,
    done: Vec<bool>,
    /// Scratch: indices of tenants that must (re-)bid this slot.
    needy: Vec<u32>,
}

impl TenantFleet {
    fn new(tenants: Vec<TenantBidder>) -> Self {
        let done = vec![false; tenants.len()];
        TenantFleet {
            tenants,
            done,
            needy: Vec::new(),
        }
    }
}

impl JobDriver<ClosedLoopSource> for TenantFleet {
    fn before_slot(
        &mut self,
        slot: u64,
        source: &mut ClosedLoopSource,
        emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        self.needy.clear();
        for (i, t) in self.tenants.iter_mut().enumerate() {
            if !self.done[i] && t.needs_submit && !t.done_pending {
                t.needs_submit = false;
                self.needy.push(i as u32);
            }
        }
        if self.needy.is_empty() {
            return Ok(());
        }
        // One history snapshot for the whole slot: `posted` only grows in
        // `post`, so every tenant would observe the same prices anyway.
        let history = source.observed()?;
        // Each tenant decides, then applies, in turn: bid ids and events
        // come out in tenant order, and a failed decision ends the pass
        // after every earlier tenant's is applied.
        for k in 0..self.needy.len() {
            let i = self.needy[k] as usize;
            let t = &mut self.tenants[i];
            let decision = t
                .strategy
                .decide(&history, &t.job, t.on_demand)
                .map_err(EngineError::Core)?;
            t.apply_decision(decision, slot, source, emit);
        }
        Ok(())
    }

    fn on_slot(
        &mut self,
        slot: u64,
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        let mut all_done = true;
        for i in 0..self.tenants.len() {
            if self.done[i] {
                continue;
            }
            if self.tenants[i].slot_update(slot, report, emit) == DriverStatus::Done {
                self.done[i] = true;
            } else {
                all_done = false;
            }
        }
        if all_done {
            Ok(DriverStatus::Done)
        } else {
            Ok(DriverStatus::Active)
        }
    }
}

fn run_dense(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
    log: Option<&mut EventLog>,
) -> Result<ClosedLoopReport, EngineError> {
    validate(strategies, cfg)?;

    let streams = RngStreams::new(seed);
    let mut source = ClosedLoopSource::new(cfg, &streams, faults, strategies.len());
    source.warmup(cfg.warmup_slots);

    let tenants: Vec<TenantBidder> = strategies
        .iter()
        .enumerate()
        .map(|(i, s)| TenantBidder::new(*s, cfg, i as u32))
        .collect();
    let mut fleet = TenantFleet::new(tenants);
    let mut costs = CostTotals::new(strategies.len());
    let horizon = Some(cfg.horizon_slots as u64);
    match log {
        Some(l) => kernel::run(
            &mut source,
            &mut fleet,
            &mut [&mut costs as &mut dyn Observer, l],
            horizon,
        )?,
        None => kernel::run(&mut source, &mut fleet, &mut [&mut costs], horizon)?,
    }

    let finals = fleet.tenants.iter().map(|t| TenantFinal {
        tag: t.tag,
        strategy: t.strategy,
        completed: t.completed,
        slots_run: t.slots_run,
        interruptions: t.interruptions,
        resubmissions: t.resubmissions,
    });
    assemble_report(finals, costs, &source, cfg)
}

/// Runs one closed-loop session on the frozen per-slot fleet. Same
/// contract as [`super::run_closed_loop`] — and, by the §5f equivalence
/// wall, the same bits out.
///
/// # Errors
///
/// As [`super::run_closed_loop`].
pub fn run_closed_loop(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
) -> Result<ClosedLoopReport, EngineError> {
    run_dense(strategies, cfg, seed, None, None)
}

/// As [`run_closed_loop`], optionally fault-injected, also returning the
/// full event stream — the oracle side of the equivalence suite.
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
    let report = run_dense(strategies, cfg, seed, faults, Some(&mut log))?;
    Ok((report, log.into_events()))
}
