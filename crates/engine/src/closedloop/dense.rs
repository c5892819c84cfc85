//! The frozen per-slot tenant fleet: the behavioral oracle for the
//! event-driven wakeup fleet.
//!
//! This is the original `TenantFleet` implementation, retained verbatim
//! (analogous to `market::sim::naive`): every slot it scans *every*
//! tenant, re-checks who must (re-)bid, and binary-searches every live
//! bid against the slot report — O(N) per slot regardless of how few
//! tenants actually change state. Simple, obviously correct, and the
//! reference the wakeup fleet must reproduce **bit-identically**: same
//! `BidId`s, same event order, same bills, same RNG stream reservations
//! at any thread count (`tests/wakeup_equiv.rs`, DESIGN.md §5f).
//!
//! Tenant evaluation is **sharded**: all tenants live in one
//! `TenantFleet` kernel driver whose per-slot strategy decisions fan out
//! across `spotbid-exec` workers in fixed 64-tenant shards (order-stable
//! merge, one reserved RNG substream per shard), while bid submission and
//! report processing stay serial in tenant order — so bid ids, event
//! order, and results are identical to the legacy one-driver-per-tenant
//! loop at any thread count.

use super::{
    assemble_report, validate, ClosedLoopConfig, ClosedLoopReport, ClosedLoopSource, LoopFaults,
    TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver, Kernel};
use crate::observer::{CostTotals, EventLog, Observer};
use crate::EngineError;
use spotbid_core::{BidDecision, BiddingStrategy, CoreError, JobSpec};
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};

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

/// Tenants per decision shard. Small enough that a partial last shard
/// doesn't idle workers, large enough that shard overhead amortizes.
pub(super) const SHARD_SIZE: usize = 64;

/// Every tenant as one kernel driver, with sharded decision evaluation.
///
/// Strategy resolution (`BiddingStrategy::decide`) is the per-slot hot
/// spot at large N and is a pure function of the shared price history, so
/// the fleet fans it out across `spotbid-exec` workers in fixed
/// [`SHARD_SIZE`] shards and merges the decisions order-stably. Everything
/// with market-visible side effects — bid submission (which assigns
/// [`BidId`]s), event emission, report processing — stays serial in tenant
/// order, so the fleet is bit-identical to the legacy
/// one-driver-per-tenant loop at any `SPOTBID_THREADS`.
///
/// Each shard owns a reserved [`RngStreams`] substream (`2 + shard`; 0 and
/// 1 belong to the market and the background process). Current strategies
/// draw nothing from it — it exists so a future randomized strategy can
/// draw per-shard without perturbing streams 0/1 or the merge order.
struct TenantFleet {
    tenants: Vec<TenantBidder>,
    done: Vec<bool>,
    shard_rngs: Vec<Rng>,
    /// Scratch: indices of tenants that must (re-)bid this slot.
    needy: Vec<u32>,
}

impl TenantFleet {
    fn new(tenants: Vec<TenantBidder>, streams: &RngStreams) -> Self {
        let max_shards = tenants.len().div_ceil(SHARD_SIZE);
        let mut chain = streams.streams(2 + max_shards);
        let shard_rngs = chain.split_off(2);
        let done = vec![false; tenants.len()];
        TenantFleet {
            tenants,
            done,
            shard_rngs,
            needy: Vec::new(),
        }
    }
}

impl JobDriver<ClosedLoopSource> for TenantFleet {
    fn demand(&self) -> usize {
        self.done.iter().filter(|&&d| !d).count()
    }

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
        let inputs: Vec<(BiddingStrategy, JobSpec, Price)> = self
            .needy
            .iter()
            .map(|&i| {
                let t = &self.tenants[i as usize];
                (t.strategy, t.job, t.on_demand)
            })
            .collect();
        let shards = inputs.len().div_ceil(SHARD_SIZE);
        let shard_rngs = &self.shard_rngs;
        let decisions: Vec<Vec<Result<BidDecision, CoreError>>> =
            spotbid_exec::par_map(shards, |s| {
                let mut _rng = shard_rngs[s].clone(); // reserved, see above
                let lo = s * SHARD_SIZE;
                let hi = (lo + SHARD_SIZE).min(inputs.len());
                inputs[lo..hi]
                    .iter()
                    .map(|(strat, job, od)| strat.decide(&history, job, *od))
                    .collect()
            });
        // Serial, ordered apply: bid ids and events come out exactly as if
        // each tenant had decided in turn.
        let mut flat = decisions.into_iter().flatten();
        for k in 0..self.needy.len() {
            let i = self.needy[k] as usize;
            let decision = flat
                .next()
                .expect("one decision per needy tenant")
                .map_err(EngineError::Core)?;
            self.tenants[i].apply_decision(decision, slot, source, emit);
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
    let mut fleet = TenantFleet::new(tenants, &streams);
    let mut costs = CostTotals::new(strategies.len());
    {
        let mut kernel = Kernel::new(cfg.slot_len, source);
        let horizon = Some(cfg.horizon_slots as u64);
        match log {
            Some(l) => kernel.run(
                &mut [&mut fleet],
                &mut [&mut costs as &mut dyn Observer, l],
                horizon,
            )?,
            None => kernel.run(&mut [&mut fleet], &mut [&mut costs], horizon)?,
        };
        source = kernel.into_source();
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
