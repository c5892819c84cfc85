//! The frozen dense fleet — the closed loops' one oracle (§5f, §5h).
//!
//! This is the original dense implementation of the portfolio closed
//! loop, kept as the equivalence oracle for the event-driven wakeup fleet
//! behind [`super::run_portfolio_loop`] and, at M = 1, behind
//! [`crate::closedloop::run_closed_loop`]: every tenant is re-evaluated
//! every slot — O(N) report walks per slot regardless of activity — so it
//! stays simple enough to audit and slow enough to be worth replacing.
//! `tests/portfolio_wakeup_equiv.rs` and `tests/wakeup_equiv.rs` hold the
//! two fleets bit-identical across price regimes, faults, and mixed
//! [`spotbid_market::sim::Supply`] members.
//!
//! A single-market session runs this fleet under the same session shell
//! and source as the wakeup fleet, with `SingleMarket`'s on-demand
//! churn, and with `whole_od` set: an on-demand decision buys all the
//! remaining work, as the wakeup fleet's `whole_od` does.

use super::{
    portfolio_report, run_session, PortfolioLoopConfig, PortfolioReport, PortfolioSource, Session,
    SessionFleet, SingleMarket, TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::closedloop::LoopFaults;
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver};
use crate::observer::{CostTotals, EventLog};
use crate::EngineError;
use spotbid_core::portfolio::{PortfolioPlan, PortfolioStrategy};
use spotbid_core::{BidDecision, JobSpec};
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};

/// One live spot position of a tenant.
#[derive(Debug, Clone, Copy)]
struct Leg {
    market: u32,
    bid_id: BidId,
    /// Slots of work this leg was submitted for.
    assigned: u32,
    /// Slots it has run so far.
    ran: u32,
    running: bool,
}

/// One strategy-driven portfolio tenant: re-plans against the per-market
/// histories whenever it must (re-)bid, and tracks every live leg through
/// its market's slot report.
#[derive(Debug)]
struct PortfolioTenant {
    strategy: PortfolioStrategy,
    tag: u32,
    /// Slots of work awaiting (re-)submission.
    pending: u64,
    /// Live spot legs, in plan (ascending-market) submission order.
    legs: Vec<Leg>,
    /// On-demand work already charged (contract legs and od decisions).
    od_charged: Hours,
    slots_run: u64,
    interruptions: u32,
    resubmissions: u32,
    completed: bool,
    done_pending: bool,
    needs_submit: bool,
    /// Lost work whose resubmission budget ran out is abandoned.
    gave_up: bool,
}

impl PortfolioTenant {
    fn new(strategy: PortfolioStrategy, cfg: &PortfolioLoopConfig, tag: u32) -> Self {
        PortfolioTenant {
            strategy,
            tag,
            pending: cfg.job.slots_needed(),
            legs: Vec::new(),
            od_charged: Hours::ZERO,
            slots_run: 0,
            interruptions: 0,
            resubmissions: 0,
            completed: false,
            done_pending: false,
            needs_submit: true,
            gave_up: false,
        }
    }

    /// Execution work still uncovered by spot slots run and on-demand
    /// charges.
    fn remaining_work(&self, job: &JobSpec) -> Hours {
        (job.execution - job.slot * self.slots_run as f64 - self.od_charged).max(Hours::ZERO)
    }

    /// Acts on a resolved plan: charges on-demand legs and submits spot
    /// legs, scaling each leg's assignment down to the work still pending.
    /// With `whole_od`, an on-demand leg buys all the remaining work.
    /// Serial per tenant — per-market bid ids are assigned here, so call
    /// order must be tenant order.
    fn apply_plan(
        &mut self,
        plan: &PortfolioPlan,
        job: &JobSpec,
        whole_od: bool,
        slot: u64,
        source: &mut PortfolioSource,
        emit: &mut dyn FnMut(Event),
    ) {
        for leg in &plan.legs {
            if self.pending == 0 {
                break;
            }
            // A re-plan covers only the lost work: cap each leg at what is
            // still pending (the first plan partitions exactly, so this is
            // the identity there). Every planned leg holds a slot and the
            // loop stops at zero pending, so `max(1)` never binds; it is
            // the floor the wakeup fleet's `leg_slots` shares.
            let assigned = leg.slots.min(self.pending).max(1);
            match leg.decision {
                BidDecision::OnDemand { price } => {
                    let remaining = self.remaining_work(job);
                    let work = if whole_od {
                        remaining
                    } else {
                        (job.slot * assigned as f64).min(remaining)
                    };
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
                        self.od_charged += work;
                    }
                    self.pending -= assigned;
                }
                BidDecision::Spot { price, persistent } => {
                    let id = source.set.submit(
                        leg.market,
                        BidRequest {
                            price,
                            kind: if persistent {
                                BidKind::Persistent
                            } else {
                                BidKind::OneTime
                            },
                            work: WorkModel::FixedSlots(assigned as u32),
                        },
                    );
                    self.legs.push(Leg {
                        market: leg.market as u32,
                        bid_id: id,
                        assigned: assigned as u32,
                        ran: 0,
                        running: false,
                    });
                    self.pending -= assigned;
                    emit(Event::BidSubmitted {
                        slot,
                        tenant: self.tag,
                        price,
                        persistent,
                    });
                }
            }
        }
        if !self.completed && self.pending == 0 && self.legs.is_empty() {
            // Everything was covered on demand: the job is done before the
            // market even clears (same shape as the single-market
            // on-demand decision).
            self.completed = true;
            self.done_pending = true;
            emit(Event::Completed {
                slot,
                tenant: self.tag,
            });
        }
    }

    /// Advances the tenant one slot against every market's report. Legs
    /// are processed in submission order; event vectors are id-sorted, so
    /// each membership test is a binary search.
    fn slot_update(
        &mut self,
        slot: u64,
        reports: &[SlotReport],
        job: &JobSpec,
        max_resubmissions: u32,
        emit: &mut dyn FnMut(Event),
    ) -> DriverStatus {
        if self.done_pending {
            return DriverStatus::Done;
        }
        let mut k = 0;
        while k < self.legs.len() {
            let leg = &mut self.legs[k];
            let report = &reports[leg.market as usize];
            let id = leg.bid_id;
            let started = report.started.binary_search(&id).is_ok();
            let interrupted = report.interrupted.binary_search(&id).is_ok();
            let finished = report.finished.binary_search(&id).is_ok();
            let terminated = report.terminated.binary_search(&id).is_ok();
            let ran = started || (leg.running && !interrupted && !terminated);
            if started {
                leg.running = true;
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
                leg.ran += 1;
                self.slots_run += 1;
                emit(Event::Charged {
                    item: LineItem {
                        slot,
                        price: report.price,
                        duration: job.slot,
                        kind: UsageKind::Spot,
                        tag: self.tag,
                    },
                });
            }
            if interrupted || terminated || finished {
                leg.running = false;
            }
            if finished {
                self.legs.remove(k);
                continue;
            }
            if terminated {
                emit(Event::Rejected {
                    slot,
                    tenant: self.tag,
                });
                let lost = u64::from(leg.assigned - leg.ran);
                self.legs.remove(k);
                self.pending += lost;
                if self.resubmissions < max_resubmissions {
                    self.resubmissions += 1;
                    self.needs_submit = true;
                    // Cross-zone fallback: the next plan's home market is
                    // the next zone over.
                    if let PortfolioStrategy::ZoneFallback { home, base } = self.strategy {
                        self.strategy = PortfolioStrategy::ZoneFallback {
                            home: (home + 1) % reports.len(),
                            base,
                        };
                    }
                } else {
                    self.gave_up = true;
                }
                continue;
            }
            k += 1;
        }
        if !self.completed && self.legs.is_empty() && self.pending == 0 {
            self.completed = true;
            emit(Event::Completed {
                slot,
                tenant: self.tag,
            });
            return DriverStatus::Done;
        }
        if self.gave_up && self.legs.is_empty() && !self.needs_submit {
            return DriverStatus::Done;
        }
        DriverStatus::Active
    }
}

/// Every portfolio tenant as one kernel driver, under the §5e/§5f
/// contract: plans and their market-visible side effects run serially in
/// ascending tenant order.
pub(in crate::closedloop) struct PortfolioFleet {
    tenants: Vec<PortfolioTenant>,
    done: Vec<bool>,
    job: JobSpec,
    on_demand: Price,
    max_resubmissions: u32,
    /// An on-demand decision buys all the remaining work, the
    /// single-market loop's rule (`wakeup::Fleet::whole_od`).
    whole_od: bool,
    /// Scratch: indices of tenants that must (re-)plan this slot.
    needy: Vec<u32>,
}

impl PortfolioFleet {
    fn new(tenants: Vec<PortfolioTenant>, cfg: &PortfolioLoopConfig, whole_od: bool) -> Self {
        let done = vec![false; tenants.len()];
        PortfolioFleet {
            tenants,
            done,
            job: cfg.job,
            on_demand: cfg.on_demand,
            max_resubmissions: cfg.max_resubmissions,
            whole_od,
            needy: Vec::new(),
        }
    }
}

impl JobDriver<PortfolioSource> for PortfolioFleet {
    fn before_slot(
        &mut self,
        slot: u64,
        source: &mut PortfolioSource,
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
        // One per-market history snapshot for the whole slot.
        let histories = source.observed()?;
        let (job, on_demand, whole_od) = (self.job, self.on_demand, self.whole_od);
        // Each tenant plans, then applies, in turn: per-market bid ids and
        // events come out in tenant order, and a failed plan ends the pass
        // after every earlier tenant's is applied.
        for k in 0..self.needy.len() {
            let t = &mut self.tenants[self.needy[k] as usize];
            let plan = t
                .strategy
                .decide(&histories, &job, on_demand)
                .map_err(EngineError::Core)?;
            t.apply_plan(&plan, &job, whole_od, slot, source, emit);
        }
        Ok(())
    }

    fn on_slot(
        &mut self,
        slot: u64,
        reports: &Vec<SlotReport>,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        let mut all_done = true;
        for i in 0..self.tenants.len() {
            if self.done[i] {
                continue;
            }
            let status =
                self.tenants[i].slot_update(slot, reports, &self.job, self.max_resubmissions, emit);
            if status == DriverStatus::Done {
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

impl SessionFleet for PortfolioFleet {
    fn costs(&mut self) -> Option<&mut CostTotals> {
        None
    }

    fn tenant_final(&self, tag: u32) -> TenantFinal<'_> {
        let t = &self.tenants[tag as usize];
        TenantFinal {
            tag: t.tag,
            strategy: &t.strategy,
            completed: t.completed,
            spot_slots: t.slots_run,
            interruptions: t.interruptions,
            resubmissions: t.resubmissions,
            remaining: if t.completed {
                Hours::ZERO
            } else {
                t.remaining_work(&self.job)
            },
        }
    }
}

/// Runs the fleet under the session shell, one tenant per strategy; a
/// `single` session is the single-market loop ([`SingleMarket`]), as in
/// `wakeup::run`.
pub(in crate::closedloop) fn run(
    strategies: impl ExactSizeIterator<Item = PortfolioStrategy>,
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    single: Option<&SingleMarket>,
    log: Option<&mut EventLog>,
) -> Result<Session<PortfolioFleet>, EngineError> {
    run_session(strategies.len(), cfg, seed, faults, single, log, || {
        let tenants = strategies
            .enumerate()
            .map(|(i, s)| PortfolioTenant::new(s, cfg, i as u32))
            .collect();
        PortfolioFleet::new(tenants, cfg, single.is_some())
    })
}

/// As [`super::run_portfolio_loop`], but over the frozen dense fleet —
/// the oracle side of the portfolio equivalence walls.
///
/// # Errors
///
/// As [`super::run_portfolio_loop`].
pub fn run_portfolio_loop(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
) -> Result<PortfolioReport, EngineError> {
    let mut session = run(strategies.iter().copied(), cfg, seed, None, None, None)?;
    portfolio_report(&mut session, cfg)
}

/// As [`super::run_portfolio_loop_logged`], but over the frozen dense
/// fleet.
///
/// # Errors
///
/// As [`super::run_portfolio_loop_logged`].
pub fn run_portfolio_loop_logged(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
) -> Result<(PortfolioReport, Vec<Event>), EngineError> {
    let mut log = EventLog::new();
    let strategies = strategies.iter().copied();
    let mut session = run(strategies, cfg, seed, faults, None, Some(&mut log))?;
    let report = portfolio_report(&mut session, cfg)?;
    Ok((report, log.into_events()))
}
