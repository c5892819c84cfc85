//! The frozen dense portfolio fleet — the §5h oracle.
//!
//! This is the original dense implementation of the portfolio closed
//! loop, kept verbatim as the equivalence oracle for the event-driven
//! wakeup fleet behind [`super::run_portfolio_loop`], exactly as
//! [`crate::closedloop::dense`] freezes the single-market fleet: every
//! tenant is re-evaluated every slot — O(N) report walks per slot
//! regardless of activity — so it stays simple enough to audit and slow
//! enough to be worth replacing. `tests/portfolio_wakeup_equiv.rs` holds
//! the two bit-identical across price regimes, faults, and mixed
//! [`spotbid_market::sim::Supply`] members.

use super::{
    run_session, PortfolioLoopConfig, PortfolioReport, PortfolioSource, SessionFleet, TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::closedloop::dense::SHARD_SIZE;
use crate::closedloop::LoopFaults;
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver};
use crate::observer::{CostTotals, EventLog};
use crate::EngineError;
use spotbid_core::portfolio::{PortfolioPlan, PortfolioStrategy};
use spotbid_core::{BidDecision, CoreError, JobSpec};
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};

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
    /// Serial per tenant — per-market bid ids are assigned here, so call
    /// order must be tenant order.
    fn apply_plan(
        &mut self,
        plan: &PortfolioPlan,
        job: &JobSpec,
        slot: u64,
        source: &mut PortfolioSource,
        live: &mut [u32],
        emit: &mut dyn FnMut(Event),
    ) {
        for leg in &plan.legs {
            if self.pending == 0 {
                break;
            }
            // A re-plan covers only the lost work: cap each leg at what is
            // still pending (the first plan partitions exactly, so this is
            // the identity there — and `max(1)` mirrors the single-market
            // fleet's defensive floor).
            let assigned = leg.slots.min(self.pending).max(1);
            match leg.decision {
                BidDecision::OnDemand { price } => {
                    let work = (job.slot * assigned as f64).min(self.remaining_work(job));
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
                    live[leg.market] += 1;
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
        live: &mut [u32],
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
                live[leg.market as usize] -= 1;
                self.legs.remove(k);
                continue;
            }
            if terminated {
                emit(Event::Rejected {
                    slot,
                    tenant: self.tag,
                });
                let lost = u64::from(leg.assigned - leg.ran);
                live[leg.market as usize] -= 1;
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

/// Every portfolio tenant as one kernel driver, with sharded plan
/// resolution — the multi-market counterpart of the dense fleet, same
/// §5e/§5f contract: pure decisions fan out, market-visible side effects
/// stay serial in ascending tenant order.
struct PortfolioFleet {
    tenants: Vec<PortfolioTenant>,
    done: Vec<bool>,
    shard_rngs: Vec<Rng>,
    job: JobSpec,
    on_demand: Price,
    max_resubmissions: u32,
    /// Live spot legs per market (the kernel's per-market demand signal).
    live: Vec<u32>,
    /// Scratch: indices of tenants that must (re-)plan this slot.
    needy: Vec<u32>,
}

impl PortfolioFleet {
    fn new(tenants: Vec<PortfolioTenant>, cfg: &PortfolioLoopConfig, streams: &RngStreams) -> Self {
        let m = cfg.markets.len();
        let max_shards = tenants.len().div_ceil(SHARD_SIZE);
        // Shard streams live after the market/arrival/shared block.
        let mut chain = streams.streams(2 * m + 1 + max_shards);
        let shard_rngs = chain.split_off(2 * m + 1);
        let done = vec![false; tenants.len()];
        PortfolioFleet {
            tenants,
            done,
            shard_rngs,
            job: cfg.job,
            on_demand: cfg.on_demand,
            max_resubmissions: cfg.max_resubmissions,
            live: vec![0; m],
            needy: Vec::new(),
        }
    }
}

impl JobDriver<PortfolioSource> for PortfolioFleet {
    fn demand(&self) -> usize {
        self.live.iter().map(|&n| n as usize).sum()
    }

    fn demand_in(&self, market: usize) -> usize {
        self.live[market] as usize
    }

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
        let inputs: Vec<PortfolioStrategy> = self
            .needy
            .iter()
            .map(|&i| self.tenants[i as usize].strategy)
            .collect();
        let shards = inputs.len().div_ceil(SHARD_SIZE);
        let shard_rngs = &self.shard_rngs;
        let (job, on_demand) = (self.job, self.on_demand);
        let plans: Vec<Vec<Result<PortfolioPlan, CoreError>>> =
            spotbid_exec::par_map(shards, |s| {
                let mut _rng = shard_rngs[s].clone(); // reserved, see module docs
                let lo = s * SHARD_SIZE;
                let hi = (lo + SHARD_SIZE).min(inputs.len());
                inputs[lo..hi]
                    .iter()
                    .map(|strat| strat.decide(&histories, &job, on_demand))
                    .collect()
            });
        // Serial, ordered apply: per-market bid ids and events come out
        // exactly as if each tenant had planned in turn.
        let mut flat = plans.into_iter().flatten();
        for k in 0..self.needy.len() {
            let i = self.needy[k] as usize;
            let plan = flat
                .next()
                .expect("one plan per needy tenant")
                .map_err(EngineError::Core)?;
            self.tenants[i].apply_plan(&plan, &job, slot, source, &mut self.live, emit);
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
            let status = self.tenants[i].slot_update(
                slot,
                reports,
                &self.job,
                self.max_resubmissions,
                &mut self.live,
                emit,
            );
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

    fn finals<'a>(&'a self, job: &'a JobSpec) -> impl ExactSizeIterator<Item = TenantFinal> + 'a {
        self.tenants.iter().map(|t| TenantFinal {
            tag: t.tag,
            strategy: t.strategy,
            completed: t.completed,
            spot_slots: t.slots_run,
            interruptions: t.interruptions,
            resubmissions: t.resubmissions,
            remaining: t.remaining_work(job),
        })
    }
}

fn run(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    log: Option<&mut EventLog>,
) -> Result<PortfolioReport, EngineError> {
    let (report, _) = run_session(strategies, cfg, seed, faults, log, |streams| {
        let tenants: Vec<PortfolioTenant> = strategies
            .iter()
            .enumerate()
            .map(|(i, s)| PortfolioTenant::new(*s, cfg, i as u32))
            .collect();
        PortfolioFleet::new(tenants, cfg, streams)
    })?;
    Ok(report)
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
    run(strategies, cfg, seed, None, None)
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
    let report = run(strategies, cfg, seed, faults, Some(&mut log))?;
    Ok((report, log.into_events()))
}
