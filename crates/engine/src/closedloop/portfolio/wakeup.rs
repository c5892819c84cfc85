//! The event-driven portfolio fleet: touch a tenant only when one of its
//! markets reports something about one of its legs (DESIGN.md §5j).
//!
//! The dense portfolio fleet walks every tenant's legs against every
//! market report every slot. This fleet generalizes the single-market
//! wakeup fleet ([`crate::closedloop::wakeup`]) to M markets. A slot
//! wakes
//!
//! - **fresh** tenants whose plan was applied this slot;
//! - the **owners** of every leg a member market's [`SlotReport`] lists as
//!   started, interrupted, finished or terminated, found through one
//!   bid-id → tenant column per market, filled at submit. The reports
//!   name every tenant-visible change, parked restarts under outages and
//!   finite supply included.
//!
//! Collecting the owners also records on each named live leg which of its
//! market's four report lists named it, and marks its tenant woken so it
//! joins the wake set once; a woken tenant reads those bits leg by leg
//! instead of searching the reports.
//!
//! Running legs accrue their market's posted price every slot (§3.2) and
//! are settled lazily: each slot's per-market `price × job.slot` goes into
//! a [`SlotCharges`] table, and a woken tenant first replays its carried
//! slots `[run_since, slot)` slot by slot over its running legs in plan
//! order. That set cannot change between wakes, so this is the dense
//! fleet's float-addition order. The session end settles every tenant
//! still running. The fleet keeps no list of runners, only their count; a
//! logged run finds them by scanning the tenants on every slot it does
//! not skip, to emit their `Charged` events in the dense order. A slot
//! where no market's report names a tenant leg, no plan was applied and
//! no leg runs is *skipped* ([`PortfolioFleetStats::skipped_slots`]).
//!
//! Tenants are classified by strategy, as in the single-market fleet: one
//! plan per class of bit-identical strategies per slot, with a tenant
//! reclassified when cross-zone fallback moves its home market. Plans are
//! applied serially in ascending tenant order after one reservation of
//! each market's bid columns for the wave, and wakeups are processed in
//! ascending tenant order with each tenant's legs in plan order — so
//! per-market bid ids, event order, costs, and RNG draws are
//! **bit-identical** to the frozen [`super::dense`] oracle at any
//! `SPOTBID_THREADS` (`tests/portfolio_wakeup_equiv.rs`).

use super::{
    run_session, PortfolioLoopConfig, PortfolioReport, PortfolioSource, SessionFleet, TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::closedloop::wakeup::{
    for_each_owner, intern_class, reserve_owners, set_owner, strategy_key, with_runners, ClassMap,
    DecisionMemo, NO_OWNER, R_FINISHED, R_INTERRUPTED, R_STARTED, R_TERMINATED,
};
use crate::closedloop::{spot_charge, LoopFaults, SlotCharges};
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver};
use crate::observer::{CostTotals, EventLog};
use crate::EngineError;
use spotbid_core::portfolio::{PortfolioPlan, PortfolioStrategy, PortfolioView};
use spotbid_core::{BidDecision, JobSpec};
use spotbid_market::sim::{reserve_pow2, BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};

/// Wakeup accounting for one portfolio session — the multi-market
/// sibling of [`crate::closedloop::FleetStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortfolioFleetStats {
    /// Slots the fleet was asked to advance.
    pub slots: u64,
    /// Slots skipped: the wake set was empty and no leg was running
    /// anywhere.
    pub skipped_slots: u64,
    /// Tenant wakeups summed over all slots: each slot's wake set (fresh
    /// tenants plus the owners of the legs the reports name), counted once
    /// per tenant. Runners carried through a slot are not counted.
    pub woken: u64,
    /// Per market, the wakeups its own reports produced: one per tenant
    /// leg listed, before deduplication across lists and markets.
    pub swept: Vec<u64>,
}

/// One live spot position — the dense fleet's `Leg`.
#[derive(Debug, Clone, Copy)]
struct WLeg {
    market: u32,
    bid_id: BidId,
    /// Slots of work this leg was submitted for.
    assigned: u32,
    /// Slots it has run so far.
    ran: u32,
    running: bool,
    /// `R_*` bits of this slot's report of its market; zero outside
    /// `on_slot`.
    report: u8,
}

/// `WTenant::class` of a tenant whose strategy changed since it was
/// classified.
const UNCLASSIFIED: u32 = u32::MAX;

/// A portfolio strategy's identity as a class key: variant, parameter
/// bits and the base strategy's key.
fn plan_key(s: &PortfolioStrategy) -> (u64, u64, u64, u64) {
    let (variant, param, base) = match *s {
        PortfolioStrategy::ZoneFallback { home, base } => (0, home as u64, base),
        PortfolioStrategy::SplitEven { base } => (1, 0, base),
        PortfolioStrategy::Contract { spot_share, base } => (2, spot_share.to_bits(), base),
    };
    let (b0, b1) = strategy_key(&base);
    (variant, param, b0, b1)
}

/// One portfolio tenant — the dense fleet's `PortfolioTenant` plus a
/// running-leg count, the start of its unsettled running slots, its
/// strategy class and its woken bit. The tenant's tag is its fleet index.
/// Legs stay a per-tenant vector (plan order is part of the determinism
/// contract and M is small).
#[derive(Debug)]
struct WTenant {
    strategy: PortfolioStrategy,
    /// Index of `strategy`'s class, or [`UNCLASSIFIED`].
    class: u32,
    /// In this slot's wake set already.
    woken: bool,
    /// Slots of work awaiting (re-)submission.
    pending: u64,
    /// Live spot legs, in plan (ascending-market) submission order.
    legs: Vec<WLeg>,
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
    /// Legs currently running (the tenant is a runner iff > 0).
    run_legs: u32,
    /// First slot not yet charged for the running legs.
    run_since: u64,
}

impl WTenant {
    fn new(strategy: PortfolioStrategy, class: u32, cfg: &PortfolioLoopConfig) -> Self {
        WTenant {
            strategy,
            class,
            woken: false,
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
            run_legs: 0,
            run_since: 0,
        }
    }

    /// Execution work still uncovered by spot slots run and on-demand
    /// charges.
    fn remaining_work(&self, job: &JobSpec) -> Hours {
        (job.execution - job.slot * self.slots_run as f64 - self.od_charged).max(Hours::ZERO)
    }

    /// Charges the running legs their carried slots `[run_since, end)`,
    /// slot by slot in plan order, and moves `run_since` to `end`.
    fn settle(&mut self, t: u32, end: u64, charges: &SlotCharges, costs: &mut CostTotals) {
        if self.run_legs == 0 {
            return;
        }
        let since = self.run_since;
        let running = self.legs.iter().filter(|l| l.running);
        charges.settle(costs, t, since, end, running.map(|l| l.market as usize));
        let n = end - since;
        for leg in self.legs.iter_mut().filter(|l| l.running) {
            leg.ran += n as u32;
        }
        self.slots_run += n * u64::from(self.run_legs);
        self.run_since = end;
    }
}

/// The event-driven portfolio fleet. See the module docs for the
/// wake-set contract.
struct PortfolioWakeupFleet {
    // Session-wide configuration.
    job: JobSpec,
    on_demand: Price,
    max_resubmissions: u32,
    /// Visit every runner every slot, emitting its `Charged` events (set
    /// only when the session logs events).
    carry_runners: bool,

    // Tenant state (tag = index).
    tenants: Vec<WTenant>,
    done: Vec<bool>,
    /// Strategy key → class, kept for tenants reclassified mid-session.
    classes: ClassMap<(u64, u64, u64, u64)>,
    /// This slot's plan per class.
    memo: DecisionMemo<PortfolioPlan>,

    /// Per market, the owning tenant of each bid id (background bids own
    /// none).
    owners: Vec<Vec<u32>>,
    /// Every advanced slot's per-market spot charge.
    charges: SlotCharges,
    /// Per-tenant cost totals: on-demand charges, settled spot charges.
    costs: CostTotals,
    /// Tenants with ≥ 1 running leg.
    running: usize,
    /// Tenants whose plan was applied this `before_slot`.
    fresh: Vec<u32>,
    /// Tenants queued to (re-)plan at the next `before_slot`.
    needy: Vec<u32>,
    /// Tenants not yet done — drives the kernel Done check.
    active: usize,
    /// Live spot legs per market (the kernel's per-market demand signal).
    live: Vec<u32>,
    stats: PortfolioFleetStats,

    // Scratch buffers (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
    /// Per market: this slot's spot charge fails validation.
    sc_refused: Vec<bool>,
    /// Per market: spot legs in this slot's plans.
    sc_spot: Vec<usize>,
}

impl PortfolioWakeupFleet {
    fn new(
        strategies: &[PortfolioStrategy],
        cfg: &PortfolioLoopConfig,
        carry_runners: bool,
    ) -> Self {
        let n = strategies.len();
        assert!(
            n < NO_OWNER as usize,
            "portfolio wakeup fleet supports < 2^32 - 1 tenants"
        );
        let m = cfg.markets.len();
        let mut classes = ClassMap::default();
        let tenants = strategies
            .iter()
            .map(|&s| WTenant::new(s, intern_class(&mut classes, plan_key(&s)), cfg))
            .collect();
        PortfolioWakeupFleet {
            job: cfg.job,
            on_demand: cfg.on_demand,
            max_resubmissions: cfg.max_resubmissions,
            carry_runners,
            tenants,
            done: vec![false; n],
            classes,
            memo: DecisionMemo::new(),
            owners: vec![Vec::new(); m],
            charges: SlotCharges::new(m),
            costs: CostTotals::new(n),
            running: 0,
            fresh: Vec::new(),
            needy: (0..n as u32).collect(),
            active: n,
            live: vec![0; m],
            stats: PortfolioFleetStats {
                swept: vec![0; m],
                ..PortfolioFleetStats::default()
            },
            sc_woken: Vec::new(),
            sc_order: Vec::new(),
            sc_refused: vec![false; m],
            sc_spot: vec![0; m],
        }
    }

    /// Acts on a resolved plan — byte-for-byte the dense fleet's
    /// `apply_plan` (its on-demand charges validated and added here), plus
    /// the bid-owner columns; the caller queues the fresh wake.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] for an invalid on-demand charge.
    #[allow(clippy::too_many_arguments)]
    fn apply_plan(
        tenant: &mut WTenant,
        t: u32,
        plan: &PortfolioPlan,
        job: &JobSpec,
        slot: u64,
        source: &mut PortfolioSource,
        owners: &mut [Vec<u32>],
        costs: &mut CostTotals,
        live: &mut [u32],
        emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        for leg in &plan.legs {
            if tenant.pending == 0 {
                break;
            }
            // A re-plan covers only the lost work: cap each leg at what is
            // still pending (the first plan partitions exactly, so this is
            // the identity there — and `max(1)` mirrors the single-market
            // fleet's defensive floor).
            let assigned = leg.slots.min(tenant.pending).max(1);
            match leg.decision {
                BidDecision::OnDemand { price } => {
                    let work = (job.slot * assigned as f64).min(tenant.remaining_work(job));
                    if work > Hours::ZERO {
                        let item = LineItem {
                            slot,
                            price,
                            duration: work,
                            kind: UsageKind::OnDemand,
                            tag: t,
                        };
                        emit(Event::Charged { item });
                        costs.try_charge(&item)?;
                        tenant.od_charged += work;
                    }
                    tenant.pending -= assigned;
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
                    set_owner(&mut owners[leg.market], id, t);
                    tenant.legs.push(WLeg {
                        market: leg.market as u32,
                        bid_id: id,
                        assigned: assigned as u32,
                        ran: 0,
                        running: false,
                        report: 0,
                    });
                    live[leg.market] += 1;
                    tenant.pending -= assigned;
                    emit(Event::BidSubmitted {
                        slot,
                        tenant: t,
                        price,
                        persistent,
                    });
                }
            }
        }
        if !tenant.completed && tenant.pending == 0 && tenant.legs.is_empty() {
            // Everything was covered on demand: the job is done before the
            // market even clears (same shape as the single-market
            // on-demand decision).
            tenant.completed = true;
            tenant.done_pending = true;
            emit(Event::Completed { slot, tenant: t });
        }
        Ok(())
    }

    /// Advances one woken tenant against every market's report — the
    /// dense fleet's `slot_update`, with each leg's verdict read from (and
    /// cleared in) its report bits, each slot a leg ran charged to the
    /// tenant's total here, and termination re-plans queued into `needy`
    /// (guarded against duplicates by the `needs_submit` flag). The first
    /// leg that ran in a market in `refused` leaves its billing error in
    /// `refusal`. The caller tracks run-list membership through
    /// `run_legs`.
    #[allow(clippy::too_many_arguments)]
    fn update_tenant(
        tenant: &mut WTenant,
        t: u32,
        slot: u64,
        reports: &[SlotReport],
        charges: &SlotCharges,
        costs: &mut CostTotals,
        refused: &[bool],
        refusal: &mut Option<EngineError>,
        live: &mut [u32],
        needy: &mut Vec<u32>,
        job: &JobSpec,
        max_resubmissions: u32,
        emit: &mut dyn FnMut(Event),
    ) -> DriverStatus {
        if tenant.done_pending {
            return DriverStatus::Done;
        }
        let mut k = 0;
        while k < tenant.legs.len() {
            let leg = &mut tenant.legs[k];
            let m = leg.market as usize;
            let report = &reports[m];
            let bits = std::mem::take(&mut leg.report);
            let started = bits & R_STARTED != 0;
            let interrupted = bits & R_INTERRUPTED != 0;
            let finished = bits & R_FINISHED != 0;
            let terminated = bits & R_TERMINATED != 0;
            let ran = started || (leg.running && !interrupted && !terminated);
            if started {
                leg.running = true;
                tenant.run_legs += 1;
                emit(Event::BidAccepted { slot, tenant: t });
            }
            if interrupted {
                tenant.interruptions += 1;
                emit(Event::Interrupted { slot, tenant: t });
            }
            if ran {
                leg.ran += 1;
                tenant.slots_run += 1;
                emit(Event::Charged {
                    item: LineItem {
                        slot,
                        price: report.price,
                        duration: job.slot,
                        kind: UsageKind::Spot,
                        tag: t,
                    },
                });
                costs.add(t, charges.at(slot, m));
                if refused[m] && refusal.is_none() {
                    *refusal = spot_charge(slot, report.price, job.slot).err();
                }
            }
            if interrupted || terminated || finished {
                if leg.running {
                    tenant.run_legs -= 1;
                }
                leg.running = false;
            }
            if finished {
                live[m] -= 1;
                tenant.legs.remove(k);
                continue;
            }
            if terminated {
                emit(Event::Rejected { slot, tenant: t });
                let lost = u64::from(leg.assigned - leg.ran);
                live[m] -= 1;
                tenant.legs.remove(k);
                tenant.pending += lost;
                if tenant.resubmissions < max_resubmissions {
                    tenant.resubmissions += 1;
                    // Several legs may terminate in one slot; the flag
                    // keeps the tenant queued at most once.
                    if !tenant.needs_submit {
                        tenant.needs_submit = true;
                        needy.push(t);
                    }
                    // Cross-zone fallback: the next plan's home market is
                    // the next zone over (a new strategy class).
                    if let PortfolioStrategy::ZoneFallback { home, base } = tenant.strategy {
                        tenant.strategy = PortfolioStrategy::ZoneFallback {
                            home: (home + 1) % reports.len(),
                            base,
                        };
                        tenant.class = UNCLASSIFIED;
                    }
                } else {
                    tenant.gave_up = true;
                }
                continue;
            }
            k += 1;
        }
        if !tenant.completed && tenant.legs.is_empty() && tenant.pending == 0 {
            tenant.completed = true;
            emit(Event::Completed { slot, tenant: t });
            return DriverStatus::Done;
        }
        if tenant.gave_up && tenant.legs.is_empty() && !tenant.needs_submit {
            return DriverStatus::Done;
        }
        DriverStatus::Active
    }

    fn status(&self) -> DriverStatus {
        if self.active == 0 {
            DriverStatus::Done
        } else {
            DriverStatus::Active
        }
    }
}

impl JobDriver<PortfolioSource> for PortfolioWakeupFleet {
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
        self.fresh.clear();
        if self.needy.is_empty() {
            return Ok(());
        }
        // The queue holds exactly the tenants the dense fleet's full scan
        // would select (queued ascending, drained every slot); the filter
        // mirrors its `!done && needs_submit && !done_pending` guard.
        let mut needy = std::mem::take(&mut self.needy);
        needy.retain(|&i| {
            let tu = i as usize;
            let t = &mut self.tenants[tu];
            if !self.done[tu] && t.needs_submit && !t.done_pending {
                t.needs_submit = false;
                true
            } else {
                false
            }
        });
        if needy.is_empty() {
            self.needy = needy;
            return Ok(());
        }
        // One per-market history snapshot and one portfolio view for the
        // whole slot. Each strategy class plans once, in tenant order; a
        // failed plan ends the pass, and its error is raised once every
        // earlier tenant's plan has been applied, where the per-tenant
        // order raises it.
        let histories = source.observed()?;
        let view = PortfolioView::new(&histories, self.on_demand);
        let job = self.job;
        self.memo.clear();
        let mut spot = std::mem::take(&mut self.sc_spot);
        spot.iter_mut().for_each(|n| *n = 0);
        let (mut decided, mut failure) = (0, None);
        for &i in &needy {
            let tenant = &mut self.tenants[i as usize];
            if tenant.class == UNCLASSIFIED {
                tenant.class = intern_class(&mut self.classes, plan_key(&tenant.strategy));
            }
            let strategy = tenant.strategy;
            match self
                .memo
                .decide(tenant.class, || strategy.decide_with(&view, &job))
            {
                Ok(plan) => {
                    for leg in &plan.legs {
                        if let BidDecision::Spot { .. } = leg.decision {
                            spot[leg.market] += 1;
                        }
                    }
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            decided += 1;
        }
        // The wave's legs grow each market's columns and owner column
        // once.
        for (m, &n) in spot.iter().enumerate() {
            source.set.reserve(m, n);
            reserve_owners(&mut self.owners[m], source.set.market(m).submitted(), n);
        }
        self.sc_spot = spot;
        reserve_pow2(&mut self.fresh, decided);
        // Serial, ordered apply: per-market bid ids and events come out
        // exactly as if each tenant had planned in turn.
        for &i in &needy[..decided] {
            let tenant = &mut self.tenants[i as usize];
            Self::apply_plan(
                tenant,
                i,
                self.memo.get(tenant.class),
                &job,
                slot,
                source,
                &mut self.owners,
                &mut self.costs,
                &mut self.live,
                emit,
            )?;
            tenant.woken = true;
            self.fresh.push(i);
        }
        if let Some(e) = failure {
            return Err(EngineError::Core(e));
        }
        needy.clear();
        self.needy = needy;
        Ok(())
    }

    fn on_slot(
        &mut self,
        slot: u64,
        reports: &Vec<SlotReport>,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        self.stats.slots += 1;
        debug_assert_eq!(self.charges.slots(), slot);
        for report in reports {
            self.charges.push(report.price, self.job.slot);
        }

        // This slot's wake set: fresh plans, then every market's report
        // owners, each tenant once; a live leg's report bits go to the
        // leg.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        woken.append(&mut self.fresh);
        let tenants = &mut self.tenants;
        for (m, report) in reports.iter().enumerate() {
            let swept = &mut self.stats.swept[m];
            for_each_owner(&self.owners[m], report, |t, id, bit| {
                *swept += 1;
                let tenant = &mut tenants[t as usize];
                if !tenant.woken {
                    tenant.woken = true;
                    woken.push(t);
                }
                let live = tenant
                    .legs
                    .iter_mut()
                    .find(|l| l.bid_id == id && l.market as usize == m);
                if let Some(leg) = live {
                    leg.report |= bit;
                }
            });
        }

        if woken.is_empty() && self.running == 0 {
            // No market's report named a tenant leg, no plan was applied
            // and nothing is running: the dense fleet would have walked
            // every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            self.sc_woken = woken;
            return Ok(self.status());
        }

        // Process in ascending tenant order — the dense fleet's scan
        // order; the fresh and per-list owner runs are mostly ascending
        // already. Carried runners join only when their `Charged` events
        // are wanted, or when some market's spot charge is invalid: the
        // refusal must be the one the first such charge would raise.
        woken.sort();
        self.stats.woken += woken.len() as u64;
        let mut refused = std::mem::take(&mut self.sc_refused);
        for (r, report) in refused.iter_mut().zip(reports) {
            *r = spot_charge(slot, report.price, self.job.slot).is_err();
        }
        let carry = self.carry_runners || refused.contains(&true);
        let mut order = std::mem::take(&mut self.sc_order);
        let visit: &[u32] = if carry {
            let tenants = &self.tenants;
            with_runners(
                &woken,
                tenants.len(),
                |tu| tenants[tu].run_legs > 0,
                &mut order,
            );
            &order
        } else {
            &woken
        };

        let mut refusal = None;
        for &t in visit {
            let tu = t as usize;
            let tenant = &mut self.tenants[tu];
            tenant.woken = false;
            if self.done[tu] {
                continue;
            }
            tenant.settle(t, slot, &self.charges, &mut self.costs);
            let had_running = tenant.run_legs > 0;
            let status = Self::update_tenant(
                tenant,
                t,
                slot,
                reports,
                &self.charges,
                &mut self.costs,
                &refused,
                &mut refusal,
                &mut self.live,
                &mut self.needy,
                &self.job,
                self.max_resubmissions,
                emit,
            );
            tenant.run_since = slot + 1;
            match (had_running, tenant.run_legs > 0) {
                (false, true) => self.running += 1,
                (true, false) => self.running -= 1,
                _ => {}
            }
            if status == DriverStatus::Done {
                self.done[tu] = true;
                self.active -= 1;
            }
        }
        self.sc_woken = woken;
        self.sc_order = order;
        self.sc_refused = refused;
        match refusal {
            Some(e) => Err(e),
            None => Ok(self.status()),
        }
    }
}

impl SessionFleet for PortfolioWakeupFleet {
    fn costs(&mut self) -> Option<&mut CostTotals> {
        Some(&mut self.costs)
    }

    fn close(&mut self) {
        // Tenants still running at the session end owe their carried
        // slots.
        let end = self.charges.slots();
        for (t, tenant) in self.tenants.iter_mut().enumerate() {
            tenant.settle(t as u32, end, &self.charges, &mut self.costs);
        }
    }

    fn finals<'a>(&'a self, job: &'a JobSpec) -> impl ExactSizeIterator<Item = TenantFinal> + 'a {
        self.tenants.iter().enumerate().map(|(i, t)| TenantFinal {
            tag: i as u32,
            strategy: t.strategy,
            completed: t.completed,
            spot_slots: t.slots_run,
            interruptions: t.interruptions,
            resubmissions: t.resubmissions,
            remaining: t.remaining_work(job),
        })
    }
}

/// Runs the wakeup portfolio fleet under the shared session shell (the
/// parent module's public `run_portfolio_loop*` entry points delegate
/// here).
pub(super) fn run(
    strategies: &[PortfolioStrategy],
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    log: Option<&mut EventLog>,
) -> Result<(PortfolioReport, PortfolioFleetStats), EngineError> {
    let carry_runners = log.is_some();
    let (report, fleet) = run_session(strategies, cfg, seed, faults, log, |_| {
        PortfolioWakeupFleet::new(strategies, cfg, carry_runners)
    })?;
    Ok((report, fleet.stats))
}
