//! The event-driven wakeup fleet: touch a tenant only when the market
//! reports something about its bid.
//!
//! The dense fleet re-evaluates every tenant every slot, so a 10k-tenant
//! loop pays 10k binary-search walks per slot even when almost nothing
//! happened. This fleet keeps tenant state in struct-of-arrays columns
//! (DESIGN.md §5f), and a slot wakes exactly
//!
//! - **fresh** tenants whose decision was applied this slot (new bid
//!   submissions, on-demand resolutions awaiting their `Completed` turn);
//! - the **owners** of every bid the market's [`SlotReport`] lists as
//!   started, interrupted, finished or terminated, found through a bid-id
//!   → tenant column filled at submit. The report names every
//!   tenant-visible change, restarts of bids parked by a reclamation
//!   outage or by the finite-supply capacity pass included, so no other
//!   tenant's state can change this slot.
//!
//! A running tenant still pays the posted price every slot (§3.2), but
//! nothing else happens to it until the report names its bid. So running
//! charges are settled lazily, the way `SpotMarket::settle` settles bid
//! records: each slot's `price × job.slot` goes into a [`SlotCharges`]
//! table, a woken runner first adds its carried slots `[run_since, slot)`
//! from the table and is then processed for the current slot as usual,
//! and the session end settles every runner still running. Per tenant
//! that is the dense fleet's float-addition order, so costs are
//! bit-identical. The fleet keeps no list of runners, only their count;
//! a logged run finds them by scanning the tenant flags on every slot it
//! does not skip, to emit their `Charged` events in the dense order.
//!
//! A slot with an empty wake set and no runner is *skipped*
//! ([`FleetStats::skipped_slots`]); fault-free, those are exactly the
//! dense run's zero-activity slots. Wakeups are processed in ascending
//! tenant order, decisions fan out over the same 64-tenant shards with
//! the same reserved RNG substreams, and bid submission stays serial in
//! tenant order — so bid ids, event order, costs, and RNG draws are
//! **bit-identical** to [`super::dense`] at any `SPOTBID_THREADS`
//! (`tests/wakeup_equiv.rs`).

use super::dense::SHARD_SIZE;
use super::{
    assemble_report, spot_charge, validate, ClosedLoopConfig, ClosedLoopReport, ClosedLoopSource,
    LoopFaults, SlotCharges, TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver, Kernel};
use crate::observer::{CostTotals, EventLog};
use crate::EngineError;
use spotbid_core::{BidDecision, BiddingStrategy, CoreError, JobSpec, PriceView};
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};

/// `bid_id` column sentinel: no live bid.
const NO_BID: u64 = u64::MAX;
/// `owner` column sentinel: a background bid, owned by no tenant. Tenant
/// indices stay below it.
pub(super) const NO_OWNER: u32 = u32::MAX;

// Tenant state flags (the `flags` struct-of-arrays column).
/// Finished for the session (reported `DriverStatus::Done` equivalent).
const T_DONE: u8 = 1 << 0;
/// Its bid is currently running (counted in the fleet's `running`).
const T_RUNNING: u8 = 1 << 1;
/// Job work completed (spot finish or on-demand resolution).
const T_COMPLETED: u8 = 1 << 2;
/// Resolved to on-demand: charged already, reports done at next wake.
const T_DONE_PENDING: u8 = 1 << 3;
/// Queued in `needy` for a (re-)submission next `before_slot`.
const T_NEEDS_SUBMIT: u8 = 1 << 4;

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

/// Records tenant `t` as the owner of bid `id` in a bid-id → tenant
/// column.
pub(super) fn set_owner(owner: &mut Vec<u32>, id: BidId, t: u32) {
    let i = id.0 as usize;
    if owner.len() <= i {
        owner.resize(i + 1, NO_OWNER);
    }
    owner[i] = t;
}

/// Pushes the owning tenant of every tenant bid `report` names — the
/// slot's report-driven wake set, before sorting.
pub(super) fn push_owners(owner: &[u32], report: &SlotReport, out: &mut Vec<u32>) {
    for ids in [
        &report.started,
        &report.interrupted,
        &report.finished,
        &report.terminated,
    ] {
        for id in ids {
            match owner.get(id.0 as usize) {
                Some(&t) if t != NO_OWNER => out.push(t),
                _ => {}
            }
        }
    }
}

/// Writes into `out`, ascending, every tenant below `n` that is in the
/// ascending list `woken` or for which `running` holds — the visit order
/// of a slot whose carried runners must be processed too (a logged run,
/// or a refused spot charge). Only that path scans every tenant.
pub(super) fn with_runners(
    woken: &[u32],
    n: usize,
    running: impl Fn(usize) -> bool,
    out: &mut Vec<u32>,
) {
    out.clear();
    let mut woken = woken.iter().copied().peekable();
    for t in 0..n as u32 {
        if woken.next_if_eq(&t).is_some() || running(t as usize) {
            out.push(t);
        }
    }
}

/// The event-driven tenant fleet: struct-of-arrays columns, the bid-id →
/// tenant column, a running count, and the lazily settled cost totals.
/// See the module docs for the wake-set contract.
struct WakeupFleet {
    // Session-wide configuration (identical across tenants).
    job: JobSpec,
    on_demand: Price,
    slot_len: Hours,
    slots_needed: u64,
    max_resubmissions: u32,
    /// Visit every runner every slot, emitting its `Charged` event (set
    /// only when the session logs events).
    carry_runners: bool,

    // Struct-of-arrays tenant columns, indexed by tag.
    strategy: Vec<BiddingStrategy>,
    flags: Vec<u8>,
    /// Live bid id, [`NO_BID`] when none.
    bid_id: Vec<u64>,
    slots_run: Vec<u64>,
    interruptions: Vec<u32>,
    resubmissions: Vec<u32>,
    /// First slot not yet charged to a running tenant's total.
    run_since: Vec<u64>,

    /// Owning tenant per market bid id, [`NO_OWNER`] for background bids.
    owner: Vec<u32>,
    /// Every advanced slot's spot charge, for lazy settlement.
    charges: SlotCharges,
    /// Per-tenant cost totals: on-demand charges, settled spot charges.
    costs: CostTotals,
    /// Tenants currently running (flagged [`T_RUNNING`]).
    running: usize,
    /// Tenants whose decision was applied this `before_slot` — they must
    /// see this slot's report (new bids) or report done (on-demand).
    fresh: Vec<u32>,
    /// Tenants queued to (re-)submit at the next `before_slot`.
    needy: Vec<u32>,
    /// Tenants not yet [`T_DONE`] — the kernel demand and the Done check.
    active: usize,
    shard_rngs: Vec<Rng>,
    stats: FleetStats,

    // Scratch buffers (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
}

impl WakeupFleet {
    fn new(
        strategies: &[BiddingStrategy],
        cfg: &ClosedLoopConfig,
        streams: &RngStreams,
        carry_runners: bool,
    ) -> Self {
        let n = strategies.len();
        assert!(
            n < NO_OWNER as usize,
            "wakeup fleet supports < 2^32 - 1 tenants"
        );
        // Identical substream reservation to the dense fleet: 0 and 1
        // belong to the market and the background process, 2+ to shards.
        let max_shards = n.div_ceil(SHARD_SIZE);
        let mut chain = streams.streams(2 + max_shards);
        let shard_rngs = chain.split_off(2);
        WakeupFleet {
            job: cfg.job,
            on_demand: cfg.on_demand,
            slot_len: cfg.slot_len,
            slots_needed: cfg.job.slots_needed(),
            max_resubmissions: cfg.max_resubmissions,
            carry_runners,
            strategy: strategies.to_vec(),
            flags: vec![T_NEEDS_SUBMIT; n],
            bid_id: vec![NO_BID; n],
            slots_run: vec![0; n],
            interruptions: vec![0; n],
            resubmissions: vec![0; n],
            run_since: vec![0; n],
            owner: Vec::new(),
            charges: SlotCharges::new(1),
            costs: CostTotals::new(n),
            running: 0,
            fresh: Vec::new(),
            needy: (0..n as u32).collect(),
            active: n,
            shard_rngs,
            stats: FleetStats::default(),
            sc_woken: Vec::new(),
            sc_order: Vec::new(),
        }
    }

    fn remaining_work(&self, tu: usize) -> Hours {
        (self.job.execution - self.slot_len * self.slots_run[tu] as f64).max(Hours::ZERO)
    }

    /// Marks a tenant finished for the session.
    fn finish(&mut self, tu: usize) {
        debug_assert_eq!(self.flags[tu] & T_DONE, 0);
        self.flags[tu] |= T_DONE;
        self.active -= 1;
    }

    /// Charges a running tenant its carried slots `[run_since, end)` and
    /// moves `run_since` to `end`; a no-op for a tenant not running.
    fn settle(&mut self, t: u32, end: u64) {
        let tu = t as usize;
        if self.flags[tu] & T_RUNNING == 0 {
            return;
        }
        let since = self.run_since[tu];
        self.charges
            .settle(&mut self.costs, t, since, end, std::iter::once(0));
        self.slots_run[tu] += end - since;
        self.run_since[tu] = end;
    }

    /// Acts on a resolved strategy decision — byte-for-byte the dense
    /// fleet's `apply_decision` (its on-demand charge validated and added
    /// here), plus the bid-owner column and the fresh-wake queue.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] for an invalid on-demand charge.
    fn apply_decision(
        &mut self,
        t: u32,
        decision: BidDecision,
        slot: u64,
        source: &mut ClosedLoopSource,
        emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        let tu = t as usize;
        match decision {
            BidDecision::OnDemand { price } => {
                let work = self.remaining_work(tu);
                if work > Hours::ZERO {
                    let item = LineItem {
                        slot,
                        price,
                        duration: work,
                        kind: UsageKind::OnDemand,
                        tag: t,
                    };
                    emit(Event::Charged { item });
                    self.costs.try_charge(&item)?;
                }
                self.flags[tu] |= T_COMPLETED | T_DONE_PENDING;
                emit(Event::Completed { slot, tenant: t });
            }
            BidDecision::Spot { price, persistent } => {
                let remaining = (self.slots_needed - self.slots_run[tu]).max(1) as u32;
                let id = source.market.submit(BidRequest {
                    price,
                    kind: if persistent {
                        BidKind::Persistent
                    } else {
                        BidKind::OneTime
                    },
                    work: WorkModel::FixedSlots(remaining),
                });
                self.bid_id[tu] = id.0;
                set_owner(&mut self.owner, id, t);
                emit(Event::BidSubmitted {
                    slot,
                    tenant: t,
                    price,
                    persistent,
                });
            }
        }
        self.fresh.push(t);
        Ok(())
    }

    /// Advances one woken tenant against the slot report — the dense
    /// fleet's `slot_update` over columns, with a slot it ran charged to
    /// its total here and the running count kept. Returns whether the
    /// tenant ran this slot.
    fn tenant_slot_update(
        &mut self,
        t: u32,
        slot: u64,
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
    ) -> bool {
        let tu = t as usize;
        let f = self.flags[tu];
        if f & T_DONE != 0 {
            return false;
        }
        if f & T_DONE_PENDING != 0 {
            self.finish(tu);
            return false;
        }
        if self.bid_id[tu] == NO_BID {
            return false;
        }
        let id = BidId(self.bid_id[tu]);
        let started = report.started.binary_search(&id).is_ok();
        let interrupted = report.interrupted.binary_search(&id).is_ok();
        let finished = report.finished.binary_search(&id).is_ok();
        let terminated = report.terminated.binary_search(&id).is_ok();
        let was_running = f & T_RUNNING != 0;
        let ran = started || (was_running && !interrupted && !terminated);
        if started {
            self.flags[tu] |= T_RUNNING;
            emit(Event::BidAccepted { slot, tenant: t });
            self.running += 1;
        }
        if interrupted {
            self.interruptions[tu] += 1;
            emit(Event::Interrupted { slot, tenant: t });
        }
        if ran {
            // The provider charges running bids the posted price per slot
            // (§3.2); mirror the market's internal `charged` accrual in
            // this tenant's own total.
            self.slots_run[tu] += 1;
            emit(Event::Charged {
                item: LineItem {
                    slot,
                    price: report.price,
                    duration: self.job.slot,
                    kind: UsageKind::Spot,
                    tag: t,
                },
            });
            self.costs.add(t, self.charges.at(slot, 0));
        }
        if interrupted || terminated || finished {
            if was_running || started {
                self.running -= 1;
            }
            self.flags[tu] &= !T_RUNNING;
        }
        if finished {
            self.flags[tu] |= T_COMPLETED;
            emit(Event::Completed { slot, tenant: t });
            self.finish(tu);
            return ran;
        }
        if terminated {
            emit(Event::Rejected { slot, tenant: t });
            self.bid_id[tu] = NO_BID;
            if self.resubmissions[tu] < self.max_resubmissions {
                self.resubmissions[tu] += 1;
                self.flags[tu] |= T_NEEDS_SUBMIT;
                self.needy.push(t);
            } else {
                self.finish(tu);
            }
        }
        ran
    }

    fn status(&self) -> DriverStatus {
        if self.active == 0 {
            DriverStatus::Done
        } else {
            DriverStatus::Active
        }
    }
}

impl JobDriver<ClosedLoopSource> for WakeupFleet {
    fn demand(&self) -> usize {
        self.active
    }

    fn before_slot(
        &mut self,
        slot: u64,
        source: &mut ClosedLoopSource,
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
        needy.retain(|&t| {
            let f = &mut self.flags[t as usize];
            if *f & (T_DONE | T_DONE_PENDING) == 0 && *f & T_NEEDS_SUBMIT != 0 {
                *f &= !T_NEEDS_SUBMIT;
                true
            } else {
                false
            }
        });
        if needy.is_empty() {
            self.needy = needy;
            return Ok(());
        }
        // One history snapshot and one price view for the whole slot,
        // shared read-only by every shard (a decision is a pure function
        // of the view, so this equals the dense fleet's per-tenant
        // `decide`); identical sharded fan-out to the dense fleet: same
        // shard cuts, same reserved RNG substreams, same order-stable
        // merge.
        let history = source.observed()?;
        let view = PriceView::new(&history, self.on_demand);
        let shards = needy.len().div_ceil(SHARD_SIZE);
        let (shard_rngs, strategy, job) = (&self.shard_rngs, &self.strategy, &self.job);
        let decisions: Vec<Vec<Result<BidDecision, CoreError>>> =
            spotbid_exec::par_map(shards, |s| {
                let mut _rng = shard_rngs[s].clone(); // reserved, see dense
                let lo = s * SHARD_SIZE;
                let hi = (lo + SHARD_SIZE).min(needy.len());
                needy[lo..hi]
                    .iter()
                    .map(|&t| strategy[t as usize].decide_with(&view, job))
                    .collect()
            });
        // Serial, ordered apply: bid ids and events come out exactly as if
        // each tenant had decided in turn.
        let mut flat = decisions.into_iter().flatten();
        for &t in &needy {
            let decision = flat
                .next()
                .expect("one decision per needy tenant")
                .map_err(EngineError::Core)?;
            self.apply_decision(t, decision, slot, source, emit)?;
        }
        needy.clear();
        self.needy = needy;
        Ok(())
    }

    fn on_slot(
        &mut self,
        slot: u64,
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        self.stats.slots += 1;
        debug_assert_eq!(self.charges.slots(), slot);
        self.charges.push(report.price, self.job.slot);

        // This slot's wake set: fresh decisions plus the report's owners.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        woken.append(&mut self.fresh);
        push_owners(&self.owner, report, &mut woken);

        if woken.is_empty() && self.running == 0 {
            // Nothing fired and nothing is running: the dense fleet would
            // have scanned every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            self.sc_woken = woken;
            return Ok(self.status());
        }

        // Process in ascending tenant order — the dense fleet's scan
        // order. Carried runners join only when their `Charged` events
        // are wanted, or when the slot's spot charge is invalid: it is
        // refused only if somebody ran this slot.
        woken.sort_unstable();
        woken.dedup();
        self.stats.woken += woken.len() as u64;
        let refusal = spot_charge(slot, report.price, self.job.slot).err();
        let carry = self.carry_runners || refusal.is_some();
        let mut order = std::mem::take(&mut self.sc_order);
        let visit: &[u32] = if carry {
            let flags = &self.flags;
            with_runners(
                &woken,
                flags.len(),
                |tu| flags[tu] & T_RUNNING != 0,
                &mut order,
            );
            &order
        } else {
            &woken
        };

        let mut ran_any = false;
        for &t in visit {
            self.settle(t, slot);
            ran_any |= self.tenant_slot_update(t, slot, report, emit);
            self.run_since[t as usize] = slot + 1;
        }
        self.sc_woken = woken;
        self.sc_order = order;
        match refusal {
            Some(e) if ran_any => Err(e),
            _ => Ok(self.status()),
        }
    }
}

/// Shared closed-loop runner over the wakeup fleet (the public
/// `run_closed_loop*` entry points in the parent module delegate here).
pub(super) fn run(
    strategies: &[BiddingStrategy],
    cfg: &ClosedLoopConfig,
    seed: u64,
    faults: Option<&LoopFaults>,
    log: Option<&mut EventLog>,
) -> Result<(ClosedLoopReport, FleetStats), EngineError> {
    validate(strategies, cfg)?;

    let streams = RngStreams::new(seed);
    let mut source = ClosedLoopSource::new(cfg, &streams, faults, strategies.len());
    source.warmup(cfg.warmup_slots);

    let mut fleet = WakeupFleet::new(strategies, cfg, &streams, log.is_some());
    {
        let mut kernel = Kernel::new(cfg.slot_len, source);
        let horizon = Some(cfg.horizon_slots as u64);
        match log {
            Some(l) => kernel.run(&mut [&mut fleet], &mut [l], horizon)?,
            None => kernel.run(&mut [&mut fleet], &mut [], horizon)?,
        };
        source = kernel.into_source();
    }
    // Runners still running at the session end owe their carried slots.
    let end = fleet.charges.slots();
    for t in 0..fleet.strategy.len() as u32 {
        fleet.settle(t, end);
    }

    let finals: Vec<TenantFinal> = (0..fleet.strategy.len())
        .map(|tu| TenantFinal {
            tag: tu as u32,
            strategy: fleet.strategy[tu],
            completed: fleet.flags[tu] & T_COMPLETED != 0,
            slots_run: fleet.slots_run[tu],
            interruptions: fleet.interruptions[tu],
            resubmissions: fleet.resubmissions[tu],
        })
        .collect();
    let report = assemble_report(&finals, fleet.costs, &source, cfg)?;
    Ok((report, fleet.stats))
}
