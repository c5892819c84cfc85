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
//! Collecting the owners also records, in a per-tenant byte column, which
//! of the four lists named the tenant's *live* bid, plus a woken bit that
//! keeps each tenant in the wake set once. A woken tenant reads its bits
//! instead of searching the report (a stale id, of a bid the tenant has
//! since replaced, wakes its owner but sets no bit).
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
//! dense run's zero-activity slots.
//!
//! Tenants are grouped at construction into classes of bit-identical
//! strategies. A decision is a pure function of the strategy, the slot's
//! price view and the session job, so each class decides once per slot
//! and its tenants share the result; the first tenant of a failing class
//! raises the error, as the per-tenant order would. Decisions are applied
//! serially in ascending tenant order, after one reservation of the
//! market's bid columns for the whole wave, and wakeups are processed in
//! ascending tenant order — so bid ids, event order, costs, and RNG draws
//! are **bit-identical** to [`super::dense`] at any `SPOTBID_THREADS`
//! (`tests/wakeup_equiv.rs`). The fleet draws no randomness and reserves
//! no substream of its own.

use super::{
    assemble_report, spot_charge, validate, ClosedLoopConfig, ClosedLoopReport, ClosedLoopSource,
    LoopFaults, SlotCharges, TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver, Kernel};
use crate::observer::{CostTotals, EventLog};
use crate::EngineError;
use spotbid_core::{BidDecision, BiddingStrategy, JobSpec, PriceView};
use spotbid_market::sim::{reserve_pow2, BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::RngStreams;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

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

// Report bits: which of the slot report's lists named a tenant's live bid
// (the `wake` column of the single-market fleet, a leg's `report` byte in
// the portfolio fleet).
/// Listed in [`SlotReport::started`].
pub(super) const R_STARTED: u8 = 1 << 0;
/// Listed in [`SlotReport::interrupted`].
pub(super) const R_INTERRUPTED: u8 = 1 << 1;
/// Listed in [`SlotReport::finished`].
pub(super) const R_FINISHED: u8 = 1 << 2;
/// Listed in [`SlotReport::terminated`].
pub(super) const R_TERMINATED: u8 = 1 << 3;
/// In this slot's wake set already.
const W_WOKEN: u8 = 1 << 4;

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

/// Calls `f(tenant, id, bit)` for every tenant bid `report` names, with
/// the report bit of the list naming it — the slot's report-driven wake
/// set, list by list.
pub(super) fn for_each_owner(
    owner: &[u32],
    report: &SlotReport,
    mut f: impl FnMut(u32, BidId, u8),
) {
    for (ids, bit) in [
        (&report.started, R_STARTED),
        (&report.interrupted, R_INTERRUPTED),
        (&report.finished, R_FINISHED),
        (&report.terminated, R_TERMINATED),
    ] {
        for &id in ids {
            match owner.get(id.0 as usize) {
                Some(&t) if t != NO_OWNER => f(t, id, bit),
                _ => {}
            }
        }
    }
}

/// Grows a bid-id → tenant column to hold every id a market will have
/// issued after `more` submissions beyond its `submitted` so far.
pub(super) fn reserve_owners(owner: &mut Vec<u32>, submitted: usize, more: usize) {
    reserve_pow2(owner, (submitted + more).saturating_sub(owner.len()));
}

/// A multiplicative hasher for the fleets' fixed-width strategy keys.
/// Classifying 50k tenants through std's SipHash costs about five times
/// as much; the keys are not attacker-chosen.
#[derive(Default)]
pub(super) struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits on top; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // The keys are tuples of `u64`s, hashed through `write_u64`.
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
}

/// Strategy key → class index.
pub(super) type ClassMap<K> = HashMap<K, u32, BuildHasherDefault<MulHasher>>;

/// The class of `key` in `ids`, a new one (the next index) if unseen.
pub(super) fn intern_class<K: Hash + Eq>(ids: &mut ClassMap<K>, key: K) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(key).or_insert(next)
}

/// A strategy's identity as a class key: its variant and the bits of its
/// parameter, so two keys are equal exactly when the strategies are
/// bit-identical.
pub(super) fn strategy_key(s: &BiddingStrategy) -> (u64, u64) {
    match *s {
        BiddingStrategy::OptimalOneTime => (0, 0),
        BiddingStrategy::OptimalPersistent => (1, 0),
        BiddingStrategy::Percentile(p) => (2, p.to_bits()),
        BiddingStrategy::FixedBid(p) => (3, p.as_f64().to_bits()),
        BiddingStrategy::BestOffline { lookback_hours } => (4, lookback_hours.to_bits()),
        BiddingStrategy::OnDemand => (5, 0),
    }
}

/// Each strategy class's decision for the slot being decided.
#[derive(Debug)]
pub(super) struct DecisionMemo<D> {
    /// Per class: 1 + the index of its decision in `made`, 0 if undecided.
    at: Vec<u32>,
    /// The decisions made since the last [`clear`](Self::clear), with
    /// their classes.
    made: Vec<(u32, D)>,
}

impl<D> DecisionMemo<D> {
    pub(super) fn new() -> Self {
        DecisionMemo {
            at: Vec::new(),
            made: Vec::new(),
        }
    }

    /// Class `c`'s decision, made by `decide` on the class's first use.
    /// A failed decision is not kept.
    pub(super) fn decide<E>(
        &mut self,
        c: u32,
        decide: impl FnOnce() -> Result<D, E>,
    ) -> Result<&D, E> {
        let c = c as usize;
        if self.at.len() <= c {
            self.at.resize(c + 1, 0);
        }
        if self.at[c] == 0 {
            self.made.push((c as u32, decide()?));
            self.at[c] = self.made.len() as u32;
        }
        Ok(&self.made[self.at[c] as usize - 1].1)
    }

    /// Class `c`'s decision; it must have been made since the last clear.
    pub(super) fn get(&self, c: u32) -> &D {
        &self.made[self.at[c as usize] as usize - 1].1
    }

    /// Forgets every decision (the next slot has a new view).
    pub(super) fn clear(&mut self) {
        for (c, _) in self.made.drain(..) {
            self.at[c as usize] = 0;
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

    /// One strategy per class of bit-identical tenant strategies.
    classes: Vec<BiddingStrategy>,
    /// This slot's decision per class.
    memo: DecisionMemo<BidDecision>,

    // Struct-of-arrays tenant columns, indexed by tag.
    /// The tenant's index into `classes`.
    class_of: Vec<u32>,
    flags: Vec<u8>,
    /// `R_*` bits of this slot's report plus [`W_WOKEN`]; zero outside
    /// `on_slot`.
    wake: Vec<u8>,
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
    stats: FleetStats,

    // Scratch buffers (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
}

impl WakeupFleet {
    fn new(strategies: &[BiddingStrategy], cfg: &ClosedLoopConfig, carry_runners: bool) -> Self {
        let n = strategies.len();
        assert!(
            n < NO_OWNER as usize,
            "wakeup fleet supports < 2^32 - 1 tenants"
        );
        let mut ids = ClassMap::default();
        let mut classes = Vec::new();
        let class_of = strategies
            .iter()
            .map(|s| {
                let c = intern_class(&mut ids, strategy_key(s));
                if c as usize == classes.len() {
                    classes.push(*s);
                }
                c
            })
            .collect();
        WakeupFleet {
            job: cfg.job,
            on_demand: cfg.on_demand,
            slot_len: cfg.slot_len,
            slots_needed: cfg.job.slots_needed(),
            max_resubmissions: cfg.max_resubmissions,
            carry_runners,
            classes,
            memo: DecisionMemo::new(),
            class_of,
            flags: vec![T_NEEDS_SUBMIT; n],
            wake: vec![0; n],
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
    /// here), plus the bid-owner column and the fresh-wake queue (and the
    /// tenant's woken bit).
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
        self.wake[tu] |= W_WOKEN;
        self.fresh.push(t);
        Ok(())
    }

    /// Advances one woken tenant against the slot report — the dense
    /// fleet's `slot_update` over columns, with the report's verdict on
    /// the tenant's bid read from (and cleared in) its `wake` bits, a slot
    /// it ran charged to its total here and the running count kept.
    /// Returns whether the tenant ran this slot.
    fn tenant_slot_update(
        &mut self,
        t: u32,
        slot: u64,
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
    ) -> bool {
        let tu = t as usize;
        let bits = std::mem::take(&mut self.wake[tu]);
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
        let started = bits & R_STARTED != 0;
        let interrupted = bits & R_INTERRUPTED != 0;
        let finished = bits & R_FINISHED != 0;
        let terminated = bits & R_TERMINATED != 0;
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
        // One history snapshot and one price view for the whole slot.
        // Each strategy class decides once, in tenant order; a failed
        // decision ends the pass, and its error is raised once every
        // earlier tenant's decision has been applied, where the
        // per-tenant order raises it.
        let history = source.observed()?;
        let view = PriceView::new(&history, self.on_demand);
        self.memo.clear();
        let (mut decided, mut spot, mut failure) = (0, 0, None);
        for &t in &needy {
            let c = self.class_of[t as usize];
            let strategy = &self.classes[c as usize];
            match self
                .memo
                .decide(c, || strategy.decide_with(&view, &self.job))
            {
                Ok(d) => spot += usize::from(matches!(d, BidDecision::Spot { .. })),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            decided += 1;
        }
        // The wave's bids grow the market's columns and the owner column
        // once.
        source.market.reserve(spot);
        reserve_owners(&mut self.owner, source.market.submitted(), spot);
        reserve_pow2(&mut self.fresh, decided);
        // Serial, ordered apply: bid ids and events come out exactly as if
        // each tenant had decided in turn.
        for &t in &needy[..decided] {
            let decision = *self.memo.get(self.class_of[t as usize]);
            self.apply_decision(t, decision, slot, source, emit)?;
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
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        self.stats.slots += 1;
        debug_assert_eq!(self.charges.slots(), slot);
        self.charges.push(report.price, self.job.slot);

        // This slot's wake set: fresh decisions plus the report's owners,
        // each once; a live bid's report bits go to its owner.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        woken.append(&mut self.fresh);
        let (bid_id, wake) = (&self.bid_id, &mut self.wake);
        for_each_owner(&self.owner, report, |t, id, bit| {
            let w = &mut wake[t as usize];
            if *w & W_WOKEN == 0 {
                *w |= W_WOKEN;
                woken.push(t);
            }
            if bid_id[t as usize] == id.0 {
                *w |= bit;
            }
        });

        if woken.is_empty() && self.running == 0 {
            // Nothing fired and nothing is running: the dense fleet would
            // have scanned every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            self.sc_woken = woken;
            return Ok(self.status());
        }

        // Process in ascending tenant order — the dense fleet's scan
        // order; the fresh and per-list owner runs are mostly ascending
        // already. Carried runners join only when their `Charged` events
        // are wanted, or when the slot's spot charge is invalid: it is
        // refused only if somebody ran this slot.
        woken.sort();
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

    let mut fleet = WakeupFleet::new(strategies, cfg, log.is_some());
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
    for t in 0..fleet.flags.len() as u32 {
        fleet.settle(t, end);
    }

    let costs = std::mem::replace(&mut fleet.costs, CostTotals::new(0));
    let f = &fleet;
    let finals = (0..f.flags.len()).map(|tu| TenantFinal {
        tag: tu as u32,
        strategy: f.classes[f.class_of[tu] as usize],
        completed: f.flags[tu] & T_COMPLETED != 0,
        slots_run: f.slots_run[tu],
        interruptions: f.interruptions[tu],
        resubmissions: f.resubmissions[tu],
    });
    let report = assemble_report(finals, costs, &source, cfg)?;
    Ok((report, fleet.stats))
}
