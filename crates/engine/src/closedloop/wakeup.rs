//! The event-driven wakeup fleet: touch a tenant only when something it
//! cares about happens.
//!
//! The dense fleet re-evaluates every tenant every slot, so a 10k-tenant
//! loop pays 10k binary-search walks per slot even when the posted price
//! moved nowhere near anyone's threshold. This fleet mirrors the market's
//! own bid-book trick on the tenant side (DESIGN.md §5f): tenant state
//! lives in struct-of-arrays columns, and a slot wakes exactly
//!
//! - **fresh** tenants whose decision was applied this slot (new bid
//!   submissions, on-demand resolutions awaiting their `Completed` turn);
//! - **calendar** hits: tenants whose running bid is due to finish this
//!   slot (scheduled at start from the bid's remaining slots, exactly the
//!   market's own finish calendar), plus unconditional re-wakes armed
//!   while a tenant's bid sits parked — after a capacity-reclamation
//!   outage, or after the finite-supply capacity pass named the bid in
//!   [`SlotReport::evicted`] (the per-slot capacity delta);
//! - **swept** tenants: when the price falls from `p_prev` to `p`, the
//!   price-indexed wakeup buckets yield every pending tenant whose bid
//!   threshold lies in `[p, p_prev)` — the only pendings the market can
//!   have started;
//! - **running** tenants (they accrue a charge every slot by §3.2, so
//!   there is no skipping them — but quiet fleets have none).
//!
//! A slot where all four sets are empty is *skipped* in O(1)
//! ([`FleetStats::skipped_slots`]); fault-free, those are exactly the
//! dense run's zero-activity slots. Wakeups are processed in ascending
//! tenant order (a sorted merge of the sets), decisions fan out over the
//! same 64-tenant shards with the same reserved RNG substreams, and bid
//! submission stays serial in tenant order — so bid ids, event order,
//! bills, and RNG draws are **bit-identical** to [`super::dense`] at any
//! `SPOTBID_THREADS` (`tests/wakeup_equiv.rs`).

use super::dense::SHARD_SIZE;
use super::{
    assemble_report, validate, ClosedLoopConfig, ClosedLoopReport, ClosedLoopSource, LoopFaults,
    TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver, Kernel};
use crate::observer::{CostTotals, EventLog, Observer};
use crate::EngineError;
use spotbid_core::{BidDecision, BiddingStrategy, CoreError, JobSpec, PriceView};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};
use std::collections::BTreeMap;

/// Wakeup-bucket count — matches the market's bid-book resolution so a
/// sweep touches comparable boundary work on both sides of the loop.
const WAKE_BUCKETS: usize = 512;

/// `bid_id` column sentinel: no live bid.
const NO_BID: u64 = u64::MAX;
/// `pos_of` column sentinel: not registered in any wakeup bucket.
const NO_POS: u32 = u32::MAX;
/// Calendar-entry flag bit: wake unconditionally (armed across a
/// reclamation outage while the tenant's bid is parked in the market).
/// Tenant indices are asserted `< 2^31`, so the bit never collides.
const UNCOND: u32 = 1 << 31;

// Tenant state flags (the `flags` struct-of-arrays column).
/// Finished for the session (reported `DriverStatus::Done` equivalent).
const T_DONE: u8 = 1 << 0;
/// Its bid is currently running (member of the fleet's `running` list).
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
    /// Slots skipped in O(1): no wake fired and nothing was running.
    /// Fault-free, exactly the dense run's zero-activity slots.
    pub skipped_slots: u64,
    /// Total tenant wakeups processed across all slots.
    pub woken: u64,
}

/// Price-indexed wakeup buckets over *pending* tenants: tenant `t` is
/// registered under its current bid threshold, and a price fall from
/// `pp` to `pf` yields every registered tenant with threshold `≥ pf` in
/// the crossed range — the only pendings the market's own sweep can have
/// started. Same bucket classifier as the market bid-book (including the
/// ulp-repair walk), so boundary prices land consistently.
#[derive(Debug)]
struct WakeupBook {
    buckets: Vec<Vec<u32>>,
    lo: f64,
    w: f64,
    /// Current bid price per tenant (written at submit, read at
    /// registration and sweep filtering).
    threshold: Vec<f64>,
    bucket_of: Vec<u32>,
    /// Position in the bucket list, [`NO_POS`] when unregistered.
    pos_of: Vec<u32>,
}

impl WakeupBook {
    fn new(n: usize, params: &MarketParams) -> Self {
        WakeupBook {
            buckets: vec![Vec::new(); WAKE_BUCKETS],
            lo: params.pi_min.as_f64(),
            w: params.spread().as_f64() / WAKE_BUCKETS as f64,
            threshold: vec![0.0; n],
            bucket_of: vec![0; n],
            pos_of: vec![NO_POS; n],
        }
    }

    fn set_threshold(&mut self, t: u32, price: f64) {
        self.threshold[t as usize] = price;
    }

    fn contains(&self, t: u32) -> bool {
        self.pos_of[t as usize] != NO_POS
    }

    fn register(&mut self, t: u32) {
        let tu = t as usize;
        debug_assert!(!self.contains(t), "tenant {t} already registered");
        let b = self.bucket_index(self.threshold[tu]);
        self.bucket_of[tu] = b as u32;
        self.pos_of[tu] = self.buckets[b].len() as u32;
        self.buckets[b].push(t);
    }

    fn unregister(&mut self, t: u32) {
        let tu = t as usize;
        let b = self.bucket_of[tu] as usize;
        let p = self.pos_of[tu] as usize;
        let list = &mut self.buckets[b];
        debug_assert_eq!(list[p], t);
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos_of[moved as usize] = p as u32;
        }
        self.pos_of[tu] = NO_POS;
    }

    /// All registered tenants with threshold in `[pf, pp)`-or-above within
    /// the crossed bucket range: the boundary bucket is filtered exactly,
    /// inner buckets are taken wholesale (fault-free their thresholds are
    /// `< pp` by the pending-resident invariant; a parked-bid leftover
    /// above `pp` only ever produces a harmless spurious wake).
    fn sweep_fall(&self, pf: f64, pp: f64, out: &mut Vec<u32>) {
        let k_lo = self.bucket_index(pf);
        let k_hi = self.bucket_index(pp);
        for &t in &self.buckets[k_lo] {
            if self.threshold[t as usize] >= pf {
                out.push(t);
            }
        }
        for b in (k_lo + 1)..=k_hi {
            out.extend_from_slice(&self.buckets[b]);
        }
    }

    /// Bucket for price `p` — same classifier as the market bid-book:
    /// clamped linear index plus an exact repair walk, so float error in
    /// the division can never misfile a boundary price.
    fn bucket_index(&self, p: f64) -> usize {
        let raw = (p - self.lo) / self.w;
        let mut i = if raw.is_finite() {
            if raw <= 0.0 {
                0
            } else {
                (raw as usize).min(WAKE_BUCKETS - 1)
            }
        } else if raw == f64::INFINITY {
            WAKE_BUCKETS - 1
        } else {
            0
        };
        while i > 0 && p < self.lo + i as f64 * self.w {
            i -= 1;
        }
        while i + 1 < WAKE_BUCKETS && p >= self.lo + (i + 1) as f64 * self.w {
            i += 1;
        }
        i
    }
}

/// The event-driven tenant fleet: struct-of-arrays columns, a wakeup
/// book over pending thresholds, a calendar queue over scheduled
/// finishes, and a sorted running list. See the module docs for the
/// wake-set contract.
struct WakeupFleet {
    // Session-wide configuration (identical across tenants).
    job: JobSpec,
    on_demand: Price,
    slot_len: Hours,
    slots_needed: u64,
    max_resubmissions: u32,

    // Struct-of-arrays tenant columns, indexed by tag.
    strategy: Vec<BiddingStrategy>,
    flags: Vec<u8>,
    /// Live bid id, [`NO_BID`] when none.
    bid_id: Vec<u64>,
    /// Total `slots_run` at which the live bid finishes
    /// (`slots_run`-at-submit + the bid's requested slots).
    quota: Vec<u64>,
    /// Scheduled finish slot of the current run streak (valid while
    /// [`T_RUNNING`]; stale entries are validated on pop).
    due: Vec<u64>,
    slots_run: Vec<u64>,
    interruptions: Vec<u32>,
    resubmissions: Vec<u32>,

    // Wakeup machinery.
    book: WakeupBook,
    /// slot → wake entries (tenant index, optionally [`UNCOND`]-flagged).
    calendar: BTreeMap<u64, Vec<u32>>,
    /// Spent calendar vectors, recycled to keep steady state allocation-free.
    cal_pool: Vec<Vec<u32>>,
    /// Tenants currently running, ascending (rebuilt by sorted merge).
    running: Vec<u32>,
    /// Tenants whose decision was applied this `before_slot` — they must
    /// see this slot's report (new bids) or report done (on-demand).
    fresh: Vec<u32>,
    /// Tenants queued to (re-)submit at the next `before_slot`.
    needy: Vec<u32>,
    /// Tenants not yet [`T_DONE`] — the kernel demand and the Done check.
    active: usize,
    /// Last posted price (∞ before the first tenant-visible slot, exactly
    /// the market's own pre-first-step posted price).
    prev_price: f64,
    /// Kernel-slot-indexed reclamation outages (from [`LoopFaults`],
    /// warmup offset already applied). Empty when fault-free.
    reclaim_mask: Vec<bool>,
    /// Target slot of each tenant's last unconditional calendar arm: the
    /// already-armed guard that keeps back-to-back outages (or an outage
    /// coinciding with a capacity eviction) from pushing duplicate
    /// entries into one wake list.
    armed_until: Vec<u64>,
    shard_rngs: Vec<Rng>,
    stats: FleetStats,

    // Scratch buffers (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
    sc_started: Vec<u32>,
    sc_removed: Vec<u32>,
    sc_run_next: Vec<u32>,
}

impl WakeupFleet {
    fn new(
        strategies: &[BiddingStrategy],
        cfg: &ClosedLoopConfig,
        streams: &RngStreams,
        reclaim_mask: Vec<bool>,
    ) -> Self {
        let n = strategies.len();
        assert!(n < (1 << 31), "wakeup fleet supports < 2^31 tenants");
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
            strategy: strategies.to_vec(),
            flags: vec![T_NEEDS_SUBMIT; n],
            bid_id: vec![NO_BID; n],
            quota: vec![0; n],
            due: vec![0; n],
            slots_run: vec![0; n],
            interruptions: vec![0; n],
            resubmissions: vec![0; n],
            book: WakeupBook::new(n, &cfg.params),
            calendar: BTreeMap::new(),
            cal_pool: Vec::new(),
            running: Vec::new(),
            fresh: Vec::new(),
            needy: (0..n as u32).collect(),
            active: n,
            prev_price: f64::INFINITY,
            reclaim_mask,
            armed_until: vec![0; n],
            shard_rngs,
            stats: FleetStats::default(),
            sc_woken: Vec::new(),
            sc_order: Vec::new(),
            sc_started: Vec::new(),
            sc_removed: Vec::new(),
            sc_run_next: Vec::new(),
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

    fn calendar_push(&mut self, slot: u64, entry: u32) {
        let pool = &mut self.cal_pool;
        self.calendar
            .entry(slot)
            .or_insert_with(|| pool.pop().unwrap_or_default())
            .push(entry);
    }

    /// Arms an unconditional wake at `slot`, at most once per tenant per
    /// target slot (kernel slots start at 0, so armed targets are ≥ 1 and
    /// the zero-initialized column never aliases a real arm).
    fn arm_uncond(&mut self, slot: u64, t: u32) {
        let tu = t as usize;
        if self.armed_until[tu] != slot {
            self.armed_until[tu] = slot;
            self.calendar_push(slot, t | UNCOND);
        }
    }

    /// Acts on a resolved strategy decision — byte-for-byte the dense
    /// fleet's `apply_decision`, plus the wakeup bookkeeping (threshold
    /// write, fresh-wake queue).
    fn apply_decision(
        &mut self,
        t: u32,
        decision: BidDecision,
        slot: u64,
        source: &mut ClosedLoopSource,
        emit: &mut dyn FnMut(Event),
    ) {
        let tu = t as usize;
        match decision {
            BidDecision::OnDemand { price } => {
                let work = self.remaining_work(tu);
                if work > Hours::ZERO {
                    emit(Event::Charged {
                        item: LineItem {
                            slot,
                            price,
                            duration: work,
                            kind: UsageKind::OnDemand,
                            tag: t,
                        },
                    });
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
                self.quota[tu] = self.slots_run[tu] + remaining as u64;
                self.book.set_threshold(t, price.as_f64());
                emit(Event::BidSubmitted {
                    slot,
                    tenant: t,
                    price,
                    persistent,
                });
            }
        }
        self.fresh.push(t);
    }

    /// Advances one woken tenant against the slot report — the dense
    /// fleet's `slot_update` over columns, plus wakeup maintenance:
    /// started tenants leave the book and schedule their expected finish,
    /// idle pending tenants (re-)register their threshold, and run-list
    /// membership changes collect into `started_add`/`removed` for the
    /// post-pass sorted merge.
    fn tenant_slot_update(
        &mut self,
        t: u32,
        slot: u64,
        report: &SlotReport,
        emit: &mut dyn FnMut(Event),
        started_add: &mut Vec<u32>,
        removed: &mut Vec<u32>,
    ) {
        let tu = t as usize;
        let f = self.flags[tu];
        if f & T_DONE != 0 {
            return;
        }
        if f & T_DONE_PENDING != 0 {
            self.finish(tu);
            return;
        }
        if self.bid_id[tu] == NO_BID {
            return;
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
            if self.book.contains(t) {
                self.book.unregister(t);
            }
            started_add.push(t);
            // Schedule the expected finish: the bid needs `quota −
            // slots_run` more running slots starting with this one —
            // exactly the market's own finish calendar. An interruption
            // strands the entry; it is validated against `due` on pop.
            let rem = self.quota[tu] - self.slots_run[tu];
            let due = slot + rem - 1;
            self.due[tu] = due;
            if due > slot {
                self.calendar_push(due, t);
            }
        }
        if interrupted {
            self.interruptions[tu] += 1;
            emit(Event::Interrupted { slot, tenant: t });
        }
        if ran {
            // The provider charges running bids the posted price per slot
            // (§3.2); mirror the market's internal `charged` accrual in
            // this tenant's own ledger.
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
        }
        if interrupted || terminated || finished {
            if was_running || started {
                removed.push(t);
            }
            self.flags[tu] &= !T_RUNNING;
        }
        if finished {
            self.flags[tu] |= T_COMPLETED;
            emit(Event::Completed { slot, tenant: t });
            self.finish(tu);
            return;
        }
        if terminated {
            emit(Event::Rejected { slot, tenant: t });
            self.bid_id[tu] = NO_BID;
            if self.book.contains(t) {
                self.book.unregister(t);
            }
            if self.resubmissions[tu] < self.max_resubmissions {
                self.resubmissions[tu] += 1;
                self.flags[tu] |= T_NEEDS_SUBMIT;
                self.needy.push(t);
            } else {
                self.finish(tu);
            }
            return;
        }
        // Still holding a live pending bid and not running: the wakeup
        // book must track its threshold. Fresh pends, re-pended
        // persistents after an interruption, and parked bids waiting out
        // an outage all land here; already-registered tenants pass.
        if self.flags[tu] & T_RUNNING == 0 && !self.book.contains(t) {
            self.book.register(t);
        }
    }

    /// Rebuilds the sorted running list from this slot's membership
    /// changes: a three-pointer merge of the old list with `sc_started`,
    /// dropping `sc_removed` (all three ascending; a start-and-finish in
    /// the same slot appears in both deltas and nets out).
    fn merge_running(&mut self) {
        if self.sc_started.is_empty() && self.sc_removed.is_empty() {
            return;
        }
        let old = &self.running;
        let added = &self.sc_started;
        let removed = &self.sc_removed;
        let mut out = std::mem::take(&mut self.sc_run_next);
        out.clear();
        out.reserve(old.len() + added.len());
        let (mut i, mut j, mut r) = (0, 0, 0);
        while i < old.len() || j < added.len() {
            let x = if j >= added.len() || (i < old.len() && old[i] < added[j]) {
                let v = old[i];
                i += 1;
                v
            } else {
                let v = added[j];
                j += 1;
                v
            };
            while r < removed.len() && removed[r] < x {
                r += 1;
            }
            if r < removed.len() && removed[r] == x {
                r += 1;
            } else {
                out.push(x);
            }
        }
        self.sc_run_next = std::mem::replace(&mut self.running, out);
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
            self.apply_decision(t, decision, slot, source, emit);
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
        let pf = report.price.as_f64();
        let pp = self.prev_price;
        self.prev_price = pf;

        // Collect this slot's wake set.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        woken.extend_from_slice(&self.fresh);
        self.fresh.clear();
        if let Some(mut list) = self.calendar.remove(&slot) {
            for &e in &list {
                let t = e & !UNCOND;
                let tu = t as usize;
                // Plain entries are expected finishes: valid only if the
                // tenant is still running the streak that scheduled them.
                if e & UNCOND != 0 || (self.flags[tu] & T_RUNNING != 0 && self.due[tu] == slot) {
                    woken.push(t);
                }
            }
            list.clear();
            self.cal_pool.push(list);
        }
        if pf < pp {
            self.book.sweep_fall(pf, pp, &mut woken);
        }

        if woken.is_empty() && self.running.is_empty() {
            // Nothing fired and nothing is running: the dense fleet would
            // have scanned every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            self.sc_woken = woken;
            return Ok(self.status());
        }

        // Process in ascending tenant order — the dense fleet's scan
        // order — via a dedup merge of the (sorted) wake set with the
        // (sorted) running list.
        woken.sort_unstable();
        woken.dedup();
        let mut order = std::mem::take(&mut self.sc_order);
        order.clear();
        {
            let run = &self.running;
            order.reserve(woken.len() + run.len());
            let (mut i, mut j) = (0, 0);
            while i < woken.len() && j < run.len() {
                let (a, b) = (woken[i], run[j]);
                if a <= b {
                    order.push(a);
                    i += 1;
                    j += usize::from(a == b);
                } else {
                    order.push(b);
                    j += 1;
                }
            }
            order.extend_from_slice(&woken[i..]);
            order.extend_from_slice(&run[j..]);
        }
        self.stats.woken += order.len() as u64;

        let mut started_add = std::mem::take(&mut self.sc_started);
        let mut removed = std::mem::take(&mut self.sc_removed);
        started_add.clear();
        removed.clear();
        for &t in &order {
            self.tenant_slot_update(t, slot, report, emit, &mut started_add, &mut removed);
        }
        self.sc_started = started_add;
        self.sc_removed = removed;
        self.merge_running();

        // Parked bids resolve at the next slot's individual re-auctions —
        // which a price sweep cannot predict — so their owners are armed
        // unconditionally for the next slot. Two things park a bid:
        //
        // - a reclamation outage (every displaced and incoming bid): every
        //   woken tenant still holding a live non-running bid is re-armed,
        //   chaining across back-to-back outages;
        // - the finite-supply capacity pass: the market names the exact
        //   victim set in `report.evicted`, so only those bids' owners
        //   re-arm — every victim's owner is awake this slot (running
        //   victims were in the running list; would-be starters were
        //   swept, fresh, or parked-armed), so scanning `order` is
        //   complete. Quiet slots stay skippable under `Supply::Finite`.
        let outage = self
            .reclaim_mask
            .get(slot as usize)
            .copied()
            .unwrap_or(false);
        if outage || !report.evicted.is_empty() {
            for &t in &order {
                let tu = t as usize;
                if self.flags[tu] & (T_DONE | T_RUNNING) != 0 || self.bid_id[tu] == NO_BID {
                    continue;
                }
                if outage
                    || report
                        .evicted
                        .binary_search(&BidId(self.bid_id[tu]))
                        .is_ok()
                {
                    self.arm_uncond(slot + 1, t);
                }
            }
        }

        self.sc_woken = woken;
        self.sc_order = order;
        Ok(self.status())
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

    // The fleet sees kernel slots (0-based after warmup); shift the
    // absolute-slot fault plan accordingly.
    let reclaim_mask: Vec<bool> = match faults {
        Some(f) => (0..cfg.horizon_slots)
            .map(|s| f.reclaim_at(cfg.warmup_slots + s))
            .collect(),
        None => Vec::new(),
    };
    let mut fleet = WakeupFleet::new(strategies, cfg, &streams, reclaim_mask);
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
    let report = assemble_report(&finals, costs, &source, cfg)?;
    Ok((report, fleet.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_market::sim::Supply;

    fn book(n: usize) -> WakeupBook {
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap();
        WakeupBook::new(n, &params)
    }

    /// A hostile threshold for draw `u`: boundary-exact grid points,
    /// below-floor, above-cap, and plain uniform values.
    fn threshold(b: &WakeupBook, rng: &mut Rng) -> f64 {
        match rng.range_f64(0.0, 4.0) as usize {
            0 => {
                let k = rng.range_f64(0.0, WAKE_BUCKETS as f64 + 1.0).floor();
                b.lo + k * b.w
            }
            1 => rng.range_f64(-0.05, b.lo),
            2 => rng.range_f64(b.lo + WAKE_BUCKETS as f64 * b.w, 1.0),
            _ => rng.range_f64(b.lo, b.lo + WAKE_BUCKETS as f64 * b.w),
        }
    }

    /// Full structural audit: every bucket list position agrees with
    /// `pos_of`/`bucket_of`, every member's bucket is its threshold's
    /// classifier bucket, and membership matches the reference set.
    fn audit(b: &WakeupBook, registered: &[bool]) {
        let mut seen = 0;
        for (k, list) in b.buckets.iter().enumerate() {
            for (p, &t) in list.iter().enumerate() {
                let tu = t as usize;
                assert!(
                    registered[tu],
                    "tenant {t} in bucket {k} but not registered"
                );
                assert_eq!(b.bucket_of[tu] as usize, k);
                assert_eq!(b.pos_of[tu] as usize, p);
                assert_eq!(b.bucket_index(b.threshold[tu]), k, "misfiled threshold");
                seen += 1;
            }
        }
        let expect = registered.iter().filter(|&&r| r).count();
        assert_eq!(seen, expect, "bucket membership drifted from the reference");
    }

    #[test]
    fn bucket_membership_survives_arbitrary_reregistration() {
        let n = 300;
        let mut b = book(n);
        let mut registered = vec![false; n];
        let mut rng = Rng::seed_from_u64(0xB00C);
        for step in 0..20_000 {
            let t = rng.range_f64(0.0, n as f64) as u32 % n as u32;
            if registered[t as usize] {
                b.unregister(t);
                registered[t as usize] = false;
            } else {
                let thr = threshold(&b, &mut rng);
                b.set_threshold(t, thr);
                b.register(t);
                registered[t as usize] = true;
            }
            if step % 997 == 0 {
                audit(&b, &registered);
            }
        }
        audit(&b, &registered);
    }

    #[test]
    fn sweep_yields_every_threshold_in_the_crossed_range() {
        let n = 400;
        let mut b = book(n);
        let mut registered = vec![false; n];
        let mut rng = Rng::seed_from_u64(0x5EEB);
        for t in 0..n as u32 {
            if rng.chance(0.7) {
                b.set_threshold(t, threshold(&b, &mut rng));
                b.register(t);
                registered[t as usize] = true;
            }
        }
        for _ in 0..2_000 {
            let a = threshold(&b, &mut rng).max(0.0);
            let c = threshold(&b, &mut rng).max(0.0);
            let (pf, pp) = if a < c { (a, c) } else { (c, a) };
            let mut out = Vec::new();
            b.sweep_fall(pf, pp, &mut out);
            out.sort_unstable();
            // Completeness: every registered threshold in [pf, pp) — the
            // prices the market's own fall sweep can have started — is
            // woken. (The sweep may also wake stale thresholds ≥ pp;
            // spurious wakes are harmless by contract.)
            for t in 0..n as u32 {
                let thr = b.threshold[t as usize];
                if registered[t as usize] && thr >= pf && thr < pp {
                    assert!(
                        out.binary_search(&t).is_ok(),
                        "threshold {thr} in [{pf}, {pp}) slept through the sweep"
                    );
                }
            }
            // Soundness: nothing below pf is ever woken.
            for &t in &out {
                assert!(
                    b.threshold[t as usize] >= pf,
                    "woke a threshold below the fall"
                );
            }
        }
    }

    #[test]
    fn repeated_uncond_arms_pin_single_wake_entry() {
        // The already-armed guard: arming the same tenant for the same
        // target slot twice (back-to-back outages, or an outage plus a
        // capacity eviction in one slot) must leave exactly one entry in
        // that slot's wake list — and must not suppress arms for other
        // slots or other tenants.
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap();
        let cfg = ClosedLoopConfig {
            params,
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 1,
            horizon_slots: 1,
            background_arrivals: 0.0,
            max_resubmissions: 0,
            supply: Supply::Unbounded,
            od_arrivals: 0.0,
            od_departure: 0.0,
        };
        let streams = RngStreams::new(1);
        let strategies = [BiddingStrategy::OnDemand; 3];
        let mut fleet = WakeupFleet::new(&strategies, &cfg, &streams, Vec::new());
        fleet.arm_uncond(5, 1);
        fleet.arm_uncond(5, 1); // duplicate arm, same target slot
        fleet.arm_uncond(5, 2);
        fleet.arm_uncond(6, 1); // different target slot still arms
        assert_eq!(
            fleet.calendar.get(&5).unwrap().as_slice(),
            &[1 | UNCOND, 2 | UNCOND],
            "slot-5 wake list"
        );
        assert_eq!(
            fleet.calendar.get(&6).unwrap().as_slice(),
            &[1 | UNCOND],
            "slot-6 wake list"
        );
    }

    #[test]
    fn calendar_entries_recycle_their_vectors() {
        // The pool keeps steady-state slots allocation-free; pushes after
        // a drain reuse the returned vector.
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap();
        let cfg = ClosedLoopConfig {
            params,
            slot_len: Hours::from_minutes(5.0),
            on_demand: Price::new(0.35),
            job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
            warmup_slots: 1,
            horizon_slots: 1,
            background_arrivals: 0.0,
            max_resubmissions: 0,
            supply: Supply::Unbounded,
            od_arrivals: 0.0,
            od_departure: 0.0,
        };
        let streams = RngStreams::new(1);
        let mut fleet = WakeupFleet::new(&[BiddingStrategy::OnDemand], &cfg, &streams, Vec::new());
        fleet.calendar_push(5, 1);
        fleet.calendar_push(5, 2 | UNCOND);
        let mut list = fleet.calendar.remove(&5).unwrap();
        assert_eq!(list.len(), 2);
        assert_eq!(list[1] & !UNCOND, 2);
        list.clear();
        fleet.cal_pool.push(list);
        fleet.calendar_push(9, 3);
        assert_eq!(fleet.cal_pool.len(), 0, "push reused the pooled vector");
        assert!(fleet.calendar.get(&9).unwrap().capacity() >= 2);
    }
}
