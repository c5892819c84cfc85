//! The event-driven portfolio fleet: touch a tenant only when one of its
//! markets does something it cares about (DESIGN.md §5j).
//!
//! The dense portfolio fleet walks every tenant's legs against every
//! market report every slot. This fleet generalizes the single-market
//! wakeup machinery ([`crate::closedloop::wakeup`]) to M markets:
//!
//! - **one price-indexed wakeup book per member market** — the same
//!   512-bucket classifier and ulp-repair walk as §5f, but registering
//!   *leg handles* (a tenant can hold several pending legs in one
//!   market), each mapping back to its owner;
//! - **one shared pooled calendar** for expected leg finishes and the
//!   unconditional re-wakes armed while a bid sits parked in some
//!   market — after that market's reclamation outage, or after its
//!   finite-supply capacity pass named the bid in
//!   [`SlotReport::evicted`];
//! - **fresh** tenants whose plan was applied this slot, and **running**
//!   tenants (≥ 1 running leg accrues a charge every slot by §3.2);
//! - a slot where no market's wake set fires and nothing runs is
//!   *skipped in O(1)* ([`PortfolioFleetStats::skipped_slots`]).
//!
//! Wakeups are processed in ascending tenant order with each tenant's
//! legs in plan order, plans fan out over the same 64-tenant shards with
//! the same reserved RNG substreams, and bid submission stays serial — so
//! per-market bid ids, event order, bills, and RNG draws are
//! **bit-identical** to the frozen [`super::dense`] oracle at any
//! `SPOTBID_THREADS` (`tests/portfolio_wakeup_equiv.rs`).

use super::{run_session, PortfolioLoopConfig, PortfolioReport, PortfolioSource, TenantFinal};
use crate::billing::{LineItem, UsageKind};
use crate::closedloop::dense::SHARD_SIZE;
use crate::closedloop::LoopFaults;
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver};
use crate::observer::EventLog;
use crate::EngineError;
use spotbid_core::portfolio::{PortfolioPlan, PortfolioStrategy, PortfolioView};
use spotbid_core::{BidDecision, CoreError, JobSpec};
use spotbid_market::params::MarketParams;
use spotbid_market::sim::{BidId, BidKind, BidRequest, SlotReport, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::{Rng, RngStreams};
use std::collections::BTreeMap;

/// Wakeup-bucket count per market book — matches the market bid-book
/// resolution, same as the single-market fleet.
const WAKE_BUCKETS: usize = 512;

/// `pos_of` sentinel: leg handle not registered in any bucket.
const NO_POS: u32 = u32::MAX;
/// Calendar-entry flag bit: wake unconditionally. Tenant indices are
/// asserted `< 2^31`, so the bit never collides.
const UNCOND: u32 = 1 << 31;

/// Wakeup accounting for one portfolio session — the multi-market
/// sibling of [`crate::closedloop::FleetStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PortfolioFleetStats {
    /// Slots the fleet was asked to advance.
    pub slots: u64,
    /// Slots skipped in O(1): no market's wake set fired and no leg was
    /// running anywhere.
    pub skipped_slots: u64,
    /// Total tenant wakeups processed across all slots.
    pub woken: u64,
    /// Per-market wakeups produced by that market's price-fall sweep.
    pub swept: Vec<u64>,
}

/// Price-indexed wakeup buckets over one market's *pending* legs. Unlike
/// the single-market book (tenant-keyed), entries are stable leg
/// *handles* from a slab free-list — a tenant may hold several pending
/// legs in the same market — and a sweep yields each crossed leg's
/// owner. Same bucket classifier as the market bid-book, including the
/// ulp-repair walk.
#[derive(Debug)]
struct LegBook {
    buckets: Vec<Vec<u32>>,
    lo: f64,
    w: f64,
    /// Bid price per handle (written at alloc, read at registration and
    /// sweep filtering).
    threshold: Vec<f64>,
    /// Owning tenant per handle.
    owner: Vec<u32>,
    bucket_of: Vec<u32>,
    /// Position in the bucket list, [`NO_POS`] when unregistered.
    pos_of: Vec<u32>,
    /// Released handles awaiting reuse.
    free: Vec<u32>,
}

impl LegBook {
    fn new(params: &MarketParams) -> Self {
        LegBook {
            buckets: vec![Vec::new(); WAKE_BUCKETS],
            lo: params.pi_min.as_f64(),
            w: params.spread().as_f64() / WAKE_BUCKETS as f64,
            threshold: Vec::new(),
            owner: Vec::new(),
            bucket_of: Vec::new(),
            pos_of: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Claims a handle for a new leg (unregistered until the owner's
    /// first slot update sees it pending).
    fn alloc(&mut self, owner: u32, threshold: f64) -> u32 {
        if let Some(h) = self.free.pop() {
            let hu = h as usize;
            self.threshold[hu] = threshold;
            self.owner[hu] = owner;
            self.pos_of[hu] = NO_POS;
            h
        } else {
            let h = self.threshold.len() as u32;
            self.threshold.push(threshold);
            self.owner.push(owner);
            self.bucket_of.push(0);
            self.pos_of.push(NO_POS);
            h
        }
    }

    /// Returns a finished/terminated leg's handle to the free list.
    fn release(&mut self, h: u32) {
        if self.registered(h) {
            self.unregister(h);
        }
        self.free.push(h);
    }

    fn registered(&self, h: u32) -> bool {
        self.pos_of[h as usize] != NO_POS
    }

    fn register(&mut self, h: u32) {
        let hu = h as usize;
        debug_assert!(!self.registered(h), "leg handle {h} already registered");
        let b = self.bucket_index(self.threshold[hu]);
        self.bucket_of[hu] = b as u32;
        self.pos_of[hu] = self.buckets[b].len() as u32;
        self.buckets[b].push(h);
    }

    fn unregister(&mut self, h: u32) {
        let hu = h as usize;
        let b = self.bucket_of[hu] as usize;
        let p = self.pos_of[hu] as usize;
        let list = &mut self.buckets[b];
        debug_assert_eq!(list[p], h);
        list.swap_remove(p);
        if let Some(&moved) = list.get(p) {
            self.pos_of[moved as usize] = p as u32;
        }
        self.pos_of[hu] = NO_POS;
    }

    /// Pushes the *owner* of every registered leg whose threshold lies in
    /// `[pf, pp)`-or-above within the crossed bucket range — the only
    /// pending legs this market's own sweep can have started. Owners may
    /// repeat (several crossed legs); the caller dedups.
    fn sweep_fall(&self, pf: f64, pp: f64, out: &mut Vec<u32>) {
        let k_lo = self.bucket_index(pf);
        let k_hi = self.bucket_index(pp);
        for &h in &self.buckets[k_lo] {
            if self.threshold[h as usize] >= pf {
                out.push(self.owner[h as usize]);
            }
        }
        for b in (k_lo + 1)..=k_hi {
            for &h in &self.buckets[b] {
                out.push(self.owner[h as usize]);
            }
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

/// One live spot position — the dense fleet's `Leg` plus the wakeup
/// bookkeeping (book handle, scheduled finish).
#[derive(Debug, Clone, Copy)]
struct WLeg {
    market: u32,
    bid_id: BidId,
    /// Slots of work this leg was submitted for.
    assigned: u32,
    /// Slots it has run so far.
    ran: u32,
    running: bool,
    /// Handle in `books[market]`, valid for the leg's lifetime.
    handle: u32,
    /// Expected finish slot of the current run streak (valid while
    /// `running`; stale calendar entries are validated on pop).
    due: u64,
}

/// One portfolio tenant — the dense fleet's `PortfolioTenant` plus a
/// running-leg count for run-list membership. The tenant's tag is its
/// fleet index. Legs stay a per-tenant vector (plan order is part of the
/// determinism contract and M is small); the wake-hot columns — done,
/// armed_until, run-leg membership — live struct-of-arrays in the fleet.
#[derive(Debug)]
struct WTenant {
    strategy: PortfolioStrategy,
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
    /// Legs currently running (tenant is in the run list iff > 0).
    run_legs: u32,
}

impl WTenant {
    fn new(strategy: PortfolioStrategy, cfg: &PortfolioLoopConfig) -> Self {
        WTenant {
            strategy,
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
        }
    }

    /// Execution work still uncovered by spot slots run and on-demand
    /// charges.
    fn remaining_work(&self, job: &JobSpec) -> Hours {
        (job.execution - job.slot * self.slots_run as f64 - self.od_charged).max(Hours::ZERO)
    }
}

/// Appends a wake entry to a slot's calendar list, recycling spent
/// vectors through the pool.
fn calendar_push(
    calendar: &mut BTreeMap<u64, Vec<u32>>,
    pool: &mut Vec<Vec<u32>>,
    slot: u64,
    entry: u32,
) {
    calendar
        .entry(slot)
        .or_insert_with(|| pool.pop().unwrap_or_default())
        .push(entry);
}

/// The event-driven portfolio fleet. See the module docs for the
/// wake-set contract.
struct PortfolioWakeupFleet {
    // Session-wide configuration.
    job: JobSpec,
    on_demand: Price,
    max_resubmissions: u32,

    // Tenant state (tag = index).
    tenants: Vec<WTenant>,
    done: Vec<bool>,
    /// Target slot of each tenant's last unconditional calendar arm —
    /// the already-armed guard against duplicate wake entries.
    armed_until: Vec<u64>,

    // Wakeup machinery.
    /// One price-indexed book of pending legs per member market.
    books: Vec<LegBook>,
    /// Shared calendar: slot → wake entries (tenant index, optionally
    /// [`UNCOND`]-flagged), pooled like the single-market fleet's.
    calendar: BTreeMap<u64, Vec<u32>>,
    cal_pool: Vec<Vec<u32>>,
    /// Tenants with ≥ 1 running leg, ascending (rebuilt by sorted merge).
    running: Vec<u32>,
    /// Tenants whose plan was applied this `before_slot`.
    fresh: Vec<u32>,
    /// Tenants queued to (re-)plan at the next `before_slot`.
    needy: Vec<u32>,
    /// Tenants not yet done — drives the kernel Done check.
    active: usize,
    /// Last posted price per market (∞ before the first tenant-visible
    /// slot, exactly the market's own pre-first-step posted price).
    prev_price: Vec<f64>,
    /// Per-market kernel-slot-indexed reclamation outages (warmup offset
    /// already applied). Empty when fault-free.
    reclaim_masks: Vec<Vec<bool>>,
    shard_rngs: Vec<Rng>,
    /// Live spot legs per market (the kernel's per-market demand signal).
    live: Vec<u32>,
    stats: PortfolioFleetStats,

    // Scratch buffers (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
    sc_started: Vec<u32>,
    sc_removed: Vec<u32>,
    sc_run_next: Vec<u32>,
    sc_outage: Vec<bool>,
}

impl PortfolioWakeupFleet {
    fn new(
        strategies: &[PortfolioStrategy],
        cfg: &PortfolioLoopConfig,
        streams: &RngStreams,
        reclaim_masks: Vec<Vec<bool>>,
    ) -> Self {
        let n = strategies.len();
        assert!(
            n < (1 << 31),
            "portfolio wakeup fleet supports < 2^31 tenants"
        );
        let m = cfg.markets.len();
        // Identical substream reservation to the dense portfolio fleet:
        // 0..2M+1 belong to the markets, arrivals, and the shared shock;
        // the rest to decision shards.
        let max_shards = n.div_ceil(SHARD_SIZE);
        let mut chain = streams.streams(2 * m + 1 + max_shards);
        let shard_rngs = chain.split_off(2 * m + 1);
        PortfolioWakeupFleet {
            job: cfg.job,
            on_demand: cfg.on_demand,
            max_resubmissions: cfg.max_resubmissions,
            tenants: strategies.iter().map(|&s| WTenant::new(s, cfg)).collect(),
            done: vec![false; n],
            armed_until: vec![0; n],
            books: cfg
                .markets
                .iter()
                .map(|mk| LegBook::new(&mk.params))
                .collect(),
            calendar: BTreeMap::new(),
            cal_pool: Vec::new(),
            running: Vec::new(),
            fresh: Vec::new(),
            needy: (0..n as u32).collect(),
            active: n,
            prev_price: vec![f64::INFINITY; m],
            reclaim_masks,
            shard_rngs,
            live: vec![0; m],
            stats: PortfolioFleetStats {
                swept: vec![0; m],
                ..PortfolioFleetStats::default()
            },
            sc_woken: Vec::new(),
            sc_order: Vec::new(),
            sc_started: Vec::new(),
            sc_removed: Vec::new(),
            sc_run_next: Vec::new(),
            sc_outage: Vec::new(),
        }
    }

    /// Arms an unconditional wake at `slot`, at most once per tenant per
    /// target slot (kernel slots start at 0, so armed targets are ≥ 1 and
    /// the zero-initialized column never aliases a real arm).
    fn arm_uncond(&mut self, slot: u64, t: u32) {
        let tu = t as usize;
        if self.armed_until[tu] != slot {
            self.armed_until[tu] = slot;
            calendar_push(&mut self.calendar, &mut self.cal_pool, slot, t | UNCOND);
        }
    }

    /// Acts on a resolved plan — byte-for-byte the dense fleet's
    /// `apply_plan`, plus the wakeup bookkeeping (leg-handle allocation;
    /// the caller queues the fresh wake).
    #[allow(clippy::too_many_arguments)]
    fn apply_plan(
        tenant: &mut WTenant,
        t: u32,
        plan: &PortfolioPlan,
        job: &JobSpec,
        slot: u64,
        source: &mut PortfolioSource,
        books: &mut [LegBook],
        live: &mut [u32],
        emit: &mut dyn FnMut(Event),
    ) {
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
                        emit(Event::Charged {
                            item: LineItem {
                                slot,
                                price,
                                duration: work,
                                kind: UsageKind::OnDemand,
                                tag: t,
                            },
                        });
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
                    let handle = books[leg.market].alloc(t, price.as_f64());
                    tenant.legs.push(WLeg {
                        market: leg.market as u32,
                        bid_id: id,
                        assigned: assigned as u32,
                        ran: 0,
                        running: false,
                        handle,
                        due: 0,
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
    }

    /// Advances one woken tenant against every market's report — the
    /// dense fleet's `slot_update` plus wakeup maintenance: started legs
    /// leave their book and schedule their expected finish, removed legs
    /// release their handle, idle pending legs (re-)register, and
    /// termination re-plans queue into `needy` (guarded against
    /// duplicates by the `needs_submit` flag). The caller tracks run-list
    /// membership through `run_legs`.
    #[allow(clippy::too_many_arguments)]
    fn update_tenant(
        tenant: &mut WTenant,
        t: u32,
        slot: u64,
        reports: &[SlotReport],
        books: &mut [LegBook],
        calendar: &mut BTreeMap<u64, Vec<u32>>,
        cal_pool: &mut Vec<Vec<u32>>,
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
            let report = &reports[leg.market as usize];
            let id = leg.bid_id;
            let started = report.started.binary_search(&id).is_ok();
            let interrupted = report.interrupted.binary_search(&id).is_ok();
            let finished = report.finished.binary_search(&id).is_ok();
            let terminated = report.terminated.binary_search(&id).is_ok();
            let ran = started || (leg.running && !interrupted && !terminated);
            if started {
                leg.running = true;
                tenant.run_legs += 1;
                emit(Event::BidAccepted { slot, tenant: t });
                // Leave the wakeup book and schedule the expected finish:
                // the bid needs `assigned − ran` more running slots
                // starting with this one — exactly the market's own
                // finish calendar. An interruption strands the entry; it
                // is validated against the legs' `due` on pop.
                let m = leg.market as usize;
                let rem = u64::from(leg.assigned - leg.ran);
                let due = slot + rem - 1;
                leg.due = due;
                let h = leg.handle;
                if books[m].registered(h) {
                    books[m].unregister(h);
                }
                if due > slot {
                    calendar_push(calendar, cal_pool, due, t);
                }
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
            }
            if interrupted || terminated || finished {
                if leg.running {
                    tenant.run_legs -= 1;
                }
                leg.running = false;
            }
            if finished {
                let m = leg.market as usize;
                let h = leg.handle;
                live[m] -= 1;
                tenant.legs.remove(k);
                books[m].release(h);
                continue;
            }
            if terminated {
                emit(Event::Rejected { slot, tenant: t });
                let lost = u64::from(leg.assigned - leg.ran);
                let m = leg.market as usize;
                let h = leg.handle;
                live[m] -= 1;
                tenant.legs.remove(k);
                books[m].release(h);
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
                    // the next zone over.
                    if let PortfolioStrategy::ZoneFallback { home, base } = tenant.strategy {
                        tenant.strategy = PortfolioStrategy::ZoneFallback {
                            home: (home + 1) % reports.len(),
                            base,
                        };
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
        // Every live pending leg must sit in its market's wakeup book:
        // fresh pends, re-pended persistents after an interruption, and
        // parked bids waiting out an outage all land here;
        // already-registered handles pass.
        for leg in &tenant.legs {
            if !leg.running {
                let b = &mut books[leg.market as usize];
                if !b.registered(leg.handle) {
                    b.register(leg.handle);
                }
            }
        }
        DriverStatus::Active
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
        // whole slot, shared read-only by every shard (a plan is a pure
        // function of the view, so this equals the dense fleet's
        // per-tenant `decide`); identical sharded fan-out to the dense
        // fleet: same shard cuts, same reserved RNG substreams, same
        // order-stable merge.
        let histories = source.observed()?;
        let view = PortfolioView::new(&histories, self.on_demand);
        let shards = needy.len().div_ceil(SHARD_SIZE);
        let (shard_rngs, tenants, job) = (&self.shard_rngs, &self.tenants, self.job);
        let plans: Vec<Vec<Result<PortfolioPlan, CoreError>>> =
            spotbid_exec::par_map(shards, |s| {
                let mut _rng = shard_rngs[s].clone(); // reserved, see dense
                let lo = s * SHARD_SIZE;
                let hi = (lo + SHARD_SIZE).min(needy.len());
                needy[lo..hi]
                    .iter()
                    .map(|&i| tenants[i as usize].strategy.decide_with(&view, &job))
                    .collect()
            });
        // Serial, ordered apply: per-market bid ids and events come out
        // exactly as if each tenant had planned in turn.
        let mut flat = plans.into_iter().flatten();
        for &i in &needy {
            let plan = flat
                .next()
                .expect("one plan per needy tenant")
                .map_err(EngineError::Core)?;
            Self::apply_plan(
                &mut self.tenants[i as usize],
                i,
                &plan,
                &job,
                slot,
                source,
                &mut self.books,
                &mut self.live,
                emit,
            );
            self.fresh.push(i);
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

        // Collect this slot's wake set: fresh plans, calendar hits, then
        // every market's price-fall sweep.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        woken.extend_from_slice(&self.fresh);
        self.fresh.clear();
        if let Some(mut list) = self.calendar.remove(&slot) {
            for &e in &list {
                let t = e & !UNCOND;
                // Plain entries are expected leg finishes: valid only if
                // some leg is still running the streak that scheduled
                // them (any due leg makes the wake genuine).
                if e & UNCOND != 0
                    || self.tenants[t as usize]
                        .legs
                        .iter()
                        .any(|l| l.running && l.due == slot)
                {
                    woken.push(t);
                }
            }
            list.clear();
            self.cal_pool.push(list);
        }
        for (m, report) in reports.iter().enumerate() {
            let pf = report.price.as_f64();
            let pp = self.prev_price[m];
            self.prev_price[m] = pf;
            if pf < pp {
                let before = woken.len();
                self.books[m].sweep_fall(pf, pp, &mut woken);
                self.stats.swept[m] += (woken.len() - before) as u64;
            }
        }

        if woken.is_empty() && self.running.is_empty() {
            // No market's wake set fired and nothing is running: the
            // dense fleet would have walked every tenant and changed
            // nothing.
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
            let tu = t as usize;
            if self.done[tu] {
                continue;
            }
            let had_running = self.tenants[tu].run_legs > 0;
            let status = Self::update_tenant(
                &mut self.tenants[tu],
                t,
                slot,
                reports,
                &mut self.books,
                &mut self.calendar,
                &mut self.cal_pool,
                &mut self.live,
                &mut self.needy,
                &self.job,
                self.max_resubmissions,
                emit,
            );
            let now_running = self.tenants[tu].run_legs > 0;
            if now_running && !had_running {
                started_add.push(t);
            }
            if had_running && !now_running {
                removed.push(t);
            }
            if status == DriverStatus::Done {
                self.done[tu] = true;
                self.active -= 1;
            }
        }
        self.sc_started = started_add;
        self.sc_removed = removed;
        self.merge_running();

        // Parked bids resolve at their market's next individual
        // re-auction — which a price sweep cannot predict — so their
        // owners are armed unconditionally for the next slot. Two things
        // park a bid in market m:
        //
        // - market m's reclamation outage (every displaced and incoming
        //   bid): every woken tenant still holding a live non-running leg
        //   there re-arms, chaining across back-to-back outages;
        // - market m's finite-supply capacity pass: the market names the
        //   exact victim set in `reports[m].evicted`, so only those legs'
        //   owners re-arm — every victim's owner is awake this slot
        //   (running victims were in the running list; would-be starters
        //   were swept, fresh, or parked-armed), so scanning `order` is
        //   complete. Quiet slots stay skippable under `Supply::Finite`.
        self.sc_outage.clear();
        let mut any_outage = false;
        for m in 0..reports.len() {
            let o = self
                .reclaim_masks
                .get(m)
                .and_then(|mask| mask.get(slot as usize))
                .copied()
                .unwrap_or(false);
            any_outage |= o;
            self.sc_outage.push(o);
        }
        if any_outage || reports.iter().any(|r| !r.evicted.is_empty()) {
            for &t in &order {
                let tu = t as usize;
                if self.done[tu] {
                    continue;
                }
                let mut arm = false;
                for leg in &self.tenants[tu].legs {
                    let m = leg.market as usize;
                    if (self.sc_outage[m] && !leg.running)
                        || reports[m].evicted.binary_search(&leg.bid_id).is_ok()
                    {
                        arm = true;
                        break;
                    }
                }
                if arm {
                    self.arm_uncond(slot + 1, t);
                }
            }
        }

        self.sc_woken = woken;
        self.sc_order = order;
        Ok(self.status())
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
    // The fleet sees kernel slots (0-based after warmup); shift each
    // market's absolute-slot fault plan accordingly.
    let reclaim_masks: Vec<Vec<bool>> = match faults {
        Some(fs) => fs
            .iter()
            .map(|f| {
                (0..cfg.horizon_slots)
                    .map(|s| f.reclaim_at(cfg.warmup_slots + s))
                    .collect()
            })
            .collect(),
        None => Vec::new(),
    };
    let (report, fleet) = run_session(
        strategies,
        cfg,
        seed,
        faults,
        log,
        |streams| PortfolioWakeupFleet::new(strategies, cfg, streams, reclaim_masks),
        |fleet| {
            fleet
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| TenantFinal {
                    tag: i as u32,
                    strategy: t.strategy,
                    completed: t.completed,
                    spot_slots: t.slots_run,
                    interruptions: t.interruptions,
                    resubmissions: t.resubmissions,
                    remaining: t.remaining_work(&cfg.job),
                })
                .collect()
        },
    )?;
    Ok((report, fleet.stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book() -> LegBook {
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap();
        LegBook::new(&params)
    }

    /// A hostile threshold for the slab audit: boundary-exact grid
    /// points, below-floor, above-cap, and plain uniform values.
    fn threshold(b: &LegBook, rng: &mut Rng) -> f64 {
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

    /// Full structural audit: every bucket position agrees with
    /// `pos_of`/`bucket_of`, every member's bucket is its threshold's
    /// classifier bucket, no freed handle lingers in a bucket, and
    /// membership matches the reference set.
    fn audit(b: &LegBook, registered: &[Option<u32>]) {
        let mut seen = 0;
        for (k, list) in b.buckets.iter().enumerate() {
            for (p, &h) in list.iter().enumerate() {
                let hu = h as usize;
                let owner = registered[hu].expect("freed handle still in a bucket");
                assert_eq!(b.owner[hu], owner);
                assert_eq!(b.bucket_of[hu] as usize, k);
                assert_eq!(b.pos_of[hu] as usize, p);
                assert_eq!(b.bucket_index(b.threshold[hu]), k, "misfiled threshold");
                seen += 1;
            }
        }
        let expect = registered.iter().filter(|r| r.is_some()).count();
        assert_eq!(seen, expect, "bucket membership drifted from the reference");
    }

    #[test]
    fn leg_slab_survives_alloc_release_churn() {
        // Handles are allocated, registered, unregistered, and released
        // in arbitrary order; the slab's free list must recycle them
        // without ever corrupting bucket membership.
        let mut b = book();
        let mut rng = Rng::seed_from_u64(0x1E6B);
        let mut live: Vec<u32> = Vec::new(); // registered handles
        let mut registered: Vec<Option<u32>> = Vec::new(); // by handle
        let mut allocs = 0u32;
        for step in 0..20_000 {
            if live.is_empty() || rng.chance(0.55) {
                let owner = rng.range_f64(0.0, 1000.0) as u32;
                let thr = threshold(&b, &mut rng);
                let h = b.alloc(owner, thr);
                allocs += 1;
                b.register(h);
                if h as usize >= registered.len() {
                    registered.resize(h as usize + 1, None);
                }
                registered[h as usize] = Some(owner);
                live.push(h);
            } else {
                let k = rng.range_f64(0.0, live.len() as f64) as usize % live.len();
                let h = live.swap_remove(k);
                b.release(h);
                registered[h as usize] = None;
            }
            if step % 997 == 0 {
                audit(&b, &registered);
            }
        }
        audit(&b, &registered);
        assert!(
            (b.threshold.len() as u32) < allocs,
            "churn must have recycled handles through the free list"
        );
    }

    #[test]
    fn sweep_yields_owners_of_every_crossed_leg() {
        let mut b = book();
        let mut rng = Rng::seed_from_u64(0x0E5B);
        // Two legs per owner so duplicate owner pushes are exercised.
        let mut legs: Vec<(u32, u32)> = Vec::new(); // (handle, owner)
        for owner in 0..200u32 {
            for _ in 0..2 {
                let h = b.alloc(owner, threshold(&b, &mut rng));
                b.register(h);
                legs.push((h, owner));
            }
        }
        for _ in 0..2_000 {
            let a = threshold(&b, &mut rng).max(0.0);
            let c = threshold(&b, &mut rng).max(0.0);
            let (pf, pp) = if a < c { (a, c) } else { (c, a) };
            let mut out = Vec::new();
            b.sweep_fall(pf, pp, &mut out);
            out.sort_unstable();
            // Completeness: every crossed leg's owner is woken.
            for &(h, owner) in &legs {
                let thr = b.threshold[h as usize];
                if thr >= pf && thr < pp {
                    assert!(
                        out.binary_search(&owner).is_ok(),
                        "owner {owner} of threshold {thr} in [{pf}, {pp}) slept"
                    );
                }
            }
        }
    }
}
