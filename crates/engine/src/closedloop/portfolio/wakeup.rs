//! The event-driven wakeup fleet, the engine's one closed-loop fleet:
//! touch a tenant only when one of its markets reports something about
//! one of its legs (DESIGN.md §5f, §5j).
//!
//! A slot wakes exactly the **fresh** tenants whose plan was applied this
//! slot and the **owners** of every leg a member market's [`SlotReport`]
//! lists as started, interrupted, finished or terminated, found through
//! one bid-id → tenant column per market. The reports name every
//! tenant-visible change, parked restarts under outages and finite
//! supply included. Collecting the owners also sets, on each named live
//! leg, the bit of the list naming it, and marks its tenant woken so it
//! joins the wake set once; a stale id wakes its owner but sets no bit.
//!
//! Tenant state is columns indexed by tag. A tenant's first live leg
//! lives in columns too (bid id, work left, and its market, report bits
//! and running bit); the legs after it, which only split plans and
//! re-plans beside live legs have, sit in a side slab as a linked list in
//! plan order. The first-leg market column, the slab links and the
//! on-demand column are allocated on first use, so a session whose legs
//! all sit in market 0 and that buys no on-demand work, as the
//! single-market loop's mix does, never pays for them. A tenant's
//! strategy is a class index; cross-zone fallback re-interns the rotated
//! strategy.
//!
//! Running legs are settled lazily: each slot's per-market
//! `price × job.slot` goes into a [`ChargeTable`], and a woken tenant first
//! replays its carried slots `[run_since, slot)` over its running legs in
//! plan order, the dense fleet's float-addition order. The fleet counts
//! its runners instead of listing them; a logged run, or a slot whose spot
//! charge is refused, finds them by scanning the tenant flags, and an
//! unlogged run builds no events at all ([`Events`]). A slot with an empty
//! wake set and no runner is skipped.
//!
//! Each class of bit-identical strategies plans once per slot; plans are
//! applied in ascending tenant order, their legs entering each market
//! through a queue of at most [`QUEUE`] bids flushed as one batch (a
//! batch gives the ids and state the same submissions one by one would),
//! and wakeups are processed in ascending tenant order with
//! each tenant's legs in plan order. The passes that touch every tenant —
//! the wave's common plan, the wake set's visits, the close and the
//! report rows — run as loops over columns borrowed apart from the fleet
//! and sliced to one length, so a tenant costs one bounds check and no
//! column header is reloaded through the fleet (DESIGN.md §5j). Bid ids, events, costs and RNG draws
//! are **bit-identical** to the frozen dense oracle at any
//! `SPOTBID_THREADS` (`tests/wakeup_equiv.rs`,
//! `tests/portfolio_wakeup_equiv.rs`); the fleet draws no randomness.

use super::{
    run_session, PortfolioLoopConfig, PortfolioSource, Session, SessionFleet, SingleMarket,
    TenantFinal,
};
use crate::billing::{LineItem, UsageKind};
use crate::closedloop::{spot_charge, LoopFaults};
use crate::event::Event;
use crate::kernel::{DriverStatus, JobDriver};
use crate::observer::{CostTotals, EventLog};
use crate::EngineError;
use spotbid_core::portfolio::{PortfolioPlan, PortfolioStrategy, PortfolioView};
use spotbid_core::{BidDecision, BiddingStrategy, CoreError, JobSpec, PriceView};
use spotbid_market::multi::MarketSet;
use spotbid_market::sim::{
    reserve_column, BidId, BidKind, BidRequest, ChargeTable, Cohort, SlotReport, WorkModel,
};
use spotbid_market::units::{Cost, Hours, Price};
use std::cell::OnceCell;

/// `bid` sentinel: no live leg (market ids stay below it), and the slab's
/// end-of-list link.
const NIL: u32 = u32::MAX;

/// Bids a market's wave queue holds before it is flushed into the market
/// as one batch.
const QUEUE: usize = 1024;

// Tenant flags.
/// Finished for the session.
const T_DONE: u8 = 1 << 0;
/// Job work completed (every leg finished, or bought on demand).
const T_COMPLETED: u8 = 1 << 1;
/// Completed at plan time: reports done at its next wake.
const T_DONE_PENDING: u8 = 1 << 2;
/// Listed in `needy` for a (re-)plan next `before_slot`.
const T_NEEDS_SUBMIT: u8 = 1 << 3;
/// Lost work whose resubmission budget ran out is abandoned.
const T_GAVE_UP: u8 = 1 << 4;
/// A leg is running (counted in the fleet's `running`).
const T_RUNNING: u8 = 1 << 5;
/// The first leg is running.
const T_FIRST_RUNNING: u8 = 1 << 6;

// Report bits: the lists of its market's report that named a live leg.
const R_STARTED: u8 = 1 << 0;
const R_INTERRUPTED: u8 = 1 << 1;
const R_FINISHED: u8 = 1 << 2;
const R_TERMINATED: u8 = 1 << 3;
/// In this slot's wake set already (`wake` column only).
const W_WOKEN: u8 = 1 << 4;

/// Wakeup accounting for one session.
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

/// A hook call's event output: the kernel's `emit` when the session logs
/// events, otherwise nothing, so an unlogged session builds no events.
struct Events<'a>(Option<&'a mut dyn FnMut(Event)>);

impl<'a> Events<'a> {
    fn new(emit: &'a mut dyn FnMut(Event), logged: bool) -> Self {
        Events(if logged { Some(emit) } else { None })
    }

    /// Emits the event `make` builds, if the session logs events.
    fn emit(&mut self, make: impl FnOnce() -> Event) {
        if let Some(emit) = &mut self.0 {
            emit(make());
        }
    }
}

/// Calls `f(tenant, id, bit)` for every tenant bid `report` names, with
/// the report bit of the list naming it.
fn for_each_owner(owner: &[u32], report: &SlotReport, mut f: impl FnMut(u32, BidId, u8)) {
    for (ids, bit) in [
        (&report.started, R_STARTED),
        (&report.interrupted, R_INTERRUPTED),
        (&report.finished, R_FINISHED),
        (&report.terminated, R_TERMINATED),
    ] {
        for &id in ids {
            match owner.get(id.0 as usize) {
                Some(&t) if t != NIL => f(t, id, bit),
                _ => {}
            }
        }
    }
}

/// A portfolio strategy's identity: its variant and its base strategy's
/// variant, the bits of its parameter, and the bits of its base
/// strategy's parameter. Two keys are equal exactly when the strategies
/// are bit-identical.
type PlanKey = (u64, u64, u64);

/// The [`PlanKey`] of `s`.
fn plan_key(s: &PortfolioStrategy) -> PlanKey {
    let (variant, param, base) = match *s {
        PortfolioStrategy::ZoneFallback { home, base } => (0, home as u64, base),
        PortfolioStrategy::SplitEven { base } => (1, 0, base),
        PortfolioStrategy::Contract { spot_share, base } => (2, spot_share.to_bits(), base),
    };
    let (b0, b1) = match base {
        BiddingStrategy::OptimalOneTime => (0, 0),
        BiddingStrategy::OptimalPersistent => (1, 0),
        BiddingStrategy::Percentile(p) => (2, p.to_bits()),
        BiddingStrategy::FixedBid(p) => (3, p.as_f64().to_bits()),
        BiddingStrategy::BestOffline { lookback_hours } => (4, lookback_hours.to_bits()),
        BiddingStrategy::OnDemand => (5, 0),
    };
    (variant | b0 << 2, param, b1)
}

/// Where a plan key's probe starts, before the table's mask. The keys are
/// not attacker-chosen; the multiplies spread every word into the low
/// bits the mask keeps.
fn key_hash((a, b, c): PlanKey) -> usize {
    let h = (a ^ b.rotate_left(32)).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ c;
    let h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (h ^ h >> 32) as usize
}

/// A session's strategy classes: one strategy per class of bit-identical
/// strategies, numbered in order of first appearance and found through
/// an open-addressed table of class numbers kept at most half full, each
/// probe comparing the class's full [`plan_key`].
#[derive(Default)]
struct Classes {
    strategies: Vec<PortfolioStrategy>,
    /// Each class's plan key.
    keys: Vec<PlanKey>,
    /// A class per slot ([`NIL`]: empty); a power of two long.
    table: Vec<u32>,
}

impl Classes {
    /// The class of `s`, a new one if unseen.
    #[inline]
    fn intern(&mut self, s: PortfolioStrategy) -> u32 {
        let key = plan_key(&s);
        loop {
            let mask = self.table.len().wrapping_sub(1);
            let mut i = key_hash(key) & mask;
            while let Some(&c) = self.table.get(i) {
                if c == NIL {
                    break;
                }
                if self.keys[c as usize] == key {
                    return c;
                }
                i = (i + 1) & mask;
            }
            if 2 * (self.strategies.len() + 1) <= self.table.len() {
                let c = self.strategies.len() as u32;
                self.table[i] = c;
                self.strategies.push(s);
                self.keys.push(key);
                return c;
            }
            self.grow();
        }
    }

    /// Doubles the table (16 slots at first) and re-files every class.
    #[cold]
    fn grow(&mut self) {
        let len = (2 * self.table.len()).max(16);
        self.table = vec![NIL; len];
        for (c, &key) in self.keys.iter().enumerate() {
            let mut i = key_hash(key) & (len - 1);
            while self.table[i] != NIL {
                i = (i + 1) & (len - 1);
            }
            self.table[i] = c as u32;
        }
    }
}

/// A class's plan for one slot: a [`PortfolioPlan`]'s legs, with the
/// zone-fallback plan (every single-market tenant's) held without the
/// plan's leg vector.
enum Plan {
    /// The whole job as one leg in the home market.
    Home {
        market: usize,
        slots: u64,
        decision: BidDecision,
    },
    Legs(PortfolioPlan),
}

impl Plan {
    /// `strategy`'s plan against the slot's per-market `views`, with
    /// `portfolio` building the portfolio view on first use. For zone
    /// fallback this is [`PortfolioStrategy::decide_with`]: the base
    /// strategy's decision in the home market, which validates the job
    /// first, as the portfolio's does.
    fn decide<'v>(
        strategy: &PortfolioStrategy,
        views: &[PriceView<'_>],
        portfolio: impl FnOnce() -> &'v PortfolioView<'v>,
        job: &JobSpec,
    ) -> Result<Plan, CoreError> {
        let PortfolioStrategy::ZoneFallback { home, base } = *strategy else {
            return strategy.decide_with(portfolio(), job).map(Plan::Legs);
        };
        let market = home % views.len();
        Ok(Plan::Home {
            market,
            slots: job.slots_needed(),
            decision: base.decide_with(&views[market], job)?,
        })
    }

    /// The legs as `(market, slots, decision)`, in plan order.
    fn legs(&self) -> impl Iterator<Item = (usize, u64, BidDecision)> + '_ {
        let (home, legs) = match *self {
            Plan::Home {
                market,
                slots,
                decision,
            } => (Some((market, slots, decision)), &[][..]),
            Plan::Legs(ref plan) => (None, &plan.legs[..]),
        };
        let rest = legs.iter().map(|l| (l.market, l.slots, l.decision));
        home.into_iter().chain(rest)
    }
}

/// Each class's plan for the slot being planned.
#[derive(Default)]
struct DecisionMemo {
    /// Per class: 1 + the index of its plan in `made`, 0 if undecided.
    at: Vec<u32>,
    /// The plans made since the last clear: class, tenants that asked,
    /// plan.
    made: Vec<(u32, u32, Plan)>,
}

impl DecisionMemo {
    /// Asks for class `c`'s plan, made by `decide` on the class's first
    /// use. A failed plan is not kept.
    #[inline]
    fn decide<E>(&mut self, c: u32, decide: impl FnOnce() -> Result<Plan, E>) -> Result<(), E> {
        let c = c as usize;
        if self.at[c] == 0 {
            self.made.push((c as u32, 0, decide()?));
            self.at[c] = self.made.len() as u32;
        }
        self.made[self.at[c] as usize - 1].1 += 1;
        Ok(())
    }

    /// Class `c`'s plan; it must have been made since the last reset.
    #[inline]
    fn get(&self, c: u32) -> &Plan {
        &self.made[self.at[c as usize] as usize - 1].2
    }

    /// Forgets every plan (the next slot has a new view) and makes room
    /// for `classes` classes.
    fn reset(&mut self, classes: usize) {
        for (c, _, _) in self.made.drain(..) {
            self.at[c as usize] = 0;
        }
        self.at.resize(classes, 0);
    }
}

/// `col[i]`, or `default` while the column, allocated on first use, is
/// still empty.
#[inline]
fn lazy<T: Copy>(col: &[T], i: usize, default: T) -> T {
    col.get(i).copied().unwrap_or(default)
}

/// `col[i]` for writing, allocating the column (`n` entries of `default`)
/// on first use.
fn lazy_mut<T: Clone>(col: &mut Vec<T>, n: usize, i: usize, default: T) -> &mut T {
    if col.is_empty() {
        col.resize(n, default);
    }
    &mut col[i]
}

/// The slots a leg planned for `slots` is assigned with `pending` slots
/// of work still pending: a re-plan covers only the lost work, so each
/// leg is capped at what is pending (the first plan partitions exactly).
#[inline]
fn leg_slots(slots: u64, pending: u32) -> u32 {
    slots.min(u64::from(pending)).max(1) as u32
}

/// The market request of a spot leg of `assigned` slots.
#[inline]
fn spot_request(price: Price, persistent: bool, assigned: u32) -> BidRequest {
    BidRequest {
        price,
        kind: if persistent {
            BidKind::Persistent
        } else {
            BidKind::OneTime
        },
        work: WorkModel::FixedSlots(assigned),
    }
}

/// A market's queue of wave bids not yet submitted to it.
#[derive(Default)]
struct WaveQueue {
    /// Room for [`QUEUE`] bids, or for the whole wave when it is smaller;
    /// the first `queued` are the queue.
    buf: Vec<BidRequest>,
    queued: usize,
    /// The id the market's next wave bid gets.
    next_id: usize,
}

/// One market's side of a submission wave, opened for a loop: the
/// queue's room and the owner column (sized for the wave) borrowed, the
/// queue's counts held as values until [`close`](Self::close).
struct Lane<'a> {
    m: usize,
    buf: &'a mut [BidRequest],
    owner: &'a mut [u32],
    queued: usize,
    next_id: usize,
    /// Where `close` leaves `queued` and `next_id`.
    counts: (&'a mut usize, &'a mut usize),
}

impl<'a> Lane<'a> {
    /// Market `m`'s lane, from the fleet's per-market queues and owner
    /// columns.
    #[inline(always)]
    fn open(m: usize, queues: &'a mut [WaveQueue], owners: &'a mut [Vec<u32>]) -> Self {
        let WaveQueue {
            buf,
            queued,
            next_id,
        } = &mut queues[m];
        Lane {
            m,
            buf,
            owner: &mut owners[m],
            queued: *queued,
            next_id: *next_id,
            counts: (queued, next_id),
        }
    }

    /// Submits tenant `t`'s `request`: it joins the queue, flushed into
    /// the market first if full, after the bids the market holds, so it
    /// gets the id a submission would return now. Returns that id.
    #[inline(always)]
    fn submit(&mut self, set: &mut MarketSet, t: u32, request: BidRequest) -> u32 {
        if self.queued == self.buf.len() {
            set.submit_batch(self.m, &self.buf[..self.queued]);
            self.queued = 0;
        }
        self.buf[self.queued] = request;
        self.queued += 1;
        let id = self.next_id;
        self.next_id += 1;
        self.owner[id] = t;
        u32::try_from(id).expect("market bid ids fit in u32")
    }

    /// Leaves the queue's counts in the queue.
    #[inline(always)]
    fn close(self) {
        (*self.counts.0, *self.counts.1) = (self.queued, self.next_id);
    }
}

/// `f` with `bit` set when `on`, cleared otherwise.
fn with_bit(f: u8, bit: u8, on: bool) -> u8 {
    if on {
        f | bit
    } else {
        f & !bit
    }
}

/// One live spot leg, as tenant processing reads and writes it.
#[derive(Clone, Copy)]
struct Leg {
    market: u32,
    bid: u32,
    /// Slots of its assigned work not yet run: the dense fleet's
    /// `assigned − ran`, in the same wrapping `u32` arithmetic.
    left: u32,
    running: bool,
    /// `R_*` bits of this slot's report; zero outside `on_slot`.
    report: u8,
}

/// A leg after a tenant's first, in the slab, and the tenant's next leg
/// ([`NIL`] at the end; the free list's link while unused).
#[derive(Clone, Copy)]
struct SlabLeg {
    leg: Leg,
    next: u32,
}

/// The event-driven fleet. See the module docs.
pub(in crate::closedloop) struct Fleet {
    job: JobSpec,
    on_demand: Price,
    max_resubmissions: u32,
    markets: usize,
    /// The session logs events, so every runner is visited every slot for
    /// its `Charged` events.
    logged: bool,
    /// An on-demand decision buys all the remaining work, the
    /// single-market loop's rule, where a portfolio's on-demand leg buys
    /// its share capped by it; the two can differ in the last bit.
    whole_od: bool,
    classes: Classes,
    memo: DecisionMemo,

    // Tenant columns, indexed by tag.
    class: Vec<u32>,
    flags: Vec<u8>,
    /// The first leg's `R_*` bits plus [`W_WOKEN`]; zero outside
    /// `on_slot`.
    wake: Vec<u8>,
    /// Slots of work awaiting (re-)submission.
    pending: Vec<u32>,
    /// Spot slots run, summed across legs: at most the job's slots, which
    /// `validate` holds to `u32` (a leg runs at most the slots it was
    /// assigned, and the legs' assignments partition the job's slots
    /// still owed).
    slots_run: Vec<u32>,
    interruptions: Vec<u32>,
    resubmissions: Vec<u32>,
    /// First slot not yet charged to the running legs: at most the
    /// session's slot count, which `validate` holds to `u32`.
    run_since: Vec<u32>,
    /// On-demand work bought (allocated on first use).
    od_bought: Vec<Hours>,
    /// The first leg's bid id, [`NIL`] when the tenant's first-leg slot
    /// is empty; a tenant holds no leg when it is empty and `next` is
    /// [`NIL`].
    bid: Vec<u32>,
    /// The first leg's work left ([`Leg::left`]).
    left: Vec<u32>,
    /// The first leg's market (allocated on first use).
    market: Vec<u32>,
    /// Slab index of the tenant's next leg (allocated on first use).
    next: Vec<u32>,
    slab: Vec<SlabLeg>,
    /// Head of the slab's free list.
    free: u32,

    /// Per market, the owning tenant of each bid id.
    owners: Vec<Vec<u32>>,
    /// Every advanced slot's per-market spot charge.
    charges: ChargeTable,
    /// Per-tenant cost totals: on-demand charges, settled spot charges.
    costs: CostTotals,
    /// Tenants flagged [`T_RUNNING`].
    running: usize,
    /// The fleet's one tenant list, ascending. Between slots it holds the
    /// tenants queued to (re-)plan at the next `before_slot`; the wave
    /// leaves there the tenants whose plan it applied, and `on_slot`
    /// appends the reports' owners to make the slot's wake set, which its
    /// visit overwrites in place with the tenants it re-queues.
    needy: Vec<u32>,
    /// Tenants not yet [`T_DONE`].
    active: usize,
    pub(in crate::closedloop) stats: PortfolioFleetStats,

    // Scratch (steady state allocates nothing per slot).
    /// A logged or refused slot's visit order: the wake set and every
    /// carried runner, ascending.
    sc_order: Vec<u32>,
    /// Per market: this slot's spot charge, and whether it fails
    /// validation.
    sc_charges: Vec<(Cost, bool)>,
    /// Per market: the wave's spot legs, while the wave is counted.
    sc_spot: Vec<usize>,
    /// Per market: the wave's queue.
    sc_queues: Vec<WaveQueue>,
    /// The running legs' markets of the tenant being settled.
    sc_legs: Vec<usize>,
}

impl Fleet {
    fn new(
        strategies: impl ExactSizeIterator<Item = PortfolioStrategy>,
        cfg: &PortfolioLoopConfig,
        logged: bool,
        whole_od: bool,
    ) -> Self {
        let n = strategies.len();
        assert!(n < NIL as usize, "the fleet supports < 2^32 - 1 tenants");
        let m = cfg.markets.len();
        let mut classes = Classes::default();
        let class = strategies.map(|s| classes.intern(s)).collect();
        let slots_needed = u32::try_from(cfg.job.slots_needed()).expect("validated job");
        Fleet {
            job: cfg.job,
            on_demand: cfg.on_demand,
            max_resubmissions: cfg.max_resubmissions,
            markets: m,
            logged,
            whole_od,
            classes,
            memo: DecisionMemo::default(),
            class,
            flags: vec![T_NEEDS_SUBMIT; n],
            wake: vec![0; n],
            pending: vec![slots_needed; n],
            slots_run: vec![0; n],
            interruptions: vec![0; n],
            resubmissions: vec![0; n],
            run_since: vec![0; n],
            od_bought: Vec::new(),
            bid: vec![NIL; n],
            left: vec![0; n],
            market: Vec::new(),
            next: Vec::new(),
            slab: Vec::new(),
            free: NIL,
            owners: vec![Vec::new(); m],
            charges: ChargeTable::new(m),
            costs: CostTotals::new(n),
            running: 0,
            needy: (0..n as u32).collect(),
            active: n,
            stats: PortfolioFleetStats {
                swept: vec![0; m],
                ..PortfolioFleetStats::default()
            },
            sc_order: Vec::new(),
            sc_charges: vec![(Cost::ZERO, false); m],
            sc_spot: Vec::new(),
            sc_queues: (0..m).map(|_| WaveQueue::default()).collect(),
            sc_legs: Vec::new(),
        }
    }

    fn tenants(&self) -> usize {
        self.flags.len()
    }

    /// Execution work still uncovered by spot slots run and on-demand
    /// work bought.
    fn remaining_work(&self, tu: usize) -> Hours {
        (self.job.execution
            - self.job.slot * f64::from(self.slots_run[tu])
            - lazy(&self.od_bought, tu, Hours::ZERO))
        .max(Hours::ZERO)
    }

    /// Appends a new leg to the tenant's legs: into its first-leg columns
    /// when it holds no leg, else at the end of its slab list.
    fn push_leg(&mut self, tu: usize, leg: Leg) {
        let head = lazy(&self.next, tu, NIL);
        if self.bid[tu] == NIL && head == NIL {
            if leg.market != 0 || !self.market.is_empty() {
                let n = self.tenants();
                *lazy_mut(&mut self.market, n, tu, 0) = leg.market;
            }
            (self.bid[tu], self.left[tu]) = (leg.bid, leg.left);
            return;
        }
        let entry = SlabLeg { leg, next: NIL };
        let k = if self.free == NIL {
            self.slab.push(entry);
            (self.slab.len() - 1) as u32
        } else {
            let k = self.free;
            self.free = self.slab[k as usize].next;
            self.slab[k as usize] = entry;
            k
        };
        if head == NIL {
            let n = self.tenants();
            *lazy_mut(&mut self.next, n, tu, NIL) = k;
        } else {
            let mut tail = head;
            while self.slab[tail as usize].next != NIL {
                tail = self.slab[tail as usize].next;
            }
            self.slab[tail as usize].next = k;
        }
    }

    /// Acts on a plan the wave loop leaves to it — the dense fleet's
    /// `apply_plan` (its on-demand charges validated and added here), plus
    /// the fresh wake.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] for an invalid on-demand charge.
    #[inline(never)]
    fn apply_plan(
        &mut self,
        t: u32,
        plan: &Plan,
        slot: u64,
        set: &mut MarketSet,
        events: &mut Events<'_>,
    ) -> Result<(), EngineError> {
        let tu = t as usize;
        let mut pending = self.pending[tu];
        for (m, slots, decision) in plan.legs() {
            if pending == 0 {
                break;
            }
            let assigned = leg_slots(slots, pending);
            pending -= assigned;
            match decision {
                BidDecision::OnDemand { price } => {
                    self.buy_on_demand(t, price, assigned, slot, events)?
                }
                BidDecision::Spot { price, persistent } => {
                    let request = spot_request(price, persistent, assigned);
                    let mut lane = Lane::open(m, &mut self.sc_queues, &mut self.owners);
                    let bid = lane.submit(set, t, request);
                    lane.close();
                    let leg = Leg {
                        market: m as u32,
                        bid,
                        left: assigned,
                        running: false,
                        report: 0,
                    };
                    self.push_leg(tu, leg);
                    events.emit(|| Event::BidSubmitted {
                        slot,
                        tenant: t,
                        price,
                        persistent,
                    });
                }
            }
        }
        let no_legs = self.bid[tu] == NIL && lazy(&self.next, tu, NIL) == NIL;
        let f = &mut self.flags[tu];
        if *f & T_COMPLETED == 0 && pending == 0 && no_legs {
            // Everything was covered on demand: the job is done before
            // the market even clears.
            *f |= T_COMPLETED | T_DONE_PENDING;
            events.emit(|| Event::Completed { slot, tenant: t });
        }
        self.pending[tu] = pending;
        self.wake[tu] |= W_WOKEN;
        Ok(())
    }

    /// Charges tenant `t` an on-demand leg of `assigned` slots at `price`.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] for an invalid charge.
    #[inline(never)]
    fn buy_on_demand(
        &mut self,
        t: u32,
        price: Price,
        assigned: u32,
        slot: u64,
        events: &mut Events<'_>,
    ) -> Result<(), EngineError> {
        let tu = t as usize;
        let remaining = self.remaining_work(tu);
        let work = if self.whole_od {
            remaining
        } else {
            (self.job.slot * f64::from(assigned)).min(remaining)
        };
        if work > Hours::ZERO {
            let item = LineItem {
                slot,
                price,
                duration: work,
                kind: UsageKind::OnDemand,
                tag: t,
            };
            events.emit(|| Event::Charged { item });
            self.costs.try_charge(&item)?;
            let n = self.tenants();
            *lazy_mut(&mut self.od_bought, n, tu, Hours::ZERO) += work;
        }
        Ok(())
    }

    /// Applies each tenant's plan from `memo`, in the order given: runs of
    /// the common plan in [`apply_common`](Self::apply_common), every
    /// other plan in [`apply_plan`](Self::apply_plan).
    ///
    /// # Errors
    ///
    /// As [`apply_plan`](Self::apply_plan).
    #[inline(never)]
    fn apply_wave(
        &mut self,
        tenants: &[u32],
        memo: &DecisionMemo,
        slot: u64,
        set: &mut MarketSet,
        events: &mut Events<'_>,
    ) -> Result<(), EngineError> {
        let mut rest = tenants;
        while let Some(&t) = rest.first() {
            let common = self.apply_common(rest, memo, slot, set, events);
            rest = &rest[common..];
            if common == 0 {
                self.apply_plan(t, memo.get(self.class[t as usize]), slot, set, events)?;
                rest = &rest[1..];
            }
        }
        Ok(())
    }

    /// Applies the common plan — one spot leg, for a tenant holding no
    /// leg — to the leading tenants of `tenants` whose plan it is in the
    /// first one's market, over the columns borrowed apart; returns how
    /// many it applied.
    #[inline(always)]
    fn apply_common(
        &mut self,
        tenants: &[u32],
        memo: &DecisionMemo,
        slot: u64,
        set: &mut MarketSet,
        events: &mut Events<'_>,
    ) -> usize {
        let n = self.tenants();
        let Fleet {
            class,
            pending,
            bid,
            left,
            market,
            next,
            wake,
            owners,
            sc_queues,
            ..
        } = self;
        // Every tenant column sliced to the one length `n`, so one bounds
        // check covers a tenant's entries in all of them.
        let (class, pending, wake) = (&class[..n], &mut pending[..n], &mut wake[..n]);
        let (bid, left, next) = (&mut bid[..n], &mut left[..n], &next[..]);
        // Tenant `tu`'s plan, if it is the common one.
        let common = |tu: usize, pending: &[u32], bid: &[u32]| match *memo.get(class[tu]) {
            Plan::Home {
                market,
                slots,
                decision: BidDecision::Spot { price, persistent },
            } if pending[tu] > 0 && bid[tu] == NIL && lazy(next, tu, NIL) == NIL => {
                Some((market, slots, price, persistent))
            }
            _ => None,
        };
        let Some((m, ..)) = tenants
            .first()
            .and_then(|&t| common(t as usize, pending, bid))
        else {
            return 0;
        };
        // The first leg's market column, allocated by the first leg
        // outside market 0.
        if m != 0 && market.is_empty() {
            market.resize(n, 0);
        }
        let mut market = (!market.is_empty()).then_some(&mut market[..]);
        let mut lane = Lane::open(m, sc_queues, owners);
        let mut applied = tenants.len();
        for (i, &t) in tenants.iter().enumerate() {
            let tu = t as usize;
            let Some((_, slots, price, persistent)) =
                common(tu, pending, bid).filter(|&(mk, ..)| mk == m)
            else {
                applied = i;
                break;
            };
            let assigned = leg_slots(slots, pending[tu]);
            pending[tu] -= assigned;
            bid[tu] = lane.submit(set, t, spot_request(price, persistent, assigned));
            left[tu] = assigned;
            if let Some(market) = market.as_deref_mut() {
                market[tu] = m as u32;
            }
            events.emit(|| Event::BidSubmitted {
                slot,
                tenant: t,
                price,
                persistent,
            });
            wake[tu] |= W_WOKEN;
        }
        lane.close();
        applied
    }

    /// The state a pass over tenants updates, borrowed apart.
    #[inline(always)]
    fn visit(&mut self) -> Visit<'_> {
        let n = self.tenants();
        let Fleet {
            job,
            max_resubmissions,
            markets,
            classes,
            class,
            flags,
            wake,
            pending,
            slots_run,
            interruptions,
            resubmissions,
            run_since,
            bid,
            left,
            market,
            next,
            slab,
            free,
            charges,
            costs,
            running,
            needy,
            active,
            sc_legs,
            ..
        } = self;
        // Every eager tenant column sliced to the one length `n`, so one
        // bounds check covers a tenant's entries in all of them.
        Visit {
            slot_len: job.slot,
            flags: &mut flags[..n],
            wake: &mut wake[..n],
            bid: &mut bid[..n],
            left: &mut left[..n],
            market,
            next,
            slab,
            free,
            run_since: &mut run_since[..n],
            slots_run: &mut slots_run[..n],
            interruptions: &mut interruptions[..n],
            pending: &mut pending[..n],
            totals: &mut costs.totals_mut()[..n],
            charges,
            cohort: Cohort::default(),
            sc_legs,
            requeue: Requeue {
                max_resubmissions: *max_resubmissions,
                markets: *markets,
                resubmissions: &mut resubmissions[..n],
                needy,
                queued: 0,
                class: &mut class[..n],
                classes,
            },
            running: *running,
            active: *active,
            counts: (running, active),
        }
    }

    /// Checks the bookkeeping a processed slot leaves, without
    /// allocating: the running and active counts equal a recount of the
    /// flags, every live first leg's owner entry names its tenant, no
    /// tenant flagged running holds no live leg, no tenant has run more
    /// spot slots than its job has, every listed tenant is flagged to
    /// re-plan, in ascending order, and the wake column is clear. Debug
    /// builds run it on every slot the fleet processes; release builds
    /// compile it out.
    #[cfg(debug_assertions)]
    fn audit(&self) {
        let (mut running, mut active) = (0, 0);
        let slots_needed = self.job.slots_needed();
        for (tu, &f) in self.flags.iter().enumerate() {
            let (t, b) = (tu as u32, self.bid[tu]);
            running += usize::from(f & T_RUNNING != 0);
            active += usize::from(f & T_DONE == 0);
            assert_eq!(self.wake[tu], 0, "tenant {t}: wake bits outside on_slot");
            let ran = u64::from(self.slots_run[tu]);
            assert!(ran <= slots_needed, "tenant {t}: {ran} spot slots");
            if b != NIL {
                let m = lazy(&self.market, tu, 0) as usize;
                let owner = self.owners[m].get(b as usize);
                assert_eq!(owner, Some(&t), "tenant {t}: bid {b} in market {m}");
            }
            let live = b != NIL || lazy(&self.next, tu, NIL) != NIL;
            assert!(
                f & T_RUNNING == 0 || live,
                "tenant {t} runs with no live leg"
            );
        }
        assert_eq!(running, self.running, "running tenants");
        assert_eq!(active, self.active, "active tenants");
        assert!(self.needy.is_sorted(), "the re-plan queue is ascending");
        for &t in &self.needy {
            let f = self.flags[t as usize];
            assert_ne!(f & T_NEEDS_SUBMIT, 0, "tenant {t} queued unflagged");
        }
    }

    fn status(&self) -> DriverStatus {
        if self.active == 0 {
            DriverStatus::Done
        } else {
            DriverStatus::Active
        }
    }
}

/// A slot's report verdicts as a visit reads them: the slot, each
/// market's report, and each market's spot charge with whether it is
/// refused.
type Verdicts<'r> = (u32, &'r [SlotReport], &'r [(Cost, bool)]);

/// The fleet state one pass over tenants updates — the tenant columns as
/// slices, the running and active counts as values — borrowed apart from
/// the rest of the fleet, so the pass keeps them in locals instead of
/// reloading each column through the fleet. [`end`](Self::end) hands the
/// counts back.
struct Visit<'a> {
    slot_len: Hours,
    flags: &'a mut [u8],
    wake: &'a mut [u8],
    bid: &'a mut [u32],
    left: &'a mut [u32],
    market: &'a [u32],
    next: &'a mut [u32],
    slab: &'a mut [SlabLeg],
    free: &'a mut u32,
    run_since: &'a mut [u32],
    slots_run: &'a mut [u32],
    interruptions: &'a mut [u32],
    pending: &'a mut [u32],
    totals: &'a mut [Cost],
    charges: &'a mut ChargeTable,
    /// The pass's last settlement: tenants that started together and
    /// settle through one slot take one fold.
    cohort: Cohort,
    sc_legs: &'a mut Vec<usize>,
    requeue: Requeue<'a>,
    running: usize,
    active: usize,
    /// Where `end` leaves `running` and `active`.
    counts: (&'a mut usize, &'a mut usize),
}

/// What re-queueing a tenant that lost work touches.
struct Requeue<'a> {
    max_resubmissions: u32,
    markets: usize,
    resubmissions: &'a mut [u32],
    /// The fleet's tenant list, rewritten from its start: its first
    /// `queued` entries are the tenants the pass re-queued, each written
    /// over an entry the pass has already read, or pushed at the end.
    needy: &'a mut Vec<u32>,
    queued: usize,
    class: &'a mut [u32],
    classes: &'a mut Classes,
}

impl Requeue<'_> {
    /// Puts a terminated leg's `lost` work back to tenant `t`'s `pending`
    /// and, while the resubmission budget lasts, queues the tenant's
    /// re-plan, moving a zone-fallback home to the next market (a new
    /// strategy class).
    #[inline(never)]
    fn lose(&mut self, t: u32, f: &mut u8, pending: &mut u32, lost: u32) {
        let tu = t as usize;
        *pending += lost;
        if self.resubmissions[tu] >= self.max_resubmissions {
            *f |= T_GAVE_UP;
            return;
        }
        self.resubmissions[tu] += 1;
        // Several legs may terminate in one slot: queue the tenant once.
        if *f & T_NEEDS_SUBMIT == 0 {
            *f |= T_NEEDS_SUBMIT;
            match self.needy.get_mut(self.queued) {
                Some(slot) => *slot = t,
                None => self.needy.push(t),
            }
            self.queued += 1;
        }
        let c = self.class[tu] as usize;
        if let PortfolioStrategy::ZoneFallback { home, base } = self.classes.strategies[c] {
            let next = (home + 1) % self.markets;
            if next != home {
                let rotated = PortfolioStrategy::ZoneFallback { home: next, base };
                self.class[tu] = self.classes.intern(rotated);
            }
        }
    }
}

impl Visit<'_> {
    /// Hands the running and active counts back to the fleet and cuts its
    /// tenant list to the queue.
    fn end(self) {
        (*self.counts.0, *self.counts.1) = (self.running, self.active);
        self.requeue.needy.truncate(self.requeue.queued);
    }

    /// Charges the running legs their carried slots `[run_since, end)`,
    /// slot by slot in plan order, as one of the pass's cohort, and moves
    /// `run_since` to `end`; a no-op for a tenant not running.
    #[inline(always)]
    fn settle(&mut self, t: u32, end: u32) {
        let tu = t as usize;
        let (f, since) = (self.flags[tu], self.run_since[tu]);
        if f & T_RUNNING == 0 || since == end {
            return;
        }
        let n = end - since;
        let (from, to) = (u64::from(since), u64::from(end));
        let total = &mut self.totals[tu];
        let head = lazy(self.next, tu, NIL);
        if head == NIL {
            // The first leg is the only one, and it runs.
            let m = lazy(self.market, tu, 0) as usize;
            let legs = std::iter::once(m);
            *total = self
                .charges
                .settle_cohort(&mut self.cohort, *total, from, to, legs);
            self.left[tu] = self.left[tu].wrapping_sub(n);
            self.slots_run[tu] += n;
        } else {
            self.sc_legs.clear();
            let mut ran = 0;
            if f & T_FIRST_RUNNING != 0 {
                self.sc_legs.push(lazy(self.market, tu, 0) as usize);
                self.left[tu] = self.left[tu].wrapping_sub(n);
                ran += n;
            }
            let mut k = head;
            while k != NIL {
                let e = &mut self.slab[k as usize];
                if e.leg.running {
                    self.sc_legs.push(e.leg.market as usize);
                    e.leg.left = e.leg.left.wrapping_sub(n);
                    ran += n;
                }
                k = e.next;
            }
            let legs = self.sc_legs.iter().copied();
            *total = self
                .charges
                .settle_cohort(&mut self.cohort, *total, from, to, legs);
            self.slots_run[tu] += ran;
        }
        self.run_since[tu] = end;
    }

    /// Advances one leg of tenant `t`, whose flags are `f`, against its
    /// market's report — the dense fleet's per-leg update, its verdict
    /// read from (and cleared in) the leg's report bits and a slot it ran
    /// charged to the tenant's total. The first leg that ran in a
    /// refused market leaves its billing error in `refusal`. Returns
    /// whether the leg is still live.
    #[inline(always)]
    fn update_leg(
        &mut self,
        (t, f): (u32, &mut u8),
        leg: &mut Leg,
        (slot, reports, charges): Verdicts<'_>,
        refusal: &mut Option<EngineError>,
        events: &mut Events<'_>,
    ) -> bool {
        let (tu, m, slot) = (t as usize, leg.market as usize, u64::from(slot));
        let bits = std::mem::take(&mut leg.report);
        let started = bits & R_STARTED != 0;
        let interrupted = bits & R_INTERRUPTED != 0;
        let finished = bits & R_FINISHED != 0;
        let terminated = bits & R_TERMINATED != 0;
        let ran = started || (leg.running && !interrupted && !terminated);
        if started {
            leg.running = true;
            events.emit(|| Event::BidAccepted { slot, tenant: t });
        }
        if interrupted {
            self.interruptions[tu] += 1;
            events.emit(|| Event::Interrupted { slot, tenant: t });
        }
        if ran {
            // The provider charges running bids the posted price per slot
            // (§3.2); mirror the market's accrual in the tenant's total.
            leg.left = leg.left.wrapping_sub(1);
            self.slots_run[tu] += 1;
            let (charge, refused) = charges[m];
            let (price, duration) = (reports[m].price, self.slot_len);
            events.emit(|| Event::Charged {
                item: LineItem {
                    slot,
                    price,
                    duration,
                    kind: UsageKind::Spot,
                    tag: t,
                },
            });
            self.totals[tu] += charge;
            if refused && refusal.is_none() {
                *refusal = spot_charge(slot, price, duration).err();
            }
        }
        if interrupted || terminated || finished {
            leg.running = false;
        }
        if !(finished || terminated) {
            return true;
        }
        if !finished {
            events.emit(|| Event::Rejected { slot, tenant: t });
            self.requeue.lose(t, f, &mut self.pending[tu], leg.left);
        }
        false
    }

    /// Advances one visited tenant, after settling its carried running
    /// slots, against every market's report, its legs in plan order — the
    /// dense fleet's `slot_update` over columns, with the running count
    /// kept and a tenant done for the session flagged [`T_DONE`].
    #[inline(always)]
    fn update_tenant(
        &mut self,
        t: u32,
        at: Verdicts<'_>,
        refusal: &mut Option<EngineError>,
        events: &mut Events<'_>,
    ) {
        let (tu, now) = (t as usize, at.0);
        let bits = std::mem::take(&mut self.wake[tu]);
        let mut f = self.flags[tu];
        let head = lazy(self.next, tu, NIL);
        if f & T_DONE != 0 {
            return;
        }
        if f & T_RUNNING != 0 {
            self.settle(t, now);
        } else if bits & !W_WOKEN == 0
            && f & T_DONE_PENDING == 0
            && self.bid[tu] != NIL
            && head == NIL
        {
            // One live leg, neither running nor named: nothing changes.
            return;
        }
        self.run_since[tu] = now + 1;
        let mut done = f & T_DONE_PENDING != 0;
        if !done {
            let mut running = false;
            if self.bid[tu] != NIL {
                let mut leg = Leg {
                    market: lazy(self.market, tu, 0),
                    bid: self.bid[tu],
                    left: self.left[tu],
                    running: f & T_FIRST_RUNNING != 0,
                    report: bits & !W_WOKEN,
                };
                if self.update_leg((t, &mut f), &mut leg, at, refusal, events) {
                    (self.left[tu], running) = (leg.left, leg.running);
                } else {
                    self.bid[tu] = NIL;
                }
                f = with_bit(f, T_FIRST_RUNNING, running);
            }
            if head != NIL {
                running |= self.update_slab_legs((t, &mut f), at, refusal, events);
            }
            let was_running = f & T_RUNNING != 0;
            f = with_bit(f, T_RUNNING, running);
            self.running = self.running + usize::from(running) - usize::from(was_running);
            let no_legs = self.bid[tu] == NIL && lazy(self.next, tu, NIL) == NIL;
            if f & T_COMPLETED == 0 && no_legs && self.pending[tu] == 0 {
                f |= T_COMPLETED;
                let slot = u64::from(now);
                events.emit(|| Event::Completed { slot, tenant: t });
                done = true;
            } else {
                done = f & T_GAVE_UP != 0 && no_legs && f & T_NEEDS_SUBMIT == 0;
            }
        }
        if done {
            f |= T_DONE;
            self.active -= 1;
        }
        self.flags[tu] = f;
    }

    /// Advances tenant `t`'s slab legs as
    /// [`update_tenant`](Self::update_tenant) does its first; a first leg
    /// that is gone leaves its columns empty until the tenant holds no
    /// leg. Returns whether any of them runs.
    #[inline(always)]
    fn update_slab_legs(
        &mut self,
        (t, f): (u32, &mut u8),
        at: Verdicts<'_>,
        refusal: &mut Option<EngineError>,
        events: &mut Events<'_>,
    ) -> bool {
        let tu = t as usize;
        let (mut running, mut prev, mut k) = (false, NIL, self.next[tu]);
        while k != NIL {
            let SlabLeg { mut leg, next } = self.slab[k as usize];
            if self.update_leg((t, &mut *f), &mut leg, at, refusal, events) {
                running |= leg.running;
                self.slab[k as usize].leg = leg;
                prev = k;
            } else {
                if prev == NIL {
                    self.next[tu] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
                self.slab[k as usize].next = *self.free;
                *self.free = k;
            }
            k = next;
        }
        running
    }
}

impl JobDriver<PortfolioSource> for Fleet {
    fn before_slot(
        &mut self,
        slot: u64,
        source: &mut PortfolioSource,
        emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        // The queue holds exactly the tenants the dense fleet's scan would
        // select (queued ascending, drained every slot), filtered by their
        // `!done && needs_submit && !done_pending` guard.
        let mut needy = std::mem::take(&mut self.needy);
        needy.retain(|&t| {
            let f = &mut self.flags[t as usize];
            let keep = *f & (T_DONE | T_DONE_PENDING) == 0 && *f & T_NEEDS_SUBMIT != 0;
            if keep {
                *f &= !T_NEEDS_SUBMIT;
            }
            keep
        });
        if needy.is_empty() {
            self.needy = needy;
            return Ok(());
        }
        // One history per market and one view per market for the slot.
        // Each class plans once, in tenant order; a failed plan ends the
        // pass, and its error is raised once every earlier tenant's plan
        // is applied, where the per-tenant order raises it.
        let histories = source.observed()?;
        let od = self.on_demand;
        let views: Vec<PriceView> = histories.iter().map(|h| PriceView::new(h, od)).collect();
        let portfolio = OnceCell::new();
        let portfolio = || portfolio.get_or_init(|| PortfolioView::new(&histories, od));
        let job = self.job;
        self.memo.reset(self.classes.strategies.len());
        let (mut decided, mut failure) = (0, None);
        for &t in &needy {
            let c = self.class[t as usize];
            let strategy = &self.classes.strategies[c as usize];
            let plan = || Plan::decide(strategy, &views, portfolio, &job);
            if let Err(e) = self.memo.decide(c, plan) {
                failure = Some(e);
                break;
            }
            decided += 1;
        }
        // The wave's spot legs grow each market's owner and bid columns
        // once and size its queue; the wave's ids follow every bid its
        // market holds.
        self.sc_spot.clear();
        self.sc_spot.resize(self.markets, 0);
        for (_, uses, plan) in &self.memo.made {
            for (m, _, decision) in plan.legs() {
                if let BidDecision::Spot { .. } = decision {
                    self.sc_spot[m] += *uses as usize;
                }
            }
        }
        for (m, &spot) in self.sc_spot.iter().enumerate() {
            let market = source.set.market_mut(m);
            let (first, owner) = (market.submitted(), &mut self.owners[m]);
            let len = first + spot;
            reserve_column(owner, len.saturating_sub(owner.len()));
            if owner.len() < len {
                owner.resize(len, NIL);
            }
            market.reserve(spot);
            let queue = &mut self.sc_queues[m];
            let room = spot.min(QUEUE);
            if queue.buf.len() < room {
                queue.buf.resize(room, spot_request(Price::ZERO, false, 0));
            }
            queue.next_id = first;
        }
        // Serial, ordered apply: bid ids and events come out as if each
        // tenant had planned and submitted in turn; the legs enter each
        // market in batches of up to `QUEUE` (an apply error ends the
        // session).
        let mut events = Events::new(emit, self.logged);
        let memo = std::mem::take(&mut self.memo);
        let applied = self.apply_wave(&needy[..decided], &memo, slot, &mut source.set, &mut events);
        self.memo = memo;
        applied?;
        for (m, queue) in self.sc_queues.iter_mut().enumerate() {
            source.set.submit_batch(m, &queue.buf[..queue.queued]);
            queue.queued = 0;
        }
        if let Some(e) = failure {
            return Err(EngineError::Core(e));
        }
        // Every tenant listed was applied: the list opens the slot's wake
        // set.
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
            self.charges.push(report.price * self.job.slot);
        }

        // The wake set: the tenants the wave applied, which `before_slot`
        // leaves in the list, then every market's report owners, each
        // tenant once; a live leg's report bits go to the leg.
        let n = self.tenants();
        let woken = &mut self.needy;
        let (bid, market, next) = (&self.bid[..n], &self.market[..], &self.next[..]);
        let (wake, slab) = (&mut self.wake[..n], &mut self.slab[..]);
        for (m, report) in reports.iter().enumerate() {
            let mut swept = 0;
            for_each_owner(&self.owners[m][..], report, |t, id, bit| {
                swept += 1;
                let tu = t as usize;
                let w = &mut wake[tu];
                if *w & W_WOKEN == 0 {
                    *w |= W_WOKEN;
                    woken.push(t);
                }
                let here = |b: u32, mk: u32| u64::from(b) == id.0 && mk as usize == m;
                if here(bid[tu], lazy(market, tu, 0)) {
                    *w |= bit;
                    return;
                }
                let mut k = lazy(next, tu, NIL);
                while k != NIL {
                    let e = &mut slab[k as usize];
                    if here(e.leg.bid, e.leg.market) {
                        e.leg.report |= bit;
                        return;
                    }
                    k = e.next;
                }
            });
            self.stats.swept[m] += swept;
        }

        if woken.is_empty() && self.running == 0 {
            // Nothing named, planned or running: the dense fleet would
            // have walked every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            return Ok(self.status());
        }

        // Ascending tenant order, the dense scan order (the fresh and
        // per-list runs arrive mostly ascending, often wholly). Carried
        // runners join when their `Charged` events are wanted, or when a
        // market's spot charge is invalid: the refusal is the first such
        // charge's.
        if !woken.is_sorted() {
            woken.sort_unstable();
        }
        let woken = woken.len();
        self.stats.woken += woken as u64;
        let mut verdicts = std::mem::take(&mut self.sc_charges);
        for (m, (charge, refused)) in verdicts.iter_mut().enumerate() {
            *charge = self.charges.at(slot, m);
            *refused = spot_charge(slot, reports[m].price, self.job.slot).is_err();
        }
        let mut order = std::mem::take(&mut self.sc_order);
        order.clear();
        let ordered = self.logged || verdicts.iter().any(|&(_, refused)| refused);
        if ordered {
            let mut woken = self.needy.iter().copied().peekable();
            for t in 0..self.tenants() as u32 {
                if woken.next_if_eq(&t).is_some() || self.flags[t as usize] & T_RUNNING != 0 {
                    order.push(t);
                }
            }
        }
        let now = u32::try_from(slot).expect("validated: a session's slots fit u32");
        let at = (now, &reports[..], &verdicts[..]);
        let mut refusal = None;
        let mut events = Events::new(emit, self.logged);
        let mut pass = self.visit();
        // A visit queues its tenant at most once, so the pass writes the
        // list no further than the wake-set entry it reads.
        if !ordered {
            for i in 0..woken {
                debug_assert!(pass.requeue.queued <= i);
                let t = pass.requeue.needy[i];
                pass.update_tenant(t, at, &mut refusal, &mut events);
            }
        } else {
            for &t in &order {
                pass.update_tenant(t, at, &mut refusal, &mut events);
            }
        }
        pass.end();
        (self.sc_order, self.sc_charges) = (order, verdicts);
        #[cfg(debug_assertions)]
        self.audit();
        match refusal {
            Some(e) => Err(e),
            None => Ok(self.status()),
        }
    }
}

impl SessionFleet for Fleet {
    fn costs(&mut self) -> Option<&mut CostTotals> {
        Some(&mut self.costs)
    }

    fn close(&mut self) {
        // Tenants still running at the session end owe their carried
        // slots; the pass re-queues nothing, and no wave follows to read
        // the queue it leaves empty.
        let end =
            u32::try_from(self.charges.slots()).expect("validated: a session's slots fit u32");
        let n = self.tenants() as u32;
        let mut pass = self.visit();
        for t in 0..n {
            pass.settle(t, end);
        }
        pass.end();
    }

    #[inline(always)]
    fn tenant_final(&self, tag: u32) -> TenantFinal<'_> {
        // Every column sliced to the one length `n`: a caller's loop over
        // the tags hoists the slicing, and one bounds check covers a
        // tenant's entries in all of them.
        let (tu, n) = (tag as usize, self.tenants());
        let completed = self.flags[..n][tu] & T_COMPLETED != 0;
        TenantFinal {
            tag,
            strategy: &self.classes.strategies[self.class[..n][tu] as usize],
            completed,
            spot_slots: u64::from(self.slots_run[..n][tu]),
            interruptions: self.interruptions[..n][tu],
            resubmissions: self.resubmissions[..n][tu],
            remaining: if completed {
                Hours::ZERO
            } else {
                self.remaining_work(tu)
            },
        }
    }
}

/// Runs the fleet under the session shell, one tenant per strategy; a
/// `single` session is the single-market loop ([`SingleMarket`]).
pub(in crate::closedloop) fn run(
    strategies: impl ExactSizeIterator<Item = PortfolioStrategy>,
    cfg: &PortfolioLoopConfig,
    seed: u64,
    faults: Option<&[LoopFaults]>,
    single: Option<&SingleMarket>,
    log: Option<&mut EventLog>,
) -> Result<Session<Fleet>, EngineError> {
    let logged = log.is_some();
    run_session(strategies.len(), cfg, seed, faults, single, log, || {
        Fleet::new(strategies, cfg, logged, single.is_some())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn home(base: BiddingStrategy) -> PortfolioStrategy {
        PortfolioStrategy::ZoneFallback { home: 0, base }
    }

    fn fixed(p: f64) -> PortfolioStrategy {
        home(BiddingStrategy::FixedBid(Price::new(p)))
    }

    #[test]
    fn interning_is_exact_and_numbers_classes_in_order() {
        let mut classes = Classes::default();
        let percentile = |bits| home(BiddingStrategy::Percentile(f64::from_bits(bits)));
        let (nan_a, nan_b) = (
            percentile(0x7FF8_0000_0000_0001),
            percentile(0x7FF8_0000_0000_0002),
        );
        let first = [fixed(0.25), fixed(0.0), fixed(-0.0), nan_a, nan_b];
        let ids: Vec<u32> = first.iter().map(|&s| classes.intern(s)).collect();
        // Bit-identical strategies share a class; signed zeros and NaN
        // payloads are different bits, so different classes.
        assert_eq!(ids, [0, 1, 2, 3, 4]);
        assert_eq!(classes.intern(fixed(0.25)), 0);
        assert_eq!(classes.intern(percentile(0x7FF8_0000_0000_0002)), 4);
        assert_eq!(classes.strategies.len(), 5);
        // The numbering survives the table's growth.
        let more: Vec<u32> = (0..40)
            .map(|k| classes.intern(fixed(1.0 + f64::from(k))))
            .collect();
        assert_eq!(more, (5..45).collect::<Vec<_>>());
        assert_eq!(classes.intern(fixed(-0.0)), 2);
        assert_eq!(classes.intern(nan_a), 3);
    }

    #[test]
    fn keys_filed_in_one_slot_keep_their_own_classes() {
        // Two strategies whose keys start their probe in the same slot
        // of the first table.
        let slot = |p: f64| key_hash(plan_key(&fixed(p))) & 15;
        let a = 0.05;
        let b = (1..10_000)
            .map(|k| 0.05 + f64::from(k) * 1e-4)
            .find(|&b| slot(b) == slot(a))
            .expect("a colliding key");
        let mut classes = Classes::default();
        assert_eq!(classes.intern(fixed(a)), 0);
        assert_eq!(classes.intern(fixed(b)), 1);
        for _ in 0..3 {
            assert_eq!((classes.intern(fixed(b)), classes.intern(fixed(a))), (1, 0));
        }
        assert_eq!(classes.table.len(), 16);
    }

    #[test]
    fn unlogged_fleets_build_no_events() {
        let mut seen = Vec::new();
        let mut emit = |e: Event| seen.push(e);
        let mut unlogged = Events::new(&mut emit, false);
        unlogged.emit(|| unreachable!("an unlogged session built an event"));
        let mut logged = Events::new(&mut emit, true);
        logged.emit(|| Event::Completed { slot: 3, tenant: 7 });
        assert_eq!(seen, vec![Event::Completed { slot: 3, tenant: 7 }]);
    }
}
