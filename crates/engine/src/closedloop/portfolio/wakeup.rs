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
//! plan order, the dense fleets' float-addition order. The fleet counts
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
//! each tenant's legs in plan order. Bid ids, events, costs and RNG draws
//! are **bit-identical** to the frozen dense oracles at any
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
    reserve_pow2, BidId, BidKind, BidRequest, ChargeTable, SlotReport, WorkModel,
};
use spotbid_market::units::{Hours, Price};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
/// Queued in `needy` for a (re-)plan next `before_slot`.
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

/// Records tenant `t` as the owner of bid `id` in a bid-id → tenant
/// column ([`NIL`]: a background bid).
fn set_owner(owner: &mut Vec<u32>, id: usize, t: u32) {
    if owner.len() > id {
        owner[id] = t;
    } else {
        owner.resize(id, NIL);
        owner.push(t);
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

/// A multiplicative hasher for the strategy keys. Classifying 50k tenants
/// through std's SipHash costs about five times as much; the keys are not
/// attacker-chosen.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits on top; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0xF135_7AEA_2E62_A9C5);
    }
}

/// A portfolio strategy's identity: its variant and its base strategy's
/// variant, the bits of its parameter, and the bits of its base
/// strategy's parameter. Two keys are equal exactly when the strategies
/// are bit-identical.
fn plan_key(s: &PortfolioStrategy) -> (u64, u64, u64) {
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

/// A session's strategy classes: one strategy per class of bit-identical
/// strategies, interned by [`plan_key`].
#[derive(Default)]
struct Classes {
    strategies: Vec<PortfolioStrategy>,
    ids: HashMap<(u64, u64, u64), u32, BuildHasherDefault<MulHasher>>,
}

impl Classes {
    /// The class of `s`, a new one if unseen.
    fn intern(&mut self, s: PortfolioStrategy) -> u32 {
        let next = self.strategies.len() as u32;
        let c = *self.ids.entry(plan_key(&s)).or_insert(next);
        if c == next {
            self.strategies.push(s);
        }
        c
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
    fn decide<E>(&mut self, c: u32, decide: impl FnOnce() -> Result<Plan, E>) -> Result<(), E> {
        let c = c as usize;
        if self.at.len() <= c {
            self.at.resize(c + 1, 0);
        }
        if self.at[c] == 0 {
            self.made.push((c as u32, 0, decide()?));
            self.at[c] = self.made.len() as u32;
        }
        self.made[self.at[c] as usize - 1].1 += 1;
        Ok(())
    }

    /// Class `c`'s plan; it must have been made since the last clear.
    fn get(&self, c: u32) -> &Plan {
        &self.made[self.at[c as usize] as usize - 1].2
    }

    /// Forgets every plan (the next slot has a new view).
    fn clear(&mut self) {
        for (c, _, _) in self.made.drain(..) {
            self.at[c as usize] = 0;
        }
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
    /// Spot slots run, summed across legs.
    slots_run: Vec<u64>,
    interruptions: Vec<u32>,
    resubmissions: Vec<u32>,
    /// First slot not yet charged to the running legs.
    run_since: Vec<u64>,
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
    /// Tenants whose plan was applied this `before_slot`.
    fresh: Vec<u32>,
    /// Tenants queued to (re-)plan at the next `before_slot`.
    needy: Vec<u32>,
    /// Tenants not yet [`T_DONE`].
    active: usize,
    pub(in crate::closedloop) stats: PortfolioFleetStats,

    // Scratch (steady state allocates nothing per slot).
    sc_woken: Vec<u32>,
    sc_order: Vec<u32>,
    /// Per market: this slot's spot charge fails validation.
    sc_refused: Vec<bool>,
    /// Per market: the wave's spot legs.
    sc_spot: Vec<usize>,
    /// Per market: the wave's latest bids, in tenant order, at most
    /// [`QUEUE`] of them, not yet submitted.
    sc_queues: Vec<Vec<BidRequest>>,
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
            fresh: Vec::new(),
            needy: (0..n as u32).collect(),
            active: n,
            stats: PortfolioFleetStats {
                swept: vec![0; m],
                ..PortfolioFleetStats::default()
            },
            sc_woken: Vec::new(),
            sc_order: Vec::new(),
            sc_refused: vec![false; m],
            sc_spot: Vec::new(),
            sc_queues: vec![Vec::new(); m],
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
            - self.job.slot * self.slots_run[tu] as f64
            - lazy(&self.od_bought, tu, Hours::ZERO))
        .max(Hours::ZERO)
    }

    /// Appends a new leg to the tenant's legs: into its first-leg columns
    /// when it holds no leg, else at the end of its slab list.
    #[inline(always)]
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

    /// Charges the running legs their carried slots `[run_since, end)`,
    /// slot by slot in plan order, and moves `run_since` to `end`; a
    /// no-op for a tenant not running.
    #[inline]
    fn settle(&mut self, t: u32, end: u64) {
        let tu = t as usize;
        if self.flags[tu] & T_RUNNING != 0 && self.run_since[tu] != end {
            self.settle_carried(t, end);
        }
    }

    /// [`settle`](Self::settle) for a runner with carried slots.
    #[inline(never)]
    fn settle_carried(&mut self, t: u32, end: u64) {
        let tu = t as usize;
        let (f, since) = (self.flags[tu], self.run_since[tu]);
        let n = end - since;
        if lazy(&self.next, tu, NIL) == NIL {
            // The first leg is the only one, and it runs.
            let m = lazy(&self.market, tu, 0) as usize;
            let total = self.costs.total_mut(t);
            *total = self.charges.settle(*total, since, end, std::iter::once(m));
            self.left[tu] = self.left[tu].wrapping_sub(n as u32);
            self.slots_run[tu] += n;
            self.run_since[tu] = end;
            return;
        }
        self.sc_legs.clear();
        if f & T_FIRST_RUNNING != 0 {
            self.sc_legs.push(lazy(&self.market, tu, 0) as usize);
            self.left[tu] = self.left[tu].wrapping_sub(n as u32);
        }
        let mut k = lazy(&self.next, tu, NIL);
        while k != NIL {
            let e = &mut self.slab[k as usize];
            if e.leg.running {
                self.sc_legs.push(e.leg.market as usize);
                e.leg.left = e.leg.left.wrapping_sub(n as u32);
            }
            k = e.next;
        }
        let total = self.costs.total_mut(t);
        *total = self
            .charges
            .settle(*total, since, end, self.sc_legs.iter().copied());
        self.slots_run[tu] += n * self.sc_legs.len() as u64;
        self.run_since[tu] = end;
    }

    /// Acts on a resolved plan — the dense fleet's `apply_plan` (its
    /// on-demand charges validated and added here), plus the bid-owner
    /// columns and the fresh wake.
    ///
    /// # Errors
    ///
    /// [`EngineError::Billing`] for an invalid on-demand charge.
    #[inline]
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
        // A re-plan covers only the lost work: each leg is capped at what
        // is still pending (the first plan partitions exactly).
        let cap = |slots: u64, pending: u32| slots.min(u64::from(pending)).max(1) as u32;
        let alone = self.bid[tu] == NIL && lazy(&self.next, tu, NIL) == NIL;
        match *plan {
            // The common plan: one spot leg for a tenant holding no leg.
            Plan::Home {
                market,
                slots,
                decision: BidDecision::Spot { price, persistent },
            } if alone && pending > 0 => {
                let assigned = cap(slots, pending);
                pending -= assigned;
                let at = (slot, &mut *set);
                self.submit(t, market, (price, persistent), assigned, at, events);
            }
            _ => {
                for (m, slots, decision) in plan.legs() {
                    if pending == 0 {
                        break;
                    }
                    let assigned = cap(slots, pending);
                    pending -= assigned;
                    match decision {
                        BidDecision::OnDemand { price } => {
                            self.buy_on_demand(t, price, assigned, slot, events)?
                        }
                        BidDecision::Spot { price, persistent } => {
                            let at = (slot, &mut *set);
                            self.submit(t, m, (price, persistent), assigned, at, events)
                        }
                    }
                }
                let no_legs = self.bid[tu] == NIL && lazy(&self.next, tu, NIL) == NIL;
                let f = &mut self.flags[tu];
                if *f & T_COMPLETED == 0 && pending == 0 && no_legs {
                    // Everything was covered on demand: the job is done
                    // before the market even clears.
                    *f |= T_COMPLETED | T_DONE_PENDING;
                    events.emit(|| Event::Completed { slot, tenant: t });
                }
            }
        }
        self.pending[tu] = pending;
        self.wake[tu] |= W_WOKEN;
        self.fresh.push(t);
        Ok(())
    }

    /// Submits tenant `t`'s spot leg of `assigned` slots to market `m`:
    /// the bid joins the market's queue, flushed into the market first if
    /// full, after the bids the market holds, so it gets the id a
    /// submission would return now.
    #[inline(always)]
    fn submit(
        &mut self,
        t: u32,
        m: usize,
        (price, persistent): (Price, bool),
        assigned: u32,
        (slot, set): (u64, &mut MarketSet),
        events: &mut Events<'_>,
    ) {
        let queue = &mut self.sc_queues[m];
        if queue.len() == QUEUE {
            set.submit_batch(m, queue);
            queue.clear();
        }
        let id = set.market(m).submitted() + queue.len();
        queue.push(BidRequest {
            price,
            kind: if persistent {
                BidKind::Persistent
            } else {
                BidKind::OneTime
            },
            work: WorkModel::FixedSlots(assigned),
        });
        set_owner(&mut self.owners[m], id, t);
        let leg = Leg {
            market: m as u32,
            bid: u32::try_from(id).expect("market bid ids fit in u32"),
            left: assigned,
            running: false,
            report: 0,
        };
        self.push_leg(t as usize, leg);
        events.emit(|| Event::BidSubmitted {
            slot,
            tenant: t,
            price,
            persistent,
        });
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

    /// Applies each tenant's plan from `memo`, in the order given.
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
        for &t in tenants {
            self.apply_plan(t, memo.get(self.class[t as usize]), slot, set, events)?;
        }
        Ok(())
    }

    /// Advances one leg of tenant `t`, whose flags are `f`, against its
    /// market's report — the dense fleet's per-leg update, its verdict
    /// read from (and cleared in) the leg's report bits and a slot it ran
    /// charged to the tenant's total. The first leg that ran in a
    /// `refused` market leaves its billing error in `refusal`. Returns
    /// whether the leg is still live.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn update_leg(
        &mut self,
        t: u32,
        f: &mut u8,
        leg: &mut Leg,
        slot: u64,
        reports: &[SlotReport],
        refused: &[bool],
        refusal: &mut Option<EngineError>,
        events: &mut Events<'_>,
    ) -> bool {
        let (tu, m) = (t as usize, leg.market as usize);
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
            let (price, duration) = (reports[m].price, self.job.slot);
            events.emit(|| Event::Charged {
                item: LineItem {
                    slot,
                    price,
                    duration,
                    kind: UsageKind::Spot,
                    tag: t,
                },
            });
            self.costs.add(t, self.charges.at(slot, m));
            if refused[m] && refusal.is_none() {
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
            self.lose(t, f, leg.left);
        }
        false
    }

    /// Puts a terminated leg's `lost` work back to pending and, while the
    /// resubmission budget lasts, queues the tenant's re-plan, moving a
    /// zone-fallback home to the next market (a new strategy class).
    #[inline(never)]
    fn lose(&mut self, t: u32, f: &mut u8, lost: u32) {
        let tu = t as usize;
        self.pending[tu] += lost;
        if self.resubmissions[tu] >= self.max_resubmissions {
            *f |= T_GAVE_UP;
            return;
        }
        self.resubmissions[tu] += 1;
        // Several legs may terminate in one slot: queue the tenant once.
        if *f & T_NEEDS_SUBMIT == 0 {
            *f |= T_NEEDS_SUBMIT;
            self.needy.push(t);
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

    /// Advances one visited tenant, after settling its carried running
    /// slots, against every market's report, its legs in plan order — the
    /// dense fleet's `slot_update` over columns, with the running count
    /// kept and a tenant done for the session flagged [`T_DONE`].
    fn update_tenant(
        &mut self,
        t: u32,
        slot: u64,
        reports: &[SlotReport],
        refused: &[bool],
        refusal: &mut Option<EngineError>,
        events: &mut Events<'_>,
    ) {
        let tu = t as usize;
        let bits = std::mem::take(&mut self.wake[tu]);
        let mut f = self.flags[tu];
        let head = lazy(&self.next, tu, NIL);
        if f & T_DONE != 0 {
            return;
        }
        if f & T_RUNNING != 0 {
            self.settle(t, slot);
        } else if bits & !W_WOKEN == 0
            && f & T_DONE_PENDING == 0
            && self.bid[tu] != NIL
            && head == NIL
        {
            // One live leg, neither running nor named: nothing changes.
            return;
        }
        self.run_since[tu] = slot + 1;
        let mut done = f & T_DONE_PENDING != 0;
        if !done {
            let mut running = false;
            if self.bid[tu] != NIL {
                let mut leg = Leg {
                    market: lazy(&self.market, tu, 0),
                    bid: self.bid[tu],
                    left: self.left[tu],
                    running: f & T_FIRST_RUNNING != 0,
                    report: bits & !W_WOKEN,
                };
                if self.update_leg(t, &mut f, &mut leg, slot, reports, refused, refusal, events) {
                    (self.left[tu], running) = (leg.left, leg.running);
                } else {
                    self.bid[tu] = NIL;
                }
                f = with_bit(f, T_FIRST_RUNNING, running);
            }
            if head != NIL {
                let at = (slot, reports, refused);
                running |= self.update_slab_legs(t, &mut f, at, refusal, events);
            }
            let was_running = f & T_RUNNING != 0;
            f = with_bit(f, T_RUNNING, running);
            self.running = self.running + usize::from(running) - usize::from(was_running);
            let no_legs = self.bid[tu] == NIL && lazy(&self.next, tu, NIL) == NIL;
            if f & T_COMPLETED == 0 && no_legs && self.pending[tu] == 0 {
                f |= T_COMPLETED;
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
    #[inline(never)]
    fn update_slab_legs(
        &mut self,
        t: u32,
        f: &mut u8,
        (slot, reports, refused): (u64, &[SlotReport], &[bool]),
        refusal: &mut Option<EngineError>,
        events: &mut Events<'_>,
    ) -> bool {
        let tu = t as usize;
        let (mut running, mut prev, mut k) = (false, NIL, self.next[tu]);
        while k != NIL {
            let SlabLeg { mut leg, next } = self.slab[k as usize];
            if self.update_leg(t, f, &mut leg, slot, reports, refused, refusal, events) {
                running |= leg.running;
                self.slab[k as usize].leg = leg;
                prev = k;
            } else {
                if prev == NIL {
                    self.next[tu] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
                self.slab[k as usize].next = self.free;
                self.free = k;
            }
            k = next;
        }
        running
    }

    fn status(&self) -> DriverStatus {
        if self.active == 0 {
            DriverStatus::Done
        } else {
            DriverStatus::Active
        }
    }
}

impl JobDriver<PortfolioSource> for Fleet {
    fn before_slot(
        &mut self,
        slot: u64,
        source: &mut PortfolioSource,
        emit: &mut dyn FnMut(Event),
    ) -> Result<(), EngineError> {
        self.fresh.clear();
        // The queue holds exactly the tenants the dense fleets' scan would
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
        self.memo.clear();
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
        // once; the wave's ids follow every bid its market holds.
        self.sc_spot.clear();
        self.sc_spot.resize(self.markets, 0);
        for (_, uses, plan) in &self.memo.made {
            for (m, _, decision) in plan.legs() {
                if let BidDecision::Spot { .. } = decision {
                    self.sc_spot[m] += *uses as usize;
                }
            }
        }
        for (m, &n) in self.sc_spot.iter().enumerate() {
            let market = source.set.market_mut(m);
            let owners = &mut self.owners[m];
            reserve_pow2(
                owners,
                (market.submitted() + n).saturating_sub(owners.len()),
            );
            market.reserve(n);
        }
        reserve_pow2(&mut self.fresh, decided);
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
            source.set.submit_batch(m, queue);
            queue.clear();
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
            self.charges.push(report.price * self.job.slot);
        }

        // The wake set: fresh plans, then every market's report owners,
        // each tenant once; a live leg's report bits go to the leg.
        let mut woken = std::mem::take(&mut self.sc_woken);
        woken.clear();
        std::mem::swap(&mut woken, &mut self.fresh);
        let (bid, market, next) = (&self.bid, &self.market, &self.next);
        let (wake, slab) = (&mut self.wake, &mut self.slab);
        for (m, report) in reports.iter().enumerate() {
            let mut swept = 0;
            for_each_owner(&self.owners[m], report, |t, id, bit| {
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
            // Nothing named, planned or running: the dense fleets would
            // have walked every tenant and changed nothing.
            self.stats.skipped_slots += 1;
            self.sc_woken = woken;
            return Ok(self.status());
        }

        // Ascending tenant order, the dense scan order (the fresh and
        // per-list runs arrive mostly ascending). Carried runners join
        // when their `Charged` events are wanted, or when a market's spot
        // charge is invalid: the refusal is the first such charge's.
        woken.sort();
        self.stats.woken += woken.len() as u64;
        let mut refused = std::mem::take(&mut self.sc_refused);
        for (r, report) in refused.iter_mut().zip(reports) {
            *r = spot_charge(slot, report.price, self.job.slot).is_err();
        }
        let mut order = std::mem::take(&mut self.sc_order);
        let visit = if self.logged || refused.contains(&true) {
            order.clear();
            let mut woken = woken.iter().copied().peekable();
            for t in 0..self.tenants() as u32 {
                if woken.next_if_eq(&t).is_some() || self.flags[t as usize] & T_RUNNING != 0 {
                    order.push(t);
                }
            }
            &order
        } else {
            &woken
        };
        let mut refusal = None;
        let mut events = Events::new(emit, self.logged);
        for &t in visit {
            self.update_tenant(t, slot, reports, &refused, &mut refusal, &mut events);
        }
        (self.sc_woken, self.sc_order, self.sc_refused) = (woken, order, refused);
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
        // slots.
        let end = self.charges.slots();
        for t in 0..self.tenants() as u32 {
            self.settle(t, end);
        }
    }

    fn finals(&self) -> impl ExactSizeIterator<Item = TenantFinal<'_>> + '_ {
        (0..self.tenants()).map(|tu| {
            let completed = self.flags[tu] & T_COMPLETED != 0;
            TenantFinal {
                tag: tu as u32,
                strategy: &self.classes.strategies[self.class[tu] as usize],
                completed,
                spot_slots: self.slots_run[tu],
                interruptions: self.interruptions[tu],
                resubmissions: self.resubmissions[tu],
                remaining: if completed {
                    Hours::ZERO
                } else {
                    self.remaining_work(tu)
                },
            }
        })
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
