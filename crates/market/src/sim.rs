//! Micro-level spot-market simulator (Figure 2's state machine per bid).
//!
//! Where [`crate::queue`] iterates the *aggregate* demand recursion, this
//! module tracks each bid individually through the states of Figure 2 —
//! pending, running, finished, terminated — under the exact EC2 spot rules
//! the paper describes in §3.2:
//!
//! - in each slot the provider posts the optimal price for the current
//!   demand (Eq. 3) and every bid at or above it runs;
//! - a *running* instance whose bid falls below the new spot price is
//!   interrupted: one-time requests exit the system unfinished, persistent
//!   requests return to pending and re-compete automatically;
//! - new one-time bids below the spot price are rejected outright;
//! - running instances are charged the *spot price* (not their bid) per
//!   slot.
//!
//! Two implementations share this contract. [`naive::SpotMarket`] is the
//! original O(n)-per-slot scan, retained as the behavioral oracle. The
//! default [`SpotMarket`] is a **price-indexed bid-book**: bids live in a
//! struct-of-arrays store bucketed by bid price, the accept/reject
//! partition for a posted price is a bucket-boundary lookup plus per-bucket
//! range work, demand `L(t)` is tracked incrementally, and charges accrue
//! lazily against a per-slot price table — so a slot over 10⁵–10⁶ bids
//! costs time proportional to the *state changes* it causes, not to the
//! book size. The book reproduces the naive path bit-identically (same
//! reports, same RNG draw order, same float accumulation order); see
//! DESIGN.md §5e for the layout and the determinism contract, and
//! `tests/bidbook_equiv.rs` for the randomized equivalence suite.
//!
//! The simulator is the substrate for the provider-model validation and
//! for the §8 "collective user behavior" ablation (many strategic bidders
//! sharing one market). Individual price-taking users — the paper's main
//! setting — are simulated against a price *trace* by `spotbid-client`.

use crate::params::MarketParams;
use crate::provider::ProviderPolicy;
use crate::units::{Cost, Hours, Price};
use pool::{Pool, SpotCounts};
use spotbid_numerics::rng::Rng;
use std::ops::Range;

pub mod naive;
mod pool;

/// The server pool behind a market (DESIGN.md §5i).
///
/// [`Supply::Unbounded`] is the paper's Eq. 3 setting — every accepted bid
/// gets an instance — and runs bit-identically to the historical path.
/// [`Supply::Finite`] models a provider with `capacity` servers shared
/// between the spot book and an on-demand pool: on-demand admissions
/// ([`SpotMarket::request_on_demand`]) reserve servers first, the spot
/// auction clears the remainder (the posted price is the *maximum* of the
/// Eq. 3 revenue price and [`clearing_price`](crate::provider::clearing_price)
/// at the spot share, so slack capacity reproduces Eq. 3 exactly), and when
/// the winners outnumber the spot share the provider reclaims the lowest-bid
/// instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Supply {
    /// Every accepted bid runs (the historical Eq. 3 path).
    Unbounded,
    /// `capacity` servers split between spot and on-demand by `policy`.
    Finite {
        /// Total servers in the pool.
        capacity: u32,
        /// How the pool is split between spot and on-demand.
        policy: ProviderPolicy,
    },
}

/// Per-slot provider accounting under [`Supply::Finite`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderSlot {
    /// Slot index.
    pub t: u64,
    /// The posted spot price.
    pub price: Price,
    /// Servers the spot book cleared against this slot.
    pub spot_capacity: u32,
    /// Spot instances that ran (and were charged) this slot.
    pub spot_running: u32,
    /// On-demand instances active through this slot.
    pub od_active: u32,
    /// Running spot instances evicted for capacity this slot.
    pub reclaims: u32,
    /// Would-be starters the capacity pass returned unlaunched this slot
    /// (fresh-accept evictions: they appear in [`SlotReport::evicted`] but
    /// never started, so they are not reclaims).
    pub fresh_evictions: u32,
    /// Previously-parked bids that relaunched this slot (their individual
    /// re-auction won and survived the capacity pass).
    pub parked_restarts: u32,
    /// On-demand requests admitted since the previous slot.
    pub od_admitted: u32,
    /// On-demand requests refused since the previous slot.
    pub od_rejected: u32,
    /// Spot revenue this slot: posted price × slot length × instances.
    pub spot_revenue: Cost,
    /// On-demand revenue this slot: `π̄` × slot length × active instances.
    pub od_revenue: Cost,
}

/// Cumulative provider accounting over a [`Supply::Finite`] session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProviderReport {
    /// Total servers in the pool.
    pub capacity: u32,
    /// Slots accounted.
    pub slots: u64,
    /// Total spot revenue.
    pub spot_revenue: Cost,
    /// Total on-demand revenue.
    pub od_revenue: Cost,
    /// Total capacity reclamations of running spot instances.
    pub reclaims: u64,
    /// Total would-be starters returned unlaunched by the capacity pass.
    pub fresh_evictions: u64,
    /// Total parked bids that relaunched after a capacity eviction or
    /// reclamation outage.
    pub parked_restarts: u64,
    /// Total on-demand admissions.
    pub od_admissions: u64,
    /// Total on-demand rejections.
    pub od_rejections: u64,
    /// Mean `(spot_running + od_active) / capacity` across slots.
    pub mean_utilization: f64,
    /// Highest posted spot price.
    pub peak_price: Price,
}

/// The reclaim ordering contract (DESIGN.md §5i): when capacity binds, the
/// lowest bid is evicted first, and among equal bids the newest (highest
/// id) goes first. A strict total order, so both market implementations
/// select the identical victim set however their candidates are laid out.
pub(crate) fn victim_order(pa: f64, ia: u64, pb: f64, ib: u64) -> std::cmp::Ordering {
    pa.total_cmp(&pb).then(ib.cmp(&ia))
}

/// How a bid requests to be treated on interruption (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BidKind {
    /// Exits the system when outbid, even mid-job.
    OneTime,
    /// Re-submitted automatically every slot until the job finishes.
    Persistent,
}

/// How much work a bid's job needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkModel {
    /// Finishes after exactly this many slots of running time.
    FixedSlots(u32),
    /// Finishes each running slot with probability `θ` (the aggregate
    /// model's departure process, Figure 2).
    Geometric,
}

/// A bid submitted to the market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BidRequest {
    /// The bid price.
    pub price: Price,
    /// One-time or persistent handling.
    pub kind: BidKind,
    /// Work requirement.
    pub work: WorkModel,
}

/// Identifier of a bid within one [`SpotMarket`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BidId(pub u64);

/// Lifecycle phase of a bid (Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BidPhase {
    /// Waiting for the spot price to fall to its bid.
    Pending,
    /// Currently running on an instance.
    Running,
    /// Completed all its work.
    Finished,
    /// Exited without completing (one-time bid outbid or rejected).
    Terminated,
}

/// Full accounting for one bid.
#[derive(Debug, Clone, PartialEq)]
pub struct BidRecord {
    /// The bid's identifier.
    pub id: BidId,
    /// The original request.
    pub request: BidRequest,
    /// Current phase.
    pub phase: BidPhase,
    /// Slot in which the bid was submitted.
    pub submitted_at: u64,
    /// Slots spent running so far.
    pub slots_run: u32,
    /// Total charged so far (spot price × slot length per running slot).
    pub charged: Cost,
    /// Number of interruptions suffered (running → not running).
    pub interruptions: u32,
    /// Slot in which the bid left the system, if it has.
    pub closed_at: Option<u64>,
}

/// Per-slot outcome summary.
///
/// Every event vector is sorted ascending by [`BidId`] — i.e. by
/// submission order. This is part of the determinism contract (DESIGN.md
/// §5e): consumers may binary-search the vectors, and the bid-book and
/// naive implementations agree on the order bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotReport {
    /// Slot index.
    pub t: u64,
    /// Demand `L(t)` seen by the provider (pending + running + new bids).
    pub demand: usize,
    /// The posted spot price.
    pub price: Price,
    /// Bids that began (or resumed) running this slot.
    pub started: Vec<BidId>,
    /// Running bids that were interrupted this slot.
    pub interrupted: Vec<BidId>,
    /// Bids that finished their work this slot.
    pub finished: Vec<BidId>,
    /// One-time bids that exited unfinished this slot.
    pub terminated: Vec<BidId>,
    /// Bids the capacity pass evicted this slot (running victims *and*
    /// would-be starters returned unlaunched) — the deterministic per-slot
    /// capacity delta. Always empty under [`Supply::Unbounded`] and on
    /// reclamation-outage slots; a consumer that wakes only the owners of
    /// these bids (plus genuine price crossings) sees every
    /// capacity-induced state change.
    pub evicted: Vec<BidId>,
}

impl SlotReport {
    /// An empty report (no events, zero price/demand), ready to be filled
    /// by [`SpotMarket::step_into`].
    pub fn empty() -> Self {
        SlotReport {
            t: 0,
            demand: 0,
            price: Price::ZERO,
            started: Vec::new(),
            interrupted: Vec::new(),
            finished: Vec::new(),
            terminated: Vec::new(),
            evicted: Vec::new(),
        }
    }
}

/// Price buckets over `[π_min, π̄]`. 512 keeps the boundary bucket at
/// ~0.2 % of the book while the per-slot bucket walk stays trivially
/// cheap.
const BUCKETS: usize = 512;

// The `bucket_of` column stores a bucket index as a `u16`.
const _: () = assert!(BUCKETS <= u16::MAX as usize + 1);

// Per-bid state flags (the `flags` struct-of-arrays column).
/// Still in the system (pending or running).
const F_OPEN: u8 = 1 << 0;
/// Currently running (member of its bucket's `running` list).
const F_RUNNING: u8 = 1 << 1;
/// Persistent kind (re-pends on interruption instead of exiting).
const F_PERSISTENT: u8 = 1 << 2;
/// Geometric work (draws `chance(θ)` every running slot).
const F_GEOMETRIC: u8 = 1 << 3;
/// Has been through at least one auction, so it lives in a bucket list
/// and obeys the resident invariants (pending ⇒ bid < posted price,
/// running ⇒ bid ≥ posted price).
const F_RESIDENT: u8 = 1 << 4;
/// Closed by finishing its work (a closed bid without it terminated).
const F_FINISHED: u8 = 1 << 6;
/// Holds the one entry the finish [`Calendar`] keeps for it.
const F_FILED: u8 = 1 << 7;

/// Slots the finish calendar's near wheel spans, and epochs (of `SPAN`
/// slots each) its mid wheel spans.
const SPAN: u64 = 256;

/// The fixed-work finish calendar (DESIGN.md §5e): at most one entry per
/// bid, filed by the bid's due slot at filing time.
///
/// A due within `SPAN` slots of now goes to the near wheel, one list per
/// slot mod `SPAN`, popped every slot; one within `SPAN` epochs to the mid
/// wheel, one list per epoch mod `SPAN`, refiled when its epoch opens; any
/// later due to the far list, refiled every `SPAN²` slots. A bid that
/// launches holding no entry is filed and marked [`F_FILED`]; one that
/// restarts with its entry still standing files nothing, because a
/// restart only delays the due slot (new due = old due + idle slots), so
/// that entry is visited no later than the bid can finish. A visit drops
/// the entry of a bid no longer running, reports a runner due now, and
/// refiles any other runner by its current due.
#[derive(Debug, Clone)]
struct Calendar {
    /// `near[d % SPAN]`: bids filed due at slot `d`, `now <= d < now + SPAN`.
    near: Vec<Vec<u32>>,
    /// `mid[(d / SPAN) % SPAN]`: bids filed due in epoch `d / SPAN`, within
    /// `SPAN` epochs of now's.
    mid: Vec<Vec<u32>>,
    /// Bids filed due further out.
    far: Vec<u32>,
    /// A spare list, swapped in for the mid list being refiled.
    scratch: Vec<u32>,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            near: vec![Vec::new(); SPAN as usize],
            mid: vec![Vec::new(); SPAN as usize],
            far: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Files bid `i`, due at slot `due`, at slot `t`.
    fn file(&mut self, i: u32, due: u64, t: u64) {
        debug_assert!(due >= t, "bid {i} filed at {t}, due at {due}");
        let list = if due - t < SPAN {
            &mut self.near[(due % SPAN) as usize]
        } else if due / SPAN - t / SPAN < SPAN {
            &mut self.mid[(due / SPAN % SPAN) as usize]
        } else {
            &mut self.far
        };
        list.push(i);
    }

    /// Visits the entries due for a visit at slot `t`, after refiling the
    /// mid and far entries whose window opens at `t`. `visit(i)` is the
    /// book's visit of bid `i` ([`Book::visit_filed`]): `Some(due)` refiles
    /// a runner by its current due, `None` drops the entry (a bid no
    /// longer running, or a runner due at `t`, which the visit closed).
    fn pop(&mut self, t: u64, mut visit: impl FnMut(u32) -> Option<u64>) {
        if t % SPAN == 0 {
            if t % (SPAN * SPAN) == 0 {
                // Refiled in place: most far runners stay far.
                let mut far = std::mem::take(&mut self.far);
                far.retain(|&i| match visit(i) {
                    None => false,
                    Some(due) if due / SPAN - t / SPAN >= SPAN => true,
                    Some(due) => {
                        self.file(i, due, t);
                        false
                    }
                });
                self.far = far;
            }
            let mut list = std::mem::replace(
                &mut self.mid[(t / SPAN % SPAN) as usize],
                std::mem::take(&mut self.scratch),
            );
            self.visit(&mut list, t, &mut visit);
            self.scratch = list;
        }
        let mut list = std::mem::take(&mut self.near[(t % SPAN) as usize]);
        self.visit(&mut list, t, &mut visit);
        self.near[(t % SPAN) as usize] = list;
    }

    /// Visits and empties `list` at slot `t`, refiling every entry `visit`
    /// returns a due for. Nothing is refiled into `list`'s own slot: a
    /// refiled due lies after `t` and, in the mid wheel, in a later epoch
    /// than `t`'s.
    fn visit(&mut self, list: &mut Vec<u32>, t: u64, visit: &mut impl FnMut(u32) -> Option<u64>) {
        for &i in list.iter() {
            if let Some(due) = visit(i) {
                self.file(i, due, t);
            }
        }
        list.clear();
    }

    /// Entries held.
    #[cfg(test)]
    fn len(&self) -> usize {
        let lists = |w: &[Vec<u32>]| w.iter().map(Vec::len).sum::<usize>();
        lists(&self.near) + lists(&self.mid) + self.far.len()
    }
}

/// One price bucket: the open bids whose price falls in its range, split
/// by run state so each crossing scan touches only the side it moves.
#[derive(Debug, Clone, Default)]
struct Bucket {
    pending: Vec<u32>,
    running: Vec<u32>,
}

/// The capacity pass's victim selection: fills `out` with the `k` smallest
/// candidates in [`victim_order`] — every bucket's runners plus
/// `starters` — as an id-sorted set: exactly the first `k` of a full
/// `victim_order` sort.
///
/// Instead of sorting every candidate it walks the buckets upward,
/// counting runners plus starters, until the running total reaches `k` at
/// the cutoff bucket `B`. `bucket_of` is monotone in price (equal prices
/// share a bucket), so every candidate below `B` orders before every
/// candidate in or above it, and is a victim without being ranked; every
/// candidate above `B` survives. Only `B`'s own candidates are ranked, as
/// [`victim_key`]s in `keys`, and the victims still needed are the
/// smallest keys, found by a selection over plain integers. NaN prices,
/// which bucket to 0 but order last, never run (`NaN >= pf` is false),
/// so they are never candidates.
///
/// Every candidate bids at least the posted price (runners below it were
/// outbid by the crossing scan, starters won their auction), so none sits
/// below the posted price's bucket `floor`, and the walk, the gather and
/// the `counts` reset all start there.
///
/// `counts` is per-bucket scratch: sized to `buckets` on first use and
/// left all-zero on return. `keys` is cleared and refilled.
#[allow(clippy::too_many_arguments)]
fn select_victims(
    buckets: &[Bucket],
    starters: &[u32],
    price_of: &[f64],
    bucket_of: &[u16],
    floor: usize,
    k: usize,
    counts: &mut Vec<u32>,
    keys: &mut Vec<u128>,
    out: &mut Vec<u32>,
) {
    debug_assert!(k > 0);
    debug_assert!(
        buckets[..floor].iter().all(|b| b.running.is_empty())
            && starters
                .iter()
                .all(|&i| bucket_of[i as usize] as usize >= floor),
        "a candidate below the floor bucket {floor}"
    );
    counts.resize(buckets.len(), 0);
    for &i in starters {
        counts[bucket_of[i as usize] as usize] += 1;
    }
    // `below` counts the candidates in buckets `floor..cutoff`.
    let (mut below, mut cutoff) = (0, buckets.len() - 1);
    for (b, bucket) in buckets.iter().enumerate().skip(floor) {
        let here = bucket.running.len() + counts[b] as usize;
        if below + here >= k {
            cutoff = b;
            break;
        }
        below += here;
    }
    debug_assert!(
        below + buckets[cutoff].running.len() + counts[cutoff] as usize >= k,
        "fewer candidates than victims"
    );
    counts[floor..].fill(0);

    out.clear();
    for bucket in &buckets[floor..cutoff] {
        out.extend_from_slice(&bucket.running);
    }
    let key = |i: u32| victim_key(price_of[i as usize], i);
    keys.clear();
    keys.extend(buckets[cutoff].running.iter().map(|&i| key(i)));
    for &i in starters {
        match (bucket_of[i as usize] as usize).cmp(&cutoff) {
            std::cmp::Ordering::Less => out.push(i),
            std::cmp::Ordering::Equal => keys.push(key(i)),
            std::cmp::Ordering::Greater => {}
        }
    }
    let need = k - below;
    if need < keys.len() {
        keys.select_nth_unstable(need);
    }
    out.extend(keys[..need].iter().map(|&key| u32::MAX - key as u32));
    out.sort_unstable();
}

/// Bid `i` at price `p` as an integer that orders as [`victim_order`]
/// does: the price's `total_cmp` rank in the high 64 bits (its bits with
/// the sign bit flipped for a positive price, all bits flipped for a
/// negative one), then `u32::MAX - i`, so that the newer of two equal
/// bids orders first.
fn victim_key(p: f64, i: u32) -> u128 {
    let bits = p.to_bits();
    let rank = bits ^ ((((bits as i64) >> 63) as u64) | 1 << 63);
    u128::from(rank) << 64 | u128::from(u32::MAX - i)
}

/// Makes room in bid column `v` for `n` more entries. A column that
/// already holds them is left alone; a full one grows to
/// `max(len + n + PAGE, cap + cap / 4)`: a wave keeps one run-table page
/// of room for the single submissions that follow it, and single
/// submissions grow it by a quarter, amortized O(1) each without the up
/// to half-empty column that doubling leaves.
pub fn reserve_column<T>(v: &mut Vec<T>, n: usize) {
    let (len, cap) = (v.len(), v.capacity());
    if cap - len < n {
        v.reserve_exact((len + n + PAGE).max(cap + cap / 4) - len);
    }
}

/// The spot charge `price × slot_len` of every completed slot of one or
/// more markets, slot-major: the append-only replay table that lazy
/// settlement folds. The market settles its bid records from its own
/// table; the closed-loop fleets settle tenant totals from theirs.
///
/// Bids and tenants that started together and finish together settle the
/// same slots from the same starting total, so [`settle`](Self::settle)
/// remembers its recent folds and a finishing cohort replays the table
/// once. The memo is a direct-mapped inline table keyed by the bits of
/// the starting total, `since`, `end` and the leg sequence, compared in
/// full. The key fixes every operand of the fold, since entries below
/// `end` never change once pushed, so a hit returns exactly the bits the
/// loop would compute.
#[derive(Debug, Clone)]
pub struct ChargeTable {
    markets: usize,
    /// The slot of the first recorded charge (0 outside unit tests).
    first: u64,
    amounts: Vec<Cost>,
    memo: [Fold; MEMO_SLOTS],
}

/// Entries of a [`ChargeTable`]'s memo (a power of two).
const MEMO_SLOTS: usize = 8;

/// One remembered fold; `legs == 0` marks an empty entry.
#[derive(Debug, Clone, Copy, Default)]
struct Fold {
    start: u64,
    since: u64,
    end: u64,
    legs: u64,
    sum: u64,
}

impl ChargeTable {
    /// An empty table over `markets` markets.
    pub fn new(markets: usize) -> Self {
        ChargeTable {
            markets,
            first: 0,
            amounts: Vec::new(),
            memo: [Fold::default(); MEMO_SLOTS],
        }
    }

    /// Records the next market's charge for the current slot (call once
    /// per market, in market order, every slot).
    pub fn push(&mut self, charge: Cost) {
        self.amounts.push(charge);
    }

    /// The charge of `slot` in `market`.
    pub fn at(&self, slot: u64, market: usize) -> Cost {
        self.amounts[(slot - self.first) as usize * self.markets + market]
    }

    /// Slots recorded so far: the slot the next charge is recorded for.
    pub fn slots(&self) -> u64 {
        self.first + (self.amounts.len() / self.markets) as u64
    }

    /// `start` plus the charges of slots `[since, end)`: slot by slot, one
    /// charge per entry of `markets` in the order given, added left to
    /// right — the float-addition sequence of eager per-slot accrual, bit
    /// for bit. A sequence of up to eight markets below 255 is remembered;
    /// a longer one is folded afresh.
    pub fn settle(
        &mut self,
        start: Cost,
        since: u64,
        end: u64,
        markets: impl Iterator<Item = usize> + Clone,
    ) -> Cost {
        let (table, stride) = (&self.amounts[..], self.markets);
        let (since, end) = (since - self.first, end - self.first);
        let Some(legs) = pack_legs(markets.clone()) else {
            return fold_charges(table, stride, markets, start, since, end);
        };
        let start_bits = start.as_f64().to_bits();
        let e = &mut self.memo[memo_slot(start_bits, since, end, legs)];
        if e.legs == legs && e.start == start_bits && e.since == since && e.end == end {
            return Cost::new(f64::from_bits(e.sum));
        }
        let sum = fold_charges(table, stride, unpack_legs(legs), start, since, end);
        *e = Fold {
            start: start_bits,
            since,
            end,
            legs,
            sum: sum.as_f64().to_bits(),
        };
        sum
    }
}

/// Packs up to eight market indices below 255 exactly into one word: byte
/// `k` holds leg `k`'s market plus one, and the first zero byte ends the
/// sequence. `None` when there are none, more than eight, or one of them
/// is 255 or more.
fn pack_legs(markets: impl IntoIterator<Item = usize>) -> Option<u64> {
    let mut bits = 0u64;
    for (k, m) in markets.into_iter().enumerate() {
        if k == 8 || m >= 255 {
            return None;
        }
        bits |= (m as u64 + 1) << (8 * k);
    }
    (bits != 0).then_some(bits)
}

/// The markets [`pack_legs`] packed, in order.
fn unpack_legs(mut bits: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        let b = bits & 0xFF;
        bits >>= 8;
        (b != 0).then(|| b as usize - 1)
    })
}

/// The lazy-settlement fold: `start` plus, slot by slot over
/// `[since, end)`, the charge of each market of `legs` in order, left to
/// right, over a slot-major `table` of `stride` markets per slot.
fn fold_charges(
    table: &[Cost],
    stride: usize,
    legs: impl Iterator<Item = usize> + Clone,
    start: Cost,
    since: u64,
    end: u64,
) -> Cost {
    let mut acc = start;
    for slot in since..end {
        let row = &table[slot as usize * stride..][..stride];
        for m in legs.clone() {
            acc += row[m];
        }
    }
    acc
}

/// The memo entry a key maps to.
fn memo_slot(start: u64, since: u64, end: u64, legs: u64) -> usize {
    let h = start ^ since.rotate_left(21) ^ end.rotate_left(42) ^ legs.rotate_left(7);
    (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - MEMO_SLOTS.trailing_zeros())) as usize
}

/// A discrete-time spot market with endogenous prices, stored as a
/// price-indexed bid-book.
///
/// Drop-in successor of [`naive::SpotMarket`] with the same per-slot
/// semantics and bit-identical output. The differences are operational:
///
/// - [`step`](Self::step) costs O(events + boundary-bucket + running
///   geometric bids) instead of O(open bids);
/// - each bid lives once, as one entry per struct-of-arrays column plus,
///   once it has launched, one run-table entry; a [`BidRecord`] is built
///   from them on read;
/// - charges accrue lazily, so [`record`](Self::record) and
///   [`records`](Self::records) take `&mut self` (they settle the accrual
///   before building);
/// - [`submit_batch`](Self::submit_batch) enters a whole wave column by
///   column;
/// - [`step_into`](Self::step_into) refills a report the caller holds, so
///   a driving loop that keeps one steps without per-slot allocation.
#[derive(Debug, Clone)]
pub struct SpotMarket {
    /// The bids: their columns, run state and price buckets.
    book: Book,
    /// Fixed-work finish calendar: an entry for every running fixed-work
    /// bid, visited no later than its due slot, and at most one per bid.
    calendar: Calendar,
    /// The server pool: on-demand instances, the price rule and the
    /// provider ledger.
    pool: Pool,
    /// Open bids displaced by a capacity reclamation (plus arrivals during
    /// one): they are exempt from the resident price invariants, so they
    /// sit outside the bucket lists and face an individual first-auction
    /// pass on the next normal slot.
    parked: Vec<u32>,
    /// Running geometric bids, ascending by id — the per-slot RNG draw
    /// order (one `chance(θ)` each, matching the naive submission-order
    /// scan).
    geo_run: Vec<u32>,
    /// Last posted price (`+∞` before the first step, when no residents
    /// exist); crossings `[min(prev,new), max(prev,new))` bound the
    /// buckets a slot must visit.
    prev_price: f64,
    /// The next step is a capacity reclamation (set by
    /// [`reclaim_next_slot`](Self::reclaim_next_slot)).
    reclaim_next: bool,
    /// The step's working lists.
    scratch: Scratch,
}

/// The bids of one market: the struct-of-arrays columns indexed by bid
/// id, their run state, the price buckets over them and the counts a
/// step keeps.
#[derive(Debug, Clone)]
struct Book {
    /// Current slot index (number of completed steps).
    t: u64,
    /// Bid price as a raw f64 (the per-bid accept/reject operand).
    price_of: Vec<f64>,
    /// `F_*` state bits: kind, work model and phase.
    flags: Vec<u8>,
    /// Slots of work of a fixed-work bid (0 for geometric work).
    work: Vec<u32>,
    /// The bid's entry in the run table, or [`NO_RUN`] until it first
    /// launches (or closes after its submission slot unlaunched).
    run_of: Vec<u32>,
    /// The bid's price bucket.
    bucket_of: Vec<u16>,
    /// `(first id, slot)` for every run of bids submitted in one slot,
    /// ascending: a bid was submitted in the slot of the last run whose
    /// first id is at or below its own.
    arrivals: Vec<(u32, u32)>,
    /// Run state of the launched bids and the charges it settles from.
    settlement: Settlement,
    buckets: Vec<Bucket>,
    grid: BucketGrid,
    /// Ids below this have faced their first auction (or parked for it);
    /// the bids submitted since the last step are the contiguous range
    /// from here to `price_of.len()`, in id order.
    arrived: u32,
    /// Incrementally-maintained demand `L(t)` (open bids).
    open_count: usize,
    /// Bids currently running — the summed length of the bucket running
    /// lists between steps. Lets the finite-supply capacity pass skip its
    /// victim selection when the carried runners plus this slot's winners
    /// already fit under the spot share.
    running_count: u32,
    /// Buckets whose running list, or a listed runner's flags, changed
    /// this step: the lists the step-end audit walks (debug builds).
    #[cfg(debug_assertions)]
    touched: [u64; BUCKETS / 64],
}

/// The settlement table: the run state of every bid that has launched,
/// in first-launch order (a bid that never runs carries none), and the
/// per-slot charges their running streaks settle from.
#[derive(Debug, Clone)]
struct Settlement {
    runs: Paged<Run>,
    /// `price_t × slot_len` for every completed slot: the replay table
    /// that settles lazy charges in the same order, with the same
    /// floating-point operands, as the naive per-slot accrual.
    charges: ChargeTable,
}

/// A step's working lists, cleared at the start of each step (the
/// victim lists by their own pass).
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// This slot's auction winners, pending the capacity pass.
    started: Vec<u32>,
    /// Running bids outbid (or reclaimed) this slot.
    rejected: Vec<u32>,
    /// The capacity pass's victims (see [`select_victims`]).
    victims: Vec<u32>,
    /// Per-bucket starter counts for [`select_victims`]: `BUCKETS` zeros
    /// between uses, allocated by the first capacity pass that evicts.
    bucket_count: Vec<u32>,
    /// The cutoff bucket's candidates as [`victim_key`]s, for
    /// [`select_victims`].
    keys: Vec<u128>,
    /// Geometric bids launched this slot.
    geo_in: Vec<u32>,
    /// Next slot's `geo_run`, built by the draw pass.
    geo_next: Vec<u32>,
    fin_geo: Vec<u32>,
    fin_fixed: Vec<u32>,
    /// Parked bids that won their individual re-auction this slot,
    /// pending the capacity pass: survivors count as
    /// [`ProviderSlot::parked_restarts`].
    parked_started: Vec<u32>,
}

impl Scratch {
    fn clear(&mut self) {
        self.started.clear();
        self.rejected.clear();
        self.geo_in.clear();
        self.geo_next.clear();
        self.fin_geo.clear();
        self.fin_fixed.clear();
        self.parked_started.clear();
    }
}

/// A launched bid's run state: its running streak and settled
/// accounting (what a settlement reads and writes, and the count an
/// interruption bumps right after settling), its running-list position
/// and its due word. One 32-byte entry, pushed at the bid's first launch,
/// so a capacity pass that settles victims scattered over the book misses
/// the cache once per victim, not once per field.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// First slot of the current running streak (valid while running);
    /// charges for `[run_since, now)` are accrued but not yet settled.
    run_since: u32,
    /// Position in its bucket's running list (valid while running: a
    /// launch writes it, and every move within the list rewrites it).
    pos: u32,
    /// Settled charges (the streak since `run_since` excluded).
    charged: Cost,
    /// Settled running slots (the streak since `run_since` excluded).
    slots_run: u32,
    /// Interruptions suffered (running → not running).
    interruptions: u32,
    /// Read by the bid's flags: while it runs fixed work, its scheduled
    /// finish slot; once [`F_OPEN`] is clear, the slot it left the system;
    /// otherwise unused.
    due: u64,
}

/// Entries in one page of a [`Paged`] table.
const PAGE: usize = 1024;

/// A table that grows by whole pages of [`PAGE`] entries, never by
/// doubling: it holds at most one page of unused room, and an entry never
/// moves once pushed, so growing copies nothing.
#[derive(Debug)]
struct Paged<T> {
    /// Every page holds room for exactly [`PAGE`] entries; all but the
    /// last are full.
    pages: Vec<Vec<T>>,
}

impl<T> Paged<T> {
    fn new() -> Self {
        Paged { pages: Vec::new() }
    }

    fn len(&self) -> usize {
        self.pages
            .last()
            .map_or(0, |last| (self.pages.len() - 1) * PAGE + last.len())
    }

    /// Appends `value`, opening a new page when the last one is full.
    fn push(&mut self, value: T) {
        match self.pages.last_mut() {
            Some(last) if last.len() < PAGE => last.push(value),
            _ => {
                let mut page = Vec::with_capacity(PAGE);
                page.push(value);
                self.pages.push(page);
            }
        }
    }
}

impl<T: Clone> Clone for Paged<T> {
    /// Each page of the clone keeps its room for [`PAGE`] entries.
    fn clone(&self) -> Self {
        let pages = self.pages.iter().map(|page| {
            let mut copy = Vec::with_capacity(PAGE);
            copy.extend_from_slice(page);
            copy
        });
        Paged {
            pages: pages.collect(),
        }
    }
}

impl<T> std::ops::Index<usize> for Paged<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        &self.pages[i / PAGE][i % PAGE]
    }
}

impl<T> std::ops::IndexMut<usize> for Paged<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.pages[i / PAGE][i % PAGE]
    }
}

/// A first launch's [`Run`], and the run state a record shows for a bid
/// that holds none.
const FRESH_RUN: Run = Run {
    run_since: 0,
    pos: 0,
    charged: Cost::ZERO,
    slots_run: 0,
    interruptions: 0,
    due: 0,
};

/// [`Book::run_of`]'s entry for a bid that holds no [`Run`].
const NO_RUN: u32 = u32::MAX;

/// The `F_*` bits a new bid starts with.
fn initial_flags(request: &BidRequest) -> u8 {
    let mut flags = F_OPEN;
    if request.kind == BidKind::Persistent {
        flags |= F_PERSISTENT;
    }
    if request.work == WorkModel::Geometric {
        flags |= F_GEOMETRIC;
    }
    flags
}

/// The `work` column's entry for a request.
fn work_slots(request: &BidRequest) -> u32 {
    match request.work {
        WorkModel::FixedSlots(n) => n,
        WorkModel::Geometric => 0,
    }
}

/// Calls `f` on every id of two ascending, disjoint lists, in ascending
/// order.
fn merged(a: &[u32], b: &[u32], mut f: impl FnMut(u32)) {
    let (mut x, mut y) = (0, 0);
    while x < a.len() || y < b.len() {
        if y == b.len() || (x < a.len() && a[x] < b[y]) {
            f(a[x]);
            x += 1;
        } else {
            f(b[y]);
            y += 1;
        }
    }
}

/// The bucket boundaries over `[π_min, π̄]`: `bounds[i] = lo + i × w`
/// with `w = (π̄ − π_min) / BUCKETS`, each computed once by that one
/// expression.
#[derive(Debug, Clone)]
struct BucketGrid {
    lo: f64,
    /// `1 / w`, for the first estimate.
    inv_w: f64,
    bounds: Box<[f64; BUCKETS + 1]>,
}

impl BucketGrid {
    fn new(params: &MarketParams) -> Self {
        let lo = params.pi_min.as_f64();
        let w = params.spread().as_f64() / BUCKETS as f64;
        let mut bounds = Box::new([0.0; BUCKETS + 1]);
        for (i, b) in bounds.iter_mut().enumerate() {
            *b = lo + i as f64 * w;
        }
        BucketGrid {
            lo,
            inv_w: 1.0 / w,
            bounds,
        }
    }

    /// The bucket whose range `[bounds[b], bounds[b+1])` contains `p`
    /// (bucket 0 is open below, bucket `BUCKETS-1` open above; NaN maps to
    /// bucket 0): the largest `b < BUCKETS` with `bounds[b] <= p`, or 0.
    ///
    /// A multiplication estimates `b` (the saturating cast sends NaN and
    /// negatives to 0, `+∞` to the top) and the walks repair it against
    /// the table. The bounds never decrease, so the repaired index is that
    /// unique bucket whatever the estimate, and wholesale bucket
    /// classification in the crossing scan is sound even at one-ulp edges.
    fn index(&self, p: f64) -> usize {
        let mut i = (((p - self.lo) * self.inv_w) as usize).min(BUCKETS - 1);
        while i > 0 && p < self.bounds[i] {
            i -= 1;
        }
        while i + 1 < BUCKETS && p >= self.bounds[i + 1] {
            i += 1;
        }
        i
    }
}

impl SpotMarket {
    /// Creates an empty market with unbounded supply (the historical
    /// default).
    pub fn new(params: MarketParams, slot_len: Hours) -> Self {
        Self::with_supply(params, slot_len, Supply::Unbounded)
    }

    /// Creates an empty market backed by the given [`Supply`].
    pub fn with_supply(params: MarketParams, slot_len: Hours, supply: Supply) -> Self {
        SpotMarket {
            book: Book {
                t: 0,
                price_of: Vec::new(),
                flags: Vec::new(),
                work: Vec::new(),
                run_of: Vec::new(),
                bucket_of: Vec::new(),
                arrivals: Vec::new(),
                settlement: Settlement {
                    runs: Paged::new(),
                    charges: ChargeTable::new(1),
                },
                buckets: vec![Bucket::default(); BUCKETS],
                grid: BucketGrid::new(&params),
                arrived: 0,
                open_count: 0,
                running_count: 0,
                #[cfg(debug_assertions)]
                touched: [0; BUCKETS / 64],
            },
            calendar: Calendar::new(),
            pool: Pool::new(params, slot_len, supply),
            parked: Vec::new(),
            geo_run: Vec::new(),
            prev_price: f64::INFINITY,
            reclaim_next: false,
            scratch: Scratch::default(),
        }
    }

    /// The market parameters.
    pub fn params(&self) -> &MarketParams {
        self.pool.params()
    }

    /// Current slot index (number of completed steps).
    pub fn now(&self) -> u64 {
        self.book.t
    }

    /// Bids submitted so far: the next [`submit`](Self::submit) returns
    /// `BidId(submitted())`.
    pub fn submitted(&self) -> usize {
        self.book.price_of.len()
    }

    /// Makes room in every bid column for `n` more submissions at once,
    /// so a submission wave grows each column once. The columns grow
    /// together, and only when full, by [`reserve_column`]'s rule: to
    /// `max(len + n + PAGE, cap + cap / 4)`, so the wave leaves one
    /// run-table page (1,024 rows) of room for the bids submitted after
    /// it. Behaviour is unchanged: ids, records and reports are the same
    /// with or without it.
    pub fn reserve(&mut self, n: usize) {
        let b = &mut self.book;
        reserve_column(&mut b.price_of, n);
        reserve_column(&mut b.flags, n);
        reserve_column(&mut b.work, n);
        reserve_column(&mut b.run_of, n);
        reserve_column(&mut b.bucket_of, n);
    }

    /// Submits a bid; it competes from the next [`step`](Self::step) on.
    /// A full column grows by a quarter ([`reserve`](Self::reserve)).
    pub fn submit(&mut self, request: BidRequest) -> BidId {
        let id = self.submitted();
        assert!(id < u32::MAX as usize, "bid-book index space exhausted");
        self.reserve(1);
        let b = &mut self.book;
        let price = request.price.as_f64();
        b.price_of.push(price);
        b.flags.push(initial_flags(&request));
        b.work.push(work_slots(&request));
        b.run_of.push(NO_RUN);
        b.bucket_of.push(b.grid.index(price) as u16);
        b.open_count += 1;
        b.note_arrivals(id);
        BidId(id as u64)
    }

    /// Submits a wave of bids at once, filling each column in one pass.
    /// Returns the raw ids `first..first + n`: exactly the ids, in order,
    /// that `n` calls to [`submit`](Self::submit) would return, with the
    /// same records and the same reports afterwards.
    pub fn submit_batch(&mut self, requests: &[BidRequest]) -> Range<u64> {
        let (first, n) = (self.submitted(), requests.len());
        assert!(
            first + n <= u32::MAX as usize,
            "bid-book index space exhausted"
        );
        self.reserve(n);
        let len = first + n;
        let b = &mut self.book;
        let grid = &b.grid;
        b.price_of.extend(requests.iter().map(|r| r.price.as_f64()));
        b.flags.extend(requests.iter().map(initial_flags));
        b.work.extend(requests.iter().map(work_slots));
        b.bucket_of
            .extend(requests.iter().map(|r| grid.index(r.price.as_f64()) as u16));
        b.run_of.resize(len, NO_RUN);
        b.open_count += n;
        if n > 0 {
            b.note_arrivals(first);
        }
        first as u64..len as u64
    }

    /// A bid's record, built from its columns.
    ///
    /// Settles the bid's lazily-accrued charges first (hence `&mut`); the
    /// record is exactly what the naive implementation would show.
    pub fn record(&mut self, id: BidId) -> Option<BidRecord> {
        let i = id.0 as usize;
        if i >= self.submitted() {
            return None;
        }
        self.book.sync_one(i);
        Some(self.book.build_record(i))
    }

    /// All bid records (submitted order), built from the columns after
    /// every running bid's lazy charge accrual is settled.
    pub fn records(&mut self) -> Vec<BidRecord> {
        let n = self.submitted();
        for i in 0..n {
            self.book.sync_one(i);
        }
        (0..n).map(|i| self.book.build_record(i)).collect()
    }

    /// Number of bids still pending or running.
    pub fn open_bids(&self) -> usize {
        self.book.open_count
    }

    /// Marks the next [`step`](Self::step) as a bid-independent capacity
    /// reclamation (the fault-injection hook): the provider still posts the
    /// slot's price, but takes every instance back instead of auctioning.
    /// All running bids are interrupted — persistent ones return to pending
    /// and re-compete from the following slot, one-time ones exit
    /// unfinished — while pending bids and fresh arrivals simply wait the
    /// outage out. Nothing runs, so nothing is charged and no departure
    /// randomness is drawn. Bit-identical to
    /// [`naive::SpotMarket::reclaim_next_slot`].
    pub fn reclaim_next_slot(&mut self) {
        self.reclaim_next = true;
    }

    /// Currently admitted on-demand instances (0 under unbounded supply).
    pub fn od_active(&self) -> u32 {
        self.pool.od_active()
    }

    /// Servers the spot book will clear against next slot, or `None` under
    /// unbounded supply.
    pub fn spot_capacity(&self) -> Option<u32> {
        self.pool.spot_capacity()
    }

    /// Requests `n` on-demand instances from the pool, returning how many
    /// were admitted. Admissions take effect immediately: the next slot's
    /// spot share shrinks by what the policy charges against it, and a
    /// [`Supply::Finite`] market bills each active instance `π̄ × slot_len`
    /// per slot in its [`ProviderSlot`] log. Unbounded supply admits
    /// everything and records nothing.
    pub fn request_on_demand(&mut self, n: u32) -> u32 {
        self.pool.request(n)
    }

    /// Releases `n` active on-demand instances back to the pool
    /// (saturating; a no-op under unbounded supply).
    pub fn release_on_demand(&mut self, n: u32) {
        self.pool.release(n);
    }

    /// The per-slot provider accounting log (empty under unbounded
    /// supply).
    pub fn provider_slots(&self) -> &[ProviderSlot] {
        self.pool.ledger()
    }

    /// Cumulative provider accounting, or `None` under unbounded supply.
    pub fn provider_report(&self) -> Option<ProviderReport> {
        self.pool.report()
    }

    /// Advances one slot: runs the auction, interrupts/launches instances,
    /// progresses work, and charges running bids.
    ///
    /// # Panics
    ///
    /// With "slot index space exhausted" when the slot to step is
    /// `u32::MAX`: a market steps at most `u32::MAX` slots, numbered
    /// `0..u32::MAX`, so that every slot a bid record holds fits its
    /// 32-bit column.
    pub fn step(&mut self, rng: &mut Rng) -> SlotReport {
        let mut report = SlotReport::empty();
        self.step_into(rng, &mut report);
        report
    }

    /// As [`step`](Self::step), but refilling a report the caller holds:
    /// its event buffers are cleared and reused, so a loop that keeps one
    /// report steps without per-slot allocation.
    ///
    /// # Panics
    ///
    /// As [`step`](Self::step): with "slot index space exhausted" when the
    /// slot to step is `u32::MAX`.
    pub fn step_into(&mut self, rng: &mut Rng, report: &mut SlotReport) {
        let SpotMarket {
            book,
            calendar,
            pool,
            parked,
            geo_run,
            prev_price,
            reclaim_next,
            scratch: s,
        } = self;
        let t = book.t;
        assert!(t < u64::from(u32::MAX), "slot index space exhausted");
        let price = pool.price(book.open_count);
        let pf = price.as_f64();
        report.t = t;
        report.demand = book.open_count;
        report.price = price;
        report.started.clear();
        report.interrupted.clear();
        report.finished.clear();
        report.terminated.clear();
        report.evicted.clear();
        debug_assert_eq!(book.settlement.charges.slots(), t);
        book.settlement.charges.push(price * pool.slot_len());
        s.clear();
        let reclaiming = std::mem::take(reclaim_next);

        // 1. Crossing scan (a reclamation takes every runner instead).
        book.cross(*prev_price, pf, reclaiming, s, parked);

        // 1b. Individual auctions for parked bids — non-empty only on the
        // first normal slot after a reclamation (or, under finite supply,
        // after a capacity eviction). After a reclamation the running book
        // is empty, so `rejected` is empty here and the report's terminated
        // order stays globally id-sorted: parked ids (pushed now,
        // ascending) all precede this slot's incoming ids. Under finite
        // supply `rejected` can be non-empty — capacity eviction only
        // parks persistent bids (which emit nothing here), and the repair
        // sort in phase 3b restores id order whenever it runs.
        if !reclaiming && !parked.is_empty() {
            debug_assert!(s.rejected.is_empty() || pool.spot_capacity().is_some());
            parked.sort_unstable();
            for &i in parked.iter() {
                if book.first_auction(i, pf, &mut s.started, report) {
                    s.parked_started.push(i);
                }
            }
            parked.clear();
        }
        s.started.sort_unstable();
        s.rejected.sort_unstable();

        // 2. Outbid running residents: interruption for all, exit for
        // one-time. Report order is id order — and resident ids all
        // precede incoming ids, so the per-category appends below stay
        // sorted.
        for &i in &s.rejected {
            book.interrupt(i, report);
            if book.flags[i as usize] & F_PERSISTENT == 0 {
                book.terminate(i, report);
            } else if reclaiming {
                // Re-pended by the outage; its price may be ≥ pf, so it
                // waits outside the buckets for its re-auction.
                parked.push(i);
            } else {
                book.push_pending(i);
            }
        }

        // 3. First auction for bids submitted since the last step, in id
        // order. Winners join the start set; persistent losers become
        // pending residents; one-time losers exit immediately. During a
        // reclamation there is no auction to face: arrivals park and wait.
        let incoming = book.arrived..book.price_of.len() as u32;
        book.arrived = incoming.end;
        if reclaiming {
            parked.extend(incoming);
        } else {
            for i in incoming {
                book.first_auction(i, pf, &mut s.started, report);
            }
        }

        // 3b. Capacity enforcement (finite supply only): when the carried
        // runners plus this slot's winners exceed the spot share, the
        // provider reclaims the excess. Otherwise no eviction is possible
        // and the victim selection is skipped, keeping quiet finite-supply
        // slots O(1) like their unbounded counterparts. An outage slot
        // has no candidates at all: step 1 dumped every runner and step 2
        // settled them, so `running_count` is 0 and the auction never ran
        // (`started` is empty).
        if let Some(spot_cap) = pool.spot_capacity() {
            let carried = book.running_count as usize + s.started.len();
            debug_assert!(!reclaiming || carried == 0);
            let mut spot = if carried > spot_cap as usize {
                book.evict(carried - spot_cap as usize, pf, s, parked, report)
            } else {
                SpotCounts::default()
            };
            spot.running = carried.min(spot_cap as usize) as u32;
            spot.parked_restarts = s
                .parked_started
                .iter()
                .filter(|&&i| s.started.binary_search(&i).is_ok())
                .count() as u32;
            pool.close_slot(t, price, spot);
            #[cfg(debug_assertions)]
            book.audit_capacity(&s.started, spot_cap, book.grid.index(pf), report);
        }

        // 4. Launch the slot's winners.
        book.running_count += s.started.len() as u32;
        for &i in &s.started {
            book.launch(i, calendar, &mut s.geo_in, report);
        }

        // 5. Geometric draw pass: one `chance(θ)` per accepted geometric
        // bid, ascending by id — bit-identical to the naive submission-
        // order scan. `geo_run` carries last slot's survivors (entries
        // interrupted or terminated above are skipped and dropped);
        // `geo_in` carries this slot's starts; both are sorted and
        // disjoint, so a merge preserves the global draw order.
        let theta = pool.params().theta;
        merged(geo_run, &s.geo_in, |i| {
            if book.flags[i as usize] & F_RUNNING == 0 {
                return; // went stale this slot (interrupted/terminated)
            }
            if rng.chance(theta) {
                book.finish(i);
                s.fin_geo.push(i);
            } else {
                s.geo_next.push(i);
            }
        });
        std::mem::swap(geo_run, &mut s.geo_next);

        // 6. Calendar pop: fixed-work bids whose streak reaches its work
        // requirement this slot, the running bids with `due == t`, each
        // closed by the visit that finds it.
        calendar.pop(t, |i| book.visit_filed(i, &mut s.fin_fixed));
        s.fin_fixed.sort_unstable();

        // 7. Finished = id-merge of the geometric and fixed finish sets.
        merged(&s.fin_geo, &s.fin_fixed, |i| {
            report.finished.push(BidId(u64::from(i)));
        });

        *prev_price = pf;
        book.t += 1;
        #[cfg(debug_assertions)]
        book.audit_running();
    }

    /// Runs `n` slots, returning every report.
    pub fn run(&mut self, n: usize, rng: &mut Rng) -> Vec<SlotReport> {
        (0..n).map(|_| self.step(rng)).collect()
    }
}

impl Book {
    /// Opens a run of arrivals at bid `first` unless the current slot's
    /// run is already open.
    fn note_arrivals(&mut self, first: usize) {
        let t = self.t as u32;
        if self.arrivals.last().is_none_or(|&(_, slot)| slot != t) {
            self.arrivals.push((first as u32, t));
        }
    }

    /// Bid `iu`'s columns as a [`BidRecord`] (settled up to `run_since`).
    /// A closed bid without a run entry closed in its submission slot.
    fn build_record(&self, iu: usize) -> BidRecord {
        let f = self.flags[iu];
        let submitted_at = self.submitted_at(iu);
        let (run, closed_at) = match self.run_of[iu] {
            NO_RUN => (&FRESH_RUN, submitted_at),
            r => {
                let run = &self.settlement.runs[r as usize];
                (run, run.due)
            }
        };
        let phase = if f & F_RUNNING != 0 {
            BidPhase::Running
        } else if f & F_OPEN != 0 {
            BidPhase::Pending
        } else if f & F_FINISHED != 0 {
            BidPhase::Finished
        } else {
            BidPhase::Terminated
        };
        BidRecord {
            id: BidId(iu as u64),
            request: BidRequest {
                price: Price::new(self.price_of[iu]),
                kind: if f & F_PERSISTENT != 0 {
                    BidKind::Persistent
                } else {
                    BidKind::OneTime
                },
                work: if f & F_GEOMETRIC != 0 {
                    WorkModel::Geometric
                } else {
                    WorkModel::FixedSlots(self.work[iu])
                },
            },
            phase,
            submitted_at,
            slots_run: run.slots_run,
            charged: run.charged,
            interruptions: run.interruptions,
            closed_at: (f & F_OPEN == 0).then_some(closed_at),
        }
    }

    /// The slot bid `iu` was submitted in: its arrival run's.
    fn submitted_at(&self, iu: usize) -> u64 {
        let run = self
            .arrivals
            .partition_point(|&(first, _)| first as usize <= iu);
        u64::from(self.arrivals[run - 1].1)
    }

    /// Step 1, the crossing scan from the previous posted price `pp` to
    /// `pf`. Residents obey the price invariants w.r.t. `pp`, so the only
    /// state changes live in buckets overlapping `[min(pp, pf), max(pp,
    /// pf))`: buckets strictly inside the interval flip wholesale, the
    /// boundary bucket is compared bid by bid. A price rise outbids the
    /// runners below `pf` (into `rejected`); a fall starts the pending
    /// bids at or above it (into `started`). (`pp` is +∞ only before the
    /// first step, when every bucket is empty.)
    ///
    /// A reclamation replaces the rise: every running bid is rejected
    /// regardless of price. Its fall parks instead of starting: those
    /// bids must wait the outage out, but price ≥ pf breaks the pending
    /// invariant, so they leave the bucket lists until their individual
    /// auction next slot.
    fn cross(
        &mut self,
        pp: f64,
        pf: f64,
        reclaiming: bool,
        s: &mut Scratch,
        parked: &mut Vec<u32>,
    ) {
        if reclaiming {
            for bucket in &mut self.buckets {
                s.rejected.append(&mut bucket.running);
            }
        } else if pf > pp {
            let hi = self.grid.index(pf);
            for b in self.grid.index(pp)..hi {
                s.rejected.append(&mut self.buckets[b].running);
            }
            // The boundary bucket keeps its runners at or above `pf` in
            // order; each one that moves down the list takes its new
            // position.
            self.touch(hi);
            let list = &mut self.buckets[hi].running;
            let runs = &mut self.settlement.runs;
            let mut kept = 0;
            for p in 0..list.len() {
                let i = list[p];
                if self.price_of[i as usize] < pf {
                    s.rejected.push(i);
                } else {
                    if kept < p {
                        list[kept] = i;
                        runs[self.run_of[i as usize] as usize].pos = kept as u32;
                    }
                    kept += 1;
                }
            }
            list.truncate(kept);
        }
        if pf < pp {
            let out = if reclaiming { parked } else { &mut s.started };
            let (lo, price_of) = (self.grid.index(pf), &self.price_of);
            self.buckets[lo].pending.retain(|&i| {
                let wins = price_of[i as usize] >= pf;
                if wins {
                    out.push(i);
                }
                !wins
            });
            for b in lo + 1..=self.grid.index(pp) {
                out.append(&mut self.buckets[b].pending);
            }
        }
    }

    /// Bid `i`'s first auction at posted price `pf` — a fresh arrival's,
    /// or a parked bid's re-auction: it becomes a resident, and a winner
    /// joins `started` (returning true), a persistent loser pends in its
    /// bucket and a one-time loser exits.
    #[inline(always)]
    fn first_auction(
        &mut self,
        i: u32,
        pf: f64,
        started: &mut Vec<u32>,
        report: &mut SlotReport,
    ) -> bool {
        let iu = i as usize;
        self.flags[iu] |= F_RESIDENT;
        if self.price_of[iu] >= pf {
            started.push(i);
            return true;
        }
        if self.flags[iu] & F_PERSISTENT != 0 {
            self.push_pending(i);
        } else {
            self.terminate(i, report);
        }
        false
    }

    /// Step 3b's evictions: the provider reclaims the `k` lowest of the
    /// carried runners and this slot's winners — lowest bid first, newest
    /// first among equal bids (`victim_order`, the §5i reclaim contract).
    /// Carried victims are interrupted like a price crossing (settled
    /// through the previous slot, persistent ones park for an individual
    /// re-auction, one-time ones exit); would-be starters are returned
    /// unlaunched (no start event — persistent park, one-time exit).
    /// `select_victims` hands the victims over in id order: which bids go
    /// is fixed by `victim_order`, and nothing the pass writes depends on
    /// the order it visits them in (bucket-list positions are internal,
    /// `parked` is sorted before use). So `evicted` comes out id-sorted,
    /// and `interrupted`/`terminated` only need their two sorted runs
    /// merged. Returns the reclaims and the fresh evictions.
    fn evict(
        &mut self,
        k: usize,
        pf: f64,
        s: &mut Scratch,
        parked: &mut Vec<u32>,
        report: &mut SlotReport,
    ) -> SpotCounts {
        select_victims(
            &self.buckets,
            &s.started,
            &self.price_of,
            &self.bucket_of,
            self.grid.index(pf),
            k,
            &mut s.bucket_count,
            &mut s.keys,
            &mut s.victims,
        );
        let mut spot = SpotCounts::default();
        for &i in &s.victims {
            report.evicted.push(BidId(u64::from(i)));
            if self.flags[i as usize] & F_RUNNING != 0 {
                // A running instance reclaimed for the pool.
                spot.reclaims += 1;
                let p = self.settlement.runs[self.run_of[i as usize] as usize].pos;
                self.remove_running(i, p);
                self.interrupt(i, report);
            } else {
                // A would-be starter: never launched this slot.
                spot.fresh_evictions += 1;
            }
            if self.flags[i as usize] & F_PERSISTENT != 0 {
                parked.push(i);
            } else {
                self.terminate(i, report);
            }
        }
        // Both lists ascend, so one pass drops the fresh victims.
        let mut victims = s.victims.iter().peekable();
        s.started.retain(|i| {
            while victims.next_if(|&v| v < i).is_some() {}
            victims.next_if_eq(&i).is_none()
        });
        report.interrupted.sort_unstable();
        report.terminated.sort_unstable();
        debug_assert!(report.evicted.windows(2).all(|w| w[0] < w[1]));
        spot
    }

    /// Step 4 for winner `i`: puts it in its bucket's running list, gives
    /// a first launch its run entry (a restart reuses it), starts the
    /// running streak, and schedules a fixed-work finish on the calendar
    /// or enrolls a geometric bid for the draw pass.
    fn launch(
        &mut self,
        i: u32,
        calendar: &mut Calendar,
        geo_in: &mut Vec<u32>,
        report: &mut SlotReport,
    ) {
        let (iu, t) = (i as usize, self.t);
        self.flags[iu] |= F_RUNNING;
        self.touch(self.bucket_of[iu] as usize);
        let run = self.settlement.entry(&mut self.run_of[iu]);
        let list = &mut self.buckets[self.bucket_of[iu] as usize].running;
        run.pos = list.len() as u32;
        list.push(i);
        report.started.push(BidId(u64::from(i)));
        run.run_since = t as u32;
        if self.flags[iu] & F_GEOMETRIC != 0 {
            geo_in.push(i);
        } else {
            // Settled at (re)start, so `slots_run` is exact here; a
            // zero-slot request still occupies (and is charged for)
            // the slot it is accepted in, matching the naive rule
            // `slots_run >= n` checked after the increment.
            // A restarted bid keeps the entry of an earlier launch,
            // which comes due no later than this one.
            let rem = self.work[iu].saturating_sub(run.slots_run);
            let due = t + u64::from(rem.saturating_sub(1));
            run.due = due;
            if self.flags[iu] & F_FILED == 0 {
                self.flags[iu] |= F_FILED;
                calendar.file(i, due, t);
            }
        }
    }

    /// Appends a bid to its bucket's pending list.
    fn push_pending(&mut self, i: u32) {
        let b = self.bucket_of[i as usize] as usize;
        self.buckets[b].pending.push(i);
    }

    /// Closes an open, not running bid unfinished this slot and reports it
    /// terminated. A bid that never launched and closes in its submission
    /// slot needs no run entry to show it; one that closes later (a
    /// one-time arrival parked by an outage, terminated at its re-auction)
    /// takes one to hold its closing slot.
    fn terminate(&mut self, i: u32, report: &mut SlotReport) {
        let iu = i as usize;
        if self.run_of[iu] != NO_RUN || !self.submitted_now(iu) {
            self.settlement.entry(&mut self.run_of[iu]).due = self.t;
        }
        self.flags[iu] &= !F_OPEN;
        self.open_count -= 1;
        report.terminated.push(BidId(u64::from(i)));
    }

    /// Closes a running bid that finished its work this slot, settled
    /// through this slot.
    fn finish(&mut self, i: u32) {
        let run = self.settlement.settle(self.run_of[i as usize], self.t);
        run.due = self.t;
        let p = run.pos;
        self.close_finished(i, p);
    }

    /// Step 6's visit of filed bid `i` at the current slot: drops the entry
    /// of a bid no longer running, returns the due slot of a runner not
    /// due yet (to refile it by), and closes a runner due now, settled
    /// through this slot in the same read of its run entry, adding it to
    /// `finished`.
    fn visit_filed(&mut self, i: u32, finished: &mut Vec<u32>) -> Option<u64> {
        let iu = i as usize;
        if self.flags[iu] & F_RUNNING != 0 {
            let Settlement { runs, charges } = &mut self.settlement;
            let run = &mut runs[self.run_of[iu] as usize];
            if run.due != self.t {
                return Some(run.due);
            }
            settle_run(charges, run, self.t);
            debug_assert!(run.slots_run >= self.work[iu]);
            let p = run.pos;
            finished.push(i);
            self.close_finished(i, p);
        }
        self.flags[iu] &= !F_FILED;
        None
    }

    /// Closes running bid `i`, at position `p` of its running list, as
    /// finished, its run entry already settled and closed at this slot.
    fn close_finished(&mut self, i: u32, p: u32) {
        let iu = i as usize;
        self.flags[iu] = (self.flags[iu] & !(F_RUNNING | F_OPEN)) | F_FINISHED;
        self.running_count -= 1;
        self.remove_running(i, p);
        self.open_count -= 1;
    }

    /// Stops running bid `i` at the end of the last slot: settles its
    /// streak through that slot, counts the interruption and reports it.
    fn interrupt(&mut self, i: u32, report: &mut SlotReport) {
        let iu = i as usize;
        self.flags[iu] &= !F_RUNNING;
        self.touch(self.bucket_of[iu] as usize);
        self.running_count -= 1;
        debug_assert!(self.t > 0, "no residents can exist before the first step");
        self.settlement
            .settle(self.run_of[iu], self.t - 1)
            .interruptions += 1;
        report.interrupted.push(BidId(u64::from(i)));
    }

    /// The capacity pass's audit (debug builds; allocates nothing): the
    /// spot runners carried plus this slot's surviving `started` fit the
    /// spot share, `evicted` ascends, and no survivor orders before a
    /// victim in [`victim_order`]. The last victim in that order lies in
    /// the cutoff bucket and every candidate above that bucket orders
    /// after it, so the survivors of the buckets from the `floor` to the
    /// cutoff are the ones to check.
    #[cfg(debug_assertions)]
    fn audit_capacity(&self, started: &[u32], spot_cap: u32, floor: usize, report: &SlotReport) {
        assert!(
            self.running_count as usize + started.len() <= spot_cap as usize,
            "slot {}: {} runners and {} starters over a spot share of {spot_cap}",
            self.t,
            self.running_count,
            started.len()
        );
        assert!(
            report.evicted.is_sorted_by(|a, b| a < b),
            "slot {}: evicted out of order",
            self.t
        );
        let order = |a: u32, b: u32| {
            victim_order(
                self.price_of[a as usize],
                u64::from(a),
                self.price_of[b as usize],
                u64::from(b),
            )
        };
        let Some(last) = report
            .evicted
            .iter()
            .map(|id| id.0 as u32)
            .max_by(|&a, &b| order(a, b))
        else {
            return;
        };
        let cutoff = self.bucket_of[last as usize] as usize;
        let bucketed = self.buckets[floor..=cutoff].iter().flat_map(|b| &b.running);
        let starting = started
            .iter()
            .filter(|&&i| self.bucket_of[i as usize] as usize <= cutoff);
        for &i in bucketed.chain(starting) {
            assert!(
                order(last, i).is_lt(),
                "slot {}: survivor {i} orders before victim {last}",
                self.t
            );
        }
    }

    /// Marks bucket `b`'s running list for the step-end audit (debug
    /// builds; a no-op otherwise).
    #[inline(always)]
    fn touch(&mut self, b: usize) {
        #[cfg(debug_assertions)]
        {
            self.touched[b / 64] |= 1 << (b % 64);
        }
        #[cfg(not(debug_assertions))]
        let _ = b;
    }

    /// The running lists' audit at the end of a step (debug builds;
    /// allocates nothing): every id in a running list the step touched is
    /// flagged running, belongs to that bucket and holds its index there
    /// as its run entry's `pos`, and the lists hold `running_count` ids in
    /// all. Every change to a list or to a listed runner's flags marks
    /// the list, so an untouched list holds what its last audit saw. The
    /// walk indexes plain slices in a `while` loop, which an unoptimized
    /// build does without a call.
    #[cfg(debug_assertions)]
    fn audit_running(&mut self) {
        let (flags, bucket_of, run_of) = (&self.flags[..], &self.bucket_of[..], &self.run_of[..]);
        let (pages, buckets) = (&self.settlement.runs.pages[..], &self.buckets[..]);
        for (w, word) in self.touched.iter_mut().enumerate() {
            while *word != 0 {
                let b = w * 64 + word.trailing_zeros() as usize;
                *word &= *word - 1;
                let list = &buckets[b].running[..];
                let mut p = 0;
                while p < list.len() {
                    let i = list[p] as usize;
                    let r = run_of[i] as usize;
                    let pos = pages[r / PAGE].as_slice()[r % PAGE].pos as usize;
                    assert!(
                        flags[i] & F_RUNNING != 0 && bucket_of[i] as usize == b && pos == p,
                        "slot {}: bucket {b}'s running list holds bid {i} at {p}: flags {:#x}, \
                         bucket {}, position {pos}",
                        self.t - 1,
                        flags[i],
                        bucket_of[i]
                    );
                    p += 1;
                }
            }
        }
        let (mut listed, mut b) = (0, 0);
        while b < buckets.len() {
            listed += buckets[b].running.len();
            b += 1;
        }
        assert_eq!(
            listed,
            self.running_count as usize,
            "slot {}: running lists against the running count",
            self.t - 1
        );
    }

    /// Bid `iu` was submitted in the current slot: it lies in the last
    /// arrival run, and that run opened this slot.
    fn submitted_now(&self, iu: usize) -> bool {
        self.arrivals
            .last()
            .is_some_and(|&(first, slot)| u64::from(slot) == self.t && iu >= first as usize)
    }

    /// Removes running bid `i` from its bucket's running list at `p`, the
    /// position its run entry holds (read by the caller, which has the
    /// entry in hand): a swap-remove, and the moved runner's entry takes
    /// that position.
    fn remove_running(&mut self, i: u32, p: u32) {
        let b = self.bucket_of[i as usize] as usize;
        self.touch(b);
        let list = &mut self.buckets[b].running;
        debug_assert_eq!(list[p as usize], i);
        list.swap_remove(p as usize);
        if let Some(&moved) = list.get(p as usize) {
            self.settlement.runs[self.run_of[moved as usize] as usize].pos = p;
        }
    }

    /// Settles a single bid's accrual up to the last completed slot.
    fn sync_one(&mut self, iu: usize) {
        if self.flags[iu] & F_RUNNING != 0 && self.t > 0 {
            self.settlement.settle(self.run_of[iu], self.t - 1);
        }
    }
}

impl Settlement {
    /// The run entry `run_of` points at, pushed fresh (and `run_of`
    /// pointed at it) if it holds none.
    fn entry(&mut self, run_of: &mut u32) -> &mut Run {
        if *run_of == NO_RUN {
            *run_of = self.runs.len() as u32;
            self.runs.push(FRESH_RUN);
        }
        &mut self.runs[*run_of as usize]
    }

    /// Settles run `r`'s lazy charge accrual for slots `[run_since, end]`:
    /// the same `charged += price_u × slot_len` sequence, in the same
    /// chronological order, as the naive per-slot loop — so the float sums
    /// are bit-identical (the memo returns the fold's own bits). Returns
    /// the run entry, which a running bid always holds.
    fn settle(&mut self, r: u32, end: u64) -> &mut Run {
        let a = &mut self.runs[r as usize];
        settle_run(&mut self.charges, a, end);
        a
    }
}

/// [`Settlement::settle`] on a run entry already in hand.
/// `end` lies below `u32::MAX`, as every slot a market steps does.
fn settle_run(charges: &mut ChargeTable, a: &mut Run, end: u64) {
    let since = u64::from(a.run_since);
    if since <= end {
        a.charged = charges.settle(a.charged, since, end + 1, std::iter::once(0));
        a.slots_run += (end - since + 1) as u32;
        a.run_since = (end + 1) as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn market() -> SpotMarket {
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
        SpotMarket::new(params, Hours::from_minutes(5.0))
    }

    fn bid(price: f64, kind: BidKind, slots: u32) -> BidRequest {
        BidRequest {
            price: Price::new(price),
            kind,
            work: WorkModel::FixedSlots(slots),
        }
    }

    #[test]
    fn lone_high_bid_runs_to_completion() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(1);
        let id = m.submit(bid(0.35, BidKind::OneTime, 3));
        let reports = m.run(5, &mut rng);
        let rec = m.record(id).unwrap();
        assert_eq!(rec.phase, BidPhase::Finished);
        assert_eq!(rec.slots_run, 3);
        assert_eq!(rec.interruptions, 0);
        assert!(rec.charged.as_f64() > 0.0);
        assert_eq!(reports[2].finished, vec![id]);
        assert_eq!(m.open_bids(), 0);
    }

    #[test]
    fn low_one_time_bid_is_rejected() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(2);
        // Even at minimal demand the price is (π̄ − β)/2 = 0.15, well above
        // a bid at the floor; the one-time request loses and exits.
        let id = m.submit(bid(0.02, BidKind::OneTime, 1));
        let rep = m.step(&mut rng);
        assert_eq!(rep.terminated, vec![id]);
        let rec = m.record(id).unwrap();
        assert_eq!(rec.phase, BidPhase::Terminated);
        assert_eq!(rec.slots_run, 0);
        assert_eq!(rec.charged, Cost::ZERO);
    }

    #[test]
    fn persistent_bid_interrupted_by_demand_surge_then_resumes() {
        // Price rises with demand in this market (toward π̄/2 = 0.175), so a
        // moderate persistent bid runs while the market is quiet, is
        // interrupted by a demand surge, and resumes once the surge clears.
        let mut m = market();
        let mut rng = Rng::seed_from_u64(3);
        let victim = m.submit(bid(0.16, BidKind::Persistent, 10));
        let r1 = m.step(&mut rng);
        assert!(
            r1.price < Price::new(0.16),
            "quiet-market price {}",
            r1.price
        );
        assert_eq!(m.record(victim).unwrap().phase, BidPhase::Running);

        // Demand surge: 400 high bids push the price above 0.16.
        for _ in 0..400 {
            m.submit(bid(0.34, BidKind::Persistent, 2));
        }
        let r2 = m.step(&mut rng);
        assert!(r2.price > Price::new(0.16), "surge price {}", r2.price);
        assert!(r2.interrupted.contains(&victim));
        assert_eq!(m.record(victim).unwrap().phase, BidPhase::Pending);
        assert_eq!(m.record(victim).unwrap().interruptions, 1);

        // The surge jobs need one more slot; after that the market quiets
        // down and the victim resumes and eventually finishes.
        let mut finished = false;
        for _ in 0..20 {
            let rep = m.step(&mut rng);
            if rep.finished.contains(&victim) {
                finished = true;
                break;
            }
        }
        assert!(finished, "victim never finished after the surge cleared");
        let rec = m.record(victim).unwrap();
        assert_eq!(rec.phase, BidPhase::Finished);
        assert_eq!(rec.slots_run, 10);
        assert_eq!(rec.interruptions, 1);
    }

    #[test]
    fn charges_spot_price_not_bid_price() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(5);
        let id = m.submit(bid(0.35, BidKind::OneTime, 1));
        let rep = m.step(&mut rng);
        let rec = m.record(id).unwrap();
        let expected = rep.price * Hours::from_minutes(5.0);
        assert!((rec.charged.as_f64() - expected.as_f64()).abs() < 1e-12);
        assert!(rep.price < Price::new(0.35), "spot price below the bid");
    }

    #[test]
    fn geometric_work_finishes_at_theta_rate() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(6);
        let n = 2000;
        for _ in 0..n {
            m.submit(BidRequest {
                price: Price::new(0.35),
                kind: BidKind::Persistent,
                work: WorkModel::Geometric,
            });
        }
        let rep = m.step(&mut rng);
        // All run; each finishes w.p. θ = 0.02.
        let finished = rep.finished.len() as f64;
        assert!(
            (finished - 0.02 * n as f64).abs() < 15.0,
            "finished {finished} of {n}"
        );
    }

    #[test]
    fn demand_counts_pending_running_and_new() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(7);
        m.submit(bid(0.03, BidKind::Persistent, 10)); // will pend
        m.submit(bid(0.35, BidKind::Persistent, 10)); // will run
        m.step(&mut rng);
        m.submit(bid(0.20, BidKind::Persistent, 10)); // new
        let rep = m.step(&mut rng);
        assert_eq!(rep.demand, 3);
    }

    #[test]
    fn records_are_stable_and_ordered() {
        let mut m = market();
        let a = m.submit(bid(0.1, BidKind::OneTime, 1));
        let b = m.submit(bid(0.2, BidKind::OneTime, 1));
        assert_eq!(m.records().len(), 2);
        assert_eq!(m.records()[0].id, a);
        assert_eq!(m.records()[1].id, b);
        assert!(m.record(BidId(99)).is_none());
        assert_eq!(m.now(), 0);
    }

    #[test]
    fn recycled_reports_do_not_change_results() {
        // step_into over one report reused across slots must match fresh
        // step() output.
        let mut m1 = market();
        let mut m2 = market();
        let mut r1 = Rng::seed_from_u64(9);
        let mut r2 = Rng::seed_from_u64(9);
        for i in 0..50u32 {
            let req = bid(0.02 + f64::from(i % 30) * 0.012, BidKind::Persistent, 4);
            m1.submit(req);
            m2.submit(req);
        }
        let mut arena = SlotReport::empty();
        for _ in 0..30 {
            let fresh = m1.step(&mut r1);
            m2.step_into(&mut r2, &mut arena);
            assert_eq!(fresh, arena);
        }
        assert_eq!(m1.records(), m2.records());
    }

    #[test]
    fn reclamation_interrupts_running_and_parks_persistent() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(13);
        let p = m.submit(bid(0.35, BidKind::Persistent, 5));
        let o = m.submit(bid(0.35, BidKind::OneTime, 5));
        let r1 = m.step(&mut rng);
        assert_eq!(r1.started, vec![p, o]);

        m.reclaim_next_slot();
        let r2 = m.step(&mut rng);
        // Price still posted; everything running is taken back.
        assert!(r2.price > Price::ZERO);
        assert_eq!(r2.interrupted, vec![p, o]);
        assert_eq!(r2.terminated, vec![o], "one-time exits unfinished");
        assert!(r2.started.is_empty() && r2.finished.is_empty());
        assert_eq!(m.record(p).unwrap().phase, BidPhase::Pending);
        // Charged for the one pre-outage slot only.
        assert_eq!(m.record(p).unwrap().slots_run, 1);

        // Next normal slot: the parked persistent re-wins its auction and
        // eventually finishes its remaining work.
        let r3 = m.step(&mut rng);
        assert_eq!(r3.started, vec![p]);
        for _ in 0..6 {
            m.step(&mut rng);
        }
        let rec = m.record(p).unwrap();
        assert_eq!(rec.phase, BidPhase::Finished);
        assert_eq!(rec.slots_run, 5);
        assert_eq!(rec.interruptions, 1);
        assert_eq!(m.open_bids(), 0);
    }

    #[test]
    fn report_event_vectors_are_id_sorted() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(11);
        for i in 0..500u32 {
            m.submit(BidRequest {
                price: Price::new(0.02 + f64::from(i % 97) * 0.0034),
                kind: if i % 3 == 0 {
                    BidKind::OneTime
                } else {
                    BidKind::Persistent
                },
                work: if i % 2 == 0 {
                    WorkModel::Geometric
                } else {
                    WorkModel::FixedSlots(3)
                },
            });
        }
        for _ in 0..40 {
            let rep = m.step(&mut rng);
            for v in [
                &rep.started,
                &rep.interrupted,
                &rep.finished,
                &rep.terminated,
            ] {
                assert!(v.windows(2).all(|w| w[0] < w[1]), "unsorted: {v:?}");
            }
        }
    }

    fn finite_market(capacity: u32, od_cap: u32) -> SpotMarket {
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
        SpotMarket::with_supply(
            params,
            Hours::from_minutes(5.0),
            Supply::Finite {
                capacity,
                policy: ProviderPolicy::UtilizationTracking { od_cap },
            },
        )
    }

    fn mixed_submissions(m: &mut SpotMarket, n: u32) {
        for i in 0..n {
            m.submit(BidRequest {
                price: Price::new(0.02 + f64::from(i % 97) * 0.0034),
                kind: if i % 3 == 0 {
                    BidKind::OneTime
                } else {
                    BidKind::Persistent
                },
                work: if i % 2 == 0 {
                    WorkModel::Geometric
                } else {
                    WorkModel::FixedSlots(3)
                },
            });
        }
    }

    #[test]
    fn slack_finite_capacity_is_bit_identical_to_unbounded() {
        // With capacity far above demand the clearing price sits below the
        // revenue price, so the posted price — and every downstream event
        // and float — must be Eq. 3's exact output.
        let mut unbounded = market();
        let mut finite = finite_market(100_000, 0);
        let mut r1 = Rng::seed_from_u64(21);
        let mut r2 = Rng::seed_from_u64(21);
        mixed_submissions(&mut unbounded, 500);
        mixed_submissions(&mut finite, 500);
        for _ in 0..40 {
            assert_eq!(unbounded.step(&mut r1), finite.step(&mut r2));
        }
        assert_eq!(unbounded.records(), finite.records());
        assert!(unbounded.provider_report().is_none());
        let rep = finite.provider_report().unwrap();
        assert_eq!(rep.slots, 40);
        assert_eq!(rep.reclaims, 0);
        assert_eq!(finite.provider_slots().len(), 40);
    }

    #[test]
    fn finite_capacity_evicts_lowest_bid_newest_first() {
        // Three bids above the posted price but only two servers: the
        // lowest bid is returned without ever launching.
        let mut m = finite_market(2, 0);
        let mut rng = Rng::seed_from_u64(31);
        let low = m.submit(bid(0.20, BidKind::OneTime, 5));
        let mid = m.submit(bid(0.25, BidKind::Persistent, 5));
        let high = m.submit(bid(0.30, BidKind::Persistent, 5));
        let rep = m.step(&mut rng);
        assert_eq!(rep.started, vec![mid, high]);
        assert_eq!(rep.terminated, vec![low], "one-time victim exits");
        assert!(rep.interrupted.is_empty(), "never ran, so not interrupted");
        assert_eq!(m.record(low).unwrap().phase, BidPhase::Terminated);
        assert_eq!(m.record(low).unwrap().charged, Cost::ZERO);
        let slot = m.provider_slots()[0];
        assert_eq!(slot.spot_running, 2);
        assert_eq!(slot.reclaims, 0, "fresh eviction is not a reclaim");

        // Equal bids: the newest (highest id) loses the tie-break.
        let mut m = finite_market(1, 0);
        let older = m.submit(bid(0.30, BidKind::Persistent, 5));
        let newer = m.submit(bid(0.30, BidKind::Persistent, 5));
        let rep = m.step(&mut rng);
        assert_eq!(rep.started, vec![older]);
        assert_eq!(m.record(newer).unwrap().phase, BidPhase::Pending);
    }

    #[test]
    fn on_demand_admissions_respect_the_policy_limit() {
        let mut m = finite_market(10, 8);
        assert_eq!(m.spot_capacity(), Some(10));
        assert_eq!(m.request_on_demand(5), 5);
        assert_eq!(m.request_on_demand(6), 3, "od_cap 8 caps the pool");
        assert_eq!(m.od_active(), 8);
        assert_eq!(m.spot_capacity(), Some(2));
        m.release_on_demand(4);
        assert_eq!(m.od_active(), 4);
        assert_eq!(m.spot_capacity(), Some(6));
        let mut rng = Rng::seed_from_u64(41);
        m.step(&mut rng);
        let slot = m.provider_slots()[0];
        assert_eq!(slot.od_admitted, 8);
        assert_eq!(slot.od_rejected, 3);
        assert_eq!(slot.od_active, 4);
        assert!(slot.od_revenue > Cost::ZERO);
    }

    #[test]
    fn growing_on_demand_reclaims_running_spot_instances() {
        // Three spot instances fill the machine; two on-demand admissions
        // shrink the spot share to one, so the provider reclaims the two
        // newest of the equal-bid runners.
        let mut m = finite_market(3, 3);
        let mut rng = Rng::seed_from_u64(43);
        let a = m.submit(bid(0.30, BidKind::Persistent, 10));
        let b = m.submit(bid(0.30, BidKind::Persistent, 10));
        let c = m.submit(bid(0.30, BidKind::Persistent, 10));
        let r1 = m.step(&mut rng);
        assert_eq!(r1.started, vec![a, b, c]);

        assert_eq!(m.request_on_demand(2), 2);
        let r2 = m.step(&mut rng);
        assert_eq!(r2.interrupted, vec![b, c]);
        assert!(r2.terminated.is_empty(), "persistent victims park");
        assert_eq!(m.record(a).unwrap().phase, BidPhase::Running);
        assert_eq!(m.record(b).unwrap().interruptions, 1);
        let slot = m.provider_slots()[1];
        assert_eq!(slot.reclaims, 2);
        assert_eq!(slot.spot_running, 1);
        assert_eq!(slot.od_active, 2);

        // Releasing the pool lets the parked victims re-win their auction.
        m.release_on_demand(2);
        let r3 = m.step(&mut rng);
        assert_eq!(r3.started, vec![b, c]);
    }

    /// What one `check_selection` case exercised.
    struct Selected {
        /// The bucket of the `k`-th victim (the cutoff).
        cutoff: u16,
        /// Equal prices straddle position `k`.
        straddle: bool,
        /// ... with a starter in the cutoff bucket.
        straddle_starting: bool,
        /// A −0.0 bid is a victim and a +0.0 bid survives.
        zeros_split: bool,
        /// The floor bucket.
        floor: usize,
    }

    /// One randomized `select_victims` case against the full
    /// `victim_order` sort it replaces, walked from the bucket of a posted
    /// price at or below every candidate: the lowest candidate price
    /// itself, a price below it, or one below the whole book. `counts`
    /// and `keys` are the caller's scratch, reused from case to case.
    fn check_selection(
        prices: &[f64],
        starter_share: f64,
        k: usize,
        rng: &mut Rng,
        counts: &mut Vec<u32>,
        keys: &mut Vec<u128>,
    ) -> Selected {
        let m = market();
        let bucket_of: Vec<u16> = prices
            .iter()
            .map(|&p| m.book.grid.index(p) as u16)
            .collect();
        let lowest = prices
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("a candidate");
        let posted = match rng.range_usize(3) {
            0 => lowest,
            1 => rng.range_f64(lowest - 0.05, lowest),
            _ => -1.0,
        };
        let floor = m.book.grid.index(posted);
        let mut buckets = vec![Bucket::default(); BUCKETS];
        let mut starters = Vec::new();
        for i in 0..prices.len() as u32 {
            if rng.chance(starter_share) {
                starters.push(i);
            } else {
                // Running lists hold swap-remove order, not id order.
                let list = &mut buckets[bucket_of[i as usize] as usize].running;
                let at = rng.range_f64(0.0, list.len() as f64 + 1.0) as usize;
                list.insert(at.min(list.len()), i);
            }
        }
        let mut full: Vec<u32> = (0..prices.len() as u32).collect();
        full.sort_unstable_by(|&a, &b| {
            victim_order(
                prices[a as usize],
                u64::from(a),
                prices[b as usize],
                u64::from(b),
            )
        });

        let mut out = vec![7, 7, 7];
        select_victims(
            &buckets, &starters, prices, &bucket_of, floor, k, counts, keys, &mut out,
        );
        let mut expect = full[..k].to_vec();
        expect.sort_unstable();
        assert_eq!(out, expect, "k = {k} of {}, floor {floor}", prices.len());
        assert!(counts.iter().all(|&c| c == 0), "scratch left dirty");
        let last = full[k - 1] as usize;
        let cutoff = bucket_of[last];
        let straddle = k < full.len() && prices[full[k] as usize].total_cmp(&prices[last]).is_eq();
        let starting = starters.iter().any(|&i| bucket_of[i as usize] == cutoff);
        let holds = |ids: &[u32], z: f64| {
            ids.iter()
                .any(|&i| prices[i as usize].to_bits() == z.to_bits())
        };
        Selected {
            cutoff,
            straddle,
            straddle_starting: straddle && starting,
            zeros_split: holds(&full[..k], -0.0) && holds(&full[k..], 0.0),
            floor,
        }
    }

    #[test]
    fn victim_selection_matches_a_full_sort() {
        let (lo, hi) = (0.02, 0.35);
        let w = (hi - lo) / BUCKETS as f64;
        let mut rng = Rng::seed_from_u64(0x5E1E);
        let (mut straddles, mut top_cutoffs, mut bottom_cutoffs) = (0, 0, 0);
        let (mut cutoff_floors, mut raised_floors, mut starting) = (0, 0, 0);
        let mut zeros_split = 0;
        // One pair of scratch lists for every case, as a market keeps them.
        let (mut counts, mut keys) = (Vec::new(), Vec::new());
        let tiny = [
            0.0,
            -0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            f64::MIN_POSITIVE,
        ];
        for trial in 0..700u32 {
            let n = 1 + (rng.range_f64(0.0, 300.0) as usize);
            let prices: Vec<f64> = (0..n)
                .map(|_| match trial % 7 {
                    // Uniform over the book.
                    0 => rng.range_f64(lo, hi),
                    // A few distinct prices: deep ties across position k.
                    1 => [0.05, 0.12, 0.2, 0.3][(rng.range_f64(0.0, 4.0) as usize).min(3)],
                    // Everything in one interior bucket.
                    2 => lo + (200.0 + rng.range_f64(0.0, 1.0)) * w,
                    // The top bucket and above the cap: the cutoff is 511.
                    3 => rng.range_f64(hi - w, 2.0 * hi),
                    // Out of range on both sides, clamping into 0 and 511.
                    4 => {
                        if rng.chance(0.5) {
                            rng.range_f64(0.0, lo)
                        } else {
                            rng.range_f64(hi, 2.0 * hi)
                        }
                    }
                    // Exact bucket edges.
                    5 => lo + (rng.range_f64(0.0, BUCKETS as f64 + 1.0).floor()) * w,
                    // Signed zeros and subnormals (which `total_cmp` orders,
                    // −0.0 below +0.0) among a few repeated book prices.
                    _ => {
                        if rng.chance(0.6) {
                            tiny[rng.range_usize(tiny.len())]
                        } else {
                            [0.05, 0.2][rng.range_usize(2)]
                        }
                    }
                })
                .collect();
            let starter_share = [0.0, 1.0, 0.3][(trial / 7 % 3) as usize];
            for k in [1, n, 1 + (rng.range_f64(0.0, n as f64) as usize).min(n - 1)] {
                let c =
                    check_selection(&prices, starter_share, k, &mut rng, &mut counts, &mut keys);
                straddles += usize::from(c.straddle);
                starting += usize::from(c.straddle_starting);
                zeros_split += usize::from(c.zeros_split);
                top_cutoffs += usize::from(c.cutoff as usize == BUCKETS - 1);
                bottom_cutoffs += usize::from(c.cutoff == 0);
                cutoff_floors += usize::from(c.floor == c.cutoff as usize);
                raised_floors += usize::from(c.floor > 0 && c.floor < c.cutoff as usize);
            }
        }
        // The hostile shapes really occurred.
        assert!(straddles > 50, "ties across k: {straddles}");
        assert!(starting > 50, "ties across k with starters: {starting}");
        assert!(zeros_split > 20, "−0.0 evicted, +0.0 kept: {zeros_split}");
        assert!(top_cutoffs > 50, "cutoff in bucket 511: {top_cutoffs}");
        assert!(bottom_cutoffs > 50, "cutoff in bucket 0: {bottom_cutoffs}");
        // The walk started in the cutoff bucket, and strictly between the
        // bottom of the book and the cutoff.
        assert!(cutoff_floors > 50, "floor at the cutoff: {cutoff_floors}");
        assert!(raised_floors > 50, "floor inside the walk: {raised_floors}");
    }

    #[test]
    fn binding_capacity_raises_the_posted_price() {
        // Same demand, same bids: the capacity-bound market must post the
        // clearing price, which sits above Eq. 3's revenue price.
        let mut unbounded = market();
        let mut finite = finite_market(4, 0);
        let mut r1 = Rng::seed_from_u64(47);
        let mut r2 = Rng::seed_from_u64(47);
        for _ in 0..200 {
            unbounded.submit(bid(0.35, BidKind::Persistent, 3));
            finite.submit(bid(0.35, BidKind::Persistent, 3));
        }
        let free = unbounded.step(&mut r1);
        let bound = finite.step(&mut r2);
        assert!(
            bound.price > free.price,
            "binding capacity: {} vs {}",
            bound.price,
            free.price
        );
        let slot = finite.provider_slots()[0];
        assert_eq!(slot.spot_running, 4);
        assert_eq!(slot.spot_capacity, 4);
        let rep = finite.provider_report().unwrap();
        assert_eq!(rep.capacity, 4);
        assert!(rep.mean_utilization > 0.99, "all servers busy");
        assert_eq!(rep.peak_price, bound.price);
    }

    #[test]
    fn calendar_memory_is_bounded_by_open_fixed_work_bids() {
        // A squeezed finite market of standing bids that never finish,
        // restarted over and over by on-demand churn and one-time churn
        // bids. A calendar keyed by due slot would gain a key per restart;
        // this one holds at most one entry per open fixed-work bid.
        const STANDING: u32 = 2000;
        let mut m = finite_market(STANDING / 8, STANDING / 16);
        let mut g = Rng::seed_from_u64(0xCA1E);
        let mut rng = Rng::seed_from_u64(0xCA1F);
        let ladder = |i: u32| 0.02 + (f64::from(i) * 0.618_033_988_749_895).fract() * 0.33;
        for i in 0..STANDING {
            m.submit(bid(ladder(i), BidKind::Persistent, u32::MAX));
        }
        let (mut restarts, mut worst) = (0usize, 0usize);
        let mut report = SlotReport::empty();
        for s in 0..20_000u32 {
            let depart = (0..m.od_active()).filter(|_| g.chance(0.1)).count() as u32;
            m.release_on_demand(depart);
            m.request_on_demand(g.poisson(f64::from(STANDING) / 320.0) as u32);
            for k in 0..4 {
                m.submit(BidRequest {
                    price: Price::new(ladder(STANDING + 4 * s + k)),
                    kind: BidKind::OneTime,
                    work: WorkModel::Geometric,
                });
            }
            m.step_into(&mut rng, &mut report);
            if s > 0 {
                restarts += report
                    .started
                    .iter()
                    .filter(|id| id.0 < u64::from(STANDING))
                    .count();
            }
            worst = worst.max(m.calendar.len());
        }
        let open_fixed = (0..STANDING as usize)
            .filter(|&i| m.book.flags[i] & F_OPEN != 0)
            .count();
        assert_eq!(open_fixed, STANDING as usize, "standing bids never close");
        assert!(
            worst <= open_fixed + SPAN as usize,
            "calendar held {worst} entries for {open_fixed} open fixed-work bids"
        );
        // The churn really restarted the book: a calendar keyed by due
        // slot would have grown far beyond the bound.
        assert!(
            restarts > 10 * (open_fixed + SPAN as usize),
            "only {restarts} restarts"
        );
    }

    /// The bucket lookup the boundary table replaced: a division estimate
    /// repaired against boundaries recomputed on every comparison.
    fn bucket_index_oracle(params: &MarketParams, p: f64) -> usize {
        let lo = params.pi_min.as_f64();
        let w = params.spread().as_f64() / BUCKETS as f64;
        let raw = (p - lo) / w;
        let mut i = if raw.is_finite() {
            if raw <= 0.0 {
                0
            } else {
                (raw as usize).min(BUCKETS - 1)
            }
        } else if raw == f64::INFINITY {
            BUCKETS - 1
        } else {
            0
        };
        while i > 0 && p < lo + i as f64 * w {
            i -= 1;
        }
        while i + 1 < BUCKETS && p >= lo + (i + 1) as f64 * w {
            i += 1;
        }
        i
    }

    #[test]
    fn boundary_table_lookup_matches_the_division_oracle() {
        // Several spreads, from a narrow band far from zero to a wide one
        // starting at zero; every boundary and its one-ulp neighbours,
        // random prices in and around the range, the specials.
        let spreads = [
            (0.35, 0.02),
            (1.0, 0.0),
            (0.0104, 0.0031),
            (3.7, 2.9),
            (1e6, 7.5),
            (0.5, 0.499_999_999),
        ];
        let mut g = Rng::seed_from_u64(0xB0_0D5);
        for (hi, lo) in spreads {
            let params = MarketParams::new(Price::new(hi), Price::new(lo), 0.05, 0.02).unwrap();
            let grid = BucketGrid::new(&params);
            let mut probes = vec![
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MAX,
                f64::MIN,
                0.0,
                -0.0,
                lo,
                hi,
                lo / 2.0,
                lo - 1.0,
                hi * 2.0,
                hi + 1e-9,
            ];
            for &b in grid.bounds.iter() {
                probes.extend([b, b.next_up(), b.next_down()]);
            }
            let spread = hi - lo;
            for _ in 0..20_000 {
                probes.push(g.range_f64(lo - spread, hi + spread));
            }
            for p in probes {
                assert_eq!(
                    grid.index(p),
                    bucket_index_oracle(&params, p),
                    "price {p:e} over [{lo}, {hi}]"
                );
            }
            // Each boundary opens its own bucket where the table is strict.
            for b in 1..BUCKETS {
                if grid.bounds[b - 1] < grid.bounds[b] {
                    assert_eq!(grid.index(grid.bounds[b]), b);
                    assert_eq!(grid.index(grid.bounds[b].next_down()), b - 1);
                }
            }
        }
    }

    impl SpotMarket {
        /// `(len, capacity)` of every bid column [`SpotMarket::reserve`]
        /// grows.
        fn column_shapes(&self) -> [(usize, usize); 5] {
            let shape = |len, cap| (len, cap);
            let b = &self.book;
            [
                shape(b.price_of.len(), b.price_of.capacity()),
                shape(b.flags.len(), b.flags.capacity()),
                shape(b.work.len(), b.work.capacity()),
                shape(b.run_of.len(), b.run_of.capacity()),
                shape(b.bucket_of.len(), b.bucket_of.capacity()),
            ]
        }
    }

    #[test]
    fn a_bid_holds_19_bytes_of_columns() {
        fn elem<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        let m = market();
        let b = &m.book;
        let per_bid = elem(&b.price_of)
            + elem(&b.flags)
            + elem(&b.work)
            + elem(&b.run_of)
            + elem(&b.bucket_of);
        assert_eq!(m.column_shapes().len(), 5, "a column left out here");
        assert_eq!(per_bid, 19);
        assert_eq!(std::mem::size_of::<Run>(), 32, "a launched bid's run entry");
    }

    impl SpotMarket {
        /// Starts a fresh market's clock, and its charge table, at slot
        /// `t`, for tests of late slots.
        fn start_at(&mut self, t: u64) {
            assert!(
                self.submitted() == 0 && self.now() == 0,
                "not a fresh market"
            );
            self.book.t = t;
            self.book.settlement.charges.first = t;
        }
    }

    /// A fast and a naive market over [`market`]'s parameters, both
    /// started at slot `u32::MAX - 6`: six slots before the last one a
    /// market may step.
    fn markets_near_the_slot_limit() -> (SpotMarket, naive::SpotMarket) {
        let (mut fast, mut slow) = (
            market(),
            naive::SpotMarket::new(*market().params(), Hours::from_minutes(5.0)),
        );
        let start = u64::from(u32::MAX) - 6;
        fast.start_at(start);
        slow.start_at(start);
        (fast, slow)
    }

    #[test]
    fn bids_near_the_slot_limit_read_back_as_the_naive_records() {
        // Bids launch, run, are interrupted by a demand surge, resume and
        // finish in the last six slots a market may step, so every slot a
        // record holds sits next to `u32::MAX`.
        let (mut fast, mut slow) = markets_near_the_slot_limit();
        let (mut ra, mut rb) = (Rng::seed_from_u64(36), Rng::seed_from_u64(36));
        let submit_both = |fast: &mut SpotMarket, slow: &mut naive::SpotMarket, r: BidRequest| {
            let id = fast.submit(r);
            assert_eq!(slow.submit(r), id);
            id
        };
        let victim = submit_both(&mut fast, &mut slow, bid(0.17, BidKind::Persistent, 4));
        submit_both(&mut fast, &mut slow, bid(0.35, BidKind::OneTime, 2));
        submit_both(&mut fast, &mut slow, bid(0.03, BidKind::Persistent, 2));
        submit_both(&mut fast, &mut slow, bid(0.02, BidKind::OneTime, 1));
        let geometric = BidRequest {
            work: WorkModel::Geometric,
            ..bid(0.3, BidKind::Persistent, 0)
        };
        submit_both(&mut fast, &mut slow, geometric);
        for slot in 0..6 {
            if slot == 1 {
                // A surge of two-slot bids lifts the price above the victim's.
                for _ in 0..400 {
                    submit_both(&mut fast, &mut slow, bid(0.34, BidKind::Persistent, 2));
                }
            }
            if slot == 5 {
                submit_both(&mut fast, &mut slow, bid(0.35, BidKind::OneTime, 1));
            }
            let (x, y) = (fast.step(&mut ra), slow.step(&mut rb));
            assert_eq!(x, y, "slot {}", x.t);
        }
        assert_eq!(fast.now(), u64::from(u32::MAX));
        let late = submit_both(&mut fast, &mut slow, bid(0.2, BidKind::Persistent, 1));
        let (records, oracle) = (fast.records(), slow.records());
        assert_eq!(records, oracle);
        let v = &records[victim.0 as usize];
        assert_eq!((v.interruptions, v.slots_run), (1, 4), "{v:?}");
        assert_eq!(v.closed_at, Some(u64::from(u32::MAX) - 1));
        assert_eq!(records[late.0 as usize].submitted_at, u64::from(u32::MAX));
        assert!(records
            .iter()
            .any(|r| r.phase == BidPhase::Running && r.slots_run > 0));
    }

    #[test]
    #[should_panic(expected = "slot index space exhausted")]
    fn a_step_past_the_slot_limit_panics() {
        let (mut fast, _) = markets_near_the_slot_limit();
        let mut rng = Rng::seed_from_u64(37);
        fast.submit(bid(0.35, BidKind::Persistent, 100));
        fast.run(6, &mut rng);
        assert_eq!(fast.now(), u64::from(u32::MAX));
        fast.step(&mut rng);
    }

    #[test]
    fn a_losing_one_time_bid_holds_no_run_entry() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(31);
        m.run(3, &mut rng);
        let id = m.submit(bid(0.02, BidKind::OneTime, 1));
        let rep = m.step(&mut rng);
        assert_eq!(rep.terminated, vec![id]);
        assert_eq!(m.book.run_of[id.0 as usize], NO_RUN);
        assert_eq!(m.book.settlement.runs.len(), 0);
        let rec = m.record(id).unwrap();
        assert_eq!(rec.phase, BidPhase::Terminated);
        assert_eq!(rec.submitted_at, 3);
        assert_eq!(rec.closed_at, Some(rec.submitted_at));
        assert_eq!((rec.slots_run, rec.interruptions), (0, 0));
        assert_eq!(rec.charged, Cost::ZERO);
    }

    #[test]
    fn an_outage_arrival_closes_at_its_re_auction() {
        // Submitted into a reclamation slot, the one-time bid parks and
        // loses its re-auction a slot later: it never launches, but its
        // record must show the later slot it closed in.
        let mut m = market();
        let mut rng = Rng::seed_from_u64(32);
        m.run(2, &mut rng);
        let id = m.submit(bid(0.02, BidKind::OneTime, 1));
        m.reclaim_next_slot();
        let outage = m.step(&mut rng);
        assert!(outage.terminated.is_empty());
        let rep = m.step(&mut rng);
        assert_eq!(rep.t, 3);
        assert_eq!(rep.terminated, vec![id]);
        assert_ne!(
            m.book.run_of[id.0 as usize], NO_RUN,
            "holds its closing slot"
        );
        let rec = m.record(id).unwrap();
        assert_eq!(rec.phase, BidPhase::Terminated);
        assert_eq!(rec.submitted_at, 2);
        assert_eq!(rec.closed_at, Some(3));
        assert_eq!((rec.slots_run, rec.interruptions), (0, 0));
        assert_eq!(rec.charged, Cost::ZERO);
    }

    #[test]
    fn a_pending_persistent_bid_holds_no_run_entry() {
        let mut m = market();
        let mut rng = Rng::seed_from_u64(33);
        let low = m.submit(bid(0.03, BidKind::Persistent, 5));
        let high = m.submit(bid(0.35, BidKind::Persistent, 1_000));
        for _ in 0..200 {
            let rep = m.step(&mut rng);
            assert!(!rep.started.contains(&low));
        }
        assert_eq!(m.book.run_of[low.0 as usize], NO_RUN);
        assert_eq!(
            m.book.settlement.runs.len(),
            1,
            "only the running bid holds an entry"
        );
        let rec = m.record(low).unwrap();
        assert_eq!(rec.phase, BidPhase::Pending);
        assert_eq!((rec.slots_run, rec.closed_at), (0, None));
        assert_eq!(m.record(high).unwrap().slots_run, 200);
    }

    #[test]
    fn a_closed_bid_keeps_its_record() {
        // Later launches push more entries and later slots settle other
        // bids; neither touches a closed bid's record.
        let mut m = market();
        let mut rng = Rng::seed_from_u64(34);
        let id = m.submit(bid(0.35, BidKind::OneTime, 3));
        let reps = m.run(3, &mut rng);
        assert_eq!(reps[2].finished, vec![id]);
        let rec = m.record(id).unwrap();
        assert_eq!(rec.closed_at, Some(2));
        assert_eq!(rec.slots_run, 3);
        for s in 0..40u32 {
            m.submit(bid(0.34, BidKind::Persistent, 1 + s % 4));
            m.submit(bid(0.2 + f64::from(s % 7) * 0.02, BidKind::OneTime, 2));
            m.step(&mut rng);
            assert_eq!(m.record(id).unwrap(), rec, "slot {}", m.now());
        }
        assert!(m.book.settlement.runs.len() > 40, "later bids launched");
    }

    /// The room a paged table holds: every page's capacity.
    fn paged_room<T>(table: &Paged<T>) -> usize {
        table.pages.iter().map(Vec::capacity).sum()
    }

    #[test]
    fn a_paged_table_reads_as_a_vec_across_page_boundaries() {
        let mut g = Rng::seed_from_u64(35);
        let mut paged = Paged::new();
        let mut flat = Vec::new();
        for i in 0..(3 * PAGE + 17) as u64 {
            paged.push(i);
            flat.push(i);
            assert_eq!(paged.len(), flat.len());
            // Writes land where a Vec's would, on either side of a page
            // boundary.
            let k = (g.next_u64() % flat.len() as u64) as usize;
            let v = g.next_u64();
            paged[k] = v;
            flat[k] = v;
        }
        for (k, &v) in flat.iter().enumerate() {
            assert_eq!(paged[k], v, "entry {k}");
        }
        let copy = paged.clone();
        assert_eq!(copy.len(), flat.len());
        assert_eq!(paged_room(&copy), paged_room(&paged));
        assert!((0..flat.len()).all(|k| copy[k] == flat[k]));
    }

    #[test]
    fn a_paged_table_holds_at_most_one_page_of_room() {
        let mut paged = Paged::new();
        assert_eq!(paged_room(&paged), 0);
        for n in 1..=(4 * PAGE + 1) {
            paged.push(FRESH_RUN);
            let room = paged_room(&paged);
            assert!(
                room >= n && room <= n + PAGE,
                "{n} entries in room for {room}"
            );
        }
        assert_eq!(paged.pages.len(), 5);
    }

    #[test]
    fn a_paged_entry_keeps_its_address_as_the_table_grows() {
        let mut paged = Paged::new();
        let mut at = Vec::new();
        for i in 0..(3 * PAGE + 5) {
            paged.push(i as u32);
            at.push(&paged[i] as *const u32);
        }
        for (i, &p) in at.iter().enumerate() {
            assert_eq!(&paged[i] as *const u32, p, "entry {i} moved");
        }
    }

    /// Every bid column of `m` holds at most `max(len + PAGE, len + len /
    /// 4)` rows, as many as the others.
    fn assert_snug(m: &SpotMarket) {
        let shapes = m.column_shapes();
        let (len, cap) = shapes[0];
        assert!(
            cap <= (len + PAGE).max(len + len / 4),
            "{cap} rows for {len} bids"
        );
        assert!(shapes.iter().all(|&s| s == (len, cap)), "{shapes:?}");
    }

    #[test]
    fn reserve_then_submit_matches_submit_only() {
        // Random waves into an unbounded and a finite market: reserving
        // before each wave changes no id, record or step report. A
        // reserve grows a column only when the wave does not fit, and
        // then to at most `max(len + n + PAGE, cap + cap / 4)`. Either
        // way the columns stay snug (`assert_snug`) after every wave, and
        // after every single submission into the market that reserves
        // nothing.
        let mut g = Rng::seed_from_u64(0x02E5_E2FE);
        for round in 0..12u64 {
            let fresh = || {
                if round % 2 == 0 {
                    market()
                } else {
                    finite_market(300, 40)
                }
            };
            let (mut plain, mut reserved) = (fresh(), fresh());
            let (mut ra, mut rb) = (Rng::seed_from_u64(round), Rng::seed_from_u64(round));
            for slot in 0..30 {
                let n = if slot == 0 {
                    500 + g.range_usize(3000)
                } else {
                    g.range_usize(60)
                };
                let before = reserved.column_shapes();
                reserved.reserve(n);
                for (k, (b, a)) in before.iter().zip(reserved.column_shapes()).enumerate() {
                    let grown = if b.1 - b.0 >= n {
                        b.1
                    } else {
                        (b.0 + n + PAGE).max(b.1 + b.1 / 4)
                    };
                    assert_eq!(a.0, b.0, "column {k}: reserve changed its length");
                    assert!(a.1 >= b.0 + n, "column {k}: {a:?} cannot hold {n} more");
                    assert!(
                        a.1 <= grown,
                        "column {k}: capacity {} beyond {grown} (was {})",
                        a.1,
                        b.1
                    );
                }
                for _ in 0..n {
                    let request = BidRequest {
                        price: Price::new(g.range_f64(0.02, 0.35)),
                        kind: if g.chance(0.5) {
                            BidKind::Persistent
                        } else {
                            BidKind::OneTime
                        },
                        work: if g.chance(0.3) {
                            WorkModel::Geometric
                        } else {
                            WorkModel::FixedSlots(1 + g.range_usize(8) as u32)
                        },
                    };
                    assert_eq!(plain.submitted(), reserved.submitted());
                    assert_eq!(plain.submit(request), reserved.submit(request));
                    assert_snug(&plain);
                }
                assert_snug(&reserved);
                let (x, y) = (plain.step(&mut ra), reserved.step(&mut rb));
                assert_eq!(x, y, "round {round}, slot {slot}");
            }
            assert_eq!(plain.records(), reserved.records(), "round {round}");
            assert_eq!(plain.provider_slots(), reserved.provider_slots());
        }
    }

    /// One of `pool`, or a fresh finite value.
    fn pick(g: &mut Rng, pool: &[f64]) -> f64 {
        let k = (g.next_u64() % (pool.len() as u64 + 1)) as usize;
        pool.get(k)
            .copied()
            .unwrap_or_else(|| g.range_f64(-1.0, 1.0) / 3.0)
    }

    fn bits(c: Cost) -> u64 {
        c.as_f64().to_bits()
    }

    /// `table.settle(..)` and whether it was a memo hit. A hit answers
    /// from the memo without reading the charges, so a copy of the table
    /// with its charges blanked still returns the sum.
    fn settle_observed(
        table: &mut ChargeTable,
        start: Cost,
        since: u64,
        end: u64,
        legs: &[usize],
    ) -> (Cost, bool) {
        let mut blank = table.clone();
        blank.amounts.fill(Cost::ZERO);
        let probe = blank.settle(start, since, end, legs.iter().copied());
        let refold = fold_charges(
            &blank.amounts,
            blank.markets,
            legs.iter().copied(),
            start,
            since,
            end,
        );
        let sum = table.settle(start, since, end, legs.iter().copied());
        (sum, bits(probe) == bits(sum) && bits(refold) != bits(sum))
    }

    #[test]
    fn settle_memo_matches_the_plain_fold_bit_for_bit() {
        // Random growing tables with NaN and ±∞ charges, cohorts of
        // repeated keys interleaved with one-off keys, ±0.0 starting
        // totals: every settlement has the plain left fold's bits.
        let specials = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let mut g = Rng::seed_from_u64(0xF01D_3E30);
        let mut hits = 0;
        for round in 0..40 {
            let stride = 1 + round % 3;
            let mut table = ChargeTable::new(stride);
            let mut cohorts: Vec<(Cost, u64, u64, Vec<usize>)> = Vec::new();
            for _ in 0..6 {
                // Grow the table, then query old and new ranges.
                for _ in 0..stride * (1 + (g.next_u64() % 60) as usize) {
                    let v = if g.chance(0.02) {
                        pick(&mut g, &specials)
                    } else {
                        g.range_f64(0.0, 0.4) / 3.0
                    };
                    table.push(Cost::new(v));
                }
                let slots = table.slots();
                for _ in 0..4 {
                    let since = g.next_u64() % (slots + 1);
                    let end = since + g.next_u64() % (slots - since + 1);
                    let n = 1 + (g.next_u64() % 4) as usize;
                    let legs = (0..n)
                        .map(|_| (g.next_u64() % stride as u64) as usize)
                        .collect();
                    cohorts.push((Cost::new(pick(&mut g, &specials)), since, end, legs));
                }
                for _ in 0..200 {
                    let (start, since, end, legs) = if g.chance(0.7) {
                        cohorts[(g.next_u64() % cohorts.len() as u64) as usize].clone()
                    } else {
                        let since = g.next_u64() % (slots + 1);
                        let legs = vec![(g.next_u64() % stride as u64) as usize];
                        (Cost::new(pick(&mut g, &specials)), since, slots, legs)
                    };
                    let plain = fold_charges(
                        &table.amounts,
                        stride,
                        legs.iter().copied(),
                        start,
                        since,
                        end,
                    );
                    let (sum, hit) = settle_observed(&mut table, start, since, end, &legs);
                    assert_eq!(
                        bits(sum),
                        bits(plain),
                        "round {round}: start {start:?} [{since}, {end}) legs {legs:?}"
                    );
                    hits += usize::from(hit);
                }
            }
        }
        assert!(hits > 1000, "only {hits} observable memo hits");
    }

    #[test]
    fn settle_memo_keys_sharing_an_entry_do_not_alias() {
        // For each key component, find two keys that differ only there and
        // map to the same entry, then alternate them: each must miss and
        // refold, never return the other's sum.
        let mut table = ChargeTable::new(1);
        for i in 0..400 {
            table.push(Cost::new(0.01 + (i as f64).sin().abs() / 7.0));
        }
        type Key = (Cost, u64, u64, Vec<usize>);
        let base: Key = (Cost::new(0.25), 10, 50, vec![0]);
        let slot = |(c, since, end, legs): &Key| {
            memo_slot(
                bits(*c),
                *since,
                *end,
                pack_legs(legs.iter().copied()).unwrap(),
            )
        };
        let variants: [&dyn Fn(u64) -> Key; 4] = [
            &|k| (Cost::new(0.25 + k as f64 / 64.0), 10, 50, vec![0]),
            &|k| (Cost::new(0.25), 10 + k, 50, vec![0]),
            &|k| (Cost::new(0.25), 10, 50 + k, vec![0]),
            &|k| (Cost::new(0.25), 10, 50, vec![0; 1 + k as usize % 8]),
        ];
        for (c, make) in variants.iter().enumerate() {
            let twin = (1..200)
                .map(make)
                .find(|key| slot(key) == slot(&base))
                .unwrap_or_else(|| panic!("component {c}: no key shares base's entry"));
            for _ in 0..3 {
                for (start, since, end, legs) in [&base, &twin] {
                    let plain = fold_charges(
                        &table.amounts,
                        1,
                        legs.iter().copied(),
                        *start,
                        *since,
                        *end,
                    );
                    let sum = table.settle(*start, *since, *end, legs.iter().copied());
                    assert_eq!(bits(sum), bits(plain), "component {c}");
                }
            }
        }
        // +0.0 and −0.0 starts over an empty range fold to themselves.
        for _ in 0..2 {
            for z in [0.0, -0.0] {
                let sum = table.settle(Cost::new(z), 7, 7, std::iter::once(0));
                assert_eq!(bits(sum), z.to_bits());
            }
        }
    }

    #[test]
    fn legs_pack_exactly_or_not_at_all() {
        let seq = [3, 0, 254, 3, 1, 1, 7, 2];
        let legs = pack_legs(seq).unwrap();
        assert_eq!(unpack_legs(legs).collect::<Vec<_>>(), seq);
        assert_eq!(pack_legs([0]), Some(1));
        assert_eq!(pack_legs([]), None);
        assert_eq!(pack_legs([255]), None);
        assert_eq!(pack_legs([0; 9]), None);
    }

    #[test]
    fn charge_table_settles_any_leg_sequence() {
        // Packable sequences go through the memo, longer ones through the
        // plain fold; both are the eager per-slot sums.
        let mut table = ChargeTable::new(3);
        for i in 0..90 {
            table.push(Cost::new(0.01 + (i as f64 * 0.7).cos().abs() / 9.0));
        }
        assert_eq!(table.slots(), 30);
        for legs in [vec![1], vec![2, 0, 1], vec![0; 8], vec![2; 9]] {
            for _ in 0..2 {
                let mut eager = Cost::new(0.5);
                for slot in 4..27 {
                    for &m in &legs {
                        eager += table.at(slot, m);
                    }
                }
                let lazy = table.settle(Cost::new(0.5), 4, 27, legs.iter().copied());
                assert_eq!(bits(lazy), bits(eager), "legs {legs:?}");
            }
        }
    }
}
