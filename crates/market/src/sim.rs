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
use crate::provider::{clearing_price, optimal_price, ProviderPolicy};
use crate::units::{Cost, Hours, Price};
use spotbid_numerics::rng::Rng;
use std::collections::BTreeMap;

pub mod naive;

/// The server pool behind a market (DESIGN.md §5i).
///
/// [`Supply::Unbounded`] is the paper's Eq. 3 setting — every accepted bid
/// gets an instance — and runs bit-identically to the historical path.
/// [`Supply::Finite`] models a provider with `capacity` servers shared
/// between the spot book and an on-demand pool: on-demand admissions
/// ([`SpotMarket::request_on_demand`]) reserve servers first, the spot
/// auction clears the remainder (the posted price is the *maximum* of the
/// Eq. 3 revenue price and [`clearing_price`] at the spot share, so slack
/// capacity reproduces Eq. 3 exactly), and when the winners outnumber the
/// spot share the provider reclaims the lowest-bid instances.
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

/// Folds a per-slot provider log into its cumulative report.
pub(crate) fn aggregate_provider(capacity: u32, log: &[ProviderSlot]) -> ProviderReport {
    let mut report = ProviderReport {
        capacity,
        slots: log.len() as u64,
        spot_revenue: Cost::ZERO,
        od_revenue: Cost::ZERO,
        reclaims: 0,
        fresh_evictions: 0,
        parked_restarts: 0,
        od_admissions: 0,
        od_rejections: 0,
        mean_utilization: 0.0,
        peak_price: Price::ZERO,
    };
    let mut busy = 0.0f64;
    for slot in log {
        report.spot_revenue += slot.spot_revenue;
        report.od_revenue += slot.od_revenue;
        report.reclaims += u64::from(slot.reclaims);
        report.fresh_evictions += u64::from(slot.fresh_evictions);
        report.parked_restarts += u64::from(slot.parked_restarts);
        report.od_admissions += u64::from(slot.od_admitted);
        report.od_rejections += u64::from(slot.od_rejected);
        busy += f64::from(slot.spot_running + slot.od_active);
        if slot.price > report.peak_price {
            report.peak_price = slot.price;
        }
    }
    if capacity > 0 && !log.is_empty() {
        report.mean_utilization = busy / (f64::from(capacity) * log.len() as f64);
    }
    report
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
/// Transient mark on a would-be starter evicted by the capacity pass
/// (cleared while filtering the start set the same slot).
const F_EVICT: u8 = 1 << 5;

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
/// the cutoff bucket `B`; only the candidates in buckets `≤ B` are
/// gathered and partitioned around position `k`. That is exact because
/// `bucket_of` is monotone in price (equal prices share a bucket), so
/// every candidate above `B` orders after all `k` of the gathered
/// smallest. NaN prices, which bucket to 0 but order last, never run
/// (`NaN >= pf` is false), so they are never candidates.
///
/// `counts` is per-bucket scratch: sized to `buckets` on first use and
/// left all-zero on return.
fn select_victims(
    buckets: &[Bucket],
    starters: &[u32],
    price_of: &[f64],
    bucket_of: &[u32],
    k: usize,
    counts: &mut Vec<u32>,
    out: &mut Vec<u32>,
) {
    debug_assert!(k > 0);
    counts.resize(buckets.len(), 0);
    for &i in starters {
        counts[bucket_of[i as usize] as usize] += 1;
    }
    let mut total = 0usize;
    let mut cutoff = buckets.len() - 1;
    for (b, bucket) in buckets.iter().enumerate() {
        total += bucket.running.len() + counts[b] as usize;
        if total >= k {
            cutoff = b;
            break;
        }
    }
    debug_assert!(total >= k, "fewer candidates than victims");
    counts.fill(0);

    out.clear();
    for bucket in &buckets[..=cutoff] {
        out.extend_from_slice(&bucket.running);
    }
    out.extend(
        starters
            .iter()
            .filter(|&&i| bucket_of[i as usize] as usize <= cutoff),
    );
    if k < out.len() {
        out.select_nth_unstable_by(k, |&a, &b| {
            victim_order(
                price_of[a as usize],
                u64::from(a),
                price_of[b as usize],
                u64::from(b),
            )
        });
        out.truncate(k);
    }
    out.sort_unstable();
}

/// Grows `v` to hold `n` more elements at the power-of-two capacity that
/// pushing them one by one would double it to; never shrinks it.
pub fn reserve_pow2<T>(v: &mut Vec<T>, n: usize) {
    let target = (v.len() + n).next_power_of_two();
    if v.capacity() < target {
        v.reserve_exact(target - v.len());
    }
}

/// A discrete-time spot market with endogenous prices, stored as a
/// price-indexed bid-book.
///
/// Drop-in successor of [`naive::SpotMarket`] with the same per-slot
/// semantics and bit-identical output. The differences are operational:
///
/// - [`step`](Self::step) costs O(events + boundary-bucket + running
///   geometric bids) instead of O(open bids);
/// - charges accrue lazily, so [`record`](Self::record) and
///   [`records`](Self::records) take `&mut self` (they settle the accrual
///   before returning);
/// - [`step_into`](Self::step_into)/[`recycle`](Self::recycle) let a
///   driving loop reuse `SlotReport` buffers arena-style.
#[derive(Debug, Clone)]
pub struct SpotMarket {
    params: MarketParams,
    slot_len: Hours,
    t: u64,
    records: Vec<BidRecord>,

    // ---- struct-of-arrays hot columns, parallel to `records` ----
    /// Bid price as a raw f64 (the per-bid accept/reject operand).
    price_of: Vec<f64>,
    /// `F_*` state bits.
    flags: Vec<u8>,
    /// First slot of the current running streak (valid while running);
    /// charges for `[run_since, now)` are accrued but not yet settled.
    run_since: Vec<u64>,
    /// Scheduled finish slot (valid while a fixed-work bid is running).
    due: Vec<u64>,
    /// The bid's price bucket.
    bucket_of: Vec<u32>,
    /// Position within its current bucket list (pending or running).
    pos_of: Vec<u32>,

    // ---- the book ----
    buckets: Vec<Bucket>,
    bucket_lo: f64,
    bucket_w: f64,
    /// Bids submitted since the last step, in id order; they face their
    /// first auction individually before joining the bucket lists.
    incoming: Vec<u32>,
    /// Incrementally-maintained demand `L(t)` (open bids).
    open_count: usize,
    /// Last posted price (`+∞` before the first step, when no residents
    /// exist); crossings `[min(prev,new), max(prev,new))` bound the
    /// buckets a slot must visit.
    prev_price: f64,
    /// `price_t × slot_len` for every completed slot: the replay table
    /// that settles lazy charges in the same order, with the same
    /// floating-point operands, as the naive per-slot accrual.
    slot_charge: Vec<Cost>,
    /// Running geometric bids, ascending by id — the per-slot RNG draw
    /// order (one `chance(θ)` each, matching the naive submission-order
    /// scan).
    geo_run: Vec<u32>,
    /// Fixed-work finish calendar: slot → bids scheduled to finish then.
    /// Entries go stale when a bid is interrupted first; the pop
    /// re-validates against `due`.
    calendar: BTreeMap<u64, Vec<u32>>,
    /// Open bids displaced by a capacity reclamation (plus arrivals during
    /// one): they are exempt from the resident price invariants, so they
    /// sit outside the bucket lists and face an individual first-auction
    /// pass on the next normal slot.
    parked: Vec<u32>,
    /// Bids currently running — the summed length of the bucket running
    /// lists between steps. Lets the finite-supply capacity pass skip its
    /// victim selection when the carried runners plus this slot's winners
    /// already fit under the spot share.
    running_count: u32,
    /// The next step is a capacity reclamation (set by
    /// [`reclaim_next_slot`](Self::reclaim_next_slot)).
    reclaim_next: bool,

    // ---- finite-supply provider state (inert under `Unbounded`) ----
    /// The server pool behind the market.
    supply: Supply,
    /// Currently admitted on-demand instances.
    od_active: u32,
    /// On-demand admissions since the last step (folded into the next
    /// [`ProviderSlot`]).
    od_admit_pending: u32,
    /// On-demand rejections since the last step.
    od_reject_pending: u32,
    /// Per-slot provider accounting (finite supply only).
    provider_log: Vec<ProviderSlot>,

    // ---- arenas ----
    sc_started: Vec<u32>,
    /// The capacity pass's victims (see [`select_victims`]).
    sc_victims: Vec<u32>,
    /// Per-bucket starter counts for [`select_victims`]: `BUCKETS` zeros
    /// between uses, allocated by the first capacity pass that evicts.
    sc_bucket_count: Vec<u32>,
    sc_rejected: Vec<u32>,
    sc_geo_in: Vec<u32>,
    sc_geo_next: Vec<u32>,
    sc_fin_geo: Vec<u32>,
    sc_fin_fixed: Vec<u32>,
    sc_sync: Vec<u32>,
    /// Parked bids that won their individual re-auction this slot (phase
    /// 1b), pending the capacity pass: survivors count as
    /// [`ProviderSlot::parked_restarts`].
    sc_parked_started: Vec<u32>,
    cal_pool: Vec<Vec<u32>>,
    report_pool: Vec<Vec<BidId>>,
}

impl SpotMarket {
    /// Creates an empty market with unbounded supply (the historical
    /// default).
    pub fn new(params: MarketParams, slot_len: Hours) -> Self {
        Self::with_supply(params, slot_len, Supply::Unbounded)
    }

    /// Creates an empty market backed by the given [`Supply`].
    pub fn with_supply(params: MarketParams, slot_len: Hours, supply: Supply) -> Self {
        let spread = params.spread().as_f64();
        SpotMarket {
            params,
            slot_len,
            t: 0,
            records: Vec::new(),
            price_of: Vec::new(),
            flags: Vec::new(),
            run_since: Vec::new(),
            due: Vec::new(),
            bucket_of: Vec::new(),
            pos_of: Vec::new(),
            buckets: vec![Bucket::default(); BUCKETS],
            bucket_lo: params.pi_min.as_f64(),
            bucket_w: spread / BUCKETS as f64,
            incoming: Vec::new(),
            open_count: 0,
            prev_price: f64::INFINITY,
            slot_charge: Vec::new(),
            geo_run: Vec::new(),
            calendar: BTreeMap::new(),
            parked: Vec::new(),
            running_count: 0,
            reclaim_next: false,
            supply,
            od_active: 0,
            od_admit_pending: 0,
            od_reject_pending: 0,
            provider_log: Vec::new(),
            sc_started: Vec::new(),
            sc_victims: Vec::new(),
            sc_bucket_count: Vec::new(),
            sc_rejected: Vec::new(),
            sc_geo_in: Vec::new(),
            sc_geo_next: Vec::new(),
            sc_fin_geo: Vec::new(),
            sc_fin_fixed: Vec::new(),
            sc_sync: Vec::new(),
            sc_parked_started: Vec::new(),
            cal_pool: Vec::new(),
            report_pool: Vec::new(),
        }
    }

    /// The market parameters.
    pub fn params(&self) -> &MarketParams {
        &self.params
    }

    /// Current slot index (number of completed steps).
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Bids submitted so far: the next [`submit`](Self::submit) returns
    /// `BidId(submitted())`.
    pub fn submitted(&self) -> usize {
        self.records.len()
    }

    /// Makes room in every bid column for `n` more submissions at once,
    /// so a submission wave grows each column once instead of doubling it
    /// step by step. Each column grows to `(len + n).next_power_of_two()`,
    /// the capacity doubling would reach anyway; an exact fit would leave
    /// the next single submission to double the whole column. Behaviour
    /// is unchanged: ids, records and reports are the same with or without
    /// it.
    pub fn reserve(&mut self, n: usize) {
        reserve_pow2(&mut self.records, n);
        reserve_pow2(&mut self.price_of, n);
        reserve_pow2(&mut self.flags, n);
        reserve_pow2(&mut self.run_since, n);
        reserve_pow2(&mut self.due, n);
        reserve_pow2(&mut self.bucket_of, n);
        reserve_pow2(&mut self.pos_of, n);
        reserve_pow2(&mut self.incoming, n);
    }

    /// Submits a bid; it competes from the next [`step`](Self::step) on.
    pub fn submit(&mut self, request: BidRequest) -> BidId {
        assert!(
            self.records.len() < u32::MAX as usize,
            "bid-book index space exhausted"
        );
        let id = BidId(self.records.len() as u64);
        self.records.push(BidRecord {
            id,
            request,
            phase: BidPhase::Pending,
            submitted_at: self.t,
            slots_run: 0,
            charged: Cost::ZERO,
            interruptions: 0,
            closed_at: None,
        });
        let idx = (self.records.len() - 1) as u32;
        let mut flags = F_OPEN;
        if request.kind == BidKind::Persistent {
            flags |= F_PERSISTENT;
        }
        if request.work == WorkModel::Geometric {
            flags |= F_GEOMETRIC;
        }
        self.price_of.push(request.price.as_f64());
        self.flags.push(flags);
        self.run_since.push(0);
        self.due.push(0);
        self.bucket_of
            .push(self.bucket_index(request.price.as_f64()) as u32);
        self.pos_of.push(0);
        self.incoming.push(idx);
        self.open_count += 1;
        id
    }

    /// Read access to a bid's record.
    ///
    /// Settles the bid's lazily-accrued charges first (hence `&mut`); the
    /// returned record is exactly what the naive implementation would
    /// show.
    pub fn record(&mut self, id: BidId) -> Option<&BidRecord> {
        let i = id.0 as usize;
        if i >= self.records.len() {
            return None;
        }
        self.sync_one(i);
        Some(&self.records[i])
    }

    /// All bid records (submitted order), with every running bid's lazy
    /// charge accrual settled.
    pub fn records(&mut self) -> &[BidRecord] {
        let mut pending = std::mem::take(&mut self.sc_sync);
        pending.clear();
        for b in &self.buckets {
            pending.extend_from_slice(&b.running);
        }
        for &i in &pending {
            self.sync_one(i as usize);
        }
        self.sc_sync = pending;
        &self.records
    }

    /// Number of bids still pending or running.
    pub fn open_bids(&self) -> usize {
        self.open_count
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

    /// The server pool behind this market.
    pub fn supply(&self) -> Supply {
        self.supply
    }

    /// Currently admitted on-demand instances (0 under unbounded supply).
    pub fn od_active(&self) -> u32 {
        self.od_active
    }

    /// Servers the spot book will clear against next slot, or `None` under
    /// unbounded supply.
    pub fn spot_capacity(&self) -> Option<u32> {
        match self.supply {
            Supply::Unbounded => None,
            Supply::Finite { capacity, policy } => {
                Some(policy.spot_capacity(capacity, self.od_active))
            }
        }
    }

    /// Requests `n` on-demand instances from the pool, returning how many
    /// were admitted. Admissions take effect immediately: the next slot's
    /// spot share shrinks by what the policy charges against it, and a
    /// [`Supply::Finite`] market bills each active instance `π̄ × slot_len`
    /// per slot in its [`ProviderSlot`] log. Unbounded supply admits
    /// everything and records nothing.
    pub fn request_on_demand(&mut self, n: u32) -> u32 {
        match self.supply {
            Supply::Unbounded => n,
            Supply::Finite { capacity, policy } => {
                let limit = policy.od_limit(capacity);
                let admitted = n.min(limit.saturating_sub(self.od_active));
                self.od_active += admitted;
                self.od_admit_pending += admitted;
                self.od_reject_pending += n - admitted;
                admitted
            }
        }
    }

    /// Releases `n` active on-demand instances back to the pool
    /// (saturating; a no-op under unbounded supply).
    pub fn release_on_demand(&mut self, n: u32) {
        self.od_active = self.od_active.saturating_sub(n);
    }

    /// The per-slot provider accounting log (empty under unbounded
    /// supply).
    pub fn provider_slots(&self) -> &[ProviderSlot] {
        &self.provider_log
    }

    /// Cumulative provider accounting, or `None` under unbounded supply.
    pub fn provider_report(&self) -> Option<ProviderReport> {
        match self.supply {
            Supply::Unbounded => None,
            Supply::Finite { capacity, .. } => {
                Some(aggregate_provider(capacity, &self.provider_log))
            }
        }
    }

    /// Advances one slot: runs the auction, interrupts/launches instances,
    /// progresses work, and charges running bids.
    pub fn step(&mut self, rng: &mut Rng) -> SlotReport {
        let mut report = self.fresh_report();
        self.step_into(rng, &mut report);
        report
    }

    /// As [`step`](Self::step), but filling a caller-provided report whose
    /// event buffers are reused (arena-style). Pair with
    /// [`recycle`](Self::recycle) to step a long-lived market without
    /// per-slot allocation.
    pub fn step_into(&mut self, rng: &mut Rng, report: &mut SlotReport) {
        let t = self.t;
        report.t = t;
        report.demand = self.open_count;
        report.started.clear();
        report.interrupted.clear();
        report.finished.clear();
        report.terminated.clear();
        report.evicted.clear();

        let price = match self.supply {
            Supply::Unbounded => optimal_price(&self.params, self.open_count as f64),
            Supply::Finite { capacity, policy } => {
                // The spot share clears via the capacity price when it
                // binds; slack capacity reproduces Eq. 3 exactly (`max`
                // returns the revenue price's own float).
                let cap = policy.spot_capacity(capacity, self.od_active);
                let revenue = optimal_price(&self.params, self.open_count as f64);
                let clearing = clearing_price(&self.params, self.open_count as f64, f64::from(cap));
                if clearing > revenue {
                    clearing
                } else {
                    revenue
                }
            }
        };
        report.price = price;
        let pf = price.as_f64();
        debug_assert_eq!(self.slot_charge.len() as u64, t);
        self.slot_charge.push(price * self.slot_len);

        let mut started = std::mem::take(&mut self.sc_started);
        let mut rejected = std::mem::take(&mut self.sc_rejected);
        let mut geo_in = std::mem::take(&mut self.sc_geo_in);
        started.clear();
        rejected.clear();
        geo_in.clear();

        // 1. Crossing scan over the resident book. Residents obey the
        // price invariants w.r.t. the previous posted price `pp`, so the
        // only state changes live in buckets overlapping
        // [min(pp, pf), max(pp, pf)); buckets strictly inside the interval
        // flip wholesale, the boundary bucket is compared per bid.
        //
        // A reclamation slot replaces the scan: every running bid is
        // rejected regardless of price, and the pending residents a price
        // fall would have started are parked instead (they must wait the
        // outage out, but price < pf breaks the pending invariant, so they
        // leave the bucket lists until their individual auction next slot).
        let pp = self.prev_price;
        let reclaiming = std::mem::take(&mut self.reclaim_next);
        if reclaiming {
            for bucket in &mut self.buckets {
                rejected.extend_from_slice(&bucket.running);
                bucket.running.clear();
            }
            if pf < pp {
                let k_lo = self.bucket_index(pf);
                let k_hi = self.bucket_index(pp);
                for b in k_lo..=k_hi {
                    let mut list = std::mem::take(&mut self.buckets[b].pending);
                    if b > k_lo {
                        self.parked.extend_from_slice(&list);
                        list.clear();
                    } else {
                        let mut w = 0usize;
                        for r in 0..list.len() {
                            let i = list[r];
                            if self.price_of[i as usize] >= pf {
                                self.parked.push(i);
                            } else {
                                self.pos_of[i as usize] = w as u32;
                                list[w] = i;
                                w += 1;
                            }
                        }
                        list.truncate(w);
                    }
                    self.buckets[b].pending = list;
                }
            }
        } else if pf > pp {
            // Price rose: running bids in [pp, pf) are outbid.
            let k_lo = self.bucket_index(pp);
            let k_hi = self.bucket_index(pf);
            for b in k_lo..=k_hi {
                let mut list = std::mem::take(&mut self.buckets[b].running);
                if b < k_hi {
                    rejected.extend_from_slice(&list);
                    list.clear();
                } else {
                    let mut w = 0usize;
                    for r in 0..list.len() {
                        let i = list[r];
                        if self.price_of[i as usize] >= pf {
                            self.pos_of[i as usize] = w as u32;
                            list[w] = i;
                            w += 1;
                        } else {
                            rejected.push(i);
                        }
                    }
                    list.truncate(w);
                }
                self.buckets[b].running = list;
            }
        } else if pf < pp {
            // Price fell: pending bids in [pf, pp) win their auction.
            // (`pp` is +∞ only before the first step, when every bucket is
            // empty — the scan is then a no-op walk.)
            let k_lo = self.bucket_index(pf);
            let k_hi = self.bucket_index(pp);
            for b in k_lo..=k_hi {
                let mut list = std::mem::take(&mut self.buckets[b].pending);
                if b > k_lo {
                    started.extend_from_slice(&list);
                    list.clear();
                } else {
                    let mut w = 0usize;
                    for r in 0..list.len() {
                        let i = list[r];
                        if self.price_of[i as usize] >= pf {
                            started.push(i);
                        } else {
                            self.pos_of[i as usize] = w as u32;
                            list[w] = i;
                            w += 1;
                        }
                    }
                    list.truncate(w);
                }
                self.buckets[b].pending = list;
            }
        }

        // 1b. Individual auctions for parked bids — non-empty only on the
        // first normal slot after a reclamation (or, under finite supply,
        // after a capacity eviction). After a reclamation the running book
        // is empty, so `rejected` is empty here and the report's terminated
        // order stays globally id-sorted: parked ids (pushed now,
        // ascending) all precede this slot's incoming ids. Under finite
        // supply `rejected` can be non-empty — capacity eviction only
        // parks persistent bids (which emit nothing here), and the repair
        // sort in phase 3b restores id order whenever it runs.
        self.sc_parked_started.clear();
        if !reclaiming && !self.parked.is_empty() {
            debug_assert!(rejected.is_empty() || self.supply != Supply::Unbounded);
            let mut parked = std::mem::take(&mut self.parked);
            parked.sort_unstable();
            for &i in &parked {
                let iu = i as usize;
                self.flags[iu] |= F_RESIDENT;
                if self.price_of[iu] >= pf {
                    started.push(i);
                    self.sc_parked_started.push(i);
                } else if self.flags[iu] & F_PERSISTENT != 0 {
                    let b = self.bucket_of[iu] as usize;
                    self.pos_of[iu] = self.buckets[b].pending.len() as u32;
                    self.buckets[b].pending.push(i);
                } else {
                    let rec = &mut self.records[iu];
                    rec.phase = BidPhase::Terminated;
                    rec.closed_at = Some(t);
                    report.terminated.push(rec.id);
                    self.flags[iu] &= !F_OPEN;
                    self.open_count -= 1;
                }
            }
            parked.clear();
            self.parked = parked;
        }
        started.sort_unstable();
        rejected.sort_unstable();

        // 2. Outbid running residents: interruption for all, exit for
        // one-time. Report order is id order — and resident ids all
        // precede incoming ids, so the per-category appends below stay
        // sorted.
        for &i in &rejected {
            let iu = i as usize;
            self.flags[iu] &= !F_RUNNING;
            self.running_count -= 1;
            debug_assert!(t > 0, "no residents can exist before the first step");
            self.settle(iu, t - 1);
            let persistent = self.flags[iu] & F_PERSISTENT != 0;
            let rec = &mut self.records[iu];
            rec.interruptions += 1;
            report.interrupted.push(rec.id);
            if persistent {
                rec.phase = BidPhase::Pending;
                if reclaiming {
                    // Re-pended by the outage; its price may be ≥ pf, so it
                    // waits outside the buckets for its re-auction.
                    self.parked.push(i);
                } else {
                    let b = self.bucket_of[iu] as usize;
                    self.pos_of[iu] = self.buckets[b].pending.len() as u32;
                    self.buckets[b].pending.push(i);
                }
            } else {
                rec.phase = BidPhase::Terminated;
                rec.closed_at = Some(t);
                report.terminated.push(rec.id);
                self.flags[iu] &= !F_OPEN;
                self.open_count -= 1;
            }
        }

        // 3. First auction for bids submitted since the last step, in id
        // order. Winners join the start set; persistent losers become
        // pending residents; one-time losers exit immediately. During a
        // reclamation there is no auction to face: arrivals park and wait.
        let incoming = std::mem::take(&mut self.incoming);
        if reclaiming {
            self.parked.extend_from_slice(&incoming);
        } else {
            for &i in &incoming {
                let iu = i as usize;
                self.flags[iu] |= F_RESIDENT;
                if self.price_of[iu] >= pf {
                    started.push(i);
                } else if self.flags[iu] & F_PERSISTENT != 0 {
                    let b = self.bucket_of[iu] as usize;
                    self.pos_of[iu] = self.buckets[b].pending.len() as u32;
                    self.buckets[b].pending.push(i);
                } else {
                    let rec = &mut self.records[iu];
                    rec.phase = BidPhase::Terminated;
                    rec.closed_at = Some(t);
                    report.terminated.push(rec.id);
                    self.flags[iu] &= !F_OPEN;
                    self.open_count -= 1;
                }
            }
        }
        self.incoming = incoming;
        self.incoming.clear();

        // 3b. Capacity enforcement (finite supply only): if the carried
        // runners plus this slot's winners exceed the spot share, the
        // provider reclaims the excess — lowest bid first, newest first
        // among equal bids (`victim_order`, the §5i reclaim contract).
        // Carried victims are interrupted like a price crossing (settled
        // through the previous slot, persistent ones park for an
        // individual re-auction, one-time ones exit); would-be starters
        // are returned unlaunched (no start event — persistent park,
        // one-time exit). `select_victims` hands the victims over in id
        // order: which bids go is fixed by `victim_order`, and nothing the
        // pass writes depends on the order it visits them in (bucket-list
        // positions are internal, `parked` is sorted before use). So
        // `evicted` comes out id-sorted, and `interrupted`/`terminated`
        // only need their two sorted runs merged.
        if let Supply::Finite { capacity, policy } = self.supply {
            let spot_cap = policy.spot_capacity(capacity, self.od_active);
            // When the carried runners plus this slot's winners already
            // fit under the spot share no eviction is possible and the
            // victim selection is skipped, keeping quiet finite-supply
            // slots O(1) like their unbounded counterparts. An outage slot
            // has no candidates at all: step 1 dumped every runner and
            // step 2 settled them, so `running_count` is 0 and the auction
            // never ran (`started` is empty).
            let carried = self.running_count as usize + started.len();
            debug_assert!(!reclaiming || carried == 0);
            let spot_running = carried.min(spot_cap as usize) as u32;
            let mut reclaims = 0u32;
            let mut fresh_evictions = 0u32;
            if carried > spot_cap as usize {
                let mut victims = std::mem::take(&mut self.sc_victims);
                select_victims(
                    &self.buckets,
                    &started,
                    &self.price_of,
                    &self.bucket_of,
                    carried - spot_cap as usize,
                    &mut self.sc_bucket_count,
                    &mut victims,
                );
                for &i in &victims {
                    let iu = i as usize;
                    report.evicted.push(self.records[iu].id);
                    if self.flags[iu] & F_RUNNING != 0 {
                        // A running instance reclaimed for the pool.
                        reclaims += 1;
                        self.remove_running(i);
                        self.flags[iu] &= !F_RUNNING;
                        self.running_count -= 1;
                        self.settle(iu, t - 1);
                        let persistent = self.flags[iu] & F_PERSISTENT != 0;
                        let rec = &mut self.records[iu];
                        rec.interruptions += 1;
                        report.interrupted.push(rec.id);
                        if persistent {
                            rec.phase = BidPhase::Pending;
                            self.parked.push(i);
                        } else {
                            rec.phase = BidPhase::Terminated;
                            rec.closed_at = Some(t);
                            report.terminated.push(rec.id);
                            self.flags[iu] &= !F_OPEN;
                            self.open_count -= 1;
                        }
                    } else {
                        // A would-be starter: never launched this slot.
                        fresh_evictions += 1;
                        self.flags[iu] |= F_EVICT;
                        if self.flags[iu] & F_PERSISTENT != 0 {
                            self.parked.push(i);
                        } else {
                            let rec = &mut self.records[iu];
                            rec.phase = BidPhase::Terminated;
                            rec.closed_at = Some(t);
                            report.terminated.push(rec.id);
                            self.flags[iu] &= !F_OPEN;
                            self.open_count -= 1;
                        }
                    }
                }
                let mut w = 0usize;
                for r in 0..started.len() {
                    let i = started[r];
                    if self.flags[i as usize] & F_EVICT != 0 {
                        self.flags[i as usize] &= !F_EVICT;
                    } else {
                        started[w] = i;
                        w += 1;
                    }
                }
                started.truncate(w);
                report.interrupted.sort_unstable();
                report.terminated.sort_unstable();
                debug_assert!(report.evicted.windows(2).all(|w| w[0] < w[1]));
                self.sc_victims = victims;
            }
            let parked_restarts = self
                .sc_parked_started
                .iter()
                .filter(|&&i| started.binary_search(&i).is_ok())
                .count() as u32;
            let spot_revenue = (price * self.slot_len) * f64::from(spot_running);
            let od_revenue = (self.params.pi_bar * self.slot_len) * f64::from(self.od_active);
            self.provider_log.push(ProviderSlot {
                t,
                price,
                spot_capacity: spot_cap,
                spot_running,
                od_active: self.od_active,
                reclaims,
                fresh_evictions,
                parked_restarts,
                od_admitted: std::mem::take(&mut self.od_admit_pending),
                od_rejected: std::mem::take(&mut self.od_reject_pending),
                spot_revenue,
                od_revenue,
            });
        }

        // 4. Launch the slot's winners: start the running streak, schedule
        // fixed-work finishes on the calendar, enroll geometric bids for
        // the draw pass.
        self.running_count += started.len() as u32;
        for &i in &started {
            let iu = i as usize;
            self.flags[iu] |= F_RUNNING;
            self.run_since[iu] = t;
            let b = self.bucket_of[iu] as usize;
            self.pos_of[iu] = self.buckets[b].running.len() as u32;
            self.buckets[b].running.push(i);
            self.records[iu].phase = BidPhase::Running;
            report.started.push(self.records[iu].id);
            if self.flags[iu] & F_GEOMETRIC != 0 {
                geo_in.push(i);
            } else {
                let WorkModel::FixedSlots(n) = self.records[iu].request.work else {
                    unreachable!()
                };
                // Settled at (re)start, so `slots_run` is exact here; a
                // zero-slot request still occupies (and is charged for)
                // the slot it is accepted in, matching the naive rule
                // `slots_run >= n` checked after the increment.
                let rem = n.saturating_sub(self.records[iu].slots_run);
                let due = t + u64::from(rem.saturating_sub(1));
                self.due[iu] = due;
                let slot_list = self
                    .calendar
                    .entry(due)
                    .or_insert_with(|| self.cal_pool.pop().unwrap_or_default());
                slot_list.push(i);
            }
        }

        // 5. Geometric draw pass: one `chance(θ)` per accepted geometric
        // bid, ascending by id — bit-identical to the naive submission-
        // order scan. `geo_run` carries last slot's survivors (entries
        // interrupted or terminated above are skipped and dropped);
        // `geo_in` carries this slot's starts; both are sorted and
        // disjoint, so a linear merge preserves the global draw order.
        let mut gr = std::mem::take(&mut self.geo_run);
        let mut gnext = std::mem::take(&mut self.sc_geo_next);
        let mut fin_geo = std::mem::take(&mut self.sc_fin_geo);
        gnext.clear();
        fin_geo.clear();
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            let from_old = match (gr.get(a), geo_in.get(b)) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(&x), Some(&y)) => x < y,
            };
            let i = if from_old {
                let i = gr[a];
                a += 1;
                if self.flags[i as usize] & F_RUNNING == 0 {
                    continue; // went stale this slot (interrupted/terminated)
                }
                i
            } else {
                let i = geo_in[b];
                b += 1;
                i
            };
            let iu = i as usize;
            if rng.chance(self.params.theta) {
                self.settle(iu, t);
                let rec = &mut self.records[iu];
                rec.phase = BidPhase::Finished;
                rec.closed_at = Some(t);
                fin_geo.push(i);
                self.flags[iu] &= !(F_RUNNING | F_OPEN);
                self.running_count -= 1;
                self.remove_running(i);
                self.open_count -= 1;
            } else {
                gnext.push(i);
            }
        }
        self.geo_run = gnext;
        gr.clear();
        self.sc_geo_next = gr;

        // 6. Calendar pop: fixed-work bids whose streak reaches its work
        // requirement this slot. Entries are validated against `due` and
        // the running flag, so interruptions (which reschedule on restart)
        // leave only harmless stale entries behind.
        let mut fin_fixed = std::mem::take(&mut self.sc_fin_fixed);
        fin_fixed.clear();
        if let Some(mut due_list) = self.calendar.remove(&t) {
            for &i in &due_list {
                let iu = i as usize;
                if self.flags[iu] & F_RUNNING != 0 && self.due[iu] == t {
                    fin_fixed.push(i);
                }
            }
            due_list.clear();
            self.cal_pool.push(due_list);
            fin_fixed.sort_unstable();
            for &i in &fin_fixed {
                let iu = i as usize;
                self.settle(iu, t);
                let rec = &mut self.records[iu];
                debug_assert!(matches!(
                    rec.request.work,
                    WorkModel::FixedSlots(n) if rec.slots_run >= n
                ));
                rec.phase = BidPhase::Finished;
                rec.closed_at = Some(t);
                self.flags[iu] &= !(F_RUNNING | F_OPEN);
                self.running_count -= 1;
                self.remove_running(i);
                self.open_count -= 1;
            }
        }

        // 7. Finished = id-merge of the geometric and fixed finish sets.
        let (mut a, mut b) = (0usize, 0usize);
        loop {
            let from_geo = match (fin_geo.get(a), fin_fixed.get(b)) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some(&x), Some(&y)) => x < y,
            };
            let i = if from_geo {
                a += 1;
                fin_geo[a - 1]
            } else {
                b += 1;
                fin_fixed[b - 1]
            };
            report.finished.push(self.records[i as usize].id);
        }

        self.sc_started = started;
        self.sc_rejected = rejected;
        self.sc_geo_in = geo_in;
        self.sc_fin_geo = fin_geo;
        self.sc_fin_fixed = fin_fixed;
        self.prev_price = pf;
        self.t += 1;
    }

    /// Runs `n` slots, returning every report.
    pub fn run(&mut self, n: usize, rng: &mut Rng) -> Vec<SlotReport> {
        (0..n).map(|_| self.step(rng)).collect()
    }

    /// Returns a consumed report's event buffers to the arena so the next
    /// [`step`](Self::step)/[`step_into`](Self::step_into) reuses them.
    pub fn recycle(&mut self, report: SlotReport) {
        let SlotReport {
            mut started,
            mut interrupted,
            mut finished,
            mut terminated,
            mut evicted,
            ..
        } = report;
        started.clear();
        interrupted.clear();
        finished.clear();
        terminated.clear();
        evicted.clear();
        self.report_pool.push(started);
        self.report_pool.push(interrupted);
        self.report_pool.push(finished);
        self.report_pool.push(terminated);
        self.report_pool.push(evicted);
    }

    fn fresh_report(&mut self) -> SlotReport {
        let mut take = || self.report_pool.pop().unwrap_or_default();
        let started = take();
        let interrupted = take();
        let finished = take();
        let terminated = take();
        let evicted = take();
        SlotReport {
            t: 0,
            demand: 0,
            price: Price::ZERO,
            started,
            interrupted,
            finished,
            terminated,
            evicted,
        }
    }

    /// The bucket whose exact range `[lo(b), lo(b+1))` contains `p`
    /// (bucket 0 is open below, bucket `BUCKETS-1` open above; NaN maps to
    /// bucket 0). The float division is repaired against the index-derived
    /// boundaries, so wholesale bucket classification in the crossing scan
    /// is sound even at one-ulp edges.
    fn bucket_index(&self, p: f64) -> usize {
        let raw = (p - self.bucket_lo) / self.bucket_w;
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
        while i > 0 && p < self.bucket_lo + i as f64 * self.bucket_w {
            i -= 1;
        }
        while i + 1 < BUCKETS && p >= self.bucket_lo + (i + 1) as f64 * self.bucket_w {
            i += 1;
        }
        i
    }

    /// Removes a bid from its bucket's running list (swap-remove with
    /// position fixup).
    fn remove_running(&mut self, i: u32) {
        let iu = i as usize;
        let b = self.bucket_of[iu] as usize;
        let p = self.pos_of[iu] as usize;
        let list = &mut self.buckets[b].running;
        debug_assert_eq!(list[p], i);
        list.swap_remove(p);
        if p < list.len() {
            self.pos_of[list[p] as usize] = p as u32;
        }
    }

    /// Settles the lazy charge accrual for slots `[run_since, end]`: the
    /// same `charged += price_u × slot_len` sequence, in the same
    /// chronological order, as the naive per-slot loop — so the float sums
    /// are bit-identical.
    fn settle(&mut self, iu: usize, end: u64) {
        let since = self.run_since[iu];
        if since > end {
            return;
        }
        let rec = &mut self.records[iu];
        for u in since..=end {
            rec.charged += self.slot_charge[u as usize];
        }
        rec.slots_run += (end - since + 1) as u32;
        self.run_since[iu] = end + 1;
    }

    /// Settles a single bid's accrual up to the last completed slot.
    fn sync_one(&mut self, iu: usize) {
        if self.flags[iu] & F_RUNNING != 0 && self.t > 0 {
            self.settle(iu, self.t - 1);
        }
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
        // step_into over recycled buffers must match fresh step() output.
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
            m1.recycle(fresh);
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

    /// One randomized `select_victims` case against the full
    /// `victim_order` sort it replaces. Returns the bucket of the `k`-th
    /// victim (the cutoff) and whether equal prices straddle position `k`.
    fn check_selection(prices: &[f64], starter_share: f64, k: usize, rng: &mut Rng) -> (u32, bool) {
        let m = market();
        let bucket_of: Vec<u32> = prices.iter().map(|&p| m.bucket_index(p) as u32).collect();
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

        let mut counts = Vec::new();
        let mut out = vec![7, 7, 7];
        select_victims(
            &buckets,
            &starters,
            prices,
            &bucket_of,
            k,
            &mut counts,
            &mut out,
        );
        let mut expect = full[..k].to_vec();
        expect.sort_unstable();
        assert_eq!(out, expect, "k = {k} of {}", prices.len());
        assert!(counts.iter().all(|&c| c == 0), "scratch left dirty");
        let last = full[k - 1] as usize;
        let straddle = k < full.len() && prices[full[k] as usize] == prices[last];
        (bucket_of[last], straddle)
    }

    #[test]
    fn victim_selection_matches_a_full_sort() {
        let (lo, hi) = (0.02, 0.35);
        let w = (hi - lo) / BUCKETS as f64;
        let mut rng = Rng::seed_from_u64(0x5E1E);
        let (mut straddles, mut top_cutoffs, mut bottom_cutoffs) = (0, 0, 0);
        for trial in 0..600u32 {
            let n = 1 + (rng.range_f64(0.0, 300.0) as usize);
            let prices: Vec<f64> = (0..n)
                .map(|_| match trial % 6 {
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
                    _ => lo + (rng.range_f64(0.0, BUCKETS as f64 + 1.0).floor()) * w,
                })
                .collect();
            let starter_share = [0.0, 1.0, 0.3][(trial / 6 % 3) as usize];
            for k in [1, n, 1 + (rng.range_f64(0.0, n as f64) as usize).min(n - 1)] {
                let (cutoff, straddle) = check_selection(&prices, starter_share, k, &mut rng);
                straddles += usize::from(straddle);
                top_cutoffs += usize::from(cutoff as usize == BUCKETS - 1);
                bottom_cutoffs += usize::from(cutoff == 0);
            }
        }
        // The hostile shapes really occurred.
        assert!(straddles > 50, "ties across k: {straddles}");
        assert!(top_cutoffs > 50, "cutoff in bucket 511: {top_cutoffs}");
        assert!(bottom_cutoffs > 50, "cutoff in bucket 0: {bottom_cutoffs}");
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

    impl SpotMarket {
        /// `(len, capacity)` of every bid column [`SpotMarket::reserve`]
        /// grows.
        fn column_shapes(&self) -> [(usize, usize); 8] {
            [
                (self.records.len(), self.records.capacity()),
                (self.price_of.len(), self.price_of.capacity()),
                (self.flags.len(), self.flags.capacity()),
                (self.run_since.len(), self.run_since.capacity()),
                (self.due.len(), self.due.capacity()),
                (self.bucket_of.len(), self.bucket_of.capacity()),
                (self.pos_of.len(), self.pos_of.capacity()),
                (self.incoming.len(), self.incoming.capacity()),
            ]
        }
    }

    #[test]
    fn reserve_then_submit_matches_submit_only() {
        // Random waves into an unbounded and a finite market: reserving
        // before each wave changes no id, record or step report, and
        // grows no column past the power of two doubling would reach.
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
                    let pow2 = (b.0 + n).next_power_of_two();
                    assert_eq!(a.0, b.0, "column {k}: reserve changed its length");
                    assert!(a.1 >= b.0 + n, "column {k}: {a:?} cannot hold {n} more");
                    assert!(
                        a.1 <= b.1.max(pow2),
                        "column {k}: capacity {} beyond {pow2} (was {})",
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
                }
                let (x, y) = (plain.step(&mut ra), reserved.step(&mut rb));
                assert_eq!(x, y, "round {round}, slot {slot}");
                plain.recycle(x);
                reserved.recycle(y);
            }
            assert_eq!(plain.records(), reserved.records(), "round {round}");
            assert_eq!(plain.provider_slots(), reserved.provider_slots());
        }
    }
}
