//! The reference per-bid market: a straight O(n) scan per slot.
//!
//! This is the original [`SpotMarket`](crate::sim::SpotMarket)
//! implementation, retained verbatim as the behavioral oracle for the
//! price-indexed bid-book that replaced it on the hot path. Every slot it
//! walks *every* open bid, branches on the accept/reject comparison, and
//! charges running bids one by one — simple, obviously correct, and O(n)
//! per slot regardless of how few bids actually change state.
//!
//! The bid-book must reproduce this implementation **bit-identically**:
//! same `SlotReport`s (same id order in every event vector), same RNG
//! draw order (one `chance(θ)` per accepted geometric bid, in submission
//! order), and same floating-point accumulation order for `charged`. The
//! randomized equivalence suite (`tests/bidbook_equiv.rs`) holds the two
//! implementations against each other across seeds, bid mixes, and price
//! regimes.
//!
//! The provider side is not duplicated here: the on-demand pool, the
//! posted-price rule and the provider ledger are the same crate-private
//! `Pool` the bid-book holds (DESIGN.md §5i). The auction, the eviction
//! order, the charging and the spot-side counts are this market's own.

use super::pool::{Pool, SpotCounts};
use super::{
    victim_order, BidId, BidKind, BidPhase, BidRecord, BidRequest, ProviderReport, ProviderSlot,
    SlotReport, Supply, WorkModel,
};
use crate::params::MarketParams;
use crate::units::{Cost, Hours};
use spotbid_numerics::rng::Rng;

/// A discrete-time spot market with endogenous prices: the O(n)-per-slot
/// reference implementation.
#[derive(Debug, Clone)]
pub struct SpotMarket {
    /// The server pool: on-demand instances, the price rule and the
    /// provider ledger (shared with the bid-book).
    pool: Pool,
    t: u64,
    records: Vec<BidRecord>,
    /// Indices into `records` of bids still in the system.
    open: Vec<usize>,
    /// Mirror of the bid-book's parked set, as a per-bid flag: true while
    /// a bid sits outside the resident invariants awaiting its individual
    /// re-auction (displaced by a reclamation outage or a capacity
    /// eviction, or submitted during an outage). Tracked so the per-slot
    /// provider telemetry (`parked_restarts`) matches the bid-book
    /// bit-for-bit.
    parked: Vec<bool>,
    /// Allocation cache for `step`'s survivor list: holds last slot's `open`
    /// vector so stepping a long-lived market does not allocate per slot.
    scratch: Vec<usize>,
    /// The next step is a capacity reclamation (set by
    /// [`reclaim_next_slot`](Self::reclaim_next_slot)).
    reclaim_next: bool,
}

impl SpotMarket {
    /// Creates an empty market with unbounded supply.
    pub fn new(params: MarketParams, slot_len: Hours) -> Self {
        Self::with_supply(params, slot_len, Supply::Unbounded)
    }

    /// Creates an empty market under the given supply model.
    pub fn with_supply(params: MarketParams, slot_len: Hours, supply: Supply) -> Self {
        SpotMarket {
            pool: Pool::new(params, slot_len, supply),
            t: 0,
            records: Vec::new(),
            open: Vec::new(),
            parked: Vec::new(),
            scratch: Vec::new(),
            reclaim_next: false,
        }
    }

    /// On-demand instances currently holding servers.
    pub fn od_active(&self) -> u32 {
        self.pool.od_active()
    }

    /// Requests `n` on-demand instances; returns how many were admitted.
    pub fn request_on_demand(&mut self, n: u32) -> u32 {
        self.pool.request(n)
    }

    /// Releases `n` on-demand instances back to the pool.
    pub fn release_on_demand(&mut self, n: u32) {
        self.pool.release(n);
    }

    /// Per-slot provider telemetry (empty under unbounded supply).
    pub fn provider_slots(&self) -> &[ProviderSlot] {
        self.pool.ledger()
    }

    /// Aggregated provider report (`None` under unbounded supply).
    pub fn provider_report(&self) -> Option<ProviderReport> {
        self.pool.report()
    }

    /// The market parameters.
    pub fn params(&self) -> &MarketParams {
        self.pool.params()
    }

    /// Current slot index (number of completed steps).
    pub fn now(&self) -> u64 {
        self.t
    }

    /// Submits a bid; it competes from the next [`step`](Self::step) on.
    pub fn submit(&mut self, request: BidRequest) -> BidId {
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
        let idx = self.records.len() - 1;
        self.open.push(idx);
        self.parked.push(false);
        id
    }

    /// A copy of a bid's record (by value, like the bid-book's).
    pub fn record(&self, id: BidId) -> Option<BidRecord> {
        self.records.get(id.0 as usize).cloned()
    }

    /// Copies of all bid records (submitted order).
    pub fn records(&self) -> Vec<BidRecord> {
        self.records.clone()
    }

    /// Number of bids still pending or running.
    pub fn open_bids(&self) -> usize {
        self.open.len()
    }

    /// Marks the next [`step`](Self::step) as a bid-independent capacity
    /// reclamation (the fault-injection hook): the provider still posts the
    /// slot's price, but takes every instance back instead of auctioning.
    /// All running bids are interrupted — persistent ones return to pending
    /// and re-compete from the following slot, one-time ones exit
    /// unfinished — while pending bids and fresh arrivals simply wait the
    /// outage out. Nothing runs, so nothing is charged and no departure
    /// randomness is drawn.
    pub fn reclaim_next_slot(&mut self) {
        self.reclaim_next = true;
    }

    /// Advances one slot: runs the auction, interrupts/launches instances,
    /// progresses work, and charges running bids.
    pub fn step(&mut self, rng: &mut Rng) -> SlotReport {
        let t = self.t;

        // Demand: every open bid competes (carried-over pending persistent
        // bids, running instances re-asserting their bids, and new
        // arrivals) — the L(t) of Eq. 4.
        let demand = self.open.len();
        let price = self.pool.price(demand);

        let mut report = SlotReport {
            t,
            demand,
            price,
            started: Vec::new(),
            interrupted: Vec::new(),
            finished: Vec::new(),
            terminated: Vec::new(),
            evicted: Vec::new(),
        };

        let mut still_open = std::mem::take(&mut self.scratch);
        still_open.clear();
        still_open.reserve(self.open.len());
        if std::mem::take(&mut self.reclaim_next) {
            // Capacity reclamation: no auction, no charges, no draws. Every
            // running bid is interrupted; everything else waits in place.
            for &idx in &self.open {
                let was_running = self.records[idx].phase == BidPhase::Running;
                let rec = &mut self.records[idx];
                if was_running {
                    rec.interruptions += 1;
                    report.interrupted.push(rec.id);
                    match rec.request.kind {
                        BidKind::OneTime => {
                            rec.phase = BidPhase::Terminated;
                            rec.closed_at = Some(t);
                            report.terminated.push(rec.id);
                        }
                        BidKind::Persistent => {
                            rec.phase = BidPhase::Pending;
                            // Displaced by the outage: waits outside the
                            // resident invariants for its re-auction.
                            self.parked[idx] = true;
                            still_open.push(idx);
                        }
                    }
                } else {
                    // Arrivals during the outage park unconditionally; so
                    // do pending bids the skipped auction would have
                    // started (bid at or above the posted price).
                    if rec.submitted_at == t || rec.request.price >= price {
                        self.parked[idx] = true;
                    }
                    still_open.push(idx);
                }
            }
            self.scratch = std::mem::replace(&mut self.open, still_open);
            // An outage slot runs nothing: the provider logs an idle spot
            // side so the telemetry stays one entry per slot.
            self.pool
                .close_slot(t, demand, price, SpotCounts::default());
            self.t += 1;
            return report;
        }
        // Finite supply: pick the provider's victims before the scan, so
        // the charge/draw pass below can skip them — the bid-book evicts
        // between the auction and the launch, so victims never charge,
        // never draw departure randomness, and never emit a start event.
        // Victims are the lowest-bid accepted bids, newest first among
        // equal bids (`victim_order`, the §5i reclaim ordering contract).
        let mut victims: Vec<usize> = Vec::new();
        if let Some(spot_cap) = self.pool.spot_capacity() {
            let mut accepted: Vec<usize> = self
                .open
                .iter()
                .copied()
                .filter(|&idx| self.records[idx].request.price >= price)
                .collect();
            if accepted.len() > spot_cap as usize {
                let k = accepted.len() - spot_cap as usize;
                accepted.sort_unstable_by(|&a, &b| {
                    victim_order(
                        self.records[a].request.price.as_f64(),
                        a as u64,
                        self.records[b].request.price.as_f64(),
                        b as u64,
                    )
                });
                victims = accepted[..k].to_vec();
                victims.sort_unstable();
                // The capacity delta: every victim this slot, id order.
                report
                    .evicted
                    .extend(victims.iter().map(|&idx| self.records[idx].id));
            }
        }
        let mut spot = SpotCounts::default();
        for &idx in &self.open {
            let accepted = self.records[idx].request.price >= price;
            let was_running = self.records[idx].phase == BidPhase::Running;
            let evicted = accepted && !victims.is_empty() && victims.binary_search(&idx).is_ok();
            let was_parked = std::mem::take(&mut self.parked[idx]);
            let rec = &mut self.records[idx];
            if accepted && evicted {
                // Provider eviction: capacity is binding and this bid lost
                // the reclaim ordering. A running victim is interrupted
                // like a price crossing; a would-be starter is quietly
                // returned without ever launching.
                if was_running {
                    spot.reclaims += 1;
                    rec.interruptions += 1;
                    report.interrupted.push(rec.id);
                    match rec.request.kind {
                        BidKind::OneTime => {
                            rec.phase = BidPhase::Terminated;
                            rec.closed_at = Some(t);
                            report.terminated.push(rec.id);
                        }
                        BidKind::Persistent => {
                            rec.phase = BidPhase::Pending;
                            // Parks for an individual re-auction, like the
                            // bid-book's capacity-evicted runners.
                            self.parked[idx] = true;
                            still_open.push(idx);
                        }
                    }
                } else {
                    spot.fresh_evictions += 1;
                    match rec.request.kind {
                        BidKind::OneTime => {
                            rec.phase = BidPhase::Terminated;
                            rec.closed_at = Some(t);
                            report.terminated.push(rec.id);
                        }
                        BidKind::Persistent => {
                            self.parked[idx] = true;
                            still_open.push(idx);
                        }
                    }
                }
            } else if accepted {
                if !was_running {
                    rec.phase = BidPhase::Running;
                    report.started.push(rec.id);
                    if was_parked {
                        spot.parked_restarts += 1;
                    }
                }
                spot.running += 1;
                // Run for this slot: charge at the spot price.
                rec.slots_run += 1;
                rec.charged += price * self.pool.slot_len();
                let done = match rec.request.work {
                    WorkModel::FixedSlots(n) => rec.slots_run >= n,
                    WorkModel::Geometric => rng.chance(self.pool.params().theta),
                };
                if done {
                    rec.phase = BidPhase::Finished;
                    rec.closed_at = Some(t);
                    report.finished.push(rec.id);
                } else {
                    still_open.push(idx);
                }
            } else {
                // Outbid.
                match rec.request.kind {
                    BidKind::OneTime => {
                        // Running one-time: terminated mid-job. New one-time
                        // below the spot price: rejected. Either way it
                        // leaves the system (§3.2).
                        rec.phase = BidPhase::Terminated;
                        rec.closed_at = Some(t);
                        if was_running {
                            rec.interruptions += 1;
                            report.interrupted.push(rec.id);
                        }
                        report.terminated.push(rec.id);
                    }
                    BidKind::Persistent => {
                        if was_running {
                            rec.interruptions += 1;
                            report.interrupted.push(rec.id);
                        }
                        rec.phase = BidPhase::Pending;
                        still_open.push(idx);
                    }
                }
            }
        }
        // Swap the survivor list in and keep the old vector as next slot's
        // scratch, so steady-state stepping reuses both allocations.
        self.scratch = std::mem::replace(&mut self.open, still_open);
        self.pool.close_slot(t, demand, price, spot);
        self.t += 1;
        report
    }

    /// Runs `n` slots, returning every report.
    pub fn run(&mut self, n: usize, rng: &mut Rng) -> Vec<SlotReport> {
        (0..n).map(|_| self.step(rng)).collect()
    }

    /// Starts a fresh market's clock at slot `t`, for tests of late slots.
    #[cfg(test)]
    pub(super) fn start_at(&mut self, t: u64) {
        assert!(self.records.is_empty() && self.t == 0, "not a fresh market");
        self.t = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Price;

    #[test]
    fn naive_lone_high_bid_runs_to_completion() {
        let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
        let mut m = SpotMarket::new(params, Hours::from_minutes(5.0));
        let mut rng = Rng::seed_from_u64(1);
        let id = m.submit(BidRequest {
            price: Price::new(0.35),
            kind: BidKind::OneTime,
            work: WorkModel::FixedSlots(3),
        });
        let reports = m.run(5, &mut rng);
        let rec = m.record(id).unwrap();
        assert_eq!(rec.phase, BidPhase::Finished);
        assert_eq!(rec.slots_run, 3);
        assert_eq!(reports[2].finished, vec![id]);
        assert_eq!(m.open_bids(), 0);
    }
}
