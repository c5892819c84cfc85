//! The provider's server pool: the on-demand side of a market and the
//! price rule the spot side clears by. Both market implementations hold
//! one, so the finite-supply bookkeeping exists once.

use super::{push_log, ProviderReport, ProviderSlot, Supply};
use crate::params::MarketParams;
use crate::provider::{clearing_price, optimal_price};
use crate::units::{Cost, Hours, Price};

/// The provider side of one market (DESIGN.md §5i), in the terms of the
/// finite-supply model of Wu et al. (PAPERS.md):
///
/// - the **on-demand reservation**: admissions up to the policy's
///   `od_limit`, refusals beyond it ([`request`](Self::request));
/// - the **spot share**: the servers the on-demand pool leaves to the
///   auction ([`spot_capacity`](Self::spot_capacity));
/// - the **clearing rule**: Eq. 3's revenue price, or the price that
///   clears the spot share when that is higher ([`price`](Self::price));
/// - the per-slot [`ProviderSlot`] ledger and its [`ProviderReport`].
///
/// Under [`Supply::Unbounded`] the pool admits everything, prices by
/// Eq. 3 alone and records nothing.
#[derive(Debug, Clone)]
pub(crate) struct Pool {
    params: MarketParams,
    slot_len: Hours,
    supply: Supply,
    /// Currently admitted on-demand instances (0 under unbounded supply).
    od_active: u32,
    /// On-demand admissions since the last slot closed.
    admitted: u32,
    /// On-demand refusals since the last slot closed.
    refused: u32,
    /// One entry per closed slot under finite supply, grown by a quarter
    /// when full ([`push_log`]).
    ledger: Vec<ProviderSlot>,
}

/// One slot's spot-side counts, as the market that ran the slot saw them.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpotCounts {
    /// Spot instances that ran this slot.
    pub(crate) running: u32,
    /// Running instances evicted for capacity.
    pub(crate) reclaims: u32,
    /// Would-be starters returned unlaunched.
    pub(crate) fresh_evictions: u32,
    /// Parked bids that relaunched.
    pub(crate) parked_restarts: u32,
}

impl Pool {
    pub(crate) fn new(params: MarketParams, slot_len: Hours, supply: Supply) -> Self {
        Pool {
            params,
            slot_len,
            supply,
            od_active: 0,
            admitted: 0,
            refused: 0,
            ledger: Vec::new(),
        }
    }

    pub(crate) fn params(&self) -> &MarketParams {
        &self.params
    }

    pub(crate) fn slot_len(&self) -> Hours {
        self.slot_len
    }

    pub(crate) fn od_active(&self) -> u32 {
        self.od_active
    }

    /// Servers the spot auction clears against, or `None` under unbounded
    /// supply.
    pub(crate) fn spot_capacity(&self) -> Option<u32> {
        match self.supply {
            Supply::Unbounded => None,
            Supply::Finite { capacity, policy } => {
                Some(policy.spot_capacity(capacity, self.od_active))
            }
        }
    }

    /// Admits up to `n` on-demand instances, returning how many; the
    /// rest are refused. Both counts wait for the next closed slot.
    pub(crate) fn request(&mut self, n: u32) -> u32 {
        match self.supply {
            Supply::Unbounded => n,
            Supply::Finite { capacity, policy } => {
                let limit = policy.od_limit(capacity);
                let admitted = n.min(limit.saturating_sub(self.od_active));
                self.od_active += admitted;
                self.admitted += admitted;
                self.refused += n - admitted;
                admitted
            }
        }
    }

    /// Releases `n` active on-demand instances (saturating).
    pub(crate) fn release(&mut self, n: u32) {
        self.od_active = self.od_active.saturating_sub(n);
    }

    /// The price posted at demand `demand`: Eq. 3's revenue price, or the
    /// spot share's clearing price when that is higher. On a tie, and
    /// whenever capacity is slack, the revenue price's own float is
    /// returned, so a slack pool reproduces Eq. 3 bit for bit.
    pub(crate) fn price(&self, demand: usize) -> Price {
        let l = demand as f64;
        let revenue = optimal_price(&self.params, l);
        let Some(cap) = self.spot_capacity() else {
            return revenue;
        };
        let clearing = clearing_price(&self.params, l, f64::from(cap));
        if clearing > revenue {
            clearing
        } else {
            revenue
        }
    }

    /// Closes slot `t`, posted at `price` for demand `demand`, in the
    /// ledger (finite supply only): the posted price, the spot side's
    /// counts, the on-demand pool through the slot and the admissions and
    /// refusals since the last close. Debug builds then audit the slot.
    pub(crate) fn close_slot(&mut self, t: u64, demand: usize, price: Price, spot: SpotCounts) {
        let Some(spot_capacity) = self.spot_capacity() else {
            return;
        };
        let slot = ProviderSlot {
            t,
            price,
            spot_capacity,
            spot_running: spot.running,
            od_active: self.od_active,
            reclaims: spot.reclaims,
            fresh_evictions: spot.fresh_evictions,
            parked_restarts: spot.parked_restarts,
            od_admitted: std::mem::take(&mut self.admitted),
            od_rejected: std::mem::take(&mut self.refused),
            spot_revenue: (price * self.slot_len) * f64::from(spot.running),
            od_revenue: (self.params.pi_bar * self.slot_len) * f64::from(self.od_active),
        };
        push_log(&mut self.ledger, slot);
        #[cfg(debug_assertions)]
        self.audit(demand);
        #[cfg(not(debug_assertions))]
        let _ = demand;
    }

    /// The audit of the slot just closed (debug builds; allocates
    /// nothing): the spot runners plus the on-demand pool fit the box, the
    /// spot runners fit the spot share, the on-demand pool fits its
    /// policy's limit, and the posted price is Eq. 3's optimum at the
    /// slot's `demand`, unless the spot share's clearing price binds (lies
    /// above it), when it is that clearing price.
    #[cfg(debug_assertions)]
    fn audit(&self, demand: usize) {
        let (Supply::Finite { capacity, policy }, Some(slot)) = (self.supply, self.ledger.last())
        else {
            return;
        };
        let (t, spot, od) = (slot.t, slot.spot_running, slot.od_active);
        assert!(
            u64::from(spot) + u64::from(od) <= u64::from(capacity),
            "slot {t}: {spot} spot and {od} on-demand instances in a box of {capacity}"
        );
        assert!(
            spot <= slot.spot_capacity,
            "slot {t}: {spot} spot instances over a spot share of {}",
            slot.spot_capacity
        );
        let limit = policy.od_limit(capacity);
        assert!(
            od <= limit,
            "slot {t}: {od} on-demand instances over a limit of {limit}"
        );
        let l = demand as f64;
        let revenue = optimal_price(&self.params, l);
        let clearing = clearing_price(&self.params, l, f64::from(slot.spot_capacity));
        let posted = if clearing > revenue {
            clearing
        } else {
            revenue
        };
        assert!(
            slot.price >= revenue && slot.price.as_f64().to_bits() == posted.as_f64().to_bits(),
            "slot {t}: posted {} at demand {demand}, Eq. 3 {revenue}, clearing {clearing}",
            slot.price
        );
    }

    /// The per-slot ledger (empty under unbounded supply).
    pub(crate) fn ledger(&self) -> &[ProviderSlot] {
        &self.ledger
    }

    /// Entries the ledger has room for, for tests of its growth.
    #[cfg(test)]
    pub(crate) fn ledger_room(&self) -> usize {
        self.ledger.capacity()
    }

    /// The ledger folded into its cumulative report, or `None` under
    /// unbounded supply.
    pub(crate) fn report(&self) -> Option<ProviderReport> {
        let Supply::Finite { capacity, .. } = self.supply else {
            return None;
        };
        let log = &self.ledger;
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
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::ProviderPolicy;
    use spotbid_numerics::rng::Rng;

    fn params() -> MarketParams {
        MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap()
    }

    fn finite(capacity: u32, policy: ProviderPolicy) -> Pool {
        let supply = Supply::Finite { capacity, policy };
        Pool::new(params(), Hours::from_minutes(5.0), supply)
    }

    /// A random policy over a random box, with an on-demand limit that
    /// may exceed the box.
    fn random_pool(g: &mut Rng) -> Pool {
        let capacity = g.range_usize(200) as u32;
        let cap = g.range_usize(300) as u32;
        let policy = if g.chance(0.5) {
            ProviderPolicy::StaticSplit { reserved: cap }
        } else {
            ProviderPolicy::UtilizationTracking { od_cap: cap }
        };
        finite(capacity, policy)
    }

    #[test]
    fn admissions_never_exceed_the_on_demand_limit() {
        let mut g = Rng::seed_from_u64(0x0D_11);
        for _ in 0..200 {
            let mut pool = random_pool(&mut g);
            let Supply::Finite { capacity, policy } = pool.supply else {
                unreachable!()
            };
            let limit = policy.od_limit(capacity);
            for _ in 0..50 {
                if g.chance(0.7) {
                    let (n, before) = (g.range_usize(60) as u32, pool.od_active());
                    let admitted = pool.request(n);
                    assert!(admitted <= n);
                    assert_eq!(pool.od_active(), before + admitted);
                } else {
                    pool.release(g.range_usize(60) as u32);
                }
                assert!(pool.od_active() <= limit, "{} > {limit}", pool.od_active());
            }
        }
    }

    #[test]
    fn a_release_never_takes_the_count_below_zero() {
        let mut pool = finite(10, ProviderPolicy::UtilizationTracking { od_cap: 8 });
        assert_eq!(pool.request(5), 5);
        pool.release(3);
        assert_eq!(pool.od_active(), 2);
        pool.release(7);
        assert_eq!(pool.od_active(), 0);
        pool.release(u32::MAX);
        assert_eq!(pool.od_active(), 0);
        assert_eq!(pool.spot_capacity(), Some(10));
    }

    #[test]
    fn each_ledger_entry_takes_the_pending_counts_exactly_once() {
        let mut g = Rng::seed_from_u64(0x1ED6);
        for _ in 0..100 {
            let mut pool = random_pool(&mut g);
            let (mut admitted, mut refused) = (0u64, 0u64);
            for t in 0..30u64 {
                let (mut a, mut r) = (0, 0);
                for _ in 0..g.range_usize(4) {
                    let n = g.range_usize(40) as u32;
                    let k = pool.request(n);
                    (a, r) = (a + k, r + n - k);
                }
                if g.chance(0.3) {
                    pool.release(g.range_usize(20) as u32);
                }
                let demand = t as usize * 37;
                pool.close_slot(t, demand, pool.price(demand), SpotCounts::default());
                let slot = pool.ledger()[t as usize];
                assert_eq!((slot.t, slot.od_admitted, slot.od_rejected), (t, a, r));
                assert_eq!(slot.od_active, pool.od_active());
                (admitted, refused) = (admitted + u64::from(a), refused + u64::from(r));
            }
            let report = pool.report().unwrap();
            assert_eq!(report.slots, 30);
            assert_eq!(
                (report.od_admissions, report.od_rejections),
                (admitted, refused)
            );
        }
    }

    #[test]
    fn unbounded_supply_records_nothing() {
        let mut pool = Pool::new(params(), Hours::from_minutes(5.0), Supply::Unbounded);
        assert_eq!(pool.request(1_000), 1_000);
        pool.release(10);
        assert_eq!(pool.od_active(), 0);
        assert_eq!(pool.spot_capacity(), None);
        let spot = SpotCounts {
            running: 3,
            reclaims: 1,
            fresh_evictions: 1,
            parked_restarts: 1,
        };
        for t in 0..5 {
            pool.close_slot(t, 0, Price::new(0.2), spot);
        }
        assert!(pool.ledger().is_empty());
        assert!(pool.report().is_none());
    }

    #[test]
    fn the_posted_price_is_eq3_when_slack_and_clearing_when_bound() {
        let p = params();
        let unbounded = Pool::new(p, Hours::from_minutes(5.0), Supply::Unbounded);
        let (mut slack, mut bound) = (0, 0);
        for capacity in [0, 1, 4, 50, 400, 100_000] {
            let pool = finite(capacity, ProviderPolicy::StaticSplit { reserved: 0 });
            for demand in [0usize, 1, 3, 10, 200, 5_000, 1_000_000] {
                let l = demand as f64;
                let revenue = optimal_price(&p, l);
                let clearing = clearing_price(&p, l, f64::from(capacity));
                let posted = pool.price(demand);
                assert_eq!(
                    unbounded.price(demand).as_f64().to_bits(),
                    revenue.as_f64().to_bits()
                );
                if clearing > revenue {
                    bound += 1;
                    assert_eq!(posted.as_f64().to_bits(), clearing.as_f64().to_bits());
                } else {
                    slack += 1;
                    assert_eq!(posted.as_f64().to_bits(), revenue.as_f64().to_bits());
                }
            }
        }
        assert!(slack > 5 && bound > 5, "slack {slack}, bound {bound}");
    }
}
