//! Portfolio bidding across M spot markets.
//!
//! The paper bids one market at a time; the portfolio family spreads a job
//! over several (instance types × zones), following *Optimized Portfolio
//! Contracts for Bidding the Cloud* (spot/on-demand allocation) and the
//! zone-fallback idea of *Fixed and Market Pricing for Cloud Services*:
//!
//! - [`PortfolioStrategy::ZoneFallback`] — bid the whole job in one home
//!   market; when the closed loop observes a termination or reclamation it
//!   re-plans with the next market as home (the rotation lives in the
//!   fleet, this module only resolves the current home's leg).
//! - [`PortfolioStrategy::SplitEven`] — split the job's slots evenly over
//!   the cheapest markets and bid the base strategy in each.
//! - [`PortfolioStrategy::Contract`] — the portfolio contract: a fixed
//!   share of the work bids spot in the cheapest market and the remainder
//!   buys on-demand capacity up front, trading expected cost against
//!   completion-time risk.
//!
//! A resolved plan is a list of [`PortfolioLeg`]s — (market, work,
//! decision) triples — produced by pure functions of a [`PortfolioView`]
//! of the per-market price histories, so planning parallelizes with the
//! same determinism contract as single-market `decide`, and one view
//! serves every plan of a slot.

use crate::job::JobSpec;
use crate::strategy::{BidDecision, BiddingStrategy, PriceView};
use crate::CoreError;
use spotbid_market::units::{Hours, Price};
use spotbid_trace::SpotPriceHistory;
use std::sync::OnceLock;

/// A multi-market bidding strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PortfolioStrategy {
    /// Bid the whole job in market `home` with `base`; the closed loop
    /// rotates `home` to the next market after a termination or
    /// reclamation (cross-zone fallback).
    ZoneFallback {
        /// Current home market (taken modulo M at plan time).
        home: usize,
        /// Single-market strategy resolved against the home history.
        base: BiddingStrategy,
    },
    /// Split the job's slots evenly across the cheapest markets, bidding
    /// `base` in each.
    SplitEven {
        /// Single-market strategy resolved per leg.
        base: BiddingStrategy,
    },
    /// Portfolio contract: `spot_share` of the slots bid spot in the
    /// cheapest market, the rest run on demand from the start.
    Contract {
        /// Fraction of work allocated to the spot leg, in `[0, 1]`.
        spot_share: f64,
        /// Single-market strategy for the spot leg.
        base: BiddingStrategy,
    },
}

/// One resolved position: how much of the job runs where, and under what
/// decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioLeg {
    /// Market index this leg bids into.
    pub market: usize,
    /// Whole slots of work assigned to this leg (never zero).
    pub slots: u64,
    /// The resolved single-market decision for this leg.
    pub decision: BidDecision,
}

/// A resolved multi-market plan: the job's slots partitioned into legs.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioPlan {
    /// Legs in ascending market order (ZoneFallback yields exactly one).
    pub legs: Vec<PortfolioLeg>,
}

impl PortfolioPlan {
    /// Total slots across all legs (equals the job's `slots_needed`).
    pub fn total_slots(&self) -> u64 {
        self.legs.iter().map(|l| l.slots).sum()
    }
}

/// Markets ranked by mean observed price, cheapest first; ties break on
/// the lower index (deterministic).
pub fn rank_markets(histories: &[SpotPriceHistory]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..histories.len()).collect();
    order.sort_by(|&a, &b| {
        histories[a]
            .mean_price()
            .partial_cmp(&histories[b].mean_price())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order
}

/// The portfolio counterpart of [`PriceView`]: one view per market and
/// the markets' [`rank_markets`] order, each built on first use and shared
/// by every plan made against it. A market whose model cannot be built
/// fails only the plans whose legs consult it.
#[derive(Debug)]
pub struct PortfolioView<'h> {
    histories: &'h [SpotPriceHistory],
    markets: Vec<PriceView<'h>>,
    on_demand: Price,
    ranking: OnceLock<Vec<usize>>,
}

impl<'h> PortfolioView<'h> {
    /// A view of one history per market, with `on_demand` as every
    /// market's cap and the on-demand legs' price.
    pub fn new(histories: &'h [SpotPriceHistory], on_demand: Price) -> Self {
        PortfolioView {
            histories,
            markets: histories
                .iter()
                .map(|h| PriceView::new(h, on_demand))
                .collect(),
            on_demand,
            ranking: OnceLock::new(),
        }
    }

    /// Markets ranked cheapest first, as [`rank_markets`].
    fn ranking(&self) -> &[usize] {
        self.ranking.get_or_init(|| rank_markets(self.histories))
    }
}

/// A sub-job covering `slots` whole slots of the parent job, keeping its
/// recovery/overhead/slot structure.
fn sub_job(job: &JobSpec, slots: u64) -> JobSpec {
    JobSpec {
        execution: Hours::new(job.slot.as_f64() * slots as f64),
        ..*job
    }
}

impl PortfolioStrategy {
    /// Resolves the strategy into a [`PortfolioPlan`] against one price
    /// history per market: builds a [`PortfolioView`] and calls
    /// [`decide_with`](Self::decide_with).
    ///
    /// # Errors
    ///
    /// As [`decide_with`](Self::decide_with).
    pub fn decide(
        &self,
        histories: &[SpotPriceHistory],
        job: &JobSpec,
        on_demand: Price,
    ) -> Result<PortfolioPlan, CoreError> {
        self.decide_with(&PortfolioView::new(histories, on_demand), job)
    }

    /// Resolves the strategy into a [`PortfolioPlan`] against a shared
    /// [`PortfolioView`].
    ///
    /// # Errors
    ///
    /// [`CoreError::NoFeasibleBid`] if the view has no markets, then the
    /// job's validation error, then [`CoreError::InvalidProbability`] for
    /// a `Contract` share outside `[0, 1]`, plus anything the base
    /// strategy's [`decide_with`](BiddingStrategy::decide_with) returns
    /// for a market a leg consults.
    pub fn decide_with(
        &self,
        view: &PortfolioView<'_>,
        job: &JobSpec,
    ) -> Result<PortfolioPlan, CoreError> {
        let markets = &view.markets;
        if markets.is_empty() {
            return Err(CoreError::NoFeasibleBid {
                why: "portfolio needs at least one market".into(),
            });
        }
        job.validate()?;
        let m = markets.len();
        let total_slots = job.slots_needed();
        match *self {
            PortfolioStrategy::ZoneFallback { home, base } => {
                let market = home % m;
                let decision = base.decide_with(&markets[market], job)?;
                Ok(PortfolioPlan {
                    legs: vec![PortfolioLeg {
                        market,
                        slots: total_slots,
                        decision,
                    }],
                })
            }
            PortfolioStrategy::SplitEven { base } => {
                // At most one leg per slot of work; shrink the leg count
                // until each leg's execution clears the job's recovery
                // floor (Eq. 13 needs execution > recovery per sub-job).
                let mut legs_n = m.min(total_slots as usize).max(1);
                while legs_n > 1 {
                    let smallest = sub_job(job, total_slots / legs_n as u64);
                    if smallest.validate().is_ok() {
                        break;
                    }
                    legs_n -= 1;
                }
                let mut targets: Vec<usize> = view.ranking()[..legs_n].to_vec();
                targets.sort_unstable();
                let base_slots = total_slots / legs_n as u64;
                let extra = (total_slots % legs_n as u64) as usize;
                let mut legs = Vec::with_capacity(legs_n);
                for (i, &market) in targets.iter().enumerate() {
                    let slots = base_slots + u64::from(i < extra);
                    let sub = sub_job(job, slots);
                    let decision = base.decide_with(&markets[market], &sub)?;
                    legs.push(PortfolioLeg {
                        market,
                        slots,
                        decision,
                    });
                }
                Ok(PortfolioPlan { legs })
            }
            PortfolioStrategy::Contract { spot_share, base } => {
                if !(0.0..=1.0).contains(&spot_share) || !spot_share.is_finite() {
                    return Err(CoreError::InvalidProbability { value: spot_share });
                }
                let cheapest = view.ranking()[0];
                let mut spot_slots = (total_slots as f64 * spot_share).round() as u64;
                spot_slots = spot_slots.min(total_slots);
                // A spot sub-job below the recovery floor can't be priced;
                // push that sliver onto the on-demand side.
                if spot_slots > 0 && sub_job(job, spot_slots).validate().is_err() {
                    spot_slots = 0;
                }
                let od_slots = total_slots - spot_slots;
                let mut legs = Vec::with_capacity(2);
                if spot_slots > 0 {
                    let sub = sub_job(job, spot_slots);
                    let decision = base.decide_with(&markets[cheapest], &sub)?;
                    legs.push(PortfolioLeg {
                        market: cheapest,
                        slots: spot_slots,
                        decision,
                    });
                }
                if od_slots > 0 {
                    legs.push(PortfolioLeg {
                        market: cheapest,
                        slots: od_slots,
                        decision: BidDecision::OnDemand {
                            price: view.on_demand,
                        },
                    });
                }
                Ok(PortfolioPlan { legs })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history(base: f64, n: usize) -> SpotPriceHistory {
        SpotPriceHistory::new(
            Hours::from_minutes(5.0),
            (0..n)
                .map(|i| Price::new(base + 0.01 * ((i % 5) as f64)))
                .collect(),
        )
        .unwrap()
    }

    // 0.125-hour slots make slots_needed exact in floating point.
    fn job(slots: u64) -> JobSpec {
        JobSpec::builder(slots as f64 * 0.125)
            .recovery_secs(60.0)
            .slot(Hours::new(0.125))
            .build()
            .unwrap()
    }

    #[test]
    fn rank_orders_by_mean_cheapest_first() {
        let hs = vec![history(0.10, 50), history(0.04, 50), history(0.07, 50)];
        assert_eq!(rank_markets(&hs), vec![1, 2, 0]);
    }

    #[test]
    fn zone_fallback_is_one_leg_with_wrapped_home() {
        let hs = vec![history(0.05, 50), history(0.06, 50)];
        let plan = PortfolioStrategy::ZoneFallback {
            home: 3,
            base: BiddingStrategy::FixedBid(Price::new(0.08)),
        }
        .decide(&hs, &job(12), Price::new(0.35))
        .unwrap();
        assert_eq!(plan.legs.len(), 1);
        assert_eq!(plan.legs[0].market, 1, "home 3 wraps to market 1");
        assert_eq!(plan.legs[0].slots, 12);
        assert_eq!(plan.total_slots(), 12);
        assert!(matches!(
            plan.legs[0].decision,
            BidDecision::Spot {
                persistent: true,
                ..
            }
        ));
    }

    #[test]
    fn split_even_partitions_all_slots() {
        let hs = vec![history(0.08, 50), history(0.04, 50), history(0.06, 50)];
        let plan = PortfolioStrategy::SplitEven {
            base: BiddingStrategy::FixedBid(Price::new(0.08)),
        }
        .decide(&hs, &job(14), Price::new(0.35))
        .unwrap();
        assert_eq!(plan.legs.len(), 3);
        assert_eq!(plan.total_slots(), 14);
        // Legs come back in ascending market order and cover every market.
        let markets: Vec<usize> = plan.legs.iter().map(|l| l.market).collect();
        assert_eq!(markets, vec![0, 1, 2]);
        // 14 = 5 + 5 + 4: the two +1 extras land on the lowest indices.
        let mut slots: Vec<u64> = plan.legs.iter().map(|l| l.slots).collect();
        slots.sort_unstable();
        assert_eq!(slots, vec![4, 5, 5]);
    }

    #[test]
    fn split_even_shrinks_legs_below_recovery_floor() {
        // 2 slots of work over 3 markets: a 0-slot leg is impossible and a
        // 1-slot (5-minute) leg would still clear the 60 s recovery, so the
        // plan uses 2 legs in the two cheapest markets.
        let hs = vec![history(0.08, 50), history(0.04, 50), history(0.06, 50)];
        let plan = PortfolioStrategy::SplitEven {
            base: BiddingStrategy::FixedBid(Price::new(0.08)),
        }
        .decide(&hs, &job(2), Price::new(0.35))
        .unwrap();
        assert_eq!(plan.legs.len(), 2);
        assert_eq!(plan.total_slots(), 2);
        let markets: Vec<usize> = plan.legs.iter().map(|l| l.market).collect();
        assert_eq!(markets, vec![1, 2], "cheapest two markets get the legs");
    }

    #[test]
    fn contract_splits_spot_and_on_demand() {
        let hs = vec![history(0.08, 50), history(0.04, 50)];
        let plan = PortfolioStrategy::Contract {
            spot_share: 0.75,
            base: BiddingStrategy::FixedBid(Price::new(0.08)),
        }
        .decide(&hs, &job(12), Price::new(0.35))
        .unwrap();
        assert_eq!(plan.legs.len(), 2);
        assert_eq!(plan.total_slots(), 12);
        assert_eq!(plan.legs[0].market, 1, "spot leg in the cheapest market");
        assert_eq!(plan.legs[0].slots, 9);
        assert!(matches!(plan.legs[0].decision, BidDecision::Spot { .. }));
        assert_eq!(plan.legs[1].slots, 3);
        assert!(matches!(
            plan.legs[1].decision,
            BidDecision::OnDemand { .. }
        ));
    }

    #[test]
    fn contract_extremes_collapse_to_one_leg() {
        let hs = vec![history(0.05, 50)];
        let all_spot = PortfolioStrategy::Contract {
            spot_share: 1.0,
            base: BiddingStrategy::FixedBid(Price::new(0.08)),
        }
        .decide(&hs, &job(6), Price::new(0.35))
        .unwrap();
        assert_eq!(all_spot.legs.len(), 1);
        assert!(matches!(
            all_spot.legs[0].decision,
            BidDecision::Spot { .. }
        ));

        let all_od = PortfolioStrategy::Contract {
            spot_share: 0.0,
            base: BiddingStrategy::FixedBid(Price::new(0.08)),
        }
        .decide(&hs, &job(6), Price::new(0.35))
        .unwrap();
        assert_eq!(all_od.legs.len(), 1);
        assert!(matches!(
            all_od.legs[0].decision,
            BidDecision::OnDemand { .. }
        ));
    }

    #[test]
    fn contract_rejects_bad_share() {
        let hs = vec![history(0.05, 50)];
        for share in [-0.1, 1.1, f64::NAN] {
            let r = PortfolioStrategy::Contract {
                spot_share: share,
                base: BiddingStrategy::OnDemand,
            }
            .decide(&hs, &job(6), Price::new(0.35));
            assert!(matches!(r, Err(CoreError::InvalidProbability { .. })));
        }
    }

    #[test]
    fn empty_market_list_rejected() {
        let r = PortfolioStrategy::SplitEven {
            base: BiddingStrategy::OnDemand,
        }
        .decide(&[], &job(6), Price::new(0.35));
        assert!(matches!(r, Err(CoreError::NoFeasibleBid { .. })));
    }
}
