//! A unified strategy type over everything in this crate, for driving the
//! client and experiment harness with one knob.

use crate::job::JobSpec;
use crate::price_model::EmpiricalPrices;
use crate::{baselines, onetime, persistent, CoreError};
use spotbid_market::units::Price;
use spotbid_trace::SpotPriceHistory;
use std::sync::OnceLock;

/// How a single-instance job chooses its bid (or opts out of spot).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BiddingStrategy {
    /// Proposition 4's optimal one-time bid.
    OptimalOneTime,
    /// Proposition 5's optimal persistent bid.
    OptimalPersistent,
    /// Bid a fixed percentile of the price distribution (the paper's
    /// 90th-percentile comparison), placed as a persistent request.
    Percentile(f64),
    /// Bid an explicit price, placed as a persistent request.
    FixedBid(Price),
    /// The best-offline-price-in-retrospect heuristic over the last
    /// `lookback_hours` of history, placed as a one-time request.
    BestOffline {
        /// Hours of history to search (the paper uses 10).
        lookback_hours: f64,
    },
    /// Skip spot entirely: run on demand.
    OnDemand,
}

/// A resolved bid decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BidDecision {
    /// Submit a spot request at this price.
    Spot {
        /// The bid price.
        price: Price,
        /// Whether the request is persistent (re-submitted on interruption).
        persistent: bool,
    },
    /// Run on an on-demand instance at the listed price.
    OnDemand {
        /// The on-demand price paid.
        price: Price,
    },
}

/// What every decision against one observed history shares: the history
/// and the on-demand cap, with the empirical price model built from them
/// on first use and kept for every later decision.
///
/// Decisions are pure functions of the view, so a closed loop builds one
/// view per slot and hands it read-only to all of that slot's tenants,
/// across threads — the model is sorted and deduplicated once, not once
/// per tenant. A history the model cannot be built from keeps its error,
/// and every decision that consults the model returns a copy of it.
#[derive(Debug)]
pub struct PriceView<'h> {
    history: &'h SpotPriceHistory,
    on_demand: Price,
    model: OnceLock<Result<EmpiricalPrices, CoreError>>,
}

impl<'h> PriceView<'h> {
    /// A view of `history` with `on_demand` as the bid cap, the fallback
    /// price and the model's cap.
    pub fn new(history: &'h SpotPriceHistory, on_demand: Price) -> Self {
        PriceView {
            history,
            on_demand,
            model: OnceLock::new(),
        }
    }

    /// The empirical model of the history, capped at the on-demand price;
    /// built by the first caller, its error copied to every caller.
    fn model(&self) -> Result<&EmpiricalPrices, CoreError> {
        self.model
            .get_or_init(|| EmpiricalPrices::from_history_with_cap(self.history, self.on_demand))
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl BiddingStrategy {
    /// Resolves the strategy into a concrete decision against a price
    /// history (the client's "price monitor" state): builds a
    /// [`PriceView`] and calls [`decide_with`](Self::decide_with).
    ///
    /// # Errors
    ///
    /// As [`decide_with`](Self::decide_with).
    pub fn decide(
        &self,
        history: &SpotPriceHistory,
        job: &JobSpec,
        on_demand: Price,
    ) -> Result<BidDecision, CoreError> {
        self.decide_with(&PriceView::new(history, on_demand), job)
    }

    /// Resolves the strategy into a concrete decision against a shared
    /// [`PriceView`], falling back to on demand at the view's price.
    ///
    /// # Errors
    ///
    /// The job's validation error first, then the view's model error —
    /// for every strategy, including those that never read the model —
    /// then per-strategy errors. Strategies whose constraints fail (e.g.
    /// spot not worthwhile) resolve to [`BidDecision::OnDemand`] rather
    /// than erroring, mirroring the paper's fallback behaviour.
    pub fn decide_with(
        &self,
        view: &PriceView<'_>,
        job: &JobSpec,
    ) -> Result<BidDecision, CoreError> {
        job.validate()?;
        let fallback = BidDecision::OnDemand {
            price: view.on_demand,
        };
        let model = view.model()?;
        let history = view.history;
        let decision = match *self {
            BiddingStrategy::OptimalOneTime => match onetime::optimal_bid(model, job) {
                Ok(rec) => BidDecision::Spot {
                    price: rec.price,
                    persistent: false,
                },
                Err(CoreError::NotWorthwhile { .. }) | Err(CoreError::NoFeasibleBid { .. }) => {
                    fallback
                }
                Err(e) => return Err(e),
            },
            BiddingStrategy::OptimalPersistent => match persistent::optimal_bid(model, job) {
                Ok(rec) => BidDecision::Spot {
                    price: rec.price,
                    persistent: true,
                },
                Err(CoreError::NotWorthwhile { .. }) | Err(CoreError::NoFeasibleBid { .. }) => {
                    fallback
                }
                Err(e) => return Err(e),
            },
            BiddingStrategy::Percentile(q) => BidDecision::Spot {
                price: baselines::percentile_bid(model, q)?,
                persistent: true,
            },
            BiddingStrategy::FixedBid(p) => BidDecision::Spot {
                price: p,
                persistent: true,
            },
            BiddingStrategy::BestOffline { lookback_hours } => {
                let slots = ((lookback_hours / history.slot_len().as_f64()).ceil() as usize).max(1);
                let run = ((job.execution / history.slot_len()).ceil() as usize).max(1);
                match baselines::best_offline_bid(history, slots, run) {
                    Some(p) => BidDecision::Spot {
                        price: p,
                        persistent: false,
                    },
                    None => fallback,
                }
            }
            BiddingStrategy::OnDemand => fallback,
        };
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_numerics::rng::Rng;
    use spotbid_trace::catalog;
    use spotbid_trace::synthetic::{generate, SyntheticConfig};

    fn setup() -> (SpotPriceHistory, JobSpec, Price) {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let cfg = SyntheticConfig::for_instance(&inst);
        let h = generate(&cfg, 17_568, &mut Rng::seed_from_u64(21)).unwrap();
        let j = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        (h, j, inst.on_demand)
    }

    #[test]
    fn optimal_strategies_produce_spot_bids() {
        let (h, j, od) = setup();
        let one = BiddingStrategy::OptimalOneTime.decide(&h, &j, od).unwrap();
        let per = BiddingStrategy::OptimalPersistent
            .decide(&h, &j, od)
            .unwrap();
        match (one, per) {
            (
                BidDecision::Spot {
                    price: p1,
                    persistent: false,
                },
                BidDecision::Spot {
                    price: p2,
                    persistent: true,
                },
            ) => assert!(p2 <= p1, "persistent {p2} should not exceed one-time {p1}"),
            other => panic!("expected spot bids, got {other:?}"),
        }
    }

    #[test]
    fn percentile_and_fixed() {
        let (h, j, od) = setup();
        let dec = BiddingStrategy::Percentile(0.9).decide(&h, &j, od).unwrap();
        assert!(matches!(
            dec,
            BidDecision::Spot {
                persistent: true,
                ..
            }
        ));
        let fixed = BiddingStrategy::FixedBid(Price::new(0.04))
            .decide(&h, &j, od)
            .unwrap();
        assert_eq!(
            fixed,
            BidDecision::Spot {
                price: Price::new(0.04),
                persistent: true
            }
        );
        assert!(BiddingStrategy::Percentile(2.0).decide(&h, &j, od).is_err());
    }

    #[test]
    fn best_offline_and_on_demand() {
        let (h, j, od) = setup();
        let dec = BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        }
        .decide(&h, &j, od)
        .unwrap();
        assert!(matches!(
            dec,
            BidDecision::Spot {
                persistent: false,
                ..
            }
        ));
        let odn = BiddingStrategy::OnDemand.decide(&h, &j, od).unwrap();
        assert_eq!(odn, BidDecision::OnDemand { price: od });
    }

    #[test]
    fn best_offline_falls_back_when_history_too_short() {
        let (h, _, od) = setup();
        let short = h.slice(0, 5).unwrap();
        let j = JobSpec::builder(1.0).build().unwrap(); // needs 12 slots
        let dec = BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        }
        .decide(&short, &j, od)
        .unwrap();
        assert_eq!(dec, BidDecision::OnDemand { price: od });
    }
}
