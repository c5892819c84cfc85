//! The bidding client of Figure 1: strategy + price history in, bid out,
//! job driven to completion against the future price series.

use crate::ClientError;
use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::{
    onetime, persistent, BidDecision, BidRecommendation, BiddingStrategy, CoreError, JobSpec,
};
use spotbid_engine::{run_job, run_job_with_fallback, JobOutcome};
use spotbid_market::units::Price;
use spotbid_trace::SpotPriceHistory;

/// One client instance: a strategy bound to an instance type's on-demand
/// price.
#[derive(Debug, Clone, Copy)]
pub struct SpotClient {
    /// The bidding strategy to apply.
    pub strategy: BiddingStrategy,
    /// The instance type's on-demand price `π̄`.
    pub on_demand: Price,
}

/// A complete trial: what was decided, what the model predicted, and what
/// actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The resolved bid decision.
    pub decision: BidDecision,
    /// The model's analytic prediction (for the optimal strategies; the
    /// "expected" bars in Figures 5–7). `None` for heuristic baselines.
    pub prediction: Option<BidRecommendation>,
    /// The realized outcome from replaying the future price series.
    pub outcome: JobOutcome,
}

impl SpotClient {
    /// Runs one trial: slots `[0, decision_slot)` of `history` are the
    /// observed past (the price monitor's window); the job is then
    /// submitted at `decision_slot` and replayed against the rest.
    ///
    /// # Errors
    ///
    /// [`ClientError::InvalidConfig`] when `decision_slot` leaves no past
    /// or no future; strategy/model errors via [`ClientError::Core`].
    pub fn run_at(
        &self,
        history: &SpotPriceHistory,
        decision_slot: usize,
        job: &JobSpec,
        tag: u32,
    ) -> Result<TrialResult, ClientError> {
        self.run_at_with_fallback(history, decision_slot, job, tag, false)
    }

    /// As [`run_at`](Self::run_at), optionally finishing failed spot runs
    /// on an on-demand instance (§5.1's fallback).
    ///
    /// # Errors
    ///
    /// Same contract as [`run_at`](Self::run_at).
    pub fn run_at_with_fallback(
        &self,
        history: &SpotPriceHistory,
        decision_slot: usize,
        job: &JobSpec,
        tag: u32,
        fallback: bool,
    ) -> Result<TrialResult, ClientError> {
        if decision_slot == 0 || decision_slot >= history.len() {
            return Err(ClientError::InvalidConfig {
                what: format!(
                    "decision slot {decision_slot} must leave both past and future in {} slots",
                    history.len()
                ),
            });
        }
        let past = history
            .slice(0, decision_slot)
            .map_err(ClientError::Trace)?;
        let future = history
            .slice(decision_slot, history.len())
            .map_err(ClientError::Trace)?;
        let decision = self
            .strategy
            .decide(&past, job, self.on_demand)
            .map_err(ClientError::Core)?;
        let prediction = self.predict(&past, job)?;
        let outcome = if fallback {
            run_job_with_fallback(&future, decision, job, tag, self.on_demand)?
        } else {
            run_job(&future, decision, job, tag)?
        };
        Ok(TrialResult {
            decision,
            prediction,
            outcome,
        })
    }

    /// The analytic prediction behind the optimal strategies (`None` for
    /// baselines, or when the optimum falls back to on-demand).
    fn predict(
        &self,
        past: &SpotPriceHistory,
        job: &JobSpec,
    ) -> Result<Option<BidRecommendation>, ClientError> {
        let model = EmpiricalPrices::from_history_with_cap(past, self.on_demand)
            .map_err(ClientError::Core)?;
        let rec = match self.strategy {
            BiddingStrategy::OptimalOneTime => onetime::optimal_bid(&model, job),
            BiddingStrategy::OptimalPersistent => persistent::optimal_bid(&model, job),
            _ => return Ok(None),
        };
        match rec {
            Ok(r) => Ok(Some(r)),
            Err(CoreError::NotWorthwhile { .. }) | Err(CoreError::NoFeasibleBid { .. }) => Ok(None),
            Err(e) => Err(ClientError::Core(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_engine::RunStatus;
    use spotbid_numerics::rng::Rng;
    use spotbid_trace::catalog;
    use spotbid_trace::synthetic::{generate, SyntheticConfig};

    fn setup(seed: u64) -> (SpotPriceHistory, Price) {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let cfg = SyntheticConfig::for_instance(&inst);
        let h = generate(&cfg, 6000, &mut Rng::seed_from_u64(seed)).unwrap();
        (h, inst.on_demand)
    }

    #[test]
    fn onetime_trial_usually_completes_cheaply() {
        let (h, od) = setup(41);
        let client = SpotClient {
            strategy: BiddingStrategy::OptimalOneTime,
            on_demand: od,
        };
        let job = JobSpec::builder(1.0).build().unwrap();
        let r = client.run_at(&h, 5000, &job, 0).unwrap();
        let pred = r.prediction.expect("optimal strategy predicts");
        match r.decision {
            BidDecision::Spot { price, persistent } => {
                assert_eq!(price, pred.price);
                assert!(!persistent);
            }
            other => panic!("{other:?}"),
        }
        if r.outcome.status == RunStatus::Completed {
            // Realized cost in the ballpark of the prediction (same order).
            assert!(r.outcome.cost.as_f64() < 2.0 * pred.expected_cost.as_f64() + 0.01);
            assert!(r.outcome.cost.as_f64() < 0.3 * (od * job.execution).as_f64());
        }
    }

    #[test]
    fn persistent_trial_completes() {
        let (h, od) = setup(43);
        let client = SpotClient {
            strategy: BiddingStrategy::OptimalPersistent,
            on_demand: od,
        };
        let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        let r = client.run_at(&h, 4000, &job, 0).unwrap();
        assert!(r.prediction.is_some());
        // Persistent requests always finish given enough future.
        assert_eq!(r.outcome.status, RunStatus::Completed);
    }

    #[test]
    fn on_demand_strategy_never_touches_spot() {
        let (h, od) = setup(44);
        let client = SpotClient {
            strategy: BiddingStrategy::OnDemand,
            on_demand: od,
        };
        let job = JobSpec::builder(1.0).build().unwrap();
        let r = client.run_at(&h, 3000, &job, 0).unwrap();
        assert_eq!(r.outcome.status, RunStatus::OnDemand);
        assert!(r.prediction.is_none());
        assert!((r.outcome.cost.as_f64() - od.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn decision_slot_bounds_checked() {
        let (h, od) = setup(45);
        let client = SpotClient {
            strategy: BiddingStrategy::OnDemand,
            on_demand: od,
        };
        let job = JobSpec::builder(1.0).build().unwrap();
        assert!(matches!(
            client.run_at(&h, 0, &job, 0),
            Err(ClientError::InvalidConfig { .. })
        ));
        assert!(matches!(
            client.run_at(&h, h.len(), &job, 0),
            Err(ClientError::InvalidConfig { .. })
        ));
    }
}
