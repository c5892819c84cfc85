//! # spotbid-core
//!
//! The primary contribution of *How to Bid the Cloud* (SIGCOMM 2015):
//! cost-minimizing bidding strategies for EC2-style spot markets.
//!
//! Given a model of the spot-price distribution ([`price_model`]) and a
//! job's timing characteristics ([`job`]), this crate computes:
//!
//! - the optimal **one-time** bid — never interrupted — as a quantile of
//!   the price distribution (Proposition 4, [`onetime`]);
//! - the optimal **persistent** bid — interruptible with recovery overhead
//!   — minimizing Eq. 15's expected cost (Proposition 5, [`persistent`]);
//! - the optimal **parallel** bid for a job split across `M` instances
//!   (Eqs. 17–19, [`parallel`]);
//! - the joint **master/slave MapReduce** plan with its minimum
//!   parallelism (Eq. 20, [`mapreduce`]);
//! - the paper's **baselines**: on-demand, percentile bidding, and the
//!   best-offline-price heuristic ([`baselines`]), unified with the optimal
//!   strategies behind [`strategy::BiddingStrategy`];
//! - the §8 extensions: **risk-averse** and **deadline-constrained**
//!   bidding via Monte Carlo evaluation over the price model ([`risk`]).
//!
//! ## Example
//!
//! ```
//! use spotbid_core::{JobSpec, onetime, persistent};
//! use spotbid_core::price_model::EmpiricalPrices;
//! use spotbid_trace::{catalog, synthetic};
//! use spotbid_numerics::rng::Rng;
//!
//! let inst = catalog::by_name("r3.xlarge").unwrap();
//! let cfg = synthetic::SyntheticConfig::for_instance(&inst);
//! let history = synthetic::generate(&cfg, 17_568, &mut Rng::seed_from_u64(7)).unwrap();
//! let model = EmpiricalPrices::from_history_with_cap(&history, inst.on_demand).unwrap();
//!
//! let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
//! let one_time = onetime::optimal_bid(&model, &job).unwrap();
//! let persistent = persistent::optimal_bid(&model, &job).unwrap();
//!
//! // The paper's headline trade-off: persistent bids are lower and
//! // cheaper, at the price of longer completion times.
//! assert!(persistent.price <= one_time.price);
//! assert!(persistent.expected_cost <= one_time.expected_cost);
//! assert!(persistent.expected_completion_time >= one_time.expected_completion_time);
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod checkpoint;
pub mod job;
pub mod mapreduce;
pub mod onetime;
pub mod overhead;
pub mod parallel;
pub mod persistent;
pub mod portfolio;
pub mod price_model;
pub mod recommendation;
pub mod risk;
pub mod strategy;

pub use job::JobSpec;
pub use portfolio::{PortfolioLeg, PortfolioPlan, PortfolioStrategy, PortfolioView};
pub use price_model::{AnalyticPrices, EmpiricalPrices, PriceModel};
pub use recommendation::BidRecommendation;
pub use strategy::{BidDecision, BiddingStrategy, PriceView};

use spotbid_market::units::Cost;
use std::fmt;

/// Errors produced by the bidding strategies.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A job specification violates its invariants.
    InvalidJob {
        /// Description of the violated invariant.
        what: String,
    },
    /// A price model could not be constructed.
    InvalidModel {
        /// Description of the problem.
        what: String,
    },
    /// A probability argument fell outside `[0, 1]`.
    InvalidProbability {
        /// The offending value.
        value: f64,
    },
    /// No bid satisfies the strategy's constraints.
    NoFeasibleBid {
        /// Why every candidate failed.
        why: String,
    },
    /// Spot bidding is feasible but costs more than on-demand; the caller
    /// should fall back to an on-demand instance.
    NotWorthwhile {
        /// Best achievable expected spot cost.
        spot_cost: Cost,
        /// The on-demand comparison cost `t_s·π̄`.
        on_demand_cost: Cost,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidJob { what } => write!(f, "invalid job: {what}"),
            CoreError::InvalidModel { what } => write!(f, "invalid price model: {what}"),
            CoreError::InvalidProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            CoreError::NoFeasibleBid { why } => write!(f, "no feasible bid: {why}"),
            CoreError::NotWorthwhile {
                spot_cost,
                on_demand_cost,
            } => write!(
                f,
                "spot not worthwhile: expected {spot_cost} vs on-demand {on_demand_cost}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(CoreError::InvalidJob { what: "x".into() }
            .to_string()
            .contains("invalid job"));
        assert!(CoreError::InvalidModel { what: "y".into() }
            .to_string()
            .contains("price model"));
        assert!(CoreError::InvalidProbability { value: 2.0 }
            .to_string()
            .contains('2'));
        assert!(CoreError::NoFeasibleBid { why: "z".into() }
            .to_string()
            .contains("feasible"));
        let e = CoreError::NotWorthwhile {
            spot_cost: Cost::new(1.0),
            on_demand_cost: Cost::new(0.5),
        };
        assert!(e.to_string().contains("on-demand"));
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&e);
    }
}
