//! # spotbid-client
//!
//! The user-side client of *How to Bid the Cloud* (Figure 1):
//! [`SpotClient`] resolves a bidding strategy against the price history
//! before a decision slot and replays the job over the rest through
//! `spotbid_engine::run_job`, which applies the EC2 spot rules of §3.2
//! and keeps the job monitor and billing ledger. [`experiment`] repeats
//! trials the way §7 does, and [`hourly`] applies EC2's actual 2014 hourly
//! billing rules: partial hours forgiven on provider interruption, charged
//! in full on user termination.
//!
//! ## Example
//!
//! ```
//! use spotbid_client::experiment::{run_single_instance, ExperimentConfig};
//! use spotbid_core::{BiddingStrategy, JobSpec};
//! use spotbid_trace::catalog;
//!
//! let inst = catalog::by_name("r3.xlarge").unwrap();
//! let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
//! let cfg = ExperimentConfig { trials: 3, warmup_slots: 3000, horizon_slots: 1500,
//!                              ..Default::default() };
//! let spot = run_single_instance(&inst, BiddingStrategy::OptimalPersistent, &job, &cfg).unwrap();
//! // The paper's headline: spot costs a fraction of on-demand.
//! assert!(spot.cost.mean < 0.5 * inst.on_demand.as_f64());
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod experiment;
pub mod hourly;

pub use client::{SpotClient, TrialResult};
pub use experiment::{ExperimentConfig, ExperimentResult};

use std::fmt;

/// Errors produced by the client crate.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// A strategy/model error from `spotbid-core`.
    Core(spotbid_core::CoreError),
    /// A history error from `spotbid-trace`.
    Trace(spotbid_trace::TraceError),
    /// Invalid experiment or runtime configuration.
    InvalidConfig {
        /// Description of the problem.
        what: String,
    },
    /// A pathological charge (NaN/negative price or duration) was refused
    /// by the billing ledger instead of silently corrupting the bill.
    Billing {
        /// Description of the refused charge.
        what: String,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Core(e) => write!(f, "core error: {e}"),
            ClientError::Trace(e) => write!(f, "trace error: {e}"),
            ClientError::InvalidConfig { what } => write!(f, "invalid config: {what}"),
            ClientError::Billing { what } => write!(f, "billing error: {what}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Core(e) => Some(e),
            ClientError::Trace(e) => Some(e),
            ClientError::InvalidConfig { .. } | ClientError::Billing { .. } => None,
        }
    }
}

impl From<spotbid_core::CoreError> for ClientError {
    fn from(e: spotbid_core::CoreError) -> Self {
        ClientError::Core(e)
    }
}

impl From<spotbid_trace::TraceError> for ClientError {
    fn from(e: spotbid_trace::TraceError) -> Self {
        ClientError::Trace(e)
    }
}

impl From<spotbid_engine::EngineError> for ClientError {
    fn from(e: spotbid_engine::EngineError) -> Self {
        match e {
            spotbid_engine::EngineError::Core(c) => ClientError::Core(c),
            spotbid_engine::EngineError::Billing { what } => ClientError::Billing { what },
            spotbid_engine::EngineError::InvalidConfig { what } => {
                ClientError::InvalidConfig { what }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = ClientError::Core(spotbid_core::CoreError::InvalidJob { what: "x".into() });
        assert!(e.to_string().contains("core error"));
        assert!(std::error::Error::source(&e).is_some());
        let e = ClientError::InvalidConfig { what: "y".into() };
        assert!(e.to_string().contains("invalid config"));
        assert!(std::error::Error::source(&e).is_none());
        let e: ClientError = spotbid_trace::TraceError::Parse { what: "z".into() }.into();
        assert!(e.to_string().contains("trace error"));
    }

    #[test]
    fn engine_billing_errors_convert_to_client_errors() {
        use spotbid_engine::Bill;
        use spotbid_market::units::{Hours, Price};
        let mut b = Bill::new();
        let r: Result<(), ClientError> = b
            .try_charge_spot(0, Price::new(f64::NAN), Hours::new(0.1), 0)
            .map_err(ClientError::from);
        assert!(matches!(r, Err(ClientError::Billing { .. })));
        assert!(b.items().is_empty());
    }
}
