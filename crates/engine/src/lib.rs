//! # spotbid-engine
//!
//! The discrete-time simulation kernel beneath every slot loop in the
//! workspace. Single-job trace replay ([`single`]: `run_job*`), MapReduce
//! clusters (`mapred::spot`) and the multi-tenant closed loops share one
//! substrate, the slot loop [`kernel::run`], over:
//!
//! - [`source::PriceSource`] — where each slot's market signal comes from
//!   (trace replay, a degraded [`source::MarketView`], or a closed loop's
//!   endogenous market);
//! - [`kernel::JobDriver`] — the component advanced one slot at a time (a
//!   single spot job, a MapReduce cluster, a closed loop's tenant fleet);
//! - [`observer::Observer`] — pluggable hooks fed the append-only
//!   [`event::Event`] stream (billing ledger, event log).
//!
//! The replay and MapReduce sessions are bit-identical to their pre-kernel
//! implementations (see the parity tests in `tests/`), and [`closedloop`]
//! adds what none of the old loops had: N strategy-driven bidders
//! submitting into one endogenous market whose posted price responds to
//! their bids. The Section-4 market itself steps through
//! `spotbid_market::sim::SpotMarket`.
//!
//! The bidding client of Figure 1 lives here too: [`experiment`] resolves
//! a strategy against a price-monitor window, replays the job through
//! [`run_job`], and repeats trials the way §7 does; [`billing::hourly`]
//! rebills a run under EC2's 2014 hourly rules.

#![warn(missing_docs)]

pub mod billing;
pub mod closedloop;
pub mod cluster;
pub mod event;
pub mod experiment;
pub mod job_monitor;
pub mod kernel;
pub mod observer;
pub mod single;
pub mod source;

pub use billing::{Bill, LineItem, UsageKind};
pub use closedloop::portfolio::{
    run_portfolio_loop, run_portfolio_loop_logged, run_portfolio_loop_with_stats,
    PortfolioFleetStats, PortfolioLoopConfig, PortfolioMarket, PortfolioReport,
    PortfolioTenantOutcome,
};
pub use closedloop::{
    run_closed_loop, run_closed_loop_logged, run_closed_loop_with_stats, ClosedLoopConfig,
    ClosedLoopReport, FleetStats, LoopFaults, TenantOutcome,
};
pub use event::Event;
pub use kernel::{DriverStatus, JobDriver};
pub use observer::{BillingObserver, EventLog, Observer};
pub use single::{
    run_job, run_job_resilient, run_job_with_fallback, JobOutcome, RecoveryPolicy, RunStatus,
};
pub use source::{MarketView, PriceSource, SlotPrice, ViewSource};

use std::fmt;

/// Errors produced by the simulation kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// A job/strategy error from `spotbid-core`.
    Core(spotbid_core::CoreError),
    /// A pathological charge (NaN/negative price or duration) was refused
    /// by the billing ledger instead of silently corrupting the bill.
    Billing {
        /// Description of the refused charge.
        what: String,
    },
    /// Invalid kernel or session configuration.
    InvalidConfig {
        /// Description of the problem.
        what: String,
    },
    /// A history error from `spotbid-trace`. Boxed, so the error stays
    /// 32 bytes on every closed-loop result.
    Trace(Box<spotbid_trace::TraceError>),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Core(e) => write!(f, "core error: {e}"),
            EngineError::Billing { what } => write!(f, "billing error: {what}"),
            EngineError::InvalidConfig { what } => write!(f, "invalid config: {what}"),
            EngineError::Trace(e) => write!(f, "trace error: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            EngineError::Trace(e) => Some(&**e),
            EngineError::Billing { .. } | EngineError::InvalidConfig { .. } => None,
        }
    }
}

impl From<spotbid_core::CoreError> for EngineError {
    fn from(e: spotbid_core::CoreError) -> Self {
        EngineError::Core(e)
    }
}

impl From<spotbid_trace::TraceError> for EngineError {
    fn from(e: spotbid_trace::TraceError) -> Self {
        EngineError::Trace(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_source() {
        let e = EngineError::Core(spotbid_core::CoreError::InvalidJob { what: "x".into() });
        assert!(e.to_string().contains("core error"));
        assert!(std::error::Error::source(&e).is_some());
        let e = EngineError::Billing { what: "y".into() };
        assert!(e.to_string().contains("billing error"));
        assert!(std::error::Error::source(&e).is_none());
        let e = EngineError::InvalidConfig { what: "z".into() };
        assert!(e.to_string().contains("invalid config"));
        let inner = spotbid_trace::TraceError::Parse { what: "w".into() };
        let e: EngineError = inner.clone().into();
        assert_eq!(e.to_string(), format!("trace error: {inner}"));
        let source = std::error::Error::source(&e).expect("a trace error has a source");
        assert_eq!(source.downcast_ref(), Some(&inner));
    }

    #[test]
    fn error_stays_32_bytes() {
        // An unboxed `Trace` variant would make every `Result<_, EngineError>`
        // in the closed loop 40 bytes.
        assert_eq!(std::mem::size_of::<EngineError>(), 32);
    }
}
