//! # spotbid-mapred
//!
//! The MapReduce substrate for §§6–7.2 of *How to Bid the Cloud*: a
//! synthetic Common-Crawl-like corpus ([`corpus`]), a functional
//! miniature MapReduce engine ([`engine`], [`wordcount`]), a master/slave
//! scheduler with failure rescheduling ([`schedule`]), and the spot-market
//! integration that runs the whole job under the bidding plan of Eq. 20
//! and bills every up-slot at the slot's spot price ([`spot`]).
//!
//! The data plane is real — word counts are computed and checked against
//! a sequential reference on every run — while timing and failures come
//! from the spot-price traces, matching the paper's Elastic MapReduce
//! setup with slave interruptions and a never-interrupted master.

#![warn(missing_docs)]

pub mod corpus;
pub mod engine;
pub mod jobs;
pub mod schedule;
pub mod spot;
pub mod wordcount;

pub use corpus::{Corpus, CorpusConfig};
pub use jobs::{DistributedGrep, InvertedIndex};
pub use schedule::{ScheduleOutcome, ScheduleStatus};
pub use spot::MapReduceOutcome;
pub use wordcount::WordCount;

use spotbid_engine::EngineError;
use std::fmt;

/// Errors produced by the MapReduce substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum MapRedError {
    /// Invalid corpus or run configuration.
    InvalidConfig {
        /// Description of the problem.
        what: String,
    },
    /// The simulation kernel driving the cluster session failed, e.g. its
    /// billing ledger refused a pathological charge.
    Engine(EngineError),
}

impl fmt::Display for MapRedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapRedError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            MapRedError::Engine(e) => write!(f, "cluster session failed: {e}"),
        }
    }
}

impl std::error::Error for MapRedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapRedError::InvalidConfig { .. } => None,
            MapRedError::Engine(e) => Some(e),
        }
    }
}

impl From<EngineError> for MapRedError {
    fn from(e: EngineError) -> Self {
        MapRedError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = MapRedError::InvalidConfig { what: "x".into() };
        assert!(e.to_string().contains("invalid configuration"));
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&e);
    }

    #[test]
    fn kernel_errors_stay_typed() {
        let inner = EngineError::Billing { what: "NaN".into() };
        let e = MapRedError::from(inner.clone());
        assert_eq!(e, MapRedError::Engine(inner.clone()));
        assert_eq!(e.to_string(), format!("cluster session failed: {inner}"));
        let source = std::error::Error::source(&e).expect("the kernel error");
        assert_eq!(source.to_string(), inner.to_string());
        let config = MapRedError::InvalidConfig { what: "x".into() };
        assert!(std::error::Error::source(&config).is_none());
    }
}
