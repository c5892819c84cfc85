//! # spotbid
//!
//! A full reproduction of *How to Bid the Cloud* (Zheng, Joe-Wong, Tan,
//! Chiang, Wang — SIGCOMM 2015): a model of how a cloud provider sets
//! auction-based spot prices, optimal user bidding strategies for one-time,
//! persistent, and MapReduce jobs, and a simulation substrate standing in
//! for the paper's Amazon EC2 testbed.
//!
//! This facade crate re-exports the workspace's member crates under short
//! names:
//!
//! - [`numerics`] — distributions, fitting, quadrature, root finding.
//! - [`market`] — the provider's pricing model and spot-market simulator.
//! - [`trace`] — spot-price histories, instance catalog, synthetic traces.
//! - [`core`] — **the paper's contribution**: optimal bidding strategies.
//! - [`engine`] — the event-driven simulation kernel, closed-loop mode, and
//!   the bidding client (Figure 1) with its experiment harness.
//! - [`mapred`] — a miniature MapReduce engine running on spot instances.
//! - [`serve`] — a fault-hardened, long-running bid-advisory server.
//!
//! ## Quickstart
//!
//! ```
//! use spotbid::core::{JobSpec, onetime, persistent};
//! use spotbid::core::price_model::EmpiricalPrices;
//! use spotbid::trace::{catalog, synthetic};
//! use spotbid::numerics::rng::Rng;
//!
//! // Two months of synthetic spot-price history for an r3.xlarge.
//! let inst = catalog::by_name("r3.xlarge").unwrap();
//! let mut rng = Rng::seed_from_u64(1);
//! let history = synthetic::generate(&synthetic::SyntheticConfig::for_instance(&inst),
//!                                   61 * 24 * 12, &mut rng).unwrap();
//!
//! // A 1-hour job with 30 s recovery time, bid via the paper's strategies.
//! let model = EmpiricalPrices::from_history(&history).unwrap();
//! let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
//! let one_time = onetime::optimal_bid(&model, &job).unwrap();
//! let persistent = persistent::optimal_bid(&model, &job).unwrap();
//! assert!(persistent.price <= one_time.price);
//! assert!(one_time.price.as_f64() <= inst.on_demand.as_f64());
//! ```

#![warn(missing_docs)]

pub use spotbid_core as core;
pub use spotbid_engine as engine;
pub use spotbid_mapred as mapred;
pub use spotbid_market as market;
pub use spotbid_numerics as numerics;
pub use spotbid_serve as serve;
pub use spotbid_trace as trace;
