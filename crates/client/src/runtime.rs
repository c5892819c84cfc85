//! Trace-replay runtime: runs one job against a spot-price series under
//! the exact EC2 spot rules of §3.2.
//!
//! Since the kernel refactor this module is a thin adapter: the replay
//! loops live in `spotbid-engine` (`spotbid_engine::single`), where one
//! `SpotJobDriver` advanced by the kernel implements both the plain and
//! the resilient semantics. The functions here only translate
//! `EngineError` into [`ClientError`]; the test suite below predates the
//! refactor and pins the adapters to the original hand-rolled loops'
//! behaviour bit for bit (the engine's own `tests/` directory additionally
//! proves parity against frozen copies of the legacy implementations).
//!
//! The user here is a price-taker (the paper's standing assumption): the
//! price series is given, and the runtime walks it slot by slot, driving a
//! [`spotbid_engine::job_monitor::JobMonitor`] and a [`spotbid_engine::Bill`].
//! One-time requests exit on the first rejection after starting (and are
//! rejected outright if the first slot's price is above the bid);
//! persistent requests ride out interruptions.

use crate::ClientError;
use spotbid_core::{BidDecision, JobSpec};
use spotbid_market::units::Price;
use spotbid_trace::SpotPriceHistory;

pub use spotbid_engine::single::{JobOutcome, RecoveryPolicy, RunStatus};
pub use spotbid_engine::source::MarketView;
// The reconnect schedule the feed-outage budget is derived from
// ([`RecoveryPolicy::from_backoff`]) — re-exported so client code
// configures retries and budget from one place. The serve crate's
// `FeedClient` sleeps through the same schedule in wall-clock time.
pub use spotbid_numerics::backoff::{Backoff, BackoffConfig};

/// Runs a job against `future` starting at its first slot, under the given
/// decision. The billing `tag` labels line items (use distinct tags for
/// MapReduce nodes).
///
/// # Errors
///
/// [`ClientError::Core`] for invalid jobs.
pub fn run_job(
    future: &SpotPriceHistory,
    decision: BidDecision,
    job: &JobSpec,
    tag: u32,
) -> Result<JobOutcome, ClientError> {
    spotbid_engine::run_job(future, decision, job, tag).map_err(ClientError::from)
}

/// Runs a job with the §5.1 fallback: a spot run that ends without
/// completing (a terminated one-time request, or a horizon running out)
/// finishes its remaining work on an on-demand instance at `on_demand`,
/// paying one extra recovery replay if the job had already started.
///
/// # Errors
///
/// Same contract as [`run_job`].
pub fn run_job_with_fallback(
    future: &SpotPriceHistory,
    decision: BidDecision,
    job: &JobSpec,
    tag: u32,
    on_demand: Price,
) -> Result<JobOutcome, ClientError> {
    spotbid_engine::run_job_with_fallback(future, decision, job, tag, on_demand)
        .map_err(ClientError::from)
}

/// Runs a job against a possibly-faulty [`MarketView`] under a
/// [`RecoveryPolicy`]: the hardened counterpart of [`run_job`]. A
/// fault-free view reproduces [`run_job`] **exactly** (the chaos suite
/// asserts bit-equality); see `spotbid_engine::run_job_resilient` for the
/// full fault semantics.
///
/// # Errors
///
/// [`ClientError::Core`] for invalid jobs, [`ClientError::Billing`] for
/// pathological charges surfaced by the view.
pub fn run_job_resilient<M: MarketView>(
    view: &M,
    decision: BidDecision,
    job: &JobSpec,
    tag: u32,
    policy: &RecoveryPolicy,
) -> Result<JobOutcome, ClientError> {
    spotbid_engine::run_job_resilient(view, decision, job, tag, policy).map_err(ClientError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_market::units::{Cost, Hours};
    use spotbid_trace::history::default_slot_len;

    fn hist(prices: &[f64]) -> SpotPriceHistory {
        SpotPriceHistory::new(
            default_slot_len(),
            prices.iter().map(|&p| Price::new(p)).collect(),
        )
        .unwrap()
    }

    fn job(ts: f64, tr_s: f64) -> JobSpec {
        JobSpec::builder(ts).recovery_secs(tr_s).build().unwrap()
    }

    fn spot(bid: f64, persistent: bool) -> BidDecision {
        BidDecision::Spot {
            price: Price::new(bid),
            persistent,
        }
    }

    #[test]
    fn on_demand_run() {
        let h = hist(&[0.05]);
        let j = job(1.0, 0.0);
        let out = run_job(
            &h,
            BidDecision::OnDemand {
                price: Price::new(0.35),
            },
            &j,
            0,
        )
        .unwrap();
        assert_eq!(out.status, RunStatus::OnDemand);
        assert!((out.cost.as_f64() - 0.35).abs() < 1e-12);
        assert_eq!(out.completion_time, Hours::new(1.0));
        assert!(out.completed());
        assert_eq!(out.bid, None);
    }

    #[test]
    fn smooth_spot_run_charges_spot_prices() {
        // 15-minute job, prices below the bid throughout.
        let h = hist(&[0.03, 0.04, 0.05, 0.06]);
        let j = job(0.25, 30.0);
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.interruptions, 0);
        let expected = (0.03 + 0.04 + 0.05) / 12.0;
        assert!((out.cost.as_f64() - expected).abs() < 1e-12, "{}", out.cost);
        assert!((out.completion_time.as_f64() - 0.25).abs() < 1e-9);
        assert!(out.completed());
    }

    #[test]
    fn persistent_rides_out_interruption() {
        // Price spikes above the bid for two slots mid-job.
        let h = hist(&[0.03, 0.20, 0.20, 0.03, 0.03, 0.03, 0.03]);
        let j = job(0.25, 60.0); // 15 min work + 1 min recovery per interrupt
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.interruptions, 1);
        // Work: 5 min (slot 0) + [1 min recovery + 4 min work] + 5 min +
        // 1 min → total on-instance 16 min.
        assert!((out.running_time.as_minutes() - 16.0).abs() < 1e-9);
        assert!((out.idle_time.as_minutes() - 10.0).abs() < 1e-9);
        // Only charged while running, at the (cheap) spot price.
        assert!(out.cost.as_f64() < 0.03 * (17.0 / 60.0));
    }

    #[test]
    fn onetime_terminated_by_spike() {
        let h = hist(&[0.03, 0.20, 0.03, 0.03]);
        let j = job(0.25, 0.0);
        let out = run_job(&h, spot(0.10, false), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::TerminatedEarly);
        assert!(!out.completed());
        // Paid for the one slot it ran.
        assert!((out.cost.as_f64() - 0.03 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn onetime_rejected_at_submission() {
        let h = hist(&[0.20, 0.03]);
        let j = job(0.25, 0.0);
        let out = run_job(&h, spot(0.10, false), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::TerminatedEarly);
        assert_eq!(out.cost, Cost::ZERO);
        assert_eq!(out.interruptions, 0);
    }

    #[test]
    fn persistent_waits_for_price_to_fall() {
        let h = hist(&[0.20, 0.20, 0.03, 0.03]);
        let j = job(0.1, 0.0); // 6 minutes
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(
            out.interruptions, 0,
            "pre-start waiting is not interruption"
        );
        assert!((out.idle_time.as_minutes() - 10.0).abs() < 1e-9);
        // 6 minutes of usage at 0.03.
        assert!((out.cost.as_f64() - 0.03 * 0.1).abs() < 1e-12);
    }

    #[test]
    fn history_exhaustion_reported() {
        let h = hist(&[0.03, 0.03]);
        let j = job(1.0, 0.0); // needs 12 slots
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::HistoryExhausted);
        assert!(!out.completed());
        assert!(out.running_time.as_minutes() > 0.0);
    }

    #[test]
    fn fallback_completes_terminated_onetime() {
        // Spot spike terminates the one-time bid 5 minutes in; the
        // remaining 10 minutes (plus a recovery replay) run on demand.
        let h = hist(&[0.03, 0.20, 0.20]);
        let j = job(0.25, 60.0);
        let od = Price::new(0.35);
        let out = run_job_with_fallback(&h, spot(0.10, false), &j, 0, od).unwrap();
        assert_eq!(out.status, RunStatus::CompletedWithFallback);
        assert!(out.completed());
        assert_eq!(out.remaining_work, Hours::ZERO);
        // Cost: 5 min of spot at 0.03 + (10 min work + 1 min recovery) OD.
        let expect = 0.03 * (5.0 / 60.0) + 0.35 * (11.0 / 60.0);
        assert!((out.cost.as_f64() - expect).abs() < 1e-12, "{}", out.cost);
        // Still far cheaper than all-on-demand for the whole job? Not
        // necessarily — but never more than OD for work actually re-run.
        assert!(out.cost.as_f64() < 0.35 * 0.25 + 0.35 / 60.0 + 1e-12);
    }

    #[test]
    fn fallback_noop_when_spot_completes() {
        let h = hist(&[0.03, 0.03, 0.03, 0.03]);
        let j = job(0.25, 30.0);
        let a = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        let b = run_job_with_fallback(&h, spot(0.10, true), &j, 0, Price::new(0.35)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fallback_on_rejected_bid_pays_pure_on_demand() {
        let h = hist(&[0.20]);
        let j = job(0.25, 60.0);
        let out = run_job_with_fallback(&h, spot(0.10, false), &j, 0, Price::new(0.35)).unwrap();
        assert_eq!(out.status, RunStatus::CompletedWithFallback);
        // Never started: no recovery surcharge, the full job on demand.
        assert!((out.cost.as_f64() - 0.35 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn bid_equal_to_price_is_accepted() {
        // §3.2: bids at or above the spot price run.
        let h = hist(&[0.10, 0.10]);
        let j = job(0.1, 0.0);
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
    }

    /// Scripted faulty market for resilient-runtime tests.
    struct FaultView {
        truth: Vec<Price>,
        observed: Vec<Option<Price>>,
        reclaim: Vec<bool>,
    }

    impl FaultView {
        fn clean(prices: &[f64]) -> Self {
            FaultView {
                truth: prices.iter().map(|&p| Price::new(p)).collect(),
                observed: prices.iter().map(|&p| Some(Price::new(p))).collect(),
                reclaim: vec![false; prices.len()],
            }
        }
    }

    impl MarketView for FaultView {
        fn len(&self) -> usize {
            self.truth.len()
        }
        fn observed_price(&self, slot: usize) -> Option<Price> {
            self.observed[slot]
        }
        fn true_price(&self, slot: usize) -> Price {
            self.truth[slot]
        }
        fn reclaimed(&self, slot: usize) -> bool {
            self.reclaim[slot]
        }
    }

    fn no_fallback() -> RecoveryPolicy {
        RecoveryPolicy::default()
    }

    #[test]
    fn resilient_matches_run_job_on_clean_feed() {
        // Bit-exact parity with the plain runtime on a fault-free view,
        // across every scenario class the plain tests exercise.
        let scenarios: [(&[f64], BidDecision, f64, f64); 6] = [
            (&[0.03, 0.04, 0.05, 0.06], spot(0.10, true), 0.25, 30.0),
            (
                &[0.03, 0.20, 0.20, 0.03, 0.03, 0.03, 0.03],
                spot(0.10, true),
                0.25,
                60.0,
            ),
            (&[0.03, 0.20, 0.03, 0.03], spot(0.10, false), 0.25, 0.0),
            (&[0.20, 0.03], spot(0.10, false), 0.25, 0.0),
            (&[0.20, 0.20, 0.03, 0.03], spot(0.10, true), 0.1, 0.0),
            (&[0.03, 0.03], spot(0.10, true), 1.0, 0.0),
        ];
        for (prices, decision, ts, tr) in scenarios {
            let h = hist(prices);
            let j = job(ts, tr);
            let plain = run_job(&h, decision, &j, 0).unwrap();
            let resilient = run_job_resilient(&h, decision, &j, 0, &no_fallback()).unwrap();
            assert_eq!(plain, resilient, "diverged on {prices:?}");
            assert_eq!(resilient.reclamations, 0);
            assert_eq!(resilient.feed_outages, 0);
        }
        // On-demand decisions too.
        let h = hist(&[0.05]);
        let j = job(1.0, 0.0);
        let d = BidDecision::OnDemand {
            price: Price::new(0.35),
        };
        assert_eq!(
            run_job(&h, d, &j, 0).unwrap(),
            run_job_resilient(&h, d, &j, 0, &no_fallback()).unwrap()
        );
    }

    #[test]
    fn reclamation_interrupts_despite_low_price() {
        let mut v = FaultView::clean(&[0.03; 8]);
        v.reclaim[1] = true;
        let j = job(0.25, 60.0); // 15 min work, 1 min recovery
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &no_fallback()).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.reclamations, 1);
        assert_eq!(out.interruptions, 1, "reclaim counts as an interruption");
        // Same shape as a price-spike interruption: 16 min on-instance.
        assert!((out.running_time.as_minutes() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn too_many_reclaims_degrades_with_fallback() {
        // Reclaim every other slot forever; max_reclaims = 1.
        let n = 40;
        let mut v = FaultView::clean(&[0.03; 40]);
        for i in 0..n {
            v.reclaim[i] = i % 2 == 1;
        }
        let policy = RecoveryPolicy {
            max_reclaims: 1,
            on_demand_fallback: Some(Price::new(0.35)),
            ..RecoveryPolicy::default()
        };
        let j = job(1.0, 60.0);
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &policy).unwrap();
        assert_eq!(out.status, RunStatus::DegradedToOnDemand);
        assert!(out.completed());
        assert_eq!(out.remaining_work, Hours::ZERO);
        assert_eq!(out.reclamations, 2, "abandons spot past the budget");
        assert!(out.cost.as_f64() > 0.0 && out.cost.as_f64().is_finite());
    }

    #[test]
    fn feed_outage_is_ridden_out_within_budget() {
        let mut v = FaultView::clean(&[0.03; 8]);
        v.observed[1] = None;
        v.observed[2] = None;
        let j = job(0.25, 0.0);
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &no_fallback()).unwrap();
        // The provider honours the standing persistent request during the
        // blind slots; the run completes and the outage is just counted.
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.feed_outages, 2);
        assert_eq!(out.interruptions, 0);
    }

    #[test]
    fn long_feed_outage_is_feed_lost_without_fallback() {
        let mut v = FaultView::clean(&[0.03; 12]);
        for i in 1..8 {
            v.observed[i] = None;
        }
        let policy = RecoveryPolicy {
            max_feed_outage_slots: 2,
            ..RecoveryPolicy::default()
        };
        let j = job(1.0, 0.0);
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &policy).unwrap();
        assert_eq!(out.status, RunStatus::FeedLost);
        assert!(!out.completed());
        assert_eq!(out.feed_outages, 3, "stops at the budget, not the end");
        assert!(out.remaining_work > Hours::ZERO);
    }

    /// A policy derived from a reconnect-backoff schedule behaves exactly
    /// like the equivalent fixed budget: `max_retries` scheduled reconnect
    /// attempts ⇔ `max_retries` tolerated outage slots. The wall-clock
    /// delay sequence itself is pinned in `spotbid_numerics::backoff`.
    #[test]
    fn backoff_derived_policy_matches_fixed_budget() {
        let cfg = BackoffConfig {
            max_retries: 2,
            ..BackoffConfig::default()
        };
        let policy = RecoveryPolicy::from_backoff(&cfg);
        assert_eq!(policy.max_feed_outage_slots, 2);
        let mut v = FaultView::clean(&[0.03; 12]);
        for i in 1..8 {
            v.observed[i] = None;
        }
        let j = job(1.0, 0.0);
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &policy).unwrap();
        let fixed = RecoveryPolicy {
            max_feed_outage_slots: 2,
            ..RecoveryPolicy::default()
        };
        let out_fixed = run_job_resilient(&v, spot(0.10, true), &j, 0, &fixed).unwrap();
        assert_eq!(out, out_fixed);
        assert_eq!(out.status, RunStatus::FeedLost);
        assert_eq!(out.feed_outages, 3, "budget exhausted on the attempt after");
    }

    #[test]
    fn long_feed_outage_degrades_with_fallback() {
        let mut v = FaultView::clean(&[0.03; 12]);
        for i in 1..12 {
            v.observed[i] = None;
        }
        let policy = RecoveryPolicy {
            max_feed_outage_slots: 2,
            on_demand_fallback: Some(Price::new(0.35)),
            ..RecoveryPolicy::default()
        };
        let j = job(1.0, 60.0);
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &policy).unwrap();
        assert_eq!(out.status, RunStatus::DegradedToOnDemand);
        assert!(out.completed());
        // Runs through the first two blind slots (the provider honours the
        // standing request): 15 min on spot, then 45 min work + 1 min
        // recovery on demand.
        let expect = 3.0 * 0.03 / 12.0 + 0.35 * (46.0 / 60.0);
        assert!((out.cost.as_f64() - expect).abs() < 1e-12, "{}", out.cost);
    }

    #[test]
    fn stale_observed_spike_pauses_persistent_client() {
        // Truth stays cheap, but the client *sees* a spike in slot 1
        // (e.g. a delayed observation of an old price).
        let mut v = FaultView::clean(&[0.03; 8]);
        v.observed[1] = Some(Price::new(0.50));
        let j = job(0.25, 60.0);
        let out = run_job_resilient(&v, spot(0.10, true), &j, 0, &no_fallback()).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.interruptions, 1, "prudent self-pause on the spike");
        // One-time requests trust the provider only: no self-pause.
        let j = job(0.25, 0.0);
        let out = run_job_resilient(&v, spot(0.10, false), &j, 0, &no_fallback()).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
        assert_eq!(out.interruptions, 0);
    }

    #[test]
    fn resilient_refuses_pathological_view_prices() {
        // A view that manufactures a negative *true* price (which any bid
        // beats, so the slot is accepted and charged) must surface a typed
        // billing error, not a silently absurd bill. A NaN truth fails the
        // acceptance comparison and simply idles the slot.
        let mut v = FaultView::clean(&[0.03; 4]);
        v.truth[1] = Price::new(-0.5);
        v.observed[1] = Some(Price::new(0.03));
        let j = job(0.25, 0.0);
        let err = run_job_resilient(&v, spot(0.10, true), &j, 0, &no_fallback());
        assert!(matches!(err, Err(ClientError::Billing { .. })), "{err:?}");
    }

    #[test]
    fn final_partial_slot_charged_pro_rata() {
        let h = hist(&[0.06, 0.06]);
        let j = job(0.1, 0.0); // 6 minutes: 5 + 1
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        let expected = 0.06 * 0.1; // 6 minutes at $0.06/h
        assert!((out.cost.as_f64() - expected).abs() < 1e-12);
        assert_eq!(out.bill.items().len(), 2);
    }
}
