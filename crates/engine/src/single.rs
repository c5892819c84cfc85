//! Single-job sessions: one bidder replaying a price trace under the exact
//! EC2 spot rules of §3.2, driven by the kernel.
//!
//! The user here is a price-taker (the paper's standing assumption): the
//! price series is given, and a [`SpotJobDriver`] walks it slot by slot,
//! driving a [`crate::job_monitor::JobMonitor`] and emitting charges into
//! the billing observer. One-time requests exit on the first rejection
//! after starting (and are rejected outright if the first slot's price is
//! above the bid); persistent requests ride out interruptions.
//!
//! [`run_job`], [`run_job_with_fallback`] and [`run_job_resilient`] are
//! the workspace's one implementation of this replay: the client, the
//! experiment binaries and the fault suite call them directly. Every
//! charge is validated, so a pathological price is an
//! [`EngineError::Billing`], never a panic or a corrupt bill. The parity
//! tests in `tests/` prove the kernel-driven form is bit-identical to the
//! pre-kernel hand-rolled loops.

use crate::billing::{Bill, LineItem, UsageKind};
use crate::event::Event;
use crate::job_monitor::{JobMonitor, JobState};
use crate::kernel::{self, DriverStatus, JobDriver};
use crate::observer::BillingObserver;
use crate::source::{MarketView, PriceSource, SlotPrice, ViewSource};
use crate::EngineError;
use spotbid_core::{BidDecision, JobSpec};
use spotbid_market::units::{Cost, Hours, Price};
use spotbid_numerics::backoff::BackoffConfig;
use spotbid_trace::SpotPriceHistory;

/// How a job's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// All work completed on spot instances.
    Completed,
    /// One-time request terminated (or rejected) before completion.
    TerminatedEarly,
    /// The price series ended before the job could finish.
    HistoryExhausted,
    /// Ran on an on-demand instance (no spot involvement).
    OnDemand,
    /// Started on spot, was terminated/stranded, and finished the
    /// remainder on an on-demand instance (§5.1's "users may default to
    /// on-demand instances if the jobs are not completed").
    CompletedWithFallback,
    /// A resilient run hit its fault budget (too many reclamations or too
    /// long a price-feed outage) and gracefully degraded: the remaining
    /// work was finished on an on-demand instance.
    DegradedToOnDemand,
    /// A resilient run lost its price feed for longer than the recovery
    /// policy tolerates and had no on-demand fallback: the client can no
    /// longer manage its bid and gives up.
    FeedLost,
}

/// Full accounting of one job run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// How the run ended.
    pub status: RunStatus,
    /// Wall-clock time from submission to completion (or to the end of the
    /// run for non-completed jobs).
    pub completion_time: Hours,
    /// Time on instances (execution + recovery replays).
    pub running_time: Hours,
    /// Idle time (outbid after starting) plus pre-start waiting.
    pub idle_time: Hours,
    /// Interruptions suffered.
    pub interruptions: u32,
    /// Total cost.
    pub cost: Cost,
    /// Itemized charges.
    pub bill: Bill,
    /// The price actually bid (`None` for on-demand runs).
    pub bid: Option<Price>,
    /// Execution work still undone when the run ended (zero when
    /// completed).
    pub remaining_work: Hours,
    /// Bid-independent capacity reclamations suffered while running
    /// (always zero outside the resilient runtime).
    pub reclamations: u32,
    /// Slots during which the price feed was unobservable (always zero
    /// outside the resilient runtime).
    pub feed_outages: u32,
}

impl JobOutcome {
    /// Whether the job's work was completed (on spot or on demand).
    pub fn completed(&self) -> bool {
        matches!(
            self.status,
            RunStatus::Completed
                | RunStatus::OnDemand
                | RunStatus::CompletedWithFallback
                | RunStatus::DegradedToOnDemand
        )
    }
}

/// How much degradation a resilient run tolerates before giving up on
/// spot, and what it falls back to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Consecutive feed-outage slots tolerated before the client declares
    /// the feed lost.
    pub max_feed_outage_slots: u32,
    /// Capacity reclamations tolerated before the client abandons spot.
    pub max_reclaims: u32,
    /// On-demand price to finish the job at when the fault budget is
    /// exhausted (or the run otherwise fails to complete). `None` means no
    /// fallback: the run reports its failure status instead.
    pub on_demand_fallback: Option<Price>,
}

impl RecoveryPolicy {
    /// Derives a policy from a reconnect-backoff schedule: the slot-driven
    /// replay tolerates one feed-outage slot per scheduled reconnect
    /// attempt, declaring the feed lost exactly when a real client sleeping
    /// through `cfg`'s delays (the serve crate's `FeedClient`) would have
    /// exhausted its retries. This is what keeps the simulated budget and
    /// the wall-clock reconnect loop a single implementation — change the
    /// schedule in [`BackoffConfig`], and both move together.
    pub fn from_backoff(cfg: &BackoffConfig) -> Self {
        RecoveryPolicy {
            max_feed_outage_slots: cfg.max_retries,
            max_reclaims: 4,
            on_demand_fallback: None,
        }
    }
}

impl Default for RecoveryPolicy {
    /// The default feed-outage budget is not a free-standing constant: it
    /// is the retry count of the workspace's default reconnect schedule,
    /// [`BackoffConfig::default`] (3 retries, 100 ms doubling to a 2 s cap).
    fn default() -> Self {
        Self::from_backoff(&BackoffConfig::default())
    }
}

/// One spot bidder advanced by the kernel: the §3.2 accept/terminate rules
/// plus the resilient runtime's fault budgets.
///
/// On a fault-free view with a [`RecoveryPolicy::default`] this reduces
/// exactly to the plain §3.2 replay (observation equals truth, no
/// reclamations, no outages), which is why one driver serves both
/// [`run_job`] and [`run_job_resilient`].
#[derive(Debug)]
pub struct SpotJobDriver {
    monitor: JobMonitor,
    bid: Price,
    persistent: bool,
    policy: RecoveryPolicy,
    tag: u32,
    status: RunStatus,
    reclamations: u32,
    feed_outages: u32,
    consecutive_outages: u32,
}

impl SpotJobDriver {
    /// A driver for one (validated) job bidding `bid`.
    pub fn new(
        job: JobSpec,
        bid: Price,
        persistent: bool,
        policy: RecoveryPolicy,
        tag: u32,
    ) -> Self {
        SpotJobDriver {
            monitor: JobMonitor::new(job),
            bid,
            persistent,
            policy,
            tag,
            status: RunStatus::HistoryExhausted,
            reclamations: 0,
            feed_outages: 0,
            consecutive_outages: 0,
        }
    }

    /// The run status so far (final once the session stops).
    pub fn status(&self) -> RunStatus {
        self.status
    }

    /// Folds the driver's final state and the accumulated bill into a
    /// [`JobOutcome`].
    pub fn into_outcome(self, bill: Bill) -> JobOutcome {
        JobOutcome {
            status: self.status,
            completion_time: self.monitor.elapsed(),
            running_time: self.monitor.running_time(),
            idle_time: self.monitor.idle_time() + self.monitor.waiting_time(),
            interruptions: self.monitor.interruptions(),
            cost: bill.total(),
            bill,
            bid: Some(self.bid),
            remaining_work: self.monitor.remaining_work(),
            reclamations: self.reclamations,
            feed_outages: self.feed_outages,
        }
    }
}

impl<S: PriceSource<Quote = SlotPrice>> JobDriver<S> for SpotJobDriver {
    fn on_slot(
        &mut self,
        slot: u64,
        quote: &SlotPrice,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        let tenant = self.tag;
        let SlotPrice {
            truth,
            observed,
            reclaimed,
        } = *quote;
        if observed.is_none() {
            self.feed_outages += 1;
            self.consecutive_outages += 1;
            emit(Event::FeedOutage { slot, tenant });
            if self.consecutive_outages > self.policy.max_feed_outage_slots {
                if self.policy.on_demand_fallback.is_none() {
                    self.status = RunStatus::FeedLost;
                }
                return Ok(DriverStatus::Done);
            }
        } else {
            self.consecutive_outages = 0;
        }
        let pre_state = self.monitor.state();
        let started = pre_state != JobState::Waiting;
        if reclaimed && pre_state == JobState::Running {
            self.reclamations += 1;
            emit(Event::Reclaimed { slot, tenant });
        }
        let provider_ok = self.bid >= truth && !reclaimed;
        let accepted = if self.persistent {
            // Self-pause on an observed spike; ride through outages (the
            // provider still honours the standing request).
            provider_ok && observed.is_none_or(|o| self.bid >= o)
        } else {
            provider_ok
        };
        if !accepted && !self.persistent {
            if started {
                // A running/idle one-time request with the price above its
                // bid is terminated by the provider and exits the system.
                let event = self.monitor.advance(false);
                if event.interrupted {
                    emit(Event::Interrupted { slot, tenant });
                }
            } else {
                // A one-time request submitted below the current spot
                // price is rejected outright (§3.2).
                emit(Event::Rejected { slot, tenant });
            }
            self.status = RunStatus::TerminatedEarly;
            return Ok(DriverStatus::Done);
        }
        let event = self.monitor.advance(accepted);
        if accepted && pre_state != JobState::Running {
            emit(Event::BidAccepted { slot, tenant });
        }
        if event.interrupted {
            emit(Event::Interrupted { slot, tenant });
        }
        if event.used > Hours::ZERO {
            // Charged at the *true* spot price for the time actually used
            // (the model's per-slot charging; partial final slots are
            // charged pro-rata).
            emit(Event::Charged {
                item: LineItem {
                    slot,
                    price: truth,
                    duration: event.used,
                    kind: UsageKind::Spot,
                    tag: tenant,
                },
            });
        }
        if event.finished {
            self.status = RunStatus::Completed;
            emit(Event::Completed { slot, tenant });
            return Ok(DriverStatus::Done);
        }
        if self.policy.on_demand_fallback.is_some() && self.reclamations > self.policy.max_reclaims
        {
            return Ok(DriverStatus::Done);
        }
        Ok(DriverStatus::Active)
    }
}

/// An on-demand run: the whole job at `price`, no spot involvement.
fn on_demand_outcome(price: Price, job: &JobSpec, tag: u32) -> Result<JobOutcome, EngineError> {
    let mut bill = Bill::new();
    bill.try_charge_on_demand(0, price, job.execution, tag)?;
    Ok(JobOutcome {
        status: RunStatus::OnDemand,
        completion_time: job.execution,
        running_time: job.execution,
        idle_time: Hours::ZERO,
        interruptions: 0,
        cost: bill.total(),
        bill,
        bid: None,
        remaining_work: Hours::ZERO,
        reclamations: 0,
        feed_outages: 0,
    })
}

/// Runs a spot session over `view` through the kernel.
fn run_spot_session<M: MarketView + ?Sized>(
    view: &M,
    bid: Price,
    persistent: bool,
    job: &JobSpec,
    tag: u32,
    policy: RecoveryPolicy,
) -> Result<JobOutcome, EngineError> {
    let mut driver = SpotJobDriver::new(*job, bid, persistent, policy, tag);
    let mut billing = BillingObserver::new();
    kernel::run(
        &mut ViewSource::new(view),
        &mut driver,
        &mut [&mut billing],
        None,
    )?;
    Ok(driver.into_outcome(billing.into_bill()))
}

/// Finishes a run that ended without completing on an on-demand instance
/// at `price`: the remaining work, plus one recovery replay if the job had
/// started, charged at `slot` (the first slot after the spot portion).
fn finish_on_demand(
    mut out: JobOutcome,
    job: &JobSpec,
    tag: u32,
    slot: u64,
    price: Price,
    status: RunStatus,
) -> Result<JobOutcome, EngineError> {
    let started = out.running_time > Hours::ZERO;
    let fallback_work = out.remaining_work + if started { job.recovery } else { Hours::ZERO };
    out.bill
        .try_charge_on_demand(slot, price, fallback_work, tag)?;
    out.status = status;
    out.completion_time += fallback_work;
    out.running_time += fallback_work;
    out.cost = out.bill.total();
    out.remaining_work = Hours::ZERO;
    Ok(out)
}

/// Runs a job against `future` starting at its first slot, under the given
/// decision. The billing `tag` labels line items (use distinct tags for
/// MapReduce nodes).
///
/// # Errors
///
/// [`EngineError::Core`] for invalid jobs, [`EngineError::Billing`] for a
/// pathological on-demand price.
pub fn run_job(
    future: &SpotPriceHistory,
    decision: BidDecision,
    job: &JobSpec,
    tag: u32,
) -> Result<JobOutcome, EngineError> {
    job.validate()?;
    match decision {
        BidDecision::OnDemand { price } => on_demand_outcome(price, job, tag),
        BidDecision::Spot { price, persistent } => {
            // A clean history never has outages or reclamations, so the
            // default fault budgets are inert and this is the plain §3.2
            // replay.
            run_spot_session(
                future,
                price,
                persistent,
                job,
                tag,
                RecoveryPolicy::default(),
            )
        }
    }
}

/// Runs a job with the §5.1 fallback: a spot run that ends without
/// completing (a terminated one-time request, or a horizon running out)
/// finishes its remaining work on an on-demand instance at `on_demand`,
/// paying one extra recovery replay if the job had already started.
///
/// # Errors
///
/// Same contract as [`run_job`]; a pathological `on_demand` price is an
/// [`EngineError::Billing`] once the fallback charges it.
pub fn run_job_with_fallback(
    future: &SpotPriceHistory,
    decision: BidDecision,
    job: &JobSpec,
    tag: u32,
    on_demand: Price,
) -> Result<JobOutcome, EngineError> {
    let out = run_job(future, decision, job, tag)?;
    if out.completed() {
        return Ok(out);
    }
    finish_on_demand(
        out,
        job,
        tag,
        future.len() as u64,
        on_demand,
        RunStatus::CompletedWithFallback,
    )
}

/// Runs a job against a possibly-faulty [`MarketView`] under a
/// [`RecoveryPolicy`]: the hardened counterpart of [`run_job`].
///
/// Semantics, chosen so that a fault-free view reproduces [`run_job`]
/// **exactly** (the chaos suite asserts bit-equality):
///
/// * Provider acceptance uses the *true* price (`bid >= truth`) and is
///   vetoed by a capacity reclamation.
/// * A persistent client additionally self-pauses (checkpoints and lets
///   the slot go idle) whenever it *observes* a price above its bid —
///   prudent when the observation may be stale. With a clean feed,
///   observation equals truth, so this changes nothing.
/// * Feed outages (no observable price) are counted; once more than
///   `max_feed_outage_slots` run consecutively, the client can no longer
///   manage its bid and stops — degrading to on-demand if the policy has a
///   fallback, else ending with [`RunStatus::FeedLost`].
/// * Reclamations while running are counted; past `max_reclaims` (with a
///   fallback configured) the client abandons spot and degrades.
/// * With a fallback configured, any non-completed ending degrades to
///   on-demand (finishing `remaining_work`, plus one recovery replay if
///   the job had started), mirroring [`run_job_with_fallback`].
///
/// As everywhere in this module, a view that manufactures pathological
/// prices yields [`EngineError::Billing`], never a corrupt bill.
///
/// # Errors
///
/// [`EngineError::Core`] for invalid jobs, [`EngineError::Billing`] for
/// pathological charges surfaced by the view.
pub fn run_job_resilient<M: MarketView>(
    view: &M,
    decision: BidDecision,
    job: &JobSpec,
    tag: u32,
    policy: &RecoveryPolicy,
) -> Result<JobOutcome, EngineError> {
    job.validate()?;
    let (bid, persistent) = match decision {
        BidDecision::OnDemand { price } => return on_demand_outcome(price, job, tag),
        BidDecision::Spot { price, persistent } => (price, persistent),
    };
    let out = run_spot_session(view, bid, persistent, job, tag, *policy)?;
    match policy.on_demand_fallback {
        Some(od) if !out.completed() && out.status != RunStatus::FeedLost => finish_on_demand(
            out,
            job,
            tag,
            view.len() as u64,
            od,
            RunStatus::DegradedToOnDemand,
        ),
        _ => Ok(out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn pathological_on_demand_prices_are_billing_errors() {
        let nan = Price::new(f64::NAN);
        let h = hist(&[0.03, 0.20, 0.20]);
        let j = job(0.25, 60.0);
        let r = run_job(&h, BidDecision::OnDemand { price: nan }, &j, 0);
        assert!(matches!(r, Err(EngineError::Billing { .. })), "{r:?}");
        // The one-time bid is terminated by the spike, so the fallback
        // charges the NaN price for the remaining work.
        let r = run_job_with_fallback(&h, spot(0.10, false), &j, 0, nan);
        assert!(matches!(r, Err(EngineError::Billing { .. })), "{r:?}");
        // A run that completes on spot never charges its fallback price.
        let clean = hist(&[0.03; 4]);
        assert!(run_job_with_fallback(&clean, spot(0.10, true), &j, 0, nan).is_ok());
    }

    #[test]
    fn bid_equal_to_price_is_accepted() {
        // §3.2: bids at or above the spot price run.
        let h = hist(&[0.10, 0.10]);
        let j = job(0.1, 0.0);
        let out = run_job(&h, spot(0.10, true), &j, 0).unwrap();
        assert_eq!(out.status, RunStatus::Completed);
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

    #[test]
    fn recovery_policy_budget_derives_from_backoff_schedule() {
        // The default budget IS the default reconnect schedule's retry count.
        let default_cfg = BackoffConfig::default();
        assert_eq!(
            RecoveryPolicy::default().max_feed_outage_slots,
            default_cfg.max_retries
        );
        assert_eq!(
            RecoveryPolicy::default(),
            RecoveryPolicy::from_backoff(&default_cfg)
        );
        // A longer schedule buys a proportionally longer outage budget.
        let patient = BackoffConfig {
            max_retries: 7,
            ..BackoffConfig::default()
        };
        assert_eq!(
            RecoveryPolicy::from_backoff(&patient).max_feed_outage_slots,
            7
        );
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
        assert!(matches!(err, Err(EngineError::Billing { .. })), "{err:?}");
    }

    #[test]
    fn driver_emits_lifecycle_events() {
        use crate::observer::EventLog;
        let h = hist(&[0.20, 0.03, 0.20, 0.03, 0.03]);
        let j = job(0.15, 60.0); // 9 min: needs 2 accepted slots
        let mut driver =
            SpotJobDriver::new(j, Price::new(0.10), true, RecoveryPolicy::default(), 5);
        let mut log = EventLog::new();
        kernel::run(&mut ViewSource::new(&h), &mut driver, &mut [&mut log], None).unwrap();
        let kinds: Vec<&Event> = log
            .events()
            .iter()
            .filter(|e| e.tenant() == Some(5))
            .collect();
        // Waits (slot 0), accepted (slot 1), interrupted (slot 2),
        // re-accepted (slot 3), completed (slot 4).
        assert!(
            matches!(kinds[0], Event::BidAccepted { slot: 1, .. }),
            "{kinds:?}"
        );
        assert!(kinds
            .iter()
            .any(|e| matches!(e, Event::Interrupted { slot: 2, .. })));
        assert!(kinds
            .iter()
            .any(|e| matches!(e, Event::BidAccepted { slot: 3, .. })));
        assert!(kinds.iter().any(|e| matches!(e, Event::Completed { .. })));
        assert!(kinds.iter().any(|e| matches!(e, Event::Charged { .. })));
    }
}
