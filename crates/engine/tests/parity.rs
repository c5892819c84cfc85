//! Bit-for-bit parity of the kernel-backed runtimes against frozen copies
//! of the pre-kernel implementations.
//!
//! The `legacy` module below is the pre-kernel replay loop of the bidding
//! client, copied verbatim (modulo the billing/monitor types now living in
//! this crate) and never to be edited again: it is the ground
//! truth the kernel inversion must reproduce exactly — same statuses, same
//! line items, same monitor timings — across randomized traces, fault
//! scripts, and job shapes.

use spotbid_core::{BidDecision, JobSpec};
use spotbid_engine::{EngineError, MarketView, RecoveryPolicy, RunStatus};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::Rng;
use spotbid_trace::SpotPriceHistory;

/// Frozen pre-kernel implementations. Do not modify: parity against this
/// module is the refactor's acceptance criterion.
mod legacy {
    use spotbid_core::{BidDecision, JobSpec};
    use spotbid_engine::billing::Bill;
    use spotbid_engine::job_monitor::{JobMonitor, JobState};
    use spotbid_engine::{EngineError, JobOutcome, MarketView, RecoveryPolicy, RunStatus};
    use spotbid_market::units::{Hours, Price};
    use spotbid_trace::SpotPriceHistory;

    pub fn run_job(
        future: &SpotPriceHistory,
        decision: BidDecision,
        job: &JobSpec,
        tag: u32,
    ) -> Result<JobOutcome, EngineError> {
        job.validate()?;
        match decision {
            BidDecision::OnDemand { price } => {
                let mut bill = Bill::new();
                bill.try_charge_on_demand(0, price, job.execution, tag)
                    .unwrap();
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
            BidDecision::Spot { price, persistent } => {
                run_spot(future, price, persistent, job, tag)
            }
        }
    }

    fn run_spot(
        future: &SpotPriceHistory,
        bid: Price,
        persistent: bool,
        job: &JobSpec,
        tag: u32,
    ) -> Result<JobOutcome, EngineError> {
        let mut monitor = JobMonitor::new(*job);
        let mut bill = Bill::new();
        let mut status = RunStatus::HistoryExhausted;
        for (slot, &spot) in future.prices().iter().enumerate() {
            let accepted = bid >= spot;
            let started = monitor.state() != JobState::Waiting;
            if !accepted && !persistent && started {
                monitor.advance(false);
                status = RunStatus::TerminatedEarly;
                break;
            }
            if !accepted && !persistent && !started {
                status = RunStatus::TerminatedEarly;
                break;
            }
            let event = monitor.advance(accepted);
            if event.used > Hours::ZERO {
                bill.try_charge_spot(slot as u64, spot, event.used, tag)
                    .unwrap();
            }
            if event.finished {
                status = RunStatus::Completed;
                break;
            }
        }
        Ok(JobOutcome {
            status,
            completion_time: monitor.elapsed(),
            running_time: monitor.running_time(),
            idle_time: monitor.idle_time() + monitor.waiting_time(),
            interruptions: monitor.interruptions(),
            cost: bill.total(),
            bill,
            bid: Some(bid),
            remaining_work: monitor.remaining_work(),
            reclamations: 0,
            feed_outages: 0,
        })
    }

    pub fn run_job_with_fallback(
        future: &SpotPriceHistory,
        decision: BidDecision,
        job: &JobSpec,
        tag: u32,
        on_demand: Price,
    ) -> Result<JobOutcome, EngineError> {
        let mut out = run_job(future, decision, job, tag)?;
        if out.completed() {
            return Ok(out);
        }
        let started = out.running_time > Hours::ZERO;
        let fallback_work = out.remaining_work + if started { job.recovery } else { Hours::ZERO };
        out.bill
            .try_charge_on_demand(future.len() as u64, on_demand, fallback_work, tag)
            .unwrap();
        out.status = RunStatus::CompletedWithFallback;
        out.completion_time += fallback_work;
        out.running_time += fallback_work;
        out.cost = out.bill.total();
        out.remaining_work = Hours::ZERO;
        Ok(out)
    }

    pub fn run_job_resilient<M: MarketView>(
        view: &M,
        decision: BidDecision,
        job: &JobSpec,
        tag: u32,
        policy: &RecoveryPolicy,
    ) -> Result<JobOutcome, EngineError> {
        job.validate()?;
        let (bid, persistent) = match decision {
            BidDecision::OnDemand { price } => {
                let mut bill = Bill::new();
                bill.try_charge_on_demand(0, price, job.execution, tag)?;
                return Ok(JobOutcome {
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
                });
            }
            BidDecision::Spot { price, persistent } => (price, persistent),
        };
        let mut monitor = JobMonitor::new(*job);
        let mut bill = Bill::new();
        let mut status = RunStatus::HistoryExhausted;
        let mut reclamations = 0u32;
        let mut feed_outages = 0u32;
        let mut consecutive_outages = 0u32;
        for slot in 0..view.len() {
            let truth = view.true_price(slot);
            let observed = view.observed_price(slot);
            let reclaimed = view.reclaimed(slot);
            if observed.is_none() {
                feed_outages += 1;
                consecutive_outages += 1;
                if consecutive_outages > policy.max_feed_outage_slots {
                    if policy.on_demand_fallback.is_none() {
                        status = RunStatus::FeedLost;
                    }
                    break;
                }
            } else {
                consecutive_outages = 0;
            }
            let started = monitor.state() != JobState::Waiting;
            if reclaimed && monitor.state() == JobState::Running {
                reclamations += 1;
            }
            let provider_ok = bid >= truth && !reclaimed;
            let accepted = if persistent {
                provider_ok && observed.is_none_or(|o| bid >= o)
            } else {
                provider_ok
            };
            if !accepted && !persistent && started {
                monitor.advance(false);
                status = RunStatus::TerminatedEarly;
                break;
            }
            if !accepted && !persistent && !started {
                status = RunStatus::TerminatedEarly;
                break;
            }
            let event = monitor.advance(accepted);
            if event.used > Hours::ZERO {
                bill.try_charge_spot(slot as u64, truth, event.used, tag)?;
            }
            if event.finished {
                status = RunStatus::Completed;
                break;
            }
            if policy.on_demand_fallback.is_some() && reclamations > policy.max_reclaims {
                break;
            }
        }
        let mut out = JobOutcome {
            status,
            completion_time: monitor.elapsed(),
            running_time: monitor.running_time(),
            idle_time: monitor.idle_time() + monitor.waiting_time(),
            interruptions: monitor.interruptions(),
            cost: bill.total(),
            bill,
            bid: Some(bid),
            remaining_work: monitor.remaining_work(),
            reclamations,
            feed_outages,
        };
        if !out.completed() && out.status != RunStatus::FeedLost {
            if let Some(od) = policy.on_demand_fallback {
                let started = out.running_time > Hours::ZERO;
                let fallback_work =
                    out.remaining_work + if started { job.recovery } else { Hours::ZERO };
                out.bill
                    .try_charge_on_demand(view.len() as u64, od, fallback_work, tag)?;
                out.status = RunStatus::DegradedToOnDemand;
                out.completion_time += fallback_work;
                out.running_time += fallback_work;
                out.cost = out.bill.total();
                out.remaining_work = Hours::ZERO;
            }
        }
        Ok(out)
    }
}

/// A scripted faulty market: randomized outages, reclamations, and
/// observation/truth divergence.
struct ScriptedView {
    truth: Vec<Price>,
    observed: Vec<Option<Price>>,
    reclaim: Vec<bool>,
}

impl MarketView for ScriptedView {
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

/// A random spot trace around a 0.10 bid: mostly cheap slots with
/// occasional spikes, so every status class gets exercised.
fn random_prices(rng: &mut Rng, len: usize) -> Vec<f64> {
    (0..len)
        .map(|_| {
            if rng.chance(0.2) {
                rng.range_f64(0.11, 0.50) // spike above the bid
            } else {
                rng.range_f64(0.01, 0.10)
            }
        })
        .collect()
}

fn history(prices: &[f64]) -> SpotPriceHistory {
    SpotPriceHistory::new(
        Hours::from_minutes(5.0),
        prices.iter().copied().map(Price::new).collect(),
    )
    .unwrap()
}

fn random_view(rng: &mut Rng, len: usize) -> ScriptedView {
    let truth = random_prices(rng, len);
    let observed = truth
        .iter()
        .map(|&p| {
            if rng.chance(0.15) {
                None // feed outage
            } else if rng.chance(0.1) {
                Some(Price::new(rng.range_f64(0.01, 0.50))) // stale/diverged
            } else {
                Some(Price::new(p))
            }
        })
        .collect();
    let reclaim = (0..len).map(|_| rng.chance(0.05)).collect();
    ScriptedView {
        truth: truth.into_iter().map(Price::new).collect(),
        observed,
        reclaim,
    }
}

fn job_shapes() -> Vec<JobSpec> {
    vec![
        JobSpec::builder(0.25).recovery_secs(30.0).build().unwrap(),
        JobSpec::builder(1.0).recovery_secs(120.0).build().unwrap(),
        JobSpec::builder(0.1).build().unwrap(),
        JobSpec::builder(3.0)
            .recovery_secs(300.0)
            .overhead_secs(60.0)
            .build()
            .unwrap(),
    ]
}

fn decisions() -> Vec<BidDecision> {
    vec![
        BidDecision::Spot {
            price: Price::new(0.10),
            persistent: true,
        },
        BidDecision::Spot {
            price: Price::new(0.10),
            persistent: false,
        },
        BidDecision::Spot {
            price: Price::new(0.02),
            persistent: true,
        },
        BidDecision::OnDemand {
            price: Price::new(0.35),
        },
    ]
}

#[test]
fn run_job_matches_legacy_on_random_traces() {
    let mut statuses = std::collections::BTreeSet::new();
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(0xFACE ^ seed);
        let h = history(&random_prices(&mut rng, 80));
        for job in &job_shapes() {
            for &decision in &decisions() {
                let new = spotbid_engine::run_job(&h, decision, job, 3).unwrap();
                let old = legacy::run_job(&h, decision, job, 3).unwrap();
                assert_eq!(new, old, "seed {seed}, job {job:?}, {decision:?}");
                statuses.insert(format!("{:?}", new.status));
            }
        }
    }
    // The sweep must actually exercise every non-fault status class.
    for s in [
        "Completed",
        "TerminatedEarly",
        "HistoryExhausted",
        "OnDemand",
    ] {
        assert!(statuses.contains(s), "sweep never produced {s}");
    }
}

#[test]
fn run_job_with_fallback_matches_legacy() {
    for seed in 0..25u64 {
        let mut rng = Rng::seed_from_u64(0xBEEF ^ seed);
        let h = history(&random_prices(&mut rng, 30));
        let od = Price::new(0.35);
        for job in &job_shapes() {
            for &decision in &decisions() {
                let new = spotbid_engine::run_job_with_fallback(&h, decision, job, 0, od).unwrap();
                let old = legacy::run_job_with_fallback(&h, decision, job, 0, od).unwrap();
                assert_eq!(new, old, "seed {seed}, job {job:?}, {decision:?}");
            }
        }
    }
}

#[test]
fn run_job_resilient_matches_legacy_on_random_fault_scripts() {
    let policies = [
        RecoveryPolicy::default(),
        RecoveryPolicy {
            max_feed_outage_slots: 1,
            max_reclaims: 0,
            on_demand_fallback: Some(Price::new(0.35)),
        },
        RecoveryPolicy {
            max_feed_outage_slots: 0,
            max_reclaims: 2,
            on_demand_fallback: None,
        },
    ];
    let mut statuses = std::collections::BTreeSet::new();
    for seed in 0..40u64 {
        let mut rng = Rng::seed_from_u64(0xD00D ^ seed);
        let view = random_view(&mut rng, 60);
        for job in &job_shapes() {
            for &decision in &decisions() {
                for policy in &policies {
                    let new =
                        spotbid_engine::run_job_resilient(&view, decision, job, 1, policy).unwrap();
                    let old = legacy::run_job_resilient(&view, decision, job, 1, policy).unwrap();
                    assert_eq!(
                        new, old,
                        "seed {seed}, job {job:?}, {decision:?}, {policy:?}"
                    );
                    statuses.insert(format!("{:?}", new.status));
                }
            }
        }
    }
    for s in [
        "Completed",
        "FeedLost",
        "DegradedToOnDemand",
        "TerminatedEarly",
    ] {
        assert!(statuses.contains(s), "fault sweep never produced {s}");
    }
}

#[test]
fn resilient_error_parity_on_pathological_views() {
    // A negative true price is accepted (any bid beats it) and must be
    // refused by validated billing in both implementations.
    let mut view = ScriptedView {
        truth: vec![Price::new(0.03); 4],
        observed: vec![Some(Price::new(0.03)); 4],
        reclaim: vec![false; 4],
    };
    view.truth[1] = Price::new(-0.5);
    let job = JobSpec::builder(0.25).build().unwrap();
    let decision = BidDecision::Spot {
        price: Price::new(0.10),
        persistent: true,
    };
    let new =
        spotbid_engine::run_job_resilient(&view, decision, &job, 0, &RecoveryPolicy::default());
    let old = legacy::run_job_resilient(&view, decision, &job, 0, &RecoveryPolicy::default());
    assert!(matches!(new, Err(EngineError::Billing { .. })), "{new:?}");
    match (new, old) {
        (Err(e_new), Err(e_old)) => assert_eq!(e_new.to_string(), e_old.to_string()),
        (a, b) => panic!("divergent results: {a:?} vs {b:?}"),
    }
}

#[test]
fn zero_length_histories_are_benign() {
    // Both implementations treat an exhausted-from-the-start trace the
    // same way (no charge, HistoryExhausted) — the kernel stops on source
    // exhaustion before any driver hook runs.
    let h = history(&[0.05]);
    let short = h.slice(0, 0);
    // SpotPriceHistory refuses empty series at construction; slicing to
    // zero is the only way to observe the boundary, and it errors too.
    assert!(short.is_err());
    let job = JobSpec::builder(0.5).build().unwrap();
    let decision = BidDecision::Spot {
        price: Price::new(0.10),
        persistent: true,
    };
    let out = spotbid_engine::run_job(&h, decision, &job, 0).unwrap();
    let old = legacy::run_job(&h, decision, &job, 0).unwrap();
    assert_eq!(out, old);
    assert_eq!(out.status, RunStatus::HistoryExhausted);
}
