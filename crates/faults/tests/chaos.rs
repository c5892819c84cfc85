//! The chaos invariant suite: every hardened subsystem, driven by seeded
//! fault schedules, must (a) keep its invariants — bills stay sane, state
//! machines stay legal, MapReduce answers stay correct — and (b) remain a
//! pure function of `(seed, fault_seed, n)`, bit-identical at any thread
//! count.
//!
//! The base fault seed is pinned via `SPOTBID_FAULT_SEED` in CI so the
//! 1-thread and 4-thread chaos-smoke runs exercise the same schedules.

use spotbid_core::checkpoint::{replay_once_faulty, CheckpointSpec};
use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::{BidDecision, JobSpec};
use spotbid_engine::job_monitor::{JobMonitor, JobState};
use spotbid_engine::{run_job, run_job_resilient, JobOutcome, RecoveryPolicy, RunStatus};
use spotbid_exec::{par_trials, with_threads};
use spotbid_faults::{
    chaos_availability, checkpoint_fault_rng, checkpoint_faults, corrupt_records, FaultConfig,
    FaultSchedule, FaultyMarket,
};
use spotbid_mapred::engine::run_local;
use spotbid_mapred::schedule::{simulate, ScheduleConfig, ScheduleStatus};
use spotbid_mapred::spot::build_tasks;
use spotbid_mapred::{Corpus, CorpusConfig, WordCount};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::Rng;
use spotbid_trace::catalog;
use spotbid_trace::ingest::{ingest_repair, ingest_strict};
use spotbid_trace::synthetic::{generate, SyntheticConfig};
use spotbid_trace::SpotPriceHistory;

/// Base fault seed: pinned in CI via `SPOTBID_FAULT_SEED` so runs at
/// different thread counts replay the same schedules.
fn base_fault_seed() -> u64 {
    std::env::var("SPOTBID_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC1A05)
}

fn market_history(seed: u64, n_slots: usize) -> SpotPriceHistory {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    generate(&cfg, n_slots, &mut Rng::seed_from_u64(seed)).unwrap()
}

fn job() -> JobSpec {
    JobSpec::builder(2.0).recovery_secs(30.0).build().unwrap()
}

fn status_code(s: RunStatus) -> u64 {
    match s {
        RunStatus::Completed => 0,
        RunStatus::TerminatedEarly => 1,
        RunStatus::HistoryExhausted => 2,
        RunStatus::OnDemand => 3,
        RunStatus::CompletedWithFallback => 4,
        RunStatus::DegradedToOnDemand => 5,
        RunStatus::FeedLost => 6,
    }
}

fn outcome_digest(out: &JobOutcome) -> Vec<u64> {
    vec![
        status_code(out.status),
        out.cost.as_f64().to_bits(),
        out.completion_time.as_f64().to_bits(),
        out.running_time.as_f64().to_bits(),
        out.idle_time.as_f64().to_bits(),
        out.remaining_work.as_f64().to_bits(),
        u64::from(out.interruptions),
        u64::from(out.reclamations),
        u64::from(out.feed_outages),
        out.bill.items().len() as u64,
    ]
}

/// Billing invariants that must hold under any fault schedule: every line
/// item finite and non-negative (so the accrual is monotone), and the
/// outcome's cost equal to the bill's total.
fn assert_bill_sane(out: &JobOutcome) {
    let mut running = 0.0;
    for item in out.bill.items() {
        let amount = item.amount().as_f64();
        assert!(
            amount.is_finite() && amount >= 0.0,
            "pathological line item {amount} leaked into a bill"
        );
        let next = running + amount;
        assert!(next >= running, "billing accrual went backwards");
        running = next;
    }
    let total = out.bill.total().as_f64();
    assert!(total.is_finite() && total >= 0.0);
    assert_eq!(
        out.cost.as_f64().to_bits(),
        total.to_bits(),
        "outcome cost diverged from its own bill"
    );
}

/// Terminal-status legality relative to the recovery policy in force.
fn assert_status_legal(out: &JobOutcome, policy: &RecoveryPolicy) {
    if out.completed() {
        assert_eq!(out.remaining_work, Hours::ZERO);
    } else {
        assert!(out.remaining_work > Hours::ZERO);
    }
    match out.status {
        RunStatus::FeedLost => assert!(
            policy.on_demand_fallback.is_none(),
            "FeedLost with a fallback configured"
        ),
        RunStatus::DegradedToOnDemand => assert!(
            policy.on_demand_fallback.is_some(),
            "degraded without a fallback"
        ),
        RunStatus::TerminatedEarly | RunStatus::HistoryExhausted => assert!(
            policy.on_demand_fallback.is_none(),
            "a fallback policy must finish the work"
        ),
        _ => {}
    }
}

#[test]
fn one_fault_seed_exhibits_at_least_six_kinds() {
    let sched = FaultSchedule::generate(base_fault_seed(), 2000, 8, &FaultConfig::default());
    let kinds = sched.kinds_present();
    assert!(
        kinds.len() >= 6,
        "chaos config too tame: only {kinds:?} from seed {}",
        base_fault_seed()
    );
}

#[test]
fn zero_fault_chaos_is_bit_identical_to_the_clean_run() {
    let h = market_history(42, 600);
    let sched = FaultSchedule::generate(base_fault_seed(), 600, 0, &FaultConfig::NONE);
    let view = FaultyMarket::new(&h, &sched);
    let job = job();
    let policy = RecoveryPolicy::default();
    for persistent in [true, false] {
        for bid in [h.min_price(), h.mean_price(), h.max_price()] {
            let decision = BidDecision::Spot {
                price: bid,
                persistent,
            };
            let clean = run_job(&h, decision, &job, 0).unwrap();
            let chaotic = run_job_resilient(&view, decision, &job, 0, &policy).unwrap();
            assert_eq!(clean, chaotic, "zero faults must change nothing");
        }
    }
}

#[test]
fn zero_fault_records_ingest_back_to_the_same_history() {
    let h = market_history(42, 400);
    let sched = FaultSchedule::generate(base_fault_seed(), 400, 0, &FaultConfig::NONE);
    let records = corrupt_records(&h, &sched);
    let strict = ingest_strict(&records, h.slot_len()).unwrap();
    let (repaired, report) = ingest_repair(&records, h.slot_len()).unwrap();
    assert!(report.is_clean(), "clean feed reported faults: {report:?}");
    assert_eq!(strict.raw(), h.raw());
    assert_eq!(repaired.raw(), h.raw());
}

#[test]
fn corrupted_feed_is_rejected_strictly_and_recovered_leniently() {
    let h = market_history(42, 600);
    let sched = FaultSchedule::generate(base_fault_seed(), 600, 0, &FaultConfig::default());
    let records = corrupt_records(&h, &sched);
    // The default config certainly corrupts 600 slots somewhere.
    assert!(!sched.kinds_present().is_empty());
    assert!(
        ingest_strict(&records, h.slot_len()).is_err(),
        "strict ingest accepted a corrupted feed"
    );
    let (repaired, report) = ingest_repair(&records, h.slot_len()).unwrap();
    assert!(!report.is_clean());
    assert!(
        !report.dropped.is_empty(),
        "nothing was dropped: {report:?}"
    );
    assert!(repaired.prices().iter().all(|p| p.is_valid_price()));
    assert!(!repaired.is_empty());
}

#[test]
fn chaos_outcomes_are_bit_identical_across_thread_counts() {
    let base = base_fault_seed();
    let run = || {
        par_trials(0x0D16_7E57, 16, |i, rng| {
            let inst = catalog::by_name("r3.xlarge").unwrap();
            let cfg = SyntheticConfig::for_instance(&inst);
            let h = generate(&cfg, 600, rng).unwrap();
            let sched = FaultSchedule::generate(
                base.wrapping_add(i as u64),
                600,
                4,
                &FaultConfig::default(),
            );
            let view = FaultyMarket::new(&h, &sched);
            let policy = RecoveryPolicy {
                on_demand_fallback: Some(inst.on_demand),
                ..RecoveryPolicy::default()
            };
            let decision = BidDecision::Spot {
                price: h.mean_price(),
                persistent: true,
            };
            let out = run_job_resilient(&view, decision, &job(), 0, &policy).unwrap();
            assert_bill_sane(&out);
            outcome_digest(&out)
        })
    };
    let serial = with_threads(1, run);
    let parallel = with_threads(4, run);
    assert_eq!(
        serial, parallel,
        "chaos outcomes must not depend on thread count"
    );
}

#[test]
fn invariants_hold_across_32_fault_seeds() {
    let h = market_history(7, 600);
    let job = job();
    let od = catalog::by_name("r3.xlarge").unwrap().on_demand;
    let base = base_fault_seed();
    let policies = [
        RecoveryPolicy::default(),
        RecoveryPolicy {
            on_demand_fallback: Some(od),
            ..RecoveryPolicy::default()
        },
    ];
    let mut statuses_seen = std::collections::BTreeSet::new();
    for i in 0..32u64 {
        let sched = FaultSchedule::generate(base.wrapping_add(i), 600, 4, &FaultConfig::default());
        let view = FaultyMarket::new(&h, &sched);
        for persistent in [true, false] {
            for policy in &policies {
                let decision = BidDecision::Spot {
                    price: h.mean_price(),
                    persistent,
                };
                let out = run_job_resilient(&view, decision, &job, 0, policy).unwrap();
                assert_bill_sane(&out);
                assert_status_legal(&out, policy);
                statuses_seen.insert(status_code(out.status));
                // Purity: the same (trace seed, fault seed, policy) replays
                // to the identical outcome.
                let again = run_job_resilient(&view, decision, &job, 0, policy).unwrap();
                assert_eq!(out, again, "outcome is not a pure function of its seeds");
            }
        }
    }
    assert!(
        statuses_seen.len() >= 2,
        "sweep too tame: every run ended the same way ({statuses_seen:?})"
    );
}

#[test]
fn job_monitor_stays_legal_under_chaotic_acceptance_tapes() {
    fn edge_is_legal(from: JobState, accepted: bool, to: JobState) -> bool {
        match (from, accepted) {
            (JobState::Finished, _) => to == JobState::Finished,
            (JobState::Waiting, false) => to == JobState::Waiting,
            (JobState::Waiting, true) | (JobState::Running, true) | (JobState::Idle, true) => {
                to == JobState::Running || to == JobState::Finished
            }
            (JobState::Running, false) | (JobState::Idle, false) => to == JobState::Idle,
        }
    }
    let base = base_fault_seed();
    for i in 0..32u64 {
        let sched = FaultSchedule::generate(base.wrapping_add(i), 600, 1, &FaultConfig::default());
        let mut m = JobMonitor::new(job());
        let mut prev_remaining = m.remaining_work();
        for t in 0..600 {
            // The fault schedule doubles as a hostile acceptance tape:
            // reclamations and feed gaps read as rejections.
            let accepted = !(sched.reclaimed(t) || sched.gap(t));
            let from = m.state();
            let e = m.advance(accepted);
            assert!(
                edge_is_legal(from, accepted, e.state),
                "illegal transition {from:?} --{accepted}--> {:?} (fault seed {})",
                e.state,
                base.wrapping_add(i)
            );
            assert!(m.remaining_work() <= prev_remaining);
            prev_remaining = m.remaining_work();
        }
    }
}

#[test]
fn mapreduce_answers_survive_cluster_chaos() {
    // Data plane: the computed answer never depends on scheduling, shard
    // count, or how many times a task is (re-)executed.
    let corpus = Corpus::generate(
        &CorpusConfig {
            documents: 60,
            words_per_doc: 80,
            vocabulary: 300,
            ..CorpusConfig::default()
        },
        &mut Rng::seed_from_u64(3),
    )
    .unwrap();
    let docs: Vec<&str> = corpus.docs().iter().map(String::as_str).collect();
    let reference = run_local(&WordCount, &docs, 1, 1);
    for shards in [2, 4, 8] {
        assert_eq!(
            run_local(&WordCount, &docs, shards, 4),
            reference,
            "re-sharded answer diverged"
        );
    }

    // Control plane: under crash chaos the speculative scheduler still
    // finishes (the answer above being what it computes), deterministically.
    let job = JobSpec::builder(2.0)
        .recovery_secs(30.0)
        .overhead_secs(60.0)
        .build()
        .unwrap();
    let tasks = build_tasks(&job, 4);
    let cfg = ScheduleConfig {
        slot: job.slot,
        recovery: job.recovery,
        max_slots: 600,
        speculative: true,
    };
    let base = base_fault_seed();
    let mut speculated = 0u32;
    for i in 0..32u64 {
        let sched = FaultSchedule::generate(base.wrapping_add(i), 600, 4, &FaultConfig::default());
        let out = simulate(&tasks, &cfg, |t| chaos_availability(&sched, t));
        assert_eq!(
            out.status,
            ScheduleStatus::Completed,
            "fault seed {} starved the job",
            base.wrapping_add(i)
        );
        assert!(out.slots_elapsed <= cfg.max_slots);
        speculated += out.speculative_launches;
        let again = simulate(&tasks, &cfg, |t| chaos_availability(&sched, t));
        assert_eq!(out, again, "schedule outcome is not pure");
    }
    assert!(
        speculated > 0,
        "32 chaotic runs should trigger speculative re-execution"
    );
}

#[test]
fn zero_fault_chaos_through_the_engine_matches_clean_kernel_runs() {
    // Same invariant as `zero_fault_chaos_is_bit_identical_to_the_clean_run`,
    // but exercised against the engine crate directly (the client runtime
    // is now a shim over it): a zero-fault `FaultyMarket` driven through
    // the kernel's resilient driver must reproduce the clean kernel run
    // bit for bit, and both must agree with the client-facing adapters.
    let h = market_history(42, 600);
    let sched = FaultSchedule::generate(base_fault_seed(), 600, 0, &FaultConfig::NONE);
    let view = FaultyMarket::new(&h, &sched);
    let job = job();
    let policy = RecoveryPolicy::default();
    for persistent in [true, false] {
        for bid in [h.min_price(), h.mean_price(), h.max_price()] {
            let decision = BidDecision::Spot {
                price: bid,
                persistent,
            };
            let clean = spotbid_engine::run_job(&h, decision, &job, 0).unwrap();
            let chaotic =
                spotbid_engine::run_job_resilient(&view, decision, &job, 0, &policy).unwrap();
            assert_eq!(clean, chaotic, "zero faults must change nothing");
            let via_client = run_job_resilient(&view, decision, &job, 0, &policy).unwrap();
            assert_eq!(chaotic, via_client, "client shim diverged from engine");
        }
    }
}

#[test]
fn closed_loop_market_is_bit_identical_across_thread_counts() {
    // The multi-tenant closed loop — N strategy-driven bidders inside one
    // endogenous market — is a pure function of its u64 seed, at any
    // thread count. Digest every tenant outcome plus the aggregate price
    // path statistics.
    use spotbid_core::strategy::BiddingStrategy;
    use spotbid_engine::{run_closed_loop, ClosedLoopConfig};
    use spotbid_market::params::MarketParams;
    use spotbid_market::Supply;

    let cfg = ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 60,
        horizon_slots: 240,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    };
    let strategies = [
        BiddingStrategy::OptimalPersistent,
        BiddingStrategy::Percentile(0.95),
        BiddingStrategy::FixedBid(Price::new(0.30)),
        BiddingStrategy::OptimalOneTime,
    ];
    let run = || {
        par_trials(0xC105ED, 8, |i, _rng| {
            let report = run_closed_loop(&strategies, &cfg, 0xB1D + i as u64).unwrap();
            let mut digest = vec![
                report.completed as u64,
                report.mean_savings.to_bits(),
                report.mean_price.as_f64().to_bits(),
                report.peak_price.as_f64().to_bits(),
                report.slots as u64,
            ];
            for t in &report.tenants {
                digest.push(t.cost.as_f64().to_bits());
                digest.push(t.savings.to_bits());
                digest.push(u64::from(t.interruptions));
                digest.push(t.spot_slots);
            }
            digest
        })
    };
    let serial = with_threads(1, run);
    let parallel = with_threads(4, run);
    assert_eq!(
        serial, parallel,
        "closed-loop outcomes must not depend on thread count"
    );
}

#[test]
fn checkpoint_storage_chaos_is_deterministic_and_only_slows_jobs() {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let h = market_history(101, 8_000);
    let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
    let job = job();
    let spec = CheckpointSpec {
        overhead: Hours::from_secs(10.0),
        reload: Hours::from_secs(30.0),
    };
    let tau = Hours::from_minutes(15.0);
    let faults = checkpoint_faults(&FaultConfig::default());
    let base = base_fault_seed();
    for i in 0..32u64 {
        let fault_seed = base.wrapping_add(i);
        let replay = |price: Price| {
            replay_once_faulty(
                &model,
                &job,
                &spec,
                price,
                tau,
                &mut Rng::seed_from_u64(1000 + i),
                &faults,
                &mut checkpoint_fault_rng(fault_seed),
            )
        };
        let (cost, time) = replay(inst.on_demand);
        assert!(time.is_finite() && cost.is_finite());
        assert!(cost >= 0.0);
        assert!(
            time >= job.execution.as_f64(),
            "storage faults cannot make a job finish early"
        );
        let (cost2, time2) = replay(inst.on_demand);
        assert_eq!(time.to_bits(), time2.to_bits());
        assert_eq!(cost.to_bits(), cost2.to_bits());
    }
}
