//! Fixed-seed randomized transition tests for the [`JobMonitor`] state
//! machine: drive it with arbitrary accept/reject sequences and assert it
//! never takes an illegal `JobState` edge and its accounting invariants
//! hold at every step.

use spotbid_core::JobSpec;
use spotbid_engine::job_monitor::{JobMonitor, JobState};
use spotbid_market::units::Hours;
use spotbid_numerics::rng::RngStreams;

/// The legal edges of the job lifecycle:
///
/// * `Waiting  --reject--> Waiting`
/// * `Waiting  --accept--> Running | Finished`
/// * `Running  --accept--> Running | Finished`
/// * `Running  --reject--> Idle` (an interruption)
/// * `Idle     --reject--> Idle`
/// * `Idle     --accept--> Running | Finished`
/// * `Finished --*------> Finished` (no-op)
fn edge_is_legal(from: JobState, accepted: bool, to: JobState) -> bool {
    use JobState::*;
    match (from, accepted) {
        (Finished, _) => to == Finished,
        (Waiting, false) => to == Waiting,
        (Idle, false) => to == Idle,
        (Running, false) => to == Idle,
        (Waiting | Running | Idle, true) => matches!(to, Running | Finished),
    }
}

/// One randomized episode: a job with random size/recovery driven by a
/// random accept/reject tape, invariants checked per slot.
fn run_episode(rng: &mut spotbid_numerics::rng::Rng) {
    let exec_h = 0.05 + rng.next_f64() * 2.0;
    // JobSpec requires recovery strictly shorter than execution.
    let recovery_s = rng.next_f64() * exec_h * 3600.0 * 0.5;
    let job = JobSpec::builder(exec_h)
        .recovery_secs(recovery_s)
        .build()
        .unwrap();
    let slot = job.slot;
    let mut m = JobMonitor::new(job);
    let mut prev_remaining = m.remaining_work();
    let mut prev_interruptions = 0u32;
    for step in 0..400 {
        let from = m.state();
        let accepted = rng.chance(0.7);
        let e = m.advance(accepted);
        let to = m.state();
        assert!(
            edge_is_legal(from, accepted, to),
            "illegal edge {from:?} --accept={accepted}--> {to:?} at step {step}"
        );
        assert_eq!(e.state, to, "event state disagrees with monitor");
        // Usage is bounded by the slot and only occurs while running.
        assert!(e.used >= Hours::ZERO && e.used <= slot + Hours::new(1e-12));
        if to != JobState::Running && to != JobState::Finished {
            assert_eq!(e.used, Hours::ZERO, "non-running slot consumed time");
        }
        // Work never regrows.
        assert!(
            m.remaining_work() <= prev_remaining,
            "remaining work regressed at step {step}"
        );
        prev_remaining = m.remaining_work();
        // Interruptions increment exactly on Running -> Idle edges.
        let expected_bump = u32::from(from == JobState::Running && to == JobState::Idle);
        assert_eq!(
            m.interruptions(),
            prev_interruptions + expected_bump,
            "interruption count off at step {step}"
        );
        assert_eq!(e.interrupted, expected_bump == 1);
        prev_interruptions = m.interruptions();
        // The clock never leaks: elapsed == running + idle + waiting.
        let elapsed = m.elapsed().as_f64();
        let parts = m.running_time().as_f64() + m.idle_time().as_f64() + m.waiting_time().as_f64();
        assert!((elapsed - parts).abs() < 1e-12, "clock leak at step {step}");
        // `finished` fires exactly on the edge into Finished.
        assert_eq!(
            e.finished,
            from != JobState::Finished && to == JobState::Finished
        );
    }
}

#[test]
fn randomized_transitions_stay_legal() {
    // Fixed seed, independent substreams: fully reproducible.
    let streams = RngStreams::new(0x5107_B1D5_7A7E);
    for i in 0..64 {
        let mut rng = streams.stream(i);
        run_episode(&mut rng);
    }
}

#[test]
fn hostile_tapes_cannot_unfinish_a_job() {
    let streams = RngStreams::new(0xDEAD_10CC);
    for i in 0..16 {
        let mut rng = streams.stream(i);
        let job = JobSpec::builder(0.1).recovery_secs(30.0).build().unwrap();
        let mut m = JobMonitor::new(job);
        while m.state() != JobState::Finished {
            m.advance(rng.chance(0.8));
        }
        let done_running = m.running_time();
        let done_interruptions = m.interruptions();
        // Any further tape is a pure no-op.
        for _ in 0..50 {
            let e = m.advance(rng.chance(0.5));
            assert_eq!(m.state(), JobState::Finished);
            assert_eq!(e.used, Hours::ZERO);
            assert!(!e.finished && !e.interrupted);
        }
        assert_eq!(m.running_time(), done_running);
        assert_eq!(m.interruptions(), done_interruptions);
        assert_eq!(m.remaining_work(), Hours::ZERO);
    }
}
