//! Thread-count invariance of every migrated experiment.
//!
//! The executor's contract is that results are a pure function of the
//! seed: running an experiment with one worker must produce bit-for-bit
//! the same rows as running it with several. Each test below pins the
//! executor to 1 thread and then to 4 via [`spotbid_exec::with_threads`]
//! and asserts exact equality (derived `PartialEq` on the row types — no
//! tolerances).

use spotbid_bench::experiments::{ablations, fig3, fig5, fig6, fig7, stability, table3, table4};
use spotbid_core::{BiddingStrategy, JobSpec};
use spotbid_engine::experiment::{run_single_instance, ExperimentConfig};
use spotbid_exec::with_threads;
use spotbid_trace::catalog;

fn quick_cfg() -> ExperimentConfig {
    ExperimentConfig {
        trials: 4,
        seed: 0xD37,
        warmup_slots: 4000,
        horizon_slots: 2000,
        ..Default::default()
    }
}

#[test]
fn client_experiment_is_thread_count_invariant() {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
    let run = || {
        run_single_instance(
            &inst,
            BiddingStrategy::OptimalPersistent,
            &job,
            &quick_cfg(),
        )
        .unwrap()
    };
    let a = with_threads(1, run);
    let b = with_threads(4, run);
    assert_eq!(a.bids, b.bids);
    assert_eq!(a.completed, b.completed);
    // Exact float equality is intended: same trials, same order.
    assert!(a.cost.mean == b.cost.mean);
    assert!(a.completion_time.mean == b.completion_time.mean);
    assert!(a.interruptions.mean == b.interruptions.mean);
}

#[test]
fn fig3_is_thread_count_invariant() {
    let a = with_threads(1, || fig3::run(31, 16));
    let b = with_threads(4, || fig3::run(31, 16));
    assert_eq!(a, b);
}

#[test]
fn table3_is_thread_count_invariant() {
    let a = with_threads(1, || table3::run(37));
    let b = with_threads(4, || table3::run(37));
    assert_eq!(a, b);
}

#[test]
fn table4_is_thread_count_invariant() {
    let a = with_threads(1, || table4::run(41));
    let b = with_threads(4, || table4::run(41));
    assert_eq!(a, b);
}

#[test]
fn stability_is_thread_count_invariant() {
    let a = with_threads(1, || stability::run(43));
    let b = with_threads(4, || stability::run(43));
    assert_eq!(a, b);
}

#[test]
fn fig5_is_thread_count_invariant() {
    let cfg = quick_cfg();
    let a = with_threads(1, || fig5::run(&cfg));
    let b = with_threads(4, || fig5::run(&cfg));
    assert_eq!(a, b);
}

#[test]
fn fig6_is_thread_count_invariant() {
    let cfg = quick_cfg();
    let a = with_threads(1, || fig6::run(&cfg));
    let b = with_threads(4, || fig6::run(&cfg));
    assert_eq!(a, b);
}

#[test]
fn fig7_is_thread_count_invariant() {
    let a = with_threads(1, || fig7::run(47));
    let b = with_threads(4, || fig7::run(47));
    assert_eq!(a, b);
}

#[test]
fn ablation_sweeps_are_thread_count_invariant() {
    let cfg = ExperimentConfig {
        trials: 3,
        seed: 0xD38,
        warmup_slots: 4000,
        horizon_slots: 2000,
        ..Default::default()
    };
    let a = with_threads(1, || ablations::correlation_sweep(&cfg));
    let b = with_threads(4, || ablations::correlation_sweep(&cfg));
    assert_eq!(a, b);

    let a = with_threads(1, || ablations::lookback_sweep(0xD39, 12));
    let b = with_threads(4, || ablations::lookback_sweep(0xD39, 12));
    assert_eq!(a, b);

    let a = with_threads(1, || ablations::checkpoint_sweep(0xD3A));
    let b = with_threads(4, || ablations::checkpoint_sweep(0xD3A));
    assert_eq!(a, b);

    let a = with_threads(1, || ablations::collective_sweep(0xD3B));
    let b = with_threads(4, || ablations::collective_sweep(0xD3B));
    assert_eq!(a, b);

    let a = with_threads(1, || ablations::overhead_sweep(0xD3C));
    let b = with_threads(4, || ablations::overhead_sweep(0xD3C));
    assert_eq!(a, b);

    let a = with_threads(1, || ablations::risk_curve(0xD3D, 6));
    let b = with_threads(4, || ablations::risk_curve(0xD3D, 6));
    assert_eq!(a, b);
}
