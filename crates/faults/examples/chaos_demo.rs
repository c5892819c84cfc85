//! Chaos in one screen: the same job, same market, same bid — once on a
//! clean feed, once under a seeded fault schedule, once with an
//! on-demand fallback to absorb the chaos.
//!
//! ```text
//! cargo run -p spotbid-faults --example chaos_demo
//! ```

use spotbid_core::{BidDecision, JobSpec};
use spotbid_engine::{run_job, run_job_resilient, JobOutcome, RecoveryPolicy};
use spotbid_faults::{corrupt_records, FaultConfig, FaultSchedule, FaultyMarket};
use spotbid_numerics::rng::Rng;
use spotbid_trace::catalog;
use spotbid_trace::ingest::ingest_repair;
use spotbid_trace::synthetic::{generate, SyntheticConfig};

fn row(label: &str, out: &JobOutcome) {
    println!(
        "  {label:<28} {:<20} cost ${:<8.4} time {:>6.2} h  interruptions {:<2} reclamations {:<2} outages {}",
        format!("{:?}", out.status),
        out.cost.as_f64(),
        out.completion_time.as_f64(),
        out.interruptions,
        out.reclamations,
        out.feed_outages,
    );
}

fn main() {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let h = generate(
        &SyntheticConfig::for_instance(&inst),
        600,
        &mut Rng::seed_from_u64(7),
    )
    .unwrap();
    let job = JobSpec::builder(2.0).recovery_secs(30.0).build().unwrap();
    let bid = BidDecision::Spot {
        price: h.mean_price(),
        persistent: true,
    };

    println!(
        "r3.xlarge synthetic market: {} slots, mean ${:.4}/h, bid ${:.4}/h (persistent)\n",
        h.len(),
        h.mean_price().as_f64(),
        h.mean_price().as_f64()
    );

    // Clean baseline, and the zero-fault parity check.
    let clean = run_job(&h, bid, &job, 0).unwrap();
    let none = FaultSchedule::generate(0xC1A05, h.len(), 0, &FaultConfig::NONE);
    let parity = run_job_resilient(
        &FaultyMarket::new(&h, &none),
        bid,
        &job,
        0,
        &RecoveryPolicy::default(),
    )
    .unwrap();
    assert_eq!(clean, parity, "zero faults must change nothing");
    row("clean feed", &clean);

    // Chaos: gaps, stale reads, corrupt records, and a market hostile
    // enough (one reclamation every ~5 slots) to blow the fault budget.
    let harsh = FaultConfig {
        gap: 0.10,
        stale_observation: 0.20,
        reclamation: 0.20,
        ..FaultConfig::default()
    };
    let sched = FaultSchedule::generate(0xC1A05, h.len(), 0, &harsh);
    println!(
        "\nfault schedule 0xC1A05 injects {:?}",
        sched.kinds_present()
    );
    let view = FaultyMarket::new(&h, &sched);
    let degraded = run_job_resilient(&view, bid, &job, 0, &RecoveryPolicy::default()).unwrap();
    row("chaotic feed, no fallback", &degraded);
    let policy = RecoveryPolicy {
        on_demand_fallback: Some(inst.on_demand),
        ..RecoveryPolicy::default()
    };
    let rescued = run_job_resilient(&view, bid, &job, 0, &policy).unwrap();
    row("chaotic feed + fallback", &rescued);
    assert!(rescued.completed());

    // The same schedule rendered as a corrupt wire feed, repaired by ingest.
    let records = corrupt_records(&h, &sched);
    let (repaired, report) = ingest_repair(&records, h.slot_len()).unwrap();
    println!(
        "\nwire feed: {} records ({} dropped, {} reordered, {} deduplicated, {} gap slots filled) -> {} repaired slots",
        report.total,
        report.dropped.len(),
        report.reordered,
        report.deduplicated,
        report.gap_slots_filled,
        repaired.len()
    );
}
