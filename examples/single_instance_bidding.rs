//! Strategy shoot-out for a single-instance job.
//!
//! ```text
//! cargo run --example single_instance_bidding
//! ```
//!
//! Runs the paper's one-hour job under five strategies — optimal one-time,
//! optimal persistent, the 90th-percentile heuristic, the best-offline
//! retrospective bid, and plain on-demand — each over ten seeded trials on
//! fresh synthetic c3.4xlarge traces, and prints measured cost,
//! completion time, interruptions, and completion rate.

use spotbid::core::{BiddingStrategy, JobSpec};
use spotbid::engine::experiment::{run_single_instance, ExperimentConfig};
use spotbid::trace::catalog;

fn main() {
    let inst = catalog::by_name("c3.4xlarge").expect("in catalog");
    let job = JobSpec::builder(1.0)
        .recovery_secs(30.0)
        .build()
        .expect("valid job");
    let cfg = ExperimentConfig {
        trials: 10,
        seed: 42,
        ..Default::default()
    };

    let strategies: [(&str, BiddingStrategy); 5] = [
        ("optimal one-time", BiddingStrategy::OptimalOneTime),
        ("optimal persistent", BiddingStrategy::OptimalPersistent),
        ("90th percentile", BiddingStrategy::Percentile(0.9)),
        (
            "best offline (10 h)",
            BiddingStrategy::BestOffline {
                lookback_hours: 10.0,
            },
        ),
        ("on-demand", BiddingStrategy::OnDemand),
    ];

    println!(
        "{} — 1-hour job, t_r = 30 s, {} trials\n",
        inst.name, cfg.trials
    );
    println!(
        "{:<22} {:>10} {:>12} {:>13} {:>10}",
        "strategy", "cost $", "completion h", "interruptions", "completed"
    );
    for (name, strategy) in strategies {
        let r = run_single_instance(&inst, strategy, &job, &cfg).expect("experiment runs");
        println!(
            "{:<22} {:>10.4} {:>12.3} {:>13.2} {:>9.0}%",
            name,
            r.cost.mean,
            r.completion_time.mean,
            r.interruptions.mean,
            r.completion_rate() * 100.0
        );
    }
    println!(
        "\non-demand list price: {}; the optimal strategies should sit near 10–13% of it",
        inst.on_demand
    );
}
