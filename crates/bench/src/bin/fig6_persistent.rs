//! Regenerates Figure 6: persistent vs one-time requests (percentage
//! differences against the one-time baseline) plus the 90th-percentile
//! heuristic.

use spotbid_bench::experiments::fig6;
use spotbid_bench::report::{pct, usd, Table};
use spotbid_bench::timing::time_experiment;
use spotbid_engine::experiment::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let rows = time_experiment("fig6", || fig6::run(&cfg));
    for (title, pick) in [
        ("Figure 6(a) — bid price vs one-time", 0usize),
        ("Figure 6(b) — completion time vs one-time", 1),
        ("Figure 6(c) — total cost vs one-time", 2),
    ] {
        let mut t = Table::new(title).headers([
            "instance",
            "persistent t_r=10s",
            "persistent t_r=30s",
            "90th percentile",
        ]);
        for r in &rows {
            let get = |o: &fig6::RelativeOutcome| match pick {
                0 => pct(o.price_diff),
                1 => pct(o.completion_diff),
                _ => pct(o.cost_diff),
            };
            t.row([
                r.instance.clone(),
                get(&r.persistent_10s),
                get(&r.persistent_30s),
                get(&r.percentile_90),
            ]);
        }
        println!("{}", t.render());
    }
    let mut base =
        Table::new("one-time baselines").headers(["instance", "bid $/h", "completion h", "cost $"]);
    for r in &rows {
        base.row([
            r.instance.clone(),
            usd(r.baseline_bid),
            format!("{:.3}", r.baseline_completion),
            usd(r.baseline_cost),
        ]);
    }
    print!("{}", base.render());
}
