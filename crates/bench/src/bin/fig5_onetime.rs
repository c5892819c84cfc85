//! Regenerates Figure 5: one-time spot requests vs on-demand cost.

use spotbid_bench::experiments::fig5;
use spotbid_bench::report::{pct, usd, Table};
use spotbid_bench::timing::time_experiment;
use spotbid_engine::experiment::ExperimentConfig;

fn main() {
    let cfg = ExperimentConfig::default();
    let rows = time_experiment("fig5", || fig5::run(&cfg));
    let mut t = Table::new("Figure 5 — one-time spot vs on-demand cost (1-hour job, 10 trials)")
        .headers([
            "instance",
            "on-demand $",
            "spot $ (measured)",
            "spot $ (expected)",
            "savings",
            "completed",
            "offline-bid $",
            "offline completed",
            "w/ fallback $",
            "fallback savings",
        ]);
    for r in rows {
        t.row([
            r.instance,
            usd(r.on_demand_cost),
            usd(r.spot_cost),
            usd(r.predicted_cost),
            pct(r.savings),
            pct(r.completion_rate),
            usd(r.offline_cost),
            pct(r.offline_completion_rate),
            usd(r.fallback_cost),
            pct(r.fallback_savings),
        ]);
    }
    print!("{}", t.render());
    println!("\n(the paper reports up to 91% savings; 'completed' is the fraction of");
    println!(" one-time bids that survived the full hour)");
}
