//! Regenerates the §8 ablations: provider-objective β-sweep, temporal
//! correlation, best-offline lookback, collective behaviour, and the
//! risk (cost-spread) curve.

use spotbid_bench::experiments::ablations;
use spotbid_bench::report::{usd, Table};
use spotbid_bench::timing::time_experiment;
use spotbid_engine::experiment::ExperimentConfig;

fn main() {
    let mut t = Table::new("provider objectives — revenue vs clearing (capacity 10) vs welfare")
        .headers(["demand L", "revenue $/h", "clearing $/h", "welfare $/h"]);
    for p in time_experiment("ablations/objective_sweep", || {
        ablations::objective_sweep(10.0)
    }) {
        t.row([
            format!("{:.0}", p.demand),
            usd(p.revenue_price),
            usd(p.clearing_price),
            usd(p.welfare_price),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new("β-sweep — provider objective (L = 10)").headers([
        "beta",
        "optimal price $/h",
        "accepted bids",
    ]);
    for p in time_experiment("ablations/beta_sweep", ablations::beta_sweep) {
        t.row([
            format!("{:.2}", p.beta),
            usd(p.price),
            format!("{:.2}", p.accepted),
        ]);
    }
    println!("{}", t.render());

    let cfg = ExperimentConfig {
        trials: 10,
        ..Default::default()
    };
    let mut t = Table::new("temporal correlation — i.i.d.-optimal persistent bid on sticky traces")
        .headers(["persistence", "interruptions", "cost $", "completion h"]);
    for p in time_experiment("ablations/correlation_sweep", || {
        ablations::correlation_sweep(&cfg)
    }) {
        t.row([
            format!("{:.2}", p.persistence),
            format!("{:.2}", p.interruptions),
            usd(p.cost),
            format!("{:.2}", p.completion),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new("best-offline lookback sweep (1-hour job)").headers([
        "lookback h",
        "mean retrospective bid $/h",
        "survival of next hour",
    ]);
    for p in time_experiment("ablations/lookback_sweep", || {
        ablations::lookback_sweep(0xAB2, 60)
    }) {
        t.row([
            format!("{:.0}", p.lookback_hours),
            usd(p.mean_bid),
            format!("{:.0}%", p.survival_rate * 100.0),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new("footnote-10 overhead — optimal fan-out vs per-node cost").headers([
        "per-node overhead s",
        "best M",
        "cost $",
    ]);
    for p in time_experiment("ablations/overhead_sweep", || {
        ablations::overhead_sweep(0xAB5)
    }) {
        t.row([
            format!("{:.0}", p.per_node_secs),
            p.best_m.to_string(),
            usd(p.cost),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new("collective behaviour — strategic vs random bidders").headers([
        "strategic frac",
        "median price $/h",
        "p90 price $/h",
        "mean open bids",
        "throughput/slot",
    ]);
    for p in time_experiment("ablations/collective_sweep", || {
        ablations::collective_sweep(0xAB3)
    }) {
        t.row([
            format!("{:.1}", p.strategic_fraction),
            usd(p.median_price),
            usd(p.p90_price),
            format!("{:.1}", p.mean_open_bids),
            format!("{:.2}", p.throughput),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new("checkpointing vs fixed recovery — 8 h job, t_r = 20 min vs δ = 10 s")
        .headers([
            "body mass",
            "fixed-recovery $",
            "checkpointing $",
            "bid ratio",
        ]);
    for p in time_experiment("ablations/checkpoint_sweep", || {
        ablations::checkpoint_sweep(0xAB6)
    }) {
        t.row([
            format!("{:.1}", p.body_fraction),
            usd(p.fixed_cost),
            usd(p.checkpoint_cost),
            format!("{:.2}", p.bid_ratio),
        ]);
    }
    println!("{}", t.render());

    let mut t = Table::new("risk curve — persistent bid cost spread (t_r = 30 s)").headers([
        "bid $/h",
        "mean cost $",
        "cost std $",
    ]);
    for (bid, mean, std) in
        time_experiment("ablations/risk_curve", || ablations::risk_curve(0xAB4, 20))
    {
        t.row([usd(bid), usd(mean), usd(std)]);
    }
    print!("{}", t.render());
}
