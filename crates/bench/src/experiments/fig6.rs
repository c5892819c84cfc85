//! Figure 6: persistent vs one-time requests — price, completion time,
//! and total cost, as percentage differences against the one-time
//! baseline, plus the 90th-percentile heuristic.
//!
//! Shape targets from the paper: (a) persistent bid prices are *lower*
//! (negative difference), with `t_r = 30 s` bidding higher than
//! `t_r = 10 s`; (b) persistent completion times are *longer* (positive),
//! with the higher-bid 30 s variant completing sooner than the 10 s one;
//! (c) persistent total costs are *lower*, and the 90th-percentile
//! heuristic saves less than the optimal persistent bids.

use spotbid_core::{BiddingStrategy, JobSpec};
use spotbid_engine::experiment::{run_single_instance, ExperimentConfig, ExperimentResult};
use spotbid_trace::catalog::table3_instances;

/// Relative performance of one strategy against the one-time baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeOutcome {
    /// Mean bid price difference, `(p − p_onetime)/p_onetime`.
    pub price_diff: f64,
    /// Mean completion-time difference.
    pub completion_diff: f64,
    /// Mean total-cost difference.
    pub cost_diff: f64,
    /// Absolute mean cost (for the savings cross-check).
    pub cost: f64,
}

/// One Figure 6 instrument row.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Row {
    /// Instance name.
    pub instance: String,
    /// One-time baseline: mean bid, completion, cost.
    pub baseline_bid: f64,
    /// One-time mean completion time (hours).
    pub baseline_completion: f64,
    /// One-time mean cost.
    pub baseline_cost: f64,
    /// Persistent with `t_r = 10 s`.
    pub persistent_10s: RelativeOutcome,
    /// Persistent with `t_r = 30 s`.
    pub persistent_30s: RelativeOutcome,
    /// The 90th-percentile heuristic (persistent request).
    pub percentile_90: RelativeOutcome,
}

fn mean_bid(r: &ExperimentResult) -> f64 {
    let bids: Vec<f64> = r.bids.iter().flatten().map(|p| p.as_f64()).collect();
    bids.iter().sum::<f64>() / bids.len().max(1) as f64
}

fn relative(r: &ExperimentResult, base_bid: f64, base_t: f64, base_c: f64) -> RelativeOutcome {
    RelativeOutcome {
        price_diff: mean_bid(r) / base_bid - 1.0,
        completion_diff: r.completion_time.mean / base_t - 1.0,
        cost_diff: r.cost.mean / base_c - 1.0,
        cost: r.cost.mean,
    }
}

/// Runs Figure 6 over the five instance types, one executor task per
/// instance.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig6Row> {
    let instances = table3_instances();
    spotbid_exec::par_map(instances.len(), |i| {
        {
            let inst = &instances[i];
            // Per-instance seeds, as in Figure 5.
            let cfg = &ExperimentConfig {
                seed: cfg.seed ^ (0x616 + i as u64),
                ..*cfg
            };
            let j_plain = JobSpec::builder(1.0).build().unwrap();
            let j10 = JobSpec::builder(1.0).recovery_secs(10.0).build().unwrap();
            let j30 = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
            let base =
                run_single_instance(inst, BiddingStrategy::OptimalOneTime, &j_plain, cfg).unwrap();
            let p10 =
                run_single_instance(inst, BiddingStrategy::OptimalPersistent, &j10, cfg).unwrap();
            let p30 =
                run_single_instance(inst, BiddingStrategy::OptimalPersistent, &j30, cfg).unwrap();
            let q90 =
                run_single_instance(inst, BiddingStrategy::Percentile(0.9), &j30, cfg).unwrap();
            let (bb, bt, bc) = (mean_bid(&base), base.completion_time.mean, base.cost.mean);
            Fig6Row {
                instance: inst.name.clone(),
                baseline_bid: bb,
                baseline_completion: bt,
                baseline_cost: bc,
                persistent_10s: relative(&p10, bb, bt, bc),
                persistent_30s: relative(&p30, bb, bt, bc),
                percentile_90: relative(&q90, bb, bt, bc),
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 10,
            seed: 0xF16,
            warmup_slots: 6000,
            horizon_slots: 3000,
            ..Default::default()
        }
    }

    #[test]
    fn fig6a_persistent_bids_are_lower() {
        for r in run(&cfg()) {
            assert!(
                r.persistent_10s.price_diff <= 1e-9,
                "{}: 10s bid diff {:+.3}",
                r.instance,
                r.persistent_10s.price_diff
            );
            assert!(r.persistent_30s.price_diff <= 1e-9, "{}", r.instance);
            // Longer recovery bids at least as high as the 10 s variant.
            assert!(
                r.persistent_30s.price_diff >= r.persistent_10s.price_diff - 1e-9,
                "{}",
                r.instance
            );
            // 90th-percentile bids above the optimal persistent bids.
            assert!(
                r.percentile_90.price_diff >= r.persistent_10s.price_diff - 1e-9,
                "{}",
                r.instance
            );
        }
    }

    #[test]
    fn fig6b_persistent_completion_is_longer() {
        for r in run(&cfg()) {
            assert!(
                r.persistent_10s.completion_diff >= -0.05,
                "{}: 10s completion {:+.3}",
                r.instance,
                r.persistent_10s.completion_diff
            );
            assert!(r.persistent_30s.completion_diff >= -0.05, "{}", r.instance);
        }
        // Somewhere the effect is material (> +3%).
        assert!(run(&cfg())
            .iter()
            .any(|r| r.persistent_10s.completion_diff > 0.03));
    }

    #[test]
    fn fig6c_persistent_costs_are_lower_and_beat_the_percentile() {
        let rows = run(&cfg());
        for r in &rows {
            assert!(
                r.persistent_10s.cost_diff <= 0.05,
                "{}: 10s cost {:+.3}",
                r.instance,
                r.persistent_10s.cost_diff
            );
            assert!(r.persistent_30s.cost_diff <= 0.05, "{}", r.instance);
        }
        // On average the optimal persistent bid is at least as cheap as
        // the 90th-percentile heuristic (the paper's "much smaller
        // decrease in cost" for the heuristic).
        let avg_opt: f64 = rows.iter().map(|r| r.persistent_10s.cost).sum::<f64>();
        let avg_q90: f64 = rows.iter().map(|r| r.percentile_90.cost).sum::<f64>();
        assert!(
            avg_opt <= avg_q90 * 1.05,
            "optimal {avg_opt} vs percentile {avg_q90}"
        );
    }
}
