//! Figure 4: an example persistent job's timeline against one day of
//! r3.xlarge spot prices.
//!
//! The paper's figure shows the spot price over September 9, 2014, a
//! persistent bid at $0.0323, and the job's running/idle phases with two
//! interruptions. Here we regenerate the same picture on a synthetic day:
//! the optimal persistent bid is computed from the prior two months, the
//! job is replayed against the day, and the per-slot timeline (price,
//! bid, state) is returned for plotting.

use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::{persistent, BidDecision, JobSpec};
use spotbid_engine::{run_job, RunStatus};
use spotbid_numerics::rng::Rng;
use spotbid_trace::catalog;
use spotbid_trace::history::TWO_MONTHS_SLOTS;
use spotbid_trace::synthetic::{generate, SyntheticConfig};

/// One slot of the Figure 4 timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimelinePoint {
    /// Slot index within the day.
    pub slot: usize,
    /// Spot price in force.
    pub price: f64,
    /// Whether the bid was at or above the price (job running).
    pub running: bool,
}

/// The full Figure 4 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// The persistent bid price (the orange dashed line).
    pub bid: f64,
    /// Per-slot timeline over the day.
    pub timeline: Vec<TimelinePoint>,
    /// Interruptions the job suffered (the paper's example shows 2).
    pub interruptions: u32,
    /// Whether the job completed within the day.
    pub completed: bool,
    /// Wall-clock completion time in hours.
    pub completion_hours: f64,
    /// Total running time in hours.
    pub running_hours: f64,
}

/// Runs the Figure 4 example: a `t_s`-hour persistent job with 10 s
/// recovery, bid optimally from two months of history, replayed over the
/// following day.
pub fn run(seed: u64, execution_hours: f64) -> Fig4 {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let mut rng = Rng::seed_from_u64(seed);
    let day_slots = 12 * 24;
    let history = generate(&cfg, TWO_MONTHS_SLOTS + day_slots, &mut rng).unwrap();
    let past = history.slice(0, TWO_MONTHS_SLOTS).unwrap();
    let day = history.slice(TWO_MONTHS_SLOTS, history.len()).unwrap();

    let model = EmpiricalPrices::from_history_with_cap(&past, inst.on_demand).unwrap();
    let job = JobSpec::builder(execution_hours)
        .recovery_secs(10.0)
        .build()
        .unwrap();
    let rec = persistent::optimal_bid(&model, &job).unwrap();

    let outcome = run_job(
        &day,
        BidDecision::Spot {
            price: rec.price,
            persistent: true,
        },
        &job,
        0,
    )
    .unwrap();

    let timeline = day
        .prices()
        .iter()
        .enumerate()
        .map(|(slot, &p)| TimelinePoint {
            slot,
            price: p.as_f64(),
            running: rec.price >= p,
        })
        .collect();
    Fig4 {
        bid: rec.price.as_f64(),
        timeline,
        interruptions: outcome.interruptions,
        completed: outcome.status == RunStatus::Completed,
        completion_hours: outcome.completion_time.as_f64(),
        running_hours: outcome.running_time.as_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_covers_a_day_and_job_completes() {
        let f = run(5, 4.0);
        assert_eq!(f.timeline.len(), 288);
        assert!(f.completed, "a 4-hour persistent job should fit in a day");
        assert!(f.completion_hours >= 4.0);
        assert!(f.running_hours >= 4.0); // includes recovery replays
        assert!(f.bid > 0.0);
    }

    #[test]
    fn running_flags_match_bid_vs_price() {
        let f = run(6, 2.0);
        for p in &f.timeline {
            assert_eq!(p.running, f.bid >= p.price, "slot {}", p.slot);
        }
    }

    #[test]
    fn some_seed_shows_interruptions() {
        // The paper's example day has two interruptions; across a handful
        // of seeds at least one synthetic day must show ≥ 1 (a long job at
        // a low persistent bid rides through price excursions).
        let any = (0..8).any(|s| run(s, 8.0).interruptions >= 1);
        assert!(any, "no seed produced an interruption");
    }
}
