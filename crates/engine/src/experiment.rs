//! The bidding client of Figure 1 and §7's repeated-trial harness.
//!
//! A trial resolves a bidding strategy against the price history before a
//! decision slot (the client's price-monitor window) and replays the job
//! over the rest through [`run_job`], which applies the EC2 spot rules of
//! §3.2 and keeps the job monitor and billing ledger.
//!
//! §7 repeats every EC2 experiment ten times per instance type and reports
//! averages; this module does the same over seeded synthetic traces, with
//! trials fanned out through [`spotbid_exec::par_trials_scratch`] — each
//! trial on its own decorrelated RNG substream, so results are bit-for-bit
//! reproducible at any thread count. Each trial draws a fresh two-month
//! history, makes the bid at the end of it, and replays the job against a
//! fresh future.
//!
//! ## Example
//!
//! ```
//! use spotbid_engine::experiment::{run_single_instance, ExperimentConfig};
//! use spotbid_core::{BiddingStrategy, JobSpec};
//! use spotbid_trace::catalog;
//!
//! let inst = catalog::by_name("r3.xlarge").unwrap();
//! let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
//! let cfg = ExperimentConfig { trials: 3, warmup_slots: 3000, horizon_slots: 1500,
//!                              ..Default::default() };
//! let spot = run_single_instance(&inst, BiddingStrategy::OptimalPersistent, &job, &cfg).unwrap();
//! // The paper's headline: spot costs a fraction of on-demand.
//! assert!(spot.cost.mean < 0.5 * inst.on_demand.as_f64());
//! ```

use crate::{run_job, run_job_with_fallback, EngineError, JobOutcome};
use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::{
    onetime, persistent, BidDecision, BidRecommendation, BiddingStrategy, CoreError, JobSpec,
};
use spotbid_market::units::Price;
use spotbid_numerics::rng::Rng;
use spotbid_numerics::stats::{summarize, Summary};
use spotbid_trace::catalog::InstanceType;
use spotbid_trace::history::{SpotPriceHistory, TWO_MONTHS_SLOTS};
use spotbid_trace::synthetic::{generate_into, SyntheticConfig};

/// Experiment shape: trials, seeding, and trace sizing.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Number of independent trials (the paper uses 10).
    pub trials: usize,
    /// Master seed; trial `i` derives its own stream from it.
    pub seed: u64,
    /// Past slots the client observes before bidding (two months by
    /// default).
    pub warmup_slots: usize,
    /// Future slots available for the job to run in.
    pub horizon_slots: usize,
    /// When true, a spot run that fails to complete finishes its remaining
    /// work on an on-demand instance (§5.1's fallback), so every trial
    /// completes and the cost blends spot and on-demand charges.
    pub on_demand_fallback: bool,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            trials: 10,
            seed: 0xC10D,
            warmup_slots: TWO_MONTHS_SLOTS,
            horizon_slots: 12 * 24 * 14, // two weeks of future
            on_demand_fallback: false,
        }
    }
}

impl ExperimentConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidConfig`] describing the violated constraint.
    pub fn validate(&self) -> Result<(), EngineError> {
        if self.trials == 0 {
            return Err(EngineError::InvalidConfig {
                what: "at least one trial required".into(),
            });
        }
        if self.warmup_slots == 0 || self.horizon_slots == 0 {
            return Err(EngineError::InvalidConfig {
                what: "warmup and horizon must be positive".into(),
            });
        }
        Ok(())
    }
}

/// A complete trial: what was decided, what the model predicted, and what
/// actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The resolved bid decision.
    pub decision: BidDecision,
    /// The model's analytic prediction (for the optimal strategies; the
    /// "expected" bars in Figures 5–7). `None` for heuristic baselines.
    pub prediction: Option<BidRecommendation>,
    /// The realized outcome from replaying the future price series.
    pub outcome: JobOutcome,
}

/// Aggregated results of a single-instance experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-trial raw results, in trial order.
    pub trials: Vec<TrialResult>,
    /// Bid prices across trials (empty entries for on-demand decisions).
    pub bids: Vec<Option<Price>>,
    /// Cost summary over *completed* trials.
    pub cost: Summary,
    /// Completion-time summary over completed trials.
    pub completion_time: Summary,
    /// Interruption-count summary over completed trials.
    pub interruptions: Summary,
    /// How many trials completed their work.
    pub completed: usize,
}

impl ExperimentResult {
    /// Fraction of trials that completed.
    pub fn completion_rate(&self) -> f64 {
        self.completed as f64 / self.trials.len() as f64
    }

    /// Mean predicted (analytic) cost across trials that carried a
    /// prediction, if any did.
    pub fn mean_predicted_cost(&self) -> Option<f64> {
        let preds: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|t| t.prediction.map(|p| p.expected_cost.as_f64()))
            .collect();
        summarize(&preds).ok().map(|s| s.mean)
    }

    /// Bootstrap 95% confidence interval for the mean cost over completed
    /// trials (percentile method; more honest than the normal
    /// approximation at the paper's n = 10).
    pub fn cost_ci_bootstrap(&self, rng: &mut Rng, resamples: usize) -> Option<(f64, f64)> {
        let costs: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.outcome.completed())
            .map(|t| t.outcome.cost.as_f64())
            .collect();
        spotbid_numerics::stats::bootstrap_mean_ci(&costs, 0.95, resamples, rng).ok()
    }

    /// Mean predicted completion time across predicted trials.
    pub fn mean_predicted_completion(&self) -> Option<f64> {
        let preds: Vec<f64> = self
            .trials
            .iter()
            .filter_map(|t| t.prediction.map(|p| p.expected_completion_time.as_f64()))
            .collect();
        summarize(&preds).ok().map(|s| s.mean)
    }
}

/// Runs a single-instance experiment: `cfg.trials` independent seeded
/// trials of `strategy` on synthetic traces of `inst`, in parallel.
///
/// # Errors
///
/// Configuration errors up front; the first trial error otherwise.
pub fn run_single_instance(
    inst: &InstanceType,
    strategy: BiddingStrategy,
    job: &JobSpec,
    cfg: &ExperimentConfig,
) -> Result<ExperimentResult, EngineError> {
    cfg.validate()?;
    job.validate()?;
    let trace_cfg = SyntheticConfig::for_instance(inst);
    run_with_trace_config(inst, &trace_cfg, strategy, job, cfg)
}

/// As [`run_single_instance`] but with an explicit trace generator
/// configuration (used by the temporal-correlation ablation).
///
/// # Errors
///
/// Same contract as [`run_single_instance`].
pub fn run_with_trace_config(
    inst: &InstanceType,
    trace_cfg: &SyntheticConfig,
    strategy: BiddingStrategy,
    job: &JobSpec,
    cfg: &ExperimentConfig,
) -> Result<ExperimentResult, EngineError> {
    cfg.validate()?;
    let total_slots = cfg.warmup_slots + cfg.horizon_slots;
    // Each worker owns one price buffer that round-trips through the
    // per-trial `SpotPriceHistory`, so repeated trials reuse the two-month
    // trace allocation instead of re-allocating it every time. The buffer
    // is fully overwritten by `generate_into` before any read, keeping the
    // trial a pure function of `(seed, i)` per the executor's contract.
    let outcomes = spotbid_exec::par_trials_scratch(
        cfg.seed,
        cfg.trials,
        Vec::new,
        |i, rng, buf: &mut Vec<Price>| {
            generate_into(trace_cfg, total_slots, rng, buf)?;
            let h = SpotPriceHistory::new(trace_cfg.slot_len, std::mem::take(buf))?;
            let out = trial(
                strategy,
                inst.on_demand,
                &h,
                cfg.warmup_slots,
                job,
                i as u32,
                cfg.on_demand_fallback,
            );
            *buf = h.into_prices();
            out
        },
    );
    let trials = outcomes.into_iter().collect::<Result<Vec<_>, _>>()?;
    aggregate(trials)
}

/// Runs one trial: slots `[0, decision_slot)` of `history` are the
/// observed past (the price monitor's window); the job is then submitted
/// at `decision_slot` and replayed against the rest, finishing a failed
/// spot run on demand when `fallback` is set (§5.1).
fn trial(
    strategy: BiddingStrategy,
    on_demand: Price,
    history: &SpotPriceHistory,
    decision_slot: usize,
    job: &JobSpec,
    tag: u32,
    fallback: bool,
) -> Result<TrialResult, EngineError> {
    if decision_slot == 0 || decision_slot >= history.len() {
        return Err(EngineError::InvalidConfig {
            what: format!(
                "decision slot {decision_slot} must leave both past and future in {} slots",
                history.len()
            ),
        });
    }
    let past = history.slice(0, decision_slot)?;
    let future = history.slice(decision_slot, history.len())?;
    let decision = strategy.decide(&past, job, on_demand)?;
    let prediction = predict(strategy, on_demand, &past, job)?;
    let outcome = if fallback {
        run_job_with_fallback(&future, decision, job, tag, on_demand)?
    } else {
        run_job(&future, decision, job, tag)?
    };
    Ok(TrialResult {
        decision,
        prediction,
        outcome,
    })
}

/// The analytic prediction behind the optimal strategies (`None` for
/// baselines, or when the optimum falls back to on-demand).
fn predict(
    strategy: BiddingStrategy,
    on_demand: Price,
    past: &SpotPriceHistory,
    job: &JobSpec,
) -> Result<Option<BidRecommendation>, EngineError> {
    let model = EmpiricalPrices::from_history_with_cap(past, on_demand)?;
    let rec = match strategy {
        BiddingStrategy::OptimalOneTime => onetime::optimal_bid(&model, job),
        BiddingStrategy::OptimalPersistent => persistent::optimal_bid(&model, job),
        _ => return Ok(None),
    };
    match rec {
        Ok(r) => Ok(Some(r)),
        Err(CoreError::NotWorthwhile { .. }) | Err(CoreError::NoFeasibleBid { .. }) => Ok(None),
        Err(e) => Err(EngineError::Core(e)),
    }
}

fn aggregate(trials: Vec<TrialResult>) -> Result<ExperimentResult, EngineError> {
    let bids = trials.iter().map(|t| t.outcome.bid).collect();
    let done: Vec<&TrialResult> = trials.iter().filter(|t| t.outcome.completed()).collect();
    let completed = done.len();
    let series = |f: &dyn Fn(&TrialResult) -> f64| -> Result<Summary, EngineError> {
        let xs: Vec<f64> = done.iter().map(|t| f(t)).collect();
        summarize(&xs).map_err(|_| EngineError::InvalidConfig {
            what: "no trial completed; cannot summarize outcomes".into(),
        })
    };
    let cost = series(&|t| t.outcome.cost.as_f64())?;
    let completion_time = series(&|t| t.outcome.completion_time.as_f64())?;
    let interruptions = series(&|t| t.outcome.interruptions as f64)?;
    Ok(ExperimentResult {
        trials,
        bids,
        cost,
        completion_time,
        interruptions,
        completed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RunStatus;
    use spotbid_trace::catalog;
    use spotbid_trace::synthetic::generate;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            trials: 4,
            seed: 7,
            warmup_slots: 4000,
            horizon_slots: 2000,
            ..Default::default()
        }
    }

    fn setup(seed: u64) -> (SpotPriceHistory, Price) {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let cfg = SyntheticConfig::for_instance(&inst);
        let h = generate(&cfg, 6000, &mut Rng::seed_from_u64(seed)).unwrap();
        (h, inst.on_demand)
    }

    #[test]
    fn onetime_trial_usually_completes_cheaply() {
        let (h, od) = setup(41);
        let job = JobSpec::builder(1.0).build().unwrap();
        let r = trial(
            BiddingStrategy::OptimalOneTime,
            od,
            &h,
            5000,
            &job,
            0,
            false,
        )
        .unwrap();
        let pred = r.prediction.expect("optimal strategy predicts");
        match r.decision {
            BidDecision::Spot { price, persistent } => {
                assert_eq!(price, pred.price);
                assert!(!persistent);
            }
            other => panic!("{other:?}"),
        }
        if r.outcome.status == RunStatus::Completed {
            // Realized cost in the ballpark of the prediction (same order).
            assert!(r.outcome.cost.as_f64() < 2.0 * pred.expected_cost.as_f64() + 0.01);
            assert!(r.outcome.cost.as_f64() < 0.3 * (od * job.execution).as_f64());
        }
    }

    #[test]
    fn persistent_trial_completes() {
        let (h, od) = setup(43);
        let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        let r = trial(
            BiddingStrategy::OptimalPersistent,
            od,
            &h,
            4000,
            &job,
            0,
            false,
        )
        .unwrap();
        assert!(r.prediction.is_some());
        // Persistent requests always finish given enough future.
        assert_eq!(r.outcome.status, RunStatus::Completed);
    }

    #[test]
    fn on_demand_strategy_never_touches_spot() {
        let (h, od) = setup(44);
        let job = JobSpec::builder(1.0).build().unwrap();
        let r = trial(BiddingStrategy::OnDemand, od, &h, 3000, &job, 0, false).unwrap();
        assert_eq!(r.outcome.status, RunStatus::OnDemand);
        assert!(r.prediction.is_none());
        assert!((r.outcome.cost.as_f64() - od.as_f64()).abs() < 1e-12);
    }

    #[test]
    fn decision_slot_bounds_checked() {
        let (h, od) = setup(45);
        let job = JobSpec::builder(1.0).build().unwrap();
        assert!(matches!(
            trial(BiddingStrategy::OnDemand, od, &h, 0, &job, 0, false),
            Err(EngineError::InvalidConfig { .. })
        ));
        assert!(matches!(
            trial(BiddingStrategy::OnDemand, od, &h, h.len(), &job, 0, false),
            Err(EngineError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn config_validation() {
        let mut c = quick_cfg();
        c.trials = 0;
        assert!(c.validate().is_err());
        let mut c = quick_cfg();
        c.warmup_slots = 0;
        assert!(c.validate().is_err());
        assert!(quick_cfg().validate().is_ok());
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        let a = run_single_instance(
            &inst,
            BiddingStrategy::OptimalPersistent,
            &job,
            &quick_cfg(),
        )
        .unwrap();
        let b = run_single_instance(
            &inst,
            BiddingStrategy::OptimalPersistent,
            &job,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(a.bids, b.bids);
        assert_eq!(a.cost.mean, b.cost.mean);
    }

    #[test]
    fn persistent_strategy_completes_all_trials() {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        let r = run_single_instance(
            &inst,
            BiddingStrategy::OptimalPersistent,
            &job,
            &quick_cfg(),
        )
        .unwrap();
        assert_eq!(r.completed, 4);
        assert_eq!(r.completion_rate(), 1.0);
        assert!(r.mean_predicted_cost().is_some());
        // Spot cost well below on-demand for every completed trial.
        assert!(r.cost.max < 0.5 * inst.on_demand.as_f64());
    }

    #[test]
    fn on_demand_baseline_costs_exactly_list_price() {
        let inst = catalog::by_name("c3.4xlarge").unwrap();
        let job = JobSpec::builder(1.0).build().unwrap();
        let r = run_single_instance(&inst, BiddingStrategy::OnDemand, &job, &quick_cfg()).unwrap();
        assert!((r.cost.mean - inst.on_demand.as_f64()).abs() < 1e-12);
        assert_eq!(r.cost.std_dev, 0.0);
        assert!(r.mean_predicted_cost().is_none());
    }

    #[test]
    fn onetime_cheaper_than_on_demand_and_mostly_completes() {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let job = JobSpec::builder(1.0).build().unwrap();
        let cfg = ExperimentConfig {
            trials: 8,
            ..quick_cfg()
        };
        let r = run_single_instance(&inst, BiddingStrategy::OptimalOneTime, &job, &cfg).unwrap();
        // The bid is calibrated to survive ~1 hour; most trials complete.
        assert!(r.completion_rate() >= 0.5, "rate {}", r.completion_rate());
        assert!(r.cost.mean < 0.35 * inst.on_demand.as_f64());
    }
}

#[cfg(test)]
mod bootstrap_tests {
    use super::*;
    use spotbid_trace::catalog;

    #[test]
    fn bootstrap_ci_brackets_the_trial_mean() {
        let inst = catalog::by_name("r3.xlarge").unwrap();
        let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
        let cfg = ExperimentConfig {
            trials: 8,
            seed: 0xB007,
            warmup_slots: 4000,
            horizon_slots: 2000,
            ..Default::default()
        };
        let r = run_single_instance(&inst, BiddingStrategy::OptimalPersistent, &job, &cfg).unwrap();
        let mut rng = Rng::seed_from_u64(1);
        let (lo, hi) = r.cost_ci_bootstrap(&mut rng, 1000).unwrap();
        assert!(
            lo <= r.cost.mean && r.cost.mean <= hi,
            "[{lo}, {hi}] vs {}",
            r.cost.mean
        );
        assert!(hi < inst.on_demand.as_f64());
    }
}
