//! Running MapReduce on spot instances end to end (§7.2).
//!
//! Glue between the bidding plan (Eq. 20, `spotbid-core`), the scheduler
//! ([`crate::schedule`]), and spot-price traces: the master's one-time bid
//! and the slaves' persistent bids are turned into per-slot availability,
//! the job is scheduled under interruptions, every up-slot is billed at
//! the slot's spot price, and the word-count result is checked against the
//! sequential reference execution.
//!
//! Both entry points run one `spotbid_engine::kernel::run` session: a
//! private `ClusterDriver` advances the resumable [`ScheduleSim`] one
//! kernel slot at a time against a [`DualTraceSource`] (spot) or a
//! [`ConstantClusterSource`] (on demand), deriving availability from the
//! slot's [`ClusterQuote`], and bills through the kernel's event stream
//! via [`cluster_slot_events`] — the one shared helper that replaced this
//! module's two hand-rolled billing loops (spot and on-demand differed
//! only in where prices came from and whether nodes could be down).

use crate::corpus::Corpus;
use crate::engine::run_local;
use crate::schedule::{
    Availability, Phase, ScheduleConfig, ScheduleOutcome, ScheduleSim, ScheduleStatus, TaskSpec,
};
use crate::wordcount::WordCount;
use crate::MapRedError;
use spotbid_core::mapreduce::MapReducePlan;
use spotbid_core::JobSpec;
use spotbid_engine::cluster::{
    cluster_slot_events, ClusterQuote, ConstantClusterSource, DualTraceSource,
};
use spotbid_engine::{
    kernel, Bill, BillingObserver, DriverStatus, EngineError, Event, JobDriver, PriceSource,
    UsageKind,
};
use spotbid_market::units::{Cost, Hours, Price};
use spotbid_trace::SpotPriceHistory;

/// Billing tags for the two roles.
pub const MASTER_TAG: u32 = 0;
/// Billing tag for slave usage (all slaves share a tag; per-slave splits
/// are uniform since they share one price trace).
pub const SLAVE_TAG: u32 = 1;

/// Fraction of the job's execution time spent in the map phase (the rest
/// is reduce). Word count is map-heavy.
pub const MAP_FRACTION: f64 = 0.75;
/// Map-task waves per slave: more, smaller tasks bound the work lost per
/// interruption.
pub const MAP_WAVES: usize = 2;

/// Builds the task list realizing a job of `t_s + t_o` total work on `m`
/// slaves: `MAP_WAVES·m` map tasks and `m` reduce tasks, with durations
/// split [`MAP_FRACTION`] / (1 − [`MAP_FRACTION`]).
pub fn build_tasks(job: &JobSpec, m: u32) -> Vec<TaskSpec> {
    let m = m.max(1) as usize;
    let total = job.execution + job.overhead;
    let n_map = MAP_WAVES * m;
    let map_each = total * MAP_FRACTION / n_map as f64;
    let reduce_each = total * (1.0 - MAP_FRACTION) / m as f64;
    let mut tasks = Vec::with_capacity(n_map + m);
    for i in 0..n_map {
        tasks.push(TaskSpec {
            id: i,
            phase: Phase::Map,
            duration: map_each,
        });
    }
    for i in 0..m {
        tasks.push(TaskSpec {
            id: n_map + i,
            phase: Phase::Reduce,
            duration: reduce_each,
        });
    }
    tasks
}

/// Outcome of one spot (or on-demand) MapReduce run.
#[derive(Debug, Clone, PartialEq)]
pub struct MapReduceOutcome {
    /// Scheduler status.
    pub status: ScheduleStatus,
    /// Wall-clock completion time.
    pub completion_time: Hours,
    /// Master's share of the bill.
    pub master_cost: Cost,
    /// Slaves' share of the bill.
    pub slave_cost: Cost,
    /// Itemized bill.
    pub bill: Bill,
    /// Slave interruptions observed.
    pub slave_interruptions: u32,
    /// Tasks rescheduled after failures.
    pub task_reschedules: u32,
    /// Speculative backup copies launched by the scheduler.
    pub speculative_launches: u32,
    /// Whether the distributed word count matched the sequential
    /// reference (always checked; the data plane runs for real).
    pub result_correct: bool,
}

impl MapReduceOutcome {
    /// Total cost (master + slaves).
    pub fn total_cost(&self) -> Cost {
        self.master_cost + self.slave_cost
    }
}

/// How the cluster's two roles turn a slot's quote into availability and
/// line items.
#[derive(Debug, Clone, Copy)]
enum ClusterPricing {
    /// §3.2 spot rules per role: a node is up while its bid meets the
    /// slot's price, and billed at that price.
    Spot { master_bid: Price, slave_bid: Price },
    /// Always up, billed at the quoted (on-demand) prices.
    OnDemand,
}

/// The kernel driver of a master/slave cluster: one [`ScheduleSim`] step per
/// kernel slot, availability derived from the slot's quote, billing
/// emitted as `Event::Charged` through [`cluster_slot_events`].
struct ClusterDriver {
    sim: ScheduleSim,
    pricing: ClusterPricing,
    m: usize,
    slot_len: Hours,
    kind: UsageKind,
    status: Option<ScheduleStatus>,
    avail: Availability,
}

impl ClusterDriver {
    fn new(tasks: &[TaskSpec], cfg: &ScheduleConfig, pricing: ClusterPricing, m: u32) -> Self {
        let m = m as usize;
        ClusterDriver {
            sim: ScheduleSim::new(tasks, cfg),
            pricing,
            m,
            slot_len: cfg.slot,
            kind: match pricing {
                ClusterPricing::Spot { .. } => UsageKind::Spot,
                ClusterPricing::OnDemand => UsageKind::OnDemand,
            },
            status: None,
            avail: Availability {
                master: false,
                slaves: Vec::with_capacity(m),
            },
        }
    }

    fn into_outcome(self) -> ScheduleOutcome {
        // A driver the kernel stopped early (exhausted source or slot cap)
        // never saw a terminal status: the schedule ran out of time.
        let status = self.status.unwrap_or(ScheduleStatus::TimedOut);
        self.sim.into_outcome(status)
    }
}

impl<S: PriceSource<Quote = ClusterQuote>> JobDriver<S> for ClusterDriver {
    fn on_slot(
        &mut self,
        slot: u64,
        quote: &ClusterQuote,
        emit: &mut dyn FnMut(Event),
    ) -> Result<DriverStatus, EngineError> {
        let (master_up, slave_up) = match self.pricing {
            ClusterPricing::Spot {
                master_bid,
                slave_bid,
            } => (
                quote.master.map(|p| master_bid >= p).unwrap_or(false),
                quote.slave.map(|p| slave_bid >= p).unwrap_or(false),
            ),
            ClusterPricing::OnDemand => (true, true),
        };
        self.avail.master = master_up;
        self.avail.slaves.clear();
        self.avail.slaves.resize(self.m, slave_up);
        let status = self.sim.step(&self.avail);
        cluster_slot_events(
            slot,
            self.slot_len,
            if master_up { quote.master } else { None },
            quote.slave,
            if slave_up { self.m as u32 } else { 0 },
            self.kind,
            MASTER_TAG,
            SLAVE_TAG,
            emit,
        );
        if let Some(s) = status {
            self.status = Some(s);
            return Ok(DriverStatus::Done);
        }
        Ok(DriverStatus::Active)
    }
}

/// Runs the cluster session to completion on the kernel and splits the
/// result back into the scheduler outcome and the bill.
fn run_cluster<S: PriceSource<Quote = ClusterQuote>>(
    tasks: &[TaskSpec],
    cfg: &ScheduleConfig,
    pricing: ClusterPricing,
    m: u32,
    mut source: S,
) -> Result<(ScheduleOutcome, Bill), MapRedError> {
    let mut driver = ClusterDriver::new(tasks, cfg, pricing, m);
    let mut billing = BillingObserver::new();
    kernel::run(
        &mut source,
        &mut driver,
        &mut [&mut billing],
        Some(cfg.max_slots as u64),
    )?;
    Ok((driver.into_outcome(), billing.into_bill()))
}

/// Runs the word-count job on spot instances: the plan's master bid
/// against `master_future`, its slave bids against `slave_future`.
///
/// # Errors
///
/// [`MapRedError::InvalidConfig`] when the futures are shorter than a
/// slot or the plan is degenerate; [`MapRedError::Engine`] when the
/// kernel refuses the session, e.g. a pathological price.
pub fn run_on_spot(
    corpus: &Corpus,
    plan: &MapReducePlan,
    job: &JobSpec,
    master_future: &SpotPriceHistory,
    slave_future: &SpotPriceHistory,
) -> Result<MapReduceOutcome, MapRedError> {
    if plan.m == 0 {
        return Err(MapRedError::InvalidConfig {
            what: "plan has zero slaves".into(),
        });
    }
    let source = DualTraceSource::new(master_future, slave_future);
    let horizon = source.horizon();
    if horizon == 0 {
        return Err(MapRedError::InvalidConfig {
            what: "empty future price series".into(),
        });
    }
    let tasks = build_tasks(job, plan.m);
    let cfg = ScheduleConfig {
        slot: job.slot,
        recovery: job.recovery,
        max_slots: horizon,
        // Spot slaves get interrupted; backup copies bound the work lost.
        speculative: true,
    };
    let pricing = ClusterPricing::Spot {
        master_bid: plan.master.price,
        slave_bid: plan.slaves.price,
    };
    let (outcome, bill) = run_cluster(&tasks, &cfg, pricing, plan.m, source)?;
    finish(corpus, plan.m, outcome, bill)
}

/// Runs the same job with master and slaves on on-demand instances (the
/// Figure 7 baseline): always up, billed at the on-demand prices.
///
/// # Errors
///
/// [`MapRedError::InvalidConfig`] for a degenerate slave count;
/// [`MapRedError::Engine`] when the kernel refuses the session, e.g. a
/// NaN or negative price.
pub fn run_on_demand(
    corpus: &Corpus,
    m: u32,
    job: &JobSpec,
    master_od: Price,
    slave_od: Price,
) -> Result<MapReduceOutcome, MapRedError> {
    if m == 0 {
        return Err(MapRedError::InvalidConfig {
            what: "need at least one slave".into(),
        });
    }
    let tasks = build_tasks(job, m);
    let cfg = ScheduleConfig {
        slot: job.slot,
        recovery: job.recovery,
        max_slots: 1_000_000,
        // On-demand instances never fail mid-run: no backups needed.
        speculative: false,
    };
    let source = ConstantClusterSource {
        master: master_od,
        slave: slave_od,
    };
    let (outcome, bill) = run_cluster(&tasks, &cfg, ClusterPricing::OnDemand, m, source)?;
    finish(corpus, m, outcome, bill)
}

fn finish(
    corpus: &Corpus,
    m: u32,
    outcome: ScheduleOutcome,
    bill: Bill,
) -> Result<MapReduceOutcome, MapRedError> {
    // Data plane: run the real computation distributed the same way the
    // schedule sharded it, and diff against the sequential reference.
    let docs: Vec<&str> = corpus.docs().iter().map(String::as_str).collect();
    let n_map = MAP_WAVES * m as usize;
    let distributed = run_local(&WordCount, &docs, n_map, m as usize);
    let reference = run_local(&WordCount, &docs, 1, 1);
    let result_correct = distributed == reference;
    Ok(MapReduceOutcome {
        status: outcome.status,
        completion_time: outcome.completion_time,
        master_cost: bill.total_for_tag(MASTER_TAG),
        slave_cost: bill.total_for_tag(SLAVE_TAG),
        bill,
        slave_interruptions: outcome.slave_interruptions,
        task_reschedules: outcome.task_reschedules,
        speculative_launches: outcome.speculative_launches,
        result_correct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;
    use crate::schedule::simulate;
    use spotbid_core::mapreduce::plan;
    use spotbid_core::price_model::EmpiricalPrices;
    use spotbid_numerics::rng::Rng;
    use spotbid_trace::catalog;
    use spotbid_trace::synthetic::{generate, SyntheticConfig};

    fn setup() -> (
        Corpus,
        MapReducePlan,
        JobSpec,
        SpotPriceHistory,
        SpotPriceHistory,
    ) {
        setup_seeded(77)
    }

    fn setup_seeded(
        seed: u64,
    ) -> (
        Corpus,
        MapReducePlan,
        JobSpec,
        SpotPriceHistory,
        SpotPriceHistory,
    ) {
        let master_inst = catalog::by_name("m3.xlarge").unwrap();
        let slave_inst = catalog::by_name("c3.4xlarge").unwrap();
        let mut rng = Rng::seed_from_u64(seed);
        let mcfg = SyntheticConfig::for_instance(&master_inst);
        let scfg = SyntheticConfig::for_instance(&slave_inst);
        let m_hist = generate(&mcfg, 12_000, &mut rng).unwrap();
        let s_hist = generate(&scfg, 12_000, &mut rng).unwrap();
        let m_past = m_hist.slice(0, 9000).unwrap();
        let s_past = s_hist.slice(0, 9000).unwrap();
        let m_future = m_hist.slice(9000, 12_000).unwrap();
        let s_future = s_hist.slice(9000, 12_000).unwrap();
        let job = JobSpec::builder(1.0)
            .recovery_secs(30.0)
            .overhead_secs(60.0)
            .build()
            .unwrap();
        let m_model =
            EmpiricalPrices::from_history_with_cap(&m_past, master_inst.on_demand).unwrap();
        let s_model =
            EmpiricalPrices::from_history_with_cap(&s_past, slave_inst.on_demand).unwrap();
        let p = plan(&m_model, &s_model, &job, 32).unwrap();
        let corpus = Corpus::generate(&CorpusConfig::default(), &mut rng).unwrap();
        (corpus, p, job, m_future, s_future)
    }

    #[test]
    fn build_tasks_shape() {
        let job = JobSpec::builder(1.0).overhead_secs(60.0).build().unwrap();
        let tasks = build_tasks(&job, 4);
        assert_eq!(tasks.len(), 2 * 4 + 4);
        let total: f64 = tasks.iter().map(|t| t.duration.as_f64()).sum();
        assert!((total - (1.0 + 60.0 / 3600.0)).abs() < 1e-9);
        let maps = tasks.iter().filter(|t| t.phase == Phase::Map).count();
        assert_eq!(maps, 8);
        // IDs are unique and dense.
        let mut ids: Vec<usize> = tasks.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn spot_runs_complete_cheaply_with_correct_counts() {
        // The master's one-time bid can lose in a tail trial (the paper
        // only claims interruptions are *rare*), so aggregate over seeds:
        // most runs must complete, and the completed ones must be far
        // cheaper than on-demand with no shorter completion time.
        let mut completed = 0;
        let mut checked = 0;
        for seed in [77, 78, 79, 80, 81] {
            let (corpus, p, job, m_future, s_future) = setup_seeded(seed);
            let out = run_on_spot(&corpus, &p, &job, &m_future, &s_future).unwrap();
            assert!(out.result_correct, "word counts diverged (seed {seed})");
            if out.status != ScheduleStatus::Completed {
                continue;
            }
            completed += 1;
            let od = run_on_demand(
                &corpus,
                p.m,
                &job,
                catalog::by_name("m3.xlarge").unwrap().on_demand,
                catalog::by_name("c3.4xlarge").unwrap().on_demand,
            )
            .unwrap();
            // Figure 7(b): spot is a fraction of on-demand cost.
            assert!(
                out.total_cost().as_f64() < 0.5 * od.total_cost().as_f64(),
                "seed {seed}: spot {} vs on-demand {}",
                out.total_cost(),
                od.total_cost()
            );
            // Figure 7(a): completion no faster than on demand.
            assert!(out.completion_time >= od.completion_time);
            checked += 1;
        }
        assert!(completed >= 3, "only {completed}/5 spot runs completed");
        assert_eq!(checked, completed);
    }

    #[test]
    fn on_demand_run_never_interrupted() {
        let (corpus, p, job, _, _) = setup();
        let od = run_on_demand(&corpus, p.m, &job, Price::new(0.28), Price::new(0.84)).unwrap();
        assert_eq!(od.status, ScheduleStatus::Completed);
        assert_eq!(od.slave_interruptions, 0);
        assert!(od.result_correct);
        // Completion ≈ t_s/m (parallel) plus barrier rounding.
        let upper = job.execution.as_f64() / p.m as f64 * 3.0 + 0.2;
        assert!(od.completion_time.as_f64() < upper);
    }

    #[test]
    fn master_cost_fraction_matches_table4_band() {
        let (corpus, p, job, m_future, s_future) = setup();
        let out = run_on_spot(&corpus, &p, &job, &m_future, &s_future).unwrap();
        if out.status == ScheduleStatus::Completed {
            let frac = out.master_cost / out.total_cost();
            // Table 4: master is a small share (10–25% of slave cost).
            assert!((0.005..0.5).contains(&frac), "master fraction {frac}");
        }
    }

    #[test]
    fn degenerate_configs_rejected() {
        let (corpus, mut p, job, m_future, s_future) = setup();
        p.m = 0;
        assert!(run_on_spot(&corpus, &p, &job, &m_future, &s_future).is_err());
        assert!(run_on_demand(&corpus, 0, &job, Price::new(0.1), Price::new(0.1)).is_err());
    }

    #[test]
    fn pathological_on_demand_price_is_an_error() {
        let corpus =
            Corpus::generate(&CorpusConfig::default(), &mut Rng::seed_from_u64(5)).unwrap();
        let job = JobSpec::builder(1.0).build().unwrap();
        let r = run_on_demand(&corpus, 4, &job, Price::new(f64::NAN), Price::new(0.84));
        match r {
            Err(MapRedError::Engine(EngineError::Billing { .. })) => {}
            other => panic!("expected a billing error, got {other:?}"),
        }
    }

    #[test]
    fn kernel_billing_matches_legacy_loops() {
        // The shared `cluster_slot_events` helper must reproduce this
        // module's pre-refactor billing loops bit for bit: master item
        // then aggregated slave item per up-slot, only while priced.
        let (_, p, job, m_future, s_future) = setup();
        let source = DualTraceSource::new(&m_future, &s_future);
        let horizon = source.horizon();
        let tasks = build_tasks(&job, p.m);
        let cfg = ScheduleConfig {
            slot: job.slot,
            recovery: job.recovery,
            max_slots: horizon,
            speculative: true,
        };
        let pricing = ClusterPricing::Spot {
            master_bid: p.master.price,
            slave_bid: p.slaves.price,
        };
        let (outcome, bill) = run_cluster(&tasks, &cfg, pricing, p.m, source).unwrap();

        // Legacy loop, reconstructed from the schedule's uptime logs.
        let mut legacy = Bill::new();
        for t in 0..outcome.slots_elapsed {
            if outcome.master_up.get(t).copied().unwrap_or(false) {
                if let Some(price) = m_future.price_at_slot(t) {
                    legacy
                        .try_charge_spot(t as u64, price, job.slot, MASTER_TAG)
                        .unwrap();
                }
            }
            let n = outcome.slaves_up.get(t).copied().unwrap_or(0);
            if n > 0 {
                if let Some(price) = s_future.price_at_slot(t) {
                    legacy
                        .try_charge_spot(t as u64, price * n as f64, job.slot, SLAVE_TAG)
                        .unwrap();
                }
            }
        }
        assert_eq!(bill, legacy);
        assert!(!bill.items().is_empty());

        // And the schedule itself matches the closure-driven simulate.
        let m = p.m as usize;
        let reference = simulate(&tasks, &cfg, |t| Availability {
            master: m_future
                .price_at_slot(t)
                .map(|price| p.master.price >= price)
                .unwrap_or(false),
            slaves: vec![
                s_future
                    .price_at_slot(t)
                    .map(|price| p.slaves.price >= price)
                    .unwrap_or(false);
                m
            ],
        });
        assert_eq!(outcome, reference);
    }

    #[test]
    fn kernel_on_demand_billing_matches_legacy_loop() {
        let (_, p, job, _, _) = setup();
        let (master_od, slave_od) = (Price::new(0.28), Price::new(0.84));
        let tasks = build_tasks(&job, p.m);
        let cfg = ScheduleConfig {
            slot: job.slot,
            recovery: job.recovery,
            max_slots: 1_000_000,
            speculative: false,
        };
        let source = ConstantClusterSource {
            master: master_od,
            slave: slave_od,
        };
        let (outcome, bill) =
            run_cluster(&tasks, &cfg, ClusterPricing::OnDemand, p.m, source).unwrap();
        let mut legacy = Bill::new();
        for t in 0..outcome.slots_elapsed {
            legacy
                .try_charge_on_demand(t as u64, master_od, job.slot, MASTER_TAG)
                .unwrap();
            legacy
                .try_charge_on_demand(t as u64, slave_od * p.m as f64, job.slot, SLAVE_TAG)
                .unwrap();
        }
        assert_eq!(bill, legacy);
    }
}
