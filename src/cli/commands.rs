//! The `spotbid` CLI subcommands.

use super::args::{ArgError, Args};
use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::{mapreduce, onetime, persistent, BiddingStrategy, JobSpec};
use spotbid_engine::experiment::{run_single_instance, ExperimentConfig};
use spotbid_numerics::rng::Rng;
use spotbid_trace::catalog::{self, InstanceType};
use spotbid_trace::history::TWO_MONTHS_SLOTS;
use spotbid_trace::synthetic::{generate, SyntheticConfig};
use spotbid_trace::{analyze, aws, io as trace_io, SpotPriceHistory};
use std::path::Path;

/// Top-level usage text.
pub const USAGE: &str = "\
spotbid — optimal EC2-style spot bidding (reproduction of 'How to Bid the Cloud', SIGCOMM 2015)

USAGE:
  spotbid <command> [--flags]

COMMANDS:
  bid        compute optimal one-time/persistent bids for a job
               --instance <type> [--history <csv>|--aws <json>] [--ts 1.0]
               [--tr-secs 30] [--seed 1]
               [--checkpoint-secs 10 [--reload-secs 30]]  (checkpointing model)
  simulate   run seeded trials of a strategy against synthetic traces
               --instance <type> [--strategy onetime|persistent|percentile|
               offline|ondemand] [--ts 1.0] [--tr-secs 30] [--trials 10] [--seed 1]
  generate   write a synthetic spot-price trace
               --instance <type> --out <csv> [--slots 17568] [--seed 1]
               [--persistence 0.8]
  analyze    statistics of a price trace
               --history <csv> | --aws <json> [--instance <type>]
  mapreduce  plan master/slave bids for a MapReduce job
               --master <type> --slave <type> [--ts 1.0] [--tr-secs 30]
               [--to-secs 60] [--m-max 32] [--seed 1]
  risk       risk-averse / deadline-constrained bid (§8 extensions)
               --instance <type> [--ts 1.0] [--tr-secs 30]
               [--max-cost-std <$>] [--deadline-hours <h> --epsilon 0.05]
               [--trials 300] [--seed 1]
  engine     closed-loop multi-tenant bidding on the simulation kernel:
             N strategy-driven tenants in one endogenous spot market, or
             across M correlated markets with --markets (split-even legs)
               [--tenants 4] [--strategy onetime|persistent|percentile|
               fixed|ondemand] [--bid 0.30] [--percentile 0.9] [--ts 1.0]
               [--tr-secs 60] [--warmup 100] [--horizon 500] [--arrivals 3.0]
               [--pi-bar 0.35] [--pi-min 0.02] [--resubmit 4] [--seed 1]
               [--markets 1] [--capacity <servers> [--od-reserved <n>]
               [--od-arrivals 0.0] [--od-departure 0.0]]  (finite provider)
  catalog    list the Table 2 instance types

Every command accepts --help.";

fn lookup(name: &str) -> Result<InstanceType, ArgError> {
    catalog::by_name(name).ok_or_else(|| {
        ArgError(format!(
            "unknown instance type {name:?}; run `spotbid catalog` for the list"
        ))
    })
}

fn job_from(args: &Args, default_to: f64) -> Result<JobSpec, ArgError> {
    let ts: f64 = args.get_or("ts", 1.0)?;
    let tr: f64 = args.get_or("tr-secs", 30.0)?;
    let to: f64 = args.get_or("to-secs", default_to)?;
    JobSpec::builder(ts)
        .recovery_secs(tr)
        .overhead_secs(to)
        .build()
        .map_err(|e| ArgError(e.to_string()))
}

/// Loads a history from `--history <csv>` / `--aws <json>`, or generates a
/// two-month synthetic trace for the instance.
fn history_from(args: &Args, inst: &InstanceType) -> Result<SpotPriceHistory, ArgError> {
    if let Some(path) = args.get("history") {
        return trace_io::load_csv(Path::new(path)).map_err(|e| ArgError(e.to_string()));
    }
    if let Some(path) = args.get("aws") {
        let text =
            std::fs::read_to_string(path).map_err(|e| ArgError(format!("reading {path}: {e}")))?;
        return aws::from_aws_json(&text, &aws::AwsFilter::linux(&inst.name), None)
            .map_err(|e| ArgError(e.to_string()));
    }
    let seed: u64 = args.get_or("seed", 1)?;
    let cfg = SyntheticConfig::for_instance(inst);
    generate(&cfg, TWO_MONTHS_SLOTS, &mut Rng::seed_from_u64(seed))
        .map_err(|e| ArgError(e.to_string()))
}

/// `spotbid bid`.
pub fn cmd_bid(args: &Args) -> Result<String, ArgError> {
    args.check_known(&[
        "instance",
        "history",
        "aws",
        "ts",
        "tr-secs",
        "to-secs",
        "seed",
        "help",
        "checkpoint-secs",
        "reload-secs",
    ])?;
    let inst = lookup(args.require("instance")?)?;
    let job = job_from(args, 0.0)?;
    let history = history_from(args, &inst)?;
    let model = EmpiricalPrices::from_history_with_cap(&history, inst.on_demand)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "{} — job: {} execution, {} recovery; on-demand {}\n\
         history: {} slots, mean spot {}\n\n",
        inst.name,
        job.execution,
        job.recovery,
        inst.on_demand,
        history.len(),
        history.mean_price()
    );
    match onetime::optimal_bid(&model, &job) {
        Ok(r) => out.push_str(&format!(
            "one-time bid    {}   E[cost] {}   acceptance {:.1}%\n",
            r.price,
            r.expected_cost,
            r.acceptance_prob * 100.0
        )),
        Err(e) => out.push_str(&format!("one-time bid    unavailable: {e}\n")),
    }
    match persistent::optimal_bid(&model, &job) {
        Ok(r) => out.push_str(&format!(
            "persistent bid  {}   E[cost] {}   E[completion] {}   E[interruptions] {:.2}\n",
            r.price, r.expected_cost, r.expected_completion_time, r.expected_interruptions
        )),
        Err(e) => out.push_str(&format!("persistent bid  unavailable: {e}\n")),
    }
    if args.get("checkpoint-secs").is_some() {
        use spotbid_core::checkpoint::{optimal_bid as ck_bid, CheckpointSpec};
        use spotbid_market::units::Hours;
        let spec = CheckpointSpec {
            overhead: Hours::from_secs(args.get_or("checkpoint-secs", 10.0)?),
            reload: Hours::from_secs(args.get_or("reload-secs", 30.0)?),
        };
        match ck_bid(&model, &job, &spec) {
            Ok(r) => out.push_str(&format!(
                "checkpoint bid  {}   E[cost] {}   interval {}   E[completion] {}\n",
                r.price, r.expected_cost, r.interval, r.expected_completion_time
            )),
            Err(e) => out.push_str(&format!("checkpoint bid  unavailable: {e}\n")),
        }
    }
    Ok(out)
}

/// `spotbid simulate`.
pub fn cmd_simulate(args: &Args) -> Result<String, ArgError> {
    args.check_known(&[
        "instance", "strategy", "ts", "tr-secs", "to-secs", "trials", "seed", "help",
    ])?;
    let inst = lookup(args.require("instance")?)?;
    let job = job_from(args, 0.0)?;
    let strategy = match args.get("strategy").unwrap_or("persistent") {
        "onetime" => BiddingStrategy::OptimalOneTime,
        "persistent" => BiddingStrategy::OptimalPersistent,
        "percentile" => BiddingStrategy::Percentile(0.9),
        "offline" => BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        },
        "ondemand" => BiddingStrategy::OnDemand,
        other => return Err(ArgError(format!("unknown strategy {other:?}"))),
    };
    let cfg = ExperimentConfig {
        trials: args.get_or("trials", 10)?,
        seed: args.get_or("seed", 1)?,
        ..Default::default()
    };
    let r =
        run_single_instance(&inst, strategy, &job, &cfg).map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "{} × {} trials ({:?})\n\
         cost        ${:.4} ± {:.4}   ({:.1}% of on-demand)\n\
         completion  {:.3} h ± {:.3}\n\
         interruptions {:.2}   completed {:.0}%\n",
        inst.name,
        cfg.trials,
        strategy,
        r.cost.mean,
        r.cost.ci95,
        100.0 * r.cost.mean / inst.on_demand.as_f64(),
        r.completion_time.mean,
        r.completion_time.ci95,
        r.interruptions.mean,
        r.completion_rate() * 100.0,
    ))
}

/// `spotbid generate`.
pub fn cmd_generate(args: &Args) -> Result<String, ArgError> {
    args.check_known(&["instance", "out", "slots", "seed", "persistence", "help"])?;
    let inst = lookup(args.require("instance")?)?;
    let out_path = args.require("out")?;
    let slots: usize = args.get_or("slots", TWO_MONTHS_SLOTS)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let persistence: f64 = args.get_or("persistence", 0.8)?;
    let cfg = SyntheticConfig::for_instance(&inst).with_persistence(persistence);
    let h = generate(&cfg, slots, &mut Rng::seed_from_u64(seed))
        .map_err(|e| ArgError(e.to_string()))?;
    trace_io::save_csv(&h, Path::new(out_path)).map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "wrote {} slots ({}) for {} to {out_path}\n",
        h.len(),
        h.duration(),
        inst.name
    ))
}

/// `spotbid analyze`.
pub fn cmd_analyze(args: &Args) -> Result<String, ArgError> {
    args.check_known(&["history", "aws", "instance", "seed", "help"])?;
    let inst = match args.get("instance") {
        Some(n) => lookup(n)?,
        None => lookup("r3.xlarge")?,
    };
    let h = history_from(args, &inst)?;
    let mut out = format!(
        "slots {}   duration {}   price [{}, {}]   mean {}\n",
        h.len(),
        h.duration(),
        h.min_price(),
        h.max_price(),
        h.mean_price()
    );
    if let Ok(r1) = analyze::price_autocorrelation(&h, 1) {
        let r12 = analyze::price_autocorrelation(&h, 12).unwrap_or(f64::NAN);
        out.push_str(&format!(
            "autocorrelation  lag-1 {r1:.3}   lag-12 {r12:.3}\n"
        ));
    }
    if let Ok(ks) = analyze::ks_day_night(&h) {
        out.push_str(&format!(
            "day/night K-S    statistic {:.4}   p {:.3}\n",
            ks.statistic, ks.p_value
        ));
    }
    if let Ok((centers, dens)) = analyze::price_histogram(&h, 16) {
        let peak = dens.iter().cloned().fold(0.0, f64::max).max(1e-12);
        out.push_str("price PDF:\n");
        for (c, d) in centers.iter().zip(&dens) {
            let bars = ((d / peak) * 40.0).round() as usize;
            out.push_str(&format!("  {c:>8.4} |{}\n", "#".repeat(bars)));
        }
    }
    Ok(out)
}

/// `spotbid mapreduce`.
pub fn cmd_mapreduce(args: &Args) -> Result<String, ArgError> {
    args.check_known(&[
        "master", "slave", "ts", "tr-secs", "to-secs", "m-max", "seed", "help",
    ])?;
    let master = lookup(args.require("master")?)?;
    let slave = lookup(args.require("slave")?)?;
    let job = job_from(args, 60.0)?;
    let m_max: u32 = args.get_or("m-max", 32)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Rng::seed_from_u64(seed);
    let mh = generate(
        &SyntheticConfig::for_instance(&master),
        TWO_MONTHS_SLOTS,
        &mut rng,
    )
    .map_err(|e| ArgError(e.to_string()))?;
    let sh = generate(
        &SyntheticConfig::for_instance(&slave),
        TWO_MONTHS_SLOTS,
        &mut rng,
    )
    .map_err(|e| ArgError(e.to_string()))?;
    let mm = EmpiricalPrices::from_history_with_cap(&mh, master.on_demand)
        .map_err(|e| ArgError(e.to_string()))?;
    let sm = EmpiricalPrices::from_history_with_cap(&sh, slave.on_demand)
        .map_err(|e| ArgError(e.to_string()))?;
    let p = mapreduce::plan(&mm, &sm, &job, m_max).map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "master {}  one-time bid {}\n\
         slaves {} × {}  persistent bid {}\n\
         worst-case completion {}\n\
         expected cost: master {} + slaves {} = {}  (master share {:.0}%)\n",
        master.name,
        p.master.price,
        p.m,
        slave.name,
        p.slaves.price,
        p.worst_case_completion,
        p.master_cost,
        p.slaves.expected_cost,
        p.total_cost,
        p.master_cost_fraction() * 100.0,
    ))
}

/// `spotbid risk`.
pub fn cmd_risk(args: &Args) -> Result<String, ArgError> {
    use spotbid_core::risk::{optimal_bid_risk_aware, RiskProfile};
    use spotbid_market::units::Hours;
    args.check_known(&[
        "instance",
        "ts",
        "tr-secs",
        "to-secs",
        "max-cost-std",
        "deadline-hours",
        "epsilon",
        "trials",
        "seed",
        "help",
    ])?;
    let inst = lookup(args.require("instance")?)?;
    let job = job_from(args, 0.0)?;
    let history = history_from(args, &inst)?;
    let model = EmpiricalPrices::from_history_with_cap(&history, inst.on_demand)
        .map_err(|e| ArgError(e.to_string()))?;
    let profile = RiskProfile {
        max_cost_std: match args.get("max-cost-std") {
            Some(_) => Some(args.get_or("max-cost-std", 0.0)?),
            None => None,
        },
        deadline: match args.get("deadline-hours") {
            Some(_) => Some((
                Hours::new(args.get_or("deadline-hours", 0.0)?),
                args.get_or("epsilon", 0.05)?,
            )),
            None => None,
        },
    };
    let trials: usize = args.get_or("trials", 300)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut rng = Rng::seed_from_u64(seed);
    let s = optimal_bid_risk_aware(&model, &job, &profile, &mut rng, 24, trials)
        .map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "{} — risk-aware bid over {} Monte Carlo replays\n\
         bid          {}\n\
         cost         ${:.4} ± {:.4} (std)\n\
         completion   {:.3} h ± {:.3}\n\
         P[miss deadline] {:.1}%\n",
        inst.name,
        trials,
        s.price,
        s.cost.mean,
        s.cost.std_dev,
        s.completion.mean,
        s.completion.std_dev,
        s.deadline_exceed_prob * 100.0,
    ))
}

/// `spotbid engine`.
pub fn cmd_engine(args: &Args) -> Result<String, ArgError> {
    use spotbid_engine::{run_closed_loop_with_stats, ClosedLoopConfig};
    use spotbid_market::units::Price;
    use spotbid_market::{MarketParams, ProviderPolicy, Supply};
    args.check_known(&[
        "tenants",
        "strategy",
        "bid",
        "percentile",
        "ts",
        "tr-secs",
        "warmup",
        "horizon",
        "arrivals",
        "pi-bar",
        "pi-min",
        "resubmit",
        "capacity",
        "od-reserved",
        "od-arrivals",
        "od-departure",
        "markets",
        "seed",
        "help",
    ])?;
    let tenants: usize = args.get_or("tenants", 4)?;
    let strategy = match args.get("strategy").unwrap_or("persistent") {
        "onetime" => BiddingStrategy::OptimalOneTime,
        "persistent" => BiddingStrategy::OptimalPersistent,
        "percentile" => BiddingStrategy::Percentile(args.get_or("percentile", 0.9)?),
        "fixed" => BiddingStrategy::FixedBid(Price::new(args.get_or("bid", 0.30)?)),
        "ondemand" => BiddingStrategy::OnDemand,
        other => return Err(ArgError(format!("unknown strategy {other:?}"))),
    };
    let pi_bar: f64 = args.get_or("pi-bar", 0.35)?;
    let pi_min: f64 = args.get_or("pi-min", 0.02)?;
    let params = MarketParams::new(Price::new(pi_bar), Price::new(pi_min), 0.05, 0.05)
        .map_err(|e| ArgError(e.to_string()))?;
    let job = JobSpec::builder(args.get_or("ts", 1.0)?)
        .recovery_secs(args.get_or("tr-secs", 60.0)?)
        .build()
        .map_err(|e| ArgError(e.to_string()))?;
    let capacity: u32 = args.get_or("capacity", 0)?;
    let supply = if capacity == 0 {
        if args.get("od-reserved").is_some()
            || args.get("od-arrivals").is_some()
            || args.get("od-departure").is_some()
        {
            return Err(ArgError(
                "--od-reserved/--od-arrivals/--od-departure require --capacity".into(),
            ));
        }
        Supply::Unbounded
    } else {
        let policy = match args.get("od-reserved") {
            Some(_) => ProviderPolicy::StaticSplit {
                reserved: args.get_or("od-reserved", 0)?,
            },
            None => ProviderPolicy::UtilizationTracking { od_cap: capacity },
        };
        Supply::Finite { capacity, policy }
    };
    let cfg = ClosedLoopConfig {
        params,
        slot_len: job.slot,
        on_demand: Price::new(pi_bar),
        job,
        warmup_slots: args.get_or("warmup", 100)?,
        horizon_slots: args.get_or("horizon", 500)?,
        background_arrivals: args.get_or("arrivals", 3.0)?,
        max_resubmissions: args.get_or("resubmit", 4)?,
        supply,
        od_arrivals: args.get_or("od-arrivals", 0.0)?,
        od_departure: args.get_or("od-departure", 0.0)?,
    };
    let seed: u64 = args.get_or("seed", 1)?;
    let markets: usize = args.get_or("markets", 1)?;
    if markets == 0 {
        return Err(ArgError("--markets must be at least 1".into()));
    }
    if markets > 1 {
        return cmd_engine_portfolio(markets, tenants, strategy, &cfg, seed);
    }
    let strategies = vec![strategy; tenants];
    let (report, stats) = run_closed_loop_with_stats(&strategies, &cfg, seed, None)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "closed loop — {tenants} × {strategy:?} tenants, {} job, seed {seed}\n\
         market: on-demand/π̄ ${pi_bar:.3}, π_min ${pi_min:.3}, background λ {:.1}/slot\n\
         warmup {} slots, horizon {} slots ({})\n\n",
        job.execution,
        cfg.background_arrivals,
        cfg.warmup_slots,
        cfg.horizon_slots,
        cfg.slot_len * cfg.horizon_slots as f64,
    );
    out.push_str("tenant  completed  spot slots  interrupts  resubmits       cost   savings\n");
    for t in &report.tenants {
        out.push_str(&format!(
            "{:>6}  {:>9}  {:>10}  {:>10}  {:>9}  {:>9} {:>8.1}%\n",
            t.tenant,
            if t.completed { "yes" } else { "no" },
            t.spot_slots,
            t.interruptions,
            t.resubmissions,
            format!("${:.4}", t.cost.as_f64()),
            t.savings * 100.0,
        ));
    }
    out.push_str(&format!(
        "\ncompleted in loop {}/{}   mean savings {:.1}%   posted price mean {} peak {}\n",
        report.completed,
        tenants,
        report.mean_savings * 100.0,
        report.mean_price,
        report.peak_price,
    ));
    out.push_str(&format!(
        "wakeup fleet: {} slots, {} skipped in O(1) ({:.1}%), {} tenant wakeups\n",
        stats.slots,
        stats.skipped_slots,
        if stats.slots > 0 {
            stats.skipped_slots as f64 / stats.slots as f64 * 100.0
        } else {
            0.0
        },
        stats.woken,
    ));
    if let Some(p) = &report.provider {
        out.push_str(&format!(
            "provider: {} servers, utilization {:.1}%, spot revenue ${:.2}, od revenue ${:.2}, \
             {} reclaims, {} od admissions, {} od rejections\n",
            p.capacity,
            p.mean_utilization * 100.0,
            p.spot_revenue.as_f64(),
            p.od_revenue.as_f64(),
            p.reclaims,
            p.od_admissions,
            p.od_rejections,
        ));
    }
    Ok(out)
}

/// `spotbid engine --markets M`: the same tenants spread split-even
/// across M correlated zones (market 0 keeps the requested floor, each
/// sibling sits $0.004 higher; a third of the background load is the
/// shared shock). Finite `--capacity` applies to every member; the
/// on-demand churn process is single-market only.
fn cmd_engine_portfolio(
    markets: usize,
    tenants: usize,
    base: BiddingStrategy,
    cfg: &spotbid_engine::ClosedLoopConfig,
    seed: u64,
) -> Result<String, ArgError> {
    use spotbid_core::portfolio::PortfolioStrategy;
    use spotbid_engine::{run_portfolio_loop_with_stats, PortfolioLoopConfig, PortfolioMarket};
    use spotbid_market::units::Price;
    use spotbid_market::MarketParams;
    if cfg.od_arrivals != 0.0 || cfg.od_departure != 0.0 {
        return Err(ArgError(
            "--od-arrivals/--od-departure are single-market only (drop --markets)".into(),
        ));
    }
    let pcfg = PortfolioLoopConfig {
        markets: (0..markets)
            .map(|i| {
                Ok(PortfolioMarket {
                    name: format!("zone-{i}"),
                    params: MarketParams::new(
                        cfg.params.pi_bar,
                        Price::new(cfg.params.pi_min.as_f64() + 0.004 * i as f64),
                        0.05,
                        0.05,
                    )
                    .map_err(|e| ArgError(e.to_string()))?,
                    idio_arrivals: cfg.background_arrivals * 2.0 / 3.0,
                    supply: cfg.supply,
                })
            })
            .collect::<Result<_, ArgError>>()?,
        shared_arrivals: cfg.background_arrivals / 3.0,
        slot_len: cfg.slot_len,
        on_demand: cfg.on_demand,
        job: cfg.job,
        warmup_slots: cfg.warmup_slots,
        horizon_slots: cfg.horizon_slots,
        max_resubmissions: cfg.max_resubmissions,
    };
    let strategies = vec![PortfolioStrategy::SplitEven { base }; tenants];
    let (report, stats) = run_portfolio_loop_with_stats(&strategies, &pcfg, seed, None)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = format!(
        "portfolio closed loop — {tenants} × split-even({base:?}) tenants over {markets} zones, \
         {} job, seed {seed}\n\
         background λ {:.1}/slot per zone ({:.1} shared), warmup {} slots, horizon {} slots\n\n",
        cfg.job.execution,
        cfg.background_arrivals,
        pcfg.shared_arrivals,
        pcfg.warmup_slots,
        pcfg.horizon_slots,
    );
    out.push_str("tenant  completed  spot slots  interrupts  replans       cost   savings\n");
    for t in &report.tenants {
        out.push_str(&format!(
            "{:>6}  {:>9}  {:>10}  {:>10}  {:>7}  {:>9} {:>8.1}%\n",
            t.tenant,
            if t.completed { "yes" } else { "no" },
            t.spot_slots,
            t.interruptions,
            t.resubmissions,
            format!("${:.4}", t.cost.as_f64()),
            t.savings * 100.0,
        ));
    }
    out.push_str(&format!(
        "\ncompleted in loop {}/{}   mean savings {:.1}%\n",
        report.completed,
        tenants,
        report.mean_savings * 100.0,
    ));
    for (m, market) in pcfg.markets.iter().enumerate() {
        out.push_str(&format!(
            "{}: posted price mean {} peak {}, {} report wakeups",
            market.name, report.mean_price[m], report.peak_price[m], stats.swept[m],
        ));
        if let Some(p) = &report.provider[m] {
            out.push_str(&format!(
                ", provider {} servers, utilization {:.1}%, {} reclaims",
                p.capacity,
                p.mean_utilization * 100.0,
                p.reclaims,
            ));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "wakeup fleet: {} slots, {} skipped in O(1) ({:.1}%), {} tenant wakeups\n",
        stats.slots,
        stats.skipped_slots,
        if stats.slots > 0 {
            stats.skipped_slots as f64 / stats.slots as f64 * 100.0
        } else {
            0.0
        },
        stats.woken,
    ));
    Ok(out)
}

/// `spotbid catalog`.
pub fn cmd_catalog(args: &Args) -> Result<String, ArgError> {
    args.check_known(&["help"])?;
    let mut out = String::from("instance     vCPU  mem GiB  on-demand $/h\n");
    for i in catalog::catalog() {
        out.push_str(&format!(
            "{:<12} {:>4}  {:>7.1}  {:>12.3}\n",
            i.name,
            i.vcpu,
            i.memory_gib,
            i.on_demand.as_f64()
        ));
    }
    Ok(out)
}

/// Dispatches a parsed command line to its subcommand.
///
/// # Errors
///
/// [`ArgError`] rendered to the user on any failure.
pub fn dispatch(args: &Args) -> Result<String, ArgError> {
    if args.get_bool("help").unwrap_or(false) && args.subcommand().is_none() {
        return Ok(USAGE.to_string());
    }
    match args.subcommand() {
        Some("bid") => cmd_bid(args),
        Some("simulate") => cmd_simulate(args),
        Some("generate") => cmd_generate(args),
        Some("analyze") => cmd_analyze(args),
        Some("mapreduce") => cmd_mapreduce(args),
        Some("risk") => cmd_risk(args),
        Some("engine") => cmd_engine(args),
        Some("catalog") => cmd_catalog(args),
        Some(other) => Err(ArgError(format!("unknown command {other:?}\n\n{USAGE}"))),
        None => Ok(USAGE.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(v: &[&str]) -> Result<String, ArgError> {
        dispatch(&Args::parse(v.iter().map(|s| s.to_string())).unwrap())
    }

    #[test]
    fn usage_paths() {
        assert!(run(&[]).unwrap().contains("USAGE"));
        assert!(run(&["--help"]).unwrap().contains("USAGE"));
        assert!(run(&["frobnicate"]).is_err());
    }

    #[test]
    fn catalog_lists_types() {
        let out = run(&["catalog"]).unwrap();
        assert!(out.contains("r3.xlarge"));
        assert!(out.contains("c3.8xlarge"));
    }

    #[test]
    fn bid_on_synthetic_history() {
        let out = run(&[
            "bid",
            "--instance",
            "r3.xlarge",
            "--ts",
            "1.0",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(out.contains("one-time bid"));
        assert!(out.contains("persistent bid"));
        assert!(run(&["bid", "--instance", "nope"]).is_err());
        assert!(run(&["bid"]).is_err()); // missing --instance
        assert!(run(&["bid", "--instance", "r3.xlarge", "--bogus", "1"]).is_err());
    }

    #[test]
    fn simulate_quick() {
        let out = run(&[
            "simulate",
            "--instance",
            "c3.4xlarge",
            "--strategy",
            "ondemand",
            "--trials",
            "2",
            "--seed",
            "5",
        ])
        .unwrap();
        assert_eq!(
            out,
            "c3.4xlarge × 2 trials (OnDemand)\n\
             cost        $0.8400 ± 0.0000   (100.0% of on-demand)\n\
             completion  1.000 h ± 0.000\n\
             interruptions 0.00   completed 100%\n"
        );
        assert!(run(&["simulate", "--instance", "c3.4xlarge", "--strategy", "zzz"]).is_err());
    }

    #[test]
    fn simulate_reports_the_harness_config_error() {
        let err = run(&["simulate", "--instance", "c3.4xlarge", "--trials", "0"]).unwrap_err();
        assert!(
            err.0
                .contains("invalid config: at least one trial required"),
            "{err}"
        );
    }

    #[test]
    fn generate_and_analyze_roundtrip() {
        let dir = std::env::temp_dir().join("spotbid_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.csv");
        let p = path.to_str().unwrap();
        let out = run(&[
            "generate",
            "--instance",
            "r3.xlarge",
            "--out",
            p,
            "--slots",
            "4000",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(out.contains("wrote 4000 slots"));
        let out = run(&["analyze", "--history", p]).unwrap();
        assert!(out.contains("price PDF"));
        assert!(out.contains("day/night K-S"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn risk_command() {
        let out = run(&[
            "risk",
            "--instance",
            "r3.xlarge",
            "--deadline-hours",
            "1.5",
            "--epsilon",
            "0.1",
            "--trials",
            "50",
            "--seed",
            "2",
        ])
        .unwrap();
        assert!(out.contains("risk-aware bid"));
        assert!(out.contains("P[miss deadline]"));
        assert!(run(&["risk", "--instance", "r3.xlarge", "--bad-flag", "1"]).is_err());
    }

    #[test]
    fn engine_closed_loop() {
        let argv = [
            "engine",
            "--tenants",
            "2",
            "--strategy",
            "fixed",
            "--bid",
            "0.34",
            "--warmup",
            "20",
            "--horizon",
            "80",
            "--seed",
            "3",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("closed loop — 2 ×"));
        assert!(out.contains("completed in loop"));
        assert!(out.contains("posted price mean"));
        // The wakeup-fleet counters are part of the report. (The loop may
        // stop before the horizon once every tenant completes, so the
        // slot count is asserted present, not pinned.)
        assert!(out.contains("wakeup fleet: "), "{out}");
        assert!(out.contains("skipped in O(1)"), "{out}");
        assert!(out.contains("tenant wakeups"), "{out}");
        assert_eq!(
            out,
            run(&argv).unwrap(),
            "engine run is not seed-deterministic"
        );
        assert!(run(&["engine", "--strategy", "zzz"]).is_err());
        assert!(run(&["engine", "--bogus", "1"]).is_err());
        assert!(run(&["engine", "--warmup", "0"]).is_err());
    }

    #[test]
    fn engine_finite_capacity() {
        let argv = [
            "engine",
            "--tenants",
            "4",
            "--strategy",
            "fixed",
            "--bid",
            "0.34",
            "--warmup",
            "20",
            "--horizon",
            "80",
            "--capacity",
            "8",
            "--od-arrivals",
            "0.5",
            "--od-departure",
            "0.2",
            "--seed",
            "3",
        ];
        let out = run(&argv).unwrap();
        // The provider line joins the report under --capacity, mirroring
        // the wakeup-fleet counters.
        assert!(out.contains("provider: 8 servers"), "{out}");
        assert!(out.contains("utilization"), "{out}");
        assert!(out.contains("reclaims"), "{out}");
        assert_eq!(
            out,
            run(&argv).unwrap(),
            "finite-capacity engine run is not seed-deterministic"
        );
        // Unbounded runs keep the historical report shape...
        assert!(!run(&["engine", "--horizon", "40"])
            .unwrap()
            .contains("provider:"));
        // ...and the on-demand knobs are rejected without a capacity.
        assert!(run(&["engine", "--od-arrivals", "1.0"]).is_err());
        assert!(run(&["engine", "--capacity", "0", "--od-reserved", "2"]).is_err());
    }

    #[test]
    fn engine_portfolio_markets() {
        let argv = [
            "engine",
            "--tenants",
            "3",
            "--strategy",
            "fixed",
            "--bid",
            "0.34",
            "--warmup",
            "20",
            "--horizon",
            "80",
            "--markets",
            "3",
            "--seed",
            "3",
        ];
        let out = run(&argv).unwrap();
        assert!(out.contains("portfolio closed loop — 3 ×"), "{out}");
        assert!(out.contains("over 3 zones"), "{out}");
        // Per-zone summaries plus the shared wakeup-fleet counters.
        for zone in ["zone-0", "zone-1", "zone-2"] {
            assert!(out.contains(zone), "{out}");
        }
        assert!(out.contains("report wakeups"), "{out}");
        assert!(out.contains("wakeup fleet: "), "{out}");
        assert!(out.contains("skipped in O(1)"), "{out}");
        assert_eq!(
            out,
            run(&argv).unwrap(),
            "portfolio engine run is not seed-deterministic"
        );
        // Finite capacity applies per zone; the od churn stays
        // single-market.
        let finite = run(&[
            "engine",
            "--tenants",
            "2",
            "--horizon",
            "40",
            "--markets",
            "2",
            "--capacity",
            "6",
        ])
        .unwrap();
        assert!(finite.contains("provider 6 servers"), "{finite}");
        assert!(run(&["engine", "--markets", "0"]).is_err());
        assert!(run(&[
            "engine",
            "--markets",
            "2",
            "--capacity",
            "6",
            "--od-arrivals",
            "1.0"
        ])
        .is_err());
    }

    #[test]
    fn mapreduce_plan() {
        let out = run(&[
            "mapreduce",
            "--master",
            "m3.xlarge",
            "--slave",
            "c3.4xlarge",
            "--seed",
            "9",
        ])
        .unwrap();
        assert!(out.contains("one-time bid"));
        assert!(out.contains("persistent bid"));
        assert!(out.contains("master share"));
    }
}
