//! Cross-crate integration tests: the full pipeline from trace generation
//! through bidding to replayed outcomes, exercised the way a downstream
//! user would drive it.

use spotbid::core::price_model::EmpiricalPrices;
use spotbid::core::{onetime, persistent, BidDecision, BiddingStrategy, JobSpec, PriceModel};
use spotbid::engine::experiment::{run_single_instance, ExperimentConfig};
use spotbid::engine::{run_job, RunStatus};
use spotbid::numerics::rng::Rng;
use spotbid::trace::{analyze, catalog, synthetic};

fn quick_cfg(seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        trials: 6,
        seed,
        warmup_slots: 5000,
        horizon_slots: 3000,
        ..Default::default()
    }
}

#[test]
fn headline_savings_hold_across_the_catalog() {
    // The paper's central claim — ~90% savings on a variety of instance
    // types — must hold for every Table 3 type end to end.
    let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
    for inst in catalog::table3_instances() {
        let r = run_single_instance(
            &inst,
            BiddingStrategy::OptimalPersistent,
            &job,
            &quick_cfg(0xE2E),
        )
        .unwrap();
        let savings = 1.0 - r.cost.mean / inst.on_demand.as_f64();
        assert!(
            (0.75..0.97).contains(&savings),
            "{}: savings {savings:.3}",
            inst.name
        );
        assert_eq!(r.completion_rate(), 1.0, "{}", inst.name);
    }
}

#[test]
fn analytic_predictions_track_measured_outcomes() {
    // Figures 5–7's "expected vs actual" agreement: predictions from the
    // price model must track replayed outcomes.
    let inst = catalog::by_name("r3.2xlarge").unwrap();
    let job = JobSpec::builder(2.0).recovery_secs(30.0).build().unwrap();
    let cfg = ExperimentConfig {
        trials: 10,
        ..quick_cfg(0xACC)
    };
    let r = run_single_instance(&inst, BiddingStrategy::OptimalPersistent, &job, &cfg).unwrap();
    let predicted = r.mean_predicted_cost().unwrap();
    let measured = r.cost.mean;
    let rel = (measured - predicted).abs() / predicted;
    assert!(
        rel < 0.35,
        "predicted {predicted:.4} vs measured {measured:.4} ({rel:.2} rel)"
    );
    let predicted_t = r.mean_predicted_completion().unwrap();
    let measured_t = r.completion_time.mean;
    assert!(
        (measured_t - predicted_t).abs() / predicted_t < 0.5,
        "completion: predicted {predicted_t:.3} vs measured {measured_t:.3}"
    );
}

#[test]
fn bidding_pipeline_is_deterministic() {
    // Same seed → identical histories, bids, and outcomes across the whole
    // stack (the reproducibility contract every experiment relies on).
    let inst = catalog::by_name("c3.8xlarge").unwrap();
    let mk = || {
        let cfg = synthetic::SyntheticConfig::for_instance(&inst);
        let h = synthetic::generate(&cfg, 8000, &mut Rng::seed_from_u64(99)).unwrap();
        let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
        let job = JobSpec::builder(1.0).recovery_secs(10.0).build().unwrap();
        let bid = persistent::optimal_bid(&model, &job).unwrap();
        let outcome = run_job(
            &h.slice(4000, 8000).unwrap(),
            BidDecision::Spot {
                price: bid.price,
                persistent: true,
            },
            &job,
            0,
        )
        .unwrap();
        (bid.price, outcome.cost, outcome.interruptions)
    };
    assert_eq!(mk(), mk());
}

#[test]
fn onetime_bid_survives_when_trace_stays_below_it() {
    // Coupling between the quantile bid and the replay: on a trace where
    // the price never exceeds the one-time bid, the run must complete with
    // zero interruptions and cost below on-demand.
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = synthetic::SyntheticConfig::for_instance(&inst);
    let mut rng = Rng::seed_from_u64(31);
    let job = JobSpec::builder(1.0).build().unwrap();
    let mut tested = 0;
    for _ in 0..20 {
        let h = synthetic::generate(&cfg, 6000, &mut rng).unwrap();
        let past = h.slice(0, 5000).unwrap();
        let future = h.slice(5000, 5012).unwrap();
        let model = EmpiricalPrices::from_history_with_cap(&past, inst.on_demand).unwrap();
        let bid = onetime::optimal_bid(&model, &job).unwrap();
        if future.prices().iter().all(|&p| bid.price >= p) {
            let out = run_job(
                &future,
                BidDecision::Spot {
                    price: bid.price,
                    persistent: false,
                },
                &job,
                0,
            )
            .unwrap();
            assert_eq!(out.status, RunStatus::Completed);
            assert_eq!(out.interruptions, 0);
            assert!(out.cost.as_f64() < inst.on_demand.as_f64());
            tested += 1;
        }
    }
    assert!(tested >= 5, "only {tested} clean traces in 20 seeds");
}

#[test]
fn trace_statistics_support_the_modeling_assumptions() {
    // The §4.3 empirical facts the strategies rest on, checked through the
    // public API: floor-concentrated PDF, stationary day/night split
    // (i.i.d. variant), rapidly decaying autocorrelation (sticky variant).
    let inst = catalog::by_name("m3.2xlarge").unwrap();
    let cfg = synthetic::SyntheticConfig::for_instance(&inst);
    let mut rng = Rng::seed_from_u64(47);
    let sticky = synthetic::generate(&cfg, 12 * 24 * 30, &mut rng).unwrap();
    let (_, dens) = analyze::price_histogram(&sticky, 30).unwrap();
    assert!(dens[0] >= dens.iter().cloned().fold(0.0, f64::max) - 1e-12);
    let r1 = analyze::price_autocorrelation(&sticky, 1).unwrap();
    let r24 = analyze::price_autocorrelation(&sticky, 24).unwrap();
    assert!(r1 > 0.5 && r24 < 0.4, "r1 {r1}, r24 {r24}");

    let iid = synthetic::generate(&cfg.with_persistence(0.0), 12 * 24 * 30, &mut rng).unwrap();
    let ks = analyze::ks_day_night(&iid).unwrap();
    assert!(ks.p_value > 0.01);
}

#[test]
fn model_quantities_consistent_across_layers() {
    // The empirical model's F/E agree with direct trace statistics.
    let inst = catalog::by_name("c3.2xlarge").unwrap();
    let cfg = synthetic::SyntheticConfig::for_instance(&inst);
    let mut rng = Rng::seed_from_u64(53);
    let h = synthetic::generate(&cfg, 10_000, &mut rng).unwrap();
    let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
    let probe = model.quantile(0.8).unwrap();
    let manual_f = h.prices().iter().filter(|&&p| p <= probe).count() as f64 / h.len() as f64;
    assert!((model.cdf(probe) - manual_f).abs() < 1e-12);
    let manual_e: f64 = {
        let below: Vec<f64> = h
            .raw()
            .into_iter()
            .filter(|&p| p <= probe.as_f64())
            .collect();
        below.iter().sum::<f64>() / below.len() as f64
    };
    assert!((model.expected_price_below(probe).unwrap().as_f64() - manual_e).abs() < 1e-12);
}
