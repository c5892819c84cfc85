//! The paper's quantitative claims, checked as integration tests over the
//! experiment modules (the same code paths the figure binaries run, at
//! reduced trial counts).

use spotbid::core::mapreduce;
use spotbid::core::price_model::EmpiricalPrices;
use spotbid::core::{onetime, persistent, JobSpec};
use spotbid::market::sim::{BidKind, BidRequest, SpotMarket, WorkModel};
use spotbid::market::units::{Hours, Price};
use spotbid::market::MarketParams;
use spotbid::numerics::rng::Rng;
use spotbid::trace::{catalog, synthetic};
use spotbid_bench::experiments::{stability, table3};

#[test]
fn proposition2_equilibrium_price_is_iid_transform_of_arrivals() {
    // At the queue fixed point the posted price equals h(λ) for every
    // arrival hypothesis — the property that justifies bidding from the
    // marginal price distribution.
    for row in stability::run(0x9A9) {
        assert!(
            row.equilibrium_price_error < 1e-6,
            "{}: {}",
            row.arrivals,
            row.equilibrium_price_error
        );
    }
}

#[test]
fn table3_bid_structure_is_stable_across_seeds() {
    // The orderings the paper's Table 3 exhibits must hold for every seed,
    // not just a lucky one.
    for seed in [1, 2, 3, 4, 5] {
        for r in table3::run(seed) {
            assert!(r.persistent_10s <= r.persistent_30s + 1e-12, "seed {seed}");
            assert!(r.persistent_30s <= r.one_time + 1e-12, "seed {seed}");
            assert!(r.one_time < r.on_demand, "seed {seed}");
        }
    }
}

#[test]
fn eq16_optimal_bid_depends_on_recovery_not_execution() {
    // Proposition 5's structural insight, end to end over generated
    // traces: doubling t_s leaves p* unchanged; doubling t_r moves it.
    let inst = catalog::by_name("r3.4xlarge").unwrap();
    let cfg = synthetic::SyntheticConfig::for_instance(&inst);
    let h = synthetic::generate(&cfg, 17_568, &mut Rng::seed_from_u64(61)).unwrap();
    let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
    let bid = |ts: f64, tr: f64| {
        persistent::optimal_bid(
            &model,
            &JobSpec::builder(ts).recovery_secs(tr).build().unwrap(),
        )
        .unwrap()
        .price
    };
    assert_eq!(bid(1.0, 30.0), bid(4.0, 30.0));
    assert_eq!(bid(2.0, 10.0), bid(8.0, 10.0));
    assert!(bid(1.0, 10.0) <= bid(1.0, 60.0));
}

#[test]
fn mapreduce_minimum_parallelism_is_the_paper_scale() {
    // §7.2: "this minimum number of nodes ... can be as low as 3 or 4".
    let job = JobSpec::builder(1.0)
        .recovery_secs(30.0)
        .overhead_secs(60.0)
        .build()
        .unwrap();
    let mut seen = Vec::new();
    for (i, (master, slave)) in catalog::table4_pairings().into_iter().enumerate() {
        let mut rng = Rng::seed_from_u64(71 + i as u64);
        let mh = synthetic::generate(
            &synthetic::SyntheticConfig::for_instance(&master),
            17_568,
            &mut rng,
        )
        .unwrap();
        let sh = synthetic::generate(
            &synthetic::SyntheticConfig::for_instance(&slave),
            17_568,
            &mut rng,
        )
        .unwrap();
        let mm = EmpiricalPrices::from_history_with_cap(&mh, master.on_demand).unwrap();
        let sm = EmpiricalPrices::from_history_with_cap(&sh, slave.on_demand).unwrap();
        let m = mapreduce::minimum_parallelism(&mm, &sm, &job, 64).unwrap();
        assert!((1..=8).contains(&m), "{}: M̄ = {m}", slave.name);
        seen.push(m);
    }
    // At least one pairing needs genuine parallelism (M̄ > 1).
    assert!(seen.iter().any(|&m| m > 1), "{seen:?}");
}

#[test]
fn interruptibility_bound_separates_feasible_jobs() {
    // Eq. 14 through the public API: with t_r < t_k every bid is feasible;
    // with t_r ≫ t_k only high-acceptance bids are.
    let samples: Vec<f64> = (0..200).map(|i| 0.03 + (i % 50) as f64 * 0.002).collect();
    let model =
        EmpiricalPrices::from_samples(&samples, spotbid::market::units::Price::new(0.35)).unwrap();
    let light = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
    let rec = persistent::optimal_bid(&model, &light).unwrap();
    assert!(rec.price.as_f64() > 0.0);
    let heavy = JobSpec::builder(10.0)
        .recovery(spotbid::market::units::Hours::new(1.0))
        .build()
        .unwrap();
    // 1-hour recovery vs 5-minute slots: needs F > 1 − 1/12 ≈ 0.917.
    let heavy_rec = persistent::optimal_bid(&model, &heavy).unwrap();
    assert!(
        heavy_rec.acceptance_prob > 0.9,
        "heavy job must bid into the top decile, got F = {}",
        heavy_rec.acceptance_prob
    );
}

/// One empirical price model per catalog instance and seed 1–8: a month
/// of synthetic five-minute prices capped at the instance's on-demand
/// price.
fn catalog_models() -> Vec<(String, u64, EmpiricalPrices)> {
    let mut models = Vec::new();
    for inst in catalog::catalog() {
        let cfg = synthetic::SyntheticConfig::for_instance(&inst);
        for seed in 1..=8 {
            let h = synthetic::generate(&cfg, 8_640, &mut Rng::seed_from_u64(seed)).unwrap();
            let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
            models.push((inst.name.to_string(), seed, model));
        }
    }
    models
}

#[test]
fn proposition4_one_time_bid_never_rises_with_the_slot_length() {
    // Eq. 11 bids the 1 − t_k/t_s quantile: a longer slot needs fewer
    // uninterrupted slots, so the bid can only fall.
    let slot_minutes = [1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0];
    for (name, seed, model) in catalog_models() {
        let bids: Vec<Price> = slot_minutes
            .iter()
            .map(|&m| {
                let job = JobSpec::builder(2.0)
                    .slot(Hours::from_minutes(m))
                    .build()
                    .unwrap();
                onetime::optimal_bid(&model, &job).unwrap().price
            })
            .collect();
        for (w, pair) in bids.windows(2).enumerate() {
            assert!(
                pair[1] <= pair[0],
                "{name} seed {seed}: t_k {} min bids {:?}, {} min bids {:?}",
                slot_minutes[w],
                pair[0],
                slot_minutes[w + 1],
                pair[1]
            );
        }
    }
}

#[test]
fn proposition5_persistent_bid_never_falls_with_the_recovery_time() {
    // Eq. 16: a longer recovery makes each interruption dearer, so the
    // optimal persistent bid can only rise.
    let recovery_secs = [1.0, 5.0, 10.0, 30.0, 60.0, 100.0, 200.0];
    for (name, seed, model) in catalog_models() {
        let bids: Vec<Price> = recovery_secs
            .iter()
            .map(|&tr| {
                let job = JobSpec::builder(2.0).recovery_secs(tr).build().unwrap();
                persistent::optimal_bid(&model, &job).unwrap().price
            })
            .collect();
        for (w, pair) in bids.windows(2).enumerate() {
            assert!(
                pair[0] <= pair[1],
                "{name} seed {seed}: t_r {} s bids {:?}, {} s bids {:?}",
                recovery_secs[w],
                pair[0],
                recovery_secs[w + 1],
                pair[1]
            );
        }
    }
}

#[test]
fn eq4_one_slot_acceptance_and_finishes_match_the_queue_model() {
    // From a fresh pool of n one-time bids uniform on [π_min, π̄], one
    // step of the bid-level market accepts Binomial(n, (π̄ − π*)/(π̄ −
    // π_min)) of them, and the geometric work finishes Binomial(accepted,
    // θ) in the same slot — Eq. 4's acceptance and departure terms. Only
    // this one-slot identity holds: over many slots Eq. 4 is a
    // mean-field recursion the bid-level market does not follow.
    let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.1).unwrap();
    let (lo, hi) = (params.pi_min.as_f64(), params.pi_bar.as_f64());
    let trials = 200u64;
    for (n, seed) in [(50usize, 0xE4_0050u64), (500, 0xE4_0500), (5000, 0xE4_5000)] {
        let (mut started, mut finished) = (0usize, 0usize);
        let mut price = None;
        for k in 0..trials {
            let mut rng = Rng::seed_from_u64(seed + k);
            let mut market = SpotMarket::new(params, Hours::from_minutes(5.0));
            for _ in 0..n {
                market.submit(BidRequest {
                    price: Price::new(rng.range_f64(lo, hi)),
                    kind: BidKind::OneTime,
                    work: WorkModel::Geometric,
                });
            }
            let report = market.step(&mut rng);
            assert_eq!(report.demand, n);
            // π* depends on L(t) = n alone, so every trial posts it.
            assert_eq!(*price.get_or_insert(report.price), report.price);
            started += report.started.len();
            finished += report.finished.len();
        }
        let pi = price.unwrap().as_f64();
        let accept = (hi - pi) / (hi - lo);
        let draws = (n as u64 * trials) as f64;
        let sd = (draws * accept * (1.0 - accept)).sqrt();
        let expected = draws * accept;
        assert!(
            (started as f64 - expected).abs() <= 4.0 * sd,
            "n {n}: {started} started, expected {expected:.1} ± {sd:.1} at π* {pi}"
        );
        let theta = params.theta;
        let sd = (started as f64 * theta * (1.0 - theta)).sqrt();
        let expected = started as f64 * theta;
        assert!(
            (finished as f64 - expected).abs() <= 4.0 * sd,
            "n {n}: {finished} finished of {started} started, expected {expected:.1} ± {sd:.1}"
        );
    }
}

/// The bid-level market under a stationary arrival stream: each slot
/// brings Poisson(λ) bids of `kind`, priced uniformly on [π_min, π̄], with
/// geometric work (θ = 0.1). Returns, over the second half of `slots`:
/// the mean reported demand L(t), the acceptance share a = (π̄ − π*) /
/// (π̄ − π_min) at the mean posted price π*, and the open count's growth
/// per slot.
fn queue_law(lambda: f64, kind: BidKind, slots: usize, seed: u64) -> (f64, f64, f64) {
    let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.1).unwrap();
    let (lo, hi) = (params.pi_min.as_f64(), params.pi_bar.as_f64());
    let mut rng = Rng::seed_from_u64(seed);
    let mut market = SpotMarket::new(params, Hours::from_minutes(5.0));
    let half = slots / 2;
    let (mut demand, mut price, mut open_at_half) = (0.0, 0.0, 0);
    for slot in 0..slots {
        for _ in 0..rng.poisson(lambda) {
            market.submit(BidRequest {
                price: Price::new(rng.range_f64(lo, hi)),
                kind,
                work: WorkModel::Geometric,
            });
        }
        let report = market.step(&mut rng);
        if slot == half {
            open_at_half = report.demand;
        }
        if slot >= half {
            demand += report.demand as f64;
            price += report.price.as_f64();
        }
    }
    let open_at_end = market.step(&mut rng).demand;
    let n = (slots - half) as f64;
    let accept = (hi - price / n) / (hi - lo);
    let growth = (open_at_end as f64 - open_at_half as f64) / n;
    (demand / n, accept, growth)
}

#[test]
fn one_time_bids_follow_the_bid_level_law_not_eq4() {
    // A one-time arrival starts with probability a and a runner finishes
    // with probability θ each slot, its start slot included, so the
    // running count settles at aλ(1 − θ)/θ and the reported demand at
    // λ(1 + a(1 − θ)/θ). Eq. 4 redraws every waiting bid's price each slot
    // instead: its fixed point λ/(θa) is about three times the market's.
    let theta = 0.1;
    for (lambda, seed) in [(5.0, 7), (50.0, 7), (50.0, 8)] {
        let (demand, a, _) = queue_law(lambda, BidKind::OneTime, 3_000, seed);
        let law = lambda * (1.0 + a * (1.0 - theta) / theta);
        assert!(
            (demand / law - 1.0).abs() < 0.03,
            "λ {lambda}, seed {seed}: L {demand:.1} against the bid-level law {law:.1}"
        );
        let eq4 = lambda / (theta * a);
        assert!(
            eq4 > 2.5 * demand,
            "λ {lambda}, seed {seed}: Eq. 4's fixed point {eq4:.1} against L {demand:.1}"
        );
    }
}

#[test]
fn persistent_bids_below_the_price_pile_up() {
    // A persistent bid below the posted price is never served and never
    // leaves, so the open count grows by λ(1 − a) a slot: the bid-level
    // market has no bounded queue for persistent bids (Prop. 1 is a claim
    // about the flow-level queue).
    for (lambda, seed) in [(5.0, 7), (50.0, 7), (50.0, 8)] {
        let (_, a, growth) = queue_law(lambda, BidKind::Persistent, 3_000, seed);
        let law = lambda * (1.0 - a);
        assert!(
            (growth / law - 1.0).abs() < 0.03,
            "λ {lambda}, seed {seed}: growth {growth:.3} a slot against λ(1 − a) = {law:.3}"
        );
    }
}
