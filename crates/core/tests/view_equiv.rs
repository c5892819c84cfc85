//! Shared price views ≡ per-call decisions.
//!
//! A closed loop builds one [`PriceView`] (or [`PortfolioView`]) per slot
//! and resolves every tenant's strategy against it. That is only sound if
//! a decision against a view that other decisions — other strategies,
//! other jobs, other threads — have already used is the decision a fresh
//! `decide` call returns: equal results, or equal errors in the same
//! order. These properties check it over randomized histories of 1–300
//! prices drawn from a coarse grid (so ties are the rule), every
//! `BiddingStrategy` variant and every `PortfolioStrategy` shape, and
//! the error cases the fleets must reproduce.

use spotbid_core::portfolio::PortfolioView;
use spotbid_core::{
    BidDecision, BiddingStrategy, CoreError, JobSpec, PortfolioStrategy, PriceView,
};
use spotbid_market::units::{Hours, Price};
use spotbid_numerics::rng::Rng;
use spotbid_trace::SpotPriceHistory;

const ON_DEMAND: f64 = 0.35;

/// A history of 1–300 prices on a 12-step grid over `[0.02, 0.30]`.
fn history(rng: &mut Rng) -> SpotPriceHistory {
    let len = 1 + rng.range_usize(300);
    let levels = 1 + rng.range_usize(12);
    let prices = (0..len)
        .map(|_| Price::new(0.02 + 0.024 * rng.range_usize(levels) as f64))
        .collect();
    SpotPriceHistory::new(Hours::from_minutes(5.0), prices).unwrap()
}

/// A job of 1–48 five-minute slots; recovery anywhere from zero to just
/// under the execution time, and one job in eight invalid (recovery at
/// or past the execution time).
fn job(rng: &mut Rng) -> JobSpec {
    let slots = 1 + rng.range_usize(48);
    let execution = Hours::from_minutes(5.0 * slots as f64);
    let frac = if rng.chance(0.125) {
        rng.range_f64(1.0, 1.5)
    } else {
        rng.range_f64(0.0, 0.99)
    };
    JobSpec {
        execution,
        recovery: Hours::new(execution.as_f64() * frac),
        overhead: Hours::ZERO,
        slot: Hours::from_minutes(5.0),
    }
}

/// Every variant, with the out-of-range percentile among the draws.
fn strategies(rng: &mut Rng) -> Vec<BiddingStrategy> {
    let q = match rng.range_usize(4) {
        0 => 2.0,
        1 => -0.5,
        _ => rng.next_f64(),
    };
    vec![
        BiddingStrategy::OptimalOneTime,
        BiddingStrategy::OptimalPersistent,
        BiddingStrategy::Percentile(q),
        BiddingStrategy::FixedBid(Price::new(rng.range_f64(0.0, 0.5))),
        BiddingStrategy::BestOffline {
            lookback_hours: rng.range_f64(0.1, 12.0),
        },
        BiddingStrategy::OnDemand,
    ]
}

/// Every portfolio shape over every base, with homes past M and contract
/// shares outside `[0, 1]` among the draws.
fn portfolio_strategies(rng: &mut Rng) -> Vec<PortfolioStrategy> {
    let mut out = Vec::new();
    for base in strategies(rng) {
        let spot_share = match rng.range_usize(6) {
            0 => -0.25,
            1 => 1.25,
            2 => f64::NAN,
            _ => rng.next_f64(),
        };
        out.push(PortfolioStrategy::ZoneFallback {
            home: rng.range_usize(6),
            base,
        });
        out.push(PortfolioStrategy::SplitEven { base });
        out.push(PortfolioStrategy::Contract { spot_share, base });
    }
    out
}

/// Equal results or equal errors. Debug strings compare NaN payloads
/// (a `Contract` share of NaN) that `PartialEq` would call unequal, and
/// distinguish every finite price bit pattern.
fn assert_same<T: std::fmt::Debug>(shared: &T, fresh: &T, what: &str) {
    assert_eq!(format!("{shared:?}"), format!("{fresh:?}"), "{what}");
}

fn is_model_error<T>(r: &Result<T, CoreError>) -> bool {
    matches!(r, Err(CoreError::InvalidModel { .. }))
}

#[test]
fn shared_single_market_view_matches_fresh_decisions() {
    let mut rng = Rng::seed_from_u64(0x51E3_0001);
    let (mut ok, mut model_err, mut job_err, mut prob_err) = (0, 0, 0, 0);
    for case in 0..400 {
        let h = history(&mut rng);
        // One case in five caps below the observed maximum.
        let od = if rng.chance(0.2) {
            Price::new(h.max_price().as_f64() * rng.range_f64(0.5, 0.999))
        } else {
            Price::new(ON_DEMAND)
        };
        let view = PriceView::new(&h, od);
        let mut calls: Vec<(BiddingStrategy, JobSpec)> = Vec::new();
        for _ in 0..3 {
            let j = job(&mut rng);
            calls.extend(strategies(&mut rng).into_iter().map(|s| (s, j)));
        }
        // Which call builds the view's model varies from case to case.
        rng.shuffle(&mut calls);
        for (s, j) in &calls {
            let shared = s.decide_with(&view, j);
            let fresh = s.decide(&h, j, od);
            assert_same(&shared, &fresh, &format!("case {case}: {s:?} on {j:?}"));
            match &fresh {
                Ok(_) => ok += 1,
                Err(CoreError::InvalidJob { .. }) => job_err += 1,
                Err(CoreError::InvalidModel { .. }) => model_err += 1,
                Err(CoreError::InvalidProbability { .. }) => prob_err += 1,
                Err(_) => {}
            }
        }
    }
    assert!(
        ok > 1000 && model_err > 100 && job_err > 100 && prob_err > 10,
        "coverage: ok {ok}, model {model_err}, job {job_err}, probability {prob_err}"
    );
}

#[test]
fn shared_portfolio_view_matches_fresh_plans() {
    let mut rng = Rng::seed_from_u64(0x51E3_0002);
    let od = Price::new(ON_DEMAND);
    let (mut ok, mut ok_beside_failing, mut model_err, mut prob_err) = (0, 0, 0, 0);
    for case in 0..300 {
        let m = 1 + rng.range_usize(4);
        let mut hs: Vec<SpotPriceHistory> = (0..m).map(|_| history(&mut rng)).collect();
        // One case in three has a market whose prices top the cap, so its
        // model fails — only for the plans whose legs consult it.
        let failing = if rng.chance(0.33) {
            let f = rng.range_usize(m);
            let mut prices = hs[f].prices().to_vec();
            let at = rng.range_usize(prices.len());
            prices[at] = Price::new(ON_DEMAND + 0.05);
            hs[f] = SpotPriceHistory::new(hs[f].slot_len(), prices).unwrap();
            true
        } else {
            false
        };
        let view = PortfolioView::new(&hs, od);
        let mut calls: Vec<(PortfolioStrategy, JobSpec)> = Vec::new();
        for _ in 0..2 {
            let j = job(&mut rng);
            calls.extend(portfolio_strategies(&mut rng).into_iter().map(|s| (s, j)));
        }
        rng.shuffle(&mut calls);
        for (s, j) in &calls {
            let shared = s.decide_with(&view, j);
            let fresh = s.decide(&hs, j, od);
            assert_same(&shared, &fresh, &format!("case {case}: {s:?} on {j:?}"));
            match &fresh {
                Ok(_) if failing => ok_beside_failing += 1,
                Ok(_) => ok += 1,
                Err(CoreError::InvalidModel { .. }) => model_err += 1,
                Err(CoreError::InvalidProbability { .. }) => prob_err += 1,
                Err(_) => {}
            }
        }
    }
    assert!(
        ok > 1000 && ok_beside_failing > 100 && model_err > 100 && prob_err > 100,
        "coverage: ok {ok}, ok beside a failing market {ok_beside_failing}, \
         model {model_err}, probability {prob_err}"
    );
}

#[test]
fn a_view_shared_across_threads_matches_fresh_decisions() {
    let mut rng = Rng::seed_from_u64(0x51E3_0003);
    for _ in 0..20 {
        let hs: Vec<SpotPriceHistory> = (0..3).map(|_| history(&mut rng)).collect();
        let od = Price::new(ON_DEMAND);
        let j = job(&mut rng);
        let singles = strategies(&mut rng);
        let portfolios = portfolio_strategies(&mut rng);
        let view = PriceView::new(&hs[0], od);
        let pview = PortfolioView::new(&hs, od);
        let per_thread: Vec<(Vec<String>, Vec<String>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        let a = singles
                            .iter()
                            .map(|s| format!("{:?}", s.decide_with(&view, &j)))
                            .collect();
                        let b = portfolios
                            .iter()
                            .map(|s| format!("{:?}", s.decide_with(&pview, &j)))
                            .collect();
                        (a, b)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let fresh_a: Vec<String> = singles
            .iter()
            .map(|s| format!("{:?}", s.decide(&hs[0], &j, od)))
            .collect();
        let fresh_b: Vec<String> = portfolios
            .iter()
            .map(|s| format!("{:?}", s.decide(&hs, &j, od)))
            .collect();
        for (a, b) in &per_thread {
            assert_eq!(a, &fresh_a);
            assert_eq!(b, &fresh_b);
        }
    }
}

fn flat(prices: &[f64]) -> SpotPriceHistory {
    SpotPriceHistory::new(
        Hours::from_minutes(5.0),
        prices.iter().map(|&p| Price::new(p)).collect(),
    )
    .unwrap()
}

#[test]
fn named_error_cases_agree_and_keep_their_order() {
    let od = Price::new(ON_DEMAND);
    let calm = flat(&[0.05, 0.06, 0.05, 0.07, 0.05, 0.06, 0.08, 0.05]);
    let spiky = flat(&[0.05, 0.06, 0.50, 0.05]);
    let one_hour = JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap();
    let invalid = JobSpec {
        recovery: Hours::new(2.0),
        ..one_hour
    };
    let every = [
        BiddingStrategy::OptimalOneTime,
        BiddingStrategy::OptimalPersistent,
        BiddingStrategy::Percentile(0.9),
        BiddingStrategy::FixedBid(Price::new(0.1)),
        BiddingStrategy::BestOffline {
            lookback_hours: 10.0,
        },
        BiddingStrategy::OnDemand,
    ];

    // A cap below the observed maximum fails every variant — even those
    // that never read the model — but only after the job validates.
    let view = PriceView::new(&spiky, od);
    for s in every {
        let r = s.decide_with(&view, &one_hour);
        assert!(is_model_error(&r), "{s:?}: {r:?}");
        assert_same(&r, &s.decide(&spiky, &one_hour, od), "cap below max");
        let r = s.decide_with(&view, &invalid);
        assert!(matches!(r, Err(CoreError::InvalidJob { .. })), "{r:?}");
        assert_same(&r, &s.decide(&spiky, &invalid, od), "job first");
    }

    // Percentile(2.0) is the percentile's own error.
    let view = PriceView::new(&calm, od);
    let r = BiddingStrategy::Percentile(2.0).decide_with(&view, &one_hour);
    assert!(matches!(r, Err(CoreError::InvalidProbability { .. })));
    assert_same(
        &r,
        &BiddingStrategy::Percentile(2.0).decide(&calm, &one_hour, od),
        "percentile 2.0",
    );

    // BestOffline on a history shorter than one run falls back.
    let r = every[4].decide_with(&view, &one_hour);
    assert_eq!(r, Ok(BidDecision::OnDemand { price: od }));
    assert_same(&r, &every[4].decide(&calm, &one_hour, od), "short history");

    // Contract shares outside [0, 1], on every base.
    let hs = vec![calm.clone(), spiky.clone()];
    let pview = PortfolioView::new(&hs, od);
    for base in every {
        for spot_share in [-0.1, 1.1, f64::NAN] {
            let s = PortfolioStrategy::Contract { spot_share, base };
            let r = s.decide_with(&pview, &one_hour);
            assert!(matches!(r, Err(CoreError::InvalidProbability { .. })));
            assert_same(&r, &s.decide(&hs, &one_hour, od), "contract share");
        }
    }

    // The failing market (1) is never consulted by a fallback homed on
    // market 0, nor by splits and contracts whose legs the ranking puts
    // on the calm market only: those plans succeed.
    let one_slot_legs = JobSpec::builder(2.0 / 12.0)
        .recovery_secs(30.0)
        .build()
        .unwrap();
    for base in every {
        for s in [
            PortfolioStrategy::ZoneFallback { home: 2, base },
            PortfolioStrategy::Contract {
                spot_share: 0.5,
                base,
            },
        ] {
            let r = s.decide_with(&pview, &one_hour);
            assert!(r.is_ok(), "{s:?}: {r:?}");
            assert_same(&r, &s.decide(&hs, &one_hour, od), "unconsulted market");
        }
        // Homed on the failing market, the fallback fails.
        let s = PortfolioStrategy::ZoneFallback { home: 1, base };
        let r = s.decide_with(&pview, &one_hour);
        assert!(is_model_error(&r), "{r:?}");
        assert_same(&r, &s.decide(&hs, &one_hour, od), "consulted market");
        // Two one-slot legs land in both markets, so the split fails.
        let s = PortfolioStrategy::SplitEven { base };
        let r = s.decide_with(&pview, &one_slot_legs);
        assert!(is_model_error(&r), "{r:?}");
        assert_same(&r, &s.decide(&hs, &one_slot_legs, od), "split over both");
    }

    // Sub-jobs below the recovery floor: a 4-slot job with 6 minutes of
    // recovery cannot give a 3-market split 1-slot legs (it shrinks to
    // two), and a 25% contract's 1-slot spot sliver goes on demand.
    let hs3 = vec![calm.clone(), calm.clone(), calm];
    let pview3 = PortfolioView::new(&hs3, od);
    let tight = JobSpec::builder(4.0 / 12.0)
        .recovery_secs(360.0)
        .build()
        .unwrap();
    let base = BiddingStrategy::FixedBid(Price::new(0.1));
    let split = PortfolioStrategy::SplitEven { base };
    let plan = split.decide_with(&pview3, &tight).unwrap();
    assert_eq!(plan.legs.len(), 2);
    assert_same(
        &Ok::<_, CoreError>(plan),
        &split.decide(&hs3, &tight, od),
        "split floor",
    );
    let contract = PortfolioStrategy::Contract {
        spot_share: 0.25,
        base,
    };
    let plan = contract.decide_with(&pview3, &tight).unwrap();
    assert_eq!(plan.legs.len(), 1);
    assert_eq!(plan.legs[0].decision, BidDecision::OnDemand { price: od });
    assert_same(
        &Ok::<_, CoreError>(plan),
        &contract.decide(&hs3, &tight, od),
        "contract floor",
    );
}
