//! Ablations for the §8 discussion points.
//!
//! - **Provider objective** (β-sweep): how the utilization weight moves
//!   the optimal price and acceptance rate.
//! - **Temporal correlations**: running the i.i.d.-optimal persistent bid
//!   on increasingly sticky traces; §8 predicts fewer interruptions and
//!   lower cost.
//! - **Best-offline lookback sweep**: why 10 hours of history is
//!   insufficient — survival of the retrospective bid vs lookback length.
//! - **Provider objectives**: revenue vs market-clearing vs social
//!   welfare across demand levels.
//! - **Footnote-10 overhead**: optimal fan-out vs per-node coordination
//!   cost.
//! - **Collective behaviour**: many strategic bidders sharing one market,
//!   shifting the endogenous price distribution.

use spotbid_core::price_model::EmpiricalPrices;
use spotbid_core::{baselines, onetime, BiddingStrategy, JobSpec, PriceModel};
use spotbid_engine::experiment::{run_with_trace_config, ExperimentConfig};
use spotbid_market::provider::{accepted_bids, clearing_price, optimal_price, welfare_price};
use spotbid_market::sim::{BidKind, BidRequest, SpotMarket, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::Rng;
use spotbid_numerics::stats::percentile;
use spotbid_trace::catalog;
use spotbid_trace::synthetic::{generate, SyntheticConfig};

/// One point of the β-sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaSweepPoint {
    /// Utilization weight β.
    pub beta: f64,
    /// Optimal price at demand `L = 10`.
    pub price: f64,
    /// Accepted bids at that price.
    pub accepted: f64,
}

/// Sweeps the provider's utilization weight.
pub fn beta_sweep() -> Vec<BetaSweepPoint> {
    [0.0, 0.02, 0.05, 0.1, 0.2, 0.4]
        .iter()
        .map(|&beta| {
            let m = MarketParams::new(Price::new(0.35), Price::new(0.0), beta, 0.02).unwrap();
            let l = 10.0;
            let p = optimal_price(&m, l);
            BetaSweepPoint {
                beta,
                price: p.as_f64(),
                accepted: accepted_bids(&m, l, p),
            }
        })
        .collect()
}

/// One row of the provider-objective comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectivePoint {
    /// Demand level `L`.
    pub demand: f64,
    /// Revenue-maximizing price (Eq. 3, the paper's model).
    pub revenue_price: f64,
    /// Market-clearing price at the given capacity.
    pub clearing_price: f64,
    /// Social-welfare price (the marginal-cost floor).
    pub welfare_price: f64,
}

/// Compares the three §8 provider objectives across demand levels at a
/// fixed capacity.
pub fn objective_sweep(capacity: f64) -> Vec<ObjectivePoint> {
    let m = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
    [1.0, 5.0, 10.0, 25.0, 50.0, 200.0]
        .iter()
        .map(|&l| ObjectivePoint {
            demand: l,
            revenue_price: optimal_price(&m, l).as_f64(),
            clearing_price: clearing_price(&m, l, capacity).as_f64(),
            welfare_price: welfare_price(&m, l).as_f64(),
        })
        .collect()
}

/// One point of the temporal-correlation ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationPoint {
    /// Trace persistence (lag-1 price autocorrelation scale).
    pub persistence: f64,
    /// Mean interruptions per completed trial.
    pub interruptions: f64,
    /// Mean realized cost.
    pub cost: f64,
    /// Mean completion time (hours).
    pub completion: f64,
}

/// Runs the i.i.d.-optimal persistent bid on traces of increasing
/// stickiness.
pub fn correlation_sweep(cfg: &ExperimentConfig) -> Vec<CorrelationPoint> {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let job = JobSpec::builder(2.0).recovery_secs(30.0).build().unwrap();
    let levels = [0.0, 0.5, 0.8, 0.95];
    spotbid_exec::par_map(levels.len(), |i| {
        let q = levels[i];
        let trace_cfg = SyntheticConfig::for_instance(&inst).with_persistence(q);
        let r = run_with_trace_config(
            &inst,
            &trace_cfg,
            BiddingStrategy::OptimalPersistent,
            &job,
            cfg,
        )
        .unwrap();
        CorrelationPoint {
            persistence: q,
            interruptions: r.interruptions.mean,
            cost: r.cost.mean,
            completion: r.completion_time.mean,
        }
    })
}

/// One point of the best-offline lookback sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookbackPoint {
    /// Lookback window in hours.
    pub lookback_hours: f64,
    /// Mean retrospective bid across trials.
    pub mean_bid: f64,
    /// Fraction of trials where the retrospective bid would have survived
    /// the *next* hour.
    pub survival_rate: f64,
}

/// Sweeps the retrospective-bid lookback.
///
/// The heuristic takes the minimum over all in-window runs of the
/// run-maximum price, so a *longer* lookback can only lower the bid
/// (more windows to take the minimum over) — making it *less* safe, not
/// more. This sharpens the paper's observation that "10 hours of history
/// is insufficient to predict the future prices": no lookback length
/// fixes a heuristic that optimizes for the luckiest past window.
pub fn lookback_sweep(seed: u64, trials: usize) -> Vec<LookbackPoint> {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    // The paper's setting: a 1-hour job, i.e. 12 five-minute slots.
    let run_slots = 12usize;
    [1.0, 2.0, 5.0, 10.0, 24.0, 48.0]
        .iter()
        .map(|&hours| {
            let window = (hours * 12.0) as usize;
            // Each trial runs on its own decorrelated substream of the
            // per-lookback seed, so the point is reproducible at any
            // thread count.
            let outcomes = spotbid_exec::par_trials(seed ^ (hours as u64), trials, |_, rng| {
                let h = generate(&cfg, window.max(run_slots) + 600 + run_slots, rng).unwrap();
                let past = h.slice(0, h.len() - run_slots).unwrap();
                let future = h.slice(h.len() - run_slots, h.len()).unwrap();
                baselines::best_offline_bid(&past, window, run_slots).map(|bid| {
                    let survived = future.prices().iter().all(|&p| bid >= p);
                    (bid.as_f64(), survived)
                })
            });
            let bids: Vec<f64> = outcomes.iter().flatten().map(|&(b, _)| b).collect();
            let survived = outcomes.iter().flatten().filter(|&&(_, s)| s).count();
            LookbackPoint {
                lookback_hours: hours,
                mean_bid: bids.iter().sum::<f64>() / bids.len().max(1) as f64,
                survival_rate: survived as f64 / trials as f64,
            }
        })
        .collect()
}

/// One point of the footnote-10 overhead ablation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadPoint {
    /// Per-node overhead in seconds.
    pub per_node_secs: f64,
    /// The cost-minimizing slave count under that overhead.
    pub best_m: u32,
    /// Expected cost at the optimum.
    pub cost: f64,
}

/// Sweeps footnote 10's per-node overhead: as coordination cost per slave
/// grows past the recovery time it amortizes, the optimal fan-out
/// collapses from saturation to a small interior value.
pub fn overhead_sweep(seed: u64) -> Vec<OverheadPoint> {
    use spotbid_core::overhead::{best_m_with_overhead, OverheadModel};
    let inst = catalog::by_name("c3.4xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let h = generate(&cfg, 17_568, &mut Rng::seed_from_u64(seed)).unwrap();
    let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
    let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
    let points = [0.0, 5.0, 15.0, 30.0, 60.0, 120.0];
    spotbid_exec::par_map(points.len(), |i| {
        let per_node_secs = points[i];
        let overhead = OverheadModel::Linear {
            base: Hours::from_secs(30.0),
            per_node: Hours::from_secs(per_node_secs),
        };
        let (m, rec) = best_m_with_overhead(&model, &job, &overhead, 32).unwrap();
        OverheadPoint {
            per_node_secs,
            best_m: m,
            cost: rec.expected_cost.as_f64(),
        }
    })
}

/// One point of the checkpointing-vs-fixed-recovery comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPoint {
    /// Price-spread knob: fraction of trace mass drawn from the
    /// exponential body rather than parked at the floor.
    pub body_fraction: f64,
    /// Optimal cost under the paper's fixed-recovery model (t_r = 20 min).
    pub fixed_cost: f64,
    /// Optimal cost under the checkpointing model (δ = 10 s, reload 30 s).
    pub checkpoint_cost: f64,
    /// The checkpointing bid as a fraction of the fixed-recovery bid.
    pub bid_ratio: f64,
}

/// Compares the paper's fixed-recovery persistent model against the
/// reference-\[37\] checkpointing model across price-distribution spreads:
/// checkpointing wins exactly where low bids buy materially cheaper
/// conditional prices (spread traces), and only ties on floor-parked ones.
pub fn checkpoint_sweep(seed: u64) -> Vec<CheckpointPoint> {
    use spotbid_core::checkpoint::{optimal_bid as ck_bid, CheckpointSpec};
    use spotbid_core::persistent;
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let job = JobSpec::builder(8.0)
        .recovery(Hours::from_minutes(20.0))
        .build()
        .unwrap();
    let spec = CheckpointSpec {
        overhead: Hours::from_secs(10.0),
        reload: Hours::from_secs(30.0),
    };
    let bodies = [0.1, 0.3, 0.5, 0.8];
    spotbid_exec::par_map(bodies.len(), |i| {
        let body = bodies[i];
        let mut cfg = SyntheticConfig::for_instance(&inst);
        cfg.floor_prob = 1.0 - body;
        cfg.body_scale = 0.25; // wide body so bids matter
        let h = generate(
            &cfg,
            17_568,
            &mut Rng::seed_from_u64(seed ^ (body * 100.0) as u64),
        )
        .unwrap();
        let model = EmpiricalPrices::from_history_with_cap(&h, inst.on_demand).unwrap();
        let fixed = persistent::optimal_bid(&model, &job).unwrap();
        let ck = ck_bid(&model, &job, &spec).unwrap();
        CheckpointPoint {
            body_fraction: body,
            fixed_cost: fixed.expected_cost.as_f64(),
            checkpoint_cost: ck.expected_cost.as_f64(),
            bid_ratio: ck.price / fixed.price,
        }
    })
}

/// Outcome of the collective-behaviour study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectivePoint {
    /// Fraction of bidders bidding strategically (at a learned quantile of
    /// recent prices) rather than uniformly at random.
    pub strategic_fraction: f64,
    /// Median endogenous spot price over the run.
    pub median_price: f64,
    /// 90th-percentile endogenous spot price.
    pub p90_price: f64,
    /// Time-averaged number of open (pending + running) bids.
    pub mean_open_bids: f64,
    /// Jobs finished per slot.
    pub throughput: f64,
}

/// Runs the endogenous market with a mix of random and strategic bidders.
///
/// §8 worries that widespread bid optimization could shift the price
/// distribution users train on. In this provider model the posted price
/// depends only on the *count* of open bids (Eq. 3 under the uniform-bid
/// assumption), so the price path barely moves — supporting the paper's
/// price-taker assumption — while the *user-side* observables (backlog
/// and throughput) shift measurably when everyone clusters near a learned
/// quantile.
pub fn collective_sweep(seed: u64) -> Vec<CollectivePoint> {
    let params = MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap();
    let fractions = [0.0, 0.5, 1.0];
    spotbid_exec::par_map(fractions.len(), |i| {
        {
            let frac = fractions[i];
            let mut rng = Rng::seed_from_u64(seed ^ ((frac * 100.0) as u64));
            let mut market = SpotMarket::new(params, Hours::from_minutes(5.0));
            let mut recent: Vec<f64> = vec![0.175];
            let mut prices = Vec::new();
            let mut open_sum = 0.0;
            let mut finished = 0usize;
            for _ in 0..2000 {
                // Two arrivals per slot on average.
                for _ in 0..rng.poisson(2.0) {
                    let strategic = rng.chance(frac);
                    let bid = if strategic {
                        // Bid the 90th percentile of recently observed
                        // prices (a learned, clustered bid).
                        Price::new(percentile(&recent, 0.9).unwrap_or(0.175))
                    } else {
                        Price::new(rng.range_f64(params.pi_min.as_f64(), params.pi_bar.as_f64()))
                    };
                    market.submit(BidRequest {
                        price: bid,
                        kind: BidKind::Persistent,
                        work: WorkModel::Geometric,
                    });
                }
                let report = market.step(&mut rng);
                prices.push(report.price.as_f64());
                recent.push(report.price.as_f64());
                open_sum += market.open_bids() as f64;
                finished += report.finished.len();
                if recent.len() > 288 {
                    recent.remove(0);
                }
            }
            CollectivePoint {
                strategic_fraction: frac,
                median_price: percentile(&prices, 0.5).unwrap(),
                p90_price: percentile(&prices, 0.9).unwrap(),
                mean_open_bids: open_sum / prices.len() as f64,
                throughput: finished as f64 / prices.len() as f64,
            }
        }
    })
}

/// Risk curve: expected cost and cost spread across bid prices for a
/// persistent job (the §8 risk-averseness discussion). Returns
/// `(bid, mean_cost, std_cost)` triples measured over replays.
pub fn risk_curve(seed: u64, trials: usize) -> Vec<(f64, f64, f64)> {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let job = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
    let mut rng = Rng::seed_from_u64(seed);
    let calib = generate(&cfg, 17_568, &mut rng).unwrap();
    let model = EmpiricalPrices::from_history_with_cap(&calib, inst.on_demand).unwrap();
    let onetime_bid = onetime::optimal_bid(&model, &job).unwrap().price;
    let candidates: Vec<f64> = [0.3, 0.5, 0.7, 0.9, 0.97]
        .iter()
        .map(|&q| model.quantile(q).unwrap().as_f64())
        .chain(std::iter::once(onetime_bid.as_f64()))
        .collect();
    candidates
        .into_iter()
        .map(|bid| {
            // Trial `t`'s substream depends only on `(seed, t)` — every
            // candidate bid replays the *same* traces, so the curve
            // isolates the bid effect.
            let costs: Vec<f64> = spotbid_exec::par_trials(seed, trials, |_, trng| {
                let h = generate(&cfg, 3000, trng).unwrap();
                let out = spotbid_engine::run_job(
                    &h,
                    spotbid_core::BidDecision::Spot {
                        price: Price::new(bid),
                        persistent: true,
                    },
                    &job,
                    0,
                )
                .unwrap();
                out.completed().then(|| out.cost.as_f64())
            })
            .into_iter()
            .flatten()
            .collect();
            let s = spotbid_numerics::stats::summarize(&costs).unwrap_or(
                spotbid_numerics::stats::Summary {
                    n: 0,
                    mean: f64::NAN,
                    std_dev: f64::NAN,
                    ci95: f64::NAN,
                    min: f64::NAN,
                    max: f64::NAN,
                },
            );
            (bid, s.mean, s.std_dev)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_sweep_lowers_price_and_raises_acceptance() {
        let pts = beta_sweep();
        assert!(pts.windows(2).all(|w| w[1].price <= w[0].price + 1e-12));
        assert!(pts
            .windows(2)
            .all(|w| w[1].accepted >= w[0].accepted - 1e-12));
        assert!(pts.last().unwrap().accepted > pts[0].accepted);
    }

    #[test]
    fn provider_objectives_order_sensibly() {
        let pts = objective_sweep(10.0);
        for p in &pts {
            // Welfare price is the floor; revenue price always above it.
            assert!(p.welfare_price <= p.clearing_price + 1e-12, "{p:?}");
            assert!(p.welfare_price <= p.revenue_price + 1e-12, "{p:?}");
        }
        // Clearing price rises with demand at fixed capacity and exceeds
        // the revenue price once demand swamps capacity.
        assert!(pts
            .windows(2)
            .all(|w| w[1].clearing_price >= w[0].clearing_price - 1e-12));
        assert!(pts.last().unwrap().clearing_price > pts.last().unwrap().revenue_price);
    }

    #[test]
    fn checkpointing_wins_on_spread_traces() {
        let pts = checkpoint_sweep(0xAB6);
        assert_eq!(pts.len(), 4);
        // With most mass in the wide body (spread prices), checkpointing
        // must beat fixed recovery by bidding lower.
        let spread = pts.last().unwrap();
        assert!(spread.checkpoint_cost < spread.fixed_cost, "{spread:?}");
        assert!(spread.bid_ratio < 1.0, "{spread:?}");
        // Everywhere it is at worst near parity.
        assert!(
            pts.iter().all(|p| p.checkpoint_cost < p.fixed_cost * 1.15),
            "{pts:?}"
        );
    }

    #[test]
    fn heavier_per_node_overhead_shrinks_the_optimal_fanout() {
        let pts = overhead_sweep(0xAB5);
        // Monotone non-increasing optimal M across the sweep, saturated at
        // the cheap end and small at the expensive end.
        assert!(
            pts.windows(2).all(|w| w[1].best_m <= w[0].best_m),
            "{pts:?}"
        );
        assert!(pts[0].best_m > pts.last().unwrap().best_m, "{pts:?}");
        // Costs rise with overhead.
        assert!(pts.windows(2).all(|w| w[1].cost >= w[0].cost - 1e-12));
    }

    #[test]
    fn correlation_reduces_interruptions() {
        // §8: temporal correlation → fewer interruptions and no higher
        // cost for the same bid policy.
        let cfg = ExperimentConfig {
            trials: 6,
            seed: 0xAB1,
            warmup_slots: 5000,
            horizon_slots: 3000,
            ..Default::default()
        };
        let pts = correlation_sweep(&cfg);
        assert_eq!(pts.len(), 4);
        let iid = pts[0];
        let sticky = pts[3];
        assert!(
            sticky.interruptions < iid.interruptions,
            "iid {} vs sticky {}",
            iid.interruptions,
            sticky.interruptions
        );
        assert!(sticky.cost <= iid.cost * 1.3);
    }

    #[test]
    fn longer_lookback_bids_lower_and_is_never_safe() {
        let pts = lookback_sweep(0xAB2, 40);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        // Minimum over more windows can only fall.
        assert!(last.mean_bid <= first.mean_bid + 1e-12, "{pts:?}");
        // And the heuristic is unsafe at every lookback — far below the
        // ~90%+ survival the quantile bid is engineered for.
        assert!(
            pts.iter().all(|p| p.survival_rate < 0.9),
            "retrospective bid unexpectedly safe: {pts:?}"
        );
    }

    #[test]
    fn strategic_bidding_shifts_user_side_observables() {
        let pts = collective_sweep(0xAB3);
        assert_eq!(pts.len(), 3);
        // The posted price barely moves (Eq. 3 depends on the bid count,
        // not bid levels) — supporting the paper's price-taker assumption.
        let price_shift = (pts[2].median_price - pts[0].median_price).abs();
        assert!(price_shift < 0.01, "price moved by {price_shift}");
        // But the user-side market state shifts measurably: backlog or
        // throughput differ by more than 5% relative.
        let backlog_shift =
            (pts[2].mean_open_bids - pts[0].mean_open_bids).abs() / pts[0].mean_open_bids;
        let tput_shift =
            (pts[2].throughput - pts[0].throughput).abs() / pts[0].throughput.max(1e-9);
        assert!(
            backlog_shift > 0.05 || tput_shift > 0.05,
            "no user-side shift: {pts:?}"
        );
    }

    #[test]
    fn risk_curve_shows_cost_spread_tradeoff() {
        let pts = risk_curve(0xAB4, 12);
        assert!(pts.len() >= 5);
        // Higher bids pay more on average...
        let lowest = pts[0];
        let highest = pts[pts.len() - 2];
        assert!(highest.1 >= lowest.1 * 0.8);
        // ... and every point carries finite statistics.
        assert!(pts.iter().all(|p| p.1.is_finite()));
    }
}
