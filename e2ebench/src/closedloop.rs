//! `closedloop`: the tenant-side simulation.
//!
//! One caller runs whole closed-loop sessions back to back: 50k tenants in
//! the engine-scale tenant mix bid into one endogenous, unbounded market
//! for 20 warm-up and 200 horizon slots. The engine's wakeup fleet and the
//! `core` strategy decisions do almost all the work; the market's capacity
//! pass does none.

use std::time::Instant;

use spotbid_core::strategy::BiddingStrategy;
use spotbid_core::JobSpec;
use spotbid_engine::{
    run_closed_loop_logged, run_closed_loop_with_stats, ClosedLoopConfig, ClosedLoopReport, Event,
    FleetStats,
};
use spotbid_exec::with_threads;
use spotbid_market::sim::Supply;
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_trace::SpotPriceHistory;

use crate::stats::{median, median_us, sorted, Digest};
use crate::trace::SpanId;
use crate::yardstick::{Job, Yardstick};
use crate::{mix, Ctx, Outcome, SETUPS};

const TENANTS: usize = 50_000;
const WARMUP_SLOTS: usize = 20;
const HORIZON_SLOTS: usize = 200;
/// Exec workers for every timed session. One: on the 2-vCPU VM the bounds
/// in `BENCHMARK.json` were set on, two workers ran a session no faster
/// (`exec.speedup_2t` 0.76–1.00), spawned threads every slot, and left the
/// session's time to whichever vCPU the host slowed; the traced run still
/// measures two.
const EXEC_WORKERS: usize = 1;
/// A p90 needs ten sessions beyond it.
const MIN_SESSIONS: usize = 100;
/// Timed sessions whose reports enter the run digest.
const DIGEST_SESSIONS: usize = 10;
/// Seed index of the warm-up session, apart from the timed sessions'.
const WARM: u64 = u64::MAX;

/// The engine-scale tenant mix: a 97-cycle of one optimal persistent
/// bidder, one 90th-percentile bidder and 95 fixed bids on a 13-rung
/// ladder whose phase the seed picks.
fn tenant_mix(seed: u64) -> Vec<BiddingStrategy> {
    let phase = (mix(seed, 0x1ADD) % 13) as usize;
    (0..TENANTS)
        .map(|i| match i % 97 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.90),
            _ => BiddingStrategy::FixedBid(Price::new(0.05 + ((i + phase) % 13) as f64 * 0.023)),
        })
        .collect()
}

fn config(horizon_slots: usize) -> ClosedLoopConfig {
    ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05)
            .expect("valid market parameters"),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(4.0)
            .recovery_secs(60.0)
            .build()
            .expect("valid job"),
        warmup_slots: WARMUP_SLOTS,
        horizon_slots,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    }
}

fn digest_report(r: &ClosedLoopReport, d: &mut Digest) {
    d.u64(r.completed as u64);
    d.f64(r.mean_savings);
    d.f64(r.mean_price.as_f64());
    d.f64(r.peak_price.as_f64());
    d.u64(r.slots);
    for t in &r.tenants {
        d.u64(u64::from(t.tenant));
        d.u64(u64::from(t.completed));
        d.u64(t.spot_slots);
        d.u64(u64::from(t.interruptions));
        d.u64(u64::from(t.resubmissions));
        d.f64(t.cost.as_f64());
        d.f64(t.savings);
    }
}

/// Costs are finite and non-negative, savings at most 1, one outcome per
/// tenant.
fn check(r: &ClosedLoopReport, errors: &mut Vec<String>) -> bool {
    let bad = r
        .tenants
        .iter()
        .find(|t| !(t.cost.as_f64().is_finite() && t.cost.as_f64() >= 0.0 && t.savings <= 1.0));
    if let Some(t) = bad {
        errors.push(format!(
            "tenant {} has cost {} and savings {}",
            t.tenant, t.cost, t.savings
        ));
        return false;
    }
    if r.tenants.len() != TENANTS {
        errors.push(format!(
            "{} outcomes for {TENANTS} tenants",
            r.tenants.len()
        ));
        return false;
    }
    true
}

/// What the timed sessions of one phase produced.
struct Sessions {
    us: Vec<f64>,
    /// Each session against the reference job timed right after it.
    yard: Yardstick,
    stats: Vec<FleetStats>,
    completed: usize,
    digest: Digest,
}

/// What every session of a run shares.
struct Loop<'a> {
    seed: u64,
    strategies: &'a [BiddingStrategy],
    cfg: &'a ClosedLoopConfig,
}

impl Loop<'_> {
    /// Runs timed sessions 0, 1, … (session `k` at seed `mix(seed, k)`) at
    /// `threads` exec workers until `budget` seconds have passed and at
    /// least `min` sessions ran. Each session is one span when tracing.
    fn sessions(
        &self,
        out: &mut Outcome,
        threads: usize,
        (budget, min): (f64, usize),
        span: &'static str,
        parent: Option<SpanId>,
    ) -> Sessions {
        let mut s = Sessions {
            us: Vec::new(),
            yard: Yardstick::new(Job::Update, 1),
            stats: Vec::new(),
            completed: 0,
            digest: Digest::default(),
        };
        let start = Instant::now();
        with_threads(threads, || {
            while s.us.len() < min || start.elapsed().as_secs_f64() < budget {
                let k = s.us.len() as u64;
                let t0 = Instant::now();
                let result =
                    run_closed_loop_with_stats(self.strategies, self.cfg, mix(self.seed, k), None);
                let t1 = Instant::now();
                out.tracer.record(span, t0, t1, parent, k);
                out.attempted += 1;
                match result {
                    Ok((report, stats)) => {
                        if !check(&report, &mut out.errors) {
                            out.failed += 1;
                        }
                        if (k as usize) < DIGEST_SESSIONS {
                            digest_report(&report, &mut s.digest);
                        }
                        s.completed += report.completed;
                        s.stats.push(stats);
                    }
                    Err(e) => {
                        out.failed += 1;
                        out.errors.push(format!("session {k}: {e}"));
                    }
                }
                s.us.push((t1 - t0).as_secs_f64() * 1e6);
                s.yard.push((t1 - t0).as_secs_f64() * 1e6);
                if s.us.len() == min {
                    out.mark_memory();
                }
            }
        });
        s
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx, EXEC_WORKERS);
    let cfg = config(HORIZON_SLOTS);

    // Set-up: build the inputs and run one untimed warm-up session. Every
    // repeat replays the warm-up at the same seed, so their digests must
    // agree exactly.
    let mut strategies = Vec::new();
    let mut warm_digests = Vec::new();
    for k in 0..SETUPS {
        let t0 = Instant::now();
        strategies = tenant_mix(ctx.seed);
        let warm = with_threads(EXEC_WORKERS, || {
            run_closed_loop_with_stats(&strategies, &cfg, mix(ctx.seed, WARM), None)
        });
        let t1 = Instant::now();
        out.setup(t0, t1, k);
        match warm {
            Ok((report, _)) => {
                check(&report, &mut out.errors);
                let mut d = Digest::default();
                digest_report(&report, &mut d);
                warm_digests.push(d.hex());
            }
            Err(e) => out.errors.push(format!("warm-up session: {e}")),
        }
    }
    if warm_digests.windows(2).any(|w| w[0] != w[1]) {
        out.errors.push(format!(
            "warm-up session digests differ at one seed: {warm_digests:?}"
        ));
    }
    out.digest.bytes(warm_digests.join(",").as_bytes());
    let lp = Loop {
        seed: ctx.seed,
        strategies: &strategies,
        cfg: &cfg,
    };

    // The timed sessions, untraced. A traced run gives them 60% of its
    // seconds, then repeats some traced and runs the per-layer probes.
    out.tracer.set_enabled(false);
    let budget = if ctx.trace { 0.6 } else { 1.0 } * ctx.seconds;
    let plain = lp.sessions(
        &mut out,
        EXEC_WORKERS,
        (budget, MIN_SESSIONS),
        "engine.session",
        None,
    );
    out.digest.bytes(plain.digest.hex().as_bytes());
    out.rate(
        "e2e.throughput_per_s",
        &plain.us,
        (TENANTS * HORIZON_SLOTS) as f64,
        10,
    );
    out.relative(&plain.yard);
    out.percentile("e2e.p50_us", &sorted(&plain.us), 0.5);
    out.tail("e2e.p90_us", &plain.us, 0.9);
    if !ctx.trace {
        return out;
    }

    out.tracer.set_enabled(true);
    let root = out.tracer.open("closedloop.traced", None, 0);
    let traced = lp.sessions(
        &mut out,
        EXEC_WORKERS,
        (0.15 * ctx.seconds, 20),
        "engine.session",
        root,
    );
    let p50_plain = median(&plain.us).expect("sessions ran");
    let rel = |s: &Sessions| median(s.yard.ratios()).expect("sessions ran");
    out.metrics
        .set("trace.overhead_ratio", rel(&traced) / rel(&plain), None);

    let fleet_slots: u64 = traced.stats.iter().map(|s| s.slots).sum();
    let woken: u64 = traced.stats.iter().map(|s| s.woken).sum();
    let skipped: u64 = traced.stats.iter().map(|s| s.skipped_slots).sum();
    out.metrics.set(
        "engine.fleet.woken_per_slot",
        woken as f64 / fleet_slots as f64,
        None,
    );
    out.metrics.set(
        "engine.fleet.skip_ratio",
        skipped as f64 / fleet_slots as f64,
        None,
    );
    out.metrics.set(
        "engine.report.completed_ratio",
        traced.completed as f64 / (TENANTS * traced.us.len()) as f64,
        None,
    );

    // The slot-0 submission wave plus finalize: a horizon-1 session.
    let wave_cfg = config(1);
    let wave_ms = with_threads(EXEC_WORKERS, || {
        median_us(5, |k| {
            let k = k as u64;
            let t0 = Instant::now();
            let r = run_closed_loop_with_stats(&strategies, &wave_cfg, mix(ctx.seed, k), None);
            out.tracer
                .record("engine.wave_session", t0, Instant::now(), root, k);
            if let Err(e) = r {
                out.errors.push(format!("horizon-1 session: {e}"));
            }
        }) / 1e3
    });
    out.metrics
        .set("engine.closedloop.wave_ms", wave_ms, Some(5));
    out.metrics.set(
        "engine.closedloop.per_slot_us",
        (p50_plain - wave_ms * 1e3) / (HORIZON_SLOTS - 1) as f64,
        None,
    );

    let two = lp.sessions(&mut out, 2, (0.0, 10), "engine.session_2t", root);
    out.metrics.set(
        "exec.speedup_2t",
        p50_plain / median(&two.us).expect("sessions ran"),
        None,
    );

    decide_probe(&lp, &mut out, root);
    out.tracer.close(root);
    out
}

/// Times `BiddingStrategy::decide` on the price path a logged session
/// posted, at history lengths 20 and 200.
fn decide_probe(lp: &Loop, out: &mut Outcome, root: Option<SpanId>) {
    let cfg = lp.cfg;
    let t0 = Instant::now();
    let logged = with_threads(EXEC_WORKERS, || {
        run_closed_loop_logged(lp.strategies, cfg, mix(lp.seed, 0), None)
    });
    out.tracer
        .record("engine.logged_session", t0, Instant::now(), root, 0);
    let events = match logged {
        Ok((_, events, _)) => events,
        Err(e) => {
            out.errors.push(format!("logged session: {e}"));
            return;
        }
    };
    let posted: Vec<Price> = events
        .iter()
        .filter_map(|e| match e {
            Event::PricePosted { price, .. } => Some(*price),
            _ => None,
        })
        .collect();
    let probes = [
        BiddingStrategy::FixedBid(Price::new(0.2)),
        BiddingStrategy::Percentile(0.90),
        BiddingStrategy::OptimalPersistent,
    ];
    const NAMES: [[&str; 2]; 3] = [
        ["core.decide_us.fixed.h20", "core.decide_us.fixed.h200"],
        [
            "core.decide_us.percentile.h20",
            "core.decide_us.percentile.h200",
        ],
        [
            "core.decide_us.optimal_persistent.h20",
            "core.decide_us.optimal_persistent.h200",
        ],
    ];
    for (li, len) in [20usize, 200].into_iter().enumerate() {
        let Ok(history) =
            SpotPriceHistory::new(cfg.slot_len, posted[..len.min(posted.len())].to_vec())
        else {
            out.errors
                .push("posted history is not a valid trace".into());
            return;
        };
        for (pi, strategy) in probes.iter().enumerate() {
            let mut failed = false;
            let us = median_us(200, |_| {
                let t = Instant::now();
                failed |= std::hint::black_box(strategy.decide(&history, &cfg.job, cfg.on_demand))
                    .is_err();
                out.tracer
                    .record("core.decide", t, Instant::now(), root, len as u64);
            });
            if failed {
                out.errors
                    .push(format!("decide failed on {len} posted prices"));
            }
            out.metrics.set(NAMES[pi][li], us, Some(200));
        }
    }
}
