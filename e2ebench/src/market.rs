//! `market_squeeze`: the provider-side simulation.
//!
//! The benchmark owns the slot loop over a `MarketSet` of four finite
//! markets, each 8192 servers with up to 4096 on demand, holding 50k
//! standing persistent bids laddered across prices. Each slot brings
//! one-time churn bids and on-demand churn, so the capacity pass (clearing
//! price, victims, parked restarts) dominates; the fleet and strategies
//! are absent.

use std::time::Instant;

use spotbid_market::multi::{MarketSet, MarketSpec};
use spotbid_market::provider::ProviderPolicy;
use spotbid_market::sim::{BidKind, BidRequest, SlotReport, Supply, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::rng::{Rng, RngStreams};

use crate::stats::{median, sorted, Digest};
use crate::trace::SpanId;
use crate::yardstick::{Job, Yardstick};
use crate::{mix, Ctx, Outcome, SETUPS};

const M: usize = 4;
const CAPACITY: u32 = 8192;
const OD_CAP: u32 = 4096;
const STANDING: usize = 50_000;
/// One-time geometric churn bids per market per slot.
const CHURN: usize = 4;
/// Mean on-demand arrivals per market per slot.
const OD_ARRIVALS: f64 = 200.0;
/// Per-slot departure probability of each active on-demand instance.
const OD_DEPARTURE: f64 = 0.1;
/// Untimed slots after set-up: the on-demand pool starts empty and fills
/// to about `OD_ARRIVALS / OD_DEPARTURE` per market.
const WARM_SLOTS: usize = 100;
/// A p99 needs ten slots beyond it.
const MIN_SLOTS: usize = 1_000;
/// Slots whose reports enter the run digest.
const DIGEST_SLOTS: u64 = 1_000;
/// Slots per timing of the reference job: some 30 ms of slots, so the
/// job's three runs add about 3% to the run.
const YARD_SLOTS: usize = 20;

fn params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02)
        .expect("valid market parameters")
}

/// Bid `i` of a golden-ratio ladder over `[π_min, π̄)` starting at `phase`.
fn laddered(p: &MarketParams, phase: f64, i: usize) -> Price {
    let frac = (phase + i as f64 * 0.618_033_988_749_895) % 1.0;
    Price::new(p.pi_min.as_f64() + frac * p.spread().as_f64())
}

/// The inputs of one slot, drawn before the slot's timer starts.
struct SlotInput {
    depart: [u32; M],
    arrive: [u32; M],
    churn: Vec<BidRequest>,
}

/// A built market set plus its per-market streams and the input stream.
struct Squeeze {
    set: MarketSet,
    rngs: Vec<Rng>,
    reports: Vec<SlotReport>,
    inputs: Rng,
    phase: f64,
    next: usize,
}

/// Per-slot timings of one phase, in µs.
struct Phase {
    slot: Vec<f64>,
    /// Windows of slots against the reference job timed after each.
    yard: Yardstick,
    step: Vec<f64>,
    per_market: [f64; M],
    submit_ns: f64,
    submits: u64,
    churn: Vec<f64>,
    started: u64,
    interrupted: u64,
    /// Index of the phase's first slot in the provider logs.
    first: usize,
}

impl Squeeze {
    /// Builds the set: the standing-bid submission wave, then the first
    /// auction. Returns the two phase times in ms.
    fn build(seed: u64) -> (Squeeze, f64, f64) {
        let p = params();
        let t0 = Instant::now();
        let specs = (0..M)
            .map(|m| {
                MarketSpec::with_supply(
                    format!("m{m}"),
                    p,
                    Supply::Finite {
                        capacity: CAPACITY,
                        policy: ProviderPolicy::UtilizationTracking { od_cap: OD_CAP },
                    },
                )
            })
            .collect();
        let mut set = MarketSet::new(specs, Hours::from_minutes(5.0)).expect("four markets");
        let phase = (mix(seed, 0x1ADD) >> 11) as f64 / (1u64 << 53) as f64;
        for m in 0..M {
            for i in 0..STANDING {
                set.submit(
                    m,
                    BidRequest {
                        price: laddered(&p, phase, m * STANDING + i),
                        kind: BidKind::Persistent,
                        work: WorkModel::FixedSlots(u32::MAX),
                    },
                );
            }
        }
        let t1 = Instant::now();
        let mut rngs = RngStreams::new(mix(seed, 1)).streams(M);
        let mut reports = vec![SlotReport::empty(); M];
        set.step_into(&mut rngs, &mut reports);
        let t2 = Instant::now();
        let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
        let squeeze = Squeeze {
            set,
            rngs,
            reports,
            inputs: Rng::seed_from_u64(mix(seed, 2)),
            phase,
            next: M * STANDING,
        };
        (squeeze, ms(t0, t1), ms(t1, t2))
    }

    fn draw(&mut self) -> SlotInput {
        let p = params();
        let mut input = SlotInput {
            depart: [0; M],
            arrive: [0; M],
            churn: Vec::with_capacity(M * CHURN),
        };
        for m in 0..M {
            let active = self.set.market(m).od_active();
            input.depart[m] = (0..active)
                .filter(|_| self.inputs.chance(OD_DEPARTURE))
                .count() as u32;
            input.arrive[m] = self.inputs.poisson(OD_ARRIVALS) as u32;
            for _ in 0..CHURN {
                input.churn.push(BidRequest {
                    price: laddered(&p, self.phase, self.next),
                    kind: BidKind::OneTime,
                    work: WorkModel::Geometric,
                });
                self.next += 1;
            }
        }
        input
    }

    /// Steps `n` untimed slots, so the on-demand pool fills to its steady
    /// state before anything is timed.
    fn warm(&mut self, n: usize) {
        for _ in 0..n {
            let input = self.draw();
            for m in 0..M {
                self.set.release_on_demand(m, input.depart[m]);
                self.set.request_on_demand(m, input.arrive[m]);
            }
            for (i, bid) in input.churn.iter().enumerate() {
                self.set.submit(i / CHURN, *bid);
            }
            self.set.step_into(&mut self.rngs, &mut self.reports);
        }
    }

    /// Capacity is never overcommitted and every eviction list is sorted.
    fn check(&self, errors: &mut Vec<String>) -> bool {
        for (m, report) in self.reports.iter().enumerate() {
            let Some(s) = self.set.provider_slots(m).last() else {
                errors.push(format!("market {m} logged no provider slot"));
                return false;
            };
            if s.spot_running + s.od_active > CAPACITY {
                errors.push(format!(
                    "market {m} slot {}: {} spot + {} on demand > {CAPACITY} servers",
                    s.t, s.spot_running, s.od_active
                ));
                return false;
            }
            if report.evicted.windows(2).any(|w| w[0] >= w[1]) {
                errors.push(format!("market {m} slot {}: evicted list unsorted", s.t));
                return false;
            }
        }
        true
    }

    fn digest(&self, d: &mut Digest) {
        for (m, r) in self.reports.iter().enumerate() {
            d.u64(r.t);
            d.u64(r.demand as u64);
            d.f64(r.price.as_f64());
            for ids in [
                &r.started,
                &r.interrupted,
                &r.finished,
                &r.terminated,
                &r.evicted,
            ] {
                d.u64(ids.len() as u64);
            }
            for id in &r.evicted {
                d.u64(id.0);
            }
            if let Some(s) = self.set.provider_slots(m).last() {
                d.u64(u64::from(s.spot_running));
                d.u64(u64::from(s.od_active));
                d.u64(u64::from(s.reclaims));
            }
        }
    }

    /// Runs slots until `budget` seconds have passed and at least `min`
    /// ran. Traced slots step each market on its own (in index order, so
    /// bit-identical to stepping the set) and record a span per call.
    fn slots(&mut self, out: &mut Outcome, budget: f64, min: usize, root: Option<SpanId>) -> Phase {
        let traced = out.tracer.enabled();
        let mut ph = Phase {
            slot: Vec::new(),
            yard: Yardstick::new(Job::Sort, YARD_SLOTS),
            step: Vec::new(),
            per_market: [0.0; M],
            submit_ns: 0.0,
            submits: 0,
            churn: Vec::new(),
            started: 0,
            interrupted: 0,
            first: self.set.provider_slots(0).len(),
        };
        let start = Instant::now();
        while ph.slot.len() < min || start.elapsed().as_secs_f64() < budget {
            let input = self.draw();
            let rid = self.set.now();
            let slot = out.tracer.open("market.slot", root, rid);
            let t0 = Instant::now();
            for m in 0..M {
                self.set.release_on_demand(m, input.depart[m]);
                self.set.request_on_demand(m, input.arrive[m]);
            }
            let t1 = Instant::now();
            for (i, bid) in input.churn.iter().enumerate() {
                self.set.submit(i / CHURN, *bid);
            }
            let t2 = Instant::now();
            if traced {
                for m in 0..M {
                    let s = Instant::now();
                    self.set
                        .market_mut(m)
                        .step_into(&mut self.rngs[m], &mut self.reports[m]);
                    let e = Instant::now();
                    ph.per_market[m] += (e - s).as_secs_f64() * 1e6;
                    out.tracer.record("market.step", s, e, slot, rid);
                }
            } else {
                self.set.step_into(&mut self.rngs, &mut self.reports);
            }
            let t3 = Instant::now();
            let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
            ph.slot.push(us(t0, t3));
            ph.yard.push(us(t0, t3));
            ph.step.push(us(t2, t3));
            ph.churn.push(us(t0, t1));
            ph.submit_ns += us(t1, t2) * 1e3;
            ph.submits += input.churn.len() as u64;
            out.tracer.record("market.od_churn", t0, t1, slot, rid);
            out.tracer.record("market.submit", t1, t2, slot, rid);
            out.tracer.close(slot);

            for r in &self.reports {
                ph.started += r.started.len() as u64;
                ph.interrupted += r.interrupted.len() as u64;
            }
            out.attempted += 1;
            if !self.check(&mut out.errors) {
                out.failed += 1;
            }
            if ph.slot.len() == min {
                out.mark_memory();
            }
            if rid <= DIGEST_SLOTS {
                self.digest(&mut out.digest);
            }
        }
        ph
    }

    /// Provider counts over the slots logged since `first`.
    fn counts(&self, out: &mut Outcome, first: usize) {
        let mut sums = [0f64; 5];
        let (mut busy, mut binding, mut admitted, mut rejected, mut n) =
            (0f64, 0u64, 0u64, 0u64, 0u64);
        for m in 0..M {
            for s in &self.set.provider_slots(m)[first..] {
                sums[0] += f64::from(s.reclaims);
                sums[1] += f64::from(s.fresh_evictions);
                sums[2] += f64::from(s.parked_restarts);
                busy += f64::from(s.spot_running + s.od_active) / f64::from(CAPACITY);
                binding += u64::from(s.spot_running == s.spot_capacity);
                admitted += u64::from(s.od_admitted);
                rejected += u64::from(s.od_rejected);
                n += 1;
            }
        }
        let slots = n as f64 / M as f64;
        out.metrics
            .set("market.reclaims_per_slot", sums[0] / slots, None);
        out.metrics
            .set("market.fresh_evictions_per_slot", sums[1] / slots, None);
        out.metrics
            .set("market.parked_restarts_per_slot", sums[2] / slots, None);
        out.metrics.set("market.utilization", busy / n as f64, None);
        out.metrics.set(
            "market.capacity_binding_ratio",
            binding as f64 / n as f64,
            None,
        );
        out.metrics.set(
            "market.od_reject_ratio",
            rejected as f64 / (admitted + rejected).max(1) as f64,
            None,
        );
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx, 0);
    let mut built = None;
    let (mut wave_ms, mut auction_ms) = (Vec::new(), Vec::new());
    for k in 0..SETUPS {
        drop(built.take());
        let t0 = Instant::now();
        let (sq, wave, auction) = Squeeze::build(ctx.seed);
        let t1 = Instant::now();
        out.setup(t0, t1, k);
        wave_ms.push(wave);
        auction_ms.push(auction);
        built = Some(sq);
    }
    let mut sq = built.expect("SETUPS > 0");
    // Warm-up, outside set-up: `setup_s` is building the set, and slots
    // are what `p50_ref` times against the reference job.
    sq.warm(WARM_SLOTS);
    if !sq.check(&mut out.errors) {
        out.failed += 1;
    }
    sq.digest(&mut out.digest);
    out.metrics.set(
        "market.setup.submit_wave_ms",
        median(&wave_ms).expect("set up"),
        Some(SETUPS),
    );
    out.metrics.set(
        "market.setup.first_auction_ms",
        median(&auction_ms).expect("set up"),
        Some(SETUPS),
    );

    // The timed slots, untraced. A traced run gives them half its seconds,
    // then steps as long again traced.
    out.tracer.set_enabled(false);
    let budget = if ctx.trace { 0.45 } else { 1.0 } * ctx.seconds;
    let plain = sq.slots(&mut out, budget, MIN_SLOTS, None);
    out.rate("e2e.throughput_per_s", &plain.slot, 1.0, 100);
    let v = sorted(&plain.slot);
    out.relative(&plain.yard);
    out.percentile("e2e.p50_us", &v, 0.5);
    out.tail("e2e.p90_us", &plain.slot, 0.9);
    out.percentile("market.slot_p99_us", &v, 0.99);
    if !ctx.trace {
        return out;
    }

    out.tracer.set_enabled(true);
    let root = out.tracer.open("market_squeeze.traced", None, 0);
    let ph = sq.slots(&mut out, ctx.seconds * 0.45, MIN_SLOTS, root);
    out.tracer.close(root);
    let rel = |p: &Phase| median(p.yard.ratios()).expect("slots ran");
    out.metrics
        .set("trace.overhead_ratio", rel(&ph) / rel(&plain), None);
    let step = sorted(&ph.step);
    out.percentile("market.set.step_us.p50", &step, 0.5);
    out.percentile("market.set.step_us.p99", &step, 0.99);
    let mean = ph.per_market.iter().sum::<f64>() / M as f64;
    let max = ph.per_market.iter().copied().fold(0.0, f64::max);
    out.metrics.set("market.step_imbalance", max / mean, None);
    out.metrics
        .set("market.submit_ns", ph.submit_ns / ph.submits as f64, None);
    out.metrics.set(
        "market.od_churn_us",
        ph.churn.iter().sum::<f64>() / ph.churn.len() as f64,
        None,
    );
    let n = ph.slot.len() as f64;
    out.metrics
        .set("market.started_per_slot", ph.started as f64 / n, None);
    out.metrics.set(
        "market.interrupted_per_slot",
        ph.interrupted as f64 / n,
        None,
    );
    sq.counts(&mut out, ph.first);
    out
}
