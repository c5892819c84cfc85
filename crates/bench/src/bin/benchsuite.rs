//! The statistical benchmark suite behind `BENCH_*.json`.
//!
//! Runs the named benchmarks that make up the repository's performance
//! trajectory — the price-model kernels (optimized vs brute-force rescan)
//! and MLE fits, the market auction step (including the bid-book at
//! 100k/1M bids against the retained `sim::naive` scan) and the Eq. 4
//! queue recursion, the bidding strategies and MapReduce planner, the
//! fig3/table3 experiment replays and the MapReduce scheduler, and the
//! wakeup-fleet closed loop up to 1M tenants
//! (against the frozen per-slot fleet, `closedloop::dense`) — and writes
//! the results as a `BENCH_<rev>.json` report for `benchdiff` to compare
//! against the committed `BENCH_baseline.json`.
//!
//! ```text
//! benchsuite [--out PATH] [--only SUBSTR]   # default: BENCH_<git_rev>.json
//! SPOTBID_BENCH_BUDGET_MS=100               # reduced-budget mode (CI)
//! ```
//!
//! `--only` keeps the sections whose name contains the substring
//! (case-insensitively; a filter matching nothing exits non-zero with the
//! section list) — CI's scale-smoke step runs `--only scale` to exercise
//! the `market_scale`/`engine_scale`/`portfolio_scale` sections under a
//! tight budget, and `--only engine_scale` / `--only portfolio_scale` at
//! 1 and 4 workers to smoke the wakeup fleet's population sweeps at both
//! thread counts. `--section NAME` keeps exactly the section `NAME`.
//!
//! ```text
//! benchsuite --ab PARENT_BIN [--pairs N] [--dir DIR] [--only SUBSTR]
//! ```
//!
//! `--ab` compares this build with a parent build of `benchsuite`: for
//! each of `N` pairs (default 5) it runs every selected section once in
//! each build, each run a child process on that one section, the parent
//! first in odd pairs and this build first in even ones, so drift during
//! the run reaches both sides alike. A pair's sections are collected in
//! `DIR/parent-K.json` and `DIR/change-K.json` (default `DIR` is
//! `.bench_ab`), the files `benchdiff --ab` reads, and the run ends by
//! printing `benchdiff --ab`'s summary of them.

use spotbid_bench::experiments::{fig3, table3};
use spotbid_bench::timing::{fmt_ns, git_rev, read_report, write_report, BenchResult, Harness};
use spotbid_bench::{regress, suite};
use spotbid_core::price_model::{EmpiricalPrices, PriceModel};
use spotbid_core::{mapreduce, onetime, persistent, JobSpec};
use spotbid_market::provider::optimal_price;
use spotbid_market::provider::ProviderPolicy;
use spotbid_market::queue::QueueSim;
use spotbid_market::sim::{naive, BidKind, BidRequest, SpotMarket, Supply, WorkModel};
use spotbid_market::units::{Hours, Price};
use spotbid_market::MarketParams;
use spotbid_numerics::dist::{ContinuousDist, Exponential, Pareto};
use spotbid_numerics::empirical::brute;
use spotbid_numerics::fit::{mle_exponential, mle_pareto};
use spotbid_numerics::rng::Rng;
use spotbid_trace::history::TWO_MONTHS_SLOTS;
use spotbid_trace::synthetic::{generate, SyntheticConfig};
use spotbid_trace::{analyze, catalog};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Number of probe prices/probabilities cycled through per query benchmark,
/// so the measured path sees varying (branch-unpredictable) inputs.
const PROBES: usize = 256;

fn probe_prices(max: f64) -> Vec<f64> {
    // Deterministic low-discrepancy sweep of [0, 1.05·max]: golden-ratio
    // rotation keeps successive probes far apart.
    let mut x = 0.5f64;
    (0..PROBES)
        .map(|_| {
            x = (x + 0.618_033_988_749_895) % 1.0;
            x * max * 1.05
        })
        .collect()
}

fn price_model_benches(h: &mut Harness) {
    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let hist = generate(&cfg, 10_000, &mut Rng::seed_from_u64(0xBE7C)).unwrap();
    let model = EmpiricalPrices::from_history_with_cap(&hist, inst.on_demand).unwrap();
    let mut sorted = hist.raw();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let probes = probe_prices(hist.max_price().as_f64());
    let qs: Vec<f64> = (0..PROBES)
        .map(|i| i as f64 / (PROBES - 1) as f64)
        .collect();

    let mut g = h.group("price_model");
    g.bench("build/10k", || {
        EmpiricalPrices::from_history_with_cap(black_box(&hist), inst.on_demand).unwrap()
    });

    let mut i = 0usize;
    let cdf = g.bench("cdf/10k", || {
        i = (i + 1) % PROBES;
        model.cdf(Price::new(black_box(probes[i])))
    });
    let mut i = 0usize;
    let cdf_brute = g.bench("cdf_brute/10k", || {
        i = (i + 1) % PROBES;
        brute::cdf(black_box(&sorted), black_box(probes[i]))
    });
    let mut i = 0usize;
    g.bench("quantile/10k", || {
        i = (i + 1) % PROBES;
        model.quantile(black_box(qs[i])).unwrap()
    });
    let mut i = 0usize;
    g.bench("expected_price_below/10k", || {
        i = (i + 1) % PROBES;
        model.expected_price_below(Price::new(black_box(probes[i])))
    });
    let mut i = 0usize;
    let pm = g.bench("partial_moment/10k", || {
        i = (i + 1) % PROBES;
        model.partial_moment(Price::new(black_box(probes[i])))
    });
    let mut i = 0usize;
    let pm_brute = g.bench("partial_moment_brute/10k", || {
        i = (i + 1) % PROBES;
        brute::sum_below(black_box(&sorted), black_box(probes[i])) / sorted.len() as f64
    });
    g.bench("bid_candidates/10k", || black_box(&model).bid_candidates());

    // The Figure 3 fitting pipeline's MLE kernels over two months of
    // 5-minute samples.
    let mut rng = Rng::seed_from_u64(1);
    let pareto = Pareto::new(0.01, 5.0).unwrap().sample_n(&mut rng, 17_568);
    let exponential = Exponential::new(0.001).unwrap().sample_n(&mut rng, 17_568);
    g.bench("mle_pareto/two_months", || {
        mle_pareto(black_box(&pareto), Some(0.01)).unwrap()
    });
    g.bench("mle_exponential/two_months", || {
        mle_exponential(black_box(&exponential)).unwrap()
    });

    // The headline the original optimization work is judged by: optimized
    // kernels vs the O(n) rescan at 10k samples.
    println!();
    println!(
        "speedup cdf (brute/optimized): {:.1}x ({} -> {})",
        cdf_brute.median_ns / cdf.median_ns,
        fmt_ns(cdf_brute.median_ns),
        fmt_ns(cdf.median_ns)
    );
    println!(
        "speedup partial_moment (brute/optimized): {:.1}x ({} -> {})",
        pm_brute.median_ns / pm.median_ns,
        fmt_ns(pm_brute.median_ns),
        fmt_ns(pm.median_ns)
    );
}

/// The serve crate's hot paths: the sliding-window model maintenance
/// that keeps the advisory model current per feed record (vs the
/// `price_model/build/10k` full rebuild above), and the end-to-end
/// advisory query round-trip through a live in-process server —
/// unloaded and with background sessions hammering the worker pool.
fn serve_benches(h: &mut Harness) {
    use spotbid_numerics::sliding::SlidingEmpirical;
    use spotbid_serve::{ServeConfig, ServerHandle};
    use spotbid_trace::ingest::RawRecord;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let hist = generate(&cfg, 10_000, &mut Rng::seed_from_u64(0xBE7C)).unwrap();
    let prices = hist.raw();

    let mut g = h.group("serve");

    // Steady state at capacity: every push is an atom insert plus an
    // oldest-atom evict — the O(log k) work a live feed record costs.
    let window = 4096usize;
    let mut sliding = SlidingEmpirical::new(window).unwrap();
    for p in prices.iter().take(window) {
        sliding.push(*p).unwrap();
    }
    let mut i = 0usize;
    g.bench("sliding_push/4k", || {
        i = (i + 1) % prices.len();
        sliding.push(black_box(prices[i])).unwrap()
    });

    // Push + snapshot: the full cost of answering a query right after a
    // record lands (cache invalidated, count-multiset replay rebuild).
    let mut i = 0usize;
    g.bench("sliding_push_snapshot/4k", || {
        i = (i + 1) % prices.len();
        sliding.push(black_box(prices[i])).unwrap();
        sliding.snapshot().unwrap().len()
    });

    // A live server with a preloaded window; deadlines long enough that
    // harness pauses between benches never evict the bench client.
    let start_server = || -> ServerHandle {
        let handle = spotbid_serve::start(ServeConfig {
            read_timeout: std::time::Duration::from_secs(120),
            write_timeout: std::time::Duration::from_secs(120),
            ..ServeConfig::default()
        })
        .expect("start serve");
        let mut m = handle.shared().model.lock().unwrap();
        for (k, p) in prices.iter().take(window).enumerate() {
            m.ingest(RawRecord {
                time_hours: k as f64 * (1.0 / 12.0),
                price: *p,
            })
            .unwrap();
        }
        drop(m);
        handle
    };
    let connect = |handle: &ServerHandle| {
        let sock = TcpStream::connect(handle.addr()).expect("connect");
        sock.set_nodelay(true).unwrap();
        (sock.try_clone().unwrap(), BufReader::new(sock))
    };
    let roundtrip = |writer: &mut TcpStream, reader: &mut BufReader<TcpStream>| {
        writer
            .write_all(b"{\"op\":\"advise\",\"strategy\":\"persistent\",\"ts_hours\":1.0,\"tr_secs\":30.0}\n")
            .expect("write advise");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read advise");
        assert!(reply.contains("\"ok\":true"), "advisory failed: {reply}");
        reply.len()
    };

    let handle = start_server();
    let (mut writer, mut reader) = connect(&handle);
    g.bench("query_roundtrip/persistent_advise", || {
        roundtrip(&mut writer, &mut reader)
    });

    // The same round-trip while background sessions keep every worker
    // busy with pings — queueing plus lock contention included.
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let stop = Arc::clone(&stop);
            let (mut w, mut r) = connect(&handle);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    w.write_all(b"{\"op\":\"ping\"}\n").expect("hammer write");
                    let mut line = String::new();
                    r.read_line(&mut line).expect("hammer read");
                }
            })
        })
        .collect();
    g.bench("query_roundtrip/under_load", || {
        roundtrip(&mut writer, &mut reader)
    });
    stop.store(true, Ordering::Relaxed);
    for hammer in hammers {
        hammer.join().expect("hammer thread");
    }
    drop((writer, reader));
    handle.stop();
}

fn market_params() -> MarketParams {
    MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.02).unwrap()
}

fn market_benches(h: &mut Harness) {
    let params = market_params();
    let mut g = h.group("market");
    let mut d = 0.0f64;
    g.bench("optimal_price", || {
        d = (d + 17.0) % 5000.0;
        optimal_price(black_box(&params), black_box(d))
    });

    // The Eq. 4 flow-level queue recursion over 10k slots.
    let queue = QueueSim::new(params);
    let arrivals: Vec<f64> = (0..10_000).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    g.bench("queue_recursion/10k_slots", || {
        queue.run(black_box(10.0), arrivals.iter().copied())
    });

    // A steady-state market: 1000 persistent bids at the cap with
    // effectively infinite work, so every step runs the full survivor loop
    // at constant demand — the per-slot hot path in isolation.
    let mut market = SpotMarket::new(params, Hours::from_minutes(5.0));
    for _ in 0..1000 {
        market.submit(BidRequest {
            price: Price::new(0.35),
            kind: BidKind::Persistent,
            work: WorkModel::FixedSlots(u32::MAX),
        });
    }
    let mut rng = Rng::seed_from_u64(0x5B1D);
    g.throughput_items(1000)
        .bench("spot_market_step/1k_bids", || {
            black_box(market.step(&mut rng));
        });
}

/// A bid price laddered over `[π_min, π̄)` by golden-ratio rotation —
/// deterministic, uniform-ish, and maximally spread across the book's
/// price buckets.
fn laddered_price(params: &MarketParams, i: usize) -> Price {
    let frac = (0.5 + i as f64 * 0.618_033_988_749_895) % 1.0;
    Price::new(params.pi_min.as_f64() + frac * params.spread().as_f64())
}

/// One-time geometric churn arrivals submitted before each timed step, so
/// the standing book sees real per-slot events (price wiggle, first
/// auctions, departures) instead of a frozen fixed point.
const CHURN_PER_STEP: usize = 16;

fn standing_bid(params: &MarketParams, i: usize) -> BidRequest {
    BidRequest {
        price: laddered_price(params, i),
        kind: BidKind::Persistent,
        work: WorkModel::FixedSlots(u32::MAX),
    }
}

fn churn_bid(params: &MarketParams, i: usize) -> BidRequest {
    BidRequest {
        price: laddered_price(params, i),
        kind: BidKind::OneTime,
        work: WorkModel::Geometric,
    }
}

/// The market hot path at population scale: `n` standing persistent bids
/// laddered across the price range plus [`CHURN_PER_STEP`] one-time
/// arrivals per slot — identical workloads on the bid-book and on the
/// retained `sim::naive` scan, so their `items_per_sec` ratio is the
/// bid-book's honest speedup.
fn market_scale_benches(h: &mut Harness) {
    let params = market_params();
    let slot = Hours::from_minutes(5.0);

    // Bid-book at 100k standing bids.
    let mut market = SpotMarket::new(params, slot);
    for i in 0..100_000 {
        market.submit(standing_bid(&params, i));
    }
    let mut rng = Rng::seed_from_u64(0x5CA1E);
    // Absorb the initial 100k-bid first auction before timing steady state.
    let mut report = market.step(&mut rng);
    let mut next = 100_000usize;
    h.group("market_scale")
        .throughput_items(100_000)
        .bench("spot_market_step/100k_bids", || {
            for _ in 0..CHURN_PER_STEP {
                market.submit(churn_bid(&params, next));
                next += 1;
            }
            market.step_into(&mut rng, &mut report);
            black_box(&report);
        });

    // The retained naive scan on the identical workload.
    let mut market = naive::SpotMarket::new(params, slot);
    for i in 0..100_000 {
        market.submit(standing_bid(&params, i));
    }
    let mut rng = Rng::seed_from_u64(0x5CA1E);
    black_box(market.step(&mut rng));
    let mut next = 100_000usize;
    h.group("market_scale").throughput_items(100_000).bench(
        "spot_market_step_naive/100k_bids",
        || {
            for _ in 0..CHURN_PER_STEP {
                market.submit(churn_bid(&params, next));
                next += 1;
            }
            black_box(market.step(&mut rng));
        },
    );

    // A 200k-bid submission wave into a fresh market: bid by bid without
    // `reserve` (how a caller that does not know its wave size submits),
    // and as one `submit_batch`. Each sample builds, fills and drops one
    // market.
    let wave: Vec<BidRequest> = (0..200_000).map(|i| standing_bid(&params, i)).collect();
    h.group("market_scale")
        .throughput_items(wave.len() as u64)
        .bench("submit_wave/200k_bids", || {
            let mut market = SpotMarket::new(params, slot);
            for &request in &wave {
                market.submit(request);
            }
            market.submitted()
        });
    h.group("market_scale")
        .throughput_items(wave.len() as u64)
        .bench("submit_wave_batch/200k_bids", || {
            let mut market = SpotMarket::new(params, slot);
            market.submit_batch(&wave);
            market.submitted()
        });

    // A million-bid slot on the bid-book (the naive scan at 1M would burn
    // the whole suite budget on warmup alone).
    let mut market = SpotMarket::new(params, slot);
    for i in 0..1_000_000 {
        market.submit(standing_bid(&params, i));
    }
    let mut rng = Rng::seed_from_u64(0x5CA1E);
    let mut report = market.step(&mut rng);
    let mut next = 1_000_000usize;
    h.group("market_scale")
        .throughput_items(1_000_000)
        .bench("spot_market_step/1m_bids", || {
            for _ in 0..CHURN_PER_STEP {
                market.submit(churn_bid(&params, next));
                next += 1;
            }
            market.step_into(&mut rng, &mut report);
            black_box(&report);
        });
}

/// The finite-capacity provider layer (DESIGN.md §5i). Two slots:
///
/// - `finite_step/100k_bids_8k_servers` — the identical workload as
///   `market_scale`'s unbounded `spot_market_step/100k_bids`, on an 8192-
///   server box, so the two sections' ratio is the honest cost of the
///   clearing-price floor plus the per-slot eviction pass;
/// - `reclaim_storm_step/20k_bids_4k_servers` — every standing bid above
///   the clearing price, with half the box requested and released on
///   demand around alternate steps, so each step reclaims running
///   instances on the squeeze and mass-reactivates parked victims on the
///   release.
fn market_provider_benches(h: &mut Harness) {
    let params = market_params();
    let slot = Hours::from_minutes(5.0);

    let supply = Supply::Finite {
        capacity: 8192,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 4096 },
    };
    let mut market = SpotMarket::with_supply(params, slot, supply);
    for i in 0..100_000 {
        market.submit(standing_bid(&params, i));
    }
    let mut rng = Rng::seed_from_u64(0x5CA1E);
    let mut report = market.step(&mut rng);
    let mut next = 100_000usize;
    h.group("market_provider").throughput_items(100_000).bench(
        "finite_step/100k_bids_8k_servers",
        || {
            for _ in 0..CHURN_PER_STEP {
                market.submit(churn_bid(&params, next));
                next += 1;
            }
            market.step_into(&mut rng, &mut report);
            black_box(&report);
        },
    );

    // Bids laddered over [0.29, 0.35): all above the 20k-bid clearing
    // price at either split, so capacity — not price — does the rationing.
    let storm_bid = |i: usize| BidRequest {
        price: Price::new(0.29 + ((0.5 + i as f64 * 0.618_033_988_749_895) % 1.0) * 0.06),
        kind: BidKind::Persistent,
        work: WorkModel::FixedSlots(u32::MAX),
    };
    let storm = Supply::Finite {
        capacity: 4096,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 4096 },
    };
    let mut market = SpotMarket::with_supply(params, slot, storm);
    for i in 0..20_000 {
        market.submit(storm_bid(i));
    }
    let mut rng = Rng::seed_from_u64(0x5CA1E);
    let mut report = market.step(&mut rng);
    let mut tick = 0u32;
    h.group("market_provider").throughput_items(20_000).bench(
        "reclaim_storm_step/20k_bids_4k_servers",
        || {
            if tick % 2 == 0 {
                market.request_on_demand(2048);
            } else {
                market.release_on_demand(2048);
            }
            tick += 1;
            market.step_into(&mut rng, &mut report);
            black_box(&report);
        },
    );
}

/// The multi-market layer (DESIGN.md §5h): a `MarketSet` stepping M books
/// per slot with per-market churn, the common-shock correlated arrival
/// draw, and a small portfolio closed loop over 3 correlated markets.
fn market_multi_benches(h: &mut Harness) {
    use spotbid_core::portfolio::PortfolioStrategy;
    use spotbid_core::strategy::BiddingStrategy;
    use spotbid_engine::{run_portfolio_loop, PortfolioLoopConfig, PortfolioMarket};
    use spotbid_market::multi::{CorrelatedArrivals, MarketSet, MarketSpec};
    use spotbid_market::sim::SlotReport;

    let params = market_params();
    let slot = Hours::from_minutes(5.0);

    // Four books of 25k standing bids each stepped in lockstep — the
    // multi-market counterpart of `market_scale`'s 100k single-book slot.
    const M: usize = 4;
    let specs = (0..M)
        .map(|m| MarketSpec::new(format!("m{m}"), params))
        .collect();
    let mut set = MarketSet::new(specs, slot).unwrap();
    for m in 0..M {
        for i in 0..25_000 {
            set.submit(m, standing_bid(&params, i));
        }
    }
    let mut rngs: Vec<Rng> = (0..M as u64)
        .map(|m| Rng::seed_from_u64(0x5CA1E ^ m))
        .collect();
    let mut reports = vec![SlotReport::empty(); M];
    // Absorb the first-auction wave before timing steady state.
    set.step_into(&mut rngs, &mut reports);
    let mut next = 25_000usize;
    h.group("market_multi")
        .throughput_items(100_000)
        .bench("market_set_step/4x25k_bids", || {
            for m in 0..M {
                for k in 0..CHURN_PER_STEP / M {
                    set.submit(m, churn_bid(&params, next + k));
                }
            }
            next += CHURN_PER_STEP;
            set.step_into(black_box(&mut rngs), black_box(&mut reports));
        });

    // An aged, squeezed set: four finite books of 50k standing bids each
    // (8192 servers, up to 4096 on demand), stepped 20k slots with
    // on-demand and one-time churn before timing. The churn interrupts
    // and restarts standing bids every slot, so this row times a book
    // that has seen hundreds of thousands of restarts, where every other
    // market row times a young one.
    const AGE: usize = 20_000;
    let squeezed = Supply::Finite {
        capacity: 8192,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 4096 },
    };
    let specs = (0..M)
        .map(|m| MarketSpec::with_supply(format!("m{m}"), params, squeezed))
        .collect();
    let mut aged = MarketSet::new(specs, slot).unwrap();
    for m in 0..M {
        for i in 0..50_000 {
            aged.submit(m, standing_bid(&params, m * 50_000 + i));
        }
    }
    let mut od = Rng::seed_from_u64(0x0D);
    let mut next = M * 50_000;
    let mut squeeze_slot = |set: &mut MarketSet, rngs: &mut [Rng], reports: &mut [SlotReport]| {
        for m in 0..M {
            let active = set.market(m).od_active();
            set.release_on_demand(m, od.poisson(f64::from(active) * 0.1) as u32);
            set.request_on_demand(m, od.poisson(200.0) as u32);
            for _ in 0..CHURN_PER_STEP / M {
                set.submit(m, churn_bid(&params, next));
                next += 1;
            }
        }
        set.step_into(rngs, reports);
    };
    for _ in 0..AGE {
        squeeze_slot(&mut aged, &mut rngs, &mut reports);
    }
    h.group("market_multi")
        .throughput_items(200_000)
        .bench("market_set_step_aged/4x50k_bids_20k_slots", || {
            squeeze_slot(&mut aged, black_box(&mut rngs), black_box(&mut reports))
        });

    // The per-slot correlated background draw at M=8.
    let arrivals = CorrelatedArrivals::new(2.0, vec![3.0; 8]).unwrap();
    let mut shared = Rng::seed_from_u64(1);
    let mut idio: Vec<Rng> = (2..10).map(Rng::seed_from_u64).collect();
    let mut counts = Vec::new();
    h.group("market_multi")
        .bench("correlated_draws/8_markets", || {
            arrivals.draw_into(&mut shared, &mut idio, black_box(&mut counts));
        });

    // A small portfolio closed loop: 16 mixed-strategy tenants across 3
    // correlated markets, warmup + horizon = 160 slots per market.
    let cfg = PortfolioLoopConfig {
        markets: (0..3)
            .map(|i| PortfolioMarket {
                name: format!("zone-{i}"),
                params: MarketParams::new(
                    Price::new(0.35),
                    Price::new(0.02 + 0.004 * i as f64),
                    0.05,
                    0.05,
                )
                .unwrap(),
                idio_arrivals: 2.0,
                supply: Supply::Unbounded,
            })
            .collect(),
        shared_arrivals: 1.0,
        slot_len: slot,
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 40,
        horizon_slots: 120,
        max_resubmissions: 4,
    };
    let strategies: Vec<PortfolioStrategy> = (0..16)
        .map(|i| match i % 3 {
            0 => PortfolioStrategy::ZoneFallback {
                home: i % 3,
                base: BiddingStrategy::OptimalPersistent,
            },
            1 => PortfolioStrategy::SplitEven {
                base: BiddingStrategy::FixedBid(Price::new(0.30)),
            },
            _ => PortfolioStrategy::Contract {
                spot_share: 0.5,
                base: BiddingStrategy::OptimalPersistent,
            },
        })
        .collect();
    h.group("market_multi")
        .bench("portfolio_loop/16_tenants_3_markets_160_slots", || {
            run_portfolio_loop(black_box(&strategies), black_box(&cfg), 0x907F).unwrap()
        });
}

fn strategy_benches(h: &mut Harness) {
    let two_months = |name: &str, seed: u64| {
        let inst = catalog::by_name(name).unwrap();
        let cfg = SyntheticConfig::for_instance(&inst);
        let hist = generate(&cfg, TWO_MONTHS_SLOTS, &mut Rng::seed_from_u64(seed)).unwrap();
        EmpiricalPrices::from_history_with_cap(&hist, inst.on_demand).unwrap()
    };
    let model = two_months("c3.4xlarge", 1);
    let master = two_months("m3.xlarge", 2);
    let j1 = JobSpec::builder(1.0).build().unwrap();
    let j30 = JobSpec::builder(1.0).recovery_secs(30.0).build().unwrap();
    let mr = JobSpec::builder(1.0)
        .recovery_secs(30.0)
        .overhead_secs(60.0)
        .build()
        .unwrap();
    let mut g = h.group("strategy");
    g.bench("onetime_bid/two_months", || {
        onetime::optimal_bid(black_box(&model), black_box(&j1)).unwrap()
    });
    g.bench("persistent_bid/two_months", || {
        persistent::optimal_bid(black_box(&model), black_box(&j30)).unwrap()
    });
    g.bench("persistent_bid_psi/two_months", || {
        persistent::optimal_bid_psi(black_box(&model), black_box(&j30))
    });
    g.bench("mapreduce_plan/two_months", || {
        mapreduce::plan(black_box(&master), black_box(&model), black_box(&mr), 32).unwrap()
    });
}

fn replay_benches(h: &mut Harness) {
    use spotbid_mapred::schedule::{simulate, Availability, Phase, ScheduleConfig, TaskSpec};

    let mut g = h.group("replay");
    g.bench("table3/5_instances", || black_box(table3::run(0x7AB3)));
    g.bench("fig3/4_panels", || black_box(fig3::run(0xF163, 24)));

    // One Figure 3 panel's Pareto fit on its own, over a 24-bin histogram.
    let (inst, paper) = catalog::figure3_instances().into_iter().next().unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let hist = generate(&cfg, 17_568, &mut Rng::seed_from_u64(3)).unwrap();
    let (centers, dens) = analyze::price_histogram(&hist, 24).unwrap();
    let (lo, hi) = (hist.min_price().as_f64(), hist.max_price().as_f64());
    g.bench("fig3_pareto_fit/24_bins", || {
        fig3::fit_family(
            fig3::ArrivalFamily::Pareto,
            inst.on_demand.as_f64(),
            black_box(lo),
            hi,
            &centers,
            &dens,
            &paper,
        )
    });

    // The MapReduce scheduler: 48 map and 16 reduce tasks on 8 slaves that
    // all go down every 17th slot.
    let tasks: Vec<TaskSpec> = (0..64)
        .map(|i| TaskSpec {
            id: i,
            phase: if i < 48 { Phase::Map } else { Phase::Reduce },
            duration: Hours::from_minutes(7.0),
        })
        .collect();
    let cfg = ScheduleConfig {
        slot: Hours::from_minutes(5.0),
        recovery: Hours::from_secs(30.0),
        max_slots: 10_000,
        speculative: false,
    };
    g.bench("mapreduce_schedule/64_tasks_8_slaves", || {
        simulate(black_box(&tasks), &cfg, |t| Availability {
            master: true,
            slaves: vec![t % 17 != 0; 8],
        })
    });
}

fn closed_loop_config(warmup: usize, horizon: usize) -> spotbid_engine::ClosedLoopConfig {
    spotbid_engine::ClosedLoopConfig {
        params: MarketParams::new(Price::new(0.35), Price::new(0.02), 0.05, 0.05).unwrap(),
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: warmup,
        horizon_slots: horizon,
        background_arrivals: 3.0,
        max_resubmissions: 4,
        supply: Supply::Unbounded,
        od_arrivals: 0.0,
        od_departure: 0.0,
    }
}

/// A tenant mix dominated by cheap `FixedBid` decisions with a sprinkle of
/// history-fitting strategies, as in the engine's scale suite.
fn tenant_mix(n: usize) -> Vec<spotbid_core::strategy::BiddingStrategy> {
    use spotbid_core::strategy::BiddingStrategy;
    (0..n)
        .map(|i| match i % 97 {
            0 => BiddingStrategy::OptimalPersistent,
            1 => BiddingStrategy::Percentile(0.90),
            _ => BiddingStrategy::FixedBid(Price::new(0.05 + (i % 13) as f64 * 0.023)),
        })
        .collect()
}

fn engine_benches(h: &mut Harness) {
    use spotbid_core::strategy::BiddingStrategy;
    use spotbid_core::BidDecision;
    use spotbid_engine::{run_closed_loop, ClosedLoopConfig};

    let inst = catalog::by_name("r3.xlarge").unwrap();
    let cfg = SyntheticConfig::for_instance(&inst);
    let hist = generate(&cfg, 600, &mut Rng::seed_from_u64(0xE61E)).unwrap();
    let job = JobSpec::builder(2.0).recovery_secs(30.0).build().unwrap();
    let decision = BidDecision::Spot {
        price: hist.mean_price(),
        persistent: true,
    };
    // The kernel-driven single-job replay: one driver, one billing
    // observer, 600 slots — the per-slot cost of the event-buffered loop.
    h.group("engine")
        .throughput_items(600)
        .bench("run_job/600_slots", || {
            spotbid_engine::run_job(black_box(&hist), black_box(decision), &job, 0).unwrap()
        });
    let mut g = h.group("engine");

    // A small multi-tenant closed loop: 4 strategy-driven bidders in an
    // endogenous market, warmup + horizon = 160 market steps.
    let loop_cfg: ClosedLoopConfig = closed_loop_config(40, 120);
    let strategies = [BiddingStrategy::FixedBid(Price::new(0.30)); 4];
    g.bench("closed_loop/4_tenants_160_slots", || {
        run_closed_loop(black_box(&strategies), black_box(&loop_cfg), 0xB1D).unwrap()
    });
}

/// The closed loop at population scale: the wakeup fleet at 1k/10k/100k
/// tenants over 80 market steps (20 warmup + 60 horizon), the 100k-tenant
/// submission wave on its own (one horizon slot; the tenant mix, and all
/// strategies distinct), a running-heavy 50k
/// session (a 4 h job, so per-slot charges dominate), a quiet-slot-
/// dominated 10k session on both fleets (the skip-path ratio), and a
/// million-tenant quiet session with the amortized per-quiet-slot cost
/// derived from two horizons. The ISSUE-6 acceptance ratio (>= 50x on
/// the 10k-tenant closed loop) is the `closed_loop/10k` row against the
/// PR-5 committed baseline — the fleet rebuild replaced both the
/// per-slot scan and the O(tenants x items) report finalize — and is
/// recorded in EXPERIMENTS.md.
fn engine_scale_benches(h: &mut Harness) {
    use spotbid_core::strategy::BiddingStrategy;
    use spotbid_engine::closedloop::dense;
    use spotbid_engine::run_closed_loop;

    let cfg = closed_loop_config(20, 60);
    for &tenants in &[1_000usize, 10_000, 100_000] {
        let strategies = tenant_mix(tenants);
        let id = format!("closed_loop/{}k_tenants_80_slots", tenants / 1000);
        h.group("engine_scale")
            .throughput_items(tenants as u64)
            .bench(&id, || {
                run_closed_loop(black_box(&strategies), black_box(&cfg), 0x5CA1E).unwrap()
            });
    }

    // The slot-0 submission wave in isolation: 100k tenants all decide
    // against one observed history, then one slot clears. Past the 20
    // tenant-free warm-up slots the session is the wave — every tenant's
    // decision and bid submission — plus one market step and finalize.
    let strategies = tenant_mix(100_000);
    let wave_cfg = closed_loop_config(20, 1);
    h.group("engine_scale")
        .throughput_items(100_000)
        .bench("closed_loop_wave/100k_tenants_1_slot", || {
            run_closed_loop(black_box(&strategies), black_box(&wave_cfg), 0x5CA1E).unwrap()
        });

    // The same wave with every tenant's strategy distinct: 100k fixed
    // bids on distinct prices, so every tenant is its own strategy class
    // and the per-slot decision memo never hits.
    let strategies: Vec<BiddingStrategy> = (0..100_000)
        .map(|i| BiddingStrategy::FixedBid(Price::new(0.05 + f64::from(i) * 2.9e-6)))
        .collect();
    h.group("engine_scale")
        .throughput_items(100_000)
        .bench("closed_loop_wave/100k_distinct_1_slot", || {
            run_closed_loop(black_box(&strategies), black_box(&wave_cfg), 0x5CA1E).unwrap()
        });

    // A running-heavy session: a 4 h job (48 five-minute slots), so the
    // half of the tenants whose bids clear the posted price each run about
    // 48 slots and pay one charge per running slot — about 1.27M charges
    // over 200 market steps, where the 1 h rows above charge a few per
    // tenant.
    let strategies = tenant_mix(50_000);
    let busy_cfg = busy_config(180);
    h.group("engine_scale")
        .throughput_items(50_000)
        .bench("closed_loop_busy/50k_tenants_200_slots", || {
            run_closed_loop(black_box(&strategies), black_box(&busy_cfg), 0x5CA1E).unwrap()
        });

    // The skip path in isolation: a quiet-slot-dominated session —
    // FixedBid($0.03) sits below the crowded-market price floor, so after
    // the slot-0 submission wave no tenant's state ever changes and the
    // wakeup fleet skips every remaining slot, while the dense oracle (the
    // portfolio loop's dense fleet at M = 1) still scans all 10k tenants
    // each of the 2020 slots. The ratio here is bounded by the wakeup
    // fleet's per-slot floor (the market step and kernel machinery still
    // run every slot), not by the fleet scan. The dense row reads about
    // 1.4x what the single-market dense fleet it replaced read, and
    // `BENCH_baseline.json` still holds that fleet's figure.
    let quiet_cfg = closed_loop_config(20, 2_000);
    let strategies = vec![BiddingStrategy::FixedBid(Price::new(0.03)); 10_000];
    let quiet_10k = h
        .group("engine_scale")
        .throughput_items(10_000)
        .bench("closed_loop_quiet/10k_tenants_2020_slots", || {
            run_closed_loop(black_box(&strategies), black_box(&quiet_cfg), 0x5CA1E).unwrap()
        });
    let quiet_dense_10k = h
        .group("engine_scale")
        .throughput_items(10_000)
        .bench("closed_loop_quiet_dense/10k_tenants_2020_slots", || {
            dense::run_closed_loop(black_box(&strategies), black_box(&quiet_cfg), 0x5CA1E).unwrap()
        });
    println!();
    println!(
        "speedup quiet closed_loop 10k tenants (dense/wakeup): {:.1}x ({} -> {})",
        quiet_dense_10k.median_ns / quiet_10k.median_ns,
        fmt_ns(quiet_dense_10k.median_ns),
        fmt_ns(quiet_10k.median_ns)
    );

    // One million tenants on the same quiet workload. The tracked row is a
    // whole short session (dominated by the serial slot-0 submission wave,
    // which bit-equivalence makes irreducible); the amortized quiet-slot
    // cost subtracts that shared wave via the horizon difference of two
    // sessions. The wave's run-to-run noise (tens of ms at 1M tenants)
    // would swamp a short diff, so the horizons sit 50,000 slots apart —
    // enough quiet slots that their total cost clears the noise floor —
    // and each side takes the best of two runs.
    let strategies = vec![BiddingStrategy::FixedBid(Price::new(0.03)); 1_000_000];
    let short_cfg = closed_loop_config(20, 60);
    let long_cfg = closed_loop_config(20, 50_060);
    h.group("engine_scale")
        .throughput_items(1_000_000)
        .bench("closed_loop_quiet/1m_tenants_80_slots", || {
            run_closed_loop(black_box(&strategies), black_box(&short_cfg), 0x1_000_000).unwrap()
        });
    let best_of_two = |cfg: &spotbid_engine::ClosedLoopConfig| {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            let t0 = std::time::Instant::now();
            black_box(run_closed_loop(&strategies, cfg, 0x1_000_000).unwrap());
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    };
    let short_ns = best_of_two(&short_cfg);
    let long_ns = best_of_two(&long_cfg);
    let extra_slots = (long_cfg.horizon_slots - short_cfg.horizon_slots) as f64;
    println!(
        "quiet-slot amortized, 1M tenants: {} per slot ({} -> {} over {} extra slots)",
        fmt_ns((long_ns - short_ns).max(0.0) / extra_slots),
        fmt_ns(short_ns),
        fmt_ns(long_ns),
        extra_slots
    );
}

/// The running-heavy closed loop of `engine_scale`: a 4 h job (48
/// five-minute slots) over 20 warm-up and `horizon` slots.
fn busy_config(horizon: usize) -> spotbid_engine::ClosedLoopConfig {
    spotbid_engine::ClosedLoopConfig {
        job: JobSpec::builder(4.0).recovery_secs(60.0).build().unwrap(),
        ..closed_loop_config(20, horizon)
    }
}

/// The completion slot, a section of its own so an A/B can run the two
/// rows alone (they report in the `engine_scale` group): the busy 4 h job
/// over exactly 48 horizon slots, so the slot-0 cohort (about half the
/// tenants) finishes in the session's last slot, where the market and the
/// fleet settle every finisher's 48 charges. The 47-slot twin stops one
/// slot short (its runners are settled by the session end instead); the
/// difference is the completion slot's own cost.
fn engine_cohort_benches(h: &mut Harness) {
    use spotbid_engine::run_closed_loop;

    let strategies = tenant_mix(50_000);
    let (cohort_48, cohort_47) = (busy_config(48), busy_config(47));
    let cohort = h
        .group("engine_scale")
        .throughput_items(50_000)
        .bench("closed_loop_cohort/50k_tenants_48_slots", || {
            run_closed_loop(black_box(&strategies), black_box(&cohort_48), 0x5CA1E).unwrap()
        });
    let short = h
        .group("engine_scale")
        .throughput_items(50_000)
        .bench("closed_loop_cohort/50k_tenants_47_slots", || {
            run_closed_loop(black_box(&strategies), black_box(&cohort_47), 0x5CA1E).unwrap()
        });
    println!();
    println!(
        "completion slot, 50k tenants: {} ({} -> {})",
        fmt_ns((cohort.median_ns - short.median_ns).max(0.0)),
        fmt_ns(short.median_ns),
        fmt_ns(cohort.median_ns)
    );
}

/// The portfolio closed loop at population scale (DESIGN.md §5j): a
/// running-heavy 20k-tenant 3-market session, the event-driven portfolio
/// fleet against the frozen
/// `closedloop::portfolio::dense` oracle on a quiet-slot-dominated
/// 10k-tenant 4-market session (the skip-path ratio ISSUE-10 is judged
/// by), plus a finite-supply 100k-tenant quiet session whose amortized
/// per-quiet-slot cost — derived from two horizons, as in
/// `engine_scale` — is compared against the unbounded wakeup path: quiet
/// finite slots must stay skippable.
fn portfolio_scale_benches(h: &mut Harness) {
    use spotbid_core::portfolio::PortfolioStrategy;
    use spotbid_core::strategy::BiddingStrategy;
    use spotbid_engine::closedloop::portfolio::dense;
    use spotbid_engine::{run_portfolio_loop, PortfolioLoopConfig, PortfolioMarket};

    const M: usize = 4;
    let pcfg = |horizon: usize, supply: Supply| PortfolioLoopConfig {
        markets: (0..M)
            .map(|i| PortfolioMarket {
                name: format!("zone-{i}"),
                params: MarketParams::new(
                    Price::new(0.35),
                    Price::new(0.02 + 0.004 * i as f64),
                    0.05,
                    0.05,
                )
                .unwrap(),
                idio_arrivals: 2.0,
                supply,
            })
            .collect(),
        shared_arrivals: 1.0,
        slot_len: Hours::from_minutes(5.0),
        on_demand: Price::new(0.35),
        job: JobSpec::builder(1.0).recovery_secs(60.0).build().unwrap(),
        warmup_slots: 20,
        horizon_slots: horizon,
        max_resubmissions: 4,
    };
    // The quiet workload: split-even legs bidding below every zone's
    // price floor — after the slot-0 submission wave no tenant's state
    // ever changes, in any market. The wakeup fleet skips every
    // remaining slot; the dense fleet still walks 10k × 4 legs each of
    // the 2020 slots.
    let quiet = |n: usize| {
        vec![
            PortfolioStrategy::SplitEven {
                base: BiddingStrategy::FixedBid(Price::new(0.01)),
            };
            n
        ]
    };
    // A running-heavy portfolio: split-even tenants over the engine-scale
    // bid mix in 3 markets, on a 12 h job — three 48-slot legs, run side
    // by side, so most tenants hold running legs for about 48 of the 180
    // horizon slots (every other portfolio row is quiet). A 4 h job would
    // split into 16-slot legs.
    let busy_cfg = PortfolioLoopConfig {
        markets: pcfg(180, Supply::Unbounded).markets[..3].to_vec(),
        job: JobSpec::builder(12.0).recovery_secs(60.0).build().unwrap(),
        ..pcfg(180, Supply::Unbounded)
    };
    let strategies: Vec<PortfolioStrategy> = tenant_mix(20_000)
        .into_iter()
        .map(|base| PortfolioStrategy::SplitEven { base })
        .collect();
    h.group("portfolio_scale")
        .throughput_items(20_000)
        .bench("portfolio_busy/20k_tenants_3_markets_200_slots", || {
            run_portfolio_loop(black_box(&strategies), black_box(&busy_cfg), 0x5CA1E).unwrap()
        });

    let strategies = quiet(10_000);
    let quiet_cfg = pcfg(2_000, Supply::Unbounded);
    let wake = h
        .group("portfolio_scale")
        .throughput_items(10_000)
        .bench("portfolio_quiet/10k_tenants_4_markets_2020_slots", || {
            run_portfolio_loop(black_box(&strategies), black_box(&quiet_cfg), 0x5CA1E).unwrap()
        });
    let dense_r = h.group("portfolio_scale").throughput_items(10_000).bench(
        "portfolio_quiet_dense/10k_tenants_4_markets_2020_slots",
        || {
            dense::run_portfolio_loop(black_box(&strategies), black_box(&quiet_cfg), 0x5CA1E)
                .unwrap()
        },
    );
    println!();
    println!(
        "speedup quiet portfolio 10k tenants x 4 markets (dense/wakeup): {:.1}x ({} -> {})",
        dense_r.median_ns / wake.median_ns,
        fmt_ns(dense_r.median_ns),
        fmt_ns(wake.median_ns)
    );

    // Finite supply at 100k tenants: nothing ever runs (bids sit below
    // every floor), so the capacity pass evicts nobody and the session
    // must stay as skippable as the unbounded one. The tracked row is a
    // short session (dominated by the serial slot-0 submission wave);
    // the amortized per-quiet-slot cost subtracts that wave via the
    // horizon difference of two sessions, best-of-two per side.
    let strategies = quiet(100_000);
    let finite = Supply::Finite {
        capacity: 512,
        policy: ProviderPolicy::UtilizationTracking { od_cap: 256 },
    };
    let short_finite = pcfg(60, finite);
    h.group("portfolio_scale").throughput_items(100_000).bench(
        "portfolio_quiet_finite/100k_tenants_4_markets_80_slots",
        || run_portfolio_loop(black_box(&strategies), black_box(&short_finite), 0x100_000).unwrap(),
    );
    // Best-of-three: the 100k slot-0 submission wave dominates every run
    // (~hundreds of ms), so the quiet-tail signal only survives the
    // subtraction if the wave's noise is filtered by a min and the extra
    // horizon is long enough (20k slots) to stand above what remains.
    let best_of = |cfg: &PortfolioLoopConfig| {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = std::time::Instant::now();
            black_box(run_portfolio_loop(&strategies, cfg, 0x100_000).unwrap());
            best = best.min(t0.elapsed().as_nanos() as f64);
        }
        best
    };
    let long_slots = 20_060usize;
    let extra = (long_slots - 60) as f64;
    let finite_per_slot =
        (best_of(&pcfg(long_slots, finite)) - best_of(&short_finite)).max(0.0) / extra;
    let unbounded_per_slot = (best_of(&pcfg(long_slots, Supply::Unbounded))
        - best_of(&pcfg(60, Supply::Unbounded)))
    .max(0.0)
        / extra;
    println!(
        "quiet-slot amortized, 100k tenants x 4 markets: finite {} vs unbounded {} per slot \
         ({:.2}x, over {} extra slots)",
        fmt_ns(finite_per_slot),
        fmt_ns(unbounded_per_slot),
        finite_per_slot / unbounded_per_slot.max(1.0),
        extra
    );
}

/// One named section: its `--only`-matchable name and its bench function.
type Section = (&'static str, fn(&mut Harness));

/// The suite's named sections, in run order. `--only SUBSTR` keeps those
/// whose name contains the substring.
const SECTIONS: &[Section] = &[
    ("price_model", price_model_benches),
    ("serve", serve_benches),
    ("market", market_benches),
    ("market_scale", market_scale_benches),
    ("market_provider", market_provider_benches),
    ("market_multi", market_multi_benches),
    ("strategy", strategy_benches),
    ("replay", replay_benches),
    ("engine", engine_benches),
    ("engine_scale", engine_scale_benches),
    ("engine_scale_cohort", engine_cohort_benches),
    ("portfolio_scale", portfolio_scale_benches),
];

fn main() -> ExitCode {
    let mut out: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let mut section: Option<String> = None;
    let mut parent: Option<PathBuf> = None;
    let mut pairs = 5usize;
    let mut dir = PathBuf::from(".bench_ab");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = match arg.as_str() {
            "--help" | "-h" => {
                println!("usage: benchsuite [--out PATH] [--only SUBSTR | --section NAME]");
                println!(
                    "       benchsuite --ab PARENT_BIN [--pairs N] [--dir DIR] [--only SUBSTR]"
                );
                println!("  SPOTBID_BENCH_BUDGET_MS sets the per-benchmark budget (default 500)");
                let names: Vec<&str> = SECTIONS.iter().map(|(n, _)| *n).collect();
                println!("  sections: {}", names.join(", "));
                return ExitCode::SUCCESS;
            }
            "--out" | "--only" | "--section" | "--ab" | "--pairs" | "--dir" => args.next(),
            other => {
                eprintln!("unknown argument `{other}` (see --help)");
                return ExitCode::from(2);
            }
        };
        let Some(value) = value else {
            eprintln!("{arg} requires a value");
            return ExitCode::from(2);
        };
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(value)),
            "--only" => only = Some(value),
            "--section" => section = Some(value),
            "--ab" => parent = Some(PathBuf::from(value)),
            "--dir" => dir = PathBuf::from(value),
            "--pairs" => match value.parse() {
                Ok(n) if n > 0 => pairs = n,
                _ => {
                    eprintln!("--pairs takes a positive count, got `{value}`");
                    return ExitCode::from(2);
                }
            },
            _ => unreachable!("every flag that takes a value is matched above"),
        }
    }

    let selected = match &section {
        Some(name) => match SECTIONS.iter().find(|(n, _)| n == name) {
            Some(found) => vec![found],
            None => {
                eprintln!("--section `{name}` is no section (see --help)");
                return ExitCode::from(2);
            }
        },
        None => match suite::select(SECTIONS, only.as_deref()) {
            Ok(s) => s,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::from(2);
            }
        },
    };

    if let Some(parent) = parent {
        let names: Vec<&str> = selected.iter().map(|(n, _)| *n).collect();
        return match ab(&parent, &names, pairs, &dir) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }

    let out = out.unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", git_rev())));
    let mut h = Harness::from_env();
    for (name, section) in &selected {
        println!("== {name} ==");
        section(&mut h);
    }

    match h.write(&out) {
        Ok(()) => {
            println!(
                "wrote {} benchmarks to {}",
                h.results().len(),
                out.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--ab`: runs `sections` in the `parent` build and in this one, section
/// by section in [`suite::ab_schedule`]'s order, each run a child process
/// writing one report; collects each pair's reports in `dir` and prints
/// `benchdiff --ab`'s summary of them.
fn ab(parent: &Path, sections: &[&str], pairs: usize, dir: &Path) -> Result<(), String> {
    let change = std::env::current_exe().map_err(|e| format!("this build's path: {e}"))?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut reports: Vec<(Vec<BenchResult>, Vec<BenchResult>)> = Vec::new();
    for (pair, name, side) in suite::ab_schedule(pairs, sections) {
        let (bin, label) = match side {
            suite::Side::Parent => (parent, "parent"),
            suite::Side::Change => (change.as_path(), "change"),
        };
        let part = dir.join(format!("{label}-{pair}-{name}.json"));
        println!("== pair {pair}, {label}: {name} ==");
        let status = std::process::Command::new(bin)
            .args(["--section", name, "--out"])
            .arg(&part)
            .status()
            .map_err(|e| format!("{}: {e}", bin.display()))?;
        if !status.success() {
            return Err(format!("{} --section {name}: {status}", bin.display()));
        }
        let rows = read_report(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        std::fs::remove_file(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        if reports.len() < pair {
            reports.push((Vec::new(), Vec::new()));
        }
        let (p, c) = &mut reports[pair - 1];
        match side {
            suite::Side::Parent => p.extend(rows),
            suite::Side::Change => c.extend(rows),
        }
    }
    let mut files = Vec::new();
    for (k, (p, c)) in reports.iter().enumerate() {
        for (label, rows) in [("parent", p), ("change", c)] {
            let path = dir.join(format!("{label}-{}.json", k + 1));
            write_report(&path, rows).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(path.display().to_string());
        }
    }
    println!();
    println!("benchdiff --ab {}", files.join(" "));
    print!("{}", regress::render_ab(&regress::ab(&reports)));
    Ok(())
}
