//! The server chaos wall: a 32-seed in-process harness driving scripted
//! feed faults and misbehaving clients against a live `spotbid-serve`
//! instance.
//!
//! Invariants proven here:
//!
//! 1. **No panic**: across every seed, `worker_panics == 0` and
//!    `workers_restarted == 0` (the supervisor respawn path is exercised
//!    separately via the test-only crash op).
//! 2. **Billing-sane advisories**: every successful advisory carries a
//!    finite positive bid, acceptance in `[0,1]`, non-negative finite
//!    costs and times.
//! 3. **Zero-fault bit-identity**: with no fault fired, the server's
//!    advisory lines are *string-identical* to direct library calls over
//!    the same window.
//! 4. **Recovery within budget**: feed loss beyond the backoff schedule
//!    enters degraded mode (stamped, fallback recommended); a healed feed
//!    restores live mode.
//!
//! Seeds derive from `SPOTBID_FAULT_SEED` (same convention as the
//! `spotbid-faults` suite) so CI can replay a failure exactly; worker
//! count follows `SPOTBID_SERVE_WORKERS` so the 1-thread and 4-thread CI
//! jobs drive the same schedules through different pool shapes.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use spotbid_faults::{ServerFaultConfig, ServerFaultPlan};
use spotbid_json::{from_str, Json};
use spotbid_market::units::Price;
use spotbid_numerics::backoff::BackoffConfig;
use spotbid_numerics::rng::Rng;
use spotbid_numerics::sliding::SlidingEmpirical;
use spotbid_serve::model::{self, AdvisoryMode, ModelConfig, Stamp};
use spotbid_serve::wire::{self, Strategy};
use spotbid_serve::{FeedConfig, ServeConfig, Validation};
use spotbid_trace::ingest::RawRecord;

fn base_fault_seed() -> u64 {
    std::env::var("SPOTBID_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(0xC1A05)
}

fn records(seed: u64, n: usize) -> Vec<RawRecord> {
    let mut rng = Rng::seed_from_u64(seed ^ 0x05EC_07D5);
    (0..n)
        .map(|i| RawRecord {
            time_hours: i as f64 * 0.1,
            // Quantized spot-like prices so the window has heavy atoms.
            price: (rng.range_f64(0.01, 0.25) * 1000.0).floor() / 1000.0,
        })
        .collect()
}

/// A scripted upstream feed: serves `records` per the fault plan
/// (garbage frames, connection drops), then holds the line open until
/// `stop`. Returns the listen address and the thread handle.
fn scripted_feed(
    records: Vec<RawRecord>,
    plan: ServerFaultPlan,
    stop: Arc<AtomicBool>,
) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind feed");
    listener.set_nonblocking(true).expect("nonblocking feed");
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        let mut cursor = 0usize;
        'accepting: while !stop.load(Ordering::Relaxed) {
            let mut sock = match listener.accept() {
                Ok((s, _)) => s,
                Err(_) => {
                    thread::sleep(Duration::from_millis(2));
                    continue;
                }
            };
            let _ = sock.set_nodelay(true);
            while cursor < records.len() {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                let i = cursor;
                cursor += 1;
                let mut frame = if plan.corrupt_frame(i) {
                    // Undecodable garbage where a record should be.
                    "\u{1}\u{2}not-json\u{3}".to_string()
                } else {
                    wire::feed_record_line(&records[i])
                };
                frame.push('\n');
                if sock.write_all(frame.as_bytes()).is_err() {
                    continue 'accepting; // server side vanished; re-accept
                }
                if plan.outage_after(i) {
                    drop(sock); // mid-stream outage
                    continue 'accepting;
                }
            }
            // Stream exhausted: hold the connection open and idle so a
            // zero-fault run never observes an outage.
            while !stop.load(Ordering::Relaxed) {
                thread::sleep(Duration::from_millis(2));
            }
            return;
        }
    });
    (addr, handle)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .set_write_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = stream.set_nodelay(true);
        Client {
            writer: stream.try_clone().unwrap(),
            reader: BufReader::new(stream),
        }
    }

    /// One round-trip: returns the raw reply line (no newline).
    fn request_raw(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(
            reply.ends_with('\n'),
            "truncated reply to {line:?}: {reply:?}"
        );
        reply.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> Json {
        from_str(&self.request_raw(line)).expect("reply is valid JSON")
    }
}

fn num(j: &Json, key: &str) -> f64 {
    j.field(key)
        .and_then(Json::as_num)
        .unwrap_or_else(|e| panic!("field {key}: {e}"))
}

fn str_field<'a>(j: &'a Json, key: &str) -> &'a str {
    j.field(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|e| panic!("field {key}: {e}"))
}

fn is_ok(j: &Json) -> bool {
    matches!(j.field("ok"), Ok(Json::Bool(true)))
}

fn error_kind(j: &Json) -> String {
    str_field(j.field("error").expect("error object"), "kind").to_string()
}

/// Invariant 2: a successful advisory must be billing-sane.
fn assert_billing_sane(resp: &Json, context: &str) {
    let bid = num(resp, "bid");
    assert!(bid.is_finite() && bid > 0.0, "{context}: bid {bid}");
    let acc = num(resp, "acceptance_prob");
    assert!((0.0..=1.0).contains(&acc), "{context}: acceptance {acc}");
    for key in [
        "expected_cost",
        "expected_hourly_price",
        "expected_running_hours",
        "expected_completion_hours",
    ] {
        let v = num(resp, key);
        assert!(v.is_finite() && v >= 0.0, "{context}: {key} {v}");
    }
    assert!(
        num(resp, "expected_completion_hours") >= num(resp, "expected_running_hours") - 1e-12,
        "{context}: completion < running"
    );
    let mode = str_field(resp, "mode");
    assert!(
        mode == "live" || mode == "degraded",
        "{context}: advisory in mode {mode:?}"
    );
    assert_eq!(
        resp.field("fallback_recommended").unwrap(),
        &Json::Bool(mode == "degraded"),
        "{context}: fallback flag must track degraded mode"
    );
}

fn poll_status(client: &mut Client, deadline: Duration, pred: impl Fn(&Json) -> bool) -> Json {
    let start = Instant::now();
    loop {
        let s = client.request(r#"{"op":"status"}"#);
        if pred(&s) {
            return s;
        }
        assert!(
            start.elapsed() < deadline,
            "status predicate not met within {deadline:?}: {s:?}"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

fn chaos_serve_config(feed_addr: &str, fault_seed: u64) -> ServeConfig {
    ServeConfig {
        queue_depth: 32,
        read_timeout: Duration::from_millis(80),
        write_timeout: Duration::from_millis(500),
        max_line_bytes: 4096,
        model: ModelConfig {
            window: 256,
            on_demand: Price::new(0.35),
            validation: Validation::Repair,
        },
        feed: Some(FeedConfig {
            addr: feed_addr.to_string(),
            backoff: BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(8),
                max_retries: 4,
                jitter: 0.5,
            },
            backoff_seed: fault_seed,
            read_timeout: Duration::from_millis(40),
        }),
        enable_test_ops: false,
        ..ServeConfig::default()
    }
}

/// Runs the misbehaving sessions a fault plan prescribes. Well-behaved
/// sessions in the plan are no-ops here (the test's own client plays that
/// role).
fn run_chaos_sessions(addr: std::net::SocketAddr, plan: &ServerFaultPlan) -> usize {
    let mut handles = Vec::new();
    let fired = Arc::new(AtomicUsize::new(0));
    for j in 0..plan.n_sessions() {
        let half_open = plan.half_open(j);
        let slow_loris = plan.slow_loris(j);
        let burst = plan.burst_reconnect(j);
        if !(half_open || slow_loris || burst.is_some()) {
            continue;
        }
        let fired = Arc::clone(&fired);
        handles.push(thread::spawn(move || {
            if let Some(n) = burst {
                // Connect/abandon storm.
                for _ in 0..n {
                    let _ = TcpStream::connect(addr);
                }
                fired.fetch_add(1, Ordering::Relaxed);
            }
            if half_open {
                // Partial frame, then silence: must be evicted by the
                // read deadline, not waited on forever.
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.write_all(b"{\"op\":\"pi");
                    thread::sleep(Duration::from_millis(120));
                    drop(s);
                }
                fired.fetch_add(1, Ordering::Relaxed);
            }
            if slow_loris {
                // Dribble a valid request a byte at a time. The per-read
                // deadline resets per byte, so this may either complete
                // (slowly) or get evicted — the invariant is only that
                // the server never blocks on it past its deadlines.
                if let Ok(mut s) = TcpStream::connect(addr) {
                    let _ = s.set_write_timeout(Some(Duration::from_millis(200)));
                    for b in b"{\"op\":\"ping\"}\n" {
                        if s.write_all(&[*b]).is_err() {
                            break;
                        }
                        thread::sleep(Duration::from_millis(3));
                    }
                    let _ = s.set_read_timeout(Some(Duration::from_millis(300)));
                    let mut sink = [0u8; 256];
                    let _ = s.read(&mut sink);
                }
                fired.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    let spawned = handles.len();
    for h in handles {
        h.join().expect("chaos session thread");
    }
    assert_eq!(fired.load(Ordering::Relaxed) > 0, spawned > 0);
    spawned
}

/// Invariants 1 + 2 under full chaos, 32 seeds.
#[test]
fn chaos_sweep_32_seeds() {
    let base = base_fault_seed();
    let mut total_chaos_sessions = 0usize;
    let mut total_faults = 0usize;
    for k in 0..32u64 {
        let seed = base.wrapping_add(k);
        let n_records = 160;
        let feed = records(seed, n_records);
        let plan = ServerFaultPlan::generate(seed, n_records, 10, &ServerFaultConfig::default());
        total_faults += plan.counts().iter().map(|&(_, n)| n).sum::<usize>();

        let stop = Arc::new(AtomicBool::new(false));
        let (feed_addr, feed_thread) = scripted_feed(feed, plan.clone(), Arc::clone(&stop));
        let handle = spotbid_serve::start(chaos_serve_config(&feed_addr, seed)).expect("start");
        let addr = handle.addr();

        // Wait for some data so advisories are answerable, then unleash
        // the misbehaving sessions while querying through the noise.
        let mut client = Client::connect(addr);
        poll_status(&mut client, Duration::from_secs(10), |s| {
            num(s, "records_ok") >= 8.0
        });
        total_chaos_sessions += run_chaos_sessions(addr, &plan);

        // The original connection idled past the read deadline while the
        // chaos sessions ran — eviction of an idle session is *expected*
        // behaviour, so reconnect before the query phase.
        let mut client = Client::connect(addr);

        // Interleave well-formed, malformed, and oversized traffic.
        let ctx = format!("seed {seed}");
        let r =
            client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":1.0,"tr_secs":30.0}"#);
        if is_ok(&r) {
            assert_billing_sane(&r, &ctx);
        } else {
            assert_eq!(error_kind(&r), "infeasible", "{ctx}: {r:?}");
        }
        let r = client.request(r#"{"op":"advise","strategy":"persistent","ts_hours":0.5}"#);
        if is_ok(&r) {
            assert_billing_sane(&r, &ctx);
        }
        let r = client.request(r#"{"op":"frobnicate"}"#);
        assert_eq!(error_kind(&r), "unknown_op", "{ctx}");
        let r = client.request("this is not json");
        assert_eq!(error_kind(&r), "malformed_frame", "{ctx}");
        let r = client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":-2.0}"#);
        assert_eq!(error_kind(&r), "invalid_param", "{ctx}");
        assert!(is_ok(&client.request(r#"{"op":"ping"}"#)), "{ctx}");

        // Oversized frame: typed error, then eviction (fresh connection
        // required afterwards).
        let big = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(8192));
        let r = client.request(&big);
        assert_eq!(error_kind(&r), "oversized_frame", "{ctx}");

        // Invariant 1: nothing panicked, nothing needed restarting.
        let mut client = Client::connect(addr);
        let status = poll_status(&mut client, Duration::from_secs(5), |_| true);
        assert_eq!(num(&status, "worker_panics"), 0.0, "{ctx}");
        assert_eq!(num(&status, "workers_restarted"), 0.0, "{ctx}");
        let mode = str_field(&status, "mode").to_string();
        assert!(mode == "live" || mode == "degraded", "{ctx}: mode {mode}");

        stop.store(true, Ordering::Relaxed);
        feed_thread.join().expect("feed thread");
        handle.stop();
    }
    assert!(
        total_chaos_sessions > 0 && total_faults > 0,
        "the sweep must actually exercise faults \
         ({total_chaos_sessions} chaos sessions, {total_faults} scheduled faults)"
    );
}

/// Invariant 3: with zero faults, server answers are string-identical to
/// direct library calls over the same window.
#[test]
fn zero_fault_bit_identical_to_library() {
    let n = 40;
    let feed = records(base_fault_seed(), n);
    let plan = ServerFaultPlan::generate(1, n, 0, &ServerFaultConfig::NONE);
    assert!(plan.is_clean());

    let stop = Arc::new(AtomicBool::new(false));
    let (feed_addr, feed_thread) = scripted_feed(feed.clone(), plan, Arc::clone(&stop));
    let model_cfg = ModelConfig {
        window: 256,
        on_demand: Price::new(0.35),
        validation: Validation::Repair,
    };
    let cfg = ServeConfig {
        model: model_cfg,
        // Long feed deadline: an idle-but-healthy feed must not register
        // as an outage during the test.
        feed: Some(FeedConfig {
            read_timeout: Duration::from_secs(30),
            ..FeedConfig::new(feed_addr.clone())
        }),
        ..ServeConfig::default()
    };
    let handle = spotbid_serve::start(cfg).expect("start");
    let mut client = Client::connect(handle.addr());
    poll_status(&mut client, Duration::from_secs(10), |s| {
        num(s, "records_ok") >= n as f64
    });

    // The library-side twin of the server's model path.
    let mut window = SlidingEmpirical::new(model_cfg.window).unwrap();
    for r in &feed {
        window.push(r.price).unwrap();
    }
    let emp = window.snapshot().unwrap().clone();
    let cap = Price::new(model_cfg.on_demand.as_f64().max(emp.max()));
    let lib_model = spotbid_core::price_model::EmpiricalPrices::from_empirical(emp, cap).unwrap();
    let stamp = Stamp {
        mode: AdvisoryMode::Live,
        as_of_hours: feed[n - 1].time_hours,
        stale_attempts: 0,
        window: n,
    };

    for (req, strategy, ts, tr) in [
        (
            r#"{"op":"advise","strategy":"onetime","ts_hours":1.0,"tr_secs":30.0}"#,
            Strategy::OneTime,
            1.0,
            30.0,
        ),
        (
            r#"{"op":"advise","strategy":"persistent","ts_hours":2.0,"tr_secs":45.0}"#,
            Strategy::Persistent,
            2.0,
            45.0,
        ),
    ] {
        let got = client.request_raw(req);
        let rec = model::advise(&lib_model, strategy, ts, tr).expect("library advisory");
        let mut fields = model::recommendation_fields(&rec);
        fields.insert(
            "strategy".to_string(),
            Json::Str(strategy.as_str().to_string()),
        );
        stamp.stamp(&mut fields);
        let expect = wire::ok_line("advise", fields);
        assert_eq!(got, expect, "strategy {strategy:?} diverged from library");
    }

    // MapReduce too: master and slaves from the same window. (The job
    // must be long enough for Eq. 20 to be satisfiable on this window.)
    let got = client
        .request_raw(r#"{"op":"mapred","ts_hours":4.0,"tr_secs":60.0,"to_secs":120.0,"m_max":16}"#);
    let plan = model::mapred_plan(&lib_model, 4.0, 60.0, 120.0, 16).expect("library mapred");
    let mut fields = model::mapred_fields(&plan);
    stamp.stamp(&mut fields);
    assert_eq!(got, wire::ok_line("mapred", fields), "mapred diverged");

    stop.store(true, Ordering::Relaxed);
    feed_thread.join().unwrap();
    handle.stop();
}

/// Invariant 4: feed loss beyond the backoff budget enters degraded mode;
/// a healed feed restores live mode. Uses a two-phase scripted feed.
#[test]
fn degraded_mode_entry_and_exit_within_budget() {
    let n = 30;
    let feed = records(7, n);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.set_nonblocking(true).unwrap();
    let feed_addr = listener.local_addr().unwrap().to_string();
    // Phases: 0 = serve first 10 then cut; 1 = outage (accept + close);
    // 2 = serve the rest and hold.
    let phase = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let feed_thread = {
        let phase = Arc::clone(&phase);
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            let mut cursor = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let Ok((mut sock, _)) = listener.accept() else {
                    thread::sleep(Duration::from_millis(2));
                    continue;
                };
                match phase.load(Ordering::Relaxed) {
                    0 => {
                        while cursor < 10 {
                            let mut l = wire::feed_record_line(&feed[cursor]);
                            l.push('\n');
                            let _ = sock.write_all(l.as_bytes());
                            cursor += 1;
                        }
                        drop(sock); // cut the feed
                        phase.store(1, Ordering::Relaxed);
                    }
                    1 => drop(sock), // outage: instant hangup, no records
                    _ => {
                        while cursor < n {
                            let mut l = wire::feed_record_line(&feed[cursor]);
                            l.push('\n');
                            if sock.write_all(l.as_bytes()).is_err() {
                                break;
                            }
                            cursor += 1;
                        }
                        while !stop.load(Ordering::Relaxed) {
                            thread::sleep(Duration::from_millis(2));
                        }
                    }
                }
            }
        })
    };

    let retries = 3u32;
    let cfg = ServeConfig {
        model: ModelConfig {
            window: 64,
            on_demand: Price::new(0.35),
            validation: Validation::Repair,
        },
        feed: Some(FeedConfig {
            addr: feed_addr,
            backoff: BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                max_retries: retries,
                jitter: 0.5,
            },
            backoff_seed: 7,
            read_timeout: Duration::from_millis(40),
        }),
        ..ServeConfig::default()
    };
    let handle = spotbid_serve::start(cfg).expect("start");
    let mut client = Client::connect(handle.addr());

    // Entry: once the cut happens, the budget (3 retries at ≤4 ms each)
    // is exhausted almost immediately; the generous wall deadline only
    // absorbs CI noise.
    let status = poll_status(&mut client, Duration::from_secs(10), |s| {
        str_field(s, "mode") == "degraded"
    });
    assert!(
        num(&status, "reconnects") >= f64::from(retries),
        "degraded before the budget was spent: {status:?}"
    );
    assert_eq!(num(&status, "records_ok"), 10.0);

    // Degraded advisories still answer, stamped and fallback-flagged.
    let r = client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":1.0,"tr_secs":30.0}"#);
    assert!(is_ok(&r), "degraded mode must keep answering: {r:?}");
    assert_eq!(str_field(&r, "mode"), "degraded");
    assert_eq!(r.field("fallback_recommended").unwrap(), &Json::Bool(true));
    assert_billing_sane(&r, "degraded advisory");
    assert!(num(&r, "stale_attempts") >= f64::from(retries));

    // Exit: heal the feed; the next good record restores live mode.
    phase.store(2, Ordering::Relaxed);
    let status = poll_status(&mut client, Duration::from_secs(10), |s| {
        str_field(s, "mode") == "live"
    });
    assert_eq!(num(&status, "records_ok"), n as f64);
    assert_eq!(num(&status, "stale_attempts"), 0.0);
    assert_eq!(num(&status, "degraded_entries"), 1.0, "one entry, one exit");
    let r = client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":1.0,"tr_secs":30.0}"#);
    assert_eq!(str_field(&r, "mode"), "live");
    assert_eq!(r.field("fallback_recommended").unwrap(), &Json::Bool(false));

    stop.store(true, Ordering::Relaxed);
    feed_thread.join().unwrap();
    handle.stop();
}

/// The supervisor respawns a worker killed by the test-only crash op, and
/// service continues.
#[test]
fn supervisor_restarts_crashed_worker() {
    let cfg = ServeConfig {
        enable_test_ops: true,
        read_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    };
    let handle = spotbid_serve::start(cfg).expect("start");
    {
        let mut m = handle.shared().model.lock().unwrap();
        for r in records(3, 16) {
            m.ingest(r).unwrap();
        }
    }
    let mut client = Client::connect(handle.addr());
    let r = client.request(r#"{"op":"__crash_worker"}"#);
    assert!(is_ok(&r));

    // The worker died after replying; the supervisor must respawn it and
    // new sessions must keep being served.
    let mut client = Client::connect(handle.addr());
    let status = poll_status(&mut client, Duration::from_secs(10), |s| {
        num(s, "workers_restarted") >= 1.0
    });
    assert_eq!(
        num(&status, "worker_panics"),
        0.0,
        "crash was a thread death, not a caught panic"
    );
    assert!(is_ok(&client.request(r#"{"op":"ping"}"#)));
    let r = client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":1.0}"#);
    assert!(is_ok(&r), "advisories must survive a worker restart: {r:?}");
    handle.stop();
}

/// A thread that panics while holding the model lock poisons it; the
/// server recovers the lock and keeps answering with typed replies.
#[test]
fn poisoned_model_lock_still_gets_typed_replies() {
    let handle = spotbid_serve::start(ServeConfig::default()).expect("start");
    let shared = Arc::clone(handle.shared());
    let crashed = thread::spawn(move || {
        let mut m = shared.lock_model();
        for r in records(5, 16) {
            m.ingest(r).unwrap();
        }
        panic!("poisoning the model lock");
    })
    .join();
    assert!(crashed.is_err(), "the poisoning thread must have panicked");
    assert!(handle.shared().model.is_poisoned());

    let mut client = Client::connect(handle.addr());
    let status = client.request(r#"{"op":"status"}"#);
    assert!(is_ok(&status), "status after poisoning: {status:?}");
    assert_eq!(num(&status, "window"), 16.0);
    let r = client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":1.0}"#);
    assert!(is_ok(&r), "advisory after poisoning: {r:?}");
    assert_billing_sane(&r, "poisoned lock");
    let r = client.request(r#"{"op":"advise","strategy":"onetime","ts_hours":-1.0}"#);
    assert!(!is_ok(&r), "a bad request still gets a typed error: {r:?}");
    error_kind(&r);
    assert_eq!(
        handle.shared().worker_panics.load(Ordering::Relaxed),
        0,
        "a poisoned lock must not panic a worker"
    );
    handle.stop();
}

/// Without `enable_test_ops` the crash op is just an unknown op.
#[test]
fn crash_op_is_refused_in_production_config() {
    let handle = spotbid_serve::start(ServeConfig::default()).expect("start");
    let mut client = Client::connect(handle.addr());
    let r = client.request(r#"{"op":"__crash_worker"}"#);
    assert_eq!(error_kind(&r), "unknown_op");
    assert!(is_ok(&client.request(r#"{"op":"ping"}"#)));
    handle.stop();
}

/// Slow/half-open clients are evicted at the read deadline and never
/// block a well-behaved neighbour; an overfull queue sheds load with a
/// typed reply.
#[test]
fn slow_clients_are_evicted_and_overload_is_shed() {
    let cfg = ServeConfig {
        workers: 1, // force contention through a single worker
        queue_depth: 1,
        read_timeout: Duration::from_millis(60),
        write_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    };
    let handle = spotbid_serve::start(cfg).expect("start");
    let addr = handle.addr();

    // A half-open client occupies the only worker until the deadline.
    let mut half_open = TcpStream::connect(addr).unwrap();
    half_open.write_all(b"{\"op\":\"sta").unwrap();

    // A burst while the worker is busy: with queue depth 1, some of these
    // must be shed with an overloaded reply.
    let mut burst: Vec<TcpStream> = (0..6).map(|_| TcpStream::connect(addr).unwrap()).collect();
    thread::sleep(Duration::from_millis(30));
    let shed = handle.shared().sessions_shed.load(Ordering::Relaxed);
    assert!(shed >= 1, "queue depth 1 + busy worker must shed ({shed})");
    burst.clear();

    // The half-open client gets evicted (EOF on its socket) once the read
    // deadline passes...
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut sink = [0u8; 64];
    assert_eq!(
        half_open.read(&mut sink).unwrap(),
        0,
        "server must close the half-open session"
    );
    let evictions = handle.shared().slow_evictions.load(Ordering::Relaxed);
    assert!(evictions >= 1, "eviction must be counted ({evictions})");

    // ...and a well-behaved client is served promptly afterwards.
    let mut client = Client::connect(addr);
    assert!(is_ok(&client.request(r#"{"op":"ping"}"#)));
    handle.stop();
}

/// Strict validation tears the feed connection down on the first invalid
/// record instead of trusting the stream.
#[test]
fn strict_validation_reconnects_on_invalid_record() {
    let n = 12;
    let mut feed = records(11, n);
    // The invalid record rides at the end of the stream: the scripted
    // feed writes eagerly, so anything behind a strict teardown would be
    // lost with the torn connection rather than redelivered.
    feed[n - 1].price = f64::NAN;
    let plan = ServerFaultPlan::generate(1, n, 0, &ServerFaultConfig::NONE);
    let stop = Arc::new(AtomicBool::new(false));
    let (feed_addr, feed_thread) = scripted_feed(feed, plan, Arc::clone(&stop));
    let cfg = ServeConfig {
        model: ModelConfig {
            window: 64,
            on_demand: Price::new(0.35),
            validation: Validation::Strict,
        },
        feed: Some(FeedConfig {
            backoff: BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(4),
                max_retries: 8,
                jitter: 0.0,
            },
            ..FeedConfig::new(feed_addr)
        }),
        ..ServeConfig::default()
    };
    let handle = spotbid_serve::start(cfg).expect("start");
    let mut client = Client::connect(handle.addr());
    // All 11 good records land; the invalid one is dropped AND tears the
    // connection down (strict), so a reconnect lands on the books.
    let status = poll_status(&mut client, Duration::from_secs(10), |s| {
        num(s, "records_ok") >= (n - 1) as f64
            && num(s, "records_dropped") >= 1.0
            && num(s, "reconnects") >= 1.0
    });
    assert_eq!(num(&status, "records_dropped"), 1.0);
    stop.store(true, Ordering::Relaxed);
    feed_thread.join().unwrap();
    handle.stop();
}
