//! The session path: acceptor, bounded queue, supervised worker pool, and
//! per-connection state machines.
//!
//! Thread layout:
//!
//! ```text
//! acceptor ──try_send──▶ bounded queue ──recv──▶ worker × N ──▶ sessions
//!     │ (full → shed with an "overloaded" reply)       ▲
//!     │                                                │ respawn on death
//! feed thread (optional)                          supervisor
//! ```
//!
//! Robustness rules, in order of appearance:
//!
//! - the **queue is bounded**: when all workers are busy and the queue is
//!   full, new connections get a best-effort `overloaded` error and are
//!   closed — load is shed, never buffered without bound;
//! - every session runs under **read/write deadlines**; a deadline expiry
//!   is a slow-client eviction (the slow-loris defence), counted and
//!   closed;
//! - request handling **never panics the server**: malformed frames get
//!   typed error replies, and a panic that does slip through is caught at
//!   the worker loop (`catch_unwind`), counted, and survived;
//! - if a worker thread dies anyway, the **supervisor** respawns it (the
//!   test-only `__crash_worker` op exists to prove this path).

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use spotbid_json::Json;

use crate::feed::{run_feed, FeedConfig};
use crate::io_util::read_line_bounded;
use crate::model::{self, ModelConfig, ModelState};
use crate::wire::{self, ErrorKind, Request};

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` binds an ephemeral port).
    pub addr: String,
    /// Worker threads handling sessions.
    pub workers: usize,
    /// Bounded session-queue depth; connections beyond it are shed.
    pub queue_depth: usize,
    /// Per-read deadline on sessions; expiry evicts the client.
    pub read_timeout: Duration,
    /// Per-write deadline on sessions; expiry evicts the client.
    pub write_timeout: Duration,
    /// Largest request line accepted before an `oversized_frame` eviction.
    pub max_line_bytes: usize,
    /// Model-path configuration.
    pub model: ModelConfig,
    /// Upstream feed; `None` runs without a feed thread (tests push
    /// records into the model via [`ServerHandle::shared`]).
    pub feed: Option<FeedConfig>,
    /// Enables the test-only `__crash_worker` op. Never set in production.
    pub enable_test_ops: bool,
}

impl Default for ServeConfig {
    /// Two workers (overridable via `SPOTBID_SERVE_WORKERS`, the same
    /// convention as `SPOTBID_THREADS`), a 64-deep queue, 2 s deadlines.
    fn default() -> Self {
        let workers = std::env::var("SPOTBID_SERVE_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(2);
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth: 64,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
            max_line_bytes: 64 * 1024,
            model: ModelConfig::default(),
            feed: None,
            enable_test_ops: false,
        }
    }
}

/// State shared by every thread in the server.
#[derive(Debug)]
pub struct Shared {
    /// The model path (window + feed health), behind one mutex.
    pub model: Mutex<ModelState>,
    /// Set once at shutdown; every loop polls it.
    pub shutdown: AtomicBool,
    /// Sessions accepted into the queue.
    pub sessions_accepted: AtomicU64,
    /// Connections shed because the queue was full.
    pub sessions_shed: AtomicU64,
    /// Sessions evicted for blowing a read/write deadline.
    pub slow_evictions: AtomicU64,
    /// Malformed / unknown / invalid requests answered with typed errors.
    pub request_errors: AtomicU64,
    /// Panics caught at the worker loop (each one is a bug, but a survived
    /// one).
    pub worker_panics: AtomicU64,
    /// Worker threads respawned by the supervisor.
    pub workers_restarted: AtomicU64,
}

impl Shared {
    fn new(model_cfg: ModelConfig) -> Self {
        Shared {
            model: Mutex::new(ModelState::new(model_cfg)),
            shutdown: AtomicBool::new(false),
            sessions_accepted: AtomicU64::new(0),
            sessions_shed: AtomicU64::new(0),
            slow_evictions: AtomicU64::new(0),
            request_errors: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            workers_restarted: AtomicU64::new(0),
        }
    }

    /// Locks the model path, recovering from poisoning: a thread that
    /// panicked while holding the lock must not turn every later request
    /// into a panic. `ModelState`'s mutators take their one fallible step
    /// (the window push, the model build) before touching any other
    /// field, so a recovered state is one a live thread could have left.
    pub fn lock_model(&self) -> MutexGuard<'_, ModelState> {
        self.model.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running server. Dropping the handle without calling
/// [`stop`](Self::stop) leaks the threads; call `stop` for an orderly
/// teardown.
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    feed: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (with the real port when `:0` was asked).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The shared state — tests use this to push records directly and to
    /// read counters without a status round-trip.
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// Orderly shutdown: flags every loop, unblocks the acceptor, joins
    /// all threads.
    pub fn stop(mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        // accept() has no deadline; a throwaway connection unblocks it.
        let _ = TcpStream::connect(self.addr);
        for h in [
            self.acceptor.take(),
            self.supervisor.take(),
            self.feed.take(),
        ]
        .into_iter()
        .flatten()
        {
            let _ = h.join();
        }
    }
}

/// Starts the server: binds, spawns acceptor + supervisor (+ feed), and
/// returns immediately.
///
/// # Errors
///
/// Binding failures, or an invalid feed backoff config.
pub fn start(cfg: ServeConfig) -> io::Result<ServerHandle> {
    if let Some(feed) = &cfg.feed {
        feed.backoff
            .validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    }
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared::new(cfg.model));
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(cfg.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let acceptor = {
        let shared = Arc::clone(&shared);
        let write_timeout = cfg.write_timeout;
        std::thread::spawn(move || run_acceptor(&listener, &tx, &shared, write_timeout))
    };

    let supervisor = {
        let shared = Arc::clone(&shared);
        let cfg = cfg.clone();
        let rx = Arc::clone(&rx);
        std::thread::spawn(move || run_supervisor(&cfg, &rx, &shared))
    };

    let feed = cfg.feed.clone().map(|feed_cfg| {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || run_feed(&feed_cfg, &shared))
    });

    Ok(ServerHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        supervisor: Some(supervisor),
        feed,
    })
}

fn run_acceptor(
    listener: &TcpListener,
    tx: &SyncSender<TcpStream>,
    shared: &Shared,
    write_timeout: Duration,
) {
    loop {
        let Ok((sock, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Relaxed) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match tx.try_send(sock) {
            Ok(()) => {
                shared.sessions_accepted.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(mut sock)) => {
                // Shed load with a typed reply; never block the acceptor.
                shared.sessions_shed.fetch_add(1, Ordering::Relaxed);
                let _ = sock.set_write_timeout(Some(write_timeout));
                let mut line =
                    wire::error_line(ErrorKind::Overloaded, "session queue full, retry later");
                line.push('\n');
                let _ = sock.write_all(line.as_bytes());
            }
            Err(TrySendError::Disconnected(_)) => return,
        }
    }
}

/// Spawns the worker pool and respawns any worker whose thread has died.
/// Workers only die by panicking outside the per-session `catch_unwind`
/// (deliberately reachable via the test-only crash op).
fn run_supervisor(cfg: &ServeConfig, rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    let spawn_worker = |id: usize| {
        let cfg = cfg.clone();
        let rx = Arc::clone(rx);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("serve-worker-{id}"))
            .spawn(move || run_worker(&cfg, &rx, &shared))
            .expect("spawn worker thread")
    };
    let mut workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1)).map(spawn_worker).collect();
    while !shared.shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(Duration::from_millis(20));
        for (id, slot) in workers.iter_mut().enumerate() {
            if slot.is_finished() {
                let dead = std::mem::replace(slot, spawn_worker(id));
                let _ = dead.join(); // collect the panic payload
                shared.workers_restarted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
    for h in workers {
        let _ = h.join();
    }
}

fn run_worker(cfg: &ServeConfig, rx: &Arc<Mutex<Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let sock = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv_timeout(Duration::from_millis(50))
        };
        match sock {
            Ok(sock) => {
                let crash = catch_unwind(AssertUnwindSafe(|| handle_session(sock, cfg, shared)));
                match crash {
                    Ok(true) => {
                        // Test-only: die *outside* the catch so the
                        // supervisor's respawn path is actually exercised.
                        panic!("worker crash requested by __crash_worker test op");
                    }
                    Ok(false) => {}
                    Err(_) => {
                        shared.worker_panics.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Runs one session to completion. Returns `true` iff the worker should
/// crash afterwards (test op).
fn handle_session(sock: TcpStream, cfg: &ServeConfig, shared: &Shared) -> bool {
    let _ = sock.set_read_timeout(Some(cfg.read_timeout));
    let _ = sock.set_write_timeout(Some(cfg.write_timeout));
    let _ = sock.set_nodelay(true);
    let Ok(mut writer) = sock.try_clone() else {
        return false;
    };
    let mut reader = BufReader::new(sock);
    let mut buf = Vec::with_capacity(256);
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        buf.clear();
        match read_line_bounded(&mut reader, &mut buf, cfg.max_line_bytes) {
            Ok(0) => return false, // client closed
            Ok(_) => {}
            Err(e) if e.is_timeout() => {
                // Slow client (or half-open socket): evict.
                shared.slow_evictions.fetch_add(1, Ordering::Relaxed);
                return false;
            }
            Err(crate::io_util::ReadLineError::Oversized) => {
                shared.request_errors.fetch_add(1, Ordering::Relaxed);
                let mut line = wire::error_line(
                    ErrorKind::OversizedFrame,
                    &format!("request line exceeds {} bytes", cfg.max_line_bytes),
                );
                line.push('\n');
                let _ = writer.write_all(line.as_bytes());
                return false; // framing is lost; evict
            }
            Err(_) => return false, // hard connection error
        }
        let text = String::from_utf8_lossy(&buf);
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        let (reply, crash) = dispatch(line, cfg, shared);
        let mut reply = reply;
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() || writer.flush().is_err() {
            // Write deadline blown or connection gone: evict.
            shared.slow_evictions.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        if crash {
            return true;
        }
    }
}

/// Parses and executes one request line; returns the reply line (no
/// newline) and the crash-worker flag.
fn dispatch(line: &str, cfg: &ServeConfig, shared: &Shared) -> (String, bool) {
    let req = match wire::parse_request(line) {
        Ok(r) => r,
        Err(e) => {
            shared.request_errors.fetch_add(1, Ordering::Relaxed);
            return (wire::error_line(e.kind, &e.detail), false);
        }
    };
    match req {
        Request::Ping => (wire::ok_line("ping", BTreeMap::new()), false),
        Request::Status => (status_line(cfg, shared), false),
        Request::Advise {
            strategy,
            ts_hours,
            tr_secs,
        } => {
            let snapshot = shared.lock_model().advisory_model();
            let (model, stamp) = match snapshot {
                Ok(x) => x,
                Err(e) => {
                    shared.request_errors.fetch_add(1, Ordering::Relaxed);
                    return (wire::error_line(e.kind, &e.detail), false);
                }
            };
            // Advisory math runs outside the model lock.
            match model::advise(&model, strategy, ts_hours, tr_secs) {
                Ok(rec) => {
                    let mut fields = model::recommendation_fields(&rec);
                    fields.insert(
                        "strategy".to_string(),
                        Json::Str(strategy.as_str().to_string()),
                    );
                    stamp.stamp(&mut fields);
                    (wire::ok_line("advise", fields), false)
                }
                Err(e) => {
                    shared.request_errors.fetch_add(1, Ordering::Relaxed);
                    let w = model::core_error(&e);
                    (wire::error_line(w.kind, &w.detail), false)
                }
            }
        }
        Request::MapRed {
            ts_hours,
            tr_secs,
            to_secs,
            m_max,
        } => {
            let snapshot = shared.lock_model().advisory_model();
            let (model, stamp) = match snapshot {
                Ok(x) => x,
                Err(e) => {
                    shared.request_errors.fetch_add(1, Ordering::Relaxed);
                    return (wire::error_line(e.kind, &e.detail), false);
                }
            };
            match model::mapred_plan(&model, ts_hours, tr_secs, to_secs, m_max) {
                Ok(plan) => {
                    let mut fields = model::mapred_fields(&plan);
                    stamp.stamp(&mut fields);
                    (wire::ok_line("mapred", fields), false)
                }
                Err(e) => {
                    shared.request_errors.fetch_add(1, Ordering::Relaxed);
                    let w = model::core_error(&e);
                    (wire::error_line(w.kind, &w.detail), false)
                }
            }
        }
        Request::CrashWorker => {
            if cfg.enable_test_ops {
                (wire::ok_line("__crash_worker", BTreeMap::new()), true)
            } else {
                shared.request_errors.fetch_add(1, Ordering::Relaxed);
                (
                    wire::error_line(ErrorKind::UnknownOp, "unknown op \"__crash_worker\""),
                    false,
                )
            }
        }
    }
}

fn status_line(cfg: &ServeConfig, shared: &Shared) -> String {
    let (mode, window, as_of, stale, stats) = {
        let m = shared.lock_model();
        (
            m.mode(),
            m.window_len(),
            m.as_of_hours(),
            m.stale_attempts(),
            m.stats,
        )
    };
    let n = |v: u64| Json::Num(v as f64);
    let mut f = BTreeMap::new();
    f.insert("mode".to_string(), Json::Str(mode.as_str().to_string()));
    f.insert("window".to_string(), Json::Num(window as f64));
    f.insert(
        "as_of_hours".to_string(),
        as_of.map_or(Json::Null, Json::Num),
    );
    f.insert("stale_attempts".to_string(), Json::Num(f64::from(stale)));
    f.insert("records_ok".to_string(), n(stats.records_ok));
    f.insert("records_dropped".to_string(), n(stats.records_dropped));
    f.insert("corrupt_frames".to_string(), n(stats.corrupt_frames));
    f.insert("reconnects".to_string(), n(stats.reconnects));
    f.insert("degraded_entries".to_string(), n(stats.degraded_entries));
    f.insert("workers".to_string(), Json::Num(cfg.workers as f64));
    let a = |c: &AtomicU64| n(c.load(Ordering::Relaxed));
    f.insert(
        "sessions_accepted".to_string(),
        a(&shared.sessions_accepted),
    );
    f.insert("sessions_shed".to_string(), a(&shared.sessions_shed));
    f.insert("slow_evictions".to_string(), a(&shared.slow_evictions));
    f.insert("request_errors".to_string(), a(&shared.request_errors));
    f.insert("worker_panics".to_string(), a(&shared.worker_panics));
    f.insert(
        "workers_restarted".to_string(),
        a(&shared.workers_restarted),
    );
    wire::ok_line("status", f)
}
