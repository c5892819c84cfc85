//! The feed path: a reconnecting client that streams price records into
//! the model.
//!
//! The `FeedClient` owns exactly one upstream connection at a time and
//! survives every way a feed can die:
//!
//! - **Connection loss / refusal** → reconnect through the seeded
//!   [`Backoff`] schedule. Exhausting the schedule flips the model into
//!   degraded advisory mode; retries continue at the capped delay, and the
//!   next good record restores live mode and resets the ramp.
//! - **Half-open connection** (peer vanished without FIN) → the per-read
//!   timeout expires and the client treats it as an outage.
//! - **Corrupt frames** → tallied; under [`Validation::Repair`] the stream
//!   continues, under [`Validation::Strict`] the connection is considered
//!   poisoned and re-handshaken.
//! - **Invalid records** (NaN price, time regression, …) → classified via
//!   the `trace::ingest` taxonomy and dropped; strict mode reconnects.
//!
//! The backoff schedule is the *same implementation* the client runtime's
//! `RecoveryPolicy` derives its feed-outage budget from
//! (`spotbid_numerics::backoff`): one scheduled reconnect attempt there is
//! one tolerated outage slot here.

use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use spotbid_numerics::backoff::{Backoff, BackoffConfig};

use crate::io_util::{read_line_bounded, sleep_checked};
use crate::model::Validation;
use crate::server::Shared;
use crate::wire;

/// Feed lines are tiny (`{"t":…,"p":…}`); anything past this is framing
/// garbage and forces a reconnect to re-synchronize.
const MAX_FEED_LINE: usize = 4096;

/// Feed-path configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedConfig {
    /// Upstream `host:port` serving feed-record lines.
    pub addr: String,
    /// Reconnect schedule; its `max_retries` is the degraded-mode budget.
    pub backoff: BackoffConfig,
    /// Seed for the schedule's jitter (deterministic per seed).
    pub backoff_seed: u64,
    /// Per-read deadline; expiry is treated as an outage (half-open feed).
    pub read_timeout: Duration,
}

impl FeedConfig {
    /// A feed at `addr` with the workspace-default backoff and a 2 s read
    /// deadline.
    pub fn new(addr: impl Into<String>) -> Self {
        FeedConfig {
            addr: addr.into(),
            backoff: BackoffConfig::default(),
            backoff_seed: 0xFEED,
            read_timeout: Duration::from_secs(2),
        }
    }
}

/// Runs the feed loop until shutdown. One thread per server.
pub(crate) fn run_feed(cfg: &FeedConfig, shared: &Shared) {
    let mut backoff =
        Backoff::new(cfg.backoff, cfg.backoff_seed).expect("config validated at server start");
    while !shared.shutdown.load(Ordering::Relaxed) {
        if let Ok(stream) = TcpStream::connect(&cfg.addr) {
            let _ = stream.set_read_timeout(Some(cfg.read_timeout));
            let _ = stream.set_nodelay(true);
            stream_records(stream, shared, &mut backoff);
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            break;
        }
        // Outage path: the connection failed, died, or was poisoned.
        shared.lock_model().note_reconnect();
        match backoff.next_delay() {
            Some(d) => sleep_checked(d, &shared.shutdown),
            None => {
                // Budget exhausted: degrade, keep retrying at the capped
                // delay. The ramp restarts so a recovered feed is
                // re-approached gently, and the next good record clears
                // the degraded flag.
                shared.lock_model().mark_degraded();
                backoff.reset();
                sleep_checked(cfg.backoff.cap, &shared.shutdown);
            }
        }
    }
}

/// Pumps records off one connection until it dies, is poisoned, or
/// shutdown is requested.
fn stream_records(stream: TcpStream, shared: &Shared, backoff: &mut Backoff) {
    let strict = {
        let m = shared.lock_model();
        m.validation() == Validation::Strict
    };
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::with_capacity(128);
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        buf.clear();
        match read_line_bounded(&mut reader, &mut buf, MAX_FEED_LINE) {
            Ok(0) => return, // EOF: upstream closed
            Ok(_) => {}
            Err(e) => {
                // Read deadline (half-open feed) or hard error — either
                // way this connection is dead. An oversized line also
                // lands here: reconnecting is how framing re-synchronizes.
                if !e.is_timeout() {
                    shared.lock_model().note_corrupt_frame();
                }
                return;
            }
        }
        let text = String::from_utf8_lossy(&buf);
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        match wire::parse_feed_record(line) {
            Ok(rec) => {
                let mut m = shared.lock_model();
                match m.ingest(rec) {
                    Ok(()) => backoff.reset(), // good record: full health
                    Err(_fault) => {
                        // Tallied inside ingest; strict mode additionally
                        // refuses to keep trusting this connection.
                        if strict {
                            return;
                        }
                    }
                }
            }
            Err(_) => {
                shared.lock_model().note_corrupt_frame();
                if strict {
                    return;
                }
            }
        }
    }
}
