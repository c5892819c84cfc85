//! # spotbid-exec
//!
//! Deterministic parallel Monte Carlo executor for the `spotbid`
//! workspace.
//!
//! The paper repeats every EC2 experiment ten times (§7); the reproduction
//! repeats every simulated experiment over ten seeds, and the sweep-scale
//! extensions (portfolio contracts, feedback-control bidding) need orders
//! of magnitude more trials. This crate gives every such loop one
//! primitive, [`par_trials`], with a hard guarantee:
//!
//! > **The result is a pure function of `(seed, n)` — bit-for-bit
//! > identical no matter how many threads run it.**
//!
//! Two ingredients make that true:
//!
//! 1. **Decorrelated substreams** — trial `i` draws from
//!    [`RngStreams::stream(i)`](spotbid_numerics::rng::RngStreams), the
//!    master generator advanced by `i` xoshiro256++ jumps of `2^128`
//!    outputs. The variates a trial sees depend only on `(seed, i)`, never
//!    on scheduling.
//! 2. **Order-stable collection** — workers pull trial indices from a
//!    shared atomic counter (self-scheduling, the classic work-stealing
//!    discipline for uneven trial costs) but every result is placed back
//!    into slot `i`, so the output `Vec` is always in trial order.
//!
//! ## Thread-count contract
//!
//! The worker count is, in priority order: a [`with_threads`] override in
//! scope, the `SPOTBID_THREADS` environment variable, then the machine's
//! available parallelism. `SPOTBID_THREADS=1` runs every trial inline on
//! the calling thread and must — and does, by construction — reproduce the
//! parallel result exactly.
//!
//! ## Example
//!
//! ```
//! use spotbid_exec::{par_trials, with_threads};
//!
//! // Mean of one uniform draw per trial, over 64 decorrelated streams.
//! let xs = par_trials(42, 64, |_i, rng| rng.next_f64());
//! let serial = with_threads(1, || par_trials(42, 64, |_i, rng| rng.next_f64()));
//! assert_eq!(xs, serial); // bit-for-bit, not approximately
//! ```

#![warn(missing_docs)]

use spotbid_numerics::rng::{Rng, RngStreams};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Renders a caught panic payload for re-reporting. Panics carry `&str` or
/// `String` payloads in practice; anything else is reported opaquely.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Process-wide thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Serializes [`with_threads`] scopes so concurrent tests can't clobber
/// each other's override. Held only by the outermost scope on a thread
/// (see `OVERRIDE_DEPTH`), so nesting can't self-deadlock.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    /// How many [`with_threads`] scopes are live on this thread.
    static OVERRIDE_DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// The number of worker threads the executor will use right now.
///
/// Priority: an active [`with_threads`] override, then `SPOTBID_THREADS`
/// (positive integers only; anything else is ignored), then
/// [`std::thread::available_parallelism`].
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::Acquire);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("SPOTBID_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with the executor pinned to exactly `threads` workers,
/// overriding `SPOTBID_THREADS` and the detected parallelism.
///
/// The override is process-wide (nested [`par_trials`] calls on worker
/// threads see it too) and scopes are serialized by an internal lock, so
/// determinism tests comparing a 1-thread and an N-thread run can't race.
/// Since the executor's output never depends on the thread count, the
/// override only changes *how* work runs, not *what* it produces.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads > 0, "with_threads(0)");
    // Only the outermost scope on this thread takes the cross-thread lock;
    // nested scopes just swap the override (re-locking would self-deadlock
    // on the non-reentrant mutex).
    let outermost = OVERRIDE_DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth == 0
    });
    let _guard = outermost.then(|| OVERRIDE_LOCK.lock().unwrap_or_else(PoisonError::into_inner));
    let prev = THREAD_OVERRIDE.swap(threads, Ordering::AcqRel);
    // Restore on unwind as well, so a panicking closure (e.g. a failing
    // assertion inside a determinism test) doesn't leak the override.
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.store(self.0, Ordering::Release);
            OVERRIDE_DEPTH.with(|d| d.set(d.get() - 1));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Applies `f` to every index in `0..n` in parallel, returning results in
/// index order.
///
/// Workers self-schedule off an atomic counter, so uneven per-index costs
/// balance automatically; the output position of each result is its index,
/// so the returned `Vec` is identical regardless of thread count. `f` must
/// be deterministic in its index for the executor's reproducibility
/// guarantee to extend to the caller.
///
/// # Panics
///
/// A panic inside `f` is contained per index: workers are not torn down
/// mid-flight, remaining scheduling stops, and the executor re-panics on
/// the calling thread with the **lowest** panicking index and its message
/// (`"trial {i} panicked: …"`). The reported index is thread-count
/// invariant — the counter hands indices out in order, so every index
/// below the first observed panic has already been scheduled and any
/// lower-index panic among them is always collected before reporting.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_threads(thread_count(), n, f)
}

/// As [`par_map`], with an explicit worker count.
fn par_map_threads<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_scratch_threads(threads, n, || (), |i, ()| f(i))
}

/// As [`par_map`] on `threads` workers, with a per-worker scratch value
/// created by `init` and threaded through every call that worker executes.
///
/// The scratch exists to let hot trial loops reuse allocations (price
/// buffers, trace vectors) instead of reallocating per index — it is an
/// **allocation cache, not a state channel**. The executor's determinism
/// guarantee only extends to callers whose `f(i, scratch)` output is
/// independent of whatever a previous call left in `scratch`; overwrite it
/// fully before reading.
fn par_map_scratch_threads<T, S, I, F>(threads: usize, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        let mut scratch = init();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            match catch_unwind(AssertUnwindSafe(|| f(i, &mut scratch))) {
                Ok(v) => out.push(v),
                Err(p) => panic!("trial {i} panicked: {}", panic_message(&*p)),
            }
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let (init, f, next, abort) = (&init, &f, &next, &abort);
    type WorkerOut<T> = (Vec<(usize, T)>, Vec<(usize, String)>);
    let per_worker: Vec<WorkerOut<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut scratch = init();
                    let mut out = Vec::new();
                    let mut panics = Vec::new();
                    loop {
                        // Stop pulling fresh work once any trial panicked;
                        // trials already pulled still run to completion so
                        // the lowest panicking index is always observed.
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i, &mut scratch))) {
                            Ok(v) => out.push((i, v)),
                            Err(p) => {
                                panics.push((i, panic_message(&*p)));
                                abort.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    (out, panics)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("executor worker died outside a trial"))
            .collect()
    });
    let mut panics: Vec<(usize, String)> = Vec::new();
    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (out, bad) in per_worker {
        for (i, v) in out {
            slots[i] = Some(v);
        }
        panics.extend(bad);
    }
    if let Some((i, msg)) = panics.into_iter().min_by_key(|(i, _)| *i) {
        panic!("trial {i} panicked: {msg}");
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index scheduled exactly once"))
        .collect()
}

/// Runs `n` Monte Carlo trials in parallel, each on its own decorrelated
/// substream of `seed`, returning results in trial order.
///
/// Trial `i` receives index `i` and a generator positioned at
/// `RngStreams::new(seed).stream(i)`. The output is bit-for-bit identical
/// for any thread count, including `SPOTBID_THREADS=1`.
pub fn par_trials<T, F>(seed: u64, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Rng) -> T + Sync,
{
    par_trials_threads(thread_count(), seed, n, f)
}

/// As [`par_trials`], with an explicit worker count.
fn par_trials_threads<T, F>(threads: usize, seed: u64, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Rng) -> T + Sync,
{
    // The jump chain is sequential (stream i+1 = stream i jumped), so walk
    // it once up front rather than per worker.
    let streams = RngStreams::new(seed).streams(n);
    let streams = &streams;
    par_map_threads(threads, n, move |i| {
        let mut rng = streams[i].clone();
        f(i, &mut rng)
    })
}

/// As [`par_trials`], with a per-worker scratch value created by `init`.
///
/// This is the allocation-hoisting variant for replay loops that build a
/// large buffer (e.g. a two-month price trace) per trial: each worker
/// creates one scratch with `init` and reuses it across every trial it
/// executes. The scratch is an allocation cache, not a state channel —
/// `f` must fully overwrite the scratch before reading it, so its output
/// stays a pure function of `(seed, i)`.
pub fn par_trials_scratch<T, S, I, F>(seed: u64, n: usize, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut Rng, &mut S) -> T + Sync,
{
    par_trials_scratch_threads(thread_count(), seed, n, init, f)
}

/// As [`par_trials_scratch`], with an explicit worker count.
fn par_trials_scratch_threads<T, S, I, F>(
    threads: usize,
    seed: u64,
    n: usize,
    init: I,
    f: F,
) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut Rng, &mut S) -> T + Sync,
{
    let streams = RngStreams::new(seed).streams(n);
    let streams = &streams;
    par_map_scratch_threads(threads, n, init, move |i, scratch| {
        let mut rng = streams[i].clone();
        f(i, &mut rng, scratch)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_index_order() {
        for threads in [1, 2, 3, 8] {
            let out = par_map_threads(threads, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert!(par_map_threads(4, 0, |i| i).is_empty());
        assert_eq!(par_map_threads(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn par_trials_is_thread_count_invariant() {
        // Uneven per-trial cost exercises the work-stealing path: trial i
        // draws i variates before reporting, so late trials are much
        // heavier than early ones.
        let run = |threads| {
            par_trials_threads(threads, 0xC10D, 64, |i, rng| {
                let mut acc = 0u64;
                for _ in 0..i {
                    acc = acc.wrapping_add(rng.next_u64());
                }
                (i, acc, rng.next_f64())
            })
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_trials_depends_on_seed() {
        let a = par_trials_threads(2, 1, 16, |_, rng| rng.next_u64());
        let b = par_trials_threads(2, 2, 16, |_, rng| rng.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn trial_streams_match_rng_streams() {
        let out = par_trials_threads(3, 9, 8, |_, rng| rng.next_u64());
        let fam = RngStreams::new(9);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, fam.stream(i as u64).next_u64(), "trial {i}");
        }
    }

    // The override is process-global, so these tests read `thread_count()`
    // only inside an outer `with_threads` scope: its lock keeps every
    // concurrent test's scope out while `before`/after are compared.

    #[test]
    fn with_threads_pins_and_restores() {
        with_threads(4, || {
            let before = thread_count();
            assert_eq!(before, 4);
            let inside = with_threads(3, thread_count);
            assert_eq!(inside, 3);
            assert_eq!(thread_count(), before);
            // Nested scopes: innermost wins, outer restored afterwards.
            let (outer, inner) =
                with_threads(2, || (thread_count(), with_threads(5, thread_count)));
            assert_eq!((outer, inner), (2, 5));
            assert_eq!(thread_count(), before);
        });
    }

    #[test]
    fn with_threads_restores_on_panic() {
        with_threads(4, || {
            let before = thread_count();
            let r = std::panic::catch_unwind(|| with_threads(7, || panic!("boom")));
            assert!(r.is_err());
            assert_eq!(thread_count(), before);
        });
    }

    #[test]
    #[should_panic(expected = "trial 3 panicked: boom at 3")]
    fn serial_panic_reports_trial_index() {
        par_map_threads(1, 8, |i| {
            if i == 3 {
                panic!("boom at {i}");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "trial 3 panicked: boom at 3")]
    fn parallel_panic_reports_trial_index() {
        par_map_threads(4, 8, |i| {
            if i == 3 {
                panic!("boom at {i}");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "trial 5 panicked")]
    fn lowest_panicking_index_wins() {
        // Indices 5.. all panic; whichever worker trips first, the report
        // must name trial 5 — the reported index is thread-count invariant.
        par_map_threads(4, 64, |i| {
            if i >= 5 {
                panic!("late boom {i}");
            }
            i
        });
    }

    #[test]
    fn panic_containment_in_par_trials() {
        // The trial index survives through the RNG-wrapping layer too.
        let caught = std::panic::catch_unwind(|| {
            par_trials_threads(4, 7, 32, |i, _rng| {
                assert!(i != 9, "chaos trial");
                i
            })
        });
        let msg = panic_message(&*caught.unwrap_err());
        assert!(msg.contains("trial 9 panicked"), "{msg}");
    }

    #[test]
    fn with_threads_drives_par_trials() {
        let a = with_threads(1, || par_trials(5, 32, |_, rng| rng.next_u64()));
        let b = with_threads(6, || par_trials(5, 32, |_, rng| rng.next_u64()));
        assert_eq!(a, b);
    }

    #[test]
    fn scratch_reuses_buffers_and_stays_deterministic() {
        // Each trial fills the scratch buffer from its substream and reports
        // a digest; the result must be thread-count invariant even though
        // workers reuse (and carry dirty contents between) buffers.
        let run = |threads| {
            par_trials_scratch_threads(
                threads,
                0x5C4A,
                48,
                Vec::new,
                |i, rng, buf: &mut Vec<u64>| {
                    buf.clear();
                    for _ in 0..(i % 7) + 1 {
                        buf.push(rng.next_u64());
                    }
                    buf.iter()
                        .fold(0u64, |a, &x| a.wrapping_mul(31).wrapping_add(x))
                },
            )
        };
        let serial = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), serial, "threads = {threads}");
        }
        // And the scratch path agrees with the plain path when the closure
        // ignores the scratch entirely.
        let plain = par_trials_threads(3, 0x5C4A, 48, |_i, rng| rng.next_u64());
        let scratched =
            par_trials_scratch_threads(3, 0x5C4A, 48, || (), |_i, rng, ()| rng.next_u64());
        assert_eq!(plain, scratched);
    }

    #[test]
    #[should_panic(expected = "trial 2 panicked")]
    fn scratch_panic_reports_trial_index() {
        par_map_scratch_threads(
            4,
            8,
            || 0u32,
            |i, s| {
                *s += 1;
                assert!(i != 2, "scratch boom");
                i
            },
        );
    }
}
