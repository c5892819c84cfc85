//! Statistical wall-clock benchmark harness.
//!
//! The container this workspace builds in has no access to external
//! crates, so `benchsuite` uses this dependency-free substitute for a
//! benchmarking framework. Beyond the original eyeball-grade
//! min/median/mean printout, the harness now supports named benchmark
//! groups, batched sampling for nanosecond-scale kernels, outlier
//! trimming, robust statistics (median / p95 / MAD), throughput, and
//! machine-readable reports serialized through `spotbid-json`:
//!
//! ```text
//! [{"bench": "price_model/cdf/10k", "median_ns": 24.1, "p95_ns": 26.0,
//!   "mad_ns": 0.4, "iters": 4100000, "threads": 8, "git_rev": "613220c"}, …]
//! ```
//!
//! The committed `BENCH_baseline.json` at the repo root holds the reference
//! trajectory; `benchsuite` emits per-run `BENCH_<rev>.json` files and
//! `benchdiff` compares two reports against a regression threshold (see
//! `crate::regress`). The measurement budget per benchmark is tunable via
//! `SPOTBID_BENCH_BUDGET_MS` (default 500) so CI can run a quick pass.
//!
//! ## Sampling policy
//!
//! Each benchmark warms up for one fifth of the budget (at least one call),
//! calibrates a batch size so one timed sample spans ≳10 µs (`Instant`
//! overhead would otherwise dominate nanosecond kernels), then records
//! batched samples until the budget or the sample cap is reached — always
//! at least one, so a tiny budget degrades to a single measurement instead
//! of a panic. Samples more than 10 MADs above the raw median are trimmed
//! as outliers (scheduler preemptions, page faults) before the reported
//! statistics are computed; when every deviation is zero (MAD = 0) nothing
//! is trimmed.

use spotbid_json::{Json, JsonError, ToJson};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Default target wall-clock budget for the measurement phase of one
/// benchmark; override with `SPOTBID_BENCH_BUDGET_MS`.
const DEFAULT_MEASURE_BUDGET: Duration = Duration::from_millis(500);
/// Upper bound on recorded samples, to keep memory bounded for very fast
/// routines.
const MAX_SAMPLES: usize = 10_000;
/// Target duration of one batched sample: long enough that `Instant::now`
/// overhead (~20 ns) is noise, short enough to get many samples per budget.
const TARGET_SAMPLE_NS: f64 = 10_000.0;
/// Samples above `median + OUTLIER_MADS * MAD` are discarded.
const OUTLIER_MADS: f64 = 10.0;

pub(crate) fn fmt_duration(d: Duration) -> String {
    fmt_ns(d.as_nanos() as f64)
}

/// Renders a nanosecond count at a human scale.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.3} s", ns / 1e9)
    }
}

/// The short git revision of the working tree, for tagging reports,
/// with `-dirty` appended when tracked files differ from `HEAD` (the
/// measured tree is then not the commit named).
///
/// `SPOTBID_GIT_REV` overrides; otherwise `git rev-parse --short HEAD` and
/// `git diff --quiet HEAD` are consulted, falling back to `"unknown"`
/// outside a repository.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("SPOTBID_GIT_REV") {
        let rev = rev.trim().to_owned();
        if !rev.is_empty() {
            return rev;
        }
    }
    let rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    // `git diff --quiet` exits 1 exactly when there are differences.
    let dirty = || {
        std::process::Command::new("git")
            .args(["diff", "--quiet", "HEAD", "--"])
            .status()
            .is_ok_and(|s| s.code() == Some(1))
    };
    rev_stamp(rev.as_deref(), dirty)
}

/// A revision stamp: the trimmed `rev`, suffixed `-dirty` when `dirty()`
/// holds, or `"unknown"` when there is no revision.
fn rev_stamp(rev: Option<&str>, dirty: impl FnOnce() -> bool) -> String {
    match rev.map(str::trim).filter(|r| !r.is_empty()) {
        Some(r) if dirty() => format!("{r}-dirty"),
        Some(r) => r.to_owned(),
        None => "unknown".to_owned(),
    }
}

/// The compiler version string, for tagging reports (medians are only
/// comparable across runs built by the same rustc).
///
/// `SPOTBID_RUSTC` overrides; otherwise `rustc --version` is consulted,
/// falling back to `"unknown"` when no toolchain is on the path.
pub fn rustc_version() -> String {
    if let Ok(v) = std::env::var("SPOTBID_RUSTC") {
        let v = v.trim().to_owned();
        if !v.is_empty() {
            return v;
        }
    }
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Logical CPUs of the machine the run was taken on (0 when the platform
/// cannot report it). Recorded next to `threads` so cross-machine
/// `BENCH_*.json` trajectories can be normalized.
pub fn logical_cpus() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Nearest-rank percentile of an ascending-sorted slice (`q` in `[0, 1]`).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let k = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[k - 1]
}

/// Robust summary of one benchmark's per-iteration samples.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Median per-iteration time after outlier trimming.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time after trimming.
    pub p95_ns: f64,
    /// Median absolute deviation after trimming.
    pub mad_ns: f64,
    /// Mean per-iteration time after trimming.
    pub mean_ns: f64,
    /// Total routine invocations measured (samples × batch size).
    pub iters: u64,
    /// Recorded samples kept after trimming.
    pub samples: usize,
    /// Samples discarded as outliers.
    pub trimmed: usize,
}

/// Computes [`BenchStats`] from raw per-iteration samples (ns). `batch` is
/// the number of invocations each sample spans.
///
/// # Panics
///
/// If `samples` is empty — the measurement loop guarantees at least one.
pub fn stats_from_samples(mut samples: Vec<f64>, batch: u64) -> BenchStats {
    assert!(!samples.is_empty(), "stats over zero samples");
    let total = samples.len();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite sample times"));
    let raw_median = percentile(&samples, 0.5);
    let mut devs: Vec<f64> = samples.iter().map(|x| (x - raw_median).abs()).collect();
    devs.sort_by(|a, b| a.partial_cmp(b).expect("finite deviations"));
    let raw_mad = percentile(&devs, 0.5);
    if raw_mad > 0.0 {
        let fence = raw_median + OUTLIER_MADS * raw_mad;
        samples.retain(|&x| x <= fence);
    }
    let kept = samples.len();
    let median = percentile(&samples, 0.5);
    let p95 = percentile(&samples, 0.95);
    let mut devs: Vec<f64> = samples.iter().map(|x| (x - median).abs()).collect();
    devs.sort_by(|a, b| a.partial_cmp(b).expect("finite deviations"));
    let mad = percentile(&devs, 0.5);
    let mean = samples.iter().sum::<f64>() / kept as f64;
    BenchStats {
        median_ns: median,
        p95_ns: p95,
        mad_ns: mad,
        mean_ns: mean,
        iters: total as u64 * batch,
        samples: kept,
        trimmed: total - kept,
    }
}

/// One benchmark's result row, the unit of the `BENCH_*.json` schema.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Fully-qualified name, `group/id`.
    pub bench: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time in nanoseconds.
    pub p95_ns: f64,
    /// Median absolute deviation in nanoseconds.
    pub mad_ns: f64,
    /// Total routine invocations measured.
    pub iters: u64,
    /// Worker threads the process would use (`spotbid_exec::thread_count`);
    /// recorded because replay benchmarks parallelize internally.
    pub threads: usize,
    /// Git revision the run was taken at.
    pub git_rev: String,
    /// Compiler that built the benchmark (`rustc --version`); `"unknown"`
    /// in reports predating this field.
    pub rustc: String,
    /// Logical CPUs of the host machine; 0 when unknown (including
    /// reports predating this field).
    pub cpus: usize,
    /// Items processed per second (present when the benchmark declared a
    /// per-iteration item count).
    pub items_per_sec: Option<f64>,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        let mut m = BTreeMap::new();
        m.insert("bench".into(), Json::Str(self.bench.clone()));
        m.insert("median_ns".into(), Json::Num(self.median_ns));
        m.insert("p95_ns".into(), Json::Num(self.p95_ns));
        m.insert("mad_ns".into(), Json::Num(self.mad_ns));
        m.insert("iters".into(), Json::Num(self.iters as f64));
        m.insert("threads".into(), Json::Num(self.threads as f64));
        m.insert("git_rev".into(), Json::Str(self.git_rev.clone()));
        m.insert("rustc".into(), Json::Str(self.rustc.clone()));
        m.insert("cpus".into(), Json::Num(self.cpus as f64));
        if let Some(t) = self.items_per_sec {
            m.insert("items_per_sec".into(), Json::Num(t));
        }
        Json::Obj(m)
    }
}

impl spotbid_json::FromJson for BenchResult {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(BenchResult {
            bench: v.field("bench")?.as_str()?.to_owned(),
            median_ns: v.field("median_ns")?.as_num()?,
            p95_ns: v.field("p95_ns")?.as_num()?,
            mad_ns: v.field("mad_ns")?.as_num()?,
            iters: v.field("iters")?.as_num()? as u64,
            threads: v.field("threads")?.as_num()? as usize,
            git_rev: v.field("git_rev")?.as_str()?.to_owned(),
            // Optional with defaults: reports written before these fields
            // existed must keep parsing (the committed baseline's history).
            rustc: v
                .field_opt("rustc")?
                .map(Json::as_str)
                .transpose()?
                .map_or_else(|| "unknown".to_owned(), str::to_owned),
            cpus: v
                .field_opt("cpus")?
                .map(Json::as_num)
                .transpose()?
                .map_or(0, |n| n as usize),
            items_per_sec: v
                .field_opt("items_per_sec")?
                .map(Json::as_num)
                .transpose()?,
        })
    }
}

/// Serializes a report (one `BENCH_*.json` file) as a JSON array.
pub fn render_report(results: &[BenchResult]) -> String {
    let arr = Json::Arr(results.iter().map(ToJson::to_json).collect());
    spotbid_json::to_string(&arr)
}

/// Parses a report produced by [`render_report`].
///
/// # Errors
///
/// [`JsonError`] on malformed JSON or a shape mismatch.
pub fn parse_report(s: &str) -> Result<Vec<BenchResult>, JsonError> {
    spotbid_json::decode(s)
}

/// Reads and parses a `BENCH_*.json` file.
///
/// # Errors
///
/// [`JsonError`] describing the I/O or parse failure.
pub fn read_report(path: &std::path::Path) -> Result<Vec<BenchResult>, JsonError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| JsonError::new(format!("reading {}: {e}", path.display())))?;
    parse_report(&text)
}

/// Writes a report to disk.
///
/// # Errors
///
/// [`JsonError`] describing the I/O failure.
pub fn write_report(path: &std::path::Path, results: &[BenchResult]) -> Result<(), JsonError> {
    std::fs::write(path, render_report(results) + "\n")
        .map_err(|e| JsonError::new(format!("writing {}: {e}", path.display())))
}

/// A benchmark session: collects [`BenchResult`]s across named groups.
#[derive(Debug)]
pub struct Harness {
    measure_budget: Duration,
    warmup_budget: Duration,
    git_rev: String,
    rustc: String,
    cpus: usize,
    threads: usize,
    quiet: bool,
    results: Vec<BenchResult>,
}

impl Harness {
    /// A harness configured from the environment: `SPOTBID_BENCH_BUDGET_MS`
    /// sets the per-benchmark measurement budget (default 500 ms); warm-up
    /// is one fifth of it.
    pub fn from_env() -> Self {
        let ms = std::env::var("SPOTBID_BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok());
        Self::with_budget(ms.map_or(DEFAULT_MEASURE_BUDGET, Duration::from_millis))
    }

    /// A harness with an explicit measurement budget (warm-up is one fifth
    /// of it). A zero budget still records one sample per benchmark.
    pub fn with_budget(measure: Duration) -> Self {
        Harness {
            measure_budget: measure,
            warmup_budget: measure / 5,
            git_rev: git_rev(),
            rustc: rustc_version(),
            cpus: logical_cpus(),
            threads: spotbid_exec::thread_count(),
            quiet: false,
            results: Vec::new(),
        }
    }

    /// Suppresses the per-benchmark stdout line (used by tests).
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// Opens a named group; benchmarks registered through it are reported
    /// as `name/id`.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_owned(),
            items: None,
        }
    }

    /// All results collected so far, in registration order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Looks up a collected result by its full `group/id` name.
    pub fn result(&self, bench: &str) -> Option<&BenchResult> {
        self.results.iter().find(|r| r.bench == bench)
    }

    /// Writes every collected result to a `BENCH_*.json` file.
    ///
    /// # Errors
    ///
    /// [`JsonError`] describing the I/O failure.
    pub fn write(&self, path: &std::path::Path) -> Result<(), JsonError> {
        write_report(path, &self.results)
    }

    fn record(&mut self, bench: String, stats: &BenchStats, items: Option<u64>) {
        let items_per_sec = items.map(|k| k as f64 * 1e9 / stats.median_ns);
        let result = BenchResult {
            bench,
            median_ns: stats.median_ns,
            p95_ns: stats.p95_ns,
            mad_ns: stats.mad_ns,
            iters: stats.iters,
            threads: self.threads,
            git_rev: self.git_rev.clone(),
            rustc: self.rustc.clone(),
            cpus: self.cpus,
            items_per_sec,
        };
        if !self.quiet {
            let thr = result
                .items_per_sec
                .map(|t| format!("  {:>12}", fmt_throughput(t)))
                .unwrap_or_default();
            println!(
                "{:<44} median {:>10}  p95 {:>10}  mad {:>9}  ({} iters{}){thr}",
                result.bench,
                fmt_ns(result.median_ns),
                fmt_ns(result.p95_ns),
                fmt_ns(result.mad_ns),
                result.iters,
                if stats.trimmed > 0 {
                    format!(", {} trimmed", stats.trimmed)
                } else {
                    String::new()
                },
            );
        }
        self.results.push(result);
    }
}

fn fmt_throughput(items_per_sec: f64) -> String {
    if items_per_sec >= 1e9 {
        format!("{:.2} G/s", items_per_sec / 1e9)
    } else if items_per_sec >= 1e6 {
        format!("{:.2} M/s", items_per_sec / 1e6)
    } else if items_per_sec >= 1e3 {
        format!("{:.2} K/s", items_per_sec / 1e3)
    } else {
        format!("{items_per_sec:.1} /s")
    }
}

/// A named benchmark group borrowed from a [`Harness`].
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    items: Option<u64>,
}

impl Group<'_> {
    /// Declares that each iteration of subsequent benchmarks in this group
    /// processes `items` items, enabling throughput reporting.
    pub fn throughput_items(mut self, items: u64) -> Self {
        self.items = Some(items);
        self
    }

    /// Times `f`, records a `name/id` result, and returns its statistics.
    pub fn bench<T>(&mut self, id: &str, mut f: impl FnMut() -> T) -> BenchStats {
        let (samples, batch) = measure(
            self.harness.warmup_budget,
            self.harness.measure_budget,
            &mut f,
        );
        let stats = stats_from_samples(samples, batch);
        self.harness
            .record(format!("{}/{id}", self.name), &stats, self.items);
        stats
    }
}

/// Warm-up, batch-size calibration, and batched measurement. Returns the
/// per-iteration samples (ns) and the batch size used. Guarantees at least
/// one sample regardless of budget.
fn measure<T>(warmup: Duration, budget: Duration, f: &mut impl FnMut() -> T) -> (Vec<f64>, u64) {
    // Warm-up: at least one call, until the budget is spent; count calls to
    // estimate the per-call cost for batch calibration.
    let warm_start = Instant::now();
    let mut warm_calls = 0u64;
    loop {
        black_box(f());
        warm_calls += 1;
        if warm_start.elapsed() >= warmup {
            break;
        }
    }
    let est_ns = warm_start.elapsed().as_nanos() as f64 / warm_calls as f64;
    let batch = if est_ns < TARGET_SAMPLE_NS {
        ((TARGET_SAMPLE_NS / est_ns.max(1.0)).ceil() as u64).clamp(1, 1_000_000)
    } else {
        1
    };
    // Measurement: a do-while so even a zero budget records one sample
    // (the old loop could record none and then panic on samples[0]).
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        if start.elapsed() >= budget || samples.len() >= MAX_SAMPLES {
            break;
        }
    }
    (samples, batch)
}

/// Runs `f` once, prints its wall-clock time to stderr, and returns its
/// output. Every experiment binary wraps its `run` call in this so each
/// invocation doubles as a coarse timing sample.
pub fn time_experiment<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    eprintln!("[timing] {name}: {}", fmt_duration(t0.elapsed()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rev_stamp_marks_a_dirty_tree() {
        assert_eq!(rev_stamp(Some("abc1234\n"), || false), "abc1234");
        assert_eq!(rev_stamp(Some("abc1234\n"), || true), "abc1234-dirty");
        assert_eq!(rev_stamp(Some(" "), || true), "unknown");
        assert_eq!(rev_stamp(None, || panic!("no rev, no diff")), "unknown");
    }

    #[test]
    fn formats_all_magnitudes() {
        assert_eq!(fmt_duration(Duration::from_nanos(5)), "5 ns");
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.00 µs");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs(5)), "5.000 s");
    }

    #[test]
    fn harness_runs_a_trivial_function() {
        let mut h = Harness::with_budget(Duration::from_millis(5)).quiet();
        let mut calls = 0u64;
        let stats = h.group("t").bench("trivial", || {
            calls += 1;
            calls
        });
        assert!(calls > 0);
        assert!(stats.iters > 0);
        assert!(stats.median_ns >= 0.0);
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].bench, "t/trivial");
        assert!(h.result("t/nope").is_none());
    }

    #[test]
    fn zero_budget_still_records_one_sample() {
        // Regression guard for the original harness, which could record no
        // samples under a tiny budget and then panic on `samples[0]`.
        let mut h = Harness::with_budget(Duration::ZERO).quiet();
        let stats = h.group("z").bench("one_shot", || 42u64);
        assert!(stats.samples >= 1);
        assert!(stats.iters >= 1);
    }

    #[test]
    fn stats_are_robust_to_outliers() {
        // 99 fast-but-jittery samples and one enormous straggler: the
        // reported statistics must ignore the straggler entirely.
        let mut xs: Vec<f64> = (0..99).map(|i| 100.0 + (i % 10) as f64).collect();
        xs.push(1_000_000.0);
        let s = stats_from_samples(xs, 2);
        assert!(s.median_ns <= 109.0, "median {}", s.median_ns);
        assert!(s.p95_ns <= 109.0, "p95 {}", s.p95_ns);
        assert_eq!(s.trimmed, 1);
        assert_eq!(s.iters, 200);
        assert!(s.mean_ns < 200.0, "outlier leaked into mean: {}", s.mean_ns);
        // All-identical samples: MAD is 0 and nothing is trimmed.
        let s = stats_from_samples(vec![7.0; 50], 1);
        assert_eq!((s.median_ns, s.mad_ns, s.trimmed), (7.0, 0.0, 0));
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 0.95), 3.0);
    }

    #[test]
    fn result_json_roundtrip() {
        let rows = vec![
            BenchResult {
                bench: "price_model/cdf/10k".into(),
                median_ns: 24.5,
                p95_ns: 27.0,
                mad_ns: 0.5,
                iters: 1_000_000,
                threads: 8,
                git_rev: "abc1234".into(),
                rustc: "rustc 1.82.0 (f6e511eec 2024-10-15)".into(),
                cpus: 16,
                items_per_sec: Some(4.08e7),
            },
            BenchResult {
                bench: "replay/table3".into(),
                median_ns: 2.1e9,
                p95_ns: 2.2e9,
                mad_ns: 3.0e7,
                iters: 3,
                threads: 8,
                git_rev: "abc1234".into(),
                rustc: "rustc 1.82.0 (f6e511eec 2024-10-15)".into(),
                cpus: 16,
                items_per_sec: None,
            },
        ];
        let text = render_report(&rows);
        let back = parse_report(&text).unwrap();
        assert_eq!(back, rows);
        // Schema fields present by name in the serialized form.
        let keys = [
            "bench",
            "median_ns",
            "p95_ns",
            "mad_ns",
            "iters",
            "threads",
            "git_rev",
            "rustc",
            "cpus",
        ];
        for key in keys {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key}");
        }
    }

    #[test]
    fn pre_rustc_cpus_reports_still_parse() {
        // Rows written before the rustc/cpus fields (e.g. the committed
        // baseline's ancestors) must parse with explicit defaults.
        let legacy = r#"[{"bench": "market/optimal_price", "median_ns": 10.0,
            "p95_ns": 12.0, "mad_ns": 0.5, "iters": 100, "threads": 4,
            "git_rev": "0ld5eed"}]"#;
        let rows = parse_report(legacy).unwrap();
        assert_eq!(rows[0].rustc, "unknown");
        assert_eq!(rows[0].cpus, 0);
        assert_eq!(rows[0].threads, 4);
    }

    #[test]
    fn host_metadata_is_recorded() {
        let mut h = Harness::with_budget(Duration::ZERO).quiet();
        h.group("meta").bench("noop", || 0u8);
        let r = &h.results()[0];
        assert!(!r.rustc.is_empty());
        // This workspace always builds with a real toolchain, so the
        // harness must resolve an actual version (not the fallback).
        assert!(r.rustc.starts_with("rustc "), "got {:?}", r.rustc);
        assert!(r.cpus >= 1, "available_parallelism failed");
    }

    #[test]
    fn report_file_roundtrip() {
        let dir = std::env::temp_dir().join("spotbid_bench_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report_roundtrip.json");
        let mut h = Harness::with_budget(Duration::from_millis(2)).quiet();
        h.group("io")
            .throughput_items(64)
            .bench("spin", || (0..64).map(black_box).sum::<usize>());
        h.write(&path).unwrap();
        let back = read_report(&path).unwrap();
        assert_eq!(back, h.results());
        assert!(back[0].items_per_sec.is_some());
        std::fs::remove_file(&path).ok();
        assert!(read_report(&path).is_err());
    }

    #[test]
    fn throughput_items_per_sec() {
        let mut h = Harness::with_budget(Duration::from_millis(2)).quiet();
        h.group("thr").throughput_items(1000).bench("noop", || 1u32);
        let r = h.result("thr/noop").unwrap();
        let t = r.items_per_sec.unwrap();
        assert!((t - 1000.0 * 1e9 / r.median_ns).abs() < 1e-6);
    }

    #[test]
    fn time_experiment_passes_value_through() {
        let v = time_experiment("unit_test", || 7 * 6);
        assert_eq!(v, 42);
    }
}
