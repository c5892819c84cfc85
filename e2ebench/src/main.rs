//! The spotbid end-to-end benchmark.
//!
//! ```text
//! spotbid-e2ebench run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!                      [--trace-dir DIR] [--out DIR]
//! spotbid-e2ebench compare A/ B/ [--benchmark BENCHMARK.json]
//! ```
//!
//! `run` without `--workload` runs every workload, each in a child process
//! of its own, so set-up time and peak memory cover one workload only. A
//! single-workload run prints its stamp, digest and metrics, then, as its
//! last line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`; it exits non-zero when a correctness check fails. With
//! `--trace 1` it reports the per-layer metrics and writes its spans to
//! `DIR/<workload>.spans.json`. `--out DIR` also saves the result as a
//! file for `compare`.

mod closedloop;
mod compare;
mod heap;
mod market;
mod metrics;
mod stats;
mod trace;
mod yardstick;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use spotbid_json::Json;

use metrics::{Metric, Metrics, END_TO_END, PER_LAYER};
use stats::{chunked, median, percentile, sorted, Digest};
use trace::Tracer;
use yardstick::Yardstick;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Set-ups per run; `setup_s` is their median. The first few pay for the
/// process's cold memory, and nine let the steady ones set the median.
pub const SETUPS: usize = 9;

/// The workloads, in run order.
pub const WORKLOADS: [&str; 2] = ["closedloop", "market_squeeze"];

/// What every workload is given.
pub struct Ctx {
    /// Generates every input.
    pub seed: u64,
    /// How long the workload measures.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The run's clock origin, for spans.
    pub origin: Instant,
}

/// What a workload hands back.
pub struct Outcome {
    /// Operations attempted: sessions or slots.
    pub attempted: u64,
    /// Operations that failed or whose output was wrong.
    pub failed: u64,
    /// Why, for every failed check.
    pub errors: Vec<String>,
    /// Digest of the run's deterministic outputs.
    pub digest: Digest,
    /// Measured metrics.
    pub metrics: Metrics,
    /// Spans of the run.
    pub tracer: Tracer,
    /// Exec workers the workload pins; 0 when it runs no exec fan-out.
    pub exec_workers: usize,
    setup_s: Vec<f64>,
}

impl Outcome {
    /// An empty outcome for `ctx`.
    pub fn new(ctx: &Ctx, exec_workers: usize) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            digest: Digest::default(),
            metrics: Metrics::default(),
            tracer: Tracer::new(ctx.origin, ctx.trace),
            exec_workers,
            setup_s: Vec::new(),
        }
    }

    /// Records peak heap memory now, the first time the run's fixed amount
    /// of work is done. Work after this point is time-bounded, and memory
    /// a program keeps per operation would otherwise grow with its speed.
    pub fn mark_memory(&mut self) {
        if self.metrics.get("peak_heap_mb").is_none() {
            self.metrics.set("peak_heap_mb", heap::peak_mb(), None);
        }
    }

    /// Records set-up number `k`, which ran from `t0` to `t1`.
    pub fn setup(&mut self, t0: Instant, t1: Instant, k: usize) {
        self.setup_s.push((t1 - t0).as_secs_f64());
        self.tracer.record("bench.setup", t0, t1, None, k as u64);
    }

    /// Sets `name` to the `q`-quantile of `sorted`, or records why it
    /// could not be reported.
    pub fn percentile(&mut self, name: &str, sorted: &[f64], q: f64) {
        match percentile(sorted, q) {
            Some(v) => self.metrics.set(name, v, Some(sorted.len())),
            None => self.errors.push(format!(
                "{name}: {} samples leave fewer than ten beyond the percentile",
                sorted.len()
            )),
        }
    }

    /// Sets `p50_ref` to the median of `y`'s window ratios, and
    /// `ref.job_us` to the reference job's median time.
    pub fn relative(&mut self, y: &Yardstick) {
        self.percentile("p50_ref", &sorted(y.ratios()), 0.5);
        if let Some(us) = y.job_us() {
            self.metrics.set("ref.job_us", us, Some(y.ratios().len()));
        }
    }

    /// Sets `name` to the median, over chunks of at least 100 samples of
    /// `xs` (in the order measured), of each chunk's `q`-quantile.
    pub fn tail(&mut self, name: &str, xs: &[f64], q: f64) {
        match chunked(xs, 100, |c| percentile(&sorted(c), q)) {
            Some(v) => self.metrics.set(name, v, Some(xs.len())),
            None => self.errors.push(format!(
                "{name}: {} samples leave fewer than ten beyond the percentile",
                xs.len()
            )),
        }
    }

    /// Sets `name` to the median, over chunks of at least `min_len`
    /// operations, of the rate at which serial operations taking `op_us`
    /// µs each get `work` units apiece done.
    pub fn rate(&mut self, name: &str, op_us: &[f64], work: f64, min_len: usize) {
        let per_s = |c: &[f64]| Some(work * c.len() as f64 * 1e6 / c.iter().sum::<f64>());
        match chunked(op_us, min_len, per_s) {
            Some(v) => self.metrics.set(name, v, Some(op_us.len())),
            None => self.errors.push(format!("{name}: no operations timed")),
        }
    }
}

/// SplitMix64 of `seed` and `k`: independent input streams from one seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Options of `run`.
#[derive(Debug, Clone)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: PathBuf,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        trace_dir: PathBuf::from(".bench_spans"),
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
                }
                r.workload = Some(w);
            }
            "--seed" => r.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                r.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(r.seconds > 0.0 && r.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                r.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => r.trace_dir = PathBuf::from(value()?),
            "--out" => r.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(r)
}

/// Output of a helper program, or "unknown".
fn probe(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run's stamp: what a result depends on besides the code.
fn stamp(args: &RunArgs, workload: &str, exec_workers: usize) -> BTreeMap<String, Json> {
    let mut s = BTreeMap::new();
    let mut put = |k: &str, v: Json| {
        s.insert(k.to_string(), v);
    };
    put("workload", Json::Str(workload.to_string()));
    put("seed", Json::Num(args.seed as f64));
    put("seconds", Json::Num(args.seconds));
    put("trace", Json::Bool(args.trace));
    // Git must not look above the working directory: a checkout that is
    // not a repository reads "unknown", even inside another repository.
    let mut git = Command::new("git");
    git.args(["rev-parse", "--short=12", "HEAD"]);
    if let Some(above) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
    {
        git.env("GIT_CEILING_DIRECTORIES", above);
    }
    put("git_rev", Json::Str(probe(&mut git)));
    put(
        "rustc",
        Json::Str(probe(Command::new("rustc").arg("--version"))),
    );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    put("nproc", Json::Num(nproc as f64));
    put("exec_workers", Json::Num(exec_workers as f64));
    s
}

/// The result line the benchmark ends with.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn metric_json(m: &Metric) -> Json {
    let mut o = BTreeMap::new();
    o.insert("value".to_string(), Json::Num(m.value));
    o.insert("unit".to_string(), Json::Str(m.unit.to_string()));
    o.insert(
        "samples".to_string(),
        m.samples.map_or(Json::Null, |n| Json::Num(n as f64)),
    );
    Json::Obj(o)
}

/// Saves a result under `dir`, at the first free `<workload>-s<seed>-<k>`
/// name.
fn save(
    dir: &Path,
    stamp: BTreeMap<String, Json>,
    fields: BTreeMap<String, Json>,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = match (&stamp["workload"], &stamp["seed"], &stamp["trace"]) {
        (Json::Str(w), Json::Num(s), Json::Bool(t)) => {
            format!("{w}-s{s}{}", if *t { "-trace" } else { "" })
        }
        _ => unreachable!("stamp fields are set above"),
    };
    let path = (0..)
        .map(|k| dir.join(format!("{name}-{k}.json")))
        .find(|p| !p.exists())
        .expect("a free name");
    let mut doc = fields;
    doc.insert("stamp".to_string(), Json::Obj(stamp));
    std::fs::write(&path, spotbid_json::to_string(&Json::Obj(doc)) + "\n")?;
    Ok(path)
}

/// Runs one workload in this process.
fn run_one(args: &RunArgs, workload: &str) -> ExitCode {
    let origin = Instant::now();
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        origin,
    };
    let mut out = match workload {
        "closedloop" => closedloop::run(&ctx),
        "market_squeeze" => market::run(&ctx),
        other => unreachable!("workload {other} was validated"),
    };
    let setup = median(&out.setup_s).expect("every workload sets up");
    out.metrics.set("setup_s", setup, Some(out.setup_s.len()));
    if out.metrics.get("peak_heap_mb").is_none() {
        out.errors
            .push("the run never finished its fixed amount of work".into());
    }
    if args.trace {
        let path = args.trace_dir.join(format!("{workload}.spans.json"));
        let written =
            std::fs::create_dir_all(&args.trace_dir).and_then(|()| out.tracer.write(&path));
        match written {
            Ok(()) => println!(
                "# spans {} ({} spans)",
                path.display(),
                out.tracer.spans().len()
            ),
            Err(e) => out.errors.push(format!("writing {}: {e}", path.display())),
        }
    }
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let reported = out.metrics.completed(catalogue);
    for m in &reported {
        if !m.value.is_finite() {
            out.errors.push(format!("{} is not finite", m.name));
        }
    }
    let reported: Vec<Metric> = reported
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    let correct = out.errors.is_empty() && out.failed == 0;

    let stamp = stamp(args, workload, out.exec_workers);
    println!(
        "# stamp {}",
        spotbid_json::to_string(&Json::Obj(stamp.clone()))
    );
    println!("# digest {}", out.digest.hex());
    // The run also measured metrics of the other catalogue: shown and
    // saved, but not in the result line.
    let extra = out
        .metrics
        .completed(if args.trace { END_TO_END } else { PER_LAYER });
    let shown: Vec<&Metric> = reported
        .iter()
        .chain(extra.iter().filter(|m| m.value != 0.0))
        .collect();
    for m in &shown {
        let n = m.samples.map_or(String::new(), |n| format!("n={n}"));
        println!("{:<42} {:>16.4} {:<6} {n}", m.name, m.value, m.unit);
    }
    for e in &out.errors {
        eprintln!("error: {e}");
    }
    if let Some(dir) = &args.out {
        let mut fields = BTreeMap::new();
        fields.insert("digest".to_string(), Json::Str(out.digest.hex()));
        fields.insert("correct".to_string(), Json::Bool(correct));
        fields.insert("attempted".to_string(), Json::Num(out.attempted as f64));
        fields.insert("failed".to_string(), Json::Num(out.failed as f64));
        let metrics = shown
            .iter()
            .map(|m| (m.name.to_string(), metric_json(m)))
            .collect();
        fields.insert("metrics".to_string(), Json::Obj(metrics));
        match save(dir, stamp, fields) {
            Ok(path) => println!("# result {}", path.display()),
            Err(e) => eprintln!("error: saving the result under {}: {e}", dir.display()),
        }
    }
    println!(
        "{}",
        result_line(correct, out.attempted.max(1), out.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: locating this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .arg("run")
            .args(raw)
            .args(["--workload", w])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("error: workload {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("error: starting workload {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: spotbid-e2ebench run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-dir DIR] [--out DIR]\n       spotbid-e2ebench compare A/ B/ \
         [--benchmark BENCHMARK.json]\nworkloads: {}",
        WORKLOADS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    heap::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A bare flag list is a `run`, which is how the benchmark is driven.
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some("run") => ("run", &args[1..]),
        Some("compare") => ("compare", &args[1..]),
        Some(f) if f.starts_with("--") => ("run", &args[..]),
        _ => return usage(),
    };
    if cmd == "compare" {
        return compare::main(rest);
    }
    match parse_run(rest) {
        Ok(r) => match r.workload.clone() {
            Some(w) => run_one(&r, &w),
            None => run_all(rest),
        },
        Err(e) => {
            eprintln!("error: {e}");
            usage()
        }
    }
}
