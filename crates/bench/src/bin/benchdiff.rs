//! Compares two `BENCH_*.json` reports and gates on regressions, or
//! summarizes alternating runs of two builds.
//!
//! ```text
//! benchdiff <baseline.json> <current.json> [--threshold X] [--warn-only]
//! benchdiff --ab <parent1.json> <change1.json> [<parent2.json> <change2.json> ...]
//! ```
//!
//! `--ab` takes reports of a parent and a change build run alternately,
//! pair by pair, and prints for each benchmark the median of the pairs'
//! change/parent median ratios, the ratios' interquartile range and in
//! how many pairs the change read lower. It gates nothing: it exits 0
//! unless a report cannot be read.
//!
//! Exits 0 when no benchmark's median slowed by more than the threshold
//! factor, 1 when one did (suppressed by `--warn-only`, which always exits
//! 0 after printing the table), and 2 on usage or I/O errors. The default
//! threshold is 1.25, overridable by `SPOTBID_BENCH_THRESHOLD` or
//! `--threshold` (the flag wins). CI runs this with `--threshold 3.0` —
//! generous enough that shared-runner noise passes while a real slowdown
//! does not — warn-only on pull requests, hard-failing on pushes to main.

use spotbid_bench::regress::{self, DEFAULT_THRESHOLD};
use spotbid_bench::timing::read_report;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: benchdiff <baseline.json> <current.json> [--threshold X] [--warn-only]\n       benchdiff --ab <parent1.json> <change1.json> [<parent2.json> <change2.json> ...]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut threshold = std::env::var("SPOTBID_BENCH_THRESHOLD")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok())
        .unwrap_or(DEFAULT_THRESHOLD);
    let (mut warn_only, mut ab) = (false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(x) => threshold = x,
                None => return usage(),
            },
            "--warn-only" => warn_only = true,
            "--ab" => ab = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            _ => return usage(),
        }
    }
    if ab {
        if paths.is_empty() || paths.len() % 2 != 0 {
            return usage();
        }
        let mut reports = Vec::with_capacity(paths.len());
        for path in &paths {
            match read_report(path) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    eprintln!("error: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
        }
        let mut reports = reports.into_iter();
        let pairs: Vec<_> =
            std::iter::from_fn(|| Some((reports.next()?, reports.next()?))).collect();
        print!("{}", regress::render_ab(&regress::ab(&pairs)));
        return ExitCode::SUCCESS;
    }
    if paths.len() != 2 {
        return usage();
    }
    if !(threshold.is_finite() && threshold >= 1.0) {
        eprintln!("threshold must be a finite ratio >= 1, got {threshold}");
        return ExitCode::from(2);
    }
    let baseline = match read_report(&paths[0]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match read_report(&paths[1]) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let report = regress::diff(&baseline, &current, threshold);
    print!("{}", report.render());
    if report.has_regressions() {
        if warn_only {
            eprintln!("warning: regressions found (suppressed by --warn-only)");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else {
        ExitCode::SUCCESS
    }
}
