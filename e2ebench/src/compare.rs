//! `compare A/ B/`: the result files of two sets of runs, side by side.
//!
//! For every workload and metric it prints each side's median and
//! quartiles and judges B against A by the metric's bound in
//! `BENCHMARK.json`: a change beyond the bound is a regression or an
//! improvement, and a metric whose spread on either side exceeds its bound
//! is unresolved unless every B run beats every A run. Runs of one
//! workload at one seed must share a digest.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::ExitCode;

use spotbid_json::{from_str, Json};

use crate::stats::quartiles;

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound, or every B run beats every A run.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// The spread of A or B exceeds the bound.
    Unresolved,
}

/// Judges `b` against `a` for a metric whose bound is `bound` (a share of
/// A's median). Returns the verdict and B's median change as a share of
/// A's.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (Some(qa), Some(qb)) = (quartiles(a), quartiles(b)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let change = (qb[1] - qa[1]) / qa[1].abs();
    let worse_by = if lower_is_better { change } else { -change };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs();
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let all_better = if lower_is_better {
        max(b) < min(a)
    } else {
        min(b) > max(a)
    };
    let verdict = if spread(qa) > bound || spread(qb) > bound {
        if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regressed
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    };
    (verdict, change)
}

/// One result file.
struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn parse(text: &str) -> Option<Run> {
    let doc = from_str(text).ok()?;
    let stamp = doc.field("stamp").ok()?;
    let metrics = doc
        .field("metrics")
        .and_then(Json::as_obj)
        .ok()?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.field("value").and_then(Json::as_num).ok()?)))
        .collect();
    Some(Run {
        workload: stamp
            .field("workload")
            .and_then(Json::as_str)
            .ok()?
            .to_string(),
        seed: stamp.field("seed").and_then(Json::as_num).ok()? as u64,
        trace: matches!(stamp.field("trace"), Ok(Json::Bool(true))),
        digest: doc.field("digest").and_then(Json::as_str).ok()?.to_string(),
        metrics,
    })
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.push(parse(&text).ok_or_else(|| format!("{}: not a result file", path.display()))?);
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(out)
}

/// `name → (lower is better, bound)` for every end-to-end metric.
fn bounds(path: &Path) -> Result<BTreeMap<String, (bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .field("end_to_end")
        .and_then(Json::as_arr)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    list.iter()
        .map(|m| {
            let name = m.field("name").and_then(Json::as_str)?.to_string();
            let lower = m.field("better").and_then(Json::as_str)? == "lower";
            Ok((name, (lower, m.field("bound").and_then(Json::as_num)?)))
        })
        .collect::<Result<_, spotbid_json::JsonError>>()
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `compare A/ B/ [--benchmark PATH]`.
pub fn main(args: &[String]) -> ExitCode {
    let mut dirs = Vec::new();
    let mut benchmark = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            match it.next() {
                Some(p) => benchmark = p.clone(),
                None => {
                    eprintln!("error: --benchmark needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            dirs.push(a.clone());
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        eprintln!("usage: spotbid-e2ebench compare A/ B/ [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let loaded = (|| {
        Ok::<_, String>((
            load(Path::new(a_dir))?,
            load(Path::new(b_dir))?,
            bounds(Path::new(&benchmark))?,
        ))
    })();
    let (a, b, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    let mut bad = false;
    let mut digests: BTreeMap<(String, u64, bool), Vec<&str>> = BTreeMap::new();
    for r in a.iter().chain(&b) {
        digests
            .entry((r.workload.clone(), r.seed, r.trace))
            .or_default()
            .push(&r.digest);
    }
    for ((w, seed, trace), ds) in &digests {
        if ds.windows(2).any(|p| p[0] != p[1]) {
            bad = true;
            println!("DIGEST MISMATCH {w} seed {seed} trace {trace}: {ds:?}");
        }
    }

    println!(
        "{:<15} {:<40} {:>30} {:>30} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    let keys: BTreeSet<(&String, bool)> =
        a.iter().chain(&b).map(|r| (&r.workload, r.trace)).collect();
    for (workload, trace) in keys {
        let side = |rs: &[Run], m: &str| -> Vec<f64> {
            rs.iter()
                .filter(|r| &r.workload == workload && r.trace == trace)
                .filter_map(|r| r.metrics.get(m).copied())
                .collect()
        };
        let names: BTreeSet<&String> = a
            .iter()
            .chain(&b)
            .filter(|r| &r.workload == workload && r.trace == trace)
            .flat_map(|r| r.metrics.keys())
            .collect();
        for name in names {
            let (va, vb) = (side(&a, name), side(&b, name));
            let show = |v: &[f64]| match quartiles(v) {
                Some(q) => format!("{:.4} [{:.4}, {:.4}] n={}", q[1], q[0], q[2], v.len()),
                None => format!("n={}", v.len()),
            };
            let (verdict, change) = match bounds.get(name).filter(|_| !trace) {
                Some(&(lower, bound)) => {
                    let (v, c) = judge(&va, &vb, lower, bound);
                    bad |= v == Verdict::Regressed;
                    (format!("{v:?}"), c)
                }
                None => {
                    let c = match (quartiles(&va), quartiles(&vb)) {
                        (Some(qa), Some(qb)) => (qb[1] - qa[1]) / qa[1].abs(),
                        _ => f64::NAN,
                    };
                    ("-".to_string(), c)
                }
            };
            println!(
                "{:<15} {:<40} {:>30} {:>30} {:>7.1}%  {verdict}",
                workload,
                name,
                show(&va),
                show(&vb),
                change * 100.0
            );
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(median: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| median * (1.0 + spread * (i as f64 - 4.5) / 9.0))
            .collect()
    }

    #[test]
    fn changes_within_the_bound_are_the_same() {
        let (v, c) = judge(&runs(100.0, 0.02), &runs(104.0, 0.02), true, 0.1);
        assert_eq!(v, Verdict::Same);
        assert!((c - 0.04).abs() < 1e-9);
    }

    #[test]
    fn direction_follows_better() {
        let (a, b) = (runs(100.0, 0.02), runs(120.0, 0.02));
        assert_eq!(judge(&a, &b, true, 0.1).0, Verdict::Regressed);
        assert_eq!(judge(&a, &b, false, 0.1).0, Verdict::Improved);
        assert_eq!(judge(&b, &a, true, 0.1).0, Verdict::Improved);
        assert_eq!(judge(&b, &a, false, 0.1).0, Verdict::Regressed);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        // A's quartiles sit ±12% around its median: wider than a 10% bound.
        let wide = runs(100.0, 0.5);
        let (v, _) = judge(&wide, &runs(130.0, 0.02), true, 0.1);
        assert_eq!(v, Verdict::Unresolved);
        let (v, _) = judge(&runs(100.0, 0.02), &wide, true, 0.1);
        assert_eq!(v, Verdict::Unresolved);
        // ... unless every B run beats every A run.
        let (v, _) = judge(&wide, &runs(50.0, 0.02), true, 0.1);
        assert_eq!(v, Verdict::Improved);
    }

    #[test]
    fn too_few_runs_are_unresolved() {
        assert_eq!(judge(&[1.0], &[1.0, 2.0], true, 0.1).0, Verdict::Unresolved);
    }

    #[test]
    fn result_files_parse() {
        let text = r#"{"attempted":5.0,"correct":true,"digest":"ab","failed":0.0,
            "metrics":{"p50_ref":{"samples":100.0,"unit":"ratio","value":12.5}},
            "stamp":{"seed":7.0,"trace":false,"workload":"closedloop"}}"#;
        let r = parse(text).unwrap();
        assert_eq!(
            (r.workload.as_str(), r.seed, r.trace),
            ("closedloop", 7, false)
        );
        assert_eq!(r.metrics["p50_ref"], 12.5);
        assert_eq!(r.digest, "ab");
    }
}
