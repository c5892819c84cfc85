//! Benchmark regression detection: the logic behind the `benchdiff` binary.
//!
//! Compares a current `BENCH_*.json` report against a baseline and flags
//! every benchmark whose median slowed by more than a configurable factor.
//! The policy (documented in DESIGN.md) is deliberately simple: the
//! comparison key is the median — robust to scheduler noise — and the
//! threshold is a *ratio*, so one number covers nanosecond kernels and
//! multi-second replays alike. Benchmarks present on only one side are
//! reported but never fail the diff (they are additions/retirements, not
//! regressions).

use crate::timing::{fmt_ns, BenchResult};

/// Default regression threshold: current median > 1.25× baseline fails.
pub const DEFAULT_THRESHOLD: f64 = 1.25;

/// Classification of one benchmark's baseline → current movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Slowed beyond the threshold.
    Regression,
    /// Sped up beyond the reciprocal threshold.
    Improvement,
    /// Within the threshold band either way.
    Unchanged,
    /// Present only in the current report.
    Added,
    /// Present only in the baseline.
    Removed,
}

/// One benchmark's comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Benchmark name (`group/id`).
    pub bench: String,
    /// Baseline median, when the baseline has this benchmark.
    pub baseline_ns: Option<f64>,
    /// Current median, when the current report has this benchmark.
    pub current_ns: Option<f64>,
    /// `current / baseline` median ratio, when both sides exist.
    pub ratio: Option<f64>,
    /// The classification under the report's threshold.
    pub verdict: Verdict,
}

/// A full comparison of two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Per-benchmark rows, in baseline order then added benchmarks.
    pub rows: Vec<DiffRow>,
    /// The regression threshold the verdicts were computed under.
    pub threshold: f64,
}

impl DiffReport {
    /// Rows classified as regressions.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regression)
    }

    /// True when any benchmark regressed past the threshold.
    pub fn has_regressions(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Rows present only in the current report (new benchmarks).
    pub fn added(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Added)
    }

    /// Rows present only in the baseline (retired benchmarks).
    pub fn removed(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.verdict == Verdict::Removed)
    }

    /// Renders the comparison as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<44} {:>12} {:>12} {:>8}  verdict\n",
            "bench", "baseline", "current", "ratio"
        ));
        for r in &self.rows {
            let fmt_side = |v: Option<f64>| v.map(fmt_ns).unwrap_or_else(|| "-".into());
            let ratio = r
                .ratio
                .map(|x| format!("{x:.2}x"))
                .unwrap_or_else(|| "-".into());
            let verdict = match r.verdict {
                Verdict::Regression => "REGRESSION",
                Verdict::Improvement => "improvement",
                Verdict::Unchanged => "ok",
                Verdict::Added => "added",
                Verdict::Removed => "removed",
            };
            out.push_str(&format!(
                "{:<44} {:>12} {:>12} {:>8}  {verdict}\n",
                r.bench,
                fmt_side(r.baseline_ns),
                fmt_side(r.current_ns),
                ratio,
            ));
        }
        // Coverage delta, stated explicitly: a regenerated baseline must
        // be auditable from the diff output alone, so benchmarks that
        // entered or left the suite are summarized by name instead of
        // silently riding along as table rows.
        let names = |rows: Vec<&DiffRow>| {
            rows.iter()
                .map(|r| r.bench.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let added: Vec<&DiffRow> = self.added().collect();
        if !added.is_empty() {
            out.push_str(&format!(
                "benchmarks added ({}): {}\n",
                added.len(),
                names(added)
            ));
        }
        let removed: Vec<&DiffRow> = self.removed().collect();
        if !removed.is_empty() {
            out.push_str(&format!(
                "benchmarks removed ({}): {}\n",
                removed.len(),
                names(removed)
            ));
        }
        let n = self.regressions().count();
        out.push_str(&format!(
            "{n} regression(s) at threshold {:.2}x\n",
            self.threshold
        ));
        out
    }
}

/// Compares `current` against `baseline` medians under `threshold`.
///
/// Rows follow baseline order; benchmarks new in `current` are appended in
/// their report order.
pub fn diff(baseline: &[BenchResult], current: &[BenchResult], threshold: f64) -> DiffReport {
    assert!(
        threshold.is_finite() && threshold >= 1.0,
        "threshold must be a finite ratio >= 1, got {threshold}"
    );
    let mut rows = Vec::with_capacity(baseline.len());
    for b in baseline {
        let cur = current.iter().find(|c| c.bench == b.bench);
        let row = match cur {
            Some(c) => {
                let ratio = c.median_ns / b.median_ns;
                let verdict = if ratio > threshold {
                    Verdict::Regression
                } else if ratio < 1.0 / threshold {
                    Verdict::Improvement
                } else {
                    Verdict::Unchanged
                };
                DiffRow {
                    bench: b.bench.clone(),
                    baseline_ns: Some(b.median_ns),
                    current_ns: Some(c.median_ns),
                    ratio: Some(ratio),
                    verdict,
                }
            }
            None => DiffRow {
                bench: b.bench.clone(),
                baseline_ns: Some(b.median_ns),
                current_ns: None,
                ratio: None,
                verdict: Verdict::Removed,
            },
        };
        rows.push(row);
    }
    for c in current {
        if !baseline.iter().any(|b| b.bench == c.bench) {
            rows.push(DiffRow {
                bench: c.bench.clone(),
                baseline_ns: None,
                current_ns: Some(c.median_ns),
                ratio: None,
                verdict: Verdict::Added,
            });
        }
    }
    DiffReport { rows, threshold }
}

/// One benchmark's A/B comparison: the change-over-parent median ratio
/// of every pair of reports that both hold it, in pair order.
#[derive(Debug, Clone, PartialEq)]
pub struct AbRow {
    /// Benchmark name (`group/id`).
    pub bench: String,
    /// `change / parent` median ratio, one per pair.
    pub ratios: Vec<f64>,
}

impl AbRow {
    /// The median ratio (`None` without pairs).
    pub fn median(&self) -> Option<f64> {
        match self.ratios.len() {
            0 => None,
            1 => Some(self.ratios[0]),
            _ => quartiles(&self.ratios).map(|q| q[1]),
        }
    }

    /// The ratios' interquartile range (`None` below two pairs).
    pub fn iqr(&self) -> Option<f64> {
        quartiles(&self.ratios).map(|q| q[2] - q[0])
    }

    /// Pairs in which the change read lower than the parent.
    pub fn lower(&self) -> usize {
        self.ratios.iter().filter(|&&r| r < 1.0).count()
    }
}

/// Compares alternating runs of two builds: `pairs[k]` is the parent's
/// and the change's report of the `k`-th pair. Rows follow the first
/// parent report's order, then benchmarks first seen later; a benchmark
/// missing from one side of a pair contributes no ratio for it. Nothing
/// is judged: the rows say how far, how consistently and in which
/// direction each benchmark moved.
pub fn ab(pairs: &[(Vec<BenchResult>, Vec<BenchResult>)]) -> Vec<AbRow> {
    let mut rows: Vec<AbRow> = Vec::new();
    for (parent, change) in pairs {
        for p in parent {
            let at = match rows.iter().position(|r| r.bench == p.bench) {
                Some(at) => at,
                None => {
                    rows.push(AbRow {
                        bench: p.bench.clone(),
                        ratios: Vec::new(),
                    });
                    rows.len() - 1
                }
            };
            if let Some(c) = change.iter().find(|c| c.bench == p.bench) {
                rows[at].ratios.push(c.median_ns / p.median_ns);
            }
        }
    }
    rows
}

/// Renders [`ab`]'s rows as an aligned text table.
pub fn render_ab(rows: &[AbRow]) -> String {
    let mut out = format!(
        "{:<64} {:>5} {:>8} {:>7} {:>6}\n",
        "bench", "pairs", "median", "IQR", "lower"
    );
    let fmt = |v: Option<f64>, f: &dyn Fn(f64) -> String| v.map(f).unwrap_or_else(|| "-".into());
    for r in rows {
        out.push_str(&format!(
            "{:<64} {:>5} {:>8} {:>7} {:>6}\n",
            r.bench,
            r.ratios.len(),
            fmt(r.median(), &|x| format!("{x:.3}x")),
            fmt(r.iqr(), &|x| format!("{x:.3}")),
            format!("{}/{}", r.lower(), r.ratios.len()),
        ));
    }
    out
}

/// First quartile, median and third quartile of `xs`, as Python's
/// `statistics.quantiles(xs, n=4)` computes them (the exclusive method,
/// with its clamping) and as EXPERIMENTS.md reports e2ebench pairs;
/// `None` below two samples.
fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as i64;
    if n < 2 {
        return None;
    }
    let at = |i: i64| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = (m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some([at(1), at(2), at(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: &str, median_ns: f64) -> BenchResult {
        BenchResult {
            bench: bench.into(),
            median_ns,
            p95_ns: median_ns * 1.1,
            mad_ns: median_ns * 0.01,
            iters: 100,
            threads: 4,
            git_rev: "test".into(),
            rustc: "rustc-test".into(),
            cpus: 8,
            items_per_sec: None,
        }
    }

    #[test]
    fn detects_injected_2x_regression() {
        let baseline = vec![row("k/cdf", 100.0), row("k/quantile", 200.0)];
        let current = vec![row("k/cdf", 200.0), row("k/quantile", 210.0)];
        let d = diff(&baseline, &current, 1.25);
        assert!(d.has_regressions());
        let slow: Vec<&str> = d.regressions().map(|r| r.bench.as_str()).collect();
        assert_eq!(slow, vec!["k/cdf"]);
        assert_eq!(d.rows[0].verdict, Verdict::Regression);
        assert!((d.rows[0].ratio.unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(d.rows[1].verdict, Verdict::Unchanged);
    }

    #[test]
    fn improvements_do_not_fail() {
        let baseline = vec![row("k/cdf", 100.0)];
        let current = vec![row("k/cdf", 20.0)];
        let d = diff(&baseline, &current, 1.25);
        assert!(!d.has_regressions());
        assert_eq!(d.rows[0].verdict, Verdict::Improvement);
    }

    #[test]
    fn threshold_band_is_exclusive() {
        // Exactly at the threshold is not a regression; just past it is.
        let baseline = vec![row("k/a", 100.0), row("k/b", 100.0)];
        let current = vec![row("k/a", 125.0), row("k/b", 125.1)];
        let d = diff(&baseline, &current, 1.25);
        assert_eq!(d.rows[0].verdict, Verdict::Unchanged);
        assert_eq!(d.rows[1].verdict, Verdict::Regression);
    }

    #[test]
    fn added_and_removed_are_informational() {
        let baseline = vec![row("k/old", 100.0)];
        let current = vec![row("k/new", 100.0)];
        let d = diff(&baseline, &current, 1.25);
        assert!(!d.has_regressions());
        assert_eq!(d.rows.len(), 2);
        assert_eq!(d.rows[0].verdict, Verdict::Removed);
        assert_eq!(d.rows[1].verdict, Verdict::Added);
        let text = d.render();
        assert!(text.contains("removed") && text.contains("added"));
        assert!(text.contains("0 regression(s)"));
        // The explicit coverage-delta summary, not just table rows.
        assert!(text.contains("benchmarks added (1): k/new"), "{text}");
        assert!(text.contains("benchmarks removed (1): k/old"), "{text}");
        assert_eq!(d.added().count(), 1);
        assert_eq!(d.removed().count(), 1);
    }

    #[test]
    fn unchanged_suites_emit_no_coverage_summary() {
        let baseline = vec![row("k/a", 100.0)];
        let current = vec![row("k/a", 101.0)];
        let text = diff(&baseline, &current, 1.25).render();
        assert!(!text.contains("benchmarks added"), "{text}");
        assert!(!text.contains("benchmarks removed"), "{text}");
    }

    #[test]
    fn generous_threshold_tolerates_noise() {
        // The CI bench-quick job runs with a 3x threshold: a 2.5x wobble on
        // a shared runner passes, a 4x real regression does not.
        let baseline = vec![row("k/a", 100.0), row("k/b", 100.0)];
        let current = vec![row("k/a", 250.0), row("k/b", 400.0)];
        let d = diff(&baseline, &current, 3.0);
        let slow: Vec<&str> = d.regressions().map(|r| r.bench.as_str()).collect();
        assert_eq!(slow, vec!["k/b"]);
    }

    #[test]
    fn ab_rows_summarize_the_pairs() {
        let parent = |x: f64| vec![row("k/a", 100.0), row("k/b", x)];
        let change = |a: f64| vec![row("k/a", a), row("k/new", 1.0)];
        let pairs = vec![
            (parent(10.0), change(90.0)),
            (parent(10.0), change(80.0)),
            (parent(10.0), change(110.0)),
            (parent(10.0), change(95.0)),
        ];
        let rows = ab(&pairs);
        assert_eq!(rows.len(), 2, "{rows:?}");
        let a = &rows[0];
        assert_eq!(a.bench, "k/a");
        assert_eq!(a.ratios, vec![0.9, 0.8, 1.1, 0.95]);
        assert_eq!(a.lower(), 3);
        // statistics.quantiles([0.8, 0.9, 0.95, 1.1], n=4):
        // [0.825, 0.925, 1.0625].
        assert!((a.median().unwrap() - 0.925).abs() < 1e-12);
        assert!((a.iqr().unwrap() - 0.2375).abs() < 1e-12);
        // A benchmark the change dropped has no ratios and no summary.
        assert_eq!((rows[1].bench.as_str(), rows[1].ratios.len()), ("k/b", 0));
        assert_eq!((rows[1].median(), rows[1].iqr()), (None, None));
        let text = render_ab(&rows);
        assert!(text.contains("0.925x") && text.contains("3/4"), "{text}");
        assert!(!text.contains("k/new"), "{text}");
    }

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5].
        assert_eq!(quartiles(&[3.0, 1.0]), Some([0.5, 2.0, 3.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    #[should_panic(expected = "threshold must be a finite ratio >= 1")]
    fn rejects_sub_unit_threshold() {
        diff(&[], &[], 0.5);
    }
}
