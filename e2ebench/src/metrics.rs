//! The metric catalogue and the per-run metric set.
//!
//! The tables here are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run reports every [`END_TO_END`] metric, a traced run every
//! [`PER_LAYER`] metric, and a unit test keeps the two files in step.

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload gives `p50_ref` the meaning of its own unit of work, timed in
/// units of the reference job (`yardstick.rs`; README: "End-to-end
/// metrics").
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_ref", "ratio"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with tracing on. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // end-to-end candidates too noisy to bound (README: "Demoted"), and
    // the reference job they would be divided by
    ("e2e.p50_us", "us"),
    ("e2e.throughput_per_s", "1/s"),
    ("e2e.p90_us", "us"),
    ("ref.job_us", "us"),
    // engine
    ("engine.closedloop.wave_ms", "ms"),
    ("engine.closedloop.per_slot_us", "us"),
    ("engine.fleet.woken_per_slot", "count"),
    ("engine.fleet.skip_ratio", "ratio"),
    ("engine.report.completed_ratio", "ratio"),
    // core
    ("core.decide_us.fixed.h20", "us"),
    ("core.decide_us.fixed.h200", "us"),
    ("core.decide_us.percentile.h20", "us"),
    ("core.decide_us.percentile.h200", "us"),
    ("core.decide_us.optimal_persistent.h20", "us"),
    ("core.decide_us.optimal_persistent.h200", "us"),
    // exec
    ("exec.speedup_2t", "ratio"),
    // market
    ("market.set.step_us.p50", "us"),
    ("market.set.step_us.p99", "us"),
    ("market.step_imbalance", "ratio"),
    ("market.submit_ns", "ns"),
    ("market.od_churn_us", "us"),
    ("market.reclaims_per_slot", "count"),
    ("market.fresh_evictions_per_slot", "count"),
    ("market.parked_restarts_per_slot", "count"),
    ("market.started_per_slot", "count"),
    ("market.interrupted_per_slot", "count"),
    ("market.utilization", "ratio"),
    ("market.od_reject_ratio", "ratio"),
    ("market.capacity_binding_ratio", "ratio"),
    ("market.setup.submit_wave_ms", "ms"),
    ("market.setup.first_auction_ms", "ms"),
    ("market.slot_p99_us", "us"),
    // tracing itself
    ("trace.overhead_ratio", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// The value, as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
    /// Samples behind a percentile or median, when it is one.
    pub samples: Option<usize>,
}

/// The metrics one run reports, in catalogue order once completed.
#[derive(Debug, Clone, Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Sets catalogue metric `name`.
    ///
    /// # Panics
    ///
    /// If `name` is in neither catalogue — a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        self.0.retain(|m| m.name != name);
        self.0.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics of `catalogue`, in its order; a metric the run did not
    /// set reads 0 (its layer is not on this workload's path).
    pub fn completed(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<Metric> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                self.0
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or(Metric {
                        name,
                        value: 0.0,
                        unit,
                        samples: None,
                    })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotbid_json::{from_str, Json};

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.field(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m.field("name").and_then(Json::as_str).unwrap().to_string(),
                    m.field("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.field("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn unset_layers_read_zero_in_catalogue_order() {
        let mut m = Metrics::default();
        m.set("setup_s", 2.0, Some(5));
        m.set("p50_ref", 1.0, None);
        m.set("setup_s", 3.0, Some(7));
        let done = m.completed(END_TO_END);
        let names: Vec<&str> = done.iter().map(|m| m.name).collect();
        assert_eq!(names, ["p50_ref", "peak_heap_mb", "setup_s"]);
        assert_eq!(done[1].value, 0.0);
        assert_eq!(done[2].value, 3.0);
        assert_eq!(done[2].samples, Some(7));
    }
}
