//! Metric names, units, and the run's printed result.
//!
//! Every run prints its metrics one per line (`metric <name> <value>
//! <unit>`), then, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An untraced run's
//! `metrics` hold every end-to-end metric; a traced run's hold every
//! per-layer metric, reading 0 for a layer the workload does not call.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports, with units. What an
/// operation and an item are is defined per workload (see README.md).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("items_per_s", "1/s"),
    ("joules_per_item", "J"),
    ("goodput", "share"),
];

/// The paper's kernels, as named in per-layer metrics.
pub const KERNELS: [&str; 6] = ["sobel", "dct", "mc", "kmeans", "jacobi", "fluidanimate"];

/// Per-kernel metric suffixes and units.
const KERNEL_FIELDS: [(&str, &str); 6] = [
    ("makespan_s", "s"),
    ("busy_core_s", "s"),
    ("accurate", "count"),
    ("approximate", "count"),
    ("dropped", "count"),
    ("quality", "score"),
];

/// Per-layer metrics besides the per-kernel ones, with units.
const LAYERS: [(&str, &str); 52] = [
    ("runtime.spawn_ns.single", "ns"),
    ("runtime.spawn_ns.batch", "ns"),
    ("runtime.wait_us", "us"),
    ("runtime.steals", "1/item"),
    ("runtime.busy_share", "share"),
    ("policy.buffer_flushes", "1/item"),
    ("policy.ratio_dev", "share"),
    ("policy.inversion_pct", "%"),
    ("deps.wavefront_tasks_per_s", "1/s"),
    ("deps.fast_path_reads", "1/item"),
    ("env.dispatch_ns", "ns"),
    ("env.record_ns", "ns"),
    ("env.frequency_transitions", "1/item"),
    ("env.scaled_tasks", "1/item"),
    ("energy.dynamic_j", "J"),
    ("energy.static_j", "J"),
    ("energy.idle_j", "J"),
    ("budget.observe_ns", "ns"),
    ("budget.final_austerity", "share"),
    ("admission.decide_ns", "ns"),
    ("admission.downgraded", "count"),
    ("admission.shed", "count"),
    ("sketch.record_ns", "ns"),
    ("sketch.merge_ns", "ns"),
    ("server.offer_us", "us"),
    ("server.poll_us", "us"),
    ("server.polls", "count"),
    ("server.in_flight_mean", "count"),
    ("server.retries", "count"),
    ("server.offer_lag_p99_us", "us"),
    ("dispatch.route_ns.n6", "ns"),
    ("dispatch.route_ns.n384", "ns"),
    ("cap.observe_ns", "ns"),
    ("sim.run_s", "s"),
    ("sim.routes", "count"),
    ("sim.retries", "count"),
    ("sim.lost_to_crash", "count"),
    ("sim.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("self_s.bench", "s"),
    ("self_s.kernel", "s"),
    ("self_s.runtime", "s"),
    ("self_s.deps", "s"),
    ("self_s.env", "s"),
    ("self_s.budget", "s"),
    ("self_s.admission", "s"),
    ("self_s.sketch", "s"),
    ("self_s.server", "s"),
    ("self_s.dispatch", "s"),
    ("self_s.cap", "s"),
    ("self_s.sim", "s"),
];

/// Every per-layer metric, in output order, with units.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYERS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for kernel in KERNELS {
        for (field, unit) in KERNEL_FIELDS {
            all.push((format!("kernel.{kernel}.{field}"), unit));
        }
    }
    all
}

/// The workload-independent end-to-end figures a workload measures
/// (`peak_rss_mb` is read in `main`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub items_per_s: f64,
    pub joules_per_item: f64,
    pub goodput: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checked operations.
    pub attempted: u64,
    /// Checked operations whose check failed.
    pub failed: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
    pub end_to_end: EndToEnd,
    /// Workload-specific metrics, printed by name before the result line.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics the traced pass measured.
    pub layers: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one checked operation; record `message` if the check failed.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(message());
            }
        }
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }
}

/// Render the result line. Values are printed with every digit Rust's
/// shortest round-trip formatting gives; a non-finite value makes the run
/// incorrect, since JSON cannot carry it.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> (bool, String) {
    let mut correct = correct;
    let mut body = String::new();
    for (index, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() {
            *value
        } else {
            correct = false;
            0.0
        };
        if index > 0 {
            body.push_str(", ");
        }
        write!(
            body,
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String cannot fail");
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{body}}}}}"
    );
    (correct, line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let metrics = vec![
            ("setup_s".to_string(), 0.5, "s"),
            ("goodput".to_string(), 1.0, "share"),
        ];
        let (correct, line) = result_line(true, 3, 0, &metrics);
        assert!(correct);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"goodput\": {\"value\": 1.0, \"unit\": \"share\"}}}"
        );
        let (correct, _) = result_line(true, 1, 0, &[("x".to_string(), f64::NAN, "s")]);
        assert!(!correct);
    }

    #[test]
    fn metric_names_are_unique_and_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let layers = per_layer();
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(layers.iter().map(|(n, _)| n.as_str()));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "metric names repeat");
        assert!(layers.len() <= 128);
        for (name, unit) in END_TO_END
            .iter()
            .copied()
            .chain(layers.iter().map(|(n, u)| (n.as_str(), *u)))
        {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 4;
        assert_eq!(
            json.matches("\"name\":").count(),
            workloads + names.len(),
            "BENCHMARK.json names metrics the benchmark does not emit"
        );
    }
}
