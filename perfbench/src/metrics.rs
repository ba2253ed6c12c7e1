//! The metric table (names and units) and the run report.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with their
//! directions and bounds; the smoke test fails when the two disagree, and
//! `compare` reads directions and bounds from it.

use std::fmt::Write as _;

/// Schema tag of the full report line; bump it when a metric's meaning
/// changes so `compare` refuses to mix incompatible runs.
pub const SCHEMA: &str = "srra-perfbench/1";

/// End-to-end metrics (name, unit): printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (name, unit): printed by every traced run.  A layer
/// the workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Paper core, timed per call over the workload's design points.
    ("reuse.analysis_ns", "ns"),
    ("dfg.build_ns", "ns"),
    ("dfg.critical_path_ns", "ns"),
    ("core.alloc_ns.none", "ns"),
    ("core.alloc_ns.fr", "ns"),
    ("core.alloc_ns.pr", "ns"),
    ("core.alloc_ns.cpa", "ns"),
    ("core.alloc_ns.ks", "ns"),
    ("core.alloc_ns.greedy", "ns"),
    ("core.replacement_plan_ns", "ns"),
    ("core.memory_cost_ns", "ns"),
    ("fpga.evaluate_ns", "ns"),
    ("fpga.schedule_ns", "ns"),
    ("fpga.area_ns", "ns"),
    ("fpga.clock_ns", "ns"),
    // Explore engine.
    ("explore.store_put_ns", "ns"),
    ("explore.store_get_ns", "ns"),
    ("explore.busy_share", "ratio"),
    ("explore.infeasible_share", "ratio"),
    // Binary serving path.
    ("serve.bin_request_encode_ns", "ns"),
    ("serve.bin_request_decode_ns", "ns"),
    ("serve.bin_response_encode_ns", "ns"),
    ("serve.bin_response_decode_ns", "ns"),
    ("serve.shard_get_ns", "ns"),
    ("obs.histogram_record_ns", "ns"),
    ("obs.counter_inc_ns", "ns"),
    ("serve.server_cpu_us_per_op", "us"),
    ("serve.client_cpu_us_per_op", "us"),
    ("serve.remainder_us_per_op", "us"),
    // JSON serving path, writes and the cluster.
    ("serve.json_request_render_ns", "ns"),
    ("serve.json_request_parse_ns", "ns"),
    ("serve.json_response_render_ns", "ns"),
    ("serve.json_response_parse_ns", "ns"),
    ("serve.shard_put_ns", "ns"),
    ("cluster.route_ns", "ns"),
    ("cluster.replica_writes_per_explore", "count"),
    ("cluster.read_repairs", "count"),
    ("serve.evaluated", "count"),
    ("serve.hits", "count"),
    // Validity signals of the run itself.
    ("bench.gen_lateness_p99_us", "us"),
    ("bench.scheduled_latency_p99_us", "us"),
    ("bench.trace_overhead_pct", "%"),
    ("process.allocs_per_op", "count"),
    ("error_rate", "ratio"),
];

/// Everything one run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when every output was correct.
    pub check_failures: Vec<String>,
    /// Metric name and value, in any order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Sample counts behind the reported quantiles and medians.
    pub samples: Vec<(&'static str, u64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(held, _)| *held != name);
        self.metrics.push((name, value));
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(held, _)| *held == name)
            .map(|&(_, v)| v)
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let failure = what();
            if !self.check_failures.contains(&failure) {
                self.check_failures.push(failure);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(held, _)| *held == name)
        .map(|&(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in the metric table"))
}

pub fn json_string(out: &mut String, text: &str) {
    srra_serve::JsonValue::Text(text.to_owned()).render_into(out);
}

/// A finite number with all its digits (`{}` on f64 round-trips exactly).
pub fn json_number(out: &mut String, value: f64) {
    if value.is_finite() {
        let _ = write!(out, "{value}");
    } else {
        out.push_str("null");
    }
}

/// `{"name":{"value":v,"unit":"u"},...}` over `names`, in table order.
pub fn render_metrics(out: &mut String, outcome: &Outcome, names: &[&'static str]) {
    out.push('{');
    for (index, name) in names.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        json_string(out, name);
        out.push_str(":{\"value\":");
        json_number(out, outcome.value(name).unwrap_or(f64::NAN));
        out.push_str(",\"unit\":");
        json_string(out, unit_of(name));
        out.push('}');
    }
    out.push('}');
}
