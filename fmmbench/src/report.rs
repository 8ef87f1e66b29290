//! Metric names, units and the result line.
//!
//! The end-to-end list is what the timed run (`--trace 0`) prints for
//! every workload; the per-layer list is what the traced run (`--trace 1`)
//! prints. Both must match `BENCHMARK.json` (a test checks this).

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("gflops_eq_norm", "GFLOP/s"),
    ("lat_p50_ms_lo", "ms"),
    ("lat_p99_ms_lo", "ms"),
    ("lat_p50_ms_hi", "ms"),
    ("lat_p99_ms_hi", "ms"),
    ("max_rate_jobs_s", "jobs/s"),
    ("words_per_rank_max", "words"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics: `(name, unit)`. A workload that does not run (or
/// does not span) a layer reports that layer's metrics as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.probe_ms", "ms"),
    ("host.probe_spread", "frac"),
    ("host.gflops_eq_raw", "GFLOP/s"),
    ("trace.overhead_frac", "frac"),
    ("arena.encode_a_ms.l0", "ms"),
    ("arena.encode_a_ms.l1", "ms"),
    ("arena.encode_a_ms.l2", "ms"),
    ("arena.encode_b_ms.l0", "ms"),
    ("arena.encode_b_ms.l1", "ms"),
    ("arena.encode_b_ms.l2", "ms"),
    ("arena.decode_ms.l0", "ms"),
    ("arena.decode_ms.l1", "ms"),
    ("arena.decode_ms.l2", "ms"),
    ("arena.fill_ms", "ms"),
    ("arena.pad_ms", "ms"),
    ("arena.outside_kernel_frac", "frac"),
    ("arena.words_computed", "words"),
    ("pack.leaf_ms", "ms"),
    ("pack.leaf_gflops", "GFLOP/s"),
    ("pack.leaf_calls", "count"),
    ("pack.gemm_gflops", "GFLOP/s"),
    ("seq.speedup_vs_gemm", "x"),
    ("parallel.plan_us", "us"),
    ("parallel.bfs_levels", "count"),
    ("parallel.speedup_vs_seq", "x"),
    ("parallel.efficiency", "frac"),
    ("serve.submit_us_p50", "us"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.service_ms_p99", "ms"),
    ("serve.queue_depth_p99", "jobs"),
    ("serve.rejected_frac", "frac"),
    ("ser.encode_request_us", "us"),
    ("ser.decode_request_us", "us"),
    ("ser.encode_response_us", "us"),
    ("ser.decode_response_us", "us"),
    ("ser.bytes_per_request", "bytes"),
    ("parsim.msgs_per_rank_max", "count"),
    ("parsim.words_imbalance", "x"),
    ("parsim.flops_per_rank_max", "flops"),
    ("parsim.mem_hw_words_max", "words"),
    ("parsim.plan_us", "us"),
    ("parsim.critical_path_s", "model_s"),
    ("parsim.comm_model_s", "model_s"),
    ("parsim.compute_model_s", "model_s"),
    ("parsim.idle_model_s", "model_s"),
    ("parsim.words_vs_floor", "x"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Metric values a workload produced, keyed by name.
#[derive(Clone, Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Set `name` (which must be in one of the lists) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "unlisted metric {name}");
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operation counts and named check failures.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed multiplies, requests, distributed runs).
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// Set-up checks that failed (these make the run incorrect without
    /// being operations).
    pub setup_failures: u64,
}

impl Outcome {
    /// Count one operation whose checks produced `failures` (printed by
    /// name to stderr).
    pub fn op(&mut self, failures: &[(&str, String)]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
        }
        for (name, detail) in failures {
            eprintln!("check failed: {name}: {detail}");
        }
    }

    /// Record a set-up check.
    pub fn setup_check(&mut self, name: &str, result: Result<(), String>) {
        if let Err(detail) = result {
            self.setup_failures += 1;
            eprintln!("check failed: {name}: {detail}");
        }
    }

    /// Verified operations over attempted ones.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.setup_failures == 0
    }
}

/// Format `{"name": {"value": v, "unit": u}, ...}` for `list`, taking
/// values from `metrics`. End-to-end metrics must all be present and
/// finite; per-layer metrics a workload did not produce print as 0.
pub fn metrics_json(
    metrics: &Metrics,
    list: &[(&str, &str)],
    fill_zero: bool,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let v = match metrics.get(name) {
            Some(v) => v,
            None if fill_zero => 0.0,
            None => return Err(format!("metric {name} was not measured")),
        };
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", parts.join(", ")))
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics_json}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    )
}
