//! The metric lists of `BENCHMARK.json` and the result line.
//!
//! Every workload reports every metric of the list that matches
//! `--trace`; a per-layer metric a workload does not load reads 0, which
//! is the benchmark's bypass prediction made checkable.

use std::collections::BTreeMap;

/// `(name, unit)` of each end-to-end metric, reported with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("tuples_per_s", "1/s"),
];

/// `(name, unit)` of each per-layer metric, reported with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // The paper's own numbers, kept per workload because
    // `exec_uninterrupted` and `server_mix` cannot observe them.
    ("suspend_ms_p50", "ms"),
    ("suspend_ms_p90", "ms"),
    ("resume_ms_p50", "ms"),
    ("resume_ms_p90", "ms"),
    ("query_ms_p50", "ms"),
    ("baseline_ms_p50", "ms"),
    ("overhead_ratio", "ratio"),
    ("cost_units_per_op", "units"),
    ("exec.scan_ms", "ms"),
    ("exec.scan_agg_ms", "ms"),
    ("exec.hash_join_ms", "ms"),
    ("exec.sort_ms", "ms"),
    ("exec.grace_join_ms", "ms"),
    ("exec.batch_scan_agg_ms", "ms"),
    ("exec.start_ms_p50", "ms"),
    ("exec.suspend_self_ms_p50", "ms"),
    ("exec.segment_ms_p50", "ms"),
    ("exec.rung_requested_ratio", "ratio"),
    ("exec.dump_ops_ratio", "ratio"),
    ("core.optimize_ms_p50", "ms"),
    ("core.optimize_ms_p90", "ms"),
    ("core.est_over_actual_suspend_cost", "ratio"),
    ("mip.nodes_per_solve", "count"),
    ("mip.pivots_per_solve", "count"),
    ("mip.budget_exhausted_ratio", "ratio"),
    ("storage.exec_pages_read", "pages/op"),
    ("storage.exec_pages_written", "pages/op"),
    ("storage.suspend_pages_written", "pages/op"),
    ("storage.resume_pages_read", "pages/op"),
    ("storage.fallback_cost_units", "units/op"),
    ("storage.dump_bytes_per_suspend", "bytes"),
    ("storage.local_suspend_ms_p50", "ms"),
    ("storage.local_resume_ms_p50", "ms"),
    ("storage.pool_hit_rate", "ratio"),
    ("storage.pool_evictions", "count/op"),
    ("storage.pool_write_backs", "count/op"),
    ("server.slice_ms_p50", "ms"),
    ("server.slice_ms_p99", "ms"),
    ("server.admit_ms_p50", "ms"),
    ("server.suspends_per_wave", "count"),
    ("server.resumes_per_wave", "count"),
    ("server.resume_retries", "count"),
    ("server.suspend_cost_units_p50", "units"),
    ("server.resume_cost_units_p50", "units"),
    ("server.cost_units_per_wave", "units"),
    ("server.sla_misses", "count"),
    ("server.shed_sessions", "count"),
    ("server.worker_busy_ratio", "ratio"),
    ("workload.generate_rows_per_s", "1/s"),
    ("bench.op_ms_p50", "ms"),
    ("bench.op_samples", "count"),
    ("bench.peak_rss_mb", "MB"),
    ("bench.uncovered_job_share", "ratio"),
];

/// Values by metric name, with the number of samples behind each.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, (f64, usize)>);

impl Metrics {
    /// Record `value`, measured over `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in a metric list"
        );
        self.0.insert(name, (value, samples));
    }

    /// The value recorded for `name`, 0 when the workload did not load it.
    pub fn get(&self, name: &str) -> (f64, usize) {
        self.0.get(name).copied().unwrap_or((0.0, 0))
    }

    /// `"name": {"value": v, "unit": "u"}` for each metric of `list`.
    pub fn json_object(&self, list: &[(&str, &str)]) -> String {
        let fields: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(name),
                    json_number(self.get(name).0),
                    json_string(unit)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// One aligned line per metric of `list`: name, value, unit, samples.
    pub fn table(&self, list: &[(&str, &str)]) -> String {
        list.iter()
            .map(|(name, unit)| {
                let (v, n) = self.get(name);
                format!("  {name:<36} {v:>16.4} {unit:<9} n={n}\n")
            })
            .collect()
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    list: &[(&str, &str)],
) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.json_object(list)
    )
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit of `v`; JSON has no NaN or infinity, so
/// those read 0.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.8127, 3);
        m.set("op_ms_p50", 1.2034567891, 40);
        let line = result_line(40, 0, &m, &END_TO_END[..2]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"op_ms_p50\": {\"value\": 1.2034567891, \"unit\": \"ms\"}}}"
        );
        assert!(result_line(40, 1, &m, END_TO_END).starts_with("{\"correct\": false"));
    }

    #[test]
    fn an_unloaded_metric_reads_zero() {
        let m = Metrics::default();
        assert_eq!(
            m.json_object(&[("core.optimize_ms_p50", "ms")]),
            "{\"core.optimize_ms_p50\": {\"value\": 0, \"unit\": \"ms\"}}"
        );
    }

    #[test]
    fn strings_are_escaped_and_non_finite_numbers_read_zero() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(f64::INFINITY), "0");
        assert_eq!(json_number(12.5), "12.5");
    }

    /// `BENCHMARK.json` is what the driver reads; the lists above are what
    /// the program prints. They must name the same metrics and units.
    #[test]
    fn lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": ");
            assert_eq!(text.matches(&entry).count(), 1, "{name} ({unit})");
        }
        assert_eq!(
            text.matches("\"unit\": ").count(),
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the program does not print"
        );
    }
}
