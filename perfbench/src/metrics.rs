//! The metric registry: every name the result line carries, with its
//! unit, in the order `BENCHMARK.json` lists them.

use crate::report::Report;

pub const WORKLOADS: [&str; 3] = ["banded_solve", "batch_mixed", "serve_mix"];

/// End-to-end metrics (`--trace 0`). Every workload reports all five; the
/// unit operation is the workload's own: a solve to a passing certificate
/// (`banded_solve`), a warm `solve_batch` epoch (`batch_mixed`), a request
/// (`serve_mix`, where `op_ms` and `ops_per_s` count the server's CPU time,
/// not wall time).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("iterations", "count"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rayon.empty_drive_us", "us"),
    ("membw.triad_gbps", "GB/s"),
    ("knapsack.ns_per_breakpoint", "ns"),
    ("knapsack.calls_per_solve", "count"),
    ("equilibrate.row_pass_ns_per_nnz", "ns"),
    ("equilibrate.col_pass_ns_per_nnz", "ns"),
    ("equilibrate.serial_pass_ns_per_nnz", "ns"),
    ("equilibrate.parallel_speedup", "ratio"),
    ("equilibrate.bytes_per_nnz_computed", "bytes"),
    ("equilibrate.floor_frac", "ratio"),
    ("equilibrate.small_pass_us.serial", "us"),
    ("equilibrate.small_pass_us.rayon", "us"),
    ("solver.epoch_ms", "ms"),
    ("solver.non_pass_frac", "ratio"),
    ("verify.certificate_ms", "ms"),
    ("interval.solve_ms", "ms"),
    ("interval.iterations", "count"),
    ("general.solve_ms", "ms"),
    ("general.outer_iterations", "count"),
    ("batch.warm_hit_frac", "ratio"),
    ("batch.work_saved_frac", "ratio"),
    ("batch.outer_busy_frac", "ratio"),
    ("batch.evictions", "count"),
    ("observe.metrics_overhead_frac", "ratio"),
    ("observe.vec_overhead_frac", "ratio"),
    ("serve.http_parse_us.small", "us"),
    ("serve.http_parse_us.large", "us"),
    ("serve.body_parse_us.small", "us"),
    ("serve.body_parse_us.large", "us"),
    ("serve.solve_us.small", "us"),
    ("serve.solve_us.large", "us"),
    ("serve.serialize_us.small", "us"),
    ("serve.serialize_us.large", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.unaccounted_us", "us"),
    ("serve.warm_hit_frac", "ratio"),
    ("serve.refused", "count"),
    ("trace.overhead_frac", "ratio"),
    ("serve.generator_late_ms", "ms"),
];

/// Figures printed by name (one `metric` line each) before the result
/// line of an untraced run, per workload, beyond the registry.
pub const SHOWN: &[(&str, &[&str])] = &[
    (
        "banded_solve",
        &[
            "solve_s",
            "iterations",
            "setup_s",
            "fail_frac",
            "peak_rss_mb",
        ],
    ),
    (
        "batch_mixed",
        &[
            "epoch_s",
            "cold_epoch_s",
            "iterations",
            "setup_s",
            "fail_frac",
            "peak_rss_mb",
        ],
    ),
    (
        "serve_mix",
        &[
            "req_p50_ms",
            "req_p99_ms",
            "req_per_s",
            "server_cpu_ms_per_req",
            "iterations",
            "setup_s",
            "fail_frac",
            "peak_rss_mb",
        ],
    ),
];

/// The first name in [`SHOWN`] for `workload` that no `metric` line
/// carries.
pub fn missing_shown(workload: &str, lines: &[String]) -> Option<&'static str> {
    let names = SHOWN.iter().find(|(w, _)| *w == workload)?.1;
    names.iter().copied().find(|n| {
        !lines
            .iter()
            .any(|l| l.starts_with(&format!("metric {n} = ")))
    })
}

/// What each workload sets; every other option is the library default.
pub fn options(workload: &str) -> String {
    match workload {
        "banded_solve" => format!(
            "n={} half_bandwidth={} storage=csr epsilon={:e} parallelism=rayon threads={}",
            crate::inputs::BANDED_N,
            crate::inputs::BANDED_HB,
            crate::banded::EPSILON,
            rayon::current_num_threads()
        ),
        "batch_mixed" => format!(
            "parallelism=outer threads={} families={}x(diagonal {}x{}, bounded {}x{}, general table7 rows={})",
            rayon::current_num_threads(),
            crate::inputs::BATCH_FAMILIES,
            crate::inputs::BATCH_DIAG_N,
            crate::inputs::BATCH_DIAG_N,
            crate::inputs::BATCH_BOX_N,
            crate::inputs::BATCH_BOX_N,
            crate::inputs::BATCH_GENERAL_ROWS
        ),
        _ => format!(
            "config=ServeConfig::default() conns={} open_rate={} req/s",
            crate::serve::conns(),
            crate::serve::OPEN_RATE
        ),
    }
}

/// The result line: one JSON object with every registry metric. A metric
/// missing or not finite is a benchmark bug, reported as an error.
pub fn result_line(r: &Report, registry: &[(&str, &str)]) -> Result<String, String> {
    let mut fields = Vec::new();
    for (name, unit) in registry {
        let v = *r
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    let o = r.outcome;
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.wrong == 0,
        o.attempted,
        o.failed,
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end figures the benchmark promises to print by name.
    const REQUESTED_END_TO_END: [&str; 10] = [
        "setup_s",
        "solve_s",
        "iterations",
        "epoch_s",
        "cold_epoch_s",
        "req_p50_ms",
        "req_p99_ms",
        "req_per_s",
        "fail_frac",
        "peak_rss_mb",
    ];

    fn shown(name: &str) -> bool {
        SHOWN.iter().any(|(_, names)| names.contains(&name))
    }

    #[test]
    fn every_requested_metric_is_reported() {
        for name in REQUESTED_END_TO_END {
            assert!(shown(name), "{name} is not printed by any workload");
        }
        for (_, names) in SHOWN {
            for name in ["setup_s", "fail_frac", "peak_rss_mb"] {
                assert!(
                    names.contains(&name),
                    "{name} must be printed by every workload"
                );
            }
        }
    }

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        let get = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (get(obj, "name"), get(obj, "unit")))
            .collect()
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let names = |reg: &[(&str, &str)]| {
            reg.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
        let workloads: Vec<String> = include_str!("../../BENCHMARK.json")
            .split("\"workloads\"")
            .nth(1)
            .expect("workloads present")
            .split("\"name\": \"")
            .skip(1)
            .take(WORKLOADS.len())
            .map(|s| s[..s.find('"').expect("closes")].to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut r = Report::default();
        r.outcome.record(true, true);
        assert!(result_line(&r, END_TO_END).is_err());
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.e2e(name, 1.5 + i as f64);
        }
        let line = result_line(&r, END_TO_END).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"op_ms\": {\"value\": 2.5, \"unit\": \"ms\"}"));
        r.e2e("op_ms", f64::NAN);
        assert!(result_line(&r, END_TO_END).is_err());
    }
}
