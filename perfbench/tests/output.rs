//! Runs the built benchmark on every workload and checks its output: exit
//! status, the result line, and every metric name the benchmark promises.
//! Slow (it solves the real workloads), so ignored by default:
//! `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored`.

use std::process::Command;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Metric names of one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<String> {
    let body = BENCHMARK
        .split(&format!("\"{section}\""))
        .nth(1)
        .expect("section");
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

/// Run one workload; returns stdout after checking the exit status.
fn run(workload: &str, trace: u8) -> String {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "3",
            "--trace",
            &trace.to_string(),
        ])
        .current_dir(&dir)
        .output()
        .expect("run the benchmark");
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace}: {}\n{stdout}",
        out.status
    );
    stdout
}

fn check_result_line(stdout: &str, names: &[String]) {
    let last = stdout.lines().last().expect("output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0, "), "{last}");
    for name in names {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
}

#[test]
#[ignore = "runs every workload for several seconds"]
fn every_workload_prints_every_metric() {
    let shown: [(&str, &[&str]); 3] = [
        ("banded_solve", &["solve_s", "iterations"]),
        ("batch_mixed", &["epoch_s", "cold_epoch_s", "iterations"]),
        ("serve_mix", &["req_p50_ms", "req_p99_ms", "req_per_s"]),
    ];
    for (workload, names) in shown {
        let stdout = run(workload, 0);
        check_result_line(&stdout, &declared("end_to_end"));
        for name in names.iter().chain(&["setup_s", "fail_frac", "peak_rss_mb"]) {
            assert!(
                stdout.contains(&format!("metric {name} = ")),
                "{workload}: {name} not printed"
            );
        }
        for record in ["machine nproc=", "defaults workload=", "options workload="] {
            assert!(stdout.contains(record), "{workload}: no {record} line");
        }
        check_result_line(&run(workload, 1), &declared("per_layer"));
    }
}
