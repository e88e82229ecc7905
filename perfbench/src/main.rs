//! The SEA benchmark: one command, three workloads, every answer checked.
//!
//! ```text
//! perfbench --workload banded_solve|batch_mixed|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the workload runs untraced and the last stdout line
//! carries the end-to-end metrics; with `--trace 1` it carries the
//! per-layer metrics from the traced run. Earlier lines record the
//! machine, the library defaults each workload resolved, and every figure
//! by name and unit. The exit code is 1 when any output was wrong.

mod banded;
mod batch;
mod inputs;
mod layers;
mod metrics;
mod report;
mod serve;
mod trace;
mod util;

use report::Report;
use sea_batch::BatchOptions;
use sea_core::{Precision, SeaOptions, SimdMode};
use sea_serve::ServeConfig;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(a: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = a.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = v.clone(),
            "--seed" => args.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?,
            "--seconds" => args.seconds = v.parse().map_err(|_| format!("bad seconds {v:?}"))?,
            "--trace" => args.trace = v == "1",
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !metrics::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}",
            metrics::WORKLOADS
        ));
    }
    Ok(args)
}

fn first_line(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn machine() -> String {
    let (llc, level) = layers::llc();
    format!(
        "machine nproc={} cpu=\"{}\" llc=L{level}:{llc} bytes rustc=\"{}\"",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        first_line("/proc/cpuinfo", "model name"),
        env!("PERFBENCH_RUSTC"),
    )
}

fn simd(mode: SimdMode) -> String {
    let level = mode.resolve().map_or("unsupported", |l| l.name());
    format!("{}->{level}", mode.name())
}

/// The library defaults the workload ran with: the benchmark names only
/// the options `metrics::options` lists.
fn defaults(workload: &str) -> String {
    match workload {
        "banded_solve" => {
            let o = SeaOptions::default();
            format!(
                "kernel={} simd={} precision={} observer=null",
                o.kernel.name(),
                simd(o.simd),
                o.precision.name()
            )
        }
        "batch_mixed" => {
            let o = BatchOptions::default();
            format!(
                "kernel={} simd={} precision={} observer=null warm_start={} cache_budget=unbounded",
                o.kernel.name(),
                simd(o.simd),
                o.precision.name(),
                o.warm_start
            )
        }
        _ => {
            let c = ServeConfig::default();
            format!(
                "kernel={} simd={} precision={} (fixed by the server) workers={} cache_budget={:?} parallelism={}",
                c.kernel.name(),
                simd(c.simd),
                Precision::F64.name(),
                c.workers,
                c.cache_bytes,
                c.parallelism.label()
            )
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--loadgen") {
        let load = serve::Load::from_args(&argv[1..]).unwrap_or_else(|| {
            eprintln!("perfbench: bad --loadgen arguments");
            std::process::exit(2);
        });
        if let Err(e) = serve::loadgen(&load) {
            eprintln!("perfbench: load generator: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });

    println!("{}", machine());
    println!(
        "defaults workload={} {}",
        args.workload,
        defaults(&args.workload)
    );
    println!(
        "options workload={} {}",
        args.workload,
        metrics::options(&args.workload)
    );
    let mut r: Report = if args.trace {
        layers::run(&args.workload, args.seed)
    } else {
        let mut r = match args.workload.as_str() {
            "banded_solve" => banded::run(args.seed, args.seconds),
            "batch_mixed" => batch::run(args.seed, args.seconds),
            _ => serve::run(args.seed, args.seconds),
        };
        // A workload that measured its own peak (serve_mix, when the load
        // ended) keeps it.
        let rss = r
            .metrics
            .get("peak_rss_mb")
            .copied()
            .unwrap_or_else(util::peak_rss_mb);
        r.e2e("peak_rss_mb", rss);
        r.show("peak_rss_mb", rss, "MB", 0);
        r
    };
    let o = r.outcome;
    r.show("fail_frac", o.fail_frac(), "ratio", o.attempted as usize);
    for line in &r.lines {
        println!("{line}");
    }
    if !args.trace {
        if let Some(name) = metrics::missing_shown(&args.workload, &r.lines) {
            eprintln!("perfbench: metric {name} was not printed");
            std::process::exit(1);
        }
    }
    let registry = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    match metrics::result_line(&r, registry) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if o.wrong > 0 {
        eprintln!("perfbench: {} wrong outputs", o.wrong);
        std::process::exit(1);
    }
}
