//! The `sea-serve` daemon: parse flags, bind, supervise, drain on signal.

// `!(x > 0.0)` deliberately treats NaN as invalid input (same as sea-cli).
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use sea_batch::BatchParallelism;
use sea_core::KernelKind;
use sea_serve::{
    signals, BreakerPolicy, ChaosPlan, QuarantinePolicy, ServeConfig, Server, EXIT_CLEAN,
    EXIT_RUNTIME, EXIT_USAGE,
};
use std::time::Duration;

/// Parse `N:SECONDS` (count, window) — the shared grammar of
/// `--quarantine` and `--restart-breaker`.
fn parse_threshold(value: &str) -> Option<(usize, f64)> {
    let (n, secs) = value.split_once(':')?;
    let n = n.parse::<usize>().ok().filter(|&n| n >= 1)?;
    let secs = secs
        .parse::<f64>()
        .ok()
        .filter(|&s| s > 0.0 && s.is_finite())?;
    Some((n, secs))
}

const USAGE: &str = "\
sea-serve: long-running HTTP solve service over the SEA solvers

USAGE:
  sea-serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
            [--tenant-quota N|off] [--cache-bytes N|off] [--epsilon F]
            [--degraded-epsilon F|off] [--max-iterations N]
            [--kernel sortscan|quickselect] [--simd auto|off|force]
            [--parallel serial|inner[:K]]
            [--deadline SECONDS|off] [--max-body-bytes N]
            [--quarantine N:SECONDS|off] [--restart-breaker N:SECONDS]
            [--chaos SPEC]

FLAGS:
  --addr HOST:PORT     bind address              (default 127.0.0.1:7878)
  --workers N          solver worker threads     (default: cpu count, max 8)
  --queue-depth N      admission queue capacity  (default 64; full => 429)
  --tenant-quota N|off per-tenant queued-job cap (default off; at quota => 429)
  --cache-bytes N|off  warm-start cache budget   (default 67108864; off = unbounded)
  --epsilon F          default stop tolerance    (default 1e-8)
  --degraded-epsilon F|off
                       looser tolerance accepted when the deadline fires:
                       answers 200 with \"degraded\":true instead of 504
                       (default off)
  --max-iterations N   iteration cap per solve   (default 10000)
  --kernel NAME        equilibration kernel      (default quickselect)
  --simd POLICY        kernel SIMD policy        (default auto; off = scalar
                       oracle, force = fail fast when the CPU lacks AVX2)
  --parallel POLICY    per-solve threads         (default serial)
  --deadline S|off     default request deadline  (default 30; off = unbounded)
  --max-body-bytes N   request body cap          (default 8388608; over => 413)
  --quarantine N:SECONDS|off
                       circuit-break a family after N consecutive poison
                       solves for SECONDS (default 3:10; off disables)
  --restart-breaker N:SECONDS
                       /readyz goes 503 after N worker respawns within
                       SECONDS (default 5:60)
  --chaos SPEC         scripted service faults, e.g. crash@3,panic@6-8,
                       nan@12,cachecorrupt@15 (default: none; drills only)

ROUTES:
  POST /solve    one JSON instance object -> one JSON result line
  POST /batch    JSONL manifest           -> JSONL result lines
  GET  /metrics  Prometheus text exposition
  GET  /healthz  liveness   GET /readyz  readiness (503 while draining
                 or during a worker restart storm)

EXIT CODES:
  0  clean drain after SIGTERM/SIGINT (all admitted solves finished)
  1  runtime failure (bind error, worker pool failure)
  2  usage error
";

fn parse_config(args: &[String]) -> Result<ServeConfig, String> {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServeConfig::default()
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Err(String::new());
        }
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag:?}"));
        };
        let value = it
            .next()
            .ok_or_else(|| format!("--{name} requires a value"))?;
        match name {
            "addr" => cfg.addr = value.clone(),
            "workers" => {
                cfg.workers = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--workers {value:?} is not a positive integer"))?;
            }
            "queue-depth" => {
                cfg.queue_capacity = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--queue-depth {value:?} is not a positive integer"))?;
            }
            "cache-bytes" => {
                cfg.cache_bytes = if value == "off" {
                    None
                } else {
                    Some(value.parse::<usize>().map_err(|_| {
                        format!("--cache-bytes {value:?} is not a byte count or \"off\"")
                    })?)
                };
            }
            "epsilon" => {
                let eps: f64 = value
                    .parse()
                    .map_err(|_| format!("--epsilon {value:?} is not a number"))?;
                if !(eps > 0.0) {
                    return Err("--epsilon must be strictly positive".to_string());
                }
                cfg.epsilon = eps;
            }
            "max-iterations" => {
                cfg.max_iterations =
                    value
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            format!("--max-iterations {value:?} is not a positive integer")
                        })?;
            }
            "kernel" => {
                cfg.kernel = KernelKind::parse(value).ok_or_else(|| {
                    format!("unknown --kernel {value:?} (expected sortscan or quickselect)")
                })?;
            }
            "simd" => {
                cfg.simd = sea_core::SimdMode::parse(value).ok_or_else(|| {
                    format!("unknown --simd {value:?} (expected auto, off, or force)")
                })?;
            }
            "parallel" => {
                let policy = BatchParallelism::parse(value).ok_or_else(|| {
                    format!("unknown --parallel {value:?} (expected serial or inner[:K])")
                })?;
                if matches!(policy, BatchParallelism::OuterThreads(_)) {
                    return Err("--parallel outer is not meaningful here: instance-level \
                         concurrency comes from --workers"
                        .to_string());
                }
                cfg.parallelism = policy;
            }
            "deadline" => {
                cfg.default_deadline = if value == "off" {
                    None
                } else {
                    let secs: f64 = value
                        .parse()
                        .map_err(|_| format!("--deadline {value:?} is not seconds or \"off\""))?;
                    if !(secs > 0.0) {
                        return Err("--deadline must be strictly positive".to_string());
                    }
                    Some(Duration::from_secs_f64(secs))
                };
            }
            "max-body-bytes" => {
                cfg.max_body_bytes = value
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--max-body-bytes {value:?} is not a byte count"))?;
            }
            "tenant-quota" => {
                cfg.tenant_quota =
                    if value == "off" {
                        None
                    } else {
                        Some(value.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(
                        || format!("--tenant-quota {value:?} is not a positive integer or \"off\""),
                    )?)
                    };
            }
            "degraded-epsilon" => {
                cfg.degraded_epsilon = if value == "off" {
                    None
                } else {
                    let eps: f64 = value
                        .parse()
                        .map_err(|_| format!("--degraded-epsilon {value:?} is not a number"))?;
                    if !(eps > 0.0) {
                        return Err("--degraded-epsilon must be strictly positive".to_string());
                    }
                    Some(eps)
                };
            }
            "quarantine" => {
                cfg.quarantine = if value == "off" {
                    None
                } else {
                    let (strikes, secs) = parse_threshold(value).ok_or_else(|| {
                        format!("--quarantine {value:?} is not N:SECONDS or \"off\"")
                    })?;
                    Some(QuarantinePolicy {
                        strikes,
                        cooldown: Duration::from_secs_f64(secs),
                    })
                };
            }
            "restart-breaker" => {
                let (max_restarts, secs) = parse_threshold(value)
                    .ok_or_else(|| format!("--restart-breaker {value:?} is not N:SECONDS"))?;
                cfg.breaker = BreakerPolicy {
                    max_restarts,
                    window: Duration::from_secs_f64(secs),
                };
            }
            "chaos" => {
                cfg.chaos = ChaosPlan::parse(value).map_err(|e| format!("--chaos: {e}"))?;
            }
            other => return Err(format!("unknown flag --{other}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_config(&args) {
        Ok(cfg) => cfg,
        Err(msg) if msg.is_empty() => {
            print!("{USAGE}");
            std::process::exit(EXIT_CLEAN);
        }
        Err(msg) => {
            eprintln!("sea-serve: {msg}");
            eprint!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };

    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sea-serve: bind failed: {e}");
            std::process::exit(EXIT_RUNTIME);
        }
    };
    eprintln!("sea-serve: listening on {}", server.addr());
    signals::install();

    while !signals::stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("sea-serve: draining");
    server.shutdown();
    server.join();
    eprintln!("sea-serve: drained cleanly");
    std::process::exit(EXIT_CLEAN);
}
