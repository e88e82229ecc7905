//! The traced run: per-layer figures from spans the benchmark records
//! around its own calls into each layer's public functions. Every traced
//! run measures every layer on the seed's inputs, then the named
//! workload's tracing overhead.

use crate::banded;
use crate::batch;
use crate::inputs::{batch_instances, ServeBodies};
use crate::report::{Outcome, Report};
use crate::serve::{self, Live, Load};
use crate::trace::{summary, write_jsonl, Tracer};
use crate::util::{mean, median, tail, timed};
use rayon::prelude::*;
use sea_batch::{solve_instance, BatchEngine, BatchOptions, BatchProblem, WarmStartCache};
use sea_cli::manifest::{manifest_instance, result_line};
use sea_core::equilibrate::{equilibration_pass, PassInputs};
use sea_core::{
    exact_equilibration_with, solve_diagonal_observed, DiagonalProblem, EquilibrationScratch,
    NullObserver, Parallelism, SeaOptions, SpanKind, SpanProfiler, Storage, TotalMode, TotalSpec,
    VecObserver,
};
use sea_observe::MetricsObserver;
use sea_serve::http::{read_request, write_response};
use sea_serve::ServeConfig;
use std::hint::black_box;
use std::io::{BufReader, Cursor};

/// Largest STREAM array the probe allocates, in bytes (three are live).
const TRIAD_CAP_BYTES: usize = 256 << 20;

/// Last-level cache size in bytes from sysfs (the figure `lscpu` prints),
/// with its level; `(0, 0)` when unknown.
pub fn llc() -> (usize, u32) {
    let mut best = (0usize, 0u32);
    for idx in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<usize>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<usize>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level >= best.1 {
            best = (bytes, level);
        }
    }
    best
}

/// STREAM triad `a = b + s·c` on every core: best of five, in GB/s, with
/// the per-array size used. Bytes are computed from the array sizes
/// (24 per element, no write-allocate traffic counted).
pub fn triad() -> (f64, usize) {
    let bytes = (4 * llc().0).clamp(64 << 20, TRIAD_CAP_BYTES);
    let n = bytes / 8;
    let threads = rayon::current_num_threads().max(1);
    let chunk = n.div_ceil(threads);
    let (mut a, b, c) = (vec![0.0f64; n], vec![1.0f64; n], vec![2.0f64; n]);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let (_, dt) = timed(|| {
            std::thread::scope(|s| {
                for ((a, b), c) in a
                    .chunks_mut(chunk)
                    .zip(b.chunks(chunk))
                    .zip(c.chunks(chunk))
                {
                    s.spawn(move || {
                        for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                            *a = b + 3.0 * c;
                        }
                    });
                }
            })
        });
        black_box(&a);
        best = best.max(24.0 * n as f64 / dt / 1e9);
    }
    (best, bytes)
}

/// Spans of the serve-path probe, small then large body: HTTP framing,
/// body parse, warm solve, and `result_line` + `write_response`.
const SERVE_SPANS: [[&str; 4]; 2] = [
    [
        "http::read_request.small",
        "manifest_instance.small",
        "solve_instance.small",
        "result_line+write_response.small",
    ],
    [
        "http::read_request.large",
        "manifest_instance.large",
        "solve_instance.large",
        "result_line+write_response.large",
    ],
];
const SERVE_METRICS: [[&str; 4]; 2] = [
    [
        "serve.http_parse_us.small",
        "serve.body_parse_us.small",
        "serve.solve_us.small",
        "serve.serialize_us.small",
    ],
    [
        "serve.http_parse_us.large",
        "serve.body_parse_us.large",
        "serve.solve_us.large",
        "serve.serialize_us.large",
    ],
];

/// Row and column pass inputs of a problem at given multipliers.
struct Passes<'a, S: Storage> {
    p: &'a DiagonalProblem<S>,
    x0_t: S,
    gamma_t: S,
    lambda: Vec<f64>,
    mu: Vec<f64>,
    opts: SeaOptions,
}

impl<'a, S: Storage> Passes<'a, S> {
    fn new(p: &'a DiagonalProblem<S>, lambda: Vec<f64>, mu: Vec<f64>) -> Self {
        Passes {
            x0_t: p.x0().transposed().expect("transpose"),
            gamma_t: p.gamma().transposed().expect("transpose"),
            p,
            lambda,
            mu,
            opts: SeaOptions::default(),
        }
    }

    /// One pass (`row` or column) with the library's default kernel and
    /// SIMD policy, in a span named `name`.
    fn pass(&self, tr: &Tracer, name: &'static str, row: bool, par: Parallelism) {
        let TotalSpec::Fixed { s0, d0 } = self.p.totals() else {
            panic!("benchmark problems have fixed totals");
        };
        let (prior, gamma, shift, totals) = if row {
            (self.p.x0(), self.p.gamma(), &self.mu, s0)
        } else {
            (&self.x0_t, &self.gamma_t, &self.lambda, d0)
        };
        let inp = PassInputs {
            prior,
            gamma,
            support: None,
            shift,
            side: if row { "row" } else { "column" },
            kernel: self.opts.kernel,
            simd: self
                .opts
                .simd
                .resolve()
                .expect("default SIMD mode resolves"),
            f32_phase: false,
            fault: None,
        };
        let m = prior.rows();
        let (mut mult, mut tot) = (vec![0.0; m], vec![0.0; m]);
        let mut x = prior.zeros_like().expect("iterate storage");
        let modes = |i: usize| TotalMode::Fixed { total: totals[i] };
        tr.span(name, || {
            equilibration_pass(
                &inp, &modes, &mut mult, &mut tot, &mut x, par, None, None, None, None,
            )
        })
        .expect("pass runs");
    }
}

pub fn run(workload: &str, seed: u64) -> Report {
    let tr = Tracer::new(true);
    let mut out = Outcome::default();
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut notes = Vec::new();
    let ns = |name: &str| median(&tr.durations(name));

    // ---- memory floor and thread pool ------------------------------------
    let (gbps, array_bytes) = triad();
    let (llc_bytes, llc_level) = llc();
    notes.push(format!(
        "triad: {array_bytes} bytes per array (3 arrays), L{llc_level} cache {llc_bytes} bytes; \
         arrays are {:.2}x the LLC (capped at {TRIAD_CAP_BYTES} bytes to bound memory)",
        array_bytes as f64 / llc_bytes.max(1) as f64
    ));
    m.push(("membw.triad_gbps", gbps));
    let lanes: Vec<usize> = (0..rayon::current_num_threads()).collect();
    for _ in 0..2000 {
        tr.span("rayon.empty_drive", || {
            lanes.par_iter().for_each(|i| {
                black_box(i);
            })
        });
    }
    m.push(("rayon.empty_drive_us", ns("rayon.empty_drive") / 1e3));

    // ---- banded problem: solve, certificate, passes, kernel --------------
    let (p, _) = banded::setup(seed, 1);
    let nnz = p.x0().stored() as f64;
    let (rows, cols) = (p.m(), p.n());
    let solved = banded::solve_and_verify(&p, &tr);
    out.record(solved.certified, solved.certified || !solved.converged);
    let iters = solved.iterations as f64;
    let passes = Passes::new(
        &p,
        solved.solution.lambda.clone(),
        solved.solution.mu.clone(),
    );
    let kinds = [
        ("equilibration_pass.row.rayon", true, Parallelism::Rayon),
        ("equilibration_pass.col.rayon", false, Parallelism::Rayon),
        ("equilibration_pass.row.serial", true, Parallelism::Serial),
        ("equilibration_pass.col.serial", false, Parallelism::Serial),
    ];
    for _ in 0..15 {
        for (name, row, par) in kinds {
            passes.pass(&tr, name, row, par);
        }
    }
    let [row_r, col_r, row_s, col_s] = kinds.map(|(name, _, _)| ns(name));
    // Streamed per pass: prior, weight and iterate values (8 bytes each)
    // and column indices (4) per stored entry, plus the row pointers, the
    // shift vector and the multiplier/total outputs.
    let bytes = 28.0 * nnz + 8.0 * (rows as f64 + 1.0) + 8.0 * cols as f64 + 16.0 * rows as f64;
    let bytes_per_nnz = bytes / nnz;
    let pass_ns_per_nnz = (row_r + col_r) / (2.0 * nnz);
    m.push(("equilibrate.row_pass_ns_per_nnz", row_r / nnz));
    m.push(("equilibrate.col_pass_ns_per_nnz", col_r / nnz));
    m.push((
        "equilibrate.serial_pass_ns_per_nnz",
        (row_s + col_s) / (2.0 * nnz),
    ));
    m.push((
        "equilibrate.parallel_speedup",
        (row_s + col_s) / (row_r + col_r),
    ));
    m.push(("equilibrate.bytes_per_nnz_computed", bytes_per_nnz));
    m.push((
        "equilibrate.floor_frac",
        bytes_per_nnz / gbps / pass_ns_per_nnz,
    ));
    let solve_ns = ns("solve_diagonal");
    m.push(("solver.epoch_ms", solve_ns / iters / 1e6));
    m.push((
        "solver.non_pass_frac",
        1.0 - iters * (row_r + col_r) / solve_ns,
    ));
    m.push(("verify.certificate_ms", ns("verify_solution") / 1e6));

    let TotalSpec::Fixed { s0, .. } = p.totals() else {
        unreachable!("banded problems have fixed totals");
    };
    let kernel = SeaOptions::default().kernel;
    let mut scratch = EquilibrationScratch::new();
    let (mut sh, mut x) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        for (i, &total) in s0.iter().enumerate() {
            let (q, g) = (p.x0().row_vals(i), p.gamma().row_vals(i));
            sh.clear();
            sh.extend(p.x0().row_cols(i).iter().map(|&j| passes.mu[j as usize]));
            x.resize(q.len(), 0.0);
            let mode = TotalMode::Fixed { total };
            tr.span("exact_equilibration_with", || {
                exact_equilibration_with(kernel, q, g, &sh, mode, &mut x, &mut scratch)
            })
            .expect("kernel runs");
        }
    }
    m.push((
        "knapsack.ns_per_breakpoint",
        tr.self_ns("exact_equilibration_with") / (10.0 * nnz),
    ));
    m.push(("knapsack.calls_per_solve", iters * (rows + cols) as f64));

    // ---- 40×40 serve-sized problem: small passes and observer cost -------
    let bodies = ServeBodies::new(seed);
    let small = match manifest_instance(1, &bodies.bodies[0])
        .expect("body parses")
        .problem
    {
        BatchProblem::Diagonal(p) => p,
        _ => unreachable!("serve bodies are dense diagonal problems"),
    };
    let small_sol = sea_core::solve_diagonal(&small, &SeaOptions::default()).expect("small solve");
    let small_passes = Passes::new(&small, small_sol.lambda.clone(), small_sol.mu.clone());
    let small_kinds = [
        ("equilibration_pass.small.serial", Parallelism::Serial),
        ("equilibration_pass.small.rayon", Parallelism::Rayon),
    ];
    for _ in 0..300 {
        for (name, par) in small_kinds {
            small_passes.pass(&tr, name, true, par);
        }
    }
    let [small_serial, small_rayon] = small_kinds.map(|(name, _)| ns(name) / 1e3);
    m.push(("equilibrate.small_pass_us.serial", small_serial));
    m.push(("equilibrate.small_pass_us.rayon", small_rayon));
    let opts = SeaOptions::default();
    let sinks = [
        "solve_diagonal_observed.null",
        "solve_diagonal_observed.metrics",
        "solve_diagonal_observed.vec",
    ];
    for _ in 0..40 {
        let solves = [
            tr.span(sinks[0], || {
                solve_diagonal_observed(&small, &opts, &mut NullObserver)
            }),
            tr.span(sinks[1], || {
                solve_diagonal_observed(&small, &opts, &mut MetricsObserver::new())
            }),
            tr.span(sinks[2], || {
                solve_diagonal_observed(&small, &opts, &mut VecObserver::new())
            }),
        ];
        for sol in solves {
            sol.expect("small solve");
        }
    }
    let [null, metrics, vec] = sinks.map(ns);
    m.push(("observe.metrics_overhead_frac", metrics / null - 1.0));
    m.push(("observe.vec_overhead_frac", vec / null - 1.0));

    // ---- bounded and general drivers, batch engine and cache -------------
    let base = batch_instances(seed, 0);
    let bopts = batch::options();
    let (mut box_iters, mut gen_iters) = (Vec::new(), Vec::new());
    for inst in &base {
        let name = match inst.problem {
            BatchProblem::Bounded(_) => "solve_instance.bounded",
            BatchProblem::General(_) => "solve_instance.general",
            _ => continue,
        };
        let (item, _) = tr.span(name, || {
            solve_instance(inst, &bopts, &WarmStartCache::new(), &mut NullObserver)
        });
        let (ok, right) = batch::check(inst, &item.outcome);
        out.record(ok, right);
        let it = item.outcome.as_ref().map_or(0.0, |s| s.iterations() as f64);
        if name.ends_with("bounded") {
            &mut box_iters
        } else {
            &mut gen_iters
        }
        .push(it);
    }
    m.push(("interval.solve_ms", ns("solve_instance.bounded") / 1e6));
    m.push(("interval.iterations", median(&box_iters)));
    m.push(("general.solve_ms", ns("solve_instance.general") / 1e6));
    m.push(("general.outer_iterations", median(&gen_iters)));

    let mut engine = BatchEngine::new(bopts.clone());
    let cold = batch::epoch(&mut engine, &base, &tr, &mut NullObserver).0;
    batch::check_epoch(&base, &cold, &mut out);
    let (mut hits, mut lookups, mut saved, mut work, mut busy) = (0.0, 0.0, 0.0, 0.0, Vec::new());
    for e in 1..=3 {
        let insts = batch_instances(seed, e);
        let mut prof = SpanProfiler::new();
        let (rep, wall) = batch::epoch(&mut engine, &insts, &tr, &mut prof);
        batch::check_epoch(&insts, &rep, &mut out);
        hits += rep.cache_hits as f64;
        lookups += (rep.cache_hits + rep.cache_misses) as f64;
        saved += rep.work_saved as f64;
        work += rep.kernel_work as f64;
        let inst_ns: u64 = prof
            .spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Instance)
            .map(|s| s.duration_ns())
            .sum();
        busy.push(inst_ns as f64 / 1e9 / (wall * rayon::current_num_threads() as f64));
    }
    m.push(("batch.warm_hit_frac", hits / lookups.max(1.0)));
    m.push(("batch.work_saved_frac", saved / (saved + work).max(1.0)));
    m.push(("batch.outer_busy_frac", mean(&busy)));

    // ---- serve: HTTP framing, body parse, solve, serialisation ------------
    let cfg = ServeConfig::default();
    let sopts = BatchOptions {
        epsilon: cfg.epsilon,
        max_iterations: cfg.max_iterations,
        kernel: cfg.kernel,
        simd: cfg.simd,
        parallelism: cfg.parallelism,
        ..BatchOptions::default()
    };
    let large_idx = bodies
        .bases()
        .into_iter()
        .find(|&i| bodies.is_large(i))
        .expect("a large body");
    for (size, idx, reps) in [(0, 0, 200), (1, large_idx, 20)] {
        let [read, parse, solve, write] = SERVE_SPANS[size];
        let body = &bodies.bodies[idx];
        let frame = format!(
            "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let inst = manifest_instance(1, body).expect("body parses");
        let (_, update) = solve_instance(&inst, &sopts, &WarmStartCache::new(), &mut NullObserver);
        let mut cache = WarmStartCache::new();
        cache.apply(update);
        for _ in 0..reps {
            let req = tr
                .span(read, || {
                    read_request(
                        &mut BufReader::new(Cursor::new(frame.as_bytes())),
                        cfg.max_body_bytes,
                    )
                })
                .expect("frame parses");
            let text = std::str::from_utf8(&req.body).expect("UTF-8 body");
            let inst = tr
                .span(parse, || manifest_instance(1, text))
                .expect("body parses");
            let (item, _) = tr.span(solve, || {
                solve_instance(&inst, &sopts, &cache, &mut VecObserver::new())
            });
            let (ok, right) = batch::check(&inst, &item.outcome);
            out.record(ok, right);
            tr.span(write, || {
                let line = result_line(&item);
                let mut wire = Vec::with_capacity(line.len() + 128);
                write_response(&mut wire, 200, "application/json", line.as_bytes(), false)
                    .expect("write to memory");
                black_box(wire)
            });
        }
        for (name, span) in SERVE_METRICS[size].into_iter().zip(SERVE_SPANS[size]) {
            m.push((name, ns(span) / 1e3));
        }
    }

    // ---- serve: a short open-loop session against a live server -----------
    let live = Live::start(seed);
    let before = live.scrape();
    let (recs, _) = live.drive(&Load {
        addr: live.addr(),
        seed,
        rate: serve::OPEN_RATE,
        slices: 1,
        open_s: 3.0,
        closed_s: 0.0,
        conns: serve::conns(),
        start: 1 << 32,
        trace: false,
    });
    let after = live.scrape();
    serve::check(&recs, &live.bodies, &mut out);
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    let queue_us = delta("sea_serve_queue_wait_seconds_sum")
        / delta("sea_serve_queue_wait_seconds_count").max(1.0)
        * 1e6;
    m.push(("serve.queue_wait_us", queue_us));
    let large_frac = recs.iter().filter(|r| live.bodies.is_large(r.body)).count() as f64
        / recs.len().max(1) as f64;
    let parts = |size: usize| {
        SERVE_SPANS[size]
            .map(|span| ns(span) / 1e3)
            .iter()
            .sum::<f64>()
    };
    let accounted = (1.0 - large_frac) * parts(0) + large_frac * parts(1) + queue_us;
    let service_us = mean(&recs.iter().map(|r| r.service_ms * 1e3).collect::<Vec<_>>());
    m.push(("serve.unaccounted_us", service_us - accounted));
    m.push((
        "serve.warm_hit_frac",
        recs.iter().filter(|r| r.hit).count() as f64 / recs.len().max(1) as f64,
    ));
    m.push((
        "serve.refused",
        recs.iter().filter(|r| r.status != 200).count() as f64,
    ));
    m.push((
        "serve.generator_late_ms",
        tail(&recs.iter().map(|r| r.late_ms).collect::<Vec<_>>()).1,
    ));
    m.push(("batch.evictions", delta("sea_serve_cache_evictions_total")));
    notes.push(format!(
        "serve session: {} open-loop requests at {} req/s",
        recs.len(),
        serve::OPEN_RATE
    ));

    // ---- tracing overhead on the named workload ----------------------------
    let overhead = match workload {
        "banded_solve" => {
            let off = timed(|| banded::solve_and_verify(&p, &Tracer::new(false))).1;
            ns("banded_solve") / 1e9 / off - 1.0
        }
        "batch_mixed" => {
            let mut engine = BatchEngine::new(bopts);
            batch::epoch(&mut engine, &base, &tr, &mut NullObserver);
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for e in 4..10u64 {
                let insts = batch_instances(seed, e);
                let tracer = Tracer::new(e % 2 == 0);
                let (rep, dt) = batch::epoch(&mut engine, &insts, &tracer, &mut NullObserver);
                batch::check_epoch(&insts, &rep, &mut out);
                if tracer.on() { &mut on } else { &mut off }.push(dt);
            }
            median(&on) / median(&off) - 1.0
        }
        _ => {
            let mut rps = [0.0, 0.0];
            for (i, trace) in [false, true, false, true].into_iter().enumerate() {
                let (recs, _) = live.drive(&Load {
                    addr: live.addr(),
                    seed,
                    rate: serve::OPEN_RATE,
                    slices: 1,
                    open_s: 0.0,
                    closed_s: 2.0,
                    conns: serve::conns(),
                    start: (2 + i as u64) << 32,
                    trace,
                });
                serve::check(&recs, &live.bodies, &mut out);
                rps[usize::from(trace)] += recs.iter().filter(|r| r.status == 200).count() as f64;
            }
            rps[0] / rps[1] - 1.0
        }
    };
    live.stop();
    m.push(("trace.overhead_frac", overhead));

    let spans = tr.spans();
    let path = format!(".bench_out/spans-{workload}-{seed}.jsonl");
    if let Err(e) = write_jsonl(std::path::Path::new(&path), &spans) {
        notes.push(format!("could not write {path}: {e}"));
    }
    let mut r = Report {
        outcome: out,
        ..Report::default()
    };
    for (name, v) in m {
        r.e2e(name, v);
    }
    for n in notes {
        r.note(n);
    }
    r.note(format!(
        "spans: {} written to {path}; self time by span:",
        spans.len()
    ));
    for (name, count, total, self_ms) in summary(&spans) {
        r.note(format!(
            "  span {name:<36} n={count:<6} total={total:>10.3} ms self={self_ms:>10.3} ms"
        ));
    }
    r
}
