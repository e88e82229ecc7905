//! `banded_solve`: one fixed-totals diagonal problem over banded CSR
//! storage, solved to a passing KKT certificate with `Parallelism::Rayon`.

use crate::inputs::{banded_problem, BANDED_HB, BANDED_N};
use crate::report::{Outcome, Report};
use crate::trace::Tracer;
use crate::util::{median, secs, timed};
use sea_core::verify::GapCheck;
use sea_core::{
    solve_diagonal, verify_solution, DiagonalProblem, Parallelism, SeaOptions, Solution,
};
use sea_linalg::CsrMatrix;
use std::time::Instant;

/// Stopping tolerance of the solve.
pub const EPSILON: f64 = 1e-8;
/// Tolerance of the KKT certificate every solve must pass.
pub const CERT_TOL: f64 = 1e-6;

/// The workload's solve options: library defaults except the tolerance and
/// the thread pool (Rayon on every available core).
pub fn options() -> SeaOptions {
    SeaOptions {
        epsilon: EPSILON,
        parallelism: Parallelism::Rayon,
        ..SeaOptions::default()
    }
}

pub struct Solved {
    pub iterations: usize,
    pub converged: bool,
    pub certified: bool,
    pub solution: Solution<CsrMatrix>,
}

/// One operation: the solve plus its certificate, each in a span.
pub fn solve_and_verify(p: &DiagonalProblem<CsrMatrix>, tr: &Tracer) -> Solved {
    let opts = options();
    tr.span("banded_solve", || {
        let sol = tr
            .span("solve_diagonal", || solve_diagonal(p, &opts))
            .expect("banded solve runs");
        let report = tr.span("verify_solution", || verify_solution(p, &sol));
        Solved {
            iterations: sol.stats.iterations,
            converged: sol.stats.converged,
            certified: sol.stats.converged
                && report.is_optimal_with(CERT_TOL, GapCheck::RelativeToObjective),
            solution: sol,
        }
    })
}

/// Set-ups timed before the first solve and again after each solve, so
/// `setup_s` (their median) samples the whole run rather than the host's
/// speed in its first second.
const SETUPS_EACH: usize = 20;

/// Set-up: generate the problem and build its CSR storage, `reps` times.
pub fn setup(seed: u64, reps: usize) -> (DiagonalProblem<CsrMatrix>, Vec<f64>) {
    let mut times = Vec::new();
    let mut p = None;
    for _ in 0..reps {
        let (q, dt) = timed(|| banded_problem(seed, BANDED_N, BANDED_HB));
        times.push(dt);
        p = Some(q);
    }
    (p.expect("at least one set-up"), times)
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let t0 = Instant::now();
    let (p, mut setup_times) = setup(seed, SETUPS_EACH);
    let tr = Tracer::new(false);
    let (mut times, mut iters) = (Vec::new(), Vec::new());
    let mut out = Outcome::default();
    while times.len() < 3 || secs(t0) + median(&times) <= seconds {
        let (s, dt) = timed(|| solve_and_verify(&p, &tr));
        times.push(dt);
        iters.push(s.iterations as f64);
        // A solve that claims convergence but fails its certificate is a
        // wrong answer; one that stops unconverged is only a failure.
        out.record(s.certified, s.certified || !s.converged);
        setup_times.extend(setup(seed, SETUPS_EACH).1);
    }
    let mut r = Report::new(out, median(&setup_times));
    r.e2e("op_ms", median(&times) * 1e3);
    r.e2e("iterations", median(&iters));
    r.e2e("ops_per_s", times.len() as f64 / times.iter().sum::<f64>());
    r.show("solve_s", median(&times), "s", times.len());
    r.show("iterations", median(&iters), "count", iters.len());
    r
}
