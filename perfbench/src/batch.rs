//! `batch_mixed`: one `BatchEngine` (library defaults, outer parallelism)
//! solving dense diagonal, box-bounded and general families: one cold
//! epoch, then warm epochs whose priors drift a few percent.

use crate::banded::CERT_TOL;
use crate::inputs::batch_instances;
use crate::report::{Outcome, Report};
use crate::trace::Tracer;
use crate::util::{median, secs, timed};
use sea_batch::{
    BatchEngine, BatchInstance, BatchOptions, BatchParallelism, BatchProblem, BatchReport,
    BatchSolution,
};
use sea_core::verify::GapCheck;
use sea_core::{verify_solution, NullObserver, Observer, StopReason, Storage};
use std::time::Instant;

/// Set-ups timed before the cold epoch; one more is timed after each warm
/// epoch, so `setup_s` (their median) samples the whole run rather than
/// the host's speed in its first second.
const SETUPS_FIRST: usize = 10;

pub fn options() -> BatchOptions {
    BatchOptions {
        parallelism: BatchParallelism::Outer,
        ..BatchOptions::default()
    }
}

/// Relative feasibility of a total vector: `max |r| / max(1, max |t|)`.
fn rel(abs_residual: f64, totals: &[f64]) -> f64 {
    abs_residual / totals.iter().fold(1.0_f64, |m, t| m.max(t.abs()))
}

/// Check one instance's answer: `(ok, right)` as in [`Outcome::record`].
///
/// Diagonal answers must pass `verify_solution`. The bounded and general
/// drivers have no certificate in the library, so their answers are
/// checked here from first principles: bounded ones for feasibility, the
/// box, and stationarity `x = clamp(x⁰ + (λᵢ + μⱼ)/(2γ), lo, hi)`;
/// general ones for outer convergence and feasibility.
pub fn check(
    inst: &BatchInstance,
    outcome: &Result<BatchSolution, sea_core::SeaError>,
) -> (bool, bool) {
    let Ok(sol) = outcome else {
        return (false, true);
    };
    let converged = sol.stop() == StopReason::Converged;
    let passed = match (&inst.problem, sol) {
        (BatchProblem::Diagonal(p), BatchSolution::Diagonal(s)) => {
            verify_solution(p, &s.solution).is_optimal_with(CERT_TOL, GapCheck::RelativeToObjective)
        }
        (BatchProblem::Bounded(p), BatchSolution::Bounded(s)) => {
            let b = &s.solution;
            let n = p.n();
            let x = b.x.values();
            let (x0, g, lo, hi) = (
                p.x0().values(),
                p.gamma().values(),
                p.lo().values(),
                p.hi().values(),
            );
            let box_and_stationary = (0..x.len()).all(|k| {
                let (i, j) = (k / n, k % n);
                let want = (x0[k] + (b.lambda[i] + b.mu[j]) / (2.0 * g[k])).clamp(lo[k], hi[k]);
                x[k] >= lo[k] - 1e-9
                    && x[k] <= hi[k] + 1e-9
                    && (x[k] - want).abs() <= CERT_TOL * x[k].abs().max(1.0)
            });
            box_and_stationary
                && b.residuals.rel_row_inf <= CERT_TOL
                && rel(b.residuals.col_inf, p.d0()) <= CERT_TOL
        }
        (BatchProblem::General(_), BatchSolution::General(s)) => {
            let g = &s.solution;
            g.converged
                && g.residuals.rel_row_inf <= CERT_TOL
                && rel(g.residuals.col_inf, &g.d) <= CERT_TOL
        }
        _ => false,
    };
    (converged && passed, !converged || passed)
}

/// Record every item of an epoch; returns the summed iteration count.
pub fn check_epoch(insts: &[BatchInstance], report: &BatchReport, out: &mut Outcome) -> usize {
    let mut iters = 0;
    for (inst, item) in insts.iter().zip(&report.items) {
        let (ok, right) = check(inst, &item.outcome);
        out.record(ok, right);
        iters += item.outcome.as_ref().map_or(0, BatchSolution::iterations);
    }
    iters
}

/// One epoch through the engine, in a `solve_batch` span.
pub fn epoch<O: Observer>(
    engine: &mut BatchEngine,
    insts: &[BatchInstance],
    tr: &Tracer,
    obs: &mut O,
) -> (BatchReport, f64) {
    timed(|| tr.span("solve_batch", || engine.solve_batch(insts, obs)))
}

/// Set-up: generate the base instances and build the engine, timed.
fn set_up(seed: u64, times: &mut Vec<f64>) -> (Vec<BatchInstance>, BatchEngine) {
    let (s, dt) = timed(|| (batch_instances(seed, 0), BatchEngine::new(options())));
    times.push(dt);
    s
}

pub fn run(seed: u64, seconds: f64) -> Report {
    let t0 = Instant::now();
    let tr = Tracer::new(false);
    let mut setup_times = Vec::new();
    for _ in 1..SETUPS_FIRST {
        set_up(seed, &mut setup_times);
    }
    let (base, mut engine) = set_up(seed, &mut setup_times);
    let mut out = Outcome::default();
    let (cold, cold_s) = epoch(&mut engine, &base, &tr, &mut NullObserver);
    check_epoch(&base, &cold, &mut out);

    let (mut times, mut iters, mut solved) = (Vec::new(), Vec::new(), 0usize);
    let mut e = 1;
    while times.len() < 5 || secs(t0) + median(&times) <= seconds {
        let insts = batch_instances(seed, e);
        let (rep, dt) = epoch(&mut engine, &insts, &tr, &mut NullObserver);
        iters.push(check_epoch(&insts, &rep, &mut out) as f64);
        times.push(dt);
        solved += insts.len();
        e += 1;
        set_up(seed, &mut setup_times);
    }
    let mut r = Report::new(out, median(&setup_times));
    r.e2e("op_ms", median(&times) * 1e3);
    r.e2e("iterations", median(&iters));
    r.e2e("ops_per_s", solved as f64 / times.iter().sum::<f64>());
    r.show("epoch_s", median(&times), "s", times.len());
    r.show("cold_epoch_s", cold_s, "s", 1);
    r.show("iterations", median(&iters), "count", iters.len());
    r.show(
        "instances_per_s",
        solved as f64 / times.iter().sum::<f64>(),
        "1/s",
        0,
    );
    r
}
