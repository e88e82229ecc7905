//! SEA for **general** quadratic constrained matrix problems (paper §3.2).
//!
//! The general problem weights deviations with dense strictly positive
//! definite matrices `G` (`mn×mn`), and — when totals are estimated — `A`
//! (`m×m`) and `B` (`n×n`). SEA handles it with the projection
//! (diagonalization) method of Dafermos (1982, 1983): each outer iteration
//! freezes the off-diagonal coupling into a linear term (eq. 79) and solves
//! the resulting *diagonal* constrained matrix problem with the diagonal
//! SEA of §3.1 — so the expensive dense `G` mat-vec happens once per outer
//! iteration, while all constraint work stays in the cheap, parallel
//! equilibration passes.

use crate::epoch::{self, Cx, Finished, Iterate, Run, Schedule, Step};
use crate::equilibrate::PassCounters;
use crate::error::SeaError;
use crate::problem::{DiagonalProblem, Residuals, TotalSpec, ZeroPolicy};
use crate::solver::{diagonal, SeaOptions};
use crate::storage::Storage;
use crate::supervisor::{SolveControl, SupervisedGeneralSolution, SupervisorOptions};
use crate::trace::{ExecutionTrace, PhaseKind};
use sea_linalg::{DenseMatrix, SymMatrix};
use sea_observe::{Event, KernelCounters, NullObserver, Observer, PhaseLabel, SpanKind};
use std::time::{Duration, Instant};

/// Total specification for the general problem.
#[derive(Debug, Clone)]
pub enum GeneralTotalSpec {
    /// Known fixed totals (objective 10, constraints 11–12).
    Fixed {
        /// Row totals (length m).
        s0: Vec<f64>,
        /// Column totals (length n).
        d0: Vec<f64>,
    },
    /// Estimated totals with dense weight matrices (objective 1).
    Elastic {
        /// Row-total weight matrix `A` (order m, SPD).
        a: SymMatrix,
        /// Prior row totals.
        s0: Vec<f64>,
        /// Column-total weight matrix `B` (order n, SPD).
        b: SymMatrix,
        /// Prior column totals.
        d0: Vec<f64>,
    },
    /// SAM balance with a dense account-weight matrix (objective 6).
    Balanced {
        /// Account weight matrix `A` (order n, SPD).
        a: SymMatrix,
        /// Prior account totals.
        s0: Vec<f64>,
    },
}

/// A general quadratic constrained matrix problem.
#[derive(Debug, Clone)]
pub struct GeneralProblem {
    x0: DenseMatrix,
    g: SymMatrix,
    totals: GeneralTotalSpec,
}

impl GeneralProblem {
    /// Build and validate.
    ///
    /// # Errors
    /// * [`SeaError::Shape`] if `G`'s order is not `m·n` or total vectors
    ///   mismatch.
    /// * [`SeaError::NonPositiveWeight`] if any diagonal of `G`/`A`/`B` is
    ///   not strictly positive (the diagonalization step divides by them).
    /// * [`SeaError::InconsistentTotals`] for inconsistent fixed totals.
    /// * [`SeaError::NotSquareSam`] for a non-square balanced problem.
    pub fn new(x0: DenseMatrix, g: SymMatrix, totals: GeneralTotalSpec) -> Result<Self, SeaError> {
        let (m, n) = (x0.rows(), x0.cols());
        if g.order() != m * n {
            return Err(SeaError::Shape {
                context: "G order",
                expected: m * n,
                actual: g.order(),
            });
        }
        if !g.has_positive_diagonal() {
            return Err(SeaError::NonPositiveWeight {
                which: "diag(G)",
                index: 0,
                value: 0.0,
            });
        }
        match &totals {
            GeneralTotalSpec::Fixed { s0, d0 } => {
                if s0.len() != m {
                    return Err(SeaError::Shape {
                        context: "fixed s0",
                        expected: m,
                        actual: s0.len(),
                    });
                }
                if d0.len() != n {
                    return Err(SeaError::Shape {
                        context: "fixed d0",
                        expected: n,
                        actual: d0.len(),
                    });
                }
                let rs: f64 = s0.iter().sum();
                let cs: f64 = d0.iter().sum();
                if (rs - cs).abs() > 1e-9 * rs.abs().max(cs.abs()).max(1.0) {
                    return Err(SeaError::InconsistentTotals {
                        row_total: rs,
                        col_total: cs,
                    });
                }
            }
            GeneralTotalSpec::Elastic { a, s0, b, d0 } => {
                if a.order() != m || s0.len() != m {
                    return Err(SeaError::Shape {
                        context: "elastic A/s0",
                        expected: m,
                        actual: a.order().min(s0.len()),
                    });
                }
                if b.order() != n || d0.len() != n {
                    return Err(SeaError::Shape {
                        context: "elastic B/d0",
                        expected: n,
                        actual: b.order().min(d0.len()),
                    });
                }
                if !a.has_positive_diagonal() || !b.has_positive_diagonal() {
                    return Err(SeaError::NonPositiveWeight {
                        which: "diag(A)/diag(B)",
                        index: 0,
                        value: 0.0,
                    });
                }
            }
            GeneralTotalSpec::Balanced { a, s0 } => {
                if m != n {
                    return Err(SeaError::NotSquareSam { rows: m, cols: n });
                }
                if a.order() != n || s0.len() != n {
                    return Err(SeaError::Shape {
                        context: "balanced A/s0",
                        expected: n,
                        actual: a.order().min(s0.len()),
                    });
                }
                if !a.has_positive_diagonal() {
                    return Err(SeaError::NonPositiveWeight {
                        which: "diag(A)",
                        index: 0,
                        value: 0.0,
                    });
                }
            }
        }
        Ok(Self { x0, g, totals })
    }

    /// Rows of the prior.
    pub fn m(&self) -> usize {
        self.x0.rows()
    }

    /// Columns of the prior.
    pub fn n(&self) -> usize {
        self.x0.cols()
    }

    /// The prior matrix.
    pub fn x0(&self) -> &DenseMatrix {
        &self.x0
    }

    /// The entry weight matrix `G`.
    pub fn g(&self) -> &SymMatrix {
        &self.g
    }

    /// The total specification.
    pub fn totals(&self) -> &GeneralTotalSpec {
        &self.totals
    }

    /// Primal objective (eq. 1/6/10): `(x−x⁰)ᵀG(x−x⁰) [+ totals terms]`.
    // Allowed: every quadratic form is evaluated on vectors whose lengths
    // were validated against G/A/B at problem construction.
    #[allow(clippy::expect_used)]
    pub fn objective(&self, x: &DenseMatrix, s: &[f64], d: &[f64]) -> f64 {
        self.objective_flat(x.as_slice(), s, d)
    }

    /// [`GeneralProblem::objective`] on a row-major flat estimate — the form
    /// the generic driver uses, since a full-pattern sparse estimate exposes
    /// exactly this layout via [`Storage::values`].
    // Allowed: every quadratic form is evaluated on vectors whose lengths
    // were validated against G/A/B at problem construction.
    #[allow(clippy::expect_used)]
    pub fn objective_flat(&self, x: &[f64], s: &[f64], d: &[f64]) -> f64 {
        let dev: Vec<f64> = x
            .iter()
            .zip(self.x0.as_slice())
            .map(|(a, b)| a - b)
            .collect();
        let mut obj = self.g.quadratic_form(&dev).expect("validated dims");
        match &self.totals {
            GeneralTotalSpec::Fixed { .. } => {}
            GeneralTotalSpec::Elastic { a, s0, b, d0 } => {
                let ds: Vec<f64> = s.iter().zip(s0).map(|(a, b)| a - b).collect();
                let dd: Vec<f64> = d.iter().zip(d0).map(|(a, b)| a - b).collect();
                obj += a.quadratic_form(&ds).expect("validated dims");
                obj += b.quadratic_form(&dd).expect("validated dims");
            }
            GeneralTotalSpec::Balanced { a, s0 } => {
                let ds: Vec<f64> = s.iter().zip(s0).map(|(a, b)| a - b).collect();
                obj += a.quadratic_form(&ds).expect("validated dims");
            }
        }
        obj
    }

    /// An initial feasible point for the projection method ("start with any
    /// feasible (s, x, d)"): proportional fill for fixed totals, the prior
    /// itself for elastic totals, a balanced proportional fill for SAMs.
    // Allowed: construction guarantees m, n >= 1, so the proportional-fill
    // allocation cannot fail.
    #[allow(clippy::expect_used)]
    pub fn initial_feasible(&self) -> (DenseMatrix, Vec<f64>, Vec<f64>) {
        let (m, n) = (self.m(), self.n());
        match &self.totals {
            GeneralTotalSpec::Fixed { s0, d0 } => {
                let total: f64 = s0.iter().sum();
                let mut x = DenseMatrix::zeros(m, n).expect("nonempty");
                if total > 0.0 {
                    for i in 0..m {
                        let row = x.row_mut(i);
                        for (j, r) in row.iter_mut().enumerate() {
                            *r = s0[i] * d0[j] / total;
                        }
                    }
                }
                (x, s0.clone(), d0.clone())
            }
            GeneralTotalSpec::Elastic { .. } => {
                let s = self.x0.row_sums();
                let d = self.x0.col_sums();
                (self.x0.clone(), s, d)
            }
            GeneralTotalSpec::Balanced { .. } => {
                let rs = self.x0.row_sums();
                let cs = self.x0.col_sums();
                let t: Vec<f64> = rs.iter().zip(&cs).map(|(a, b)| 0.5 * (a + b)).collect();
                let total: f64 = t.iter().sum();
                let mut x = DenseMatrix::zeros(m, n).expect("nonempty");
                if total > 0.0 {
                    for i in 0..m {
                        let row = x.row_mut(i);
                        for (j, r) in row.iter_mut().enumerate() {
                            *r = t[i] * t[j] / total;
                        }
                    }
                }
                (x, t.clone(), t)
            }
        }
    }
}

/// Options for [`solve_general`].
#[derive(Debug, Clone)]
pub struct GeneralSeaOptions {
    /// Outer stopping tolerance on `maxᵢⱼ |xᵗᵢⱼ − xᵗ⁻¹ᵢⱼ|` (eq. Step 2 of
    /// §3.2.1; the paper's ε′).
    pub outer_epsilon: f64,
    /// Cap on projection (outer) iterations.
    pub max_outer: usize,
    /// Options for the inner diagonal SEA solves.
    pub inner: SeaOptions,
    /// Record a phase trace (projection mat-vecs + inner solves).
    pub record_trace: bool,
    /// Warm-start each inner diagonal solve with the previous outer
    /// iteration's column multipliers (extension; the paper restarts from
    /// `μ = 0` each time).
    pub warm_start_inner: bool,
}

impl Default for GeneralSeaOptions {
    fn default() -> Self {
        Self {
            outer_epsilon: 1e-6,
            max_outer: 200,
            inner: SeaOptions::default(),
            record_trace: false,
            warm_start_inner: true,
        }
    }
}

impl GeneralSeaOptions {
    /// Paper-style options: outer tolerance `eps`, inner solves one decade
    /// tighter.
    pub fn with_epsilon(eps: f64) -> Self {
        Self {
            outer_epsilon: eps,
            inner: SeaOptions::with_epsilon(eps * 0.1),
            ..Self::default()
        }
    }
}

/// Result of a general solve. `S` is the storage backend used for the
/// *inner* diagonal subproblems (the outer data `G`, `A`, `B` are dense by
/// nature); the estimate comes back in that backend.
#[derive(Debug, Clone)]
pub struct GeneralSolution<S: Storage = DenseMatrix> {
    /// The matrix estimate.
    pub x: S,
    /// Row totals.
    pub s: Vec<f64>,
    /// Column totals.
    pub d: Vec<f64>,
    /// Column multipliers of the final inner diagonal solve. Seeding a
    /// related solve's `GeneralSeaOptions::inner.initial_mu` with these
    /// warm-starts its first projection step (the batch engine's cache
    /// relies on this).
    pub mu: Vec<f64>,
    /// Outer (projection) iterations performed.
    pub outer_iterations: usize,
    /// Total inner (diagonal SEA) iterations across all outer iterations.
    pub inner_iterations: usize,
    /// Whether the outer loop converged.
    pub converged: bool,
    /// Final outer change `maxᵢⱼ |Δxᵢⱼ|`.
    pub outer_residual: f64,
    /// Primal objective at the solution.
    pub objective: f64,
    /// Constraint residuals at the solution.
    pub residuals: Residuals,
    /// Wall-clock duration.
    pub elapsed: Duration,
    /// Phase trace (present iff requested).
    pub trace: Option<ExecutionTrace>,
}

/// Build the diagonalized pseudo-prior `q = y − M(y − y⁰)/diag(M)` for one
/// variable block (eq. 79 rearranged; see DESIGN.md §5).
fn diagonalized_prior(
    msym: &SymMatrix,
    diag: &[f64],
    y: &[f64],
    y0: &[f64],
    scratch: &mut Vec<f64>,
    parallel: bool,
) -> Result<Vec<f64>, SeaError> {
    let k = y.len();
    scratch.clear();
    scratch.extend(y.iter().zip(y0).map(|(a, b)| a - b));
    let mut mv = vec![0.0; k];
    if parallel {
        msym.matvec_parallel(scratch, &mut mv)?;
    } else {
        msym.matvec(scratch, &mut mv)?;
    }
    Ok((0..k).map(|i| y[i] - mv[i] / diag[i]).collect())
}

/// Solve a general constrained matrix problem with SEA (projection outer
/// loop + diagonal SEA inner solves).
///
/// # Errors
/// Propagates validation and inner-solver failures.
pub fn solve_general(
    p: &GeneralProblem,
    opts: &GeneralSeaOptions,
) -> Result<GeneralSolution, SeaError> {
    opts.inner
        .parallelism
        .run(move || Ok(general(p, opts, &mut NullObserver, &mut SolveControl::passive())?.output))
}

/// [`solve_general`] with an event sink, under the fault-tolerant
/// supervisor, and with the inner diagonal subproblems carried in storage
/// backend `S` (`DenseMatrix` or `CsrMatrix`; with a sparse backend every
/// stored cell of the projection's pseudo-prior is kept, so results are
/// bitwise identical to the dense path).
///
/// The outer loop emits its own `SolveStart`/`SolveEnd` pair plus one
/// `Projection` phase and one `OuterIteration` event per projection step;
/// the nested diagonal solves emit their full event stream in between, so a
/// log of a general solve contains interleaved solver lifecycles.
///
/// Supervision runs at *outer-iteration* granularity: the budget
/// (iterations, deadline, kernel work summed over the inner solves),
/// cancellation, stagnation, and the breakdown watchdog are checked once
/// per projection step; an inner diagonal solve always runs to its own
/// completion. Worker panics inside the inner passes surface as
/// [`SeaError::WorkerPanic`].
///
/// # Errors
/// Same contract as [`solve_general`], plus [`SeaError::Unsupported`] for
/// the supervisor options a general solve cannot express: `checkpoint` and
/// `start_iteration` (its state is the primal iterate, which
/// `SEA-CHECKPOINT v1` cannot carry) and `faults` that target passes or
/// multipliers (the outer loop has neither; deadline and cancel faults are
/// honoured).
pub fn solve_general_supervised<S: Storage, O: Observer + Send>(
    p: &GeneralProblem,
    opts: &GeneralSeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedGeneralSolution<S>, SeaError> {
    let refused = if sup.checkpoint.is_some() {
        Some("checkpoint")
    } else if sup.start_iteration != 0 {
        Some("start_iteration")
    } else if sup.faults.targets_passes() {
        Some("faults")
    } else {
        None
    };
    if let Some(option) = refused {
        return Err(SeaError::Unsupported {
            driver: "general",
            option,
        });
    }
    opts.inner.parallelism.run(move || {
        let done = general(p, opts, obs, &mut SolveControl::active(sup))?;
        Ok(SupervisedGeneralSolution {
            solution: done.output,
            stop: done.stop,
        })
    })
}

fn general<S: Storage, O: Observer>(
    p: &GeneralProblem,
    opts: &GeneralSeaOptions,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<Finished<GeneralSolution<S>>, SeaError> {
    let (m, n) = (p.m(), p.n());
    let g_diag = p.g().diagonal();
    let gamma = DenseMatrix::from_vec(m, n, g_diag.iter().map(|&v| 0.5 * v).collect())?;
    let (x_init, s, d) = p.initial_feasible();
    let mut inner = opts.inner.clone();
    inner.record_trace = opts.record_trace;
    let step = GeneralStep {
        p,
        warm_start_inner: opts.warm_start_inner,
        count_inner: ctrl.needs_counters(),
        mu: inner.initial_mu.clone().unwrap_or_else(|| vec![0.0; n]),
        inner,
        gamma: S::from_dense(&gamma)?,
        // A full-pattern conversion keeps every cell, so x.values() stays
        // the row-major flat layout the projection mat-vec expects.
        x: S::from_dense(&x_init)?,
        s,
        d,
        g_diag,
        scratch: Vec::with_capacity(m * n),
        inner_iterations: 0,
        inner_work: 0,
        outer_residual: f64::INFINITY,
    };
    let sched = Schedule {
        kernel: opts.inner.kernel,
        simd: opts.inner.simd,
        parallelism: opts.inner.parallelism,
        // The outer loop always checks max |Δx| across a projection step;
        // the inner solves report their own criterion.
        criterion: "max_abs_change",
        epsilon: opts.outer_epsilon,
        max_iterations: opts.max_outer,
        check_every: 1,
        precision: crate::kernel_simd::Precision::F64,
        record_trace: opts.record_trace,
        record_history: false,
    };
    epoch::run(step, &sched, obs, ctrl)
}

/// The general class on the epoch loop: each epoch is one projection step
/// (eq. 79) followed by a whole inner diagonal SEA solve.
struct GeneralStep<'p, S: Storage> {
    p: &'p GeneralProblem,
    warm_start_inner: bool,
    /// Harvest the inner solves' kernel work (the outer work budget).
    count_inner: bool,
    /// Options of the inner solves (warm-started across outer epochs).
    inner: SeaOptions,
    gamma: S,
    x: S,
    s: Vec<f64>,
    d: Vec<f64>,
    /// Column multipliers of the latest inner solve.
    mu: Vec<f64>,
    g_diag: Vec<f64>,
    scratch: Vec<f64>,
    inner_iterations: usize,
    inner_work: u64,
    outer_residual: f64,
}

impl<S: Storage> Step for GeneralStep<'_, S> {
    type Output = GeneralSolution<S>;
    const SOLVER: &'static str = "general";
    const CHECK_PHASE: bool = false;

    fn shape(&self) -> (usize, usize) {
        (self.p.m(), self.p.n())
    }

    fn advance<O: Observer>(&mut self, t: usize, cx: &mut Cx<'_, O>) -> Result<(), SeaError> {
        let (p, (m, n)) = (self.p, self.shape());
        let parallel = cx.parallelism.is_parallel();

        // ---- Projection step: freeze off-diagonal coupling (eq. 79). ----
        // The dense mat-vec parallelizes over rows of G; a real scheduler
        // hands out coarse chunks, so the phase is reported as up to 256
        // equal chunks rather than mn micro-tasks.
        let chunks = (m * n).min(256);
        if cx.spanning {
            cx.obs
                .span_open(SpanKind::Projection, t as u64, chunks as u64);
        }
        if cx.observing {
            cx.obs.record(&Event::PhaseStart {
                label: PhaseLabel::Projection,
                tasks: chunks,
            });
        }
        let proj_t0 = Instant::now();
        let scratch = &mut self.scratch;
        let q_flat = diagonalized_prior(
            p.g(),
            &self.g_diag,
            self.x.values(),
            p.x0().as_slice(),
            scratch,
            parallel,
        )?;
        let q = S::from_dense(&DenseMatrix::from_vec(m, n, q_flat)?)?;
        let spec = match p.totals() {
            GeneralTotalSpec::Fixed { s0, d0 } => TotalSpec::Fixed {
                s0: s0.clone(),
                d0: d0.clone(),
            },
            GeneralTotalSpec::Elastic { a, s0, b, d0 } => {
                let a_diag = a.diagonal();
                let b_diag = b.diagonal();
                let ps = diagonalized_prior(a, &a_diag, &self.s, s0, scratch, parallel)?;
                let pd = diagonalized_prior(b, &b_diag, &self.d, d0, scratch, parallel)?;
                TotalSpec::Elastic {
                    alpha: a_diag.iter().map(|&v| 0.5 * v).collect(),
                    s0: ps,
                    beta: b_diag.iter().map(|&v| 0.5 * v).collect(),
                    d0: pd,
                }
            }
            GeneralTotalSpec::Balanced { a, s0 } => {
                let a_diag = a.diagonal();
                let ps = diagonalized_prior(a, &a_diag, &self.s, s0, scratch, parallel)?;
                TotalSpec::Balanced {
                    alpha: a_diag.iter().map(|&v| 0.5 * v).collect(),
                    s0: ps,
                }
            }
        };
        let proj_secs = proj_t0.elapsed().as_secs_f64();
        if let Some(tr) = cx.trace.as_mut() {
            tr.push(
                PhaseKind::Projection,
                vec![proj_secs / chunks as f64; chunks],
            );
        }
        if cx.observing {
            cx.obs.record(&Event::PhaseEnd {
                label: PhaseLabel::Projection,
                tasks: chunks,
                seconds: proj_secs,
                task_seconds: vec![proj_secs / chunks as f64; chunks],
            });
        }
        if cx.spanning {
            cx.obs.span_close(&KernelCounters::default());
        }

        // ---- Inner diagonal SEA solve, on this same loop. ----------------
        let sub =
            DiagonalProblem::with_signed_prior(q, self.gamma.clone(), spec, ZeroPolicy::Free)?;
        let mut inner_ctrl = if self.count_inner {
            SolveControl::counting()
        } else {
            SolveControl::passive()
        };
        let done = diagonal(&sub, &self.inner, &mut *cx.obs, &mut inner_ctrl)?;
        let sol = done.output;
        if self.warm_start_inner {
            self.inner.initial_mu = Some(sol.mu.clone());
        }
        self.mu = sol.mu;
        self.inner_iterations += sol.stats.iterations;
        self.inner_work += done.counters.work();
        if let (Some(tr), Some(inner_tr)) = (cx.trace.as_mut(), sol.stats.trace) {
            tr.extend(inner_tr);
        }

        // ---- Outer change, measured for the loop's check. ----------------
        self.outer_residual = sol.x.max_abs_diff(&self.x);
        self.x = sol.x;
        self.s = sol.s;
        self.d = sol.d;
        if cx.observing {
            cx.obs.record(&Event::OuterIteration {
                iteration: t,
                inner_iterations: sol.stats.iterations,
                outer_residual: self.outer_residual,
            });
        }
        Ok(())
    }

    fn iterate(&mut self) -> Iterate<'_> {
        Iterate {
            lambda: &mut [],
            mu: &mut self.mu,
            x: self.x.values_mut(),
            s: &mut self.s,
            d: &mut self.d,
        }
    }

    fn residual(&mut self) -> f64 {
        self.outer_residual
    }

    fn kernel_work(&self, _own: &PassCounters) -> u64 {
        self.inner_work
    }

    fn finish(self, run: Run) -> Result<(GeneralSolution<S>, f64, Option<f64>), SeaError> {
        let (st, dt): (&[f64], &[f64]) = match self.p.totals() {
            GeneralTotalSpec::Fixed { s0, d0 } => (s0, d0),
            GeneralTotalSpec::Elastic { .. } => (&self.s, &self.d),
            GeneralTotalSpec::Balanced { .. } => (&self.s, &self.s),
        };
        let residuals = Residuals::of(&self.x, st, dt);
        let objective = self.p.objective_flat(self.x.values(), &self.s, &self.d);
        let solution = GeneralSolution {
            x: self.x,
            s: self.s,
            d: self.d,
            mu: self.mu,
            outer_iterations: run.iterations,
            inner_iterations: self.inner_iterations,
            converged: run.converged,
            outer_residual: run.residual,
            objective,
            residuals,
            elapsed: run.start.elapsed(),
            trace: run.trace,
        };
        Ok((solution, objective, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_diagonal;

    /// Strictly diagonally dominant SPD matrix with negative off-diagonals,
    /// as the paper's §5.1.1 generator prescribes.
    fn dd_matrix(order: usize, diag: f64, off: f64) -> SymMatrix {
        let mut mtx = DenseMatrix::zeros(order, order).unwrap();
        for i in 0..order {
            for j in 0..order {
                mtx.set(i, j, if i == j { diag } else { -off });
            }
        }
        SymMatrix::from_dense(mtx, 1e-12).unwrap()
    }

    #[test]
    fn validation_catches_bad_shapes() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let g = dd_matrix(3, 10.0, 0.1); // wrong order (should be 4)
        assert!(matches!(
            GeneralProblem::new(
                x0,
                g,
                GeneralTotalSpec::Fixed {
                    s0: vec![2.0, 2.0],
                    d0: vec![2.0, 2.0]
                }
            ),
            Err(SeaError::Shape { .. })
        ));
    }

    #[test]
    fn diagonal_g_reduces_to_diagonal_solver() {
        // With G purely diagonal, general SEA must agree with diagonal SEA.
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gd = vec![2.0, 4.0, 6.0, 8.0];
        let g = SymMatrix::from_diagonal(&gd).unwrap();
        let totals = GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        };
        let p = GeneralProblem::new(x0.clone(), g, totals).unwrap();
        let sol = solve_general(&p, &GeneralSeaOptions::with_epsilon(1e-10)).unwrap();
        assert!(sol.converged);
        // Reference: diagonal problem with γ = diag(G)/2... but the
        // objective (x−x0)ᵀG(x−x0) with diagonal G equals Σ G_kk(x_k−x0_k)²,
        // i.e. γ_k = G_kk. Minimizers coincide for any positive scaling.
        let gamma = DenseMatrix::from_vec(2, 2, gd).unwrap();
        let dp = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let dsol = solve_diagonal(&dp, &SeaOptions::with_epsilon(1e-12)).unwrap();
        assert!(
            sol.x.max_abs_diff(&dsol.x) < 1e-6,
            "general vs diagonal mismatch: {}",
            sol.x.max_abs_diff(&dsol.x)
        );
        // Diagonal G: a single outer iteration suffices (projection is
        // exact), plus one confirming iteration.
        assert!(sol.outer_iterations <= 2);
    }

    #[test]
    fn dense_g_converges_and_is_feasible() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let sol = solve_general(&p, &GeneralSeaOptions::with_epsilon(1e-9)).unwrap();
        assert!(sol.converged, "residual {}", sol.outer_residual);
        assert!(sol.residuals.row_inf < 1e-6);
        assert!(sol.residuals.col_inf < 1e-6);
        assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
        // The solution must beat the feasible starting point.
        let (x_init, s_init, d_init) = p.initial_feasible();
        assert!(sol.objective <= p.objective(&x_init, &s_init, &d_init) + 1e-9);
    }

    #[test]
    fn elastic_general_runs() {
        let x0 = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 0.5);
        let a = dd_matrix(2, 4.0, 0.5);
        let b = dd_matrix(2, 4.0, 0.5);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Elastic {
                a,
                s0: vec![5.0, 5.0],
                b,
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let sol = solve_general(&p, &GeneralSeaOptions::with_epsilon(1e-9)).unwrap();
        assert!(sol.converged);
        // Row sums match estimated totals.
        let rs = sol.x.row_sums();
        for i in 0..2 {
            assert!((rs[i] - sol.s[i]).abs() < 1e-6);
        }
        // Totals pulled from prior margins (3) toward targets (5).
        assert!(sol.s[0] > 3.0 && sol.s[0] < 5.0);
    }

    #[test]
    fn balanced_general_balances() {
        let x0 = DenseMatrix::from_rows(&[vec![0.0, 3.0], vec![2.0, 1.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 0.5);
        let a = dd_matrix(2, 4.0, 0.5);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Balanced {
                a,
                s0: vec![4.0, 3.0],
            },
        )
        .unwrap();
        let sol = solve_general(&p, &GeneralSeaOptions::with_epsilon(1e-9)).unwrap();
        assert!(sol.converged);
        let rs = sol.x.row_sums();
        let cs = sol.x.col_sums();
        for i in 0..2 {
            assert!((rs[i] - cs[i]).abs() < 1e-6, "account {i} unbalanced");
        }
    }

    #[test]
    fn warm_start_does_not_change_the_answer() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 1.5);
        let totals = GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        };
        let p = GeneralProblem::new(x0, g, totals).unwrap();
        let mut warm = GeneralSeaOptions::with_epsilon(1e-10);
        warm.warm_start_inner = true;
        let mut cold = GeneralSeaOptions::with_epsilon(1e-10);
        cold.warm_start_inner = false;
        let a = solve_general(&p, &warm).unwrap();
        let b = solve_general(&p, &cold).unwrap();
        assert!(a.converged && b.converged);
        assert!(a.x.max_abs_diff(&b.x) < 1e-7);
        // Warm starting can only reduce the total inner work.
        assert!(a.inner_iterations <= b.inner_iterations);
    }

    #[test]
    fn solution_mu_warm_starts_a_repeat_solve() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 8.0, 1.5);
        let totals = GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        };
        let p = GeneralProblem::new(x0, g, totals).unwrap();
        let opts = GeneralSeaOptions::with_epsilon(1e-10);
        let cold = solve_general(&p, &opts).unwrap();
        assert!(cold.converged);
        assert_eq!(cold.mu.len(), p.n());
        let mut warm_opts = opts.clone();
        warm_opts.inner.initial_mu = Some(cold.mu.clone());
        let warm = solve_general(&p, &warm_opts).unwrap();
        assert!(warm.converged);
        assert!(warm.inner_iterations <= cold.inner_iterations);
        assert!(warm.x.max_abs_diff(&cold.x) < 1e-7);
    }

    #[test]
    fn observer_interleaves_outer_and_inner_lifecycles() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut obs = sea_observe::VecObserver::new();
        let sol = solve_general_supervised::<DenseMatrix, _>(
            &p,
            &GeneralSeaOptions::with_epsilon(1e-9),
            &SupervisorOptions::default(),
            &mut obs,
        )
        .unwrap()
        .solution;
        let events = &obs.events;
        assert!(matches!(
            events.first(),
            Some(Event::SolveStart {
                solver: "general",
                ..
            })
        ));
        let outer_events = events
            .iter()
            .filter(|e| matches!(e, Event::OuterIteration { .. }))
            .count();
        assert_eq!(outer_events, sol.outer_iterations);
        let proj_starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::PhaseStart {
                        label: PhaseLabel::Projection,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(proj_starts, sol.outer_iterations);
        // One nested diagonal lifecycle per outer iteration.
        let inner_starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::SolveStart {
                        solver: "diagonal",
                        ..
                    }
                )
            })
            .count();
        assert_eq!(inner_starts, sol.outer_iterations);
        // The outermost SolveEnd reports outer iterations with no dual.
        assert!(matches!(
            events.last(),
            Some(Event::SolveEnd {
                dual_value: None,
                ..
            })
        ));
    }

    #[test]
    fn sparse_inner_storage_matches_dense_bitwise() {
        // Full-pattern CSR inner storage must replay the dense projection
        // method exactly: same iterate sequence, same bits.
        use sea_linalg::CsrMatrix;
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let opts = GeneralSeaOptions::with_epsilon(1e-9);
        let dense = solve_general(&p, &opts).unwrap();
        let sparse: GeneralSolution<CsrMatrix> =
            solve_general_supervised(&p, &opts, &SupervisorOptions::default(), &mut NullObserver)
                .unwrap()
                .solution;
        assert!(dense.converged && sparse.converged);
        assert_eq!(dense.x.as_slice(), sparse.x.values());
        assert_eq!(dense.outer_iterations, sparse.outer_iterations);
        assert_eq!(dense.inner_iterations, sparse.inner_iterations);
        assert_eq!(dense.objective.to_bits(), sparse.objective.to_bits());
    }

    #[test]
    fn trace_contains_projection_phases() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let g = dd_matrix(4, 10.0, 1.0);
        let p = GeneralProblem::new(
            x0,
            g,
            GeneralTotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut opts = GeneralSeaOptions::with_epsilon(1e-8);
        opts.record_trace = true;
        let sol = solve_general(&p, &opts).unwrap();
        let tr = sol.trace.as_ref().unwrap();
        assert_eq!(tr.count(PhaseKind::Projection), sol.outer_iterations);
        assert!(tr.count(PhaseKind::RowEquilibration) >= sol.outer_iterations);
    }
}
