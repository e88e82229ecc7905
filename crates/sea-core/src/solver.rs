//! The Splitting Equilibration Algorithm for diagonal problems (paper §3.1).
//!
//! One SEA iteration is a dual block-coordinate ascent sweep:
//!
//! 1. **Row equilibration** — `λᵗ⁺¹ → max_λ ζ(λ, μᵗ)`: all `m` row
//!    subproblems solved independently by exact equilibration (parallel).
//! 2. **Column equilibration** — `μᵗ⁺¹ → max_μ ζ(λᵗ⁺¹, μ)`: all `n` column
//!    subproblems (parallel).
//! 3. **Convergence verification** — the serial phase (the paper's §4.2
//!    identifies it as the parallelization bottleneck).
//!
//! The same driver covers all three problem classes (3.1.1 unknown totals,
//! 3.1.2 SAM, 3.1.3 fixed totals); the class only changes the
//! [`crate::knapsack::TotalMode`] of each subproblem and the
//! default stopping rule.

use crate::components::{
    normalize_multipliers_storage, shard_boundaries, storage_support_components,
};
use crate::dual;
use crate::epoch::{self, Cx, Finished, Iterate, Operands, Run, Schedule, Step};
use crate::equilibrate::{Bounds, DEFAULT_BLOCK_ROWS};
use crate::error::SeaError;
use crate::kernel_simd::{Precision, SimdMode};
use crate::knapsack::{KernelKind, TotalMode};
use crate::parallel::Parallelism;
use crate::problem::{DiagonalProblem, Residuals, TotalSpec};
use crate::storage::Storage;
use crate::supervisor::{SolveControl, SupervisedSolution, SupervisorOptions};
use crate::trace::ExecutionTrace;
use sea_linalg::DenseMatrix;
use sea_observe::{Event, NullObserver, Observer, PhaseLabel};
use std::time::Duration;

/// Stopping rules. The paper uses [`MaxAbsChange`](Self::MaxAbsChange) for
/// the unknown-totals class (§3.1.1 Step 3) and relative row balance for
/// the SAM and fixed classes (§3.1.2/3.1.3 Step 3); the dual view (eq. 27)
/// justifies [`ConstraintNorm`](Self::ConstraintNorm).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConvergenceCriterion {
    /// `maxᵢⱼ |xᵢⱼᵗ − xᵢⱼ^(last check)| ≤ ε`.
    MaxAbsChange,
    /// `maxᵢ |Σⱼ xᵢⱼ − sᵢ| / max(|sᵢ|, 10⁻¹²) ≤ ε` (column constraints are
    /// exact after the column pass).
    RelativeRowBalance,
    /// `‖∇ζ(λ,μ)‖₂ ≤ ε`, i.e. the Euclidean norm of the remaining
    /// constraint violations.
    ConstraintNorm,
}

impl ConvergenceCriterion {
    /// Stable wire name for event logs and metrics.
    pub fn name(self) -> &'static str {
        match self {
            ConvergenceCriterion::MaxAbsChange => "max_abs_change",
            ConvergenceCriterion::RelativeRowBalance => "relative_row_balance",
            ConvergenceCriterion::ConstraintNorm => "constraint_norm",
        }
    }
}

/// Options for [`solve_diagonal`].
#[derive(Debug, Clone)]
pub struct SeaOptions {
    /// Stopping tolerance `ε` (meaning depends on the criterion).
    pub epsilon: f64,
    /// Stopping rule; `None` selects the paper's default for the problem
    /// class.
    pub criterion: Option<ConvergenceCriterion>,
    /// Hard iteration cap; the solve reports `converged = false` when hit.
    pub max_iterations: usize,
    /// Verify convergence only every `k` iterations (the paper checks every
    /// other iteration for the spatial-price runs to shrink the serial
    /// phase).
    pub check_every: usize,
    /// Fan-out strategy for the row/column phases.
    pub parallelism: Parallelism,
    /// Which equilibration kernel solves the row/column subproblems: the
    /// expected-linear selection kernel (the default, warm-started from
    /// each subproblem's previous multiplier) or the sort-based reference
    /// (identical solutions; see [`crate::knapsack::KernelKind`]).
    pub kernel: KernelKind,
    /// SIMD policy for the equilibration kernels, resolved once per solve
    /// against the running CPU. [`SimdMode::Off`] (the default) runs the
    /// scalar oracle; the vectorized paths are bitwise-identical to it.
    pub simd: SimdMode,
    /// Arithmetic precision of the equilibration iterates.
    /// [`Precision::F32Mixed`] runs the λ-search in `f32` until the
    /// residual reaches `ε` or stagnates, then switches every pass to a
    /// full-`f64` polish epoch; convergence is only declared from polish.
    pub precision: Precision,
    /// Record an [`ExecutionTrace`] for the scheduling simulator.
    pub record_trace: bool,
    /// Enable the paper's Modified Algorithm with this bound `R`: when some
    /// `|λᵢ| > R`, multipliers are shifted along support components to stay
    /// bounded (dual value unchanged).
    pub multiplier_bound: Option<f64>,
    /// Warm start: initial column multipliers `μ¹` (length n). The paper's
    /// Step 0 uses `μ¹ = 0`; the general solver warm-starts its inner
    /// diagonal solves with the previous outer iteration's multipliers.
    pub initial_mu: Option<Vec<f64>>,
    /// Record a per-check convergence history (iteration, dual value,
    /// stopping residual) — used by the theory-validation experiments to
    /// confirm monotone dual ascent and the geometric rate (eq. 71, 76).
    /// Costs one ζ evaluation per convergence check.
    pub record_history: bool,
    /// Target shard size (rows/columns per block) for parallel passes;
    /// `None` uses [`DEFAULT_BLOCK_ROWS`]. Shards are aligned to
    /// support-graph component boundaries (a shard never splits a component
    /// smaller than twice the target), purely as a locality hint — results
    /// are bitwise-identical for every shard size.
    pub block_size: Option<usize>,
}

impl Default for SeaOptions {
    fn default() -> Self {
        Self {
            epsilon: 1e-8,
            criterion: None,
            max_iterations: 100_000,
            check_every: 1,
            parallelism: Parallelism::Serial,
            kernel: KernelKind::default(),
            simd: SimdMode::Off,
            precision: Precision::F64,
            record_trace: false,
            multiplier_bound: None,
            initial_mu: None,
            record_history: false,
            block_size: None,
        }
    }
}

impl SeaOptions {
    /// Options matching the paper's experiment settings for a given
    /// tolerance: variant-default criterion, check every iteration.
    pub fn with_epsilon(epsilon: f64) -> Self {
        Self {
            epsilon,
            ..Self::default()
        }
    }

    pub(crate) fn effective_criterion(&self, spec: &TotalSpec) -> ConvergenceCriterion {
        self.criterion.unwrap_or(match spec {
            TotalSpec::Fixed { .. } => ConvergenceCriterion::RelativeRowBalance,
            TotalSpec::Elastic { .. } => ConvergenceCriterion::MaxAbsChange,
            TotalSpec::Balanced { .. } => ConvergenceCriterion::RelativeRowBalance,
        })
    }
}

/// One entry of the optional convergence history.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationSnapshot {
    /// SEA iteration at which the check ran.
    pub iteration: usize,
    /// Dual value `ζ(λ, μ)` after the column pass.
    pub dual_value: f64,
    /// Stopping-criterion residual at the check.
    pub residual: f64,
}

/// Outcome statistics of a solve.
#[derive(Debug, Clone)]
pub struct SolveStats {
    /// Completed SEA iterations (row + column sweeps).
    pub iterations: usize,
    /// Whether the stopping rule fired before the iteration cap.
    pub converged: bool,
    /// Final value of the stopping quantity.
    pub residual: f64,
    /// Final constraint residuals of the returned solution.
    pub residuals: Residuals,
    /// Primal objective at the returned solution.
    pub objective: f64,
    /// Dual value `ζ(λ, μ)` at the returned multipliers.
    pub dual_value: f64,
    /// Wall-clock time of the solve.
    pub elapsed: Duration,
    /// Phase-by-phase trace (present iff `record_trace`).
    pub trace: Option<ExecutionTrace>,
    /// Per-check convergence history (present iff `record_history`).
    pub history: Option<Vec<IterationSnapshot>>,
}

/// A computed estimate: the matrix, totals, multipliers, and statistics.
#[derive(Debug, Clone)]
pub struct Solution<S: Storage = DenseMatrix> {
    /// The matrix estimate `X` (`m×n`; same storage backend — and, for
    /// sparse backends, the same support pattern — as the problem's prior).
    pub x: S,
    /// Row totals `s` (equals `s⁰` for fixed problems).
    pub s: Vec<f64>,
    /// Column totals `d` (equals `d⁰` fixed, equals `s` balanced).
    pub d: Vec<f64>,
    /// Row multipliers `λ`.
    pub lambda: Vec<f64>,
    /// Column multipliers `μ`.
    pub mu: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
}

/// Solve a diagonal constrained matrix problem with SEA.
///
/// # Errors
/// * [`SeaError::InfeasibleSubproblem`] if a structural-zero row/column has
///   a nonzero fixed total.
/// * [`SeaError::NumericalBreakdown`] if the iterates become non-finite.
pub fn solve_diagonal<S: Storage>(
    p: &DiagonalProblem<S>,
    opts: &SeaOptions,
) -> Result<Solution<S>, SeaError> {
    solve_diagonal_observed(p, opts, &mut NullObserver)
}

/// [`solve_diagonal`] with an event sink.
///
/// Every lifecycle transition of the solve (phase boundaries, convergence
/// checks, multiplier-bound activations, kernel work counters) is reported
/// to `obs` as a typed [`Event`]. With [`NullObserver`] the instrumentation
/// compiles down to nothing: `enabled()` is a constant `false`, so no event
/// is ever constructed and the hot loop stays allocation-free.
///
/// # Errors
/// Same contract as [`solve_diagonal`].
pub fn solve_diagonal_observed<S: Storage, O: Observer + Send>(
    p: &DiagonalProblem<S>,
    opts: &SeaOptions,
    obs: &mut O,
) -> Result<Solution<S>, SeaError> {
    opts.parallelism
        .run(move || Ok(diagonal(p, opts, obs, &mut SolveControl::passive())?.output))
}

/// [`solve_diagonal_observed`] under a fault-tolerant supervisor.
///
/// The supervisor enforces the budget, watches for cancellation, stagnation
/// and numerical breakdown, writes crash-safe checkpoints, and falls back
/// per-subproblem from quickselect to sort-scan on kernel pathology. The
/// contract is: either `Ok` with a typed [`StopReason`](crate::StopReason)
/// and a KKT-residual certificate for the returned (possibly partial)
/// iterate, or a typed [`SeaError`] — never a panic or a silently wrong
/// answer.
///
/// # Errors
/// Same validation errors as [`solve_diagonal`], plus
/// [`SeaError::WorkerPanic`] for contained worker panics and
/// [`SeaError::NumericalBreakdown`] only when iterates go non-finite before
/// any convergence check has certified a restorable snapshot.
///
/// # Example
///
/// A budgeted solve: whatever stops it, the outcome names the reason and
/// certifies the returned iterate.
///
/// ```
/// use sea_core::{
///     solve_diagonal_supervised, DiagonalProblem, NullObserver, SeaOptions, SolveBudget,
///     StopReason, SupervisorOptions, TotalSpec, WeightScheme,
/// };
/// use sea_linalg::DenseMatrix;
///
/// let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]])?;
/// let gamma = WeightScheme::ChiSquare.entry_weights(&x0)?;
/// let p = DiagonalProblem::new(
///     x0,
///     gamma,
///     TotalSpec::Fixed { s0: vec![18.0, 18.0], d0: vec![18.0, 18.0] },
/// )?;
/// let sup = SupervisorOptions {
///     budget: SolveBudget { max_iterations: Some(500), ..SolveBudget::default() },
///     ..SupervisorOptions::default()
/// };
/// let opts = SeaOptions::with_epsilon(1e-10);
/// let out = solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver)?;
/// assert_eq!(out.stop, StopReason::Converged);
/// assert!(out.certificate.is_optimal(1e-6));
/// # Ok::<(), sea_core::SeaError>(())
/// ```
pub fn solve_diagonal_supervised<S: Storage, O: Observer + Send>(
    p: &DiagonalProblem<S>,
    opts: &SeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedSolution<S>, SeaError> {
    opts.parallelism.run(move || {
        let mut ctrl = SolveControl::active(sup);
        let done = diagonal(p, opts, obs, &mut ctrl)?;
        let certificate = crate::verify::verify_solution(p, &done.output);
        Ok(SupervisedSolution {
            solution: done.output,
            stop: done.stop,
            certificate,
            kernel_fallbacks: ctrl.fallbacks,
            checkpoint_error: ctrl.take_checkpoint_error(),
        })
    })
}

/// The diagonal driver on the epoch loop, in the caller's execution
/// context (the general driver's inner solves run here, inside its pool).
pub(crate) fn diagonal<S: Storage, O: Observer>(
    p: &DiagonalProblem<S>,
    opts: &SeaOptions,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<Finished<Solution<S>>, SeaError> {
    let criterion = opts.effective_criterion(p.totals());
    let step = DiagonalStep {
        p,
        sweep: Sweep::new(p.x0(), p.gamma(), opts, criterion)?,
        multiplier_bound: opts.multiplier_bound,
    };
    epoch::run(step, &Schedule::of(opts, criterion.name()), obs, ctrl)
}

/// The knapsack total of subproblem `i` on one side of a diagonal
/// problem; `cross` is the opposite side's multipliers, which couple the
/// balanced class's account totals.
fn total_mode(spec: &TotalSpec, row: bool, cross: &[f64], i: usize) -> TotalMode {
    match spec {
        TotalSpec::Fixed { s0, d0 } => TotalMode::Fixed {
            total: if row { s0[i] } else { d0[i] },
        },
        TotalSpec::Elastic {
            alpha,
            s0,
            beta,
            d0,
        } => {
            let (weight, prior) = if row { (alpha, s0) } else { (beta, d0) };
            TotalMode::Elastic {
                alpha: weight[i],
                prior: prior[i],
                cross: 0.0,
            }
        }
        TotalSpec::Balanced { alpha, s0 } => TotalMode::Elastic {
            alpha: alpha[i],
            prior: s0[i],
            cross: cross[i],
        },
    }
}

/// The dual iterate of an alternating row/column sweep, shared by the
/// diagonal and bounded steps.
pub(crate) struct Sweep<S: Storage> {
    /// Row multipliers `λ`.
    pub lambda: Vec<f64>,
    /// Column multipliers `μ`.
    pub mu: Vec<f64>,
    /// Row totals realized by the row pass.
    pub s: Vec<f64>,
    /// Column totals realized by the column pass.
    pub d: Vec<f64>,
    /// Row-pass iterate `X`.
    pub x: S,
    /// Column-pass iterate `Xᵀ` (the one every check measures).
    pub x_t: S,
    // Transposed prior and weights, once per solve: the column pass then
    // walks contiguous memory (for sparse storage, transposition doubles
    // as the column-access view of the support).
    x0_t: S,
    gamma_t: S,
    /// For `MaxAbsChange`: the iterate at the previous check (`X⁰` first).
    x_t_prev: Option<S>,
    /// Row sums of `X`, reused every check (allocation-free steady state).
    row_sums: Vec<f64>,
    // Shard boundaries for parallel passes, aligned to the prior's
    // support-graph components. Purely a locality hint: rows are
    // independent, so results are bitwise-identical for every sharding.
    row_starts: Option<Vec<usize>>,
    col_starts: Option<Vec<usize>>,
    criterion: ConvergenceCriterion,
    /// Whether a row pass has run, i.e. whether `lambda` holds multipliers
    /// the warm kernel can start from.
    swept: bool,
}

impl<S: Storage> Sweep<S> {
    /// Allocate the iterate for a prior/weight pair, warm-started from
    /// `opts.initial_mu` (the paper's Step 0 uses `μ¹ = 0`).
    ///
    /// # Errors
    /// [`SeaError::Shape`] for an `initial_mu` of the wrong length.
    pub(crate) fn new(
        x0: &S,
        gamma: &S,
        opts: &SeaOptions,
        criterion: ConvergenceCriterion,
    ) -> Result<Self, SeaError> {
        let (m, n) = (x0.rows(), x0.cols());
        let mu = match &opts.initial_mu {
            None => vec![0.0; n],
            Some(mu0) if mu0.len() == n => mu0.clone(),
            Some(mu0) => {
                return Err(SeaError::Shape {
                    context: "initial_mu",
                    expected: n,
                    actual: mu0.len(),
                })
            }
        };
        let x0_t = x0.transposed()?;
        let (row_starts, col_starts) = if opts.parallelism.is_parallel() {
            let target = opts.block_size.unwrap_or(DEFAULT_BLOCK_ROWS);
            let (row_labels, col_labels) = storage_support_components(x0, f64::NEG_INFINITY);
            (
                Some(shard_boundaries(&row_labels, target)),
                Some(shard_boundaries(&col_labels, target)),
            )
        } else {
            (None, None)
        };
        Ok(Sweep {
            lambda: vec![0.0; m],
            mu,
            s: vec![0.0; m],
            d: vec![0.0; n],
            x: x0.zeros_like()?,
            x_t: x0_t.zeros_like()?,
            x_t_prev: (criterion == ConvergenceCriterion::MaxAbsChange).then(|| x0_t.clone()),
            gamma_t: gamma.transposed()?,
            x0_t,
            row_sums: vec![0.0; m],
            row_starts,
            col_starts,
            criterion,
            swept: false,
        })
    }

    /// One epoch: the row pass (`λ` from `μ`), then the column pass (`μ`
    /// from `λ`). `support` and `bounds` are given as `[rows, columns]`,
    /// the column operands of `bounds` already transposed.
    pub(crate) fn sweep<O: Observer>(
        &mut self,
        cx: &mut Cx<'_, O>,
        (x0, gamma): (&S, &S),
        support: [Option<&[Vec<u32>]>; 2],
        bounds: [Option<Bounds<'_, S>>; 2],
        mode: impl Fn(bool, &[f64], usize) -> TotalMode + Sync,
    ) -> Result<(), SeaError> {
        if !self.swept {
            // No row multipliers yet. A plain warm search starts right of
            // every breakpoint (`f64::MAX`: all entries active), from where
            // Newton's method on the convex piecewise-linear total descends
            // monotonically; an interior solve lands in one step there. A
            // boxed subproblem there has every entry at its upper bound, a
            // flat piece with no Newton step, so a bounded pass starts from
            // NaN instead: the warm path declines before any trial and the
            // first pass costs exactly the cold quickselect's work.
            let start = if bounds[0].is_some() {
                f64::NAN
            } else {
                f64::MAX
            };
            self.lambda.fill(start);
            self.swept = true;
        }
        let mu = &self.mu;
        cx.pass(
            PhaseLabel::RowEquilibration,
            Operands {
                prior: x0,
                gamma,
                support: support[0],
                bounds: bounds[0],
                starts: self.row_starts.as_deref(),
            },
            mu,
            &|i| mode(true, mu, i),
            (&mut self.lambda, &mut self.s, &mut self.x),
        )?;
        let lambda = &self.lambda;
        cx.pass(
            PhaseLabel::ColumnEquilibration,
            Operands {
                prior: &self.x0_t,
                gamma: &self.gamma_t,
                support: support[1],
                bounds: bounds[1],
                starts: self.col_starts.as_deref(),
            },
            lambda,
            &|j| mode(false, lambda, j),
            (&mut self.mu, &mut self.d, &mut self.x_t),
        )
    }

    /// The stopping quantity of the sweep's criterion, measured on the
    /// column-pass iterate; row targets are `fixed_rows` when the row
    /// totals are known, else the totals the row pass realized.
    pub(crate) fn residual(&mut self, fixed_rows: Option<&[f64]>) -> f64 {
        let target = fixed_rows.unwrap_or(&self.s);
        match self.criterion {
            ConvergenceCriterion::MaxAbsChange => match self.x_t_prev.as_mut() {
                Some(prev) => {
                    let delta = self.x_t.max_abs_diff(prev);
                    prev.copy_values_from(&self.x_t);
                    delta
                }
                None => f64::INFINITY,
            },
            ConvergenceCriterion::RelativeRowBalance => {
                // Row sums of X = column sums of Xᵀ.
                self.x_t.col_sums_into(&mut self.row_sums);
                let mut rel: f64 = 0.0;
                for (r, t) in self.row_sums.iter().zip(target) {
                    rel = rel.max((r - t).abs() / t.abs().max(1e-12));
                }
                rel
            }
            ConvergenceCriterion::ConstraintNorm => {
                self.x_t.col_sums_into(&mut self.row_sums);
                let mut sq = 0.0;
                for (r, t) in self.row_sums.iter().zip(target) {
                    let v = r - t;
                    sq += v * v;
                }
                sq.sqrt()
            }
        }
    }

    /// The iterate as the loop sees it.
    pub(crate) fn iterate(&mut self) -> Iterate<'_> {
        Iterate {
            lambda: &mut self.lambda,
            mu: &mut self.mu,
            x: self.x_t.values_mut(),
            s: &mut self.s,
            d: &mut self.d,
        }
    }
}

/// The diagonal class (§3.1) on the epoch loop.
struct DiagonalStep<'p, S: Storage> {
    p: &'p DiagonalProblem<S>,
    sweep: Sweep<S>,
    multiplier_bound: Option<f64>,
}

impl<S: Storage> Step for DiagonalStep<'_, S> {
    type Output = Solution<S>;
    const SOLVER: &'static str = "diagonal";

    fn shape(&self) -> (usize, usize) {
        (self.p.m(), self.p.n())
    }

    fn advance<O: Observer>(&mut self, _t: usize, cx: &mut Cx<'_, O>) -> Result<(), SeaError> {
        let p = self.p;
        let support = p.support();
        self.sweep.sweep(
            cx,
            (p.x0(), p.gamma()),
            [
                support.map(|sup| sup.rows.as_slice()),
                support.map(|sup| sup.cols.as_slice()),
            ],
            [None, None],
            |row, cross, i| total_mode(p.totals(), row, cross, i),
        )?;
        // For the balanced class the column totals *are* the account totals.
        if matches!(p.totals(), TotalSpec::Balanced { .. }) {
            self.sweep.s.copy_from_slice(&self.sweep.d);
        }
        Ok(())
    }

    fn iterate(&mut self) -> Iterate<'_> {
        self.sweep.iterate()
    }

    fn residual(&mut self) -> f64 {
        // Elastic/balanced targets are the totals the passes realized
        // (eq. 23b / 40b); balanced `s` was synced to the column pass.
        let fixed = match self.p.totals() {
            TotalSpec::Fixed { s0, .. } => Some(s0.as_slice()),
            _ => None,
        };
        self.sweep.residual(fixed)
    }

    fn dual_value(&self) -> Option<f64> {
        Some(dual::dual_value(self.p, &self.sweep.lambda, &self.sweep.mu))
    }

    /// The Modified Algorithm: keep the dual iterates bounded.
    fn after_epoch<O: Observer>(&mut self, t: usize, cx: &mut Cx<'_, O>) {
        let Some(bound) = self.multiplier_bound else {
            return;
        };
        // x (row-pass iterate) is a valid support witness: shifting is only
        // applied within its positive components.
        let sw = &mut self.sweep;
        let shifted = normalize_multipliers_storage(&sw.x, &mut sw.lambda, &mut sw.mu, bound);
        if cx.observing && shifted > 0 {
            cx.obs.record(&Event::MultiplierBound {
                iteration: t,
                shifted,
                bound,
            });
        }
    }

    fn finish(self, run: Run) -> Result<(Solution<S>, f64, Option<f64>), SeaError> {
        let (p, sw) = (self.p, self.sweep);
        let x = sw.x_t.transposed()?;
        let (s, d) = match p.totals() {
            TotalSpec::Fixed { s0, d0 } => (s0.clone(), d0.clone()),
            // s from the final λ (eq. 23b); d from the final column pass.
            TotalSpec::Elastic { alpha, s0, .. } => (
                (0..p.m())
                    .map(|i| s0[i] - sw.lambda[i] / (2.0 * alpha[i]))
                    .collect(),
                sw.d,
            ),
            TotalSpec::Balanced { .. } => (sw.s.clone(), sw.s),
        };
        let residuals = p.residuals(&x, &s, &d);
        let objective = p.objective(&x, &s, &d);
        let dual_value = dual::dual_value(p, &sw.lambda, &sw.mu);
        let solution = Solution {
            x,
            s,
            d,
            lambda: sw.lambda,
            mu: sw.mu,
            stats: SolveStats {
                iterations: run.iterations,
                converged: run.converged,
                residual: run.residual,
                residuals,
                objective,
                dual_value,
                elapsed: run.start.elapsed(),
                trace: run.trace,
                history: run.history,
            },
        };
        Ok((solution, objective, Some(dual_value)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ZeroPolicy;
    use crate::trace::PhaseKind;
    use crate::weights::WeightScheme;

    fn fixed_problem() -> DiagonalProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap()
    }

    #[test]
    fn fixed_problem_converges_to_feasible_point() {
        let p = fixed_problem();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        assert!(sol.stats.converged, "did not converge: {:?}", sol.stats);
        assert!(sol.stats.residuals.row_inf < 1e-8);
        assert!(sol.stats.residuals.col_inf < 1e-10);
        assert!(sol.x.as_slice().iter().all(|&v| v >= 0.0));
        // Weak duality sandwich at the optimum.
        assert!(sol.stats.dual_value <= sol.stats.objective + 1e-8);
        assert!(
            (sol.stats.dual_value - sol.stats.objective).abs() < 1e-6,
            "duality gap too large: {} vs {}",
            sol.stats.dual_value,
            sol.stats.objective
        );
    }

    #[test]
    fn fixed_solution_satisfies_kkt() {
        let p = fixed_problem();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        // Stationarity: 2γ(x−x0) − λᵢ − μⱼ = 0 on the support, ≥ 0 off it.
        for i in 0..2 {
            for j in 0..2 {
                let grad = 2.0 * p.gamma().get(i, j) * (sol.x.get(i, j) - p.x0().get(i, j))
                    - sol.lambda[i]
                    - sol.mu[j];
                if sol.x.get(i, j) > 1e-9 {
                    assert!(grad.abs() < 1e-6, "grad({i},{j}) = {grad}");
                } else {
                    assert!(grad > -1e-6);
                }
            }
        }
    }

    #[test]
    fn elastic_problem_balances_push_and_pull() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Elastic {
                alpha: vec![1.0; 2],
                s0: vec![4.0, 4.0],
                beta: vec![1.0; 2],
                d0: vec![4.0, 4.0],
            },
        )
        .unwrap();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        assert!(sol.stats.converged);
        // Symmetric problem: x should stay symmetric, totals between the
        // prior margins (2) and the targets (4).
        let sums = sol.x.row_sums();
        assert!((sums[0] - sums[1]).abs() < 1e-8);
        assert!(sums[0] > 2.0 && sums[0] < 4.0);
        // Row constraint holds against estimated totals.
        assert!((sums[0] - sol.s[0]).abs() < 1e-8);
        assert!(sol.stats.residuals.row_inf < 1e-7);
    }

    #[test]
    fn balanced_problem_balances_accounts() {
        let x0 = DenseMatrix::from_rows(&[
            vec![0.0, 5.0, 1.0],
            vec![2.0, 0.0, 3.0],
            vec![4.0, 1.0, 0.0],
        ])
        .unwrap();
        let gamma = WeightScheme::LeastSquares.entry_weights(&x0).unwrap();
        let s0 = vec![6.0, 5.0, 5.0];
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Balanced {
                alpha: vec![1.0; 3],
                s0,
            },
        )
        .unwrap();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        assert!(sol.stats.converged);
        let rows = sol.x.row_sums();
        let cols = sol.x.col_sums();
        for i in 0..3 {
            assert!(
                (rows[i] - cols[i]).abs() < 1e-6,
                "account {i} unbalanced: row {} vs col {}",
                rows[i],
                cols[i]
            );
            assert!((rows[i] - sol.s[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn structural_zeros_survive_the_solve() {
        let x0 = DenseMatrix::from_rows(&[vec![0.0, 5.0], vec![3.0, 2.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let p = DiagonalProblem::with_zero_policy(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![6.0, 6.0],
                d0: vec![4.0, 8.0],
            },
            ZeroPolicy::Structural,
        )
        .unwrap();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        assert!(sol.stats.converged);
        assert_eq!(sol.x.get(0, 0), 0.0);
        assert!(sol.stats.residuals.row_inf < 1e-7);
    }

    #[test]
    fn parallel_matches_serial() {
        let p = fixed_problem();
        let serial = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.parallelism = Parallelism::RayonThreads(2);
        let par = solve_diagonal(&p, &opts).unwrap();
        assert_eq!(serial.stats.iterations, par.stats.iterations);
        assert!(serial.x.max_abs_diff(&par.x) < 1e-12);
    }

    #[test]
    fn trace_records_phases() {
        let p = fixed_problem();
        let mut opts = SeaOptions::with_epsilon(1e-8);
        opts.record_trace = true;
        let sol = solve_diagonal(&p, &opts).unwrap();
        let trace = sol.stats.trace.as_ref().unwrap();
        let iters = sol.stats.iterations;
        assert_eq!(trace.count(PhaseKind::RowEquilibration), iters);
        assert_eq!(trace.count(PhaseKind::ColumnEquilibration), iters);
        assert_eq!(trace.count(PhaseKind::ConvergenceCheck), iters);
        // Row phases have one task per row.
        let row_phase = trace
            .phases
            .iter()
            .find(|ph| ph.kind == PhaseKind::RowEquilibration)
            .unwrap();
        assert_eq!(row_phase.task_seconds.len(), 2);
    }

    #[test]
    fn check_every_reduces_serial_phases() {
        let p = fixed_problem();
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.check_every = 2;
        opts.record_trace = true;
        let sol = solve_diagonal(&p, &opts).unwrap();
        let trace = sol.stats.trace.as_ref().unwrap();
        assert!(trace.count(PhaseKind::ConvergenceCheck) <= sol.stats.iterations / 2 + 1);
        assert!(sol.stats.converged);
    }

    #[test]
    fn iteration_cap_reports_nonconvergence() {
        // Unequal weights: one sweep is not exact (with equal weights the
        // 2x2 fixed problem happens to solve in a single iteration).
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let mut gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        gamma.set(0, 0, 9.0);
        gamma.set(1, 1, 0.25);
        let p = DiagonalProblem::new(
            x0,
            gamma,
            TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let mut opts = SeaOptions::with_epsilon(1e-16);
        opts.max_iterations = 1;
        let sol = solve_diagonal(&p, &opts).unwrap();
        assert!(!sol.stats.converged);
        assert_eq!(sol.stats.iterations, 1);
        // Even without convergence the column constraints hold exactly.
        assert!(sol.stats.residuals.col_inf < 1e-9);
    }

    #[test]
    fn iterations_within_theoretical_bound() {
        let p = fixed_problem();
        let eps = 1e-4;
        let mut opts = SeaOptions::with_epsilon(eps);
        opts.criterion = Some(ConvergenceCriterion::ConstraintNorm);
        let sol = solve_diagonal(&p, &opts).unwrap();
        assert!(sol.stats.converged);
        let bound = crate::theory::iteration_bound(&p, eps);
        assert!(
            (sol.stats.iterations as f64) <= bound,
            "iterations {} exceed bound {}",
            sol.stats.iterations,
            bound
        );
    }

    #[test]
    fn modified_algorithm_does_not_change_solution() {
        let p = fixed_problem();
        let plain = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.multiplier_bound = Some(1e3);
        let modified = solve_diagonal(&p, &opts).unwrap();
        assert!(plain.x.max_abs_diff(&modified.x) < 1e-8);
    }

    #[test]
    fn history_records_monotone_dual_ascent() {
        // The paper's eq. 71: ζ(λ^{t+2}, μ^{t+1}) ≥ ζ(λ^{t+1}, μ^{t+1}) ≥ …
        // — dual values never decrease across iterations.
        let spe_like = DiagonalProblem::new(
            DenseMatrix::from_rows(&[
                vec![1.0, 6.0, 2.0],
                vec![5.0, 1.0, 3.0],
                vec![2.0, 2.0, 7.0],
            ])
            .unwrap(),
            DenseMatrix::filled(3, 3, 1.0).unwrap(),
            TotalSpec::Elastic {
                alpha: vec![0.5; 3],
                s0: vec![20.0, 15.0, 18.0],
                beta: vec![0.5; 3],
                d0: vec![18.0, 17.0, 18.0],
            },
        )
        .unwrap();
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.record_history = true;
        let sol = solve_diagonal(&spe_like, &opts).unwrap();
        let history = sol.stats.history.as_ref().unwrap();
        assert!(history.len() > 2, "needs several checks to be meaningful");
        for w in history.windows(2) {
            assert!(
                w[1].dual_value >= w[0].dual_value - 1e-9 * w[0].dual_value.abs().max(1.0),
                "dual ascent violated: {} then {}",
                w[0].dual_value,
                w[1].dual_value
            );
        }
        // The dual converges to the primal objective from below.
        let last = history.last().unwrap();
        assert!(last.dual_value <= sol.stats.objective + 1e-8);
    }

    #[test]
    fn warm_start_reproduces_same_solution() {
        let p = fixed_problem();
        let cold = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        // Restarting from the converged multipliers converges immediately
        // to the same point.
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.initial_mu = Some(cold.mu.clone());
        let warm = solve_diagonal(&p, &opts).unwrap();
        assert!(warm.stats.converged);
        assert!(warm.stats.iterations <= cold.stats.iterations);
        assert!(warm.x.max_abs_diff(&cold.x) < 1e-8);
        // Wrong length is rejected.
        opts.initial_mu = Some(vec![0.0; 5]);
        assert!(matches!(
            solve_diagonal(&p, &opts),
            Err(SeaError::Shape {
                context: "initial_mu",
                ..
            })
        ));
    }

    #[test]
    fn observer_sees_full_event_lifecycle() {
        let p = fixed_problem();
        let mut obs = sea_observe::VecObserver::new();
        let sol = solve_diagonal_observed(&p, &SeaOptions::with_epsilon(1e-10), &mut obs).unwrap();
        let events = &obs.events;
        assert!(matches!(
            events.first(),
            Some(Event::SolveStart {
                solver: "diagonal",
                rows: 2,
                cols: 2,
                ..
            })
        ));
        match events.last() {
            Some(Event::SolveEnd {
                iterations,
                converged,
                ..
            }) => {
                assert_eq!(*iterations, sol.stats.iterations);
                assert!(*converged);
            }
            other => panic!("expected SolveEnd, got {other:?}"),
        }
        // Each iteration contributes row + column + check phase pairs.
        let row_starts = events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::PhaseStart {
                        label: PhaseLabel::RowEquilibration,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(row_starts, sol.stats.iterations);
        let checks = events
            .iter()
            .filter(|e| matches!(e, Event::ConvergenceCheck { .. }))
            .count();
        assert_eq!(checks, sol.stats.iterations);
        // Kernel counters were harvested: one subproblem per row and column
        // per iteration.
        let counters = events.iter().find_map(|e| match e {
            Event::KernelCounters { counters } => Some(*counters),
            _ => None,
        });
        let snap = counters.expect("kernel counters event missing");
        assert_eq!(snap.subproblems, (4 * sol.stats.iterations) as u64);
        // The dual value is reported at every check.
        for e in events {
            if let Event::ConvergenceCheck { dual_value, .. } = e {
                assert!(dual_value.is_some());
            }
        }
    }

    #[test]
    fn observed_solve_matches_unobserved() {
        let p = fixed_problem();
        let plain = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
        let mut obs = sea_observe::VecObserver::new();
        let observed =
            solve_diagonal_observed(&p, &SeaOptions::with_epsilon(1e-10), &mut obs).unwrap();
        assert_eq!(plain.stats.iterations, observed.stats.iterations);
        assert!(plain.x.max_abs_diff(&observed.x) < 1e-15);
    }

    #[test]
    fn criterion_names_are_stable() {
        assert_eq!(ConvergenceCriterion::MaxAbsChange.name(), "max_abs_change");
        assert_eq!(
            ConvergenceCriterion::RelativeRowBalance.name(),
            "relative_row_balance"
        );
        assert_eq!(
            ConvergenceCriterion::ConstraintNorm.name(),
            "constraint_norm"
        );
    }

    #[test]
    fn chi_square_weights_reproduce_biproportional_flavor() {
        // With chi-square weights and doubled margins, entries roughly
        // double (the RAS-like behaviour the weights are chosen for).
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
        let s0: Vec<f64> = x0.row_sums().iter().map(|v| 2.0 * v).collect();
        let d0: Vec<f64> = x0.col_sums().iter().map(|v| 2.0 * v).collect();
        let p = DiagonalProblem::new(x0.clone(), gamma, TotalSpec::Fixed { s0, d0 }).unwrap();
        let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-12)).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let ratio = sol.x.get(i, j) / x0.get(i, j);
                assert!((ratio - 2.0).abs() < 1e-6, "ratio({i},{j}) = {ratio}");
            }
        }
    }
}
