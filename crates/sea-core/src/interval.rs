//! Box/interval-constrained diagonal problems — the Harrigan–Buchanan
//! (1984) and Ohuchi–Kaji (1984) extensions noted in §2.
//!
//! The fixed-totals diagonal problem gains per-entry bounds
//! `loᵢⱼ ≤ xᵢⱼ ≤ hiᵢⱼ` (interval constraints on the estimates). The SEA
//! machinery carries over unchanged: each row/column subproblem becomes a
//! box-bounded continuous quadratic knapsack, still solvable exactly by a
//! breakpoint sweep ([`crate::knapsack::exact_equilibration_boxed`]). The
//! driver is the diagonal sweep on the shared epoch loop with bounds
//! handed to the passes, so it inherits serial and sharded parallel
//! passes, the supervisor, and the event/span vocabulary unchanged.

use crate::epoch::{self, Cx, Finished, Iterate, Run, Schedule, Step};
use crate::equilibrate::Bounds;
use crate::error::SeaError;
use crate::knapsack::TotalMode;
use crate::problem::Residuals;
use crate::solver::{ConvergenceCriterion, SeaOptions, Sweep};
use crate::storage::Storage;
use crate::supervisor::{SolveControl, SupervisedBoundedSolution, SupervisorOptions};
use sea_linalg::DenseMatrix;
use sea_observe::{NullObserver, Observer};
use std::time::Duration;

/// A fixed-totals diagonal problem with entry bounds. Generic over
/// [`Storage`]: with a sparse backend, all four matrices share one support
/// pattern and entries outside it are pinned at zero (they contribute
/// nothing to either bound sum).
#[derive(Debug, Clone)]
pub struct BoundedProblem<S: Storage = DenseMatrix> {
    x0: S,
    gamma: S,
    lo: S,
    hi: S,
    s0: Vec<f64>,
    d0: Vec<f64>,
}

impl<S: Storage> BoundedProblem<S> {
    /// Build and validate.
    ///
    /// # Errors
    /// * [`SeaError::Shape`] for any dimension mismatch.
    /// * [`SeaError::InconsistentBounds`] if some `lo > hi` entrywise.
    /// * [`SeaError::InconsistentTotals`] if `Σ s⁰ ≠ Σ d⁰`.
    /// * [`SeaError::NonPositiveWeight`] for non-positive `γ`.
    /// * [`SeaError::InfeasibleSubproblem`] when a row/column total falls
    ///   outside its `[Σ lo, Σ hi]` range.
    pub fn new(
        x0: S,
        gamma: S,
        lo: S,
        hi: S,
        s0: Vec<f64>,
        d0: Vec<f64>,
    ) -> Result<Self, SeaError> {
        let (m, n) = (x0.rows(), x0.cols());
        for (mat, ctx) in [
            (&gamma, "bounded gamma shape"),
            (&lo, "bounded lo shape"),
            (&hi, "bounded hi shape"),
        ] {
            if mat.rows() != m || mat.cols() != n {
                return Err(SeaError::Shape {
                    context: ctx,
                    expected: m * n,
                    actual: mat.rows() * mat.cols(),
                });
            }
            if !x0.same_pattern(mat) {
                return Err(SeaError::PatternMismatch {
                    context: "bounded support pattern",
                });
            }
        }
        if s0.len() != m || d0.len() != n {
            return Err(SeaError::Shape {
                context: "bounded totals",
                expected: m + n,
                actual: s0.len() + d0.len(),
            });
        }
        // `index` is a storage index: a flat cell index for dense backends,
        // a position in the stored-value array for sparse ones.
        for (k, (&l, &h)) in lo.values().iter().zip(hi.values()).enumerate() {
            if l > h {
                return Err(SeaError::InconsistentBounds {
                    index: k,
                    lower: l,
                    upper: h,
                });
            }
        }
        for (k, &g) in gamma.values().iter().enumerate() {
            if !(g > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "gamma",
                    index: k,
                    value: g,
                });
            }
        }
        let rs: f64 = s0.iter().sum();
        let cs: f64 = d0.iter().sum();
        if (rs - cs).abs() > 1e-9 * rs.abs().max(cs.abs()).max(1.0) {
            return Err(SeaError::InconsistentTotals {
                row_total: rs,
                col_total: cs,
            });
        }
        // Per-subproblem feasibility: s⁰ᵢ ∈ [Σⱼ lo, Σⱼ hi], likewise
        // columns. Off-support entries of a sparse backend are pinned at 0
        // and add nothing to either sum, so a fully-pinned (empty) sparse
        // row is feasible only for a zero total.
        let mut lo_sums = vec![0.0; m];
        let mut hi_sums = vec![0.0; m];
        lo.row_sums_into(&mut lo_sums);
        hi.row_sums_into(&mut hi_sums);
        for i in 0..m {
            if s0[i] < lo_sums[i] - 1e-9 || s0[i] > hi_sums[i] + 1e-9 {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "row",
                    index: i,
                });
            }
        }
        let mut lo_csums = vec![0.0; n];
        let mut hi_csums = vec![0.0; n];
        lo.col_sums_into(&mut lo_csums);
        hi.col_sums_into(&mut hi_csums);
        for j in 0..n {
            if d0[j] < lo_csums[j] - 1e-9 || d0[j] > hi_csums[j] + 1e-9 {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "column",
                    index: j,
                });
            }
        }
        Ok(Self {
            x0,
            gamma,
            lo,
            hi,
            s0,
            d0,
        })
    }

    /// Rows.
    pub fn m(&self) -> usize {
        self.x0.rows()
    }

    /// Columns.
    pub fn n(&self) -> usize {
        self.x0.cols()
    }

    /// The prior `X⁰`.
    pub fn x0(&self) -> &S {
        &self.x0
    }

    /// The weight matrix `Γ`.
    pub fn gamma(&self) -> &S {
        &self.gamma
    }

    /// Lower bounds.
    pub fn lo(&self) -> &S {
        &self.lo
    }

    /// Upper bounds.
    pub fn hi(&self) -> &S {
        &self.hi
    }

    /// Row totals `s⁰`.
    pub fn s0(&self) -> &[f64] {
        &self.s0
    }

    /// Column totals `d⁰`.
    pub fn d0(&self) -> &[f64] {
        &self.d0
    }

    /// Objective `Σ γᵢⱼ (xᵢⱼ − x⁰ᵢⱼ)²`.
    pub fn objective(&self, x: &S) -> f64 {
        debug_assert!(x.same_pattern(&self.x0));
        x.values()
            .iter()
            .zip(self.x0.values().iter().zip(self.gamma.values()))
            .map(|(x, (x0, g))| g * (x - x0) * (x - x0))
            .sum()
    }
}

/// Result of a bounded solve.
#[derive(Debug, Clone)]
pub struct BoundedSolution<S: Storage = DenseMatrix> {
    /// The estimate (same storage backend as the problem).
    pub x: S,
    /// Row multipliers.
    pub lambda: Vec<f64>,
    /// Column multipliers.
    pub mu: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative row-balance criterion fired.
    pub converged: bool,
    /// Final constraint residuals.
    pub residuals: Residuals,
    /// Objective value.
    pub objective: f64,
    /// Wall clock.
    pub elapsed: Duration,
}

/// Solve a bounded problem by SEA with box-bounded exact equilibration
/// (sort-scan kernel, serial passes, relative row balance).
///
/// # Errors
/// Propagates kernel failures; returns `converged = false` on hitting
/// `max_iterations`.
pub fn solve_bounded<S: Storage>(
    p: &BoundedProblem<S>,
    epsilon: f64,
    max_iterations: usize,
) -> Result<BoundedSolution<S>, SeaError> {
    let opts = SeaOptions {
        epsilon,
        max_iterations,
        ..SeaOptions::default()
    };
    Ok(bounded(p, &opts, &mut NullObserver, &mut SolveControl::passive())?.output)
}

/// [`solve_bounded`] with full options, an event sink, and the
/// fault-tolerant supervisor — the bounded class on the same epoch loop as
/// the diagonal driver (see [`crate::solver::solve_diagonal_supervised`]).
///
/// Every [`SupervisorOptions`] knob is honoured; checkpoints are written
/// with `solver bounded` and resume through `opts.initial_mu` (the row
/// pass recomputes `λ` from `μ`). Of the [`SeaOptions`], the kernel, SIMD
/// and precision choices, the stopping criterion and cadence, parallelism
/// and shard size, and the warm start are honoured.
///
/// # Errors
/// Same contract as [`solve_bounded`], plus:
/// * [`SeaError::Unsupported`] for `record_trace`, `record_history` and
///   `multiplier_bound`, which the bounded class cannot express;
/// * [`SeaError::Shape`] when `initial_mu` has the wrong length;
/// * [`SeaError::SimdUnsupported`] when SIMD is forced without AVX2.
///
/// Numerical breakdown after a certified snapshot returns that snapshot
/// with [`StopReason::Breakdown`](crate::StopReason::Breakdown) instead of
/// an error.
pub fn solve_bounded_supervised<S: Storage, O: Observer + Send>(
    p: &BoundedProblem<S>,
    opts: &SeaOptions,
    sup: &SupervisorOptions,
    obs: &mut O,
) -> Result<SupervisedBoundedSolution<S>, SeaError> {
    opts.parallelism.run(move || {
        let done = bounded(p, opts, obs, &mut SolveControl::active(sup))?;
        Ok(SupervisedBoundedSolution {
            solution: done.output,
            stop: done.stop,
        })
    })
}

fn bounded<S: Storage, O: Observer>(
    p: &BoundedProblem<S>,
    opts: &SeaOptions,
    obs: &mut O,
    ctrl: &mut SolveControl<'_>,
) -> Result<Finished<BoundedSolution<S>>, SeaError> {
    let refused = if opts.record_trace {
        Some("record_trace")
    } else if opts.record_history {
        Some("record_history")
    } else if opts.multiplier_bound.is_some() {
        Some("multiplier_bound")
    } else {
        None
    };
    if let Some(option) = refused {
        return Err(SeaError::Unsupported {
            driver: "bounded",
            option,
        });
    }
    let criterion = opts
        .criterion
        .unwrap_or(ConvergenceCriterion::RelativeRowBalance);
    let step = BoundedStep {
        p,
        sweep: Sweep::new(&p.x0, &p.gamma, opts, criterion)?,
        lo_t: p.lo.transposed()?,
        hi_t: p.hi.transposed()?,
    };
    epoch::run(step, &Schedule::of(opts, criterion.name()), obs, ctrl)
}

/// The bounded class on the epoch loop: the diagonal sweep with every
/// subproblem a box-bounded knapsack.
struct BoundedStep<'p, S: Storage> {
    p: &'p BoundedProblem<S>,
    sweep: Sweep<S>,
    lo_t: S,
    hi_t: S,
}

impl<S: Storage> Step for BoundedStep<'_, S> {
    type Output = BoundedSolution<S>;
    const SOLVER: &'static str = "bounded";

    fn shape(&self) -> (usize, usize) {
        (self.p.m(), self.p.n())
    }

    fn advance<O: Observer>(&mut self, _t: usize, cx: &mut Cx<'_, O>) -> Result<(), SeaError> {
        let p = self.p;
        self.sweep.sweep(
            cx,
            (&p.x0, &p.gamma),
            [None, None],
            [
                Some(Bounds {
                    lo: &p.lo,
                    hi: &p.hi,
                }),
                Some(Bounds {
                    lo: &self.lo_t,
                    hi: &self.hi_t,
                }),
            ],
            |row, _, i| TotalMode::Fixed {
                total: if row { p.s0[i] } else { p.d0[i] },
            },
        )
    }

    fn iterate(&mut self) -> Iterate<'_> {
        self.sweep.iterate()
    }

    fn residual(&mut self) -> f64 {
        self.sweep.residual(Some(&self.p.s0))
    }

    fn finish(self, run: Run) -> Result<(BoundedSolution<S>, f64, Option<f64>), SeaError> {
        let x = self.sweep.x_t.transposed()?;
        let objective = self.p.objective(&x);
        let solution = BoundedSolution {
            residuals: Residuals::of(&x, &self.p.s0, &self.p.d0),
            x,
            lambda: self.sweep.lambda,
            mu: self.sweep.mu,
            iterations: run.iterations,
            converged: run.converged,
            objective,
            elapsed: run.start.elapsed(),
        };
        Ok((solution, objective, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::RowView;

    fn problem() -> BoundedProblem {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.5).unwrap();
        let hi = DenseMatrix::filled(2, 2, 10.0).unwrap();
        BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 6.0], vec![5.0, 5.0]).unwrap()
    }

    #[test]
    fn sparse_bounded_matches_dense_bitwise_on_full_pattern() {
        // A full-pattern CSR bounded problem must replay the dense driver
        // exactly: same multipliers, same entries, same bits.
        use sea_linalg::CsrMatrix;
        let p = problem();
        let sp = BoundedProblem::<CsrMatrix>::new(
            CsrMatrix::from_dense_full(
                &DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
            )
            .unwrap(),
            CsrMatrix::from_dense_full(&DenseMatrix::filled(2, 2, 1.0).unwrap()).unwrap(),
            CsrMatrix::from_dense_full(&DenseMatrix::filled(2, 2, 0.5).unwrap()).unwrap(),
            CsrMatrix::from_dense_full(&DenseMatrix::filled(2, 2, 10.0).unwrap()).unwrap(),
            vec![4.0, 6.0],
            vec![5.0, 5.0],
        )
        .unwrap();
        let dense = solve_bounded(&p, 1e-10, 10_000).unwrap();
        let sparse = solve_bounded(&sp, 1e-10, 10_000).unwrap();
        assert!(dense.converged && sparse.converged);
        assert_eq!(dense.x.as_slice(), sparse.x.values());
        assert_eq!(dense.lambda, sparse.lambda);
        assert_eq!(dense.mu, sparse.mu);
        assert_eq!(dense.iterations, sparse.iterations);
    }

    #[test]
    fn sparse_bounded_empty_row_needs_zero_total() {
        // Row 1 of the support is empty: every cell is a structural zero,
        // so a nonzero row total must be rejected at validation with a
        // typed error, and a zero total must solve cleanly.
        use sea_linalg::CsrMatrix;
        let trip = |v: f64| CsrMatrix::from_triplets(2, 2, &[(0, 0, v), (0, 1, v)]).unwrap();
        let x0 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0)]).unwrap();
        let bad = BoundedProblem::new(
            x0.clone(),
            trip(1.0),
            trip(0.0),
            trip(10.0),
            vec![4.0, 1.0],
            vec![2.5, 2.5],
        );
        assert!(matches!(
            bad,
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 1
            })
        ));
        let ok = BoundedProblem::new(
            x0,
            trip(1.0),
            trip(0.0),
            trip(10.0),
            vec![4.0, 0.0],
            vec![2.0, 2.0],
        )
        .unwrap();
        let sol = solve_bounded(&ok, 1e-10, 10_000).unwrap();
        assert!(sol.converged);
        assert_eq!(
            sol.x.row_view(1),
            RowView::Indexed {
                idx: &[],
                vals: &[]
            }
        );
        assert!((sol.x.values().iter().sum::<f64>() - 4.0).abs() < 1e-8);
    }

    #[test]
    fn mismatched_sparse_patterns_are_rejected() {
        use sea_linalg::CsrMatrix;
        let x0 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let gamma = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let b = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        let r = BoundedProblem::new(x0, gamma, b.clone(), b, vec![1.0, 2.0], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SeaError::PatternMismatch { .. })));
    }

    #[test]
    fn bounded_solve_is_feasible_and_within_bounds() {
        let p = problem();
        let sol = solve_bounded(&p, 1e-10, 10_000).unwrap();
        assert!(sol.converged);
        assert!(sol.residuals.row_inf < 1e-8);
        assert!(sol.residuals.col_inf < 1e-9);
        for &v in sol.x.as_slice() {
            assert!((0.5..=10.0).contains(&v));
        }
    }

    #[test]
    fn loose_bounds_match_unbounded_sea() {
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.0).unwrap();
        let hi = DenseMatrix::filled(2, 2, 1e9).unwrap();
        let p = BoundedProblem::new(
            x0.clone(),
            gamma.clone(),
            lo,
            hi,
            vec![4.0, 6.0],
            vec![5.0, 5.0],
        )
        .unwrap();
        let bounded = solve_bounded(&p, 1e-12, 10_000).unwrap();
        let dp = crate::problem::DiagonalProblem::new(
            x0,
            gamma,
            crate::problem::TotalSpec::Fixed {
                s0: vec![4.0, 6.0],
                d0: vec![5.0, 5.0],
            },
        )
        .unwrap();
        let free =
            crate::solver::solve_diagonal(&dp, &crate::solver::SeaOptions::with_epsilon(1e-12))
                .unwrap();
        assert!(bounded.x.max_abs_diff(&free.x) < 1e-6);
    }

    #[test]
    fn tight_bounds_pin_entries() {
        // Pin entry (0,0) to exactly 2.0 via lo = hi.
        let x0 = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let mut lo = DenseMatrix::filled(2, 2, 0.0).unwrap();
        let mut hi = DenseMatrix::filled(2, 2, 100.0).unwrap();
        lo.set(0, 0, 2.0);
        hi.set(0, 0, 2.0);
        let p = BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 6.0], vec![5.0, 5.0]).unwrap();
        let sol = solve_bounded(&p, 1e-10, 10_000).unwrap();
        assert!(sol.converged);
        assert!((sol.x.get(0, 0) - 2.0).abs() < 1e-9);
        assert!(sol.residuals.row_inf < 1e-7);
    }

    #[test]
    fn bounded_observer_reports_clamps() {
        use crate::supervisor::StopReason;
        use sea_observe::Event;
        let p = problem();
        let mut obs = sea_observe::VecObserver::new();
        let sol = solve_bounded_supervised(
            &p,
            &SeaOptions::with_epsilon(1e-10),
            &SupervisorOptions::default(),
            &mut obs,
        )
        .unwrap();
        assert_eq!(sol.stop, StopReason::Converged);
        assert!(matches!(
            obs.events.first(),
            Some(Event::SolveStart {
                solver: "bounded",
                ..
            })
        ));
        let checks = obs
            .events
            .iter()
            .filter(|e| matches!(e, Event::ConvergenceCheck { .. }))
            .count();
        assert_eq!(checks, sol.solution.iterations);
        let counters = obs
            .events
            .iter()
            .find_map(|e| match e {
                Event::KernelCounters { counters } => Some(*counters),
                _ => None,
            })
            .expect("kernel counters event missing");
        assert_eq!(counters.subproblems, (4 * sol.solution.iterations) as u64);
    }

    #[test]
    fn warm_start_reproduces_same_solution_and_validates_length() {
        use crate::supervisor::StopReason;
        let p = problem();
        let sup = SupervisorOptions::default();
        let solve = |initial_mu: Option<Vec<f64>>| {
            let opts = SeaOptions {
                initial_mu,
                ..SeaOptions::with_epsilon(1e-10)
            };
            solve_bounded_supervised(&p, &opts, &sup, &mut NullObserver)
        };
        let cold = solve(None).unwrap();
        assert_eq!(cold.stop, StopReason::Converged);
        let warm = solve(Some(cold.solution.mu.clone())).unwrap();
        assert_eq!(warm.stop, StopReason::Converged);
        assert!(warm.solution.iterations <= cold.solution.iterations);
        assert!(warm.solution.x.max_abs_diff(&cold.solution.x) < 1e-8);
        assert!(matches!(
            solve(Some(vec![0.0; 5])),
            Err(SeaError::Shape {
                context: "initial_mu",
                ..
            })
        ));
    }

    #[test]
    fn validation_rejects_infeasible_margins() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 0.0).unwrap();
        let hi = DenseMatrix::filled(2, 2, 1.0).unwrap();
        // Row 0 total 3.0 exceeds Σ hi = 2.
        assert!(matches!(
            BoundedProblem::new(x0, gamma, lo, hi, vec![3.0, 1.0], vec![2.0, 2.0]),
            Err(SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0
            })
        ));
    }

    #[test]
    fn validation_rejects_crossed_bounds() {
        let x0 = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let gamma = DenseMatrix::filled(2, 2, 1.0).unwrap();
        let lo = DenseMatrix::filled(2, 2, 2.0).unwrap();
        let hi = DenseMatrix::filled(2, 2, 1.0).unwrap();
        assert!(matches!(
            BoundedProblem::new(x0, gamma, lo, hi, vec![4.0, 4.0], vec![4.0, 4.0]),
            Err(SeaError::InconsistentBounds {
                index: 0,
                lower,
                upper,
            }) if lower == 2.0 && upper == 1.0
        ));
    }
}
