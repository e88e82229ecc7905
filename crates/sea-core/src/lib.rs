//! # sea-core — the Splitting Equilibration Algorithm
//!
//! Implementation of Nagurney & Eydeland (1990): quadratic constrained
//! matrix problems and the splitting equilibration algorithm (SEA) that
//! solves them by alternating parallel row/column *exact equilibrations* on
//! the dual.
//!
//! ## Layout
//!
//! * [`problem`] — [`DiagonalProblem`] with the three total specifications
//!   ([`TotalSpec::Fixed`], [`TotalSpec::Elastic`], [`TotalSpec::Balanced`])
//!   and structural-zero support.
//! * [`weights`] — [`WeightScheme`]: least-squares, chi-square,
//!   inverse-sqrt.
//! * [`knapsack`] — the exact-equilibration kernel (closed-form
//!   single-constraint QP via breakpoint sort), plus a box-bounded variant.
//! * [`kernel_simd`] — vectorized (runtime-dispatched SIMD) and
//!   mixed-precision variants of the kernels, bitwise-identical to the
//!   scalar oracle by construction (elementwise SIMD, scalar-order
//!   reductions).
//! * [`equilibrate`] — row/column equilibration passes (serial and
//!   parallel, optionally box-bounded) that fan the kernel out over a
//!   matrix.
//! * `epoch` (crate-private) — the one epoch loop every driver runs on: it
//!   owns events, spans, the watchdog, convergence checks, telemetry, and
//!   the supervisor's budgets and checkpoints; a per-class step owns one
//!   epoch of mathematics.
//! * [`solver`] — [`solve_diagonal`]: the diagonal SEA driver (§3.1) and
//!   the row/column sweep it shares with the bounded class.
//! * [`storage`] — the [`Storage`] abstraction every driver is generic
//!   over: row-major dense (`DenseMatrix`) and CSR support-only
//!   (`CsrMatrix`) problem storage with bitwise-identical solves.
//! * [`error`] — [`SeaError`], the typed failure vocabulary (no panics in
//!   library code).
//! * [`general`] — [`GeneralProblem`] and [`solve_general`]: the
//!   projection/diagonalization step for dense `A`, `B`, `G` (§3.2), each
//!   epoch an inner diagonal solve on the same loop.
//! * [`dual`] — `ζ₁/ζ₂/ζ₃`, gradients, weak duality.
//! * [`theory`] — curvature and iteration bounds (eq. 58–64, 77).
//! * [`components`] — support-graph components and the Modified Algorithm.
//! * [`parallel`], [`trace`] — execution control and phase traces for the
//!   scheduling simulator.
//! * [`interval`] — interval/box-constrained extension (Harrigan–Buchanan,
//!   Ohuchi–Kaji): [`solve_bounded`] and [`solve_bounded_supervised`].
//! * [`observe`] — glue to the `sea-observe` event schema: the observed
//!   and supervised entry points stream typed lifecycle events to an
//!   [`Observer`] sink, and recorded logs convert back to
//!   [`ExecutionTrace`]s.
//! * [`verify`] — first-principles KKT/duality verification of computed
//!   solutions.
//! * [`supervisor`] — fault-tolerant solve supervision: budgets,
//!   cancellation, breakdown/stagnation watchdogs, crash-safe checkpoints,
//!   kernel fallback, and a deterministic fault-injection plan.
//!
//! ## Example
//!
//! ```
//! use sea_core::{DiagonalProblem, SeaOptions, TotalSpec, WeightScheme, solve_diagonal};
//! use sea_linalg::DenseMatrix;
//!
//! let x0 = DenseMatrix::from_rows(&[vec![10.0, 5.0], vec![5.0, 10.0]]).unwrap();
//! let gamma = WeightScheme::ChiSquare.entry_weights(&x0).unwrap();
//! let p = DiagonalProblem::new(
//!     x0,
//!     gamma,
//!     TotalSpec::Fixed { s0: vec![18.0, 18.0], d0: vec![18.0, 18.0] },
//! ).unwrap();
//! let sol = solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).unwrap();
//! assert!(sol.stats.converged);
//! assert!(sol.stats.residuals.row_inf < 1e-6);
//! ```

// Numeric-kernel idioms: indexed loops over multiple parallel arrays are
// clearer than zipped iterator chains in the equilibration math, and
// `!(w > 0.0)` deliberately treats NaN as invalid (a positive-weight check
// that `w <= 0.0` would pass NaN through).
#![allow(clippy::needless_range_loop)]
#![allow(clippy::neg_cmp_op_on_partial_ord)]
// Robustness contract: library code must surface failures as `SeaError`,
// never panic. The few justified sites carry an explicit `#[allow]` with a
// proof comment; tests are exempt.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod components;
pub mod dual;
mod epoch;
pub mod equilibrate;
pub mod error;
pub mod general;
pub mod interval;
pub mod kernel_simd;
pub mod knapsack;
pub mod observe;
pub mod parallel;
pub mod problem;
pub mod solver;
pub mod storage;
pub mod supervisor;
pub mod theory;
pub mod trace;
pub mod verify;
pub mod weights;

pub use equilibrate::PassCounters;
pub use error::SeaError;
pub use general::{
    solve_general, solve_general_supervised, GeneralProblem, GeneralSeaOptions, GeneralSolution,
    GeneralTotalSpec,
};
pub use interval::{solve_bounded, solve_bounded_supervised, BoundedProblem};
pub use kernel_simd::{
    exact_equilibration_boxed_f32, exact_equilibration_boxed_simd, exact_equilibration_f32,
    exact_equilibration_simd, Precision, SimdMode,
};
pub use knapsack::{
    exact_equilibration, exact_equilibration_with, EquilibrationResult, EquilibrationScratch,
    KernelKind, TotalMode,
};
pub use observe::trace_from_events;
pub use parallel::Parallelism;
pub use problem::{DiagonalProblem, Residuals, TotalSpec, ZeroPolicy};
pub use sea_linalg::simd::SimdLevel;
pub use solver::{
    solve_diagonal, solve_diagonal_observed, solve_diagonal_supervised, ConvergenceCriterion,
    IterationSnapshot, SeaOptions, Solution, SolveStats,
};
pub use storage::{RowView, Storage};
pub use supervisor::{
    CancelToken, Checkpoint, CheckpointPolicy, FaultKind, FaultPlan, SolveBudget, StagnationPolicy,
    StopReason, SupervisedBoundedSolution, SupervisedGeneralSolution, SupervisedSolution,
    SupervisorOptions,
};
pub use trace::{ExecutionTrace, Phase, PhaseKind};
pub use verify::{verify_solution, GapCheck, KktReport};
pub use weights::WeightScheme;

// Re-export the event vocabulary so downstream crates don't need a direct
// sea-observe dependency for the common cases.
pub use sea_observe::{
    Event, KernelCounters, NullObserver, Observer, PhaseLabel, SpanKind, SpanProfiler, SpanRecord,
    TelemetrySample, VecObserver,
};
