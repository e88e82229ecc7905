//! Exact equilibration: the closed-form single-constraint quadratic solver.
//!
//! Every row and column subproblem that SEA (and RC) produces has the form
//!
//! ```text
//!   min  Σⱼ γⱼ (xⱼ − qⱼ)²  −  Σⱼ shiftⱼ·xⱼ   [+ total term]
//!   s.t. Σⱼ xⱼ = S,   xⱼ ≥ 0
//! ```
//!
//! where `shiftⱼ` carries the opposite side's Lagrange multipliers (μⱼ′ in a
//! row pass, λᵢ in a column pass). The KKT conditions (paper eq. 20–23) give
//!
//! ```text
//!   xⱼ(λ) = ( qⱼ + (shiftⱼ + λ) / (2γⱼ) )₊
//! ```
//!
//! with `λ` the multiplier of the total constraint, so the subproblem
//! reduces to the one-dimensional piecewise-linear equation `Σⱼ xⱼ(λ) = S(λ)`
//! solved exactly by sorting the *breakpoints* `bⱼ = −2γⱼqⱼ − shiftⱼ` and
//! scanning — the *exact equilibration* of Eydeland–Nagurney (1989), with
//! the paper's `7n + n·ln n + 2n` operation profile.
//!
//! The total specification `S(λ)` comes in three flavours ([`TotalMode`]):
//!
//! * **Fixed** — `S = s⁰` (eq. 45–48; the classical transportation case).
//! * **Elastic** — `S = s` is itself a variable with objective term
//!   `α(s − s⁰)²`; KKT gives `s(λ) = s⁰ − (λ + cross)/(2α)` (eq. 23b/40b),
//!   where `cross` is 0 for the unknown-totals problem and the transpose
//!   multiplier for the SAM problem.
//!
//! A box-bounded variant ([`exact_equilibration_boxed`]) supports the
//! Ohuchi–Kaji (1984) bounded model and Harrigan–Buchanan (1984) interval
//! constraints.
//!
//! Inside a solve the default kernel runs a fallback chain, for plain and
//! boxed subproblems alike: a *warm* Newton search from the multiplier the
//! subproblem had in the previous epoch (Cominetti–Mascarenhas–Silva, "A
//! Newton's method for the continuous quadratic knapsack problem", Math.
//! Prog. Comp. 2014), then quickselect when the hint does not land within
//! a few steps, then sort-scan when quickselect meets pathological input.
//! A Newton trial classifies every entry at the trial multiplier — below
//! its lower bound's breakpoint it sits at the bound (0 for the plain
//! kernel), above its upper one at `hi`, interior between — and takes the
//! root of that piece's linear form. One generic search serves both
//! kernels; a boxed trial that finds every entry pinned (a flat piece) has
//! no step and declines. Every route ends on the same canonical
//! multiplier — the root of the linear piece that contains it, summed in
//! index order — so the answer does not depend on the route or the hint.

use crate::error::SeaError;
use sea_linalg::sort;
use sea_observe::KernelCounters;

/// How the subproblem's total is specified.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TotalMode {
    /// The total is known and fixed: `Σⱼ xⱼ = total`.
    Fixed {
        /// The fixed (nonnegative) total `s⁰ᵢ` or `d⁰ⱼ′`.
        total: f64,
    },
    /// The total is elastic with quadratic penalty `alpha·(s − prior)²`; the
    /// optimal total is `s(λ) = prior − (λ + cross)/(2·alpha)`.
    Elastic {
        /// Strictly positive penalty weight (`αᵢ` or `βⱼ′`).
        alpha: f64,
        /// Prior total (`s⁰ᵢ` or `d⁰ⱼ′`).
        prior: f64,
        /// Extra multiplier folded into the total's stationarity condition:
        /// 0 for the unknown-totals problem, the transpose multiplier for
        /// the SAM balanced problem (eq. 40b).
        cross: f64,
    },
}

/// Which algorithm solves the piecewise-linear equation `Σⱼ xⱼ(λ) = S(λ)`.
///
/// Both kernels produce the same solution (differentially tested to 1e-10);
/// they differ only in how they locate the linear segment containing the
/// root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Argsort the breakpoints, then scan segments in order — `O(n log n)`,
    /// the paper's `7n + n·ln n + 2n` profile. The reference oracle, the
    /// fallback of the selection kernel, and the kernel of the paper-table
    /// reproductions.
    SortScan,
    /// Expected-`O(n)` selection: deterministic median-of-3 quickselect over
    /// the breakpoints, folding discarded segments into running linear
    /// coefficients instead of ever sorting (Kiwiel-style breakpoint
    /// search). The default; inside a solve it is warm-started from the
    /// previous epoch's multiplier (see the module docs).
    #[default]
    Quickselect,
}

impl KernelKind {
    /// Stable lowercase name, for CLI flags and report tables.
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::SortScan => "sortscan",
            KernelKind::Quickselect => "quickselect",
        }
    }

    /// Parse a CLI spelling. Accepts `sortscan`/`sort-scan`/`sort` and
    /// `quickselect`/`select`/`qs`.
    pub fn parse(s: &str) -> Option<KernelKind> {
        match s.to_ascii_lowercase().as_str() {
            "sortscan" | "sort-scan" | "sort" => Some(KernelKind::SortScan),
            "quickselect" | "select" | "qs" => Some(KernelKind::Quickselect),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Result of one exact equilibration solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EquilibrationResult {
    /// Lagrange multiplier of the total constraint.
    pub lambda: f64,
    /// The realized total `S` (equals the fixed total, or the optimal
    /// elastic total).
    pub total: f64,
    /// Number of strictly positive entries in the solution.
    pub active: usize,
}

/// One breakpoint event for the selection kernel: crossing `v` changes the
/// active-set linear form `f(λ) = A + B·λ` by `(da, db)`.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SelectEvent {
    pub(crate) v: f64,
    pub(crate) da: f64,
    pub(crate) db: f64,
}

/// Reusable workspace so the hot loop performs no allocation (workhorse
/// buffers, per the performance guide). Buffers grow to the subproblem size
/// on first use; every subsequent solve of the same (or smaller) size is
/// allocation-free regardless of kernel.
#[derive(Debug, Default, Clone)]
pub struct EquilibrationScratch {
    pub(crate) breakpoints: Vec<f64>,
    pub(crate) order: Vec<u32>,
    /// Second event array for the boxed variant.
    pub(crate) events_hi: Vec<f64>,
    /// Breakpoint events for the quickselect kernel (plain and boxed).
    pub(crate) events: Vec<SelectEvent>,
    /// Extra coefficient buffers used only by the vectorized kernels in
    /// [`crate::kernel_simd`]; empty (and allocation-free) on scalar paths.
    pub(crate) simd: crate::kernel_simd::SimdScratch,
    /// Cumulative work counters across every solve that used this scratch
    /// (subproblems, breakpoint segments swept, quickselect partition
    /// rounds, boxed-bound clamps). Maintained unconditionally — a handful
    /// of integer adds per solve — and harvested by the observability
    /// layer; reset by assigning `KernelCounters::default()`.
    pub stats: KernelCounters,
}

impl EquilibrationScratch {
    /// Fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn prepare(&mut self, n: usize) {
        self.breakpoints.clear();
        self.breakpoints.reserve(n);
        self.order.clear();
        self.order.reserve(2 * n);
        self.events.clear();
        self.events.reserve(2 * n);
    }
}

/// Operation-count model for one exact equilibration of length `n`, per the
/// paper's Section 3 analysis (`7n + n ln n + 2n`). Used by the scheduling
/// simulator as an architecture-independent task cost.
#[inline]
pub fn operation_count(n: usize) -> f64 {
    let nf = n as f64;
    9.0 * nf + nf * nf.max(1.0).ln()
}

/// Operation-count model dispatched by kernel: the selection kernel drops
/// the `n·ln n` sorting term (expected-linear breakpoint search), keeping a
/// larger linear constant for the partition passes.
#[inline]
pub fn operation_count_for(kernel: KernelKind, n: usize) -> f64 {
    match kernel {
        KernelKind::SortScan => operation_count(n),
        KernelKind::Quickselect => 13.0 * n as f64,
    }
}

#[inline]
pub(crate) fn validate_inputs(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    x_out: &[f64],
) -> Result<(), SeaError> {
    let n = q.len();
    if gamma.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration gamma",
            expected: n,
            actual: gamma.len(),
        });
    }
    if shift.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration shift",
            expected: n,
            actual: shift.len(),
        });
    }
    if x_out.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration x_out",
            expected: n,
            actual: x_out.len(),
        });
    }
    Ok(())
}

/// Solve the single-constraint subproblem by exact equilibration.
///
/// `q` are the priors, `gamma` the strictly positive quadratic weights,
/// `shift` the opposite-side multipliers, `mode` the total specification.
/// The optimal entries are written to `x_out`.
///
/// ```
/// use sea_core::knapsack::{exact_equilibration, EquilibrationScratch, TotalMode};
///
/// // Spread a total of 9 across priors (1, 2, 3) with unit weights:
/// // every entry shifts by +1.
/// let mut x = [0.0; 3];
/// let mut scratch = EquilibrationScratch::new();
/// let r = exact_equilibration(
///     &[1.0, 2.0, 3.0],
///     &[1.0, 1.0, 1.0],
///     &[0.0, 0.0, 0.0],
///     TotalMode::Fixed { total: 9.0 },
///     &mut x,
///     &mut scratch,
/// ).unwrap();
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((r.lambda - 2.0).abs() < 1e-12);
/// ```
///
/// # Errors
/// * [`SeaError::Shape`] on length mismatches.
/// * [`SeaError::InfeasibleSubproblem`] for a fixed positive total with no
///   entries.
/// * [`SeaError::NonPositiveWeight`] if any `gamma` (or elastic `alpha`) is
///   not strictly positive (checked in debug and on the slow path).
pub fn exact_equilibration(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    exact_equilibration_with(KernelKind::SortScan, q, gamma, shift, mode, x_out, scratch)
}

/// [`exact_equilibration`] with an explicit kernel choice.
///
/// [`KernelKind::SortScan`] is the reference oracle; [`KernelKind::Quickselect`]
/// locates the same root segment by in-place selection in expected linear
/// time. Both write the same solution (to floating-point roundoff).
///
/// # Errors
/// Same contract as [`exact_equilibration`].
pub fn exact_equilibration_with(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    validate_inputs(q, gamma, shift, x_out)?;
    scratch.stats.subproblems += 1;
    check_mode(mode)?;
    if q.is_empty() {
        return empty_subproblem(mode);
    }

    let lambda = match kernel {
        KernelKind::SortScan => plain_lambda_sort_scan(q, gamma, shift, mode, scratch),
        KernelKind::Quickselect => plain_lambda_quickselect(q, gamma, shift, mode, scratch),
    };

    if !lambda.is_finite() {
        // Fixed positive total but every segment exhausted: can only happen
        // when b stays 0, i.e. n == 0 (handled above) — defensive.
        return Err(SeaError::NumericalBreakdown { iteration: 0 });
    }
    Ok(materialize_plain(q, gamma, shift, mode, lambda, x_out))
}

/// Refuse a total specification no nonnegative subproblem can meet: a
/// negative fixed total, or an elastic weight that is not strictly
/// positive. Shared by every plain kernel (scalar, SIMD, mixed-precision
/// and warm).
pub(crate) fn check_mode(mode: TotalMode) -> Result<(), SeaError> {
    match mode {
        TotalMode::Fixed { total } if total < 0.0 => Err(SeaError::InfeasibleSubproblem {
            side: "row",
            index: 0,
        }),
        TotalMode::Elastic { alpha, .. } if !(alpha > 0.0) => Err(SeaError::NonPositiveWeight {
            which: "alpha",
            index: 0,
            value: alpha,
        }),
        _ => Ok(()),
    }
}

/// The `n == 0` subproblem, once [`check_mode`] has passed: the only
/// feasible fixed total is zero; an elastic total settles where
/// `s = prior − (λ+cross)/(2α) = 0`, i.e. `λ = 2α·prior − cross`.
pub(crate) fn empty_subproblem(mode: TotalMode) -> Result<EquilibrationResult, SeaError> {
    match mode {
        TotalMode::Fixed { total } if total > 0.0 => Err(SeaError::InfeasibleSubproblem {
            side: "row",
            index: 0,
        }),
        TotalMode::Fixed { .. } => Ok(EquilibrationResult {
            lambda: 0.0,
            total: 0.0,
            active: 0,
        }),
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => Ok(EquilibrationResult {
            lambda: 2.0 * alpha * prior - cross,
            total: 0.0,
            active: 0,
        }),
    }
}

/// Write `xⱼ(λ)` for a located multiplier and report the realized total.
fn materialize_plain(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    lambda: f64,
    x_out: &mut [f64],
) -> EquilibrationResult {
    let mut sum = 0.0;
    let mut active = 0usize;
    for j in 0..q.len() {
        let v = q[j] + (shift[j] + lambda) / (2.0 * gamma[j]);
        let v = if v > 0.0 { v } else { 0.0 };
        if v > 0.0 {
            active += 1;
        }
        x_out[j] = v;
        sum += v;
    }

    let total = realized_total(mode, lambda);

    // Absorb the residual rounding error into the largest entries so the
    // constraint holds to near machine precision (keeps downstream
    // convergence checks honest). Proportional correction preserves
    // nonnegativity.
    let err = total - sum;
    if err != 0.0 && sum > 0.0 && err.abs() > 0.0 {
        let scale = total / sum;
        if scale.is_finite() && scale > 0.0 {
            for v in x_out.iter_mut() {
                *v *= scale;
            }
        }
    }

    EquilibrationResult {
        lambda,
        total,
        active,
    }
}

/// Newton steps the warm path may take from its hint before it hands the
/// subproblem to quickselect. Between SEA epochs a multiplier moves
/// little, so one or two steps usually land on the root's piece; a hint
/// that needs more is served better by the expected-linear selection.
const WARM_NEWTON_STEPS: usize = 3;

/// One subproblem's `(lo, hi)` entry bounds, when it is box-bounded.
pub(crate) type BoundSlices<'a> = Option<(&'a [f64], &'a [f64])>;

/// The warm path of the default kernel: Newton's method on the
/// piecewise-linear total, started from `hint` (the multiplier the
/// subproblem had in the previous epoch) and capped at
/// [`WARM_NEWTON_STEPS`] trial multipliers, each counted as one search
/// round in `quickselect_pivots`. `bounds` makes the subproblem the
/// box-bounded one of [`exact_equilibration_boxed_with`].
///
/// A trial is accepted only when it lies on the linear piece it was
/// computed from, so an accepted multiplier is the exact root, bitwise
/// independent of the hint. Returns `Ok(None)` — having solved nothing and
/// counted no subproblem — when the hint is not finite, the subproblem is
/// empty, a boxed fixed total pins every entry (it equals `Σ lo` or
/// `Σ hi`), or no trial is accepted (a boxed trial on a flat piece, where
/// every entry sits at a bound, has no step to take); the caller then runs
/// the cold kernel.
///
/// # Errors
/// The same input errors as [`exact_equilibration_with`] (plain) or
/// [`exact_equilibration_boxed_with`] (boxed).
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + hint + output + workspace
pub(crate) fn exact_equilibration_warm(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    bounds: BoundSlices<'_>,
    mode: TotalMode,
    hint: f64,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<Option<EquilibrationResult>, SeaError> {
    validate_inputs(q, gamma, shift, x_out)?;
    let pinned = match bounds {
        None => {
            check_mode(mode)?;
            false
        }
        Some((lo, hi)) => {
            let (sum_lo, sum_hi) = check_boxed(q.len(), lo, hi, mode)?;
            // A fixed total at Σ lo or Σ hi pins every entry: the root set
            // is a flat half-line whose end is a breakpoint, which Newton
            // can only approach from a neighbouring piece within rounding.
            // The cold kernel reports the end itself.
            matches!(mode, TotalMode::Fixed { total }
                if flat_match(sum_lo, total) || flat_match(sum_hi, total))
        }
    };
    if q.is_empty() || pinned {
        return Ok(None);
    }
    let rounds = &mut scratch.stats.quickselect_pivots;
    let Some(lambda) = newton(
        q,
        gamma,
        shift,
        bounds,
        mode,
        hint,
        WARM_NEWTON_STEPS,
        rounds,
    ) else {
        return Ok(None);
    };
    scratch.stats.subproblems += 1;
    Ok(Some(match bounds {
        None => materialize_plain(q, gamma, shift, mode, lambda, x_out),
        Some((lo, hi)) => materialize_boxed(q, gamma, shift, lo, hi, mode, lambda, x_out, scratch),
    }))
}

/// [`newton_lambda`] on a plain (`None`) or boxed subproblem.
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + start + budget + counter
fn newton(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    bounds: BoundSlices<'_>,
    mode: TotalMode,
    lambda: f64,
    steps: usize,
    rounds: &mut u64,
) -> Option<f64> {
    match bounds {
        None => newton_lambda(q, gamma, shift, Unbounded, mode, lambda, steps, rounds),
        Some((lo, hi)) => newton_lambda(
            q,
            gamma,
            shift,
            Boxed { lo, hi },
            mode,
            lambda,
            steps,
            rounds,
        ),
    }
}

/// The linear piece of `Σⱼ xⱼ(λ)` that contains a trial multiplier: the
/// total is `a + b·λ` on `(left, right]`.
#[derive(Clone, Copy)]
struct Piece {
    a: f64,
    b: f64,
    left: f64,
    right: f64,
}

/// The entry bounds a Newton trial classifies against: [`Unbounded`] for
/// the plain kernel's `xⱼ ≥ 0`, [`Boxed`] for `loⱼ ≤ xⱼ ≤ hiⱼ`. Both are
/// monomorphised into [`piece_root`], so the plain search keeps its own
/// loop.
trait Limits: Copy {
    /// Fold entry `j`'s state at `lambda` into the piece; `false` on a NaN
    /// breakpoint.
    fn fold(self, j: usize, q: f64, gamma: f64, shift: f64, lambda: f64, piece: &mut Piece)
        -> bool;

    /// The multiplier reported for a fixed `total` on a flat piece (no
    /// interior entry), if the search can stop there.
    fn flat_root(self, total: f64, piece: &Piece) -> Option<f64>;
}

/// The plain kernel's bound `xⱼ ≥ 0`.
#[derive(Clone, Copy)]
struct Unbounded;

impl Limits for Unbounded {
    /// Entry `j` is active iff its breakpoint `bⱼ < lambda`.
    #[inline(always)]
    fn fold(self, _j: usize, q: f64, gamma: f64, shift: f64, lambda: f64, p: &mut Piece) -> bool {
        let v = -2.0 * gamma * q - shift;
        if v < lambda {
            let inv2g = 1.0 / (2.0 * gamma);
            p.a += q + shift * inv2g;
            p.b += inv2g;
            p.left = p.left.max(v);
        } else if v >= lambda {
            p.right = p.right.min(v);
        } else {
            return false;
        }
        true
    }

    /// No active entry: only a zero total is met, by x = 0, and the
    /// boundary is reported as the multiplier (as the sweep does).
    #[inline(always)]
    fn flat_root(self, total: f64, p: &Piece) -> Option<f64> {
        (total == 0.0).then_some(p.right)
    }
}

/// Box bounds `loⱼ ≤ xⱼ ≤ hiⱼ`.
#[derive(Clone, Copy)]
struct Boxed<'a> {
    lo: &'a [f64],
    hi: &'a [f64],
}

impl Limits for Boxed<'_> {
    /// Entry `j` sits at `loⱼ` for `λ ≤ v_lo`, at `hiⱼ` for `v_hi < λ`, and
    /// is interior between, with `v_lo`/`v_hi` the cold kernel's events.
    #[inline(always)]
    fn fold(self, j: usize, q: f64, gamma: f64, shift: f64, lambda: f64, p: &mut Piece) -> bool {
        let (lo, hi) = (self.lo[j], self.hi[j]);
        let v_lo = 2.0 * gamma * (lo - q) - shift;
        let v_hi = 2.0 * gamma * (hi - q) - shift;
        // Rounding is monotone, so `lo ≤ hi` gives `v_lo ≤ v_hi`: only a
        // NaN fails this.
        if !(v_lo <= v_hi) {
            return false;
        }
        if lambda <= v_lo {
            p.a += lo;
            p.right = p.right.min(v_lo);
        } else if lambda > v_hi {
            p.a += hi;
            p.left = p.left.max(v_hi);
        } else {
            let inv2g = 1.0 / (2.0 * gamma);
            p.a += q + shift * inv2g;
            p.b += inv2g;
            p.left = p.left.max(v_lo);
            p.right = p.right.min(v_hi);
        }
        true
    }

    /// Every entry pinned at a bound: Newton has no step, so the trial
    /// declines and the cold kernel settles the flat piece.
    #[inline(always)]
    fn flat_root(self, _total: f64, _p: &Piece) -> Option<f64> {
        None
    }
}

/// Up to `steps` Newton steps from `lambda` on `Σⱼ xⱼ(λ) = S(λ)`; returns
/// the first trial that lies on its own linear piece. Each trial costs one
/// `O(n)` sweep and one count in `rounds`.
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + start + budget + counter
fn newton_lambda<L: Limits>(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    limits: L,
    mode: TotalMode,
    mut lambda: f64,
    steps: usize,
    rounds: &mut u64,
) -> Option<f64> {
    for _ in 0..steps {
        if !lambda.is_finite() {
            return None;
        }
        *rounds += 1;
        let (root, on_piece) = piece_root(q, gamma, shift, limits, mode, lambda)?;
        if on_piece {
            return Some(root);
        }
        lambda = root;
    }
    None
}

/// The root of the linear piece of `Σⱼ xⱼ(λ) − S(λ)` that contains
/// `lambda`, and whether that root lies on the same piece.
///
/// [`Limits::fold`] classifies each entry at `lambda`; the piece is where
/// no entry changes state. Its linear form is summed in index order, so
/// every `lambda` on one piece yields the same bits. `None` when the piece
/// has no root to step to (a fixed total on a flat piece, except the plain
/// kernel's zero total) or a breakpoint is NaN; a non-finite root is never
/// on its piece.
fn piece_root<L: Limits>(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    limits: L,
    mode: TotalMode,
    lambda: f64,
) -> Option<(f64, bool)> {
    let mut p = Piece {
        a: 0.0,
        b: 0.0,
        left: f64::NEG_INFINITY,
        right: f64::INFINITY,
    };
    for j in 0..q.len() {
        if !limits.fold(j, q[j], gamma[j], shift[j], lambda, &mut p) {
            return None;
        }
    }
    let root = match mode {
        TotalMode::Fixed { total } if p.b > 0.0 => (total - p.a) / p.b,
        TotalMode::Fixed { total } => limits.flat_root(total, &p)?,
        TotalMode::Elastic { .. } => {
            let (el_slope, el_const) = elastic_constants(mode);
            (el_const - p.a) / (p.b + el_slope)
        }
    };
    Some((root, root.is_finite() && p.left < root && root <= p.right))
}

/// Slope/intercept of the elastic total response `S(λ) = el_const − λ·el_slope`
/// (fixed mode degenerates to `(0, 0)` and is special-cased by callers).
#[inline]
pub(crate) fn elastic_constants(mode: TotalMode) -> (f64, f64) {
    match mode {
        TotalMode::Fixed { .. } => (0.0, 0.0),
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => (1.0 / (2.0 * alpha), prior - cross / (2.0 * alpha)),
    }
}

/// Sort-based segment search for the nonnegative subproblem: argsort the
/// breakpoints, then sweep segments left to right accumulating the active
/// linear form. Returns NaN when no segment accepts (numerical breakdown;
/// the caller reports it).
pub(crate) fn plain_lambda_sort_scan(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    // Breakpoints bⱼ = −2γⱼqⱼ − shiftⱼ: entry j is active for λ > bⱼ.
    scratch.prepare(n);
    for j in 0..n {
        debug_assert!(gamma[j] > 0.0, "gamma must be strictly positive");
        scratch.breakpoints.push(-2.0 * gamma[j] * q[j] - shift[j]);
    }
    scratch.order.resize(n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort(&mut scratch.order, &scratch.breakpoints);

    // Sweep the segments. Active prefix r contributes Σ (qⱼ + shiftⱼ/(2γⱼ))
    // (accumulated in `a`) plus λ·Σ 1/(2γⱼ) (accumulated in `b`).
    let mut a = 0.0_f64;
    let mut b = 0.0_f64;
    let (el_slope, el_const) = elastic_constants(mode);

    let mut lambda = f64::NAN;
    let mut swept = 0u64;
    for r in 0..=n {
        swept += 1;
        let upper = if r < n {
            scratch.breakpoints[scratch.order[r] as usize]
        } else {
            f64::INFINITY
        };
        // Root of: a + λ·b  =  S(λ), where for fixed mode S(λ) = total and
        // for elastic S(λ) = el_const − λ·el_slope.
        let cand = match mode {
            TotalMode::Fixed { total } => {
                if b > 0.0 {
                    Some((total - a) / b)
                } else if total <= 0.0 {
                    // All entries zero is the solution; λ may sit anywhere
                    // at or below the first breakpoint — report the
                    // boundary (the largest valid multiplier).
                    Some(if r < n { upper } else { 0.0 })
                } else {
                    None
                }
            }
            TotalMode::Elastic { .. } => Some((el_const - a) / (b + el_slope)),
        };
        if let Some(c) = cand {
            if c <= upper {
                lambda = c;
                break;
            }
        }
        if r < n {
            let j = scratch.order[r] as usize;
            let inv2g = 1.0 / (2.0 * gamma[j]);
            a += q[j] + shift[j] * inv2g;
            b += inv2g;
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// Selection kernel for the nonnegative subproblem: one breakpoint event
/// per entry, then [`select_lambda`]. Returns NaN on breakdown.
fn plain_lambda_quickselect(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    scratch.prepare(n);
    for j in 0..n {
        debug_assert!(gamma[j] > 0.0, "gamma must be strictly positive");
        let inv2g = 1.0 / (2.0 * gamma[j]);
        scratch.events.push(SelectEvent {
            v: -2.0 * gamma[j] * q[j] - shift[j],
            // Crossing the breakpoint activates xⱼ(λ) = daⱼ + λ·dbⱼ.
            da: q[j] + shift[j] * inv2g,
            db: inv2g,
        });
    }
    let lambda = select_lambda(
        &mut scratch.events,
        0.0,
        mode,
        FlatPolicy::NonnegativePrefix,
        &mut scratch.stats.quickselect_pivots,
    )
    .unwrap_or(f64::NAN);
    canonical_lambda(q, gamma, shift, None, mode, lambda, scratch)
}

/// Re-derive a located multiplier from its own piece ([`piece_root`]), so
/// the cold selection kernel ends on the same bits as the warm path;
/// keeps `lambda` when it sits where its piece's root does not (a root
/// exactly on a breakpoint, up to rounding, or a boxed flat piece).
pub(crate) fn canonical_lambda(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    bounds: BoundSlices<'_>,
    mode: TotalMode,
    lambda: f64,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let rounds = &mut scratch.stats.quickselect_pivots;
    newton(q, gamma, shift, bounds, mode, lambda, 1, rounds).unwrap_or(lambda)
}

/// How a flat (zero-slope) terminal segment is resolved in fixed mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum FlatPolicy {
    /// Plain kernel: zero slope only happens left of every breakpoint,
    /// where all entries clamp to zero — a solution iff `total ≤ 0`; report
    /// the segment's upper boundary, matching the sort-scan sweep.
    NonnegativePrefix,
    /// Boxed kernel: flat segments can occur anywhere (every entry pinned
    /// at a bound); accept when the pinned sum already matches the total.
    BoundedMatch,
}

/// Whether a flat boxed segment whose entries are all pinned at bounds,
/// summing to `pinned`, meets a fixed `total` (to rounding).
#[inline]
pub(crate) fn flat_match(pinned: f64, total: f64) -> bool {
    (pinned - total).abs() <= 1e-12 * total.abs().max(1.0)
}

#[inline]
fn median3(a: f64, b: f64, c: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if c <= lo {
        lo
    } else if c >= hi {
        hi
    } else {
        c
    }
}

/// Expected-O(n) segment search shared by the plain and boxed selection
/// kernels.
///
/// `events` encodes `f(λ) = base_a + Σ_{vₑ ≤ λ} (daₑ + λ·dbₑ)`: each event,
/// once crossed, adds `(daₑ, dbₑ)` to the active linear form — and is built
/// so its contribution is exactly zero *at* its own breakpoint. The routine
/// finds the segment containing the root of `f(λ) = S(λ)` (f nondecreasing)
/// by deterministic median-of-3 quickselect: pivot on an event value,
/// evaluate `f` there, and either discard the right part or fold the left
/// part into running coefficients. Every step retires at least the
/// pivot-equal events and partitions in place, so the search performs no
/// allocation and no sort.
///
/// Returns `None` when fixed mode finds no consistent segment (the caller
/// picks its fallback).
pub(crate) fn select_lambda(
    events: &mut [SelectEvent],
    base_a: f64,
    mode: TotalMode,
    flat: FlatPolicy,
    pivots: &mut u64,
) -> Option<f64> {
    let (el_slope, el_const) = elastic_constants(mode);
    let (mut lo, mut hi) = (0usize, events.len());
    let mut acc_a = base_a;
    let mut acc_b = 0.0_f64;
    // Boundaries of the narrowed segment: smallest pivot ruled
    // "root ≤ pivot" and largest pivot ruled "root > pivot" so far. The
    // root always lies in [seg_lo, seg_hi]; the final division is clamped
    // there so that catastrophic cancellation in acc_b (e.g. every boxed
    // event folded left, leaving a tiny ±ε slope) cannot fling λ out of
    // the segment.
    let mut seg_hi = f64::INFINITY;
    let mut seg_lo = f64::NEG_INFINITY;

    while lo < hi {
        *pivots += 1;
        let p = median3(events[lo].v, events[lo + (hi - lo) / 2].v, events[hi - 1].v);
        // Three-way partition of the window around p:
        // [lo..lt) < p, [lt..gt) == p, [gt..hi) > p.
        let (mut lt, mut cur, mut gt) = (lo, lo, hi);
        while cur < gt {
            let v = events[cur].v;
            if v < p {
                events.swap(lt, cur);
                lt += 1;
                cur += 1;
            } else if v > p {
                gt -= 1;
                events.swap(cur, gt);
            } else {
                cur += 1;
            }
        }
        let (mut sa, mut sb) = (0.0_f64, 0.0_f64);
        for e in &events[lo..gt] {
            sa += e.da;
            sb += e.db;
        }
        let f_p = (acc_a + sa) + p * (acc_b + sb);
        let s_p = match mode {
            TotalMode::Fixed { total } => total,
            TotalMode::Elastic { .. } => el_const - el_slope * p,
        };
        if f_p >= s_p {
            // Root at or left of the pivot: drop everything ≥ p.
            seg_hi = p;
            hi = lt;
        } else {
            // Root right of the pivot: fold everything ≤ p.
            acc_a += sa;
            acc_b += sb;
            lo = gt;
            seg_lo = p;
        }
    }

    // The root lies in the identified segment, where f(λ) = acc_a + λ·acc_b.
    match mode {
        TotalMode::Fixed { total } => {
            if acc_b > 0.0 {
                Some(((total - acc_a) / acc_b).clamp(seg_lo, seg_hi))
            } else {
                let flat_solves = match flat {
                    FlatPolicy::NonnegativePrefix => total <= 0.0,
                    FlatPolicy::BoundedMatch => flat_match(acc_a, total),
                };
                if flat_solves {
                    Some(if seg_hi.is_finite() {
                        seg_hi
                    } else if seg_lo.is_finite() {
                        seg_lo
                    } else {
                        0.0
                    })
                } else {
                    None
                }
            }
        }
        TotalMode::Elastic { .. } => {
            Some(((el_const - acc_a) / (acc_b + el_slope)).clamp(seg_lo, seg_hi))
        }
    }
}

/// Box-bounded exact equilibration: `loⱼ ≤ xⱼ ≤ hiⱼ` instead of `xⱼ ≥ 0`.
///
/// Supports the Ohuchi–Kaji (1984) bounded transportation model and the
/// Harrigan–Buchanan (1984) interval-constrained I/O estimation model. The
/// projected entry is `xⱼ(λ) = clamp(qⱼ + (shiftⱼ + λ)/(2γⱼ), loⱼ, hiⱼ)`,
/// so each entry contributes two breakpoints; the sweep is otherwise the
/// same as [`exact_equilibration`].
///
/// # Errors
/// * [`SeaError::Shape`] on length mismatches.
/// * [`SeaError::InconsistentBounds`] if some `loⱼ > hiⱼ`.
/// * [`SeaError::InfeasibleSubproblem`] if the fixed total lies outside
///   `[Σ lo, Σ hi]`.
#[allow(clippy::too_many_arguments)]
pub fn exact_equilibration_boxed(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    exact_equilibration_boxed_with(
        KernelKind::SortScan,
        q,
        gamma,
        shift,
        lo,
        hi,
        mode,
        x_out,
        scratch,
    )
}

/// [`exact_equilibration_boxed`] with an explicit kernel choice (see
/// [`exact_equilibration_with`]).
///
/// # Errors
/// Same contract as [`exact_equilibration_boxed`].
#[allow(clippy::too_many_arguments)]
pub fn exact_equilibration_boxed_with(
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    validate_inputs(q, gamma, shift, x_out)?;
    scratch.stats.subproblems += 1;
    let (sum_lo, sum_hi) = check_boxed(q.len(), lo, hi, mode)?;
    let lambda = match kernel {
        KernelKind::SortScan => {
            boxed_lambda_sort_scan(q, gamma, shift, lo, hi, sum_lo, mode, scratch)
        }
        KernelKind::Quickselect => {
            boxed_lambda_quickselect(q, gamma, shift, lo, hi, sum_lo, mode, scratch)
        }
    };
    let lambda = boxed_extreme(lambda, mode, sum_hi);
    Ok(materialize_boxed(
        q, gamma, shift, lo, hi, mode, lambda, x_out, scratch,
    ))
}

/// Refuse box bounds no subproblem of length `n` can use: a length
/// mismatch, some `loⱼ > hiⱼ`, a fixed total outside `[Σ lo, Σ hi]`, or
/// an elastic weight that is not strictly positive. Returns
/// `(Σ lo, Σ hi)`. Shared by every boxed kernel (scalar, SIMD,
/// mixed-precision and warm).
pub(crate) fn check_boxed(
    n: usize,
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
) -> Result<(f64, f64), SeaError> {
    if lo.len() != n || hi.len() != n {
        return Err(SeaError::Shape {
            context: "exact_equilibration_boxed bounds",
            expected: n,
            actual: lo.len().min(hi.len()),
        });
    }
    for j in 0..n {
        if lo[j] > hi[j] {
            return Err(SeaError::InconsistentBounds {
                index: j,
                lower: lo[j],
                upper: hi[j],
            });
        }
    }
    let sum_lo: f64 = lo.iter().sum();
    let sum_hi: f64 = hi.iter().sum();
    match mode {
        TotalMode::Fixed { total } => {
            let span = (sum_hi - sum_lo).abs().max(1.0);
            if total < sum_lo - 1e-9 * span || total > sum_hi + 1e-9 * span {
                return Err(SeaError::InfeasibleSubproblem {
                    side: "row",
                    index: 0,
                });
            }
        }
        TotalMode::Elastic { alpha, .. } => {
            if !(alpha > 0.0) {
                return Err(SeaError::NonPositiveWeight {
                    which: "alpha",
                    index: 0,
                    value: alpha,
                });
            }
        }
    }
    Ok((sum_lo, sum_hi))
}

/// A boxed search that found no segment (NaN): the fixed total is only
/// attained at an extreme, so report a multiplier past every event.
pub(crate) fn boxed_extreme(lambda: f64, mode: TotalMode, sum_hi: f64) -> f64 {
    if lambda.is_finite() {
        return lambda;
    }
    match mode {
        TotalMode::Fixed { total } if total >= sum_hi => f64::MAX.sqrt(),
        _ => -f64::MAX.sqrt(),
    }
}

/// Write the clamped `xⱼ(λ)` of a boxed subproblem, count the entries
/// pinned at a bound, and report the realized total.
#[allow(clippy::too_many_arguments)] // kernel inputs + bounds + λ + output + workspace
fn materialize_boxed(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
    lambda: f64,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> EquilibrationResult {
    let n = q.len();
    let mut active = 0usize;
    for j in 0..n {
        let raw = q[j] + (shift[j] + lambda) / (2.0 * gamma[j]);
        let v = raw.clamp(lo[j], hi[j]);
        if v > lo[j] && v < hi[j] {
            active += 1;
        }
        x_out[j] = v;
    }
    scratch.stats.boxed_clamps += (n - active) as u64;
    EquilibrationResult {
        lambda,
        total: realized_total(mode, lambda),
        active,
    }
}

/// The total a located multiplier realizes: the fixed total, or the
/// elastic stationarity value `prior − (λ + cross)/(2α)`.
#[inline]
pub(crate) fn realized_total(mode: TotalMode, lambda: f64) -> f64 {
    match mode {
        TotalMode::Fixed { total } => total,
        TotalMode::Elastic {
            alpha,
            prior,
            cross,
        } => prior - (lambda + cross) / (2.0 * alpha),
    }
}

/// Sort-based segment search for the boxed subproblem: two events per entry
/// (leaving its lower bound, saturating at its upper bound), argsorted and
/// swept. Returns NaN when no segment accepts (caller clamps).
#[allow(clippy::too_many_arguments)]
fn boxed_lambda_sort_scan(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    sum_lo: f64,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    // Event k < n is entry k leaving its lower bound; event k ≥ n is entry
    // k−n saturating at its upper bound.
    scratch.prepare(n);
    scratch.events_hi.clear();
    scratch.events_hi.reserve(2 * n);
    for j in 0..n {
        scratch
            .events_hi
            .push(2.0 * gamma[j] * (lo[j] - q[j]) - shift[j]);
    }
    for j in 0..n {
        scratch
            .events_hi
            .push(2.0 * gamma[j] * (hi[j] - q[j]) - shift[j]);
    }
    scratch.order.resize(2 * n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort(&mut scratch.order, &scratch.events_hi);

    let (el_slope, el_const) = elastic_constants(mode);

    // Start below every event: all entries pinned at lo.
    let mut a = sum_lo;
    let mut b = 0.0_f64;
    let mut lambda = f64::NAN;
    // Lower edge of the current segment (the last event crossed). Accepted
    // candidates are clamped to it: when the slope `b` cancels to a tiny
    // residue (all entries pinned at bounds), the division can otherwise
    // fling λ far outside the segment that actually contains the root.
    let mut seg_lo = f64::NEG_INFINITY;
    let mut swept = 0u64;
    for r in 0..=(2 * n) {
        swept += 1;
        let upper = if r < 2 * n {
            scratch.events_hi[scratch.order[r] as usize]
        } else {
            f64::INFINITY
        };
        let cand = match mode {
            TotalMode::Fixed { total } => {
                if b > 0.0 {
                    Some((total - a) / b)
                } else if flat_match(a, total) {
                    // Flat segment already matching the total.
                    Some(if r < 2 * n { upper } else { seg_lo })
                } else {
                    None
                }
            }
            TotalMode::Elastic { .. } => Some((el_const - a) / (b + el_slope)),
        };
        if let Some(c) = cand {
            if c <= upper {
                lambda = c.max(seg_lo);
                break;
            }
        }
        if r < 2 * n {
            let e = scratch.order[r] as usize;
            let j = e % n;
            let inv2g = 1.0 / (2.0 * gamma[j]);
            if e < n {
                // Entry leaves its lower bound.
                a += q[j] + shift[j] * inv2g - lo[j];
                b += inv2g;
            } else {
                // Entry saturates at its upper bound.
                a += hi[j] - (q[j] + shift[j] * inv2g);
                b -= inv2g;
            }
            seg_lo = upper;
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// Selection kernel for the boxed subproblem: the clamp decomposes into a
/// `+w` hinge at the lower-bound event and a `−w` hinge at the upper-bound
/// event, so the same [`select_lambda`] search applies with `base = Σ loⱼ`.
/// Returns NaN when no segment accepts (caller clamps).
#[allow(clippy::too_many_arguments)]
fn boxed_lambda_quickselect(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    sum_lo: f64,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    scratch.prepare(n);
    for j in 0..n {
        let inv2g = 1.0 / (2.0 * gamma[j]);
        scratch.events.push(SelectEvent {
            v: 2.0 * gamma[j] * (lo[j] - q[j]) - shift[j],
            // Leaving the lower bound swaps loⱼ for the interior response.
            da: q[j] + shift[j] * inv2g - lo[j],
            db: inv2g,
        });
        scratch.events.push(SelectEvent {
            v: 2.0 * gamma[j] * (hi[j] - q[j]) - shift[j],
            // Saturating at the upper bound freezes the response at hiⱼ.
            da: hi[j] - (q[j] + shift[j] * inv2g),
            db: -inv2g,
        });
    }
    let lambda = select_lambda(
        &mut scratch.events,
        sum_lo,
        mode,
        FlatPolicy::BoundedMatch,
        &mut scratch.stats.quickselect_pivots,
    )
    .unwrap_or(f64::NAN);
    canonical_lambda(q, gamma, shift, Some((lo, hi)), mode, lambda, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference solve by bisection on λ — independent of the sweep logic.
    fn bisect_reference(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
    ) -> (f64, Vec<f64>) {
        let g = |lam: f64| -> f64 {
            let s: f64 = q
                .iter()
                .zip(gamma)
                .zip(shift)
                .map(|((&qj, &gj), &mj)| (qj + (mj + lam) / (2.0 * gj)).max(0.0))
                .sum();
            match mode {
                TotalMode::Fixed { total } => s - total,
                TotalMode::Elastic {
                    alpha,
                    prior,
                    cross,
                } => s - (prior - (lam + cross) / (2.0 * alpha)),
            }
        };
        let (mut lo, mut hi) = (-1e9, 1e9);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if g(mid) > 0.0 {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let lam = 0.5 * (lo + hi);
        let x = q
            .iter()
            .zip(gamma)
            .zip(shift)
            .map(|((&qj, &gj), &mj)| (qj + (mj + lam) / (2.0 * gj)).max(0.0))
            .collect();
        (lam, x)
    }

    fn check_kkt(q: &[f64], gamma: &[f64], shift: &[f64], x: &[f64], lambda: f64, tol: f64) {
        for j in 0..q.len() {
            let grad = 2.0 * gamma[j] * (x[j] - q[j]) - shift[j] - lambda;
            if x[j] > tol {
                assert!(
                    grad.abs() <= tol * (1.0 + gamma[j].abs() * q[j].abs()),
                    "stationarity violated at {j}: grad={grad}"
                );
            } else {
                assert!(
                    grad >= -tol * (1.0 + gamma[j].abs()),
                    "sign violated at {j}"
                );
            }
        }
    }

    #[test]
    fn fixed_mode_simple() {
        // Equal weights, zero shift: equilibration spreads the total with
        // equal adjustments.
        let q = [1.0, 2.0, 3.0];
        let gamma = [1.0, 1.0, 1.0];
        let shift = [0.0; 3];
        let mut x = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Fixed { total: 9.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        // Each entry shifts by +1 ⇒ x = (2,3,4), λ = 2.
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - 4.0).abs() < 1e-12);
        assert!((r.lambda - 2.0).abs() < 1e-12);
        assert_eq!(r.active, 3);
    }

    #[test]
    fn fixed_mode_activates_nonnegativity() {
        // Shrinking the total far enough drives small entries to zero.
        let q = [1.0, 10.0];
        let gamma = [1.0, 1.0];
        let shift = [0.0; 2];
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Fixed { total: 2.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(x[0], 0.0);
        assert!((x[1] - 2.0).abs() < 1e-12);
        assert_eq!(r.active, 1);
        check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-9);
    }

    #[test]
    fn fixed_zero_total_gives_zero_solution() {
        let q = [1.0, 2.0];
        let gamma = [0.5, 2.0];
        let shift = [0.3, -0.7];
        let mut x = [9.0; 2];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Fixed { total: 0.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(x, [0.0, 0.0]);
        assert_eq!(r.active, 0);
        // λ must keep every entry at or below zero.
        check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-9);
    }

    #[test]
    fn elastic_mode_matches_hand_computation() {
        // One entry, q=0, γ=1/2, shift=0, α=1/2, prior=4:
        // x(λ)=(λ)₊, s(λ)=4−λ; x=s ⇒ λ=2, x=2, s=2.
        let q = [0.0];
        let gamma = [0.5];
        let shift = [0.0];
        let mut x = [0.0];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Elastic {
                alpha: 0.5,
                prior: 4.0,
                cross: 0.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert!((r.lambda - 2.0).abs() < 1e-12);
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((r.total - 2.0).abs() < 1e-12);
    }

    #[test]
    fn elastic_cross_shift_moves_total() {
        // SAM-style cross term reduces the realized total.
        let q = [0.0];
        let gamma = [0.5];
        let shift = [0.0];
        let mut x = [0.0];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration(
            &q,
            &gamma,
            &shift,
            TotalMode::Elastic {
                alpha: 0.5,
                prior: 4.0,
                cross: 1.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        // x(λ)=λ₊, s=4−(λ+1) ⇒ λ = 1.5, x = 1.5.
        assert!((r.lambda - 1.5).abs() < 1e-12);
        assert!((x[0] - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_subproblem_cases() {
        let mut x: [f64; 0] = [];
        let mut sc = EquilibrationScratch::new();
        assert!(exact_equilibration(
            &[],
            &[],
            &[],
            TotalMode::Fixed { total: 1.0 },
            &mut x,
            &mut sc
        )
        .is_err());
        let r = exact_equilibration(
            &[],
            &[],
            &[],
            TotalMode::Fixed { total: 0.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(r.active, 0);
        let r = exact_equilibration(
            &[],
            &[],
            &[],
            TotalMode::Elastic {
                alpha: 1.0,
                prior: 3.0,
                cross: 0.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(r.total, 0.0);
        assert!((r.lambda - 6.0).abs() < 1e-12);
    }

    #[test]
    fn negative_fixed_total_is_infeasible_on_every_plain_path() {
        // No nonnegative x sums to a negative total, with or without
        // entries; every plain kernel refuses it rather than reporting an
        // all-zero "solution".
        let mode = TotalMode::Fixed { total: -1.0 };
        let (q, g, sh) = ([1.0, 2.0, 3.0], [1.0; 3], [0.0; 3]);
        let mut sc = EquilibrationScratch::new();
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let mut x = [0.0; 3];
            assert!(matches!(
                exact_equilibration_with(kernel, &q, &g, &sh, mode, &mut x, &mut sc),
                Err(SeaError::InfeasibleSubproblem { .. })
            ));
            assert!(matches!(
                exact_equilibration_with(kernel, &[], &[], &[], mode, &mut [], &mut sc),
                Err(SeaError::InfeasibleSubproblem { .. })
            ));
        }
        let mut x = [0.0; 3];
        assert!(matches!(
            exact_equilibration_warm(&q, &g, &sh, None, mode, 0.0, &mut x, &mut sc),
            Err(SeaError::InfeasibleSubproblem { .. })
        ));
        // A negative zero total is still zero.
        let r = exact_equilibration_with(
            KernelKind::Quickselect,
            &q,
            &g,
            &sh,
            TotalMode::Fixed { total: -0.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(x, [0.0; 3]);
        assert_eq!(r.active, 0);
    }

    #[test]
    fn shape_errors() {
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        assert!(matches!(
            exact_equilibration(
                &[1.0, 2.0],
                &[1.0],
                &[0.0, 0.0],
                TotalMode::Fixed { total: 1.0 },
                &mut x,
                &mut sc
            ),
            Err(SeaError::Shape { .. })
        ));
    }

    #[test]
    fn boxed_respects_bounds_and_total() {
        let q = [1.0, 5.0, 2.0];
        let gamma = [1.0, 1.0, 1.0];
        let shift = [0.0; 3];
        let lo = [0.5, 0.0, 1.0];
        let hi = [2.0, 3.0, 2.5];
        let mut x = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration_boxed(
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Fixed { total: 6.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        let sum: f64 = x.iter().sum();
        assert!((sum - 6.0).abs() < 1e-9, "sum={sum}");
        for j in 0..3 {
            assert!(x[j] >= lo[j] - 1e-12 && x[j] <= hi[j] + 1e-12);
        }
        let _ = r;
    }

    #[test]
    fn boxed_detects_infeasible_total() {
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        assert!(matches!(
            exact_equilibration_boxed(
                &[1.0, 1.0],
                &[1.0, 1.0],
                &[0.0, 0.0],
                &[0.0, 0.0],
                &[1.0, 1.0],
                TotalMode::Fixed { total: 5.0 },
                &mut x,
                &mut sc
            ),
            Err(SeaError::InfeasibleSubproblem { .. })
        ));
        assert!(matches!(
            exact_equilibration_boxed(
                &[1.0, 1.0],
                &[1.0, 1.0],
                &[0.0, 0.0],
                &[2.0, 0.0],
                &[1.0, 1.0],
                TotalMode::Fixed { total: 1.5 },
                &mut x,
                &mut sc
            ),
            Err(SeaError::InconsistentBounds {
                index: 0,
                lower,
                upper,
            }) if lower == 2.0 && upper == 1.0
        ));
    }

    #[test]
    fn boxed_reduces_to_plain_when_bounds_loose() {
        let q = [1.0, 2.0, 3.0];
        let gamma = [0.5, 1.5, 1.0];
        let shift = [0.1, -0.2, 0.0];
        let lo = [0.0; 3];
        let hi = [1e12; 3];
        let mut x_plain = [0.0; 3];
        let mut x_box = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let mode = TotalMode::Fixed { total: 7.0 };
        let r1 = exact_equilibration(&q, &gamma, &shift, mode, &mut x_plain, &mut sc).unwrap();
        let r2 = exact_equilibration_boxed(&q, &gamma, &shift, &lo, &hi, mode, &mut x_box, &mut sc)
            .unwrap();
        assert!((r1.lambda - r2.lambda).abs() < 1e-9);
        for j in 0..3 {
            assert!((x_plain[j] - x_box[j]).abs() < 1e-9);
        }
    }

    #[test]
    fn boxed_elastic_mode_balances_total_against_bounds() {
        // Elastic total with tight upper bounds: the realized total cannot
        // exceed Σ hi even though the prior total asks for more.
        let q = [0.0, 0.0];
        let gamma = [0.5, 0.5];
        let shift = [0.0, 0.0];
        let lo = [0.0, 0.0];
        let hi = [1.0, 1.0];
        let mut x = [0.0; 2];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration_boxed(
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Elastic {
                alpha: 0.5,
                prior: 100.0,
                cross: 0.0,
            },
            &mut x,
            &mut sc,
        )
        .unwrap();
        // Entries saturate at the bounds; the elastic total then sits at
        // Σx = 2, with λ at the stationarity value s = prior − λ/(2α).
        assert!((x[0] - 1.0).abs() < 1e-9 && (x[1] - 1.0).abs() < 1e-9);
        assert!((r.total - 2.0).abs() < 1e-9);
        let s_stat = 100.0 - r.lambda / (2.0 * 0.5);
        assert!((s_stat - 2.0).abs() < 1e-9);
    }

    #[test]
    fn boxed_elastic_interior_matches_plain_elastic() {
        let q = [1.0, 3.0, 2.0];
        let gamma = [0.7, 1.2, 0.4];
        let shift = [0.2, -0.1, 0.0];
        let mode = TotalMode::Elastic {
            alpha: 0.8,
            prior: 9.0,
            cross: 0.3,
        };
        let mut x_plain = [0.0; 3];
        let mut x_boxed = [0.0; 3];
        let mut sc = EquilibrationScratch::new();
        let r1 = exact_equilibration(&q, &gamma, &shift, mode, &mut x_plain, &mut sc).unwrap();
        let lo = [0.0; 3];
        let hi = [1e9; 3];
        let r2 =
            exact_equilibration_boxed(&q, &gamma, &shift, &lo, &hi, mode, &mut x_boxed, &mut sc)
                .unwrap();
        assert!((r1.lambda - r2.lambda).abs() < 1e-9);
        assert!((r1.total - r2.total).abs() < 1e-9);
        for k in 0..3 {
            assert!((x_plain[k] - x_boxed[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn operation_count_grows_superlinearly() {
        assert!(operation_count(2000) > 2.0 * operation_count(1000));
        assert!(operation_count(0) == 0.0);
    }

    #[test]
    fn kernel_kind_parses_and_prints() {
        assert_eq!(KernelKind::parse("sortscan"), Some(KernelKind::SortScan));
        assert_eq!(KernelKind::parse("sort-scan"), Some(KernelKind::SortScan));
        assert_eq!(KernelKind::parse("QS"), Some(KernelKind::Quickselect));
        assert_eq!(KernelKind::parse("select"), Some(KernelKind::Quickselect));
        assert_eq!(KernelKind::parse("bogosort"), None);
        assert_eq!(KernelKind::Quickselect.to_string(), "quickselect");
        assert_eq!(KernelKind::default(), KernelKind::Quickselect);
    }

    #[test]
    fn scratch_counters_accumulate_per_kernel() {
        let q = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1.0; 4];
        let shift = [0.0; 4];
        let mut x = [0.0; 4];
        let mode = TotalMode::Fixed { total: 12.0 };

        let mut sc = EquilibrationScratch::new();
        exact_equilibration_with(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 1);
        assert!(sc.stats.breakpoints_scanned >= 1);
        assert_eq!(sc.stats.quickselect_pivots, 0);

        exact_equilibration_with(
            KernelKind::Quickselect,
            &q,
            &gamma,
            &shift,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 2);
        assert!(sc.stats.quickselect_pivots >= 1);

        // Boxed solve records clamps for every entry pinned at a bound.
        let lo = [0.0; 4];
        let hi = [2.0; 4];
        exact_equilibration_boxed_with(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Fixed { total: 8.0 },
            &mut x,
            &mut sc,
        )
        .unwrap();
        assert_eq!(sc.stats.subproblems, 3);
        assert!(sc.stats.boxed_clamps >= 1);

        // Reset is a plain assignment.
        sc.stats = sea_observe::KernelCounters::default();
        assert!(sc.stats.is_empty());
    }

    #[test]
    fn quickselect_cost_model_is_linear() {
        let per_entry = operation_count_for(KernelKind::Quickselect, 1000) / 1000.0;
        assert!(
            (operation_count_for(KernelKind::Quickselect, 4000) / 4000.0 - per_entry).abs() < 1e-9
        );
        // The sort-scan model keeps its n log n term.
        assert!(
            operation_count_for(KernelKind::SortScan, 4000)
                > operation_count_for(KernelKind::Quickselect, 4000)
        );
    }

    /// Run both kernels on the same plain subproblem; panic on hard error.
    fn both_plain(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
    ) -> (
        (EquilibrationResult, Vec<f64>),
        (EquilibrationResult, Vec<f64>),
    ) {
        let n = q.len();
        let mut sc = EquilibrationScratch::new();
        let mut x_sort = vec![0.0; n];
        let r_sort = exact_equilibration_with(
            KernelKind::SortScan,
            q,
            gamma,
            shift,
            mode,
            &mut x_sort,
            &mut sc,
        )
        .unwrap();
        let mut x_qs = vec![0.0; n];
        let r_qs = exact_equilibration_with(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            mode,
            &mut x_qs,
            &mut sc,
        )
        .unwrap();
        ((r_sort, x_sort), (r_qs, x_qs))
    }

    /// Run both kernels on the same boxed subproblem; panic on hard error.
    #[allow(clippy::too_many_arguments)]
    fn both_boxed(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        lo: &[f64],
        hi: &[f64],
        mode: TotalMode,
    ) -> (
        (EquilibrationResult, Vec<f64>),
        (EquilibrationResult, Vec<f64>),
    ) {
        let n = q.len();
        let mut sc = EquilibrationScratch::new();
        let mut x_sort = vec![0.0; n];
        let r_sort = exact_equilibration_boxed_with(
            KernelKind::SortScan,
            q,
            gamma,
            shift,
            lo,
            hi,
            mode,
            &mut x_sort,
            &mut sc,
        )
        .unwrap();
        let mut x_qs = vec![0.0; n];
        let r_qs = exact_equilibration_boxed_with(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            lo,
            hi,
            mode,
            &mut x_qs,
            &mut sc,
        )
        .unwrap();
        ((r_sort, x_sort), (r_qs, x_qs))
    }

    #[test]
    fn quickselect_single_element_rows() {
        // Single-element subproblems exercise the trivial selection window.
        let ((r1, x1), (r2, x2)) =
            both_plain(&[3.0], &[0.7], &[0.2], TotalMode::Fixed { total: 5.0 });
        assert_eq!(x1, x2);
        assert!((r1.lambda - r2.lambda).abs() < 1e-12);
        assert!((x1[0] - 5.0).abs() < 1e-12);

        let mode = TotalMode::Elastic {
            alpha: 0.5,
            prior: 4.0,
            cross: 0.0,
        };
        let ((r1, x1), (r2, x2)) = both_plain(&[0.0], &[0.5], &[0.0], mode);
        assert_eq!(x1, x2);
        assert!((r1.lambda - 2.0).abs() < 1e-12);
        assert!((r2.lambda - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quickselect_tied_breakpoints() {
        // Every breakpoint identical: the selection loop must retire all
        // events in one partition round and agree with the sorted sweep.
        let q = [2.0; 6];
        let gamma = [1.0; 6];
        let shift = [0.0; 6];
        for total in [0.0, 3.0, 12.0, 24.0] {
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, TotalMode::Fixed { total });
            for j in 0..6 {
                assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "total={total} j={j}: {} vs {}",
                    x1[j],
                    x2[j]
                );
            }
            let sum: f64 = x2.iter().sum();
            assert!((sum - total).abs() <= 1e-9 * (1.0 + total));
            check_kkt(&q, &gamma, &shift, &x2, r2.lambda, 1e-9);
            let _ = r1;
        }
    }

    #[test]
    fn quickselect_nonpositive_total_flat_segment() {
        // total <= 0 forces x = 0 with λ pinned to the lowest breakpoint
        // segment; both kernels must pick multipliers that satisfy KKT.
        let q = [1.0, 2.0, 4.0];
        let gamma = [0.5, 2.0, 1.0];
        let shift = [0.3, -0.7, 0.1];
        let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, TotalMode::Fixed { total: 0.0 });
        assert_eq!(x1, vec![0.0; 3]);
        assert_eq!(x2, vec![0.0; 3]);
        check_kkt(&q, &gamma, &shift, &x1, r1.lambda, 1e-9);
        check_kkt(&q, &gamma, &shift, &x2, r2.lambda, 1e-9);
    }

    #[test]
    fn quickselect_near_degenerate_weights() {
        // Weights spanning ten orders of magnitude stress the accumulator
        // arithmetic shared by the two kernels.
        let q = [1.0, 2.0, 3.0, 4.0];
        let gamma = [1e-5, 1e5, 1.0, 1e-5];
        let shift = [0.0, 1.0, -1.0, 0.5];
        for total in [1.0, 10.0, 50.0] {
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, TotalMode::Fixed { total });
            assert!(
                (r1.lambda - r2.lambda).abs() <= 1e-10 * (1.0 + r1.lambda.abs()),
                "λ {} vs {}",
                r1.lambda,
                r2.lambda
            );
            for j in 0..4 {
                assert!((x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()));
            }
        }
    }

    #[test]
    fn quickselect_boxed_all_entries_at_bounds() {
        let q = [1.0, 5.0, 2.0];
        let gamma = [1.0, 2.0, 0.5];
        let shift = [0.0, 0.1, -0.2];
        let lo = [0.5, 1.0, 1.5];
        let hi = [2.0, 3.0, 2.5];
        let slo: f64 = lo.iter().sum();
        let shi: f64 = hi.iter().sum();
        // total = Σlo pins every entry at its lower bound; total = Σhi at the
        // upper bound. Both sit on flat segments of the breakpoint function.
        for total in [slo, shi] {
            let ((r1, x1), (r2, x2)) =
                both_boxed(&q, &gamma, &shift, &lo, &hi, TotalMode::Fixed { total });
            for j in 0..3 {
                assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "total={total} j={j}: {} vs {}",
                    x1[j],
                    x2[j]
                );
            }
            let sum: f64 = x2.iter().sum();
            assert!((sum - total).abs() <= 1e-9 * (1.0 + total.abs()));
            let (_, _) = (r1, r2);
        }
    }

    #[test]
    fn quickselect_boxed_pinned_entries() {
        // lo == hi entries contribute two coincident events with opposite
        // slopes; their net effect must cancel identically.
        let q = [1.0, 2.0, 3.0];
        let gamma = [1.0, 1.0, 1.0];
        let shift = [0.0; 3];
        let lo = [1.5, 0.0, 2.0];
        let hi = [1.5, 4.0, 2.0];
        let ((_, x1), (r2, x2)) = both_boxed(
            &q,
            &gamma,
            &shift,
            &lo,
            &hi,
            TotalMode::Fixed { total: 6.0 },
        );
        assert!((x2[0] - 1.5).abs() < 1e-12 && (x2[2] - 2.0).abs() < 1e-12);
        assert!((x2[1] - 2.5).abs() < 1e-9);
        for j in 0..3 {
            assert!((x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()));
        }
        let _ = r2;
    }

    /// Warm solve from `hint`; `None` when the warm path declined.
    fn warm(
        q: &[f64],
        gamma: &[f64],
        shift: &[f64],
        mode: TotalMode,
        hint: f64,
        sc: &mut EquilibrationScratch,
    ) -> Option<(EquilibrationResult, Vec<f64>)> {
        let mut x = vec![0.0; q.len()];
        exact_equilibration_warm(q, gamma, shift, None, mode, hint, &mut x, sc)
            .unwrap()
            .map(|r| (r, x))
    }

    #[test]
    fn warm_path_counts_each_trial_and_declines_cleanly() {
        let q = [1.0, 2.0, 4.0, 3.0];
        let gamma = [0.5, 2.0, 1.0, 1.5];
        let shift = [0.3, -0.7, 0.1, 0.0];
        let mode = TotalMode::Fixed { total: 6.0 };
        let mut x = [0.0; 4];
        let mut sc = EquilibrationScratch::new();
        let oracle = exact_equilibration_with(
            KernelKind::SortScan,
            &q,
            &gamma,
            &shift,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap();

        // Started on the root's own piece: one trial, exact root.
        let mut sc = EquilibrationScratch::new();
        let (r, xw) = warm(&q, &gamma, &shift, mode, oracle.lambda, &mut sc).unwrap();
        assert_eq!(sc.stats.quickselect_pivots, 1);
        assert_eq!(sc.stats.subproblems, 1);
        assert!((r.lambda - oracle.lambda).abs() <= 1e-12 * (1.0 + oracle.lambda.abs()));
        for j in 0..4 {
            assert!((xw[j] - x[j]).abs() <= 1e-12 * (1.0 + x[j].abs()));
        }

        // Non-finite hints are not tried at all.
        for hint in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut sc = EquilibrationScratch::new();
            assert!(warm(&q, &gamma, &shift, mode, hint, &mut sc).is_none());
            assert!(sc.stats.is_empty(), "hint {hint}: {:?}", sc.stats);
        }

        // Left of every breakpoint a positive fixed total has no piece
        // root to step to: one trial, counted, and no subproblem solved.
        let mut sc = EquilibrationScratch::new();
        assert!(warm(&q, &gamma, &shift, mode, -1e9, &mut sc).is_none());
        assert_eq!(sc.stats.quickselect_pivots, 1);
        assert_eq!(sc.stats.subproblems, 0);

        // Far right: Newton descends piece by piece, at most
        // WARM_NEWTON_STEPS trials either way.
        let mut sc = EquilibrationScratch::new();
        let far = warm(&q, &gamma, &shift, mode, 1e9, &mut sc);
        assert!(sc.stats.quickselect_pivots as usize <= WARM_NEWTON_STEPS);
        if let Some((r, _)) = far {
            assert_eq!(r.lambda.to_bits(), oracle_bits(&q, &gamma, &shift, mode));
        }
    }

    #[test]
    fn boxed_warm_path_lands_on_the_cold_bits_or_declines_uncounted() {
        let q = [1.0, 2.0, 4.0, 3.0];
        let gamma = [0.5, 2.0, 1.0, 1.5];
        let shift = [0.3, -0.7, 0.1, 0.0];
        let (lo, hi) = ([0.5, 0.0, 1.0, 0.0], [2.5, 3.0, 5.0, 1.0]);
        let bounds = Some((&lo[..], &hi[..]));
        let boxed = |mode: TotalMode, hint: f64, sc: &mut EquilibrationScratch| {
            let mut x = [0.0; 4];
            exact_equilibration_warm(&q, &gamma, &shift, bounds, mode, hint, &mut x, sc)
                .unwrap()
                .map(|r| (r.lambda.to_bits(), x))
        };
        let cold = |mode: TotalMode| {
            let mut x = [0.0; 4];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration_boxed_with(
                KernelKind::Quickselect,
                &q,
                &gamma,
                &shift,
                &lo,
                &hi,
                mode,
                &mut x,
                &mut sc,
            )
            .unwrap();
            (r.lambda.to_bits(), x)
        };
        let mode = TotalMode::Fixed { total: 6.0 };
        let (bits, x) = cold(mode);
        // Started on the root's piece: one trial, the cold route's bits.
        let mut sc = EquilibrationScratch::new();
        let lambda = f64::from_bits(bits);
        assert_eq!(boxed(mode, lambda, &mut sc), Some((bits, x)));
        assert_eq!((sc.stats.quickselect_pivots, sc.stats.subproblems), (1, 1));

        // A non-finite hint, or a total every entry meets at a bound,
        // declines before any trial.
        for (mode, hint) in [
            (mode, f64::NAN),
            (mode, f64::NEG_INFINITY),
            (TotalMode::Fixed { total: 1.5 }, 0.0),
            (TotalMode::Fixed { total: 11.5 }, 0.0),
        ] {
            let mut sc = EquilibrationScratch::new();
            assert!(boxed(mode, hint, &mut sc).is_none(), "{mode:?} from {hint}");
            assert!(sc.stats.is_empty(), "{mode:?} from {hint}: {:?}", sc.stats);
        }

        // Input errors match the cold kernel's.
        let mut sc = EquilibrationScratch::new();
        let mut x = [0.0; 4];
        let swapped = Some((&hi[..], &lo[..]));
        assert!(matches!(
            exact_equilibration_warm(&q, &gamma, &shift, swapped, mode, 0.0, &mut x, &mut sc),
            Err(SeaError::InconsistentBounds { index: 0, .. })
        ));
        assert!(matches!(
            exact_equilibration_warm(
                &q,
                &gamma,
                &shift,
                bounds,
                TotalMode::Fixed { total: 50.0 },
                0.0,
                &mut x,
                &mut sc
            ),
            Err(SeaError::InfeasibleSubproblem { .. })
        ));
    }

    /// The canonical multiplier's bits, via the cold selection kernel.
    fn oracle_bits(q: &[f64], gamma: &[f64], shift: &[f64], mode: TotalMode) -> u64 {
        let mut x = vec![0.0; q.len()];
        let mut sc = EquilibrationScratch::new();
        exact_equilibration_with(
            KernelKind::Quickselect,
            q,
            gamma,
            shift,
            mode,
            &mut x,
            &mut sc,
        )
        .unwrap()
        .lambda
        .to_bits()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn fixed_matches_bisection(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let total = rng.random_range(0.0..30.0);
            let mode = TotalMode::Fixed { total };
            let mut x = vec![0.0; n];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration(&q, &gamma, &shift, mode, &mut x, &mut sc).unwrap();
            let (lam_ref, x_ref) = bisect_reference(&q, &gamma, &shift, mode);
            // Feasibility.
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - total).abs() <= 1e-8 * (1.0 + total.abs()), "sum {} vs {}", sum, total);
            // Multiplier and solution agreement (λ can be non-unique only in
            // degenerate all-zero cases; compare solutions instead).
            for j in 0..n {
                prop_assert!((x[j] - x_ref[j]).abs() <= 1e-5 * (1.0 + x_ref[j].abs()));
            }
            if total > 1e-9 {
                prop_assert!((r.lambda - lam_ref).abs() <= 1e-4 * (1.0 + lam_ref.abs()));
            }
            check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-6);
        }

        #[test]
        fn elastic_matches_bisection(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let alpha = rng.random_range(0.05..5.0);
            let prior = rng.random_range(-5.0..30.0);
            let cross = rng.random_range(-2.0..2.0);
            let mode = TotalMode::Elastic { alpha, prior, cross };
            let mut x = vec![0.0; n];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration(&q, &gamma, &shift, mode, &mut x, &mut sc).unwrap();
            let (lam_ref, _x_ref) = bisect_reference(&q, &gamma, &shift, mode);
            prop_assert!((r.lambda - lam_ref).abs() <= 1e-5 * (1.0 + lam_ref.abs()));
            // Realized total equals the elastic stationarity value and the
            // entry sum simultaneously.
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - r.total).abs() <= 1e-8 * (1.0 + r.total.abs()));
            let s_stat = prior - (r.lambda + cross) / (2.0 * alpha);
            prop_assert!((r.total - s_stat).abs() <= 1e-8 * (1.0 + s_stat.abs()));
            check_kkt(&q, &gamma, &shift, &x, r.lambda, 1e-6);
        }

        #[test]
        fn boxed_feasible_and_kkt(
            n in 1usize..30,
            seed in 0u64..500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0C5);
            let q: Vec<f64> = (0..n).map(|_| rng.random_range(-5.0..10.0)).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-3.0..3.0)).collect();
            let lo: Vec<f64> = (0..n).map(|_| rng.random_range(0.0..2.0)).collect();
            let hi: Vec<f64> = lo.iter().map(|&l| l + rng.random_range(0.1..5.0)).collect();
            let slo: f64 = lo.iter().sum();
            let shi: f64 = hi.iter().sum();
            let total = rng.random_range(slo..=shi);
            let mut x = vec![0.0; n];
            let mut sc = EquilibrationScratch::new();
            let r = exact_equilibration_boxed(
                &q, &gamma, &shift, &lo, &hi,
                TotalMode::Fixed { total }, &mut x, &mut sc,
            ).unwrap();
            let sum: f64 = x.iter().sum();
            prop_assert!((sum - total).abs() <= 1e-6 * (1.0 + total.abs()), "sum {} vs total {}", sum, total);
            for j in 0..n {
                prop_assert!(x[j] >= lo[j] - 1e-9 && x[j] <= hi[j] + 1e-9);
                let grad = 2.0 * gamma[j] * (x[j] - q[j]) - shift[j] - r.lambda;
                if x[j] > lo[j] + 1e-7 && x[j] < hi[j] - 1e-7 {
                    prop_assert!(grad.abs() <= 1e-5 * (1.0 + grad.abs()));
                } else if x[j] <= lo[j] + 1e-7 {
                    prop_assert!(grad >= -1e-6 * (1.0 + gamma[j]));
                } else {
                    prop_assert!(grad <= 1e-6 * (1.0 + gamma[j]));
                }
            }
        }

        /// Differential test: the quickselect kernel must reproduce the
        /// sort-scan oracle on adversarial plain subproblems. Half the cases
        /// snap inputs to a coarse grid so breakpoints collide.
        #[test]
        fn quickselect_differential_plain(
            n in 1usize..60,
            seed in 0u64..1500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x5E1EC7);
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n)
                .map(|_| {
                    // Occasionally near-degenerate weights.
                    if rng.random_range(0.0..1.0) < 0.1 {
                        rng.random_range(1e-6..1e-4)
                    } else {
                        rng.random_range(0.05..5.0)
                    }
                })
                .collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            // Mix binding (small/zero totals) with slack (large) constraints.
            let total = match seed % 4 {
                0 => 0.0,
                1 => rng.random_range(0.0..2.0),
                _ => rng.random_range(0.0..40.0),
            };
            let mode = TotalMode::Fixed { total };
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, mode);
            for j in 0..n {
                prop_assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "x[{}]: sortscan {} vs quickselect {}", j, x1[j], x2[j]
                );
            }
            // λ is unique whenever some entry is strictly active.
            if r1.active > 0 {
                prop_assert!(
                    (r1.lambda - r2.lambda).abs() <= 1e-9 * (1.0 + r1.lambda.abs()),
                    "λ: {} vs {}", r1.lambda, r2.lambda
                );
            }
            check_kkt(&q, &gamma, &shift, &x2, r2.lambda, 1e-6);
        }

        /// Elastic-mode differential: λ is always unique here (the elastic
        /// term adds strictly positive slope), so both λ and x must agree.
        #[test]
        fn quickselect_differential_elastic(
            n in 1usize..60,
            seed in 0u64..1500,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xE1A57C);
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { v.round() } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let mode = TotalMode::Elastic {
                alpha: rng.random_range(0.05..5.0),
                prior: rng.random_range(-5.0..30.0),
                cross: rng.random_range(-2.0..2.0),
            };
            let ((r1, x1), (r2, x2)) = both_plain(&q, &gamma, &shift, mode);
            prop_assert!(
                (r1.lambda - r2.lambda).abs() <= 1e-9 * (1.0 + r1.lambda.abs()),
                "λ: {} vs {}", r1.lambda, r2.lambda
            );
            prop_assert!((r1.total - r2.total).abs() <= 1e-9 * (1.0 + r1.total.abs()));
            for j in 0..n {
                prop_assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "x[{}]: {} vs {}", j, x1[j], x2[j]
                );
            }
        }

        /// Boxed differential: compare solutions (λ may legitimately differ
        /// on flat tie segments where any multiplier in an interval is a
        /// valid KKT certificate — x is unique, λ is not).
        #[test]
        fn quickselect_differential_boxed(
            n in 1usize..40,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0CED);
            let tie_grid = seed % 2 == 0;
            let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
            let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
            let gamma: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
            let lo: Vec<f64> = (0..n).map(|_| snap(rng.random_range(0.0..2.0))).collect();
            let hi: Vec<f64> = lo
                .iter()
                .map(|&l| {
                    // Some entries pinned (lo == hi), most with real slack.
                    if rng.random_range(0.0..1.0) < 0.15 {
                        l
                    } else {
                        l + snap(rng.random_range(0.1..5.0)).max(0.1)
                    }
                })
                .collect();
            let slo: f64 = lo.iter().sum();
            let shi: f64 = hi.iter().sum();
            // Include the exact endpoints: all-at-lower / all-at-upper rows.
            let total = match seed % 5 {
                0 => slo,
                1 => shi,
                _ => rng.random_range(slo..=shi),
            };
            let mode = TotalMode::Fixed { total };
            let ((_r1, x1), (r2, x2)) = both_boxed(&q, &gamma, &shift, &lo, &hi, mode);
            for j in 0..n {
                prop_assert!(
                    (x1[j] - x2[j]).abs() <= 1e-10 * (1.0 + x1[j].abs()),
                    "x[{}]: sortscan {} vs quickselect {}", j, x1[j], x2[j]
                );
                prop_assert!(x2[j] >= lo[j] - 1e-9 && x2[j] <= hi[j] + 1e-9);
            }
            let sum: f64 = x2.iter().sum();
            prop_assert!((sum - total).abs() <= 1e-6 * (1.0 + total.abs()));
            let _ = r2;
        }
    }
}
