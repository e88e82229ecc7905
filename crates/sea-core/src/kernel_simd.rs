//! Vectorized and mixed-precision variants of the exact-equilibration
//! kernels, differentially tested against the untouched scalar oracle in
//! [`crate::knapsack`].
//!
//! ## Bitwise-identity contract
//!
//! The SIMD entry points ([`exact_equilibration_simd`],
//! [`exact_equilibration_boxed_simd`]) reproduce the scalar kernels
//! **bitwise** — same iterates, same multipliers, same
//! [`sea_observe::KernelCounters`]. This is possible because only
//! *elementwise* computations are vectorized (breakpoint evaluation, event
//! slope coefficients, solution materialization, the boxed clamp sweep, and
//! the constraint-restoring rescale): per-lane SIMD arithmetic performs the
//! same IEEE-754 operation sequence as the scalar loop, so each lane is
//! bit-identical. Every *reduction* — the segment-sweep folds `a += daⱼ`,
//! `b += dbⱼ`, the materialized sum, and the active count — deliberately
//! stays in scalar index order, folding SIMD-computed per-entry
//! coefficients one at a time. The sweep and selection logic itself
//! (`select_lambda`, the segment scan) is reused unchanged from the scalar
//! kernels, so the two paths walk identical decision sequences.
//!
//! ## Mixed precision
//!
//! [`exact_equilibration_f32`] and [`exact_equilibration_boxed_f32`] run the
//! λ-search in `f32` (narrowed inputs, `f32` breakpoint sort and sweep) and
//! materialize the solution in `f64` from the original inputs, so row/column
//! totals and the downstream residual/dual accumulation stay in full
//! precision. They return `Ok(None)` when the `f32` search cannot produce a
//! usable multiplier (non-finite λ, or a positive total with an all-zero
//! materialization); callers fall back to the scalar `f64` kernel and count
//! a kernel fallback. The solver drives these during the `f32` phase of
//! [`Precision::F32Mixed`] and switches every pass back to `f64` for the
//! final polish epoch.

use crate::error::SeaError;
use crate::knapsack::{
    boxed_extreme, canonical_lambda, check_boxed, check_mode, elastic_constants, empty_subproblem,
    exact_equilibration_boxed_with, exact_equilibration_with, flat_match, realized_total,
    select_lambda, validate_inputs, EquilibrationResult, EquilibrationScratch, FlatPolicy,
    KernelKind, SelectEvent, TotalMode,
};
use sea_linalg::simd::{self, SimdLevel};
use sea_linalg::sort;

/// User-facing SIMD policy, resolved once per solve to a
/// [`SimdLevel`] before the hot loop starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdMode {
    /// Scalar kernels only (the differential oracle's own path). The
    /// library default: zero behavioural risk.
    #[default]
    Off,
    /// Runtime dispatch: AVX2 when the CPU supports it, otherwise the
    /// portable lanes path. The CLI default.
    Auto,
    /// Require the explicit AVX2 path; resolving fails with
    /// [`SeaError::SimdUnsupported`] on CPUs without AVX2.
    Force,
}

impl SimdMode {
    /// Stable lowercase name, for CLI flags and report tables.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Off => "off",
            SimdMode::Auto => "auto",
            SimdMode::Force => "force",
        }
    }

    /// Parse a CLI spelling. Accepts `off`/`scalar`/`none`, `auto`, and
    /// `force`/`on`.
    pub fn parse(s: &str) -> Option<SimdMode> {
        match s.to_ascii_lowercase().as_str() {
            "off" | "scalar" | "none" => Some(SimdMode::Off),
            "auto" => Some(SimdMode::Auto),
            "force" | "on" => Some(SimdMode::Force),
            _ => None,
        }
    }

    /// Resolve the policy against the running CPU.
    ///
    /// # Errors
    /// [`SeaError::SimdUnsupported`] when `Force` is requested on a CPU
    /// without AVX2.
    pub fn resolve(self) -> Result<SimdLevel, SeaError> {
        match self {
            SimdMode::Off => Ok(SimdLevel::Scalar),
            SimdMode::Auto => Ok(SimdLevel::detect()),
            SimdMode::Force => {
                if simd::avx2_available() {
                    Ok(SimdLevel::Avx2)
                } else {
                    Err(SeaError::SimdUnsupported)
                }
            }
        }
    }
}

impl std::fmt::Display for SimdMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Arithmetic precision of the equilibration iterates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full double precision throughout (the default and the oracle).
    #[default]
    F64,
    /// Single-precision λ-search for **every** iteration, no polish. A
    /// diagnostic mode: on ill-conditioned problems it demonstrably fails
    /// where [`Precision::F32Mixed`] recovers; convergence is still judged
    /// by the f64 residual, so it simply stalls rather than lying.
    F32,
    /// Mixed precision: f32 λ-search iterates with f64 residual/dual
    /// accumulation, then a final f64 polish epoch once the f32 phase has
    /// converged or stagnated. Convergence is only ever declared from the
    /// polish phase, which must still pass the f64 KKT certificate.
    F32Mixed,
}

impl Precision {
    /// Stable lowercase name, for CLI flags and report tables.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::F32Mixed => "f32-mixed",
        }
    }

    /// Parse a CLI spelling. Accepts `f64`/`double`, `f32`/`single`, and
    /// `f32-mixed`/`mixed`.
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f64" | "double" => Some(Precision::F64),
            "f32" | "single" => Some(Precision::F32),
            "f32-mixed" | "f32mixed" | "mixed" => Some(Precision::F32Mixed),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Extra workhorse buffers for the vectorized kernels, embedded in
/// [`EquilibrationScratch`]. All buffers grow once and are reused; scalar
/// solves never touch them.
#[derive(Debug, Default, Clone)]
pub(crate) struct SimdScratch {
    /// Per-entry intercept deltas `daⱼ` (plain) / lower-event deltas (boxed).
    da: Vec<f64>,
    /// Per-entry slope deltas `dbⱼ = 1/(2γⱼ)`.
    db: Vec<f64>,
    /// Upper-event intercept deltas for the boxed kernel.
    da_hi: Vec<f64>,
    /// f32 breakpoint array for the mixed-precision λ-search.
    bp32: Vec<f32>,
    /// f32 event intercept deltas `da32ⱼ = q32ⱼ + sh32ⱼ·db32ⱼ` for the
    /// mixed-precision sweeps (filled 8 lanes wide, consumed in event order).
    da32: Vec<f32>,
    /// f32 event slope deltas `db32ⱼ = 1/(2·g32ⱼ)`.
    db32: Vec<f32>,
    /// Narrowed inputs for the mixed-precision λ-search.
    q32: Vec<f32>,
    g32: Vec<f32>,
    sh32: Vec<f32>,
    lo32: Vec<f32>,
    hi32: Vec<f32>,
}

impl SimdScratch {
    fn prepare_plain(&mut self, n: usize) {
        self.da.clear();
        self.da.resize(n, 0.0);
        self.db.clear();
        self.db.resize(n, 0.0);
    }

    fn prepare_boxed(&mut self, n: usize) {
        self.prepare_plain(n);
        self.da_hi.clear();
        self.da_hi.resize(n, 0.0);
    }

    fn prepare_f32(&mut self, n: usize) {
        self.bp32.clear();
        self.bp32.resize(n, 0.0);
        self.q32.clear();
        self.q32.resize(n, 0.0);
        self.g32.clear();
        self.g32.resize(n, 0.0);
        self.sh32.clear();
        self.sh32.resize(n, 0.0);
        self.da32.clear();
        self.da32.resize(n, 0.0);
        self.db32.clear();
        self.db32.resize(n, 0.0);
    }
}

/// [`exact_equilibration_with`]
/// through the vectorized path: identical results, identical counters, SIMD
/// elementwise work. [`SimdLevel::Scalar`] delegates to the oracle itself.
///
/// # Errors
/// Same contract as [`crate::knapsack::exact_equilibration`].
#[allow(clippy::too_many_arguments)] // kernel inputs + output + workspace
pub fn exact_equilibration_simd(
    level: SimdLevel,
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<EquilibrationResult, SeaError> {
    if level == SimdLevel::Scalar {
        return exact_equilibration_with(kernel, q, gamma, shift, mode, x_out, scratch);
    }
    validate_inputs(q, gamma, shift, x_out)?;
    let n = q.len();
    scratch.stats.subproblems += 1;
    check_mode(mode)?;
    if n == 0 {
        return empty_subproblem(mode);
    }
    debug_assert!(
        gamma.iter().all(|&g| g > 0.0),
        "gamma must be strictly positive"
    );

    let lambda = match kernel {
        KernelKind::SortScan => simd_lambda_sort_scan(level, q, gamma, shift, mode, scratch),
        KernelKind::Quickselect => simd_lambda_quickselect(level, q, gamma, shift, mode, scratch),
    };
    if !lambda.is_finite() {
        return Err(SeaError::NumericalBreakdown { iteration: 0 });
    }

    let (sum, active) = simd::materialize_plain(level, q, gamma, shift, lambda, x_out);

    let total = realized_total(mode, lambda);

    let err = total - sum;
    if err != 0.0 && sum > 0.0 && err.abs() > 0.0 {
        let scale = total / sum;
        if scale.is_finite() && scale > 0.0 {
            simd::scale_in_place(level, x_out, scale);
        }
    }

    Ok(EquilibrationResult {
        lambda,
        total,
        active,
    })
}

/// SIMD sort-scan λ-search: vectorized breakpoint and slope-coefficient
/// fills, then the scalar oracle's own segment sweep folding the
/// precomputed `(daⱼ, dbⱼ)` in sorted order.
fn simd_lambda_sort_scan(
    level: SimdLevel,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    scratch.prepare(n);
    scratch.breakpoints.resize(n, 0.0);
    scratch.simd.prepare_plain(n);
    simd::event_coeffs_plain(
        level,
        q,
        gamma,
        shift,
        &mut scratch.breakpoints,
        &mut scratch.simd.da,
        &mut scratch.simd.db,
    );
    scratch.order.resize(n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort(&mut scratch.order, &scratch.breakpoints);

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
        let cand = match mode {
            TotalMode::Fixed { total } => {
                if b > 0.0 {
                    Some((total - a) / b)
                } else if total <= 0.0 {
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
            a += scratch.simd.da[j];
            b += scratch.simd.db[j];
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// SIMD selection λ-search: vectorized event-coefficient fill, then the
/// scalar oracle's `select_lambda` over the identical event array (hence
/// identical pivots and partition path).
fn simd_lambda_quickselect(
    level: SimdLevel,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f64 {
    let n = q.len();
    scratch.prepare(n);
    scratch.breakpoints.resize(n, 0.0);
    scratch.simd.prepare_plain(n);
    simd::event_coeffs_plain(
        level,
        q,
        gamma,
        shift,
        &mut scratch.breakpoints,
        &mut scratch.simd.da,
        &mut scratch.simd.db,
    );
    for j in 0..n {
        scratch.events.push(SelectEvent {
            v: scratch.breakpoints[j],
            da: scratch.simd.da[j],
            db: scratch.simd.db[j],
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

/// [`exact_equilibration_boxed_with`]
/// through the vectorized path: identical results, identical counters.
///
/// # Errors
/// Same contract as [`crate::knapsack::exact_equilibration_boxed`].
#[allow(clippy::too_many_arguments)]
pub fn exact_equilibration_boxed_simd(
    level: SimdLevel,
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
    if level == SimdLevel::Scalar {
        return exact_equilibration_boxed_with(
            kernel, q, gamma, shift, lo, hi, mode, x_out, scratch,
        );
    }
    validate_inputs(q, gamma, shift, x_out)?;
    let n = q.len();
    scratch.stats.subproblems += 1;
    let (sum_lo, sum_hi) = check_boxed(n, lo, hi, mode)?;

    let lambda = match kernel {
        KernelKind::SortScan => {
            simd_boxed_lambda_sort_scan(level, q, gamma, shift, lo, hi, sum_lo, mode, scratch)
        }
        KernelKind::Quickselect => {
            simd_boxed_lambda_quickselect(level, q, gamma, shift, lo, hi, sum_lo, mode, scratch)
        }
    };
    let lambda = boxed_extreme(lambda, mode, sum_hi);

    let active = simd::materialize_boxed(level, q, gamma, shift, lo, hi, lambda, x_out);
    let total = realized_total(mode, lambda);
    scratch.stats.boxed_clamps += (n - active) as u64;

    Ok(EquilibrationResult {
        lambda,
        total,
        active,
    })
}

/// SIMD boxed sort-scan λ-search: vectorized two-sided breakpoint and
/// hinge-coefficient fills, then the oracle's sweep folding precomputed
/// deltas in sorted order.
#[allow(clippy::too_many_arguments)]
fn simd_boxed_lambda_sort_scan(
    level: SimdLevel,
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
    scratch.events_hi.clear();
    scratch.events_hi.resize(2 * n, 0.0);
    {
        let (elo, ehi) = scratch.events_hi.split_at_mut(n);
        simd::breakpoints_boxed(level, q, gamma, shift, lo, hi, elo, ehi);
    }
    scratch.simd.prepare_boxed(n);
    simd::event_coeffs_boxed(
        level,
        q,
        gamma,
        shift,
        lo,
        hi,
        &mut scratch.simd.da,
        &mut scratch.simd.da_hi,
        &mut scratch.simd.db,
    );
    scratch.order.resize(2 * n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort(&mut scratch.order, &scratch.events_hi);

    let (el_slope, el_const) = elastic_constants(mode);

    let mut a = sum_lo;
    let mut b = 0.0_f64;
    let mut lambda = f64::NAN;
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
            if e < n {
                a += scratch.simd.da[j];
                b += scratch.simd.db[j];
            } else {
                a += scratch.simd.da_hi[j];
                b -= scratch.simd.db[j];
            }
            seg_lo = upper;
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// SIMD boxed selection λ-search: vectorized coefficient fills, then the
/// oracle's `select_lambda` over an identical interleaved event array.
#[allow(clippy::too_many_arguments)]
fn simd_boxed_lambda_quickselect(
    level: SimdLevel,
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
    scratch.events_hi.clear();
    scratch.events_hi.resize(2 * n, 0.0);
    {
        let (elo, ehi) = scratch.events_hi.split_at_mut(n);
        simd::breakpoints_boxed(level, q, gamma, shift, lo, hi, elo, ehi);
    }
    scratch.simd.prepare_boxed(n);
    simd::event_coeffs_boxed(
        level,
        q,
        gamma,
        shift,
        lo,
        hi,
        &mut scratch.simd.da,
        &mut scratch.simd.da_hi,
        &mut scratch.simd.db,
    );
    for j in 0..n {
        scratch.events.push(SelectEvent {
            v: scratch.events_hi[j],
            da: scratch.simd.da[j],
            db: scratch.simd.db[j],
        });
        scratch.events.push(SelectEvent {
            v: scratch.events_hi[n + j],
            da: scratch.simd.da_hi[j],
            db: -scratch.simd.db[j],
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

// ---------------------------------------------------------------------------
// Mixed precision: f32 λ-search, f64 materialization.
// ---------------------------------------------------------------------------

/// Mixed-precision plain equilibration: f32 sort-scan λ-search over narrowed
/// inputs, f64 materialization and constraint-restoring rescale.
///
/// Returns `Ok(None)` when the f32 search cannot stand in for the f64 kernel
/// (non-finite λ, or a positive total left with an all-zero materialization);
/// the caller must then fall back to the scalar `f64` kernel.
///
/// # Errors
/// Same contract as [`crate::knapsack::exact_equilibration`].
pub fn exact_equilibration_f32(
    level: SimdLevel,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<Option<EquilibrationResult>, SeaError> {
    validate_inputs(q, gamma, shift, x_out)?;
    let n = q.len();
    scratch.stats.subproblems += 1;
    check_mode(mode)?;
    if n == 0 {
        return empty_subproblem(mode).map(Some);
    }

    scratch.prepare(n);
    scratch.simd.prepare_f32(n);
    simd::narrow_to_f32(level, q, &mut scratch.simd.q32);
    simd::narrow_to_f32(level, gamma, &mut scratch.simd.g32);
    simd::narrow_to_f32(level, shift, &mut scratch.simd.sh32);

    let lambda32 = f32_lambda_sort_scan(level, mode, scratch);
    if !lambda32.is_finite() {
        return Ok(None);
    }
    let lambda = lambda32 as f64;

    let (sum, active) = simd::materialize_plain(level, q, gamma, shift, lambda, x_out);
    let total = realized_total(mode, lambda);
    if total > 0.0 && !(sum > 0.0) {
        // The f32 multiplier undershot every breakpoint; only the f64
        // kernel can place λ accurately enough.
        return Ok(None);
    }
    if sum > 0.0 && total != sum {
        let scale = total / sum;
        if scale.is_finite() && scale > 0.0 {
            simd::scale_in_place(level, x_out, scale);
        }
    }
    Ok(Some(EquilibrationResult {
        lambda,
        total,
        active,
    }))
}

/// f32 replica of the plain sort-scan sweep over the narrowed inputs held
/// in the scratch. The breakpoint fill and the per-event coefficients
/// (`da32`, `db32` — the divisions) run 8 lanes wide at the selected SIMD
/// level; the sweep itself consumes them in sorted event order.
fn f32_lambda_sort_scan(
    level: SimdLevel,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f32 {
    let n = scratch.simd.q32.len();
    simd::breakpoints_plain_f32(
        level,
        &scratch.simd.q32,
        &scratch.simd.g32,
        &scratch.simd.sh32,
        &mut scratch.simd.bp32,
    );
    simd::event_coeffs_plain_f32(
        level,
        &scratch.simd.q32,
        &scratch.simd.g32,
        &scratch.simd.sh32,
        &mut scratch.simd.da32,
        &mut scratch.simd.db32,
    );
    scratch.order.resize(n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort_f32(&mut scratch.order, &scratch.simd.bp32);

    let (el_slope64, el_const64) = elastic_constants(mode);
    let el_slope = el_slope64 as f32;
    let el_const = el_const64 as f32;
    let total32 = match mode {
        TotalMode::Fixed { total } => total as f32,
        TotalMode::Elastic { .. } => 0.0,
    };

    let mut a = 0.0_f32;
    let mut b = 0.0_f32;
    let mut lambda = f32::NAN;
    let mut swept = 0u64;
    for r in 0..=n {
        swept += 1;
        let upper = if r < n {
            scratch.simd.bp32[scratch.order[r] as usize]
        } else {
            f32::INFINITY
        };
        let cand = match mode {
            TotalMode::Fixed { .. } => {
                if b > 0.0 {
                    Some((total32 - a) / b)
                } else if total32 <= 0.0 {
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
            a += scratch.simd.da32[j];
            b += scratch.simd.db32[j];
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

/// Mixed-precision boxed equilibration: f32 two-sided sort-scan λ-search,
/// f64 clamp materialization. Returns `Ok(None)` when the f32 search fails
/// (non-finite λ); callers fall back to the scalar `f64` kernel.
///
/// # Errors
/// Same contract as [`crate::knapsack::exact_equilibration_boxed`].
#[allow(clippy::too_many_arguments)]
pub fn exact_equilibration_boxed_f32(
    level: SimdLevel,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
    x_out: &mut [f64],
    scratch: &mut EquilibrationScratch,
) -> Result<Option<EquilibrationResult>, SeaError> {
    validate_inputs(q, gamma, shift, x_out)?;
    let n = q.len();
    scratch.stats.subproblems += 1;
    let (sum_lo, _) = check_boxed(n, lo, hi, mode)?;

    scratch.prepare(n);
    scratch.simd.prepare_f32(n);
    scratch.simd.lo32.clear();
    scratch.simd.lo32.resize(n, 0.0);
    scratch.simd.hi32.clear();
    scratch.simd.hi32.resize(n, 0.0);
    simd::narrow_to_f32(level, q, &mut scratch.simd.q32);
    simd::narrow_to_f32(level, gamma, &mut scratch.simd.g32);
    simd::narrow_to_f32(level, shift, &mut scratch.simd.sh32);
    simd::narrow_to_f32(level, lo, &mut scratch.simd.lo32);
    simd::narrow_to_f32(level, hi, &mut scratch.simd.hi32);

    let lambda32 = f32_boxed_lambda_sort_scan(level, sum_lo as f32, mode, scratch);
    if !lambda32.is_finite() {
        return Ok(None);
    }
    let lambda = lambda32 as f64;

    let active = simd::materialize_boxed(level, q, gamma, shift, lo, hi, lambda, x_out);
    let total = realized_total(mode, lambda);
    scratch.stats.boxed_clamps += (n - active) as u64;
    Ok(Some(EquilibrationResult {
        lambda,
        total,
        active,
    }))
}

/// f32 replica of the boxed sort-scan sweep over the narrowed inputs. Fills
/// and per-event coefficients run 8 lanes wide at the selected SIMD level.
fn f32_boxed_lambda_sort_scan(
    level: SimdLevel,
    sum_lo: f32,
    mode: TotalMode,
    scratch: &mut EquilibrationScratch,
) -> f32 {
    let n = scratch.simd.q32.len();
    scratch.bp32_boxed_fill(level);
    simd::event_coeffs_plain_f32(
        level,
        &scratch.simd.q32,
        &scratch.simd.g32,
        &scratch.simd.sh32,
        &mut scratch.simd.da32,
        &mut scratch.simd.db32,
    );
    scratch.order.resize(2 * n, 0);
    sort::identity_permutation(&mut scratch.order);
    sort::argsort_f32(&mut scratch.order, &scratch.simd.bp32);

    let (el_slope64, el_const64) = elastic_constants(mode);
    let el_slope = el_slope64 as f32;
    let el_const = el_const64 as f32;
    let total32 = match mode {
        TotalMode::Fixed { total } => total as f32,
        TotalMode::Elastic { .. } => 0.0,
    };

    let mut a = sum_lo;
    let mut b = 0.0_f32;
    let mut lambda = f32::NAN;
    let mut seg_lo = f32::NEG_INFINITY;
    let mut swept = 0u64;
    for r in 0..=(2 * n) {
        swept += 1;
        let upper = if r < 2 * n {
            scratch.simd.bp32[scratch.order[r] as usize]
        } else {
            f32::INFINITY
        };
        let cand = match mode {
            TotalMode::Fixed { .. } => {
                if b > 0.0 {
                    Some((total32 - a) / b)
                } else if (a - total32).abs() <= 1e-6 * total32.abs().max(1.0) {
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
            if e < n {
                a += scratch.simd.da32[j] - scratch.simd.lo32[j];
                b += scratch.simd.db32[j];
            } else {
                a += scratch.simd.hi32[j] - scratch.simd.da32[j];
                b -= scratch.simd.db32[j];
            }
            seg_lo = upper;
        }
    }
    scratch.stats.breakpoints_scanned += swept;
    lambda
}

impl EquilibrationScratch {
    /// Fill the f32 boxed breakpoint array (2n events: lower then upper)
    /// from the narrowed inputs already staged in the SIMD scratch, 8 lanes
    /// at a time at the selected level.
    fn bp32_boxed_fill(&mut self, level: SimdLevel) {
        let n = self.simd.q32.len();
        self.simd.bp32.clear();
        self.simd.bp32.resize(2 * n, 0.0);
        let (out_lo, out_hi) = self.simd.bp32.split_at_mut(n);
        simd::breakpoints_boxed_f32(
            level,
            &self.simd.q32,
            &self.simd.g32,
            &self.simd.sh32,
            &self.simd.lo32,
            &self.simd.hi32,
            out_lo,
            out_hi,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn infeasible<T>(r: Result<T, SeaError>) -> bool {
        matches!(r, Err(SeaError::InfeasibleSubproblem { .. }))
    }

    #[test]
    fn negative_fixed_total_is_infeasible_at_every_level() {
        let mode = TotalMode::Fixed { total: -1.0 };
        let (q, g, sh) = ([1.0, 2.0, 3.0], [1.0; 3], [0.0; 3]);
        let mut sc = EquilibrationScratch::new();
        for level in [SimdLevel::Scalar, SimdLevel::detect()] {
            for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
                let mut x = [0.0; 3];
                assert!(infeasible(exact_equilibration_simd(
                    level, kernel, &q, &g, &sh, mode, &mut x, &mut sc
                )));
                assert!(infeasible(exact_equilibration_simd(
                    level,
                    kernel,
                    &[],
                    &[],
                    &[],
                    mode,
                    &mut [],
                    &mut sc
                )));
            }
            let mut x = [0.0; 3];
            assert!(infeasible(exact_equilibration_f32(
                level, &q, &g, &sh, mode, &mut x, &mut sc
            )));
            assert!(infeasible(exact_equilibration_f32(
                level,
                &[],
                &[],
                &[],
                mode,
                &mut [],
                &mut sc
            )));
        }
    }
}
