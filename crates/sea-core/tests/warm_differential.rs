//! Differential suite for the warm path of the default kernel.
//!
//! Inside a pass, the quickselect kernel first runs Newton's method from
//! the multiplier the subproblem had after the previous pass (the value
//! still in the pass's `λ`/`μ` output slot) and accepts a trial only on its
//! own linear piece; anything else falls through to quickselect, then to
//! sort-scan. These tests drive that route through the public pass API by
//! pre-filling the output slot with a hint, and check that
//!
//! * every hint — NaN, ±∞, 0, the exact root, far off, on a breakpoint,
//!   amid duplicate breakpoints — yields the sort-scan oracle's solution
//!   to 1e-10 in fixed, elastic and balanced (cross-coupled) modes;
//! * every hint yields the *same bits* (the answer does not depend on the
//!   route), so serial, parallel and resumed solves stay bitwise equal;
//! * warm trials are counted as search rounds, and a declined warm start
//!   shows up in the counters on top of the cold search.
//!
//! The boxed half drives the same route for box-bounded subproblems
//! (`lo ≤ x ≤ hi`) through the public bounded pass, with hints also on a
//! lower or upper breakpoint, amid `lo == hi` entries, and at a fixed total
//! every entry meets pinned at a bound (a flat piece the warm path leaves
//! to the cold kernel).

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sea_core::equilibrate::{bounded_pass, Bounds, PassInputs};
use sea_core::knapsack::exact_equilibration_boxed_with;
use sea_core::{
    exact_equilibration_with, solve_bounded_supervised, BoundedProblem, EquilibrationScratch,
    KernelCounters, KernelKind, Parallelism, PassCounters, SeaOptions, SimdLevel, SpanKind,
    SpanProfiler, SupervisorOptions, TotalMode,
};
use sea_linalg::DenseMatrix;

/// One subproblem, box-bounded when `bounds` is given, solved through a
/// one-row quickselect pass whose output slot starts at `hint`. Returns
/// `(λ, total, x, counters)`.
fn pass_solve(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    bounds: Option<(&[f64], &[f64])>,
    mode: TotalMode,
    hint: f64,
) -> (f64, f64, Vec<f64>, KernelCounters) {
    let n = q.len();
    let row = |v: &[f64]| DenseMatrix::from_vec(1, n, v.to_vec()).unwrap();
    let (prior, weights) = (row(q), row(gamma));
    let boxes = bounds.map(|(lo, hi)| (row(lo), row(hi)));
    let inp = PassInputs {
        prior: &prior,
        gamma: &weights,
        support: None,
        shift,
        side: "row",
        kernel: KernelKind::Quickselect,
        simd: SimdLevel::Scalar,
        f32_phase: false,
        fault: None,
    };
    let counters = PassCounters::default();
    let (mut lambda, mut total) = (vec![hint], vec![0.0]);
    let mut x = DenseMatrix::zeros(1, n).unwrap();
    bounded_pass(
        &inp,
        boxes.as_ref().map(|(lo, hi)| Bounds { lo, hi }),
        &|_| mode,
        &mut lambda,
        &mut total,
        &mut x,
        Parallelism::Serial,
        None,
        Some(&counters),
        None,
        None,
    )
    .unwrap();
    (
        lambda[0],
        total[0],
        x.as_slice().to_vec(),
        counters.snapshot(),
    )
}

fn oracle(q: &[f64], gamma: &[f64], shift: &[f64], mode: TotalMode) -> (f64, Vec<f64>) {
    let mut x = vec![0.0; q.len()];
    let mut sc = EquilibrationScratch::new();
    let r = exact_equilibration_with(KernelKind::SortScan, q, gamma, shift, mode, &mut x, &mut sc)
        .unwrap();
    (r.lambda, x)
}

/// A random subproblem; `tie_grid` snaps priors and shifts so breakpoints
/// collide.
fn subproblem(seed: u64, n: usize, tie_grid: bool) -> (Vec<f64>, Vec<f64>, Vec<f64>, TotalMode) {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0x3A2F);
    let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
    let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
    let gamma: Vec<f64> = (0..n)
        .map(|_| {
            if tie_grid {
                1.0
            } else {
                rng.random_range(0.05..5.0)
            }
        })
        .collect();
    let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
    let mode = match seed % 3 {
        0 => TotalMode::Fixed {
            total: rng.random_range(0.1..40.0),
        },
        1 => TotalMode::Elastic {
            alpha: rng.random_range(0.05..5.0),
            prior: rng.random_range(-5.0..30.0),
            cross: 0.0,
        },
        _ => TotalMode::Elastic {
            alpha: rng.random_range(0.05..5.0),
            prior: rng.random_range(-5.0..30.0),
            cross: rng.random_range(-2.0..2.0),
        },
    };
    (q, gamma, shift, mode)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_hint_matches_the_oracle_and_the_same_bits(
        n in 1usize..60,
        seed in 0u64..4000,
    ) {
        let tie_grid = seed % 4 == 3;
        let (q, gamma, shift, mode) = subproblem(seed, n, tie_grid);
        let (lam_o, x_o) = oracle(&q, &gamma, &shift, mode);
        let bp = |j: usize| -2.0 * gamma[j] * q[j] - shift[j];
        // The cold route (a NaN hint skips the warm path) fixes the bits
        // every other route must reproduce.
        let cold = pass_solve(&q, &gamma, &shift, None, mode, f64::NAN);
        let hints = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            lam_o,
            lam_o + 1e-3,
            lam_o - 1.0,
            1e12,
            -1e12,
            bp(seed as usize % n),
            bp(0),
            f64::MAX,
        ];
        for hint in hints {
            let (lam, total, x, _) = pass_solve(&q, &gamma, &shift, None, mode, hint);
            prop_assert!(
                (lam - lam_o).abs() <= 1e-9 * (1.0 + lam_o.abs()),
                "hint {}: λ {} vs oracle {}", hint, lam, lam_o
            );
            for j in 0..n {
                prop_assert!(
                    (x[j] - x_o[j]).abs() <= 1e-10 * (1.0 + x_o[j].abs()),
                    "hint {}: x[{}] {} vs oracle {}", hint, j, x[j], x_o[j]
                );
            }
            prop_assert_eq!(lam.to_bits(), cold.0.to_bits(), "hint {}: λ bits", hint);
            prop_assert_eq!(total.to_bits(), cold.1.to_bits(), "hint {}: total bits", hint);
            prop_assert!(
                x.iter().zip(&cold.2).all(|(a, b)| a.to_bits() == b.to_bits()),
                "hint {}: x bits", hint
            );
        }
    }
}

#[test]
fn duplicate_breakpoints_and_breakpoint_hints() {
    // Five entries share the breakpoint b = −4 (q = 2, γ = 1, shift = 0);
    // one more sits at b = −1. Totals put the root left of, on, between
    // and right of the tied group.
    let q = [2.0, 2.0, 2.0, 2.0, 2.0, 0.5];
    let gamma = [1.0; 6];
    let shift = [0.0; 6];
    for total in [0.0, 0.5, 1.0, 4.0, 30.0] {
        let mode = TotalMode::Fixed { total };
        let (lam_o, x_o) = oracle(&q, &gamma, &shift, mode);
        for hint in [-4.0, -1.0, -2.5, 0.0, lam_o, -1e6, 1e6, f64::NAN] {
            let (_, _, x, _) = pass_solve(&q, &gamma, &shift, None, mode, hint);
            for j in 0..6 {
                assert!(
                    (x[j] - x_o[j]).abs() <= 1e-10 * (1.0 + x_o[j].abs()),
                    "total {total} hint {hint} x[{j}]: {} vs {}",
                    x[j],
                    x_o[j]
                );
            }
        }
    }
}

#[test]
fn declined_warm_start_falls_back_and_is_counted() {
    let q = [1.0, 2.0, 4.0, 3.0, 0.5, 7.0];
    let gamma = [0.5, 2.0, 1.0, 1.5, 0.2, 3.0];
    let shift = [0.3, -0.7, 0.1, 0.0, 1.0, -2.0];
    let mode = TotalMode::Fixed { total: 6.0 };
    let (lam_o, _) = oracle(&q, &gamma, &shift, mode);

    // Cold: no trial, just the selection search (plus its one canonical
    // trial).
    let (lam_cold, _, _, cold) = pass_solve(&q, &gamma, &shift, None, mode, f64::NAN);
    assert_eq!(cold.subproblems, 1);
    assert!(cold.quickselect_pivots >= 2);

    // Warm on the root's piece: exactly one trial, no selection search.
    let (lam_warm, _, _, warm) = pass_solve(&q, &gamma, &shift, None, mode, lam_o);
    assert_eq!((warm.subproblems, warm.quickselect_pivots), (1, 1));

    // Left of every breakpoint a positive fixed total has no piece root
    // to step to: the warm path declines after one counted trial and the
    // cold search runs on top of it.
    let (lam_fb, _, _, fb) = pass_solve(&q, &gamma, &shift, None, mode, -1e9);
    assert_eq!(fb.subproblems, 1);
    assert_eq!(fb.quickselect_pivots, cold.quickselect_pivots + 1);

    assert_eq!(lam_cold.to_bits(), lam_warm.to_bits());
    assert_eq!(lam_cold.to_bits(), lam_fb.to_bits());
}

#[test]
fn parallel_passes_reproduce_serial_bits_from_any_hint() {
    // Many rows through the sharded parallel pass: each row's slot holds a
    // different kind of hint.
    let (m, n) = (64, 23);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5EED);
    let prior = DenseMatrix::from_vec(
        m,
        n,
        (0..m * n).map(|_| rng.random_range(0.1..9.0)).collect(),
    )
    .unwrap();
    let weights = DenseMatrix::from_vec(
        m,
        n,
        (0..m * n).map(|_| rng.random_range(0.1..3.0)).collect(),
    )
    .unwrap();
    let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..2.0)).collect();
    let totals: Vec<f64> = (0..m).map(|_| rng.random_range(1.0..60.0)).collect();
    let hints = [f64::NAN, 0.0, 1e9, -1e9, 3.5, f64::MAX];
    assert_parallel_bits_match_serial_cold(
        &prior,
        &weights,
        None,
        &shift,
        &|i| TotalMode::Fixed { total: totals[i] },
        &hints,
    );
}

/// Run every row of a sharded pass from `hints[i % len]` under each
/// parallelism mode, and compare the bits with a serial cold pass (every
/// slot NaN).
fn assert_parallel_bits_match_serial_cold(
    prior: &DenseMatrix,
    weights: &DenseMatrix,
    bounds: Option<Bounds<'_, DenseMatrix>>,
    shift: &[f64],
    modes: &(dyn Fn(usize) -> TotalMode + Sync),
    hints: &[f64],
) {
    let (m, n) = (prior.rows(), prior.cols());
    let run = |par: Parallelism, fill: &dyn Fn(usize) -> f64| {
        let inp = PassInputs {
            prior,
            gamma: weights,
            support: None,
            shift,
            side: "row",
            kernel: KernelKind::Quickselect,
            simd: SimdLevel::Scalar,
            f32_phase: false,
            fault: None,
        };
        let mut lambda: Vec<f64> = (0..m).map(fill).collect();
        let mut tot = vec![0.0; m];
        let mut x = DenseMatrix::zeros(m, n).unwrap();
        par.run(|| {
            bounded_pass(
                &inp,
                bounds,
                modes,
                &mut lambda,
                &mut tot,
                &mut x,
                par,
                None,
                None,
                Some(&[0, 5, 17, 40]),
                None,
            )
        })
        .unwrap();
        (lambda, tot, x)
    };
    let base = run(Parallelism::Serial, &|_| f64::NAN);
    for par in [
        Parallelism::Serial,
        Parallelism::Rayon,
        Parallelism::RayonThreads(1),
        Parallelism::RayonThreads(2),
        Parallelism::RayonThreads(4),
    ] {
        let other = run(par, &|i| hints[i % hints.len()]);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base.0), bits(&other.0), "{par:?}: λ");
        assert_eq!(bits(&base.1), bits(&other.1), "{par:?}: totals");
        assert_eq!(
            bits(base.2.as_slice()),
            bits(other.2.as_slice()),
            "{par:?}: x"
        );
    }
}

// ---------------------------------------------------------------------------
// Box-bounded subproblems
// ---------------------------------------------------------------------------

/// A box-bounded subproblem: priors, weights, shifts, bounds, total mode.
struct BoxCase {
    q: Vec<f64>,
    gamma: Vec<f64>,
    shift: Vec<f64>,
    lo: Vec<f64>,
    hi: Vec<f64>,
    mode: TotalMode,
}

impl BoxCase {
    /// Lower and upper breakpoints of entry `j`.
    fn breakpoints(&self, j: usize) -> (f64, f64) {
        let v = |b: f64| 2.0 * self.gamma[j] * (b - self.q[j]) - self.shift[j];
        (v(self.lo[j]), v(self.hi[j]))
    }

    /// The sort-scan oracle's `(λ, active, x)`.
    fn oracle(&self) -> (f64, usize, Vec<f64>) {
        let mut x = vec![0.0; self.q.len()];
        let mut sc = EquilibrationScratch::new();
        let r = exact_equilibration_boxed_with(
            KernelKind::SortScan,
            &self.q,
            &self.gamma,
            &self.shift,
            &self.lo,
            &self.hi,
            self.mode,
            &mut x,
            &mut sc,
        )
        .unwrap();
        (r.lambda, r.active, x)
    }

    /// Solve through a one-row bounded quickselect pass whose output slot
    /// starts at `hint`.
    fn pass_solve(&self, hint: f64) -> (f64, f64, Vec<f64>, KernelCounters) {
        let bounds = Some((&self.lo[..], &self.hi[..]));
        pass_solve(&self.q, &self.gamma, &self.shift, bounds, self.mode, hint)
    }
}

/// A random boxed subproblem; `tie_grid` snaps priors, shifts and bounds
/// to a grid so breakpoints collide. About one entry in six is pinned
/// (`lo == hi`); fixed totals include both all-pinned endpoints.
fn box_subproblem(seed: u64, n: usize, tie_grid: bool) -> BoxCase {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ 0xB0C5);
    let snap = |v: f64| if tie_grid { (v * 2.0).round() / 2.0 } else { v };
    let q: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-5.0..10.0))).collect();
    let gamma: Vec<f64> = (0..n)
        .map(|_| {
            if tie_grid {
                1.0
            } else {
                rng.random_range(0.05..5.0)
            }
        })
        .collect();
    let shift: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-3.0..3.0))).collect();
    let lo: Vec<f64> = (0..n).map(|_| snap(rng.random_range(-1.0..3.0))).collect();
    let hi: Vec<f64> = lo
        .iter()
        .map(|&l| {
            if rng.random_range(0.0..1.0) < 0.16 {
                l
            } else {
                l + snap(rng.random_range(0.1..6.0)).max(0.5)
            }
        })
        .collect();
    let (slo, shi): (f64, f64) = (lo.iter().sum(), hi.iter().sum());
    let mode = match seed % 6 {
        0 => TotalMode::Fixed { total: slo },
        1 => TotalMode::Fixed { total: shi },
        2 | 3 => TotalMode::Fixed {
            total: rng.random_range(slo..=shi),
        },
        4 => TotalMode::Elastic {
            alpha: rng.random_range(0.05..5.0),
            prior: rng.random_range(slo - 5.0..shi + 5.0),
            cross: 0.0,
        },
        _ => TotalMode::Elastic {
            alpha: rng.random_range(0.05..5.0),
            prior: rng.random_range(slo - 5.0..shi + 5.0),
            cross: rng.random_range(-2.0..2.0),
        },
    };
    BoxCase {
        q,
        gamma,
        shift,
        lo,
        hi,
        mode,
    }
}

/// Every hint's answer matches the oracle (x to 1e-10, λ to 1e-9 where it
/// is unique) and the cold route's bits.
fn check_box_hints(case: &BoxCase, hints: &[f64]) -> Result<(), String> {
    let (lam_o, _, x_o) = case.oracle();
    // λ is unique unless every entry is pinned at a bound under a fixed
    // total (then any multiplier of the flat piece certifies x). The
    // oracle's own rounding can leave a pinned entry a few ulps inside its
    // box, so "interior" needs a margin.
    let interior = (0..x_o.len()).any(|j| {
        let (l, h, v) = (case.lo[j], case.hi[j], x_o[j]);
        v - l > 1e-9 * (1.0 + l.abs()) && h - v > 1e-9 * (1.0 + h.abs())
    });
    let unique = interior || matches!(case.mode, TotalMode::Elastic { .. });
    // The cold route (a NaN hint skips the warm path) fixes the bits every
    // other route must reproduce.
    let cold = case.pass_solve(f64::NAN);
    for &hint in hints {
        let (lam, total, x, _) = case.pass_solve(hint);
        if unique && (lam - lam_o).abs() > 1e-9 * (1.0 + lam_o.abs()) {
            return Err(format!("hint {hint}: λ {lam} vs oracle {lam_o}"));
        }
        for j in 0..x.len() {
            if (x[j] - x_o[j]).abs() > 1e-10 * (1.0 + x_o[j].abs()) {
                return Err(format!("hint {hint}: x[{j}] {} vs oracle {}", x[j], x_o[j]));
            }
        }
        if lam.to_bits() != cold.0.to_bits() || total.to_bits() != cold.1.to_bits() {
            return Err(format!(
                "hint {hint}: (λ, total) ({lam}, {total}) vs cold ({}, {})",
                cold.0, cold.1
            ));
        }
        if !x
            .iter()
            .zip(&cold.2)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            return Err(format!("hint {hint}: x bits differ from the cold route"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_boxed_hint_matches_the_oracle_and_the_same_bits(
        n in 1usize..50,
        seed in 0u64..6000,
    ) {
        let case = box_subproblem(seed, n, seed % 4 == 3);
        let (lam_o, _, _) = case.oracle();
        let k = seed as usize % n;
        let (k_lo, k_hi) = case.breakpoints(k);
        let (first_lo, first_hi) = case.breakpoints(0);
        let hints = [
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            0.0,
            lam_o,
            lam_o + 1e-3,
            lam_o - 1.0,
            1e12,
            -1e12,
            k_lo,
            k_hi,
            first_lo,
            first_hi,
        ];
        check_box_hints(&case, &hints)?;
    }
}

#[test]
fn boxed_ties_pinned_entries_and_flat_totals() {
    // Four entries share both breakpoints (q = 2, γ = 1, box [1, 3]: v_lo =
    // −2, v_hi = 2); one is pinned (lo == hi == 1.5); one more has its own
    // box. Totals run from all-at-lo (a flat piece) through the tied
    // group to all-at-hi (flat again), in fixed and elastic modes.
    let q = vec![2.0, 2.0, 2.0, 2.0, 0.0, 1.0];
    let gamma = vec![1.0; 6];
    let shift = vec![0.0; 6];
    let lo = vec![1.0, 1.0, 1.0, 1.0, 1.5, 0.0];
    let hi = vec![3.0, 3.0, 3.0, 3.0, 1.5, 2.0];
    let (slo, shi): (f64, f64) = (lo.iter().sum(), hi.iter().sum());
    let mut modes: Vec<TotalMode> = [slo, slo + 0.5, 8.0, 9.5, 12.0, shi - 0.25, shi]
        .into_iter()
        .map(|total| TotalMode::Fixed { total })
        .collect();
    for prior in [0.0, 9.0, 30.0] {
        modes.push(TotalMode::Elastic {
            alpha: 0.5,
            prior,
            cross: 0.25,
        });
    }
    for mode in modes {
        let case = BoxCase {
            q: q.clone(),
            gamma: gamma.clone(),
            shift: shift.clone(),
            lo: lo.clone(),
            hi: hi.clone(),
            mode,
        };
        let (lam_o, _, _) = case.oracle();
        let hints = [
            -2.0,
            2.0,
            -1.0,
            -3.0,
            0.0,
            1.0,
            lam_o,
            -1e6,
            1e6,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
        ];
        check_box_hints(&case, &hints).unwrap_or_else(|msg| panic!("{mode:?}: {msg}"));
    }
}

#[test]
fn boxed_warm_trials_are_counted_and_flat_pieces_decline() {
    let q = vec![1.0, 2.0, 4.0, 3.0, 0.5, 7.0];
    let case = BoxCase {
        gamma: vec![0.5, 2.0, 1.0, 1.5, 0.2, 3.0],
        shift: vec![0.3, -0.7, 0.1, 0.0, 1.0, -2.0],
        lo: vec![0.5, 0.0, 1.0, 0.0, 0.0, 2.0],
        hi: q.iter().map(|v| v + 1.5).collect(),
        q,
        mode: TotalMode::Fixed { total: 14.0 },
    };
    let (lam_o, active_o, _) = case.oracle();
    assert!(active_o > 0, "the root must sit on an interior piece");

    // Cold: the selection search plus its one canonical trial.
    let (lam_cold, _, _, cold) = case.pass_solve(f64::NAN);
    assert_eq!(cold.subproblems, 1);
    assert!(cold.quickselect_pivots >= 2);

    // Warm on the root's piece: exactly one trial, no selection search.
    let (lam_warm, _, _, warm) = case.pass_solve(lam_o);
    assert_eq!((warm.subproblems, warm.quickselect_pivots), (1, 1));
    assert_eq!(warm.boxed_clamps, cold.boxed_clamps);

    // Right of every breakpoint every entry sits at its upper bound: a
    // flat piece, one counted trial, then the cold search on top.
    let (lam_flat, _, _, flat) = case.pass_solve(1e9);
    assert_eq!(flat.subproblems, 1);
    assert_eq!(flat.quickselect_pivots, cold.quickselect_pivots + 1);

    assert_eq!(lam_cold.to_bits(), lam_warm.to_bits());
    assert_eq!(lam_cold.to_bits(), lam_flat.to_bits());
}

#[test]
fn parallel_boxed_passes_reproduce_serial_bits_from_any_hint() {
    // Many bounded rows through the sharded parallel pass, each row's slot
    // holding a different kind of hint.
    let (m, n) = (64, 23);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xB0B5);
    let mut dense = |f: &mut dyn FnMut(&mut rand_chacha::ChaCha8Rng) -> f64| {
        DenseMatrix::from_vec(m, n, (0..m * n).map(|_| f(&mut rng)).collect()).unwrap()
    };
    let prior = dense(&mut |r| r.random_range(0.1..9.0));
    let weights = dense(&mut |r| r.random_range(0.1..3.0));
    let lo = dense(&mut |r| r.random_range(0.0..2.0));
    let width = dense(&mut |r| {
        if r.random_range(0.0..1.0) < 0.1 {
            0.0
        } else {
            r.random_range(0.5..6.0)
        }
    });
    let hi = DenseMatrix::from_vec(
        m,
        n,
        lo.as_slice()
            .iter()
            .zip(width.as_slice())
            .map(|(l, w)| l + w)
            .collect(),
    )
    .unwrap();
    let shift: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..2.0)).collect();
    let (lo_sums, hi_sums) = (lo.row_sums(), hi.row_sums());
    let modes: Vec<TotalMode> = (0..m)
        .map(|i| match i % 4 {
            3 => TotalMode::Elastic {
                alpha: rng.random_range(0.1..2.0),
                prior: rng.random_range(lo_sums[i]..hi_sums[i]),
                cross: 0.0,
            },
            _ => TotalMode::Fixed {
                total: rng.random_range(lo_sums[i]..=hi_sums[i]),
            },
        })
        .collect();
    let hints = [f64::NAN, 0.0, 1e9, -1e9, 3.5, f64::MAX, f64::NEG_INFINITY];
    assert_parallel_bits_match_serial_cold(
        &prior,
        &weights,
        Some(Bounds { lo: &lo, hi: &hi }),
        &shift,
        &|i| modes[i],
        &hints,
    );
}

#[test]
fn first_bounded_row_pass_costs_exactly_the_cold_kernel_work() {
    // The first row pass of a solve has no multipliers to start from: a
    // boxed warm search there would sit on the flat all-at-hi piece, so
    // the pass must run the cold kernel and count nothing more.
    let (m, n) = (6, 5);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF1257);
    let mut dense = |lo: f64, hi: f64| {
        DenseMatrix::from_vec(m, n, (0..m * n).map(|_| rng.random_range(lo..hi)).collect()).unwrap()
    };
    let (x0, gamma, y) = (dense(0.5, 9.0), dense(0.1, 3.0), dense(1.0, 6.0));
    let scaled =
        |f: f64| DenseMatrix::from_vec(m, n, y.as_slice().iter().map(|v| v * f).collect()).unwrap();
    let p = BoundedProblem::new(
        x0,
        gamma,
        scaled(0.8),
        scaled(1.25),
        y.row_sums(),
        y.col_sums(),
    )
    .unwrap();
    let mut o = SeaOptions::with_epsilon(-1.0);
    o.max_iterations = 1;
    let mut profiler = SpanProfiler::new();
    solve_bounded_supervised(&p, &o, &SupervisorOptions::default(), &mut profiler).unwrap();
    let spans = profiler.spans();
    let row_pass = spans.iter().find(|s| s.kind == SpanKind::RowPass).unwrap();

    // The first row pass sees μ = 0.
    let mut cold = EquilibrationScratch::new();
    let row = |mat: &DenseMatrix, i: usize| mat.row(i).to_vec();
    for i in 0..m {
        let mut x = vec![0.0; n];
        exact_equilibration_boxed_with(
            KernelKind::Quickselect,
            &row(p.x0(), i),
            &row(p.gamma(), i),
            &vec![0.0; n],
            &row(p.lo(), i),
            &row(p.hi(), i),
            TotalMode::Fixed { total: p.s0()[i] },
            &mut x,
            &mut cold,
        )
        .unwrap();
    }
    assert_eq!(row_pass.counters, cold.stats);
}
