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

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use sea_core::equilibrate::{equilibration_pass, PassInputs};
use sea_core::{
    exact_equilibration_with, EquilibrationScratch, KernelCounters, KernelKind, Parallelism,
    PassCounters, SimdLevel, TotalMode,
};
use sea_linalg::DenseMatrix;

/// One subproblem, solved through a one-row quickselect pass whose output
/// slot starts at `hint`. Returns `(λ, total, x, counters)`.
fn pass_solve(
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
    hint: f64,
    par: Parallelism,
) -> (f64, f64, Vec<f64>, KernelCounters) {
    let n = q.len();
    let prior = DenseMatrix::from_vec(1, n, q.to_vec()).unwrap();
    let weights = DenseMatrix::from_vec(1, n, gamma.to_vec()).unwrap();
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
    equilibration_pass(
        &inp,
        &|_| mode,
        &mut lambda,
        &mut total,
        &mut x,
        par,
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
        let cold = pass_solve(&q, &gamma, &shift, mode, f64::NAN, Parallelism::Serial);
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
            let (lam, total, x, _) = pass_solve(&q, &gamma, &shift, mode, hint, Parallelism::Serial);
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
            let (_, _, x, _) = pass_solve(&q, &gamma, &shift, mode, hint, Parallelism::Serial);
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
    let (lam_cold, _, _, cold) =
        pass_solve(&q, &gamma, &shift, mode, f64::NAN, Parallelism::Serial);
    assert_eq!(cold.subproblems, 1);
    assert!(cold.quickselect_pivots >= 2);

    // Warm on the root's piece: exactly one trial, no selection search.
    let (lam_warm, _, _, warm) = pass_solve(&q, &gamma, &shift, mode, lam_o, Parallelism::Serial);
    assert_eq!((warm.subproblems, warm.quickselect_pivots), (1, 1));

    // Left of every breakpoint a positive fixed total has no piece root
    // to step to: the warm path declines after one counted trial and the
    // cold search runs on top of it.
    let (lam_fb, _, _, fb) = pass_solve(&q, &gamma, &shift, mode, -1e9, Parallelism::Serial);
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
    let run = |par: Parallelism, fill: &dyn Fn(usize) -> f64| {
        let inp = PassInputs {
            prior: &prior,
            gamma: &weights,
            support: None,
            shift: &shift,
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
            equilibration_pass(
                &inp,
                &|i| TotalMode::Fixed { total: totals[i] },
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
