//! Property-based robustness: adversarial-but-valid inputs never panic.
//!
//! Every driver (diagonal, bounded, general) is run under supervision on
//! randomly generated problems that stress the numerically nasty corners —
//! weight spreads of twelve orders of magnitude, totals close to zero or
//! huge, degenerate 1×n / m×1 shapes — across both kernels and both
//! parallel modes. Instances come from the shared seeded generator in
//! `common/generator.rs` (also used by the `sea-batch` suites), so a
//! failing case is reproducible anywhere from its printed seed. The
//! contract under test: the solve returns `Ok` with a finite iterate or a
//! typed [`SeaError`](sea_core::SeaError); a panic in any worker or driver
//! fails the property outright (the harness treats panics as failures).

#[path = "common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised,
    GeneralSeaOptions, KernelKind, NullObserver, Parallelism, SeaOptions, SupervisorOptions,
};
use sea_linalg::DenseMatrix;

fn kernel_of(k: u8) -> KernelKind {
    if k == 0 {
        KernelKind::SortScan
    } else {
        KernelKind::Quickselect
    }
}

/// Bounded-driver options: ε = 1e-8, 60 iterations, kernel `k`.
fn bounded_opts(k: u8) -> SeaOptions {
    SeaOptions {
        max_iterations: 60,
        kernel: kernel_of(k),
        ..SeaOptions::with_epsilon(1e-8)
    }
}

fn par_of(p: u8) -> Parallelism {
    if p == 0 {
        Parallelism::Serial
    } else {
        Parallelism::RayonThreads(2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn diagonal_driver_never_panics(
        seed in 0u64..1 << 48,
        m in 1usize..5,
        n in 1usize..5,
        scale_sel in 0u8..3,
        k in 0u8..2,
        par in 0u8..2,
    ) {
        let scale = generator::scale_of(scale_sel);
        let p = match generator::try_fixed_diagonal(seed, m, n, 12, scale) {
            Ok(p) => p,
            // A typed construction error is an acceptable outcome.
            Err(_) => return Ok(()),
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.max_iterations = 60;
        o.kernel = kernel_of(k);
        o.parallelism = par_of(par);
        let sup = SupervisorOptions::default();
        // Err(_) is a typed SeaError by construction — also acceptable.
        if let Ok(sol) = solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver) {
            prop_assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
            prop_assert!(sol.solution.lambda.iter().all(|v| v.is_finite()));
            prop_assert!(sol.solution.mu.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn bounded_driver_never_panics(
        seed in 0u64..1 << 48,
        m in 1usize..5,
        n in 1usize..5,
        scale_sel in 0u8..3,
        k in 0u8..2,
    ) {
        let scale = generator::scale_of(scale_sel);
        // Bounds cover the grand total, so the instance is usually
        // feasible; when it is not, the typed error is acceptable.
        let p = match generator::try_bounded(seed, m, n, 12, scale) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let sup = SupervisorOptions::default();
        if let Ok(sol) =
            solve_bounded_supervised(&p, &bounded_opts(k), &sup, &mut NullObserver)
        {
            prop_assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn degenerate_shapes_never_panic(
        seed in 0u64..1 << 48,
        len in 1usize..6,
        k in 0u8..2,
        par in 0u8..2,
    ) {
        // 1×n and m×1: one side of the equilibration degenerates to
        // singleton subproblems carrying the whole grand total.
        for p in [
            generator::degenerate_row(seed, len),
            generator::degenerate_col(seed, len),
        ]
        .into_iter()
        .flatten()
        {
            let mut o = SeaOptions::with_epsilon(1e-8);
            o.max_iterations = 60;
            o.kernel = kernel_of(k);
            o.parallelism = par_of(par);
            let sup = SupervisorOptions::default();
            if let Ok(sol) = solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver) {
                prop_assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn drifting_prior_sequences_never_panic(
        seed in 0u64..1 << 48,
        k in 0u8..2,
    ) {
        // The batch warm-start workload: every epoch of a drifting family
        // must stay constructible and solvable.
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.max_iterations = 500;
        o.kernel = kernel_of(k);
        let sup = SupervisorOptions::default();
        for p in generator::drifting_priors(seed, 3, 4, 4, 0.05) {
            let sol = solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver);
            prop_assert!(sol.is_ok(), "drifting epoch failed: {:?}", sol.err());
        }
    }
}

proptest! {
    // The general driver nests inner diagonal solves inside an outer
    // projection loop, so each case is costlier: fewer cases, smaller dims.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_driver_never_panics(
        seed in 0u64..1 << 48,
        m in 1usize..4,
        n in 1usize..4,
        k in 0u8..2,
        par in 0u8..2,
    ) {
        let p = match generator::try_general(seed, m, n, 6) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mut o = GeneralSeaOptions::with_epsilon(1e-6);
        o.max_outer = 5;
        o.inner.max_iterations = 200;
        o.inner.kernel = kernel_of(k);
        o.inner.parallelism = par_of(par);
        let sup = SupervisorOptions::default();
        if let Ok(sol) = solve_general_supervised::<DenseMatrix, _>(&p, &o, &sup, &mut NullObserver) {
            prop_assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}

/// The near-zero-total corner, pinned deterministically (not only reachable
/// through the property sampler): totals of O(1e-12) with 1e±6 weights.
#[test]
fn near_zero_totals_solve_or_fail_typed() {
    for seed in [1u64, 2, 3, 4, 5] {
        let Ok(p) = generator::near_zero_totals(seed, 3, 3) else {
            continue;
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.max_iterations = 200;
        let sup = SupervisorOptions::default();
        if let Ok(sol) = solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver) {
            assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
        }
    }
}

/// The wide-weight corner pinned deterministically: 1e±12 spreads at O(1)
/// totals must never produce NaN/Inf iterates.
#[test]
fn wide_weight_spreads_stay_finite() {
    for seed in [10u64, 11, 12, 13, 14] {
        let Ok(p) = generator::wide_weights(seed, 4, 4) else {
            continue;
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.max_iterations = 200;
        let sup = SupervisorOptions::default();
        if let Ok(sol) = solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver) {
            assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
            assert!(sol.solution.lambda.iter().all(|v| v.is_finite()));
            assert!(sol.solution.mu.iter().all(|v| v.is_finite()));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sparse (CSR) instances from every seeded family solve under
    /// supervision without panicking, on both kernels and both parallel
    /// modes; solutions are finite on the stored support.
    #[test]
    fn sparse_driver_never_panics(
        seed in 0u64..1 << 48,
        fam in 0u8..3,
        k in 0u8..2,
        par in 0u8..2,
    ) {
        use sea_core::Storage;
        let p = match fam {
            0 => generator::sparse_banded(seed, 6, 7, 2),
            1 => generator::sparse_block_diagonal(seed, 6, 6, 2),
            _ => generator::sparse_power_law(seed, 6, 6, 0.3),
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.max_iterations = 60;
        o.kernel = kernel_of(k);
        o.parallelism = par_of(par);
        let sup = SupervisorOptions::default();
        if let Ok(sol) = solve_diagonal_supervised(&p, &o, &sup, &mut NullObserver) {
            prop_assert!(sol.solution.x.values().iter().all(|v| v.is_finite()));
            prop_assert!(sol.solution.lambda.iter().all(|v| v.is_finite()));
            prop_assert!(sol.solution.mu.iter().all(|v| v.is_finite()));
        }
    }

    /// A sparse row or column with zero support never panics: it either
    /// fails construction with a typed error, or — when its total demands
    /// mass it cannot carry — the solve reports
    /// [`SeaError::InfeasibleSubproblem`](sea_core::SeaError) for exactly
    /// that row or column.
    #[test]
    fn zero_support_rows_and_columns_return_typed_errors(
        seed in 0u64..1 << 48,
        empty_row in 0usize..4,
        k in 0u8..2,
    ) {
        use sea_core::{DiagonalProblem, SeaError, TotalSpec, ZeroPolicy};
        use sea_linalg::CsrMatrix;

        use rand::Rng;
        let mut r = generator::rng(seed);
        let (m, n) = (4usize, 5usize);
        let mut trips = Vec::new();
        for i in 0..m {
            if i == empty_row {
                continue;
            }
            for j in 0..n {
                trips.push((i, j, r.random_range(0.5..10.0)));
            }
        }
        let x0 = CsrMatrix::from_triplets(m, n, &trips).expect("valid triplets");
        let gamma = x0.with_values(vec![1.0; trips.len()]).expect("same pattern");
        let mut s0: Vec<f64> = vec![0.0; m];
        let mut d0: Vec<f64> = vec![0.0; n];
        {
            use sea_core::Storage;
            x0.row_sums_into(&mut s0);
            x0.col_sums_into(&mut d0);
        }
        // Demand mass from the empty row; rebalance a live column so the
        // grand totals still agree and construction passes.
        s0[empty_row] = 1.0;
        d0[0] += 1.0;
        let p = match DiagonalProblem::with_zero_policy(
            x0,
            gamma,
            TotalSpec::Fixed { s0, d0 },
            ZeroPolicy::Structural,
        ) {
            Ok(p) => p,
            Err(_) => return Ok(()), // typed construction error: acceptable
        };
        let mut o = SeaOptions::with_epsilon(1e-8);
        o.max_iterations = 60;
        o.kernel = kernel_of(k);
        match sea_core::solve_diagonal(&p, &o) {
            Err(SeaError::InfeasibleSubproblem { side, index }) => {
                prop_assert_eq!(side, "row");
                prop_assert_eq!(index, empty_row);
            }
            Err(_) => {} // any other typed error is still a non-panic
            Ok(sol) => {
                // If the solver returns at the cap it must not claim the
                // impossible balance converged.
                prop_assert!(!sol.stats.converged);
            }
        }
    }

    /// A fully-pinned sparse row (`lo = hi` on every stored entry) never
    /// panics: consistent totals solve, inconsistent totals are rejected
    /// with a typed error at validation.
    #[test]
    fn fully_pinned_sparse_rows_never_panic(
        seed in 0u64..1 << 48,
        pinned_row in 0usize..5,
        consistent_sel in 0u8..2,
        k in 0u8..2,
    ) {
        use sea_core::{BoundedProblem, Storage};

        let consistent = consistent_sel == 1;
        let sp = generator::sparse_bounded(seed, 5, 6, 2);
        let x0 = sp.x0().clone();
        let mut lo_vals = sp.lo().values().to_vec();
        let mut hi_vals = sp.hi().values().to_vec();
        let range = x0.row_range(pinned_row);
        let (start, end) = (range.start, range.end);
        for t in start..end {
            lo_vals[t] = x0.values()[t];
            hi_vals[t] = x0.values()[t];
        }
        let lo = x0.with_values(lo_vals).expect("same pattern");
        let hi = x0.with_values(hi_vals).expect("same pattern");
        let mut s0 = sp.s0().to_vec();
        let mut d0 = sp.d0().to_vec();
        if consistent {
            // The pinned row's total must equal the pinned mass exactly;
            // push the difference onto a column so grand totals agree.
            let pinned: f64 = x0.values()[start..end].iter().sum();
            let delta = pinned - s0[pinned_row];
            s0[pinned_row] = pinned;
            d0[0] += delta;
        }
        match BoundedProblem::new(x0, sp.gamma().clone(), lo, hi, s0, d0) {
            Err(_) => {} // typed validation error: acceptable
            Ok(p) => {
                let sup = SupervisorOptions::default();
                if let Ok(sol) =
                    solve_bounded_supervised(&p, &bounded_opts(k), &sup, &mut NullObserver)
                {
                    prop_assert!(sol.solution.x.values().iter().all(|v| v.is_finite()));
                }
            }
        }
    }
}
