//! SIMD-vs-scalar differential suite.
//!
//! The vectorized kernels in `sea_core::kernel_simd` promise **bitwise**
//! parity with the untouched scalar oracle in `sea_core::knapsack`: same
//! iterates, same multipliers, same kernel work counters. This suite
//! enforces that promise at two levels:
//!
//! 1. **Kernel level** — property-generated single subproblems (plain and
//!    boxed, fixed and elastic totals, both kernels) solved by the scalar
//!    and SIMD paths must agree bitwise on λ, the realized total, every
//!    entry of `x`, the active count, and the cumulative
//!    [`KernelCounters`].
//! 2. **Solver level** — whole solves over the seeded generator families
//!    (dense and CSR, Serial and Rayon, both kernels, several shard sizes)
//!    with `SeaOptions::simd` off vs on must agree bitwise on iterates,
//!    multipliers, iteration counts, and counters.
//!
//! The SIMD levels exercised are chosen by the `SEA_SIMD` environment
//! variable (`off` / `auto` / `force`), so CI can run the same suite under
//! all three modes; `force` skips gracefully on CPUs without AVX2. Unset,
//! the suite tests every level the CPU supports.
//!
//! Remainder/edge lanes get dedicated coverage: subproblem lengths 0, 1,
//! `LANES-1`, `LANES`, `LANES+1`, and boxed rows with every entry pinned at
//! its bounds — the historical home of λ-clamping bugs.

#[path = "common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_core::kernel_simd::{exact_equilibration_boxed_simd, exact_equilibration_simd, SimdMode};
use sea_core::knapsack::{exact_equilibration_boxed_with, exact_equilibration_with};
use sea_core::{
    solve_diagonal_observed, EquilibrationScratch, Event, KernelCounters, KernelKind, Parallelism,
    SeaOptions, SimdLevel, Storage, TotalMode, VecObserver,
};
use sea_linalg::simd::{avx2_available, LANES};

const SEED: u64 = 0x51D_D1FF;

/// SIMD levels to exercise, honouring the `SEA_SIMD` CI matrix variable.
/// Returns an empty list (test skipped) for `force` on a CPU without AVX2.
fn levels_under_test() -> Vec<SimdLevel> {
    match std::env::var("SEA_SIMD").ok().as_deref() {
        Some("off") => vec![SimdLevel::Scalar],
        Some("auto") => vec![SimdMode::Auto.resolve().expect("auto always resolves")],
        Some("force") => {
            if avx2_available() {
                vec![SimdLevel::Avx2]
            } else {
                eprintln!("skipping forced-SIMD differential run: no AVX2 on this CPU");
                vec![]
            }
        }
        _ => {
            let mut out = vec![SimdLevel::Lanes];
            if avx2_available() {
                out.push(SimdLevel::Avx2);
            }
            out
        }
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn counters_of(obs: &VecObserver) -> Option<KernelCounters> {
    obs.events.iter().find_map(|e| match e {
        Event::KernelCounters { counters } => Some(*counters),
        _ => None,
    })
}

fn kernels() -> [KernelKind; 2] {
    [KernelKind::SortScan, KernelKind::Quickselect]
}

/// Assert scalar-vs-SIMD bitwise parity on one plain subproblem.
fn check_plain(
    tag: &str,
    level: SimdLevel,
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    mode: TotalMode,
) {
    let n = q.len();
    let mut x_ref = vec![0.0; n];
    let mut sc_ref = EquilibrationScratch::new();
    let r_ref = exact_equilibration_with(kernel, q, gamma, shift, mode, &mut x_ref, &mut sc_ref);

    let mut x_simd = vec![0.0; n];
    let mut sc_simd = EquilibrationScratch::new();
    let r_simd = exact_equilibration_simd(
        level,
        kernel,
        q,
        gamma,
        shift,
        mode,
        &mut x_simd,
        &mut sc_simd,
    );

    match (r_ref, r_simd) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{tag}: lambda");
            assert_eq!(a.total.to_bits(), b.total.to_bits(), "{tag}: total");
            assert_eq!(a.active, b.active, "{tag}: active");
            assert_eq!(bits(&x_ref), bits(&x_simd), "{tag}: x");
            assert_eq!(sc_ref.stats, sc_simd.stats, "{tag}: counters");
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a}"), format!("{b}"), "{tag}: error mismatch");
        }
        (a, b) => panic!("{tag}: outcome mismatch: scalar={a:?} simd={b:?}"),
    }
}

/// Assert scalar-vs-SIMD bitwise parity on one boxed subproblem.
#[allow(clippy::too_many_arguments)]
fn check_boxed(
    tag: &str,
    level: SimdLevel,
    kernel: KernelKind,
    q: &[f64],
    gamma: &[f64],
    shift: &[f64],
    lo: &[f64],
    hi: &[f64],
    mode: TotalMode,
) {
    let n = q.len();
    let mut x_ref = vec![0.0; n];
    let mut sc_ref = EquilibrationScratch::new();
    let r_ref = exact_equilibration_boxed_with(
        kernel,
        q,
        gamma,
        shift,
        lo,
        hi,
        mode,
        &mut x_ref,
        &mut sc_ref,
    );

    let mut x_simd = vec![0.0; n];
    let mut sc_simd = EquilibrationScratch::new();
    let r_simd = exact_equilibration_boxed_simd(
        level,
        kernel,
        q,
        gamma,
        shift,
        lo,
        hi,
        mode,
        &mut x_simd,
        &mut sc_simd,
    );

    match (r_ref, r_simd) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits(), "{tag}: lambda");
            assert_eq!(a.total.to_bits(), b.total.to_bits(), "{tag}: total");
            assert_eq!(a.active, b.active, "{tag}: active");
            assert_eq!(bits(&x_ref), bits(&x_simd), "{tag}: x");
            assert_eq!(sc_ref.stats, sc_simd.stats, "{tag}: counters");
        }
        (Err(a), Err(b)) => {
            assert_eq!(format!("{a}"), format!("{b}"), "{tag}: error mismatch");
        }
        (a, b) => panic!("{tag}: outcome mismatch: scalar={a:?} simd={b:?}"),
    }
}

/// Deterministic pseudo-random inputs for the edge-lane sweeps.
fn det_inputs(n: usize, salt: u64) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let q: Vec<f64> = (0..n)
        .map(|j| (((j as u64 * 37 + salt * 11) % 101) as f64) / 7.0 - 4.0)
        .collect();
    let gamma: Vec<f64> = (0..n)
        .map(|j| 0.02 + (((j as u64 * 13 + salt * 5) % 89) as f64) / 9.0)
        .collect();
    let shift: Vec<f64> = (0..n)
        .map(|j| (((j as u64 * 7 + salt * 3) % 61) as f64) / 8.0 - 2.0)
        .collect();
    (q, gamma, shift)
}

/// Subproblem lengths 0, 1, LANES−1, LANES, LANES+1, and longer tails: the
/// remainder-loop edges of every SIMD fill.
#[test]
fn edge_lane_lengths_match_scalar_bitwise() {
    for level in levels_under_test() {
        for kernel in kernels() {
            for n in [0usize, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3, 129] {
                for salt in 0..4u64 {
                    let (q, g, sh) = det_inputs(n, salt);
                    let total: f64 = q.iter().map(|v| v.abs()).sum::<f64>() * 0.8;
                    let tag = format!("{level:?}/{kernel:?}/n={n}/salt={salt}");
                    check_plain(&tag, level, kernel, &q, &g, &sh, TotalMode::Fixed { total });
                    check_plain(
                        &tag,
                        level,
                        kernel,
                        &q,
                        &g,
                        &sh,
                        TotalMode::Elastic {
                            alpha: 0.5 + salt as f64,
                            prior: total,
                            cross: salt as f64 - 1.0,
                        },
                    );
                    let lo: Vec<f64> = q.iter().map(|v| v - 0.5).collect();
                    let hi: Vec<f64> = q.iter().map(|v| v + 1.5).collect();
                    let btotal = q.iter().sum::<f64>();
                    check_boxed(
                        &tag,
                        level,
                        kernel,
                        &q,
                        &g,
                        &sh,
                        &lo,
                        &hi,
                        TotalMode::Fixed { total: btotal },
                    );
                }
            }
        }
    }
}

/// Boxed rows with *every* entry pinned at its bounds (lo == hi), including
/// the flat-segment λ resolution — the PR 1 λ-clamping bug habitat.
#[test]
fn all_entries_pinned_boxed_rows_match_scalar_bitwise() {
    for level in levels_under_test() {
        for kernel in kernels() {
            for n in [1usize, LANES - 1, LANES, LANES + 1, 33] {
                let (q, g, sh) = det_inputs(n, 9);
                // Degenerate box: lo == hi pins every entry; the only
                // feasible total is Σ lo and the segment is flat.
                let lo: Vec<f64> = q.iter().map(|v| v.abs() + 0.25).collect();
                let hi = lo.clone();
                let total: f64 = lo.iter().sum();
                let tag = format!("pinned/{level:?}/{kernel:?}/n={n}");
                check_boxed(
                    &tag,
                    level,
                    kernel,
                    &q,
                    &g,
                    &sh,
                    &lo,
                    &hi,
                    TotalMode::Fixed { total },
                );
                // Saturating totals: everything pinned at hi (or lo) by an
                // extreme fixed total.
                let lo2: Vec<f64> = q.iter().map(|v| v - 0.25).collect();
                let hi2: Vec<f64> = q.iter().map(|v| v + 0.25).collect();
                check_boxed(
                    &tag,
                    level,
                    kernel,
                    &q,
                    &g,
                    &sh,
                    &lo2,
                    &hi2,
                    TotalMode::Fixed {
                        total: hi2.iter().sum(),
                    },
                );
                check_boxed(
                    &tag,
                    level,
                    kernel,
                    &q,
                    &g,
                    &sh,
                    &lo2,
                    &hi2,
                    TotalMode::Fixed {
                        total: lo2.iter().sum(),
                    },
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random plain subproblems: scalar and SIMD paths agree bitwise.
    #[test]
    fn plain_kernels_match_scalar_bitwise(
        q in proptest::collection::vec(-10.0f64..10.0, 0..40),
        gseed in 0u64..1 << 32,
        fixed in 0u8..2,
        total in -5.0f64..50.0,
    ) {
        let n = q.len();
        let fixed = fixed == 0;
        let gamma: Vec<f64> = (0..n)
            .map(|j| 0.01 + (((j as u64 * 2654435761 + gseed) % 997) as f64) / 100.0)
            .collect();
        let shift: Vec<f64> = (0..n)
            .map(|j| (((j as u64 * 40503 + gseed) % 613) as f64) / 61.0 - 5.0)
            .collect();
        let mode = if fixed {
            TotalMode::Fixed { total }
        } else {
            TotalMode::Elastic { alpha: 0.3, prior: total.abs(), cross: 0.1 }
        };
        for level in levels_under_test() {
            for kernel in kernels() {
                check_plain(&format!("{level:?}/{kernel:?}"), level, kernel, &q, &gamma, &shift, mode);
            }
        }
    }

    /// Random boxed subproblems: scalar and SIMD paths agree bitwise.
    #[test]
    fn boxed_kernels_match_scalar_bitwise(
        q in proptest::collection::vec(-8.0f64..8.0, 0..32),
        gseed in 0u64..1 << 32,
        width in 0.0f64..4.0,
        frac in 0.0f64..1.0,
    ) {
        let n = q.len();
        let gamma: Vec<f64> = (0..n)
            .map(|j| 0.02 + (((j as u64 * 1103515245 + gseed) % 769) as f64) / 80.0)
            .collect();
        let shift: Vec<f64> = (0..n)
            .map(|j| (((j as u64 * 69069 + gseed) % 521) as f64) / 52.0 - 5.0)
            .collect();
        let lo: Vec<f64> = q.iter().map(|v| v - 0.5).collect();
        let hi: Vec<f64> = lo.iter().map(|&l| l + width).collect();
        let sum_lo: f64 = lo.iter().sum();
        let sum_hi: f64 = hi.iter().sum();
        // A total inside [Σlo, Σhi] (feasible) — infeasible totals are
        // covered by the deterministic error-parity cases.
        let total = sum_lo + frac * (sum_hi - sum_lo);
        for level in levels_under_test() {
            for kernel in kernels() {
                let tag = format!("{level:?}/{kernel:?}");
                check_boxed(&tag, level, kernel, &q, &gamma, &shift, &lo, &hi,
                    TotalMode::Fixed { total });
                check_boxed(&tag, level, kernel, &q, &gamma, &shift, &lo, &hi,
                    TotalMode::Elastic { alpha: 0.4, prior: total, cross: -0.2 });
            }
        }
    }
}

/// Error parity: shape mismatches, infeasible totals, and non-positive
/// weights must fail identically through both paths.
#[test]
fn error_cases_match_scalar() {
    for level in levels_under_test() {
        for kernel in kernels() {
            let tag = format!("err/{level:?}/{kernel:?}");
            // Infeasible empty subproblem.
            check_plain(
                &tag,
                level,
                kernel,
                &[],
                &[],
                &[],
                TotalMode::Fixed { total: 1.0 },
            );
            // Non-positive elastic alpha.
            check_plain(
                &tag,
                level,
                kernel,
                &[1.0, 2.0, 3.0, 4.0, 5.0],
                &[1.0; 5],
                &[0.0; 5],
                TotalMode::Elastic {
                    alpha: 0.0,
                    prior: 1.0,
                    cross: 0.0,
                },
            );
            // Inconsistent bounds.
            check_boxed(
                &tag,
                level,
                kernel,
                &[1.0, 2.0, 3.0, 4.0, 5.0],
                &[1.0; 5],
                &[0.0; 5],
                &[2.0; 5],
                &[1.0; 5],
                TotalMode::Fixed { total: 5.0 },
            );
            // Infeasible boxed total.
            check_boxed(
                &tag,
                level,
                kernel,
                &[1.0, 2.0, 3.0, 4.0, 5.0],
                &[1.0; 5],
                &[0.0; 5],
                &[0.0; 5],
                &[1.0; 5],
                TotalMode::Fixed { total: 50.0 },
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Solver level: whole solves, SIMD on vs off, bitwise.
// ---------------------------------------------------------------------------

/// SIMD modes to pit against [`SimdMode::Off`] in whole-solve runs,
/// honouring the `SEA_SIMD` CI matrix variable (the solver API takes a
/// *mode*, resolved once per solve, rather than a raw level).
fn modes_under_test() -> Vec<SimdMode> {
    match std::env::var("SEA_SIMD").ok().as_deref() {
        Some("off") => vec![SimdMode::Off],
        Some("auto") => vec![SimdMode::Auto],
        Some("force") => {
            if avx2_available() {
                vec![SimdMode::Force]
            } else {
                eprintln!("skipping forced-SIMD solver differential: no AVX2 on this CPU");
                vec![]
            }
        }
        _ => {
            let mut out = vec![SimdMode::Auto];
            if avx2_available() {
                out.push(SimdMode::Force);
            }
            out
        }
    }
}

fn opts_for(
    kernel: KernelKind,
    par: Parallelism,
    block: Option<usize>,
    simd: SimdMode,
) -> SeaOptions {
    let mut o = SeaOptions::with_epsilon(1e-7);
    o.kernel = kernel;
    o.parallelism = par;
    o.block_size = block;
    o.simd = simd;
    o.max_iterations = 20_000;
    o
}

/// Solve and harvest (solution, cumulative kernel counters).
fn solve_with<S: sea_core::Storage>(
    p: &sea_core::DiagonalProblem<S>,
    opts: &SeaOptions,
) -> (sea_core::solver::Solution<S>, Option<KernelCounters>) {
    let mut obs = VecObserver::new();
    let sol = solve_diagonal_observed(p, opts, &mut obs).expect("differential solve");
    let counters = counters_of(&obs);
    (sol, counters)
}

/// Assert two solves agree bitwise on everything observable.
fn assert_solutions_bitwise<S: sea_core::Storage>(
    tag: &str,
    a: &(sea_core::solver::Solution<S>, Option<KernelCounters>),
    b: &(sea_core::solver::Solution<S>, Option<KernelCounters>),
) {
    assert_eq!(bits(a.0.x.values()), bits(b.0.x.values()), "{tag}: x");
    assert_eq!(bits(&a.0.lambda), bits(&b.0.lambda), "{tag}: lambda");
    assert_eq!(bits(&a.0.mu), bits(&b.0.mu), "{tag}: mu");
    assert_eq!(bits(&a.0.s), bits(&b.0.s), "{tag}: s");
    assert_eq!(bits(&a.0.d), bits(&b.0.d), "{tag}: d");
    assert_eq!(
        a.0.stats.iterations, b.0.stats.iterations,
        "{tag}: iterations"
    );
    assert_eq!(a.0.stats.converged, b.0.stats.converged, "{tag}: converged");
    assert_eq!(a.1, b.1, "{tag}: kernel counters");
}

/// Dense solves: SIMD on vs off must be bitwise-identical across kernels,
/// parallelism, and shard sizes.
#[test]
fn dense_solves_match_scalar_bitwise() {
    let problems = [
        ("heterogeneous", generator::heterogeneous(SEED, 13, 9)),
        (
            "spread",
            generator::try_fixed_diagonal(SEED ^ 1, 9, 17, 6, 1.0).expect("constructible"),
        ),
        (
            "degenerate_row",
            generator::degenerate_row(SEED ^ 2, 11).expect("constructible"),
        ),
    ];
    for (name, p) in &problems {
        for kernel in kernels() {
            for (pname, par) in [
                ("serial", Parallelism::Serial),
                ("rayon3", Parallelism::RayonThreads(3)),
            ] {
                for block in [None, Some(3)] {
                    let reference = solve_with(p, &opts_for(kernel, par, block, SimdMode::Off));
                    for mode in modes_under_test() {
                        let simd = solve_with(p, &opts_for(kernel, par, block, mode));
                        let tag = format!("{name}/{kernel:?}/{pname}/block={block:?}/{mode:?}");
                        assert_solutions_bitwise(&tag, &reference, &simd);
                    }
                }
            }
        }
    }
}

/// CSR solves drive the gather path; same bitwise contract.
#[test]
fn sparse_solves_match_scalar_bitwise() {
    for (name, p) in generator::sparse_families(SEED ^ 3) {
        for kernel in kernels() {
            for (pname, par) in [
                ("serial", Parallelism::Serial),
                ("rayon2", Parallelism::RayonThreads(2)),
            ] {
                let reference = solve_with(&p, &opts_for(kernel, par, None, SimdMode::Off));
                for mode in modes_under_test() {
                    let simd = solve_with(&p, &opts_for(kernel, par, None, mode));
                    let tag = format!("sparse/{name}/{kernel:?}/{pname}/{mode:?}");
                    assert_solutions_bitwise(&tag, &reference, &simd);
                }
            }
        }
    }
}

/// Box-bounded solves through the configured driver: SIMD on vs off.
#[test]
fn bounded_solves_match_scalar_bitwise() {
    use sea_core::{solve_bounded_supervised, NullObserver, Precision, SupervisorOptions};
    let solve = |p: &sea_core::BoundedProblem, kernel, simd| {
        let opts = SeaOptions {
            max_iterations: 20_000,
            kernel,
            simd,
            precision: Precision::F64,
            ..SeaOptions::with_epsilon(1e-7)
        };
        solve_bounded_supervised(p, &opts, &SupervisorOptions::default(), &mut NullObserver)
            .map(|s| s.solution)
    };
    let problems = [
        generator::try_bounded(SEED ^ 4, 8, 12, 4, 1.0).expect("constructible"),
        generator::try_bounded(SEED ^ 5, 15, 6, 6, 1e6).expect("constructible"),
    ];
    for (i, p) in problems.iter().enumerate() {
        for kernel in kernels() {
            let reference = solve(p, kernel, SimdMode::Off).expect("bounded reference solve");
            for mode in modes_under_test() {
                let simd = solve(p, kernel, mode).expect("bounded simd solve");
                let tag = format!("bounded{i}/{kernel:?}/{mode:?}");
                assert_eq!(
                    bits(simd.x.values()),
                    bits(reference.x.values()),
                    "{tag}: x"
                );
                assert_eq!(bits(&simd.lambda), bits(&reference.lambda), "{tag}: lambda");
                assert_eq!(bits(&simd.mu), bits(&reference.mu), "{tag}: mu");
                assert_eq!(simd.iterations, reference.iterations, "{tag}: iterations");
                assert_eq!(simd.converged, reference.converged, "{tag}: converged");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property-generated whole solves: any seeded instance that solves
    /// under the scalar oracle solves bitwise-identically under SIMD.
    #[test]
    fn seeded_solves_match_scalar_bitwise(
        seed in 0u64..1 << 48,
        m in 2usize..12,
        n in 2usize..12,
        decades in 0i32..5,
        kernel_sel in 0u8..2,
        par_sel in 0u8..2,
    ) {
        let kernel = kernels()[kernel_sel as usize];
        let par = if par_sel == 0 { Parallelism::Serial } else { Parallelism::RayonThreads(2) };
        if let Ok(p) = generator::try_fixed_diagonal(seed, m, n, decades, 1.0) {
            let reference = solve_with(&p, &opts_for(kernel, par, None, SimdMode::Off));
            for mode in modes_under_test() {
                let simd = solve_with(&p, &opts_for(kernel, par, None, mode));
                assert_solutions_bitwise(&format!("seed={seed}/{kernel:?}/{mode:?}"), &reference, &simd);
            }
        }
    }
}
