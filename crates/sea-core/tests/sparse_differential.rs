//! Dense-vs-sparse differential suite.
//!
//! Every seeded sparse family from `common/generator.rs` is solved twice:
//! once over CSR storage and once over its dense image
//! (`to_dense_problem`, which carries `ZeroPolicy::Structural` so both
//! sides describe the same feasible set). The contract under test is the
//! storage-abstraction invariant from DESIGN.md §12: storage changes the
//! *layout* of a solve, never its *mathematics*. Concretely, the sparse
//! solve must reproduce the dense oracle's per-cell values bitwise on the
//! support (and zero off it), carry the same first-principles KKT
//! certificate, and perform bitwise-identical kernel work (the cumulative
//! [`Event::KernelCounters`] stream) — across Serial and Rayon execution
//! and all three drivers (diagonal, bounded, general).

#[path = "common/generator.rs"]
mod generator;

use sea_core::{
    solve_bounded_supervised, solve_diagonal_observed, solve_diagonal_supervised, solve_general,
    solve_general_supervised, verify_solution, BoundedProblem, DiagonalProblem, Event,
    KernelCounters, KernelKind, NullObserver, Parallelism, SeaOptions, StopReason, Storage,
    SupervisorOptions, VecObserver,
};
use sea_linalg::{CsrMatrix, DenseMatrix};

const SEED: u64 = 0x5EA_D1FF;

/// The cumulative kernel counters a solve reported (at most one such event
/// is emitted, immediately before `SolveEnd`).
fn counters_of(obs: &VecObserver) -> Option<KernelCounters> {
    obs.events.iter().find_map(|e| match e {
        Event::KernelCounters { counters } => Some(*counters),
        _ => None,
    })
}

/// Bitwise image of a float slice (NaN-safe equality for assertions).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn parallel_modes() -> [Parallelism; 2] {
    [Parallelism::Serial, Parallelism::Rayon]
}

/// Sparse solve vs dense oracle: bitwise cell values on the support, exact
/// zeros off it, matching KKT certificates, and bitwise-identical kernel
/// work counts — for every family, both kernels, Serial and Rayon.
#[test]
fn sparse_families_match_dense_oracle() {
    for (name, sp) in generator::sparse_families(SEED) {
        let dp = sp.to_dense_problem().expect("dense image fits");
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            for par in parallel_modes() {
                let tag = format!("{name}/{kernel:?}/{par:?}");
                // 1e-8 keeps the slow-mixing power-law families inside the
                // iteration cap; every parity assertion below is bitwise,
                // so the stopping tolerance does not weaken the test.
                let mut opts = SeaOptions::with_epsilon(1e-8);
                opts.kernel = kernel;
                opts.parallelism = par;

                let mut sparse_obs = VecObserver::new();
                let ssol = solve_diagonal_observed(&sp, &opts, &mut sparse_obs)
                    .unwrap_or_else(|e| panic!("{tag}: sparse solve failed: {e}"));
                let mut dense_obs = VecObserver::new();
                let dsol = solve_diagonal_observed(&dp, &opts, &mut dense_obs)
                    .unwrap_or_else(|e| panic!("{tag}: dense solve failed: {e}"));
                assert!(ssol.stats.converged, "{tag}: sparse did not converge");
                assert!(dsol.stats.converged, "{tag}: dense did not converge");

                // Same trajectory: iteration counts and multipliers agree
                // bitwise, not just to tolerance.
                assert_eq!(
                    ssol.stats.iterations, dsol.stats.iterations,
                    "{tag}: iteration counts diverged"
                );
                assert_eq!(bits(&ssol.lambda), bits(&dsol.lambda), "{tag}: lambda");
                assert_eq!(bits(&ssol.mu), bits(&dsol.mu), "{tag}: mu");

                // Per-cell parity: bitwise on the support, exact zero off it.
                let sx = ssol.x.to_dense().expect("densify sparse solution");
                for i in 0..sp.m() {
                    for j in 0..sp.n() {
                        let (a, b) = (sx.get(i, j), dsol.x.get(i, j));
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{tag}: cell ({i},{j}) sparse={a} dense={b}"
                        );
                    }
                }

                // Same first-principles certificate on both sides (1e-5:
                // the duality-gap check is absolute, and stopping at 1e-8
                // leaves a gap of a few 1e-6 on the larger instances).
                let sparse_cert = verify_solution(&sp, &ssol);
                let dense_cert = verify_solution(&dp, &dsol);
                assert!(sparse_cert.is_optimal(1e-5), "{tag}: {sparse_cert:?}");
                assert!(dense_cert.is_optimal(1e-5), "{tag}: {dense_cert:?}");

                // Bitwise-identical kernel work on the support.
                let sc = counters_of(&sparse_obs)
                    .unwrap_or_else(|| panic!("{tag}: sparse solve emitted no kernel counters"));
                let dc = counters_of(&dense_obs)
                    .unwrap_or_else(|| panic!("{tag}: dense solve emitted no kernel counters"));
                assert_eq!(sc, dc, "{tag}: kernel work counts diverged");
            }
        }
    }
}

/// The supervised diagonal driver reports the same stop reason and
/// certificate over sparse storage as over the dense oracle.
#[test]
fn supervised_driver_matches_dense_oracle() {
    for (name, sp) in generator::sparse_families(SEED ^ 0x5F) {
        let dp = sp.to_dense_problem().expect("dense image fits");
        for par in parallel_modes() {
            let tag = format!("{name}/{par:?}");
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.parallelism = par;
            let sup = SupervisorOptions::default();
            let s = solve_diagonal_supervised(&sp, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: sparse supervised failed: {e}"));
            let d = solve_diagonal_supervised(&dp, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: dense supervised failed: {e}"));
            assert_eq!(s.stop, StopReason::Converged, "{tag}");
            assert_eq!(d.stop, StopReason::Converged, "{tag}");
            assert!(s.certificate.is_optimal(1e-5), "{tag}: {:?}", s.certificate);
            assert!(d.certificate.is_optimal(1e-5), "{tag}: {:?}", d.certificate);
            let sx = s.solution.x.to_dense().expect("densify");
            assert_eq!(
                bits(sx.as_slice()),
                bits(d.solution.x.as_slice()),
                "{tag}: supervised iterates diverged"
            );
        }
    }
}

/// Dense image of a sparse bounded problem: off-support cells get a unit
/// placeholder weight and are pinned to zero by `lo = hi = 0`, so both
/// sides describe the same feasible set and objective.
fn dense_bounded_oracle(p: &BoundedProblem<CsrMatrix>) -> BoundedProblem<DenseMatrix> {
    let x0 = p.x0().to_dense().expect("densify x0");
    let mut gamma = p.gamma().to_dense().expect("densify gamma");
    for v in gamma.values_mut() {
        if *v == 0.0 {
            *v = 1.0;
        }
    }
    let lo = p.lo().to_dense().expect("densify lo");
    let hi = p.hi().to_dense().expect("densify hi");
    BoundedProblem::new(x0, gamma, lo, hi, p.s0().to_vec(), p.d0().to_vec())
        .expect("dense bounded oracle is feasible")
}

/// The bounded driver over sparse storage agrees with its dense image to
/// well below the convergence tolerance. The dense side carries extra
/// pinned zero-width cells, so work counts (and float summation order)
/// legitimately differ — this checks values, not bits.
#[test]
fn sparse_bounded_matches_dense_oracle() {
    for seed in [SEED, SEED ^ 0xB0B] {
        let sp = generator::sparse_bounded(seed, 9, 11, 2);
        let dp = dense_bounded_oracle(&sp);
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let tag = format!("bounded/{seed:#x}/{kernel:?}");
            let opts = SeaOptions {
                kernel,
                ..SeaOptions::with_epsilon(1e-10)
            };
            let sup = SupervisorOptions::default();
            let ssol = solve_bounded_supervised(&sp, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: sparse solve failed: {e}"))
                .solution;
            let dsol = solve_bounded_supervised(&dp, &opts, &sup, &mut NullObserver)
                .unwrap_or_else(|e| panic!("{tag}: dense solve failed: {e}"))
                .solution;
            assert!(ssol.converged && dsol.converged, "{tag}: not converged");
            let sx = ssol.x.to_dense().expect("densify");
            assert!(
                sx.max_abs_diff(&dsol.x) <= 1e-8,
                "{tag}: max diff {}",
                sx.max_abs_diff(&dsol.x)
            );
        }

        // The supervised bounded driver agrees with itself across storage.
        let sup = SupervisorOptions::default();
        let s = solve_bounded_supervised(
            &sp,
            &SeaOptions::with_epsilon(1e-10),
            &sup,
            &mut NullObserver,
        )
        .expect("sparse supervised bounded");
        assert_eq!(s.stop, StopReason::Converged, "bounded/{seed:#x}");
    }
}

/// Sparse bounded solves through the sharded parallel passes replay the
/// serial sparse solve bitwise — iterates, multipliers, and the kernel
/// work counted over the stored support.
#[test]
fn sparse_bounded_is_bitwise_identical_across_parallel_modes() {
    for seed in [SEED, SEED ^ 0xB0B] {
        let sp = generator::sparse_bounded(seed, 12, 10, 2);
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let solve = |parallelism: Parallelism, block_size: Option<usize>| {
                let opts = SeaOptions {
                    kernel,
                    parallelism,
                    block_size,
                    ..SeaOptions::with_epsilon(1e-10)
                };
                let mut obs = VecObserver::new();
                let sol =
                    solve_bounded_supervised(&sp, &opts, &SupervisorOptions::default(), &mut obs)
                        .expect("sparse bounded solve")
                        .solution;
                (sol, counters_of(&obs))
            };
            let (serial, serial_work) = solve(Parallelism::Serial, None);
            assert!(serial.converged, "bounded/{seed:#x}/{kernel:?}");
            for (par, block) in [
                (Parallelism::Rayon, None),
                (Parallelism::Rayon, Some(1)),
                (Parallelism::RayonThreads(2), Some(4)),
            ] {
                let tag = format!("bounded/{seed:#x}/{kernel:?}/{par:?}/{block:?}");
                let (sol, work) = solve(par, block);
                assert_eq!(sol.iterations, serial.iterations, "{tag}: iterations");
                assert_eq!(bits(sol.x.values()), bits(serial.x.values()), "{tag}: x");
                assert_eq!(bits(&sol.lambda), bits(&serial.lambda), "{tag}: lambda");
                assert_eq!(bits(&sol.mu), bits(&serial.mu), "{tag}: mu");
                assert_eq!(work, serial_work, "{tag}: kernel work");
            }
        }
    }
}

/// The general (non-diagonal) driver produces bitwise-identical iterates
/// whether its inner diagonal sub-problems run over dense or CSR storage.
#[test]
fn sparse_general_matches_dense_bitwise() {
    for seed in [SEED, SEED ^ 0x6E6] {
        let Ok(p) = generator::try_general(seed, 5, 4, 2) else {
            panic!("general fixture {seed:#x} must be constructible");
        };
        let opts = sea_core::GeneralSeaOptions::default();
        let dense = solve_general(&p, &opts).expect("dense general");
        let sparse = solve_general_supervised::<CsrMatrix, _>(
            &p,
            &opts,
            &SupervisorOptions::default(),
            &mut NullObserver,
        )
        .expect("sparse general")
        .solution;
        assert_eq!(
            bits(dense.x.as_slice()),
            bits(sparse.x.values()),
            "general/{seed:#x}: iterates diverged"
        );
        assert_eq!(dense.outer_iterations, sparse.outer_iterations);
        assert_eq!(
            dense.objective.to_bits(),
            sparse.objective.to_bits(),
            "general/{seed:#x}: objectives diverged"
        );
    }
}

/// Round-trip: a dense problem lifted to CSR (`from_dense_problem`) and
/// solved sparse reproduces the dense solve bitwise — the companion
/// direction to the sparse-first families above.
#[test]
fn dense_problem_lifted_to_csr_replays_bitwise() {
    let dp = generator::heterogeneous(SEED ^ 0xC5, 7, 9);
    let sp = DiagonalProblem::<CsrMatrix>::from_dense_problem(&dp).expect("lift to CSR");
    let opts = SeaOptions::with_epsilon(1e-10);
    let dsol = sea_core::solve_diagonal(&dp, &opts).expect("dense solve");
    let ssol = sea_core::solve_diagonal(&sp, &opts).expect("sparse solve");
    let sx = ssol.x.to_dense().expect("densify");
    assert_eq!(bits(sx.as_slice()), bits(dsol.x.as_slice()));
    assert_eq!(ssol.stats.iterations, dsol.stats.iterations);
}
