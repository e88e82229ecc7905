//! Bitwise determinism across execution modes.
//!
//! The SEA row/column subproblems are independent, and every per-subproblem
//! code path (including the quickselect pivot choice) is sequential and
//! input-deterministic, so Serial, global-pool Rayon, and dedicated pools of
//! any width must produce *identical* bits — same solutions, same iteration
//! counts — on all three problem classes.

mod common;
#[path = "common/generator.rs"]
mod generator;

use common::{all_fixtures, solve_with};
use sea_core::{
    solve_diagonal_supervised, solve_general_supervised, GeneralSeaOptions, KernelKind,
    NullObserver, Parallelism, SeaOptions, SupervisorOptions,
};
use sea_linalg::DenseMatrix;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn all_execution_modes_are_bitwise_identical() {
    let modes = [
        Parallelism::Rayon,
        Parallelism::RayonThreads(1),
        Parallelism::RayonThreads(2),
        Parallelism::RayonThreads(4),
    ];
    for (tag, problem) in all_fixtures() {
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let reference = solve_with(&problem, kernel, Parallelism::Serial);
            for mode in modes {
                let sol = solve_with(&problem, kernel, mode);
                assert_eq!(
                    sol.stats.iterations, reference.stats.iterations,
                    "{tag}/{kernel}/{mode:?}: iteration count diverged"
                );
                assert_eq!(
                    bits(sol.x.as_slice()),
                    bits(reference.x.as_slice()),
                    "{tag}/{kernel}/{mode:?}: solution bits diverged"
                );
                assert_eq!(
                    bits(&sol.lambda),
                    bits(&reference.lambda),
                    "{tag}/{kernel}/{mode:?}: row multipliers diverged"
                );
                assert_eq!(
                    bits(&sol.mu),
                    bits(&reference.mu),
                    "{tag}/{kernel}/{mode:?}: column multipliers diverged"
                );
                assert_eq!(
                    bits(&sol.s),
                    bits(&reference.s),
                    "{tag}/{kernel}/{mode:?}: row totals diverged"
                );
                assert_eq!(
                    bits(&sol.d),
                    bits(&reference.d),
                    "{tag}/{kernel}/{mode:?}: column totals diverged"
                );
            }
        }
    }
}

#[test]
fn supervised_diagonal_driver_is_bitwise_identical_across_modes() {
    // The supervisor wraps the same iteration loop (budget checks and
    // watchdogs read state, they never perturb it), so supervised solves
    // inherit the bitwise-determinism contract of the bare driver.
    let p = generator::heterogeneous(0x5EA_D, 5, 5);
    let sup = SupervisorOptions::default();
    for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
        let mut opts = SeaOptions::with_epsilon(1e-10);
        opts.kernel = kernel;
        opts.parallelism = Parallelism::Serial;
        let reference =
            solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver).expect("serial solve");
        for mode in [
            Parallelism::Rayon,
            Parallelism::RayonThreads(1),
            Parallelism::RayonThreads(2),
            Parallelism::RayonThreads(4),
        ] {
            let mut opts = SeaOptions::with_epsilon(1e-10);
            opts.kernel = kernel;
            opts.parallelism = mode;
            let sol = solve_diagonal_supervised(&p, &opts, &sup, &mut NullObserver).expect("solve");
            assert_eq!(
                sol.stop, reference.stop,
                "{kernel}/{mode:?}: stop reason diverged"
            );
            assert_eq!(
                sol.solution.stats.iterations, reference.solution.stats.iterations,
                "{kernel}/{mode:?}: supervised iteration count diverged"
            );
            assert_eq!(
                bits(sol.solution.x.as_slice()),
                bits(reference.solution.x.as_slice()),
                "{kernel}/{mode:?}: supervised solution bits diverged"
            );
            assert_eq!(
                bits(&sol.solution.lambda),
                bits(&reference.solution.lambda),
                "{kernel}/{mode:?}: supervised row multipliers diverged"
            );
            assert_eq!(
                bits(&sol.solution.mu),
                bits(&reference.solution.mu),
                "{kernel}/{mode:?}: supervised column multipliers diverged"
            );
            assert_eq!(
                bits(&sol.solution.s),
                bits(&reference.solution.s),
                "{kernel}/{mode:?}: supervised row totals diverged"
            );
            assert_eq!(
                bits(&sol.solution.d),
                bits(&reference.solution.d),
                "{kernel}/{mode:?}: supervised column totals diverged"
            );
        }
    }
}

#[test]
fn supervised_general_driver_is_bitwise_identical_across_modes() {
    let p = generator::try_general(0x9E_4E, 3, 3, 3).expect("general instance");
    let sup = SupervisorOptions::default();
    let mut opts = GeneralSeaOptions::with_epsilon(1e-8);
    opts.max_outer = 20;
    opts.inner.parallelism = Parallelism::Serial;
    let reference = solve_general_supervised::<DenseMatrix, _>(&p, &opts, &sup, &mut NullObserver)
        .expect("serial solve");
    for mode in [Parallelism::Rayon, Parallelism::RayonThreads(2)] {
        let mut opts = GeneralSeaOptions::with_epsilon(1e-8);
        opts.max_outer = 20;
        opts.inner.parallelism = mode;
        let sol = solve_general_supervised::<DenseMatrix, _>(&p, &opts, &sup, &mut NullObserver)
            .expect("solve");
        assert_eq!(sol.stop, reference.stop, "{mode:?}: stop reason diverged");
        assert_eq!(
            bits(sol.solution.x.as_slice()),
            bits(reference.solution.x.as_slice()),
            "{mode:?}: supervised general solution bits diverged"
        );
        assert_eq!(
            bits(&sol.solution.mu),
            bits(&reference.solution.mu),
            "{mode:?}: supervised general column multipliers diverged"
        );
    }
}

#[test]
fn kernels_have_independent_trajectories_but_equal_iteration_counts() {
    // The two kernels compute the same λ per subproblem (up to rounding), so
    // the dual ascent should walk the same path: equal iteration counts on
    // every fixture is a cheap canary for kernel-induced drift.
    for (tag, problem) in all_fixtures() {
        let a = solve_with(&problem, KernelKind::SortScan, Parallelism::Serial);
        let b = solve_with(&problem, KernelKind::Quickselect, Parallelism::Serial);
        assert_eq!(
            a.stats.iterations, b.stats.iterations,
            "{tag}: kernels took different iteration counts"
        );
    }
}

/// Sparse storage preserves the determinism contract: for every sparse
/// family, both kernels, any pool width, and any shard size — including
/// single-row shards, which exercise the component-aligned sharding
/// boundaries hardest — the solve is bitwise identical to the Serial,
/// default-shard reference.
#[test]
fn sparse_solves_are_bitwise_identical_across_modes_and_shards() {
    use sea_core::Storage;

    let modes = [
        Parallelism::Rayon,
        Parallelism::RayonThreads(2),
        Parallelism::RayonThreads(4),
    ];
    let shard_sizes = [Some(1), Some(3), Some(64)];
    for (tag, problem) in generator::sparse_families(0x5EA_DE7) {
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let mut ref_opts = SeaOptions::with_epsilon(1e-8);
            ref_opts.kernel = kernel;
            let reference =
                sea_core::solve_diagonal(&problem, &ref_opts).expect("reference sparse solve");
            for mode in modes {
                for block in shard_sizes {
                    let mut opts = ref_opts.clone();
                    opts.parallelism = mode;
                    opts.block_size = block;
                    let sol =
                        sea_core::solve_diagonal(&problem, &opts).expect("sharded sparse solve");
                    assert_eq!(
                        sol.stats.iterations, reference.stats.iterations,
                        "{tag}/{kernel}/{mode:?}/{block:?}: iteration count diverged"
                    );
                    assert_eq!(
                        bits(sol.x.values()),
                        bits(reference.x.values()),
                        "{tag}/{kernel}/{mode:?}/{block:?}: solution bits diverged"
                    );
                    assert_eq!(
                        bits(&sol.lambda),
                        bits(&reference.lambda),
                        "{tag}/{kernel}/{mode:?}/{block:?}: row multipliers diverged"
                    );
                    assert_eq!(
                        bits(&sol.mu),
                        bits(&reference.mu),
                        "{tag}/{kernel}/{mode:?}/{block:?}: column multipliers diverged"
                    );
                }
            }
        }
    }
}

/// Constructing the same logically-dense problem two ways — native dense
/// storage vs lifted to CSR with `from_dense_problem` — yields bitwise
/// identical solves, for both zero policies (Free keeps every cell in the
/// pattern; Structural prunes to the support).
#[test]
fn dense_and_csr_construction_agree_bitwise() {
    use sea_core::{DiagonalProblem, Storage};
    use sea_linalg::CsrMatrix;

    let mut problems = vec![("heterogeneous", generator::heterogeneous(0xD0_5EA, 8, 10))];
    if let Ok(p) = generator::try_fixed_diagonal(0xD1_5EA, 9, 7, 2, 1.0) {
        problems.push(("fixed-diagonal", p));
    }
    for (tag, dense_p) in problems {
        let sparse_p =
            DiagonalProblem::<CsrMatrix>::from_dense_problem(&dense_p).expect("lift to CSR");
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let mut opts = SeaOptions::with_epsilon(1e-8);
            opts.kernel = kernel;
            let dsol = sea_core::solve_diagonal(&dense_p, &opts).expect("dense solve");
            let ssol = sea_core::solve_diagonal(&sparse_p, &opts).expect("sparse solve");
            let sx = ssol.x.to_dense().expect("densify sparse solution");
            assert_eq!(
                bits(sx.as_slice()),
                bits(dsol.x.as_slice()),
                "{tag}/{kernel}: storage backends diverged"
            );
            assert_eq!(
                ssol.stats.iterations, dsol.stats.iterations,
                "{tag}/{kernel}: iteration counts diverged"
            );
        }
    }
}

/// The bounded driver runs the same serial and sharded parallel passes as
/// the diagonal one, so it inherits the contract: for dense and sparse
/// storage, both kernels, every pool width and every shard size, the
/// solve is bitwise identical to the serial reference.
#[test]
fn bounded_solves_are_bitwise_identical_across_modes_and_shards() {
    use sea_core::{solve_bounded_supervised, BoundedProblem, Storage};
    use sea_linalg::CsrMatrix;

    fn check<S: Storage>(tag: &str, p: &BoundedProblem<S>) {
        let sup = SupervisorOptions::default();
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            let mut ref_opts = SeaOptions::with_epsilon(1e-9);
            ref_opts.kernel = kernel;
            let reference = solve_bounded_supervised(p, &ref_opts, &sup, &mut NullObserver)
                .expect("serial bounded solve")
                .solution;
            assert!(reference.converged, "{tag}/{kernel}: reference converged");
            for mode in [
                Parallelism::Rayon,
                Parallelism::RayonThreads(1),
                Parallelism::RayonThreads(2),
                Parallelism::RayonThreads(4),
            ] {
                for block in [None, Some(1), Some(3), Some(64)] {
                    let mut opts = ref_opts.clone();
                    opts.parallelism = mode;
                    opts.block_size = block;
                    let sol = solve_bounded_supervised(p, &opts, &sup, &mut NullObserver)
                        .expect("parallel bounded solve")
                        .solution;
                    let at = format!("{tag}/{kernel}/{mode:?}/{block:?}");
                    assert_eq!(sol.iterations, reference.iterations, "{at}: iterations");
                    assert_eq!(bits(sol.x.values()), bits(reference.x.values()), "{at}: x");
                    assert_eq!(bits(&sol.lambda), bits(&reference.lambda), "{at}: lambda");
                    assert_eq!(bits(&sol.mu), bits(&reference.mu), "{at}: mu");
                }
            }
        }
    }

    let dense = generator::try_bounded(0xB0_5EA, 9, 7, 3, 1.0).expect("bounded instance");
    check("dense", &dense);
    let sparse: BoundedProblem<CsrMatrix> = generator::sparse_bounded(0xB1_5EA, 11, 9, 2);
    check("sparse", &sparse);
}
