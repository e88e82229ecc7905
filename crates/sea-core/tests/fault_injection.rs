//! Deterministic fault-injection harness for the solve supervisor.
//!
//! Every scripted fault — poisoned multipliers, pathological kernel
//! results, worker panics, deadline expiry, cancellation — must leave the
//! supervisor in one of exactly two states: `Ok` with an honest
//! KKT-residual certificate on the returned (possibly partial) iterate, or
//! a typed [`SeaError`]. Never a process panic, never a silently wrong
//! answer. The checkpoint tests additionally prove that interrupting a
//! solve and resuming from the written snapshot reproduces the
//! uninterrupted run's final multipliers bitwise.

use sea_core::{
    solve_bounded_supervised, solve_diagonal_supervised, solve_general_supervised, BoundedProblem,
    Checkpoint, CheckpointPolicy, DiagonalProblem, Event, FaultKind, FaultPlan, GeneralProblem,
    GeneralSeaOptions, GeneralTotalSpec, KernelKind, NullObserver, Parallelism, SeaError,
    SeaOptions, StopReason, SupervisorOptions, TotalSpec, VecObserver,
};
use sea_linalg::{DenseMatrix, SymMatrix};
use std::path::PathBuf;
use std::time::Duration;

fn fixed_problem() -> DiagonalProblem {
    DiagonalProblem::new(
        DenseMatrix::from_rows(&[
            vec![10.0, 4.0, 6.0],
            vec![3.0, 12.0, 5.0],
            vec![7.0, 2.0, 11.0],
        ])
        .unwrap(),
        DenseMatrix::filled(3, 3, 1.0).unwrap(),
        TotalSpec::Fixed {
            s0: vec![24.0, 22.0, 24.0],
            d0: vec![25.0, 20.0, 25.0],
        },
    )
    .unwrap()
}

/// A genuinely slow solve: heterogeneous weights spanning six orders of
/// magnitude stretch the alternating equilibration into a long geometric
/// tail (~7000 iterations to 1e-10). Partial iterates captured in the
/// first few iterations are honestly far from optimal, which the
/// certificate-honesty assertions below rely on. Contrast with
/// [`fixed_problem`], whose unit weights converge in a single iteration.
fn hard_problem() -> DiagonalProblem {
    let m = 5;
    let n = 5;
    let mut x0 = DenseMatrix::zeros(m, n).unwrap();
    let mut gamma = DenseMatrix::zeros(m, n).unwrap();
    for i in 0..m {
        for j in 0..n {
            x0.set(i, j, 1.0 + ((i * n + j) % 7) as f64);
            gamma.set(i, j, 10f64.powi(((i * n + j) % 7) as i32 - 3));
        }
    }
    let s0: Vec<f64> = (0..m).map(|i| 20.0 + 3.0 * i as f64).collect();
    let total: f64 = s0.iter().sum();
    let mut d0: Vec<f64> = (0..n).map(|j| 30.0 - 4.0 * j as f64).collect();
    let dsum: f64 = d0.iter().sum();
    for v in &mut d0 {
        *v *= total / dsum;
    }
    DiagonalProblem::new(x0, gamma, TotalSpec::Fixed { s0, d0 }).unwrap()
}

fn bounded_problem() -> BoundedProblem {
    BoundedProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
        DenseMatrix::filled(2, 2, 1.0).unwrap(),
        DenseMatrix::filled(2, 2, 0.0).unwrap(),
        DenseMatrix::filled(2, 2, 10.0).unwrap(),
        vec![4.0, 6.0],
        vec![5.0, 5.0],
    )
    .unwrap()
}

fn general_problem() -> GeneralProblem {
    // Strictly diagonally dominant SPD weight matrix: dense coupling, so
    // the outer projection loop actually iterates.
    let order = 4;
    let mut g = DenseMatrix::zeros(order, order).unwrap();
    for i in 0..order {
        for j in 0..order {
            g.set(i, j, if i == j { 10.0 } else { -1.0 });
        }
    }
    GeneralProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
        SymMatrix::from_dense(g, 1e-12).unwrap(),
        GeneralTotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        },
    )
    .unwrap()
}

fn opts(epsilon: f64, parallelism: Parallelism, kernel: KernelKind) -> SeaOptions {
    let mut o = SeaOptions::with_epsilon(epsilon);
    o.parallelism = parallelism;
    o.kernel = kernel;
    o
}

fn supervised(
    sup: &SupervisorOptions,
    o: &SeaOptions,
) -> Result<sea_core::SupervisedSolution, SeaError> {
    solve_diagonal_supervised(&fixed_problem(), o, sup, &mut NullObserver)
}

fn supervised_hard(
    sup: &SupervisorOptions,
    o: &SeaOptions,
) -> Result<sea_core::SupervisedSolution, SeaError> {
    solve_diagonal_supervised(&hard_problem(), o, sup, &mut NullObserver)
}

fn assert_finite_solution(sol: &sea_core::SupervisedSolution) {
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
    assert!(sol.solution.lambda.iter().all(|v| v.is_finite()));
    assert!(sol.solution.mu.iter().all(|v| v.is_finite()));
    assert!(sol.certificate.residuals.row_inf.is_finite());
    assert!(sol.certificate.residuals.col_inf.is_finite());
}

#[test]
fn clean_supervised_solve_converges_with_optimal_certificate() {
    let sup = SupervisorOptions::default();
    let sol = supervised(
        &sup,
        &opts(1e-10, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Converged);
    assert!(sol.solution.stats.converged);
    assert!(sol.certificate.is_optimal(1e-6), "{:?}", sol.certificate);
    assert_eq!(sol.kernel_fallbacks, 0);
    assert!(sol.checkpoint_error.is_none());
}

#[test]
fn nan_lambda_with_a_snapshot_recovers_the_previous_iterate() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(3, FaultKind::NanLambda { index: 1 }),
        ..SupervisorOptions::default()
    };
    // Unattainable tolerance so the solve is still running at iteration 3.
    let sol =
        supervised_hard(&sup, &opts(-1.0, Parallelism::Serial, KernelKind::SortScan)).unwrap();
    assert_eq!(sol.stop, StopReason::Breakdown);
    assert!(!sol.solution.stats.converged);
    // The returned iterate is the last healthy snapshot, not the poison.
    assert_eq!(sol.solution.stats.iterations, 2);
    assert_finite_solution(&sol);
    // Honesty: a partial iterate must not certify as optimal.
    assert!(!sol.certificate.is_optimal(1e-10));
}

#[test]
fn nan_lambda_on_the_first_iteration_is_a_typed_breakdown() {
    // No healthy snapshot exists yet, so recovery is impossible — the
    // supervisor must fail with the typed error, not a panic or NaN x.
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(1, FaultKind::NanLambda { index: 0 }),
        ..SupervisorOptions::default()
    };
    let err = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap_err();
    assert_eq!(err, SeaError::NumericalBreakdown { iteration: 1 });
}

#[test]
fn kernel_fault_falls_back_to_sort_scan_and_still_converges() {
    for parallelism in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new()
                .at(
                    1,
                    FaultKind::KernelNan {
                        side: "row",
                        index: 1,
                    },
                )
                .at(
                    2,
                    FaultKind::KernelNan {
                        side: "column",
                        index: 0,
                    },
                ),
            ..SupervisorOptions::default()
        };
        // The hard problem runs thousands of iterations, so both scripted
        // faults (iterations 1 and 2) actually fire before convergence.
        let sol =
            supervised_hard(&sup, &opts(1e-10, parallelism, KernelKind::Quickselect)).unwrap();
        assert_eq!(sol.stop, StopReason::Converged, "{parallelism:?}");
        assert!(sol.kernel_fallbacks >= 2, "{parallelism:?}");
        assert!(sol.certificate.is_optimal(1e-6));
    }
}

#[test]
fn kernel_fault_is_inert_under_the_sort_scan_kernel() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(
            1,
            FaultKind::KernelNan {
                side: "row",
                index: 0,
            },
        ),
        ..SupervisorOptions::default()
    };
    let sol = supervised(
        &sup,
        &opts(1e-10, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Converged);
    assert_eq!(sol.kernel_fallbacks, 0);
}

#[test]
fn worker_panic_is_a_typed_error_not_an_abort() {
    for parallelism in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new().at(
                2,
                FaultKind::WorkerPanic {
                    side: "column",
                    index: 1,
                },
            ),
            ..SupervisorOptions::default()
        };
        let err = supervised(&sup, &opts(1e-300, parallelism, KernelKind::SortScan)).unwrap_err();
        match err {
            SeaError::WorkerPanic {
                side,
                index,
                message,
            } => {
                assert_eq!((side, index), ("column", 1), "{parallelism:?}");
                assert!(message.contains("injected"), "{message}");
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}

#[test]
fn scripted_deadline_and_cancel_stop_with_partial_solutions() {
    for (fault, stop) in [
        (FaultKind::DeadlineNow, StopReason::DeadlineExceeded),
        (FaultKind::CancelNow, StopReason::Cancelled),
    ] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new().at(2, fault.clone()),
            ..SupervisorOptions::default()
        };
        let sol = supervised_hard(&sup, &opts(-1.0, Parallelism::Serial, KernelKind::SortScan))
            .unwrap_or_else(|e| panic!("{fault:?}: {e}"));
        assert_eq!(sol.stop, stop, "{fault:?}");
        assert_eq!(sol.solution.stats.iterations, 2);
        assert_finite_solution(&sol);
        assert!(!sol.certificate.is_optimal(1e-10));
    }
}

#[test]
fn real_budget_limits_fire_with_their_stop_reasons() {
    // Iteration budget.
    let mut sup = SupervisorOptions::default();
    sup.budget.max_iterations = Some(3);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert_eq!(sol.solution.stats.iterations, 3);

    // Expired wall-clock deadline.
    let mut sup = SupervisorOptions::default();
    sup.budget.deadline = Some(Duration::ZERO);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::DeadlineExceeded);
    assert_eq!(sol.solution.stats.iterations, 1);

    // Kernel-work cap (any first iteration scans at least one breakpoint).
    let mut sup = SupervisorOptions::default();
    sup.budget.max_kernel_work = Some(1);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::WorkCapExceeded);
    assert_eq!(sol.solution.stats.iterations, 1);

    // Pre-cancelled token.
    let mut sup = SupervisorOptions::default();
    let token = sea_core::CancelToken::new();
    token.cancel();
    sup.cancel = Some(token);
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Cancelled);
    assert_eq!(sol.solution.stats.iterations, 1);
}

#[test]
fn residual_stagnation_is_detected_at_the_convergence_floor() {
    // Unattainable tolerance: the residual bottoms out at the floating
    // floor, stops halving, and the watchdog declares stagnation long
    // before the iteration cap.
    let sup = SupervisorOptions {
        stagnation: Some(sea_core::StagnationPolicy {
            window: 4,
            min_rel_improvement: 0.5,
        }),
        ..SupervisorOptions::default()
    };
    let sol = supervised(
        &sup,
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Stagnated);
    assert!(sol.solution.stats.iterations < 10_000);
    assert_finite_solution(&sol);
    // The iterate is excellent — just not at the impossible tolerance —
    // and the certificate says exactly that.
    assert!(sol.certificate.residuals.row_inf < 1e-6);
}

#[test]
fn supervisor_stop_events_are_recorded() {
    let mut sup = SupervisorOptions::default();
    sup.budget.max_iterations = Some(2);
    let mut obs = VecObserver::new();
    let sol = solve_diagonal_supervised(
        &fixed_problem(),
        &opts(1e-300, Parallelism::Serial, KernelKind::SortScan),
        &sup,
        &mut obs,
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert!(
        obs.events.iter().any(|e| matches!(
            e,
            Event::SupervisorStop {
                iteration: 2,
                reason: "iteration_cap"
            }
        )),
        "missing SupervisorStop event"
    );
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

fn ckpt_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sea-fault-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn run_iterations(
    total_budget: usize,
    checkpoint: Option<(PathBuf, usize)>,
    initial_mu: Option<Vec<f64>>,
    start_iteration: usize,
) -> sea_core::SupervisedSolution {
    run_iterations_with(
        KernelKind::SortScan,
        total_budget,
        checkpoint,
        initial_mu,
        start_iteration,
    )
}

fn run_iterations_with(
    kernel: KernelKind,
    total_budget: usize,
    checkpoint: Option<(PathBuf, usize)>,
    initial_mu: Option<Vec<f64>>,
    start_iteration: usize,
) -> sea_core::SupervisedSolution {
    let mut o = opts(-1.0, Parallelism::Serial, kernel);
    o.max_iterations = total_budget;
    o.initial_mu = initial_mu;
    let sup = SupervisorOptions {
        checkpoint: checkpoint.map(|(path, every)| CheckpointPolicy { path, every }),
        start_iteration,
        ..SupervisorOptions::default()
    };
    solve_diagonal_supervised(&fixed_problem(), &o, &sup, &mut NullObserver).unwrap()
}

#[test]
fn resume_from_checkpoint_is_bitwise_identical() {
    // Under the default kernel the resumed run's first row pass starts its
    // warm search without the checkpoint's λ, yet lands on the same bits:
    // every route through the kernel ends on the same canonical multiplier.
    for kernel in [KernelKind::SortScan, KernelKind::default()] {
        let dir = ckpt_dir(&format!("bitwise-{kernel}"));
        let ck_path = dir.join("state.ckpt");

        // Reference: 12 uninterrupted iterations (ε < 0 never converges).
        let full = run_iterations_with(kernel, 12, None, None, 0);
        assert_eq!(full.stop, StopReason::IterationCap);

        // Interrupted: 5 iterations with a checkpoint every iteration…
        let partial = run_iterations_with(kernel, 5, Some((ck_path.clone(), 1)), None, 0);
        assert_eq!(partial.stop, StopReason::IterationCap);
        assert!(partial.checkpoint_error.is_none());
        let ck = Checkpoint::load(&ck_path).unwrap();
        assert_eq!(ck.solver, "diagonal");
        assert_eq!(ck.iteration, 5);
        // The checkpoint captures the interrupted run's multipliers exactly.
        assert_eq!(
            ck.mu.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            partial
                .solution
                .mu
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        );

        // …then 7 more from the loaded snapshot.
        let resumed = run_iterations_with(kernel, 7, None, Some(ck.mu), ck.iteration);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&full.solution.mu),
            bits(&resumed.solution.mu),
            "{kernel}: resumed μ diverges from the uninterrupted run"
        );
        assert_eq!(
            bits(&full.solution.lambda),
            bits(&resumed.solution.lambda),
            "{kernel}: resumed λ diverges from the uninterrupted run"
        );
        assert_eq!(
            bits(full.solution.x.as_slice()),
            bits(resumed.solution.x.as_slice()),
            "{kernel}: resumed x diverges from the uninterrupted run"
        );
        // Atomic writes leave no tmp residue behind.
        assert!(!dir.join("state.ckpt.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A bounded problem that takes many sweeps: weights spanning four
/// decades, priors up to 7 against an upper bound of 6, totals from a
/// feasible matrix inside the box.
fn slow_bounded_problem() -> BoundedProblem {
    let (m, n) = (4, 5);
    let cell = |f: &dyn Fn(usize, usize) -> f64| {
        DenseMatrix::from_vec(m, n, (0..m * n).map(|k| f(k / n, k % n)).collect()).unwrap()
    };
    let y = cell(&|i, j| 2.0 + ((3 * i + 2 * j) % 5) as f64);
    BoundedProblem::new(
        cell(&|i, j| 1.0 + ((i * n + j) % 7) as f64),
        cell(&|i, j| 10f64.powi(((i * n + j) % 5) as i32 - 2)),
        DenseMatrix::filled(m, n, 0.5).unwrap(),
        DenseMatrix::filled(m, n, 6.0).unwrap(),
        y.row_sums(),
        y.col_sums(),
    )
    .unwrap()
}

fn run_bounded_iterations(
    kernel: KernelKind,
    total_budget: usize,
    checkpoint: Option<(PathBuf, usize)>,
    initial_mu: Option<Vec<f64>>,
    start_iteration: usize,
) -> sea_core::SupervisedBoundedSolution {
    let mut o = opts(-1.0, Parallelism::Serial, kernel);
    o.max_iterations = total_budget;
    o.initial_mu = initial_mu;
    let sup = SupervisorOptions {
        checkpoint: checkpoint.map(|(path, every)| CheckpointPolicy { path, every }),
        start_iteration,
        ..SupervisorOptions::default()
    };
    solve_bounded_supervised(&slow_bounded_problem(), &o, &sup, &mut NullObserver).unwrap()
}

#[test]
fn bounded_resume_from_checkpoint_is_bitwise_identical() {
    // The resumed run's first row pass has no λ to warm-start from, so
    // under the default kernel it runs the cold boxed search where the
    // uninterrupted run took the warm one; both end on the same bits.
    for kernel in [KernelKind::SortScan, KernelKind::default()] {
        let dir = ckpt_dir(&format!("bounded-{kernel}"));
        let ck_path = dir.join("state.ckpt");
        let full = run_bounded_iterations(kernel, 12, None, None, 0);
        assert_eq!(full.stop, StopReason::IterationCap);
        let partial = run_bounded_iterations(kernel, 5, Some((ck_path.clone(), 1)), None, 0);
        assert_eq!(partial.stop, StopReason::IterationCap);
        let ck = Checkpoint::load(&ck_path).unwrap();
        assert_eq!((ck.solver.as_str(), ck.iteration), ("bounded", 5));
        let resumed = run_bounded_iterations(kernel, 7, None, Some(ck.mu), ck.iteration);

        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (f, r) = (&full.solution, &resumed.solution);
        // The run must still be moving, or the comparison proves little.
        assert!(
            f.residuals.rel_row_inf > 0.0,
            "{kernel}: converged too early"
        );
        assert_eq!(bits(&f.mu), bits(&r.mu), "{kernel}: resumed μ diverges");
        assert_eq!(
            bits(&f.lambda),
            bits(&r.lambda),
            "{kernel}: resumed λ diverges"
        );
        assert_eq!(
            bits(f.x.as_slice()),
            bits(r.x.as_slice()),
            "{kernel}: resumed x diverges"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn resumed_checkpoints_continue_the_cumulative_iteration_count() {
    let dir = ckpt_dir("cumulative");
    let ck_path = dir.join("state.ckpt");
    let first = run_iterations(4, Some((ck_path.clone(), 1)), None, 0);
    assert_eq!(first.stop, StopReason::IterationCap);
    let ck = Checkpoint::load(&ck_path).unwrap();
    assert_eq!(ck.iteration, 4);
    // Resume for 3 more, checkpointing into the same file: the stamp keeps
    // counting from the loaded iteration.
    let _ = run_iterations(3, Some((ck_path.clone(), 1)), Some(ck.mu), ck.iteration);
    let ck2 = Checkpoint::load(&ck_path).unwrap();
    assert_eq!(ck2.iteration, 7);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_write_failure_never_aborts_the_solve() {
    // An unwritable destination (directory path) must surface as
    // `checkpoint_error`, not kill the solve.
    let sol = run_iterations(3, Some((std::env::temp_dir(), 1)), None, 0);
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert!(sol.checkpoint_error.is_some());
    assert_finite_solution(&sol);
}

// ---------------------------------------------------------------------------
// Bounded and general drivers under supervision
// ---------------------------------------------------------------------------

#[test]
fn bounded_driver_honors_budgets_and_faults() {
    // Deadline fault.
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(1, FaultKind::DeadlineNow),
        ..SupervisorOptions::default()
    };
    let sol = solve_bounded_supervised(
        &bounded_problem(),
        &SeaOptions::with_epsilon(-1.0),
        &sup,
        &mut NullObserver,
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::DeadlineExceeded);
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));

    // Iteration budget.
    let mut sup = SupervisorOptions::default();
    sup.budget.max_iterations = Some(2);
    let sol = solve_bounded_supervised(
        &bounded_problem(),
        &SeaOptions::with_epsilon(-1.0),
        &sup,
        &mut NullObserver,
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert_eq!(sol.solution.iterations, 2);

    // Poisoned multiplier: recovered from a snapshot or typed breakdown.
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(3, FaultKind::NanLambda { index: 0 }),
        ..SupervisorOptions::default()
    };
    match solve_bounded_supervised(
        &bounded_problem(),
        &SeaOptions::with_epsilon(-1.0),
        &sup,
        &mut NullObserver,
    ) {
        Ok(sol) => {
            assert_eq!(sol.stop, StopReason::Breakdown);
            assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));
        }
        Err(e) => assert!(matches!(e, SeaError::NumericalBreakdown { .. })),
    }
}

#[test]
fn general_driver_honors_budgets_at_outer_granularity() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(1, FaultKind::DeadlineNow),
        ..SupervisorOptions::default()
    };
    // Unattainable *outer* tolerance (the outer change is >= 0, never
    // <= -1) with ordinarily convergent inner solves: the outer loop spins
    // until a budget or fault stops it.
    let mut o = GeneralSeaOptions::with_epsilon(1e-10);
    o.outer_epsilon = -1.0;
    o.max_outer = 50;
    let sol =
        solve_general_supervised::<DenseMatrix, _>(&general_problem(), &o, &sup, &mut NullObserver)
            .unwrap();
    assert_eq!(sol.stop, StopReason::DeadlineExceeded);
    assert_eq!(sol.solution.outer_iterations, 1);
    assert!(sol.solution.x.as_slice().iter().all(|v| v.is_finite()));

    let mut sup = SupervisorOptions::default();
    sup.budget.max_iterations = Some(2);
    let sol =
        solve_general_supervised::<DenseMatrix, _>(&general_problem(), &o, &sup, &mut NullObserver)
            .unwrap();
    assert_eq!(sol.stop, StopReason::IterationCap);
    assert_eq!(sol.solution.outer_iterations, 2);
}

// ---------------------------------------------------------------------------
// Sweep: every fault kind, every kernel, both parallel modes
// ---------------------------------------------------------------------------

/// The blanket guarantee: under every scripted fault the supervisor
/// returns `Ok` with a finite, honestly-certified iterate, or a typed
/// `SeaError`. A panic fails this test; a non-finite "solution" fails the
/// finiteness assertions.
#[test]
fn every_fault_yields_ok_with_certificate_or_typed_error() {
    let faults = [
        FaultKind::NanLambda { index: 0 },
        FaultKind::NanLambda { index: 2 },
        FaultKind::KernelNan {
            side: "row",
            index: 0,
        },
        FaultKind::KernelNan {
            side: "column",
            index: 2,
        },
        FaultKind::WorkerPanic {
            side: "row",
            index: 0,
        },
        FaultKind::WorkerPanic {
            side: "column",
            index: 2,
        },
        FaultKind::DeadlineNow,
        FaultKind::CancelNow,
    ];
    for fault in &faults {
        for kernel in [KernelKind::SortScan, KernelKind::Quickselect] {
            for parallelism in [Parallelism::Serial, Parallelism::RayonThreads(2)] {
                for iteration in [1, 3] {
                    let sup = SupervisorOptions {
                        faults: FaultPlan::new().at(iteration, fault.clone()),
                        ..SupervisorOptions::default()
                    };
                    // ε < 0 never converges; the tiny iteration cap keeps
                    // non-stopping faults (KernelNan) from running the hard
                    // problem down to its convergence floor, so every
                    // returned iterate is honestly sub-optimal.
                    let mut o = opts(-1.0, parallelism, kernel);
                    o.max_iterations = 6;
                    match supervised_hard(&sup, &o) {
                        Ok(sol) => {
                            assert_ne!(
                                sol.stop,
                                StopReason::Converged,
                                "ε < 0 cannot converge ({fault:?})"
                            );
                            assert_finite_solution(&sol);
                            assert!(
                                !sol.certificate.is_optimal(1e-12),
                                "partial solution certified optimal ({fault:?})"
                            );
                        }
                        Err(SeaError::NumericalBreakdown { .. } | SeaError::WorkerPanic { .. }) => {
                        }
                        Err(other) => {
                            panic!("unexpected error under {fault:?}/{kernel:?}: {other:?}")
                        }
                    }
                }
            }
        }
    }
}
