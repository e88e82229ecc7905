//! Option conformance: every knob a caller can set is either honoured by a
//! driver or refused with [`SeaError::Unsupported`] — never silently
//! ignored.
//!
//! Two sweeps:
//!
//! * every [`SupervisorOptions`] knob (iteration cap, deadline, kernel-work
//!   budget, cancellation, stagnation, checkpoint, `start_iteration`, and
//!   each scripted fault) against all three drivers;
//! * every [`SeaOptions`] field the bounded driver could drop on the floor
//!   (`criterion`, `check_every`, `record_trace`, `record_history`,
//!   `multiplier_bound`, `parallelism`, `block_size`, `initial_mu`).
//!
//! Plus the two edge cases every driver must agree on: a zero epoch cap
//! runs no epoch, and an empty sparse row admits only an exactly-zero
//! fixed total.

use sea_core::{
    solve_bounded, solve_bounded_supervised, solve_diagonal, solve_diagonal_supervised,
    solve_general_supervised, BoundedProblem, CancelToken, Checkpoint, CheckpointPolicy,
    ConvergenceCriterion, DiagonalProblem, Event, FaultKind, FaultPlan, GeneralProblem,
    GeneralSeaOptions, GeneralTotalSpec, KernelKind, NullObserver, Parallelism, PhaseLabel,
    SeaError, SeaOptions, SolveBudget, SpanKind, SpanProfiler, StagnationPolicy, StopReason,
    SupervisorOptions, TotalSpec, VecObserver, ZeroPolicy,
};
use sea_linalg::{CsrMatrix, DenseMatrix, SymMatrix};
use std::path::PathBuf;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Driver {
    Diagonal,
    Bounded,
    General,
}

const DRIVERS: [Driver; 3] = [Driver::Diagonal, Driver::Bounded, Driver::General];

/// Heterogeneous weights: a long geometric tail, so budgets fire first.
fn diagonal_problem() -> DiagonalProblem {
    DiagonalProblem::new(
        DenseMatrix::from_rows(&[
            vec![1.0, 5.0, 2.0],
            vec![4.0, 1.0, 3.0],
            vec![2.0, 6.0, 1.0],
        ])
        .unwrap(),
        DenseMatrix::from_rows(&[
            vec![1e-2, 1.0, 1e2],
            vec![1.0, 1e3, 1e-1],
            vec![1e1, 1e-3, 1.0],
        ])
        .unwrap(),
        TotalSpec::Fixed {
            s0: vec![12.0, 9.0, 11.0],
            d0: vec![10.0, 13.0, 9.0],
        },
    )
    .unwrap()
}

/// Bounds active at the solution, so the boxed kernel clamps.
fn bounded_problem() -> BoundedProblem {
    BoundedProblem::new(
        DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 3.0],
            vec![4.0, 1.0, 2.0],
            vec![2.0, 5.0, 1.0],
        ])
        .unwrap(),
        DenseMatrix::from_rows(&[
            vec![1.0, 2.0, 1.0],
            vec![4.0, 1.0, 2.0],
            vec![1.0, 1.0, 3.0],
        ])
        .unwrap(),
        DenseMatrix::filled(3, 3, 0.5).unwrap(),
        DenseMatrix::filled(3, 3, 4.0).unwrap(),
        vec![8.0, 6.0, 9.0],
        vec![9.0, 7.0, 7.0],
    )
    .unwrap()
}

/// Dense coupling, so the outer projection loop iterates.
fn general_problem() -> GeneralProblem {
    let mut g = DenseMatrix::zeros(4, 4).unwrap();
    for i in 0..4 {
        for j in 0..4 {
            g.set(i, j, if i == j { 10.0 } else { -1.5 });
        }
    }
    GeneralProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0]]).unwrap(),
        SymMatrix::from_dense(g, 1e-12).unwrap(),
        GeneralTotalSpec::Fixed {
            s0: vec![7.0, 6.0],
            d0: vec![4.0, 9.0],
        },
    )
    .unwrap()
}

/// What every driver reports: why it stopped and after how many epochs.
#[derive(Debug, PartialEq)]
struct Outcome {
    stop: StopReason,
    iterations: usize,
}

/// Run `driver` with an unattainable tolerance (ε < 0) and a 50-epoch
/// cap, so only the supervisor can stop it early.
fn run(
    driver: Driver,
    sup: &SupervisorOptions,
    kernel: KernelKind,
    obs: &mut VecObserver,
) -> Result<Outcome, SeaError> {
    let opts = SeaOptions {
        max_iterations: 50,
        kernel,
        ..SeaOptions::with_epsilon(-1.0)
    };
    Ok(match driver {
        Driver::Diagonal => {
            let s = solve_diagonal_supervised(&diagonal_problem(), &opts, sup, obs)?;
            Outcome {
                stop: s.stop,
                iterations: s.solution.stats.iterations,
            }
        }
        Driver::Bounded => {
            let s = solve_bounded_supervised(&bounded_problem(), &opts, sup, obs)?;
            Outcome {
                stop: s.stop,
                iterations: s.solution.iterations,
            }
        }
        Driver::General => {
            let g = GeneralSeaOptions {
                outer_epsilon: -1.0,
                max_outer: 50,
                inner: SeaOptions {
                    kernel,
                    ..SeaOptions::with_epsilon(1e-10)
                },
                ..GeneralSeaOptions::default()
            };
            let s = solve_general_supervised::<DenseMatrix, _>(&general_problem(), &g, sup, obs)?;
            Outcome {
                stop: s.stop,
                iterations: s.solution.outer_iterations,
            }
        }
    })
}

fn run_plain(driver: Driver, sup: &SupervisorOptions) -> Result<Outcome, SeaError> {
    run(driver, sup, KernelKind::SortScan, &mut VecObserver::new())
}

fn stopped(stop: StopReason, iterations: usize) -> Outcome {
    Outcome { stop, iterations }
}

fn unsupported(driver: &'static str, option: &'static str) -> SeaError {
    SeaError::Unsupported { driver, option }
}

fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("sea-conformance-{}-{tag}.ckpt", std::process::id()))
}

// ---------------------------------------------------------------------------
// SupervisorOptions × every driver
// ---------------------------------------------------------------------------

#[test]
fn iteration_cap_is_honoured_by_every_driver() {
    let sup = SupervisorOptions {
        budget: SolveBudget {
            max_iterations: Some(3),
            ..SolveBudget::default()
        },
        ..SupervisorOptions::default()
    };
    for d in DRIVERS {
        let out = run_plain(d, &sup).unwrap();
        assert_eq!(out, stopped(StopReason::IterationCap, 3), "{d:?}");
    }
}

#[test]
fn deadline_is_honoured_by_every_driver() {
    let sup = SupervisorOptions {
        budget: SolveBudget {
            deadline: Some(Duration::ZERO),
            ..SolveBudget::default()
        },
        ..SupervisorOptions::default()
    };
    for d in DRIVERS {
        let out = run_plain(d, &sup).unwrap();
        assert_eq!(out, stopped(StopReason::DeadlineExceeded, 1), "{d:?}");
    }
}

#[test]
fn kernel_work_budget_is_honoured_by_every_driver() {
    // Any epoch does more than one unit of kernel work; the general
    // driver's budget counts the work of its inner solves.
    let sup = SupervisorOptions {
        budget: SolveBudget {
            max_kernel_work: Some(1),
            ..SolveBudget::default()
        },
        ..SupervisorOptions::default()
    };
    for d in DRIVERS {
        let out = run_plain(d, &sup).unwrap();
        assert_eq!(out, stopped(StopReason::WorkCapExceeded, 1), "{d:?}");
    }
}

#[test]
fn kernel_work_budget_trips_under_the_default_kernel() {
    // The default kernel's warm path solves a subproblem in as little as
    // one counted search round, so a budget must still see real work:
    // one unit trips in the first epoch, and a budget of a few epochs'
    // work stops the solve part-way through the 50-epoch run.
    for d in [Driver::Diagonal, Driver::Bounded] {
        for (cap, first) in [(1, true), (40, false)] {
            let sup = SupervisorOptions {
                budget: SolveBudget {
                    max_kernel_work: Some(cap),
                    ..SolveBudget::default()
                },
                ..SupervisorOptions::default()
            };
            let out = run(d, &sup, KernelKind::default(), &mut VecObserver::new()).unwrap();
            assert_eq!(out.stop, StopReason::WorkCapExceeded, "{d:?} cap {cap}");
            if first {
                assert_eq!(out.iterations, 1, "{d:?} cap {cap}");
            } else {
                assert!(
                    (2..50).contains(&out.iterations),
                    "{d:?} cap {cap}: {out:?}"
                );
            }
        }
    }
}

#[test]
fn cancellation_is_honoured_by_every_driver() {
    let token = CancelToken::new();
    token.cancel();
    let sup = SupervisorOptions {
        cancel: Some(token),
        ..SupervisorOptions::default()
    };
    for d in DRIVERS {
        let out = run_plain(d, &sup).unwrap();
        assert_eq!(out, stopped(StopReason::Cancelled, 1), "{d:?}");
    }
}

#[test]
fn stagnation_is_honoured_by_every_driver() {
    // No improvement can beat a 200% relative threshold, so every check
    // counts as stagnant and the window closes at the third.
    let sup = SupervisorOptions {
        stagnation: Some(StagnationPolicy {
            window: 3,
            min_rel_improvement: 2.0,
        }),
        ..SupervisorOptions::default()
    };
    for d in DRIVERS {
        let out = run_plain(d, &sup).unwrap();
        assert_eq!(out, stopped(StopReason::Stagnated, 3), "{d:?}");
    }
}

#[test]
fn checkpoints_are_written_or_refused() {
    for (d, solver) in [
        (Driver::Diagonal, "diagonal"),
        (Driver::Bounded, "bounded"),
        (Driver::General, "general"),
    ] {
        let path = scratch_path(solver);
        let sup = SupervisorOptions {
            budget: SolveBudget {
                max_iterations: Some(4),
                ..SolveBudget::default()
            },
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every: 2,
            }),
            ..SupervisorOptions::default()
        };
        let mut obs = VecObserver::new();
        match run(d, &sup, KernelKind::SortScan, &mut obs) {
            Ok(out) => {
                assert_ne!(d, Driver::General);
                assert_eq!(out, stopped(StopReason::IterationCap, 4), "{d:?}");
                let ck = Checkpoint::load(&path).unwrap();
                assert_eq!((ck.solver.as_str(), ck.iteration), (solver, 4), "{d:?}");
                assert_eq!(ck.mu.len(), 3);
                let written = obs
                    .events
                    .iter()
                    .filter(|e| matches!(e, Event::CheckpointWritten { .. }))
                    .count();
                assert_eq!(written, 2, "{d:?}");
                std::fs::remove_file(&path).unwrap();
            }
            Err(e) => {
                assert_eq!(d, Driver::General, "{e}");
                assert_eq!(e, unsupported("general", "checkpoint"));
                assert!(obs.events.is_empty(), "refused before any work");
                assert!(!path.exists());
            }
        }
    }
}

#[test]
fn start_iteration_offsets_checkpoints_or_is_refused() {
    for d in [Driver::Diagonal, Driver::Bounded] {
        let path = scratch_path(&format!("{d:?}-offset"));
        let sup = SupervisorOptions {
            budget: SolveBudget {
                max_iterations: Some(2),
                ..SolveBudget::default()
            },
            checkpoint: Some(CheckpointPolicy {
                path: path.clone(),
                every: 1,
            }),
            start_iteration: 10,
            ..SupervisorOptions::default()
        };
        run_plain(d, &sup).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap().iteration, 12, "{d:?}");
        std::fs::remove_file(&path).unwrap();
    }
    let sup = SupervisorOptions {
        start_iteration: 10,
        ..SupervisorOptions::default()
    };
    assert_eq!(
        run_plain(Driver::General, &sup),
        Err(unsupported("general", "start_iteration"))
    );
}

#[test]
fn resuming_a_bounded_checkpoint_is_bitwise_identical() {
    let p = bounded_problem();
    let opts = SeaOptions::with_epsilon(-1.0);
    let capped =
        |n: usize, checkpoint: Option<PathBuf>, start_iteration: usize| SupervisorOptions {
            budget: SolveBudget {
                max_iterations: Some(n),
                ..SolveBudget::default()
            },
            checkpoint: checkpoint.map(|path| CheckpointPolicy { path, every: 1 }),
            start_iteration,
            ..SupervisorOptions::default()
        };
    let whole = solve_bounded_supervised(&p, &opts, &capped(7, None, 0), &mut NullObserver)
        .unwrap()
        .solution;
    let path = scratch_path("bounded-resume");
    solve_bounded_supervised(
        &p,
        &opts,
        &capped(4, Some(path.clone()), 0),
        &mut NullObserver,
    )
    .unwrap();
    let ck = Checkpoint::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let resumed_opts = SeaOptions {
        initial_mu: Some(ck.mu),
        ..opts
    };
    let rest = solve_bounded_supervised(&p, &resumed_opts, &capped(3, None, 4), &mut NullObserver)
        .unwrap()
        .solution;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&rest.mu), bits(&whole.mu));
    assert_eq!(bits(rest.x.as_slice()), bits(whole.x.as_slice()));
}

#[test]
fn budget_faults_are_honoured_by_every_driver() {
    for (fault, reason) in [
        (FaultKind::DeadlineNow, StopReason::DeadlineExceeded),
        (FaultKind::CancelNow, StopReason::Cancelled),
    ] {
        let sup = SupervisorOptions {
            faults: FaultPlan::new().at(2, fault),
            ..SupervisorOptions::default()
        };
        for d in DRIVERS {
            assert_eq!(run_plain(d, &sup).unwrap(), stopped(reason, 2), "{d:?}");
        }
    }
}

#[test]
fn nan_multipliers_are_contained_or_refused() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(3, FaultKind::NanLambda { index: 0 }),
        ..SupervisorOptions::default()
    };
    for d in [Driver::Diagonal, Driver::Bounded] {
        // The snapshot certified at epoch 2 is restored.
        let out = run_plain(d, &sup).unwrap();
        assert_eq!(out, stopped(StopReason::Breakdown, 2), "{d:?}");
    }
    assert_eq!(
        run_plain(Driver::General, &sup),
        Err(unsupported("general", "faults"))
    );
}

#[test]
fn kernel_faults_fall_back_or_are_refused() {
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
    for d in [Driver::Diagonal, Driver::Bounded] {
        let mut obs = VecObserver::new();
        run(d, &sup, KernelKind::Quickselect, &mut obs).unwrap();
        let fallback = obs.events.iter().any(|e| {
            matches!(
                e,
                Event::FallbackTriggered {
                    iteration: 1,
                    phase: PhaseLabel::RowEquilibration,
                    count: 1,
                }
            )
        });
        assert!(fallback, "{d:?}: no sort-scan fallback recorded");
    }
    assert_eq!(
        run(
            Driver::General,
            &sup,
            KernelKind::Quickselect,
            &mut VecObserver::new()
        ),
        Err(unsupported("general", "faults"))
    );
}

#[test]
fn worker_panics_are_contained_or_refused() {
    let sup = SupervisorOptions {
        faults: FaultPlan::new().at(
            1,
            FaultKind::WorkerPanic {
                side: "column",
                index: 1,
            },
        ),
        ..SupervisorOptions::default()
    };
    for d in [Driver::Diagonal, Driver::Bounded] {
        match run_plain(d, &sup) {
            Err(SeaError::WorkerPanic {
                side: "column",
                index: 1,
                ..
            }) => {}
            other => panic!("{d:?}: expected a contained worker panic, got {other:?}"),
        }
    }
    assert_eq!(
        run_plain(Driver::General, &sup),
        Err(unsupported("general", "faults"))
    );
}

// ---------------------------------------------------------------------------
// SeaOptions × the bounded driver
// ---------------------------------------------------------------------------

fn bounded_observed(opts: &SeaOptions, obs: &mut VecObserver) -> Result<Outcome, SeaError> {
    let s = solve_bounded_supervised(&bounded_problem(), opts, &SupervisorOptions::default(), obs)?;
    Ok(Outcome {
        stop: s.stop,
        iterations: s.solution.iterations,
    })
}

#[test]
fn bounded_honours_every_criterion() {
    let mut first_residuals = Vec::new();
    for c in [
        ConvergenceCriterion::MaxAbsChange,
        ConvergenceCriterion::RelativeRowBalance,
        ConvergenceCriterion::ConstraintNorm,
    ] {
        let opts = SeaOptions {
            criterion: Some(c),
            ..SeaOptions::with_epsilon(1e-9)
        };
        let mut obs = VecObserver::new();
        let out = bounded_observed(&opts, &mut obs).unwrap();
        assert_eq!(out.stop, StopReason::Converged, "{c:?}");
        assert!(matches!(
            obs.events.first(),
            Some(Event::SolveStart { criterion, .. }) if *criterion == c.name()
        ));
        let checks: Vec<f64> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                Event::ConvergenceCheck {
                    criterion,
                    residual,
                    ..
                } => {
                    assert_eq!(*criterion, c.name());
                    Some(*residual)
                }
                _ => None,
            })
            .collect();
        assert!(*checks.last().unwrap() <= 1e-9, "{c:?}");
        first_residuals.push(checks[0]);
    }
    // Three different stopping quantities, not one relabelled.
    assert_ne!(first_residuals[0], first_residuals[1]);
    assert_ne!(first_residuals[1], first_residuals[2]);
}

#[test]
fn bounded_honours_check_every() {
    let opts = SeaOptions {
        check_every: 3,
        ..SeaOptions::with_epsilon(1e-9)
    };
    let mut obs = VecObserver::new();
    let out = bounded_observed(&opts, &mut obs).unwrap();
    assert_eq!(out.stop, StopReason::Converged);
    assert_eq!(out.iterations % 3, 0);
    for e in &obs.events {
        if let Event::ConvergenceCheck { iteration, .. } = e {
            assert_eq!(iteration % 3, 0, "check at epoch {iteration}");
        }
    }
}

#[test]
fn bounded_refuses_what_it_cannot_express() {
    let cases = [
        (
            SeaOptions {
                record_trace: true,
                ..SeaOptions::default()
            },
            "record_trace",
        ),
        (
            SeaOptions {
                record_history: true,
                ..SeaOptions::default()
            },
            "record_history",
        ),
        (
            SeaOptions {
                multiplier_bound: Some(1e3),
                ..SeaOptions::default()
            },
            "multiplier_bound",
        ),
    ];
    for (opts, option) in cases {
        let mut obs = VecObserver::new();
        assert_eq!(
            bounded_observed(&opts, &mut obs),
            Err(unsupported("bounded", option))
        );
        assert!(obs.events.is_empty(), "{option}: refused before any work");
    }
}

#[test]
fn bounded_honours_parallelism_and_block_size() {
    let p = bounded_problem();
    let serial = solve_bounded(&p, 1e-10, 10_000).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (parallelism, label) in [
        (Parallelism::Rayon, "rayon"),
        (Parallelism::RayonThreads(2), "rayon:2"),
    ] {
        let opts = SeaOptions {
            parallelism,
            ..SeaOptions::with_epsilon(1e-10)
        };
        let mut obs = VecObserver::new();
        let par = solve_bounded_supervised(&p, &opts, &SupervisorOptions::default(), &mut obs)
            .unwrap()
            .solution;
        assert!(matches!(
            obs.events.first(),
            Some(Event::SolveStart { parallelism, .. }) if parallelism == label
        ));
        assert_eq!(bits(par.x.as_slice()), bits(serial.x.as_slice()), "{label}");
        assert_eq!(par.iterations, serial.iterations, "{label}");
    }
    // A one-row shard target cuts the 3-row passes into two shards; the
    // default keeps each pass whole.
    let shards = |block_size: Option<usize>| {
        let opts = SeaOptions {
            parallelism: Parallelism::Rayon,
            block_size,
            max_iterations: 1,
            ..SeaOptions::with_epsilon(1e-10)
        };
        let mut prof = SpanProfiler::new();
        solve_bounded_supervised(&p, &opts, &SupervisorOptions::default(), &mut prof).unwrap();
        prof.spans()
            .iter()
            .filter(|s| s.kind == SpanKind::Shard)
            .count()
    };
    assert_eq!(shards(None), 2);
    assert_eq!(shards(Some(1)), 4);
}

#[test]
fn bounded_honours_initial_mu() {
    let p = bounded_problem();
    let opts = SeaOptions::with_epsilon(1e-10);
    let sup = SupervisorOptions::default();
    let cold = solve_bounded_supervised(&p, &opts, &sup, &mut NullObserver).unwrap();
    let warm_opts = SeaOptions {
        initial_mu: Some(cold.solution.mu.clone()),
        ..opts.clone()
    };
    let warm = solve_bounded_supervised(&p, &warm_opts, &sup, &mut NullObserver).unwrap();
    assert_eq!(warm.stop, StopReason::Converged);
    assert!(warm.solution.iterations < cold.solution.iterations);
    let bad = SeaOptions {
        initial_mu: Some(vec![0.0; 5]),
        ..opts
    };
    assert!(matches!(
        solve_bounded_supervised(&p, &bad, &sup, &mut NullObserver),
        Err(SeaError::Shape {
            context: "initial_mu",
            ..
        })
    ));
}

// ---------------------------------------------------------------------------
// Edge cases every driver agrees on
// ---------------------------------------------------------------------------

#[test]
fn a_zero_epoch_cap_runs_no_epoch_in_any_driver() {
    let opts = SeaOptions {
        max_iterations: 0,
        ..SeaOptions::with_epsilon(1e-10)
    };
    let sup = SupervisorOptions::default();
    let d = solve_diagonal(&diagonal_problem(), &opts).unwrap();
    assert_eq!((d.stats.iterations, d.stats.converged), (0, false));
    let b = solve_bounded(&bounded_problem(), 1e-10, 0).unwrap();
    assert_eq!((b.iterations, b.converged), (0, false));
    let sd = solve_diagonal_supervised(&diagonal_problem(), &opts, &sup, &mut NullObserver);
    let sb = solve_bounded_supervised(&bounded_problem(), &opts, &sup, &mut NullObserver);
    assert_eq!(sd.unwrap().stop, StopReason::IterationCap);
    assert_eq!(sb.unwrap().stop, StopReason::IterationCap);
    let g = GeneralSeaOptions {
        max_outer: 0,
        ..GeneralSeaOptions::default()
    };
    let sg =
        solve_general_supervised::<DenseMatrix, _>(&general_problem(), &g, &sup, &mut NullObserver)
            .unwrap();
    assert_eq!(
        (sg.stop, sg.solution.outer_iterations),
        (StopReason::IterationCap, 0)
    );
}

#[test]
fn an_empty_sparse_row_admits_only_a_zero_total_in_every_driver() {
    // Row 1 stores no entries: only an exactly-zero fixed total is
    // attainable. Tiny totals pass construction (within its 1e-9 slack for
    // bounds) but are refused by the pass, the same way in both classes.
    let x0 = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0)]).unwrap();
    let ones = x0.with_values(vec![1.0, 1.0]).unwrap();
    let diagonal = |row1: f64| {
        let p = DiagonalProblem::with_zero_policy(
            x0.clone(),
            ones.clone(),
            TotalSpec::Fixed {
                s0: vec![4.0, row1],
                d0: vec![2.0, 2.0 + row1],
            },
            ZeroPolicy::Structural,
        )?;
        solve_diagonal(&p, &SeaOptions::with_epsilon(1e-10)).map(|s| s.stats.converged)
    };
    let bounded = |row1: f64| {
        let p = BoundedProblem::new(
            x0.clone(),
            ones.clone(),
            x0.with_values(vec![0.0, 0.0]).unwrap(),
            x0.with_values(vec![10.0, 10.0]).unwrap(),
            vec![4.0, row1],
            vec![2.0, 2.0 + row1],
        )?;
        solve_bounded(&p, 1e-10, 10_000).map(|s| s.converged)
    };
    let infeasible = Err(SeaError::InfeasibleSubproblem {
        side: "row",
        index: 1,
    });
    assert_eq!(diagonal(0.0), Ok(true));
    assert_eq!(bounded(0.0), Ok(true));
    assert_eq!(diagonal(1e-12), infeasible);
    assert_eq!(bounded(1e-12), infeasible);
    assert_eq!(bounded(-1e-12), infeasible);
}
