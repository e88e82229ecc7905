//! Golden-fixture audit of the solver event stream.
//!
//! A tiny deterministic solve (2×2, fixed totals, `Serial` parallelism,
//! sort-scan kernel) is recorded through the JSONL sink and compared,
//! line by line, against `tests/fixtures/golden_solve.jsonl`. Wall-clock
//! and numeric-result fields are zeroed before comparison (timings are
//! nondeterministic, and float formatting should not pin the fixture);
//! everything structural — the event sequence, phase labels, task counts,
//! iteration numbers, convergence flags, and the exact kernel work
//! counters — must match the committed golden file.

use sea_core::{
    solve_bounded_supervised, solve_diagonal_observed, solve_general_supervised, BoundedProblem,
    DiagonalProblem, GeneralProblem, GeneralSeaOptions, GeneralTotalSpec, KernelKind, Parallelism,
    SeaOptions, StopReason, SupervisorOptions, TotalSpec,
};
use sea_linalg::{DenseMatrix, SymMatrix};
use sea_observe::jsonl::{encode_event, parse_events, JsonlObserver};
use sea_observe::Event;

/// Zero every wall-clock / numeric-result field, keeping structure.
fn normalized(event: &Event) -> Event {
    let mut e = event.clone();
    match &mut e {
        Event::PhaseEnd {
            seconds,
            task_seconds,
            ..
        } => {
            *seconds = 0.0;
            task_seconds.iter_mut().for_each(|t| *t = 0.0);
        }
        Event::ConvergenceCheck {
            residual,
            dual_value,
            ..
        } => {
            *residual = 0.0;
            *dual_value = dual_value.map(|_| 0.0);
        }
        Event::MultiplierBound { bound, .. } => *bound = 0.0,
        Event::OuterIteration { outer_residual, .. } => *outer_residual = 0.0,
        Event::SolveEnd {
            residual,
            objective,
            dual_value,
            seconds,
            ..
        } => {
            *residual = 0.0;
            *objective = 0.0;
            *dual_value = dual_value.map(|_| 0.0);
            *seconds = 0.0;
        }
        Event::BatchEnd { seconds, .. } => *seconds = 0.0,
        Event::Meta { .. }
        | Event::SolveStart { .. }
        | Event::PhaseStart { .. }
        | Event::KernelCounters { .. }
        | Event::FallbackTriggered { .. }
        | Event::CheckpointWritten { .. }
        | Event::SupervisorStop { .. }
        | Event::BatchStart { .. }
        | Event::BatchInstance { .. } => {}
    }
    e
}

fn golden_problem() -> DiagonalProblem {
    DiagonalProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap(),
        DenseMatrix::filled(2, 2, 1.0).unwrap(),
        TotalSpec::Fixed {
            s0: vec![4.0, 6.0],
            d0: vec![5.0, 5.0],
        },
    )
    .unwrap()
}

/// Encode a recorded stream with [`normalized`] applied, one line per
/// event.
fn normalized_jsonl(bytes: &[u8]) -> String {
    let recorded = parse_events(std::str::from_utf8(bytes).unwrap()).unwrap();
    let mut actual = String::new();
    for event in &recorded {
        actual.push_str(&encode_event(&normalized(event)));
        actual.push('\n');
    }
    actual
}

/// Compare a normalized stream with the committed fixture `name`, line by
/// line for actionable failure messages, then exactly.
/// `UPDATE_GOLDEN=1 cargo test -p sea-core --test observe_events` rewrites
/// the fixtures after an intentional event-schema change.
fn assert_golden(actual: &str, name: &str) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "event {} diverges from {name}", i + 1);
    }
    assert_eq!(actual, golden, "event count diverges from {name}");
}

#[test]
fn event_stream_matches_golden_fixture() {
    let p = golden_problem();
    let mut opts = SeaOptions::with_epsilon(1e-10);
    opts.parallelism = Parallelism::Serial;
    opts.kernel = KernelKind::SortScan;

    let mut obs = JsonlObserver::new(Vec::new());
    let sol = solve_diagonal_observed(&p, &opts, &mut obs).unwrap();
    assert!(sol.stats.converged);
    assert_golden(
        &normalized_jsonl(&obs.finish().unwrap()),
        "golden_solve.jsonl",
    );
}

/// A tiny deterministic sparse (CSR) solve, pinned the same way: the event
/// stream — including the kernel work counters over the stored support —
/// must match `tests/fixtures/golden_sparse_solve.jsonl` exactly.
#[test]
fn sparse_event_stream_matches_golden_fixture() {
    use sea_core::ZeroPolicy;
    use sea_linalg::CsrMatrix;

    // 3×3 with a 5-cell support (cells (0,2), (1,2), (2,0), (2,1) are
    // structural zeros); totals grow the margins non-uniformly so the
    // solve takes several alternating passes.
    let x0 = CsrMatrix::from_triplets(
        3,
        3,
        &[
            (0, 0, 1.0),
            (0, 1, 2.0),
            (1, 0, 3.0),
            (1, 1, 4.0),
            (2, 2, 5.0),
        ],
    )
    .unwrap();
    let gamma = x0.with_values(vec![1.0, 2.0, 1.0, 4.0, 1.0]).unwrap();
    let p = DiagonalProblem::with_zero_policy(
        x0,
        gamma,
        TotalSpec::Fixed {
            s0: vec![3.2, 7.9, 5.5],
            d0: vec![4.5, 6.6, 5.5],
        },
        ZeroPolicy::Structural,
    )
    .unwrap();
    let mut opts = SeaOptions::with_epsilon(1e-10);
    opts.parallelism = Parallelism::Serial;
    opts.kernel = KernelKind::SortScan;

    let mut obs = JsonlObserver::new(Vec::new());
    let sol = solve_diagonal_observed(&p, &opts, &mut obs).unwrap();
    assert!(sol.stats.converged);
    assert_golden(
        &normalized_jsonl(&obs.finish().unwrap()),
        "golden_sparse_solve.jsonl",
    );
}

/// A tiny deterministic box-bounded solve (3×3, serial, sort-scan) whose
/// bounds are active, so the stream carries boxed-clamp counters.
#[test]
fn bounded_event_stream_matches_golden_fixture() {
    let p = BoundedProblem::new(
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
    .unwrap();
    let mut obs = JsonlObserver::new(Vec::new());
    let sol = solve_bounded_supervised(
        &p,
        &SeaOptions {
            kernel: KernelKind::SortScan,
            ..SeaOptions::with_epsilon(1e-10)
        },
        &SupervisorOptions::default(),
        &mut obs,
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Converged);
    assert_golden(
        &normalized_jsonl(&obs.finish().unwrap()),
        "golden_bounded_solve.jsonl",
    );
}

/// A tiny deterministic general solve (2×2, dense `G`, several outer
/// iterations): the outer
/// projection lifecycle with the nested inner diagonal streams.
#[test]
fn general_event_stream_matches_golden_fixture() {
    let diag = [10.0, 6.0, 8.0, 12.0];
    let mut g = DenseMatrix::filled(4, 4, -1.5).unwrap();
    for (i, &v) in diag.iter().enumerate() {
        g.set(i, i, v);
    }
    let p = GeneralProblem::new(
        DenseMatrix::from_rows(&[vec![1.0, 5.0], vec![3.0, 2.0]]).unwrap(),
        SymMatrix::from_dense(g, 1e-12).unwrap(),
        GeneralTotalSpec::Fixed {
            s0: vec![7.0, 6.0],
            d0: vec![4.0, 9.0],
        },
    )
    .unwrap();
    let mut opts = GeneralSeaOptions::with_epsilon(1e-9);
    opts.inner.parallelism = Parallelism::Serial;
    opts.inner.kernel = KernelKind::SortScan;
    let mut obs = JsonlObserver::new(Vec::new());
    let sol = solve_general_supervised::<DenseMatrix, _>(
        &p,
        &opts,
        &SupervisorOptions::default(),
        &mut obs,
    )
    .unwrap();
    assert_eq!(sol.stop, StopReason::Converged);
    assert_golden(
        &normalized_jsonl(&obs.finish().unwrap()),
        "golden_general_solve.jsonl",
    );
}
