//! Bitwise determinism of batch results.
//!
//! Two invariances, both downstream of the engine's snapshot-cache design
//! and the solvers' parallelism invariance:
//!
//! * **Scheduling**: all five [`BatchParallelism`] policies produce
//!   identical bits per instance — same solutions, same iteration counts,
//!   same cache outcomes and work counters.
//! * **Submission order**: permuting the instances permutes the reports
//!   but changes no per-id result, *including* cache contents carried to
//!   the next batch (updates apply in submission order, but distinct
//!   families never collide, and same-family instances in one batch all
//!   see the same snapshot).

#[path = "../../sea-core/tests/common/generator.rs"]
mod generator;

use sea_batch::{
    BatchEngine, BatchInstance, BatchOptions, BatchParallelism, BatchProblem, BatchReport,
    BatchSolution,
};
use sea_core::NullObserver;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Everything comparable about one instance's outcome, as bit patterns.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    id: String,
    warm: &'static str,
    kernel_work: u64,
    work_saved: u64,
    stop: String,
    iterations: usize,
    x: Vec<u64>,
    mu: Vec<u64>,
}

fn fingerprints(report: &BatchReport) -> Vec<Fingerprint> {
    report
        .items
        .iter()
        .map(|item| {
            let sol = item.outcome.as_ref().expect("instance solved");
            let (x, mu) = match sol {
                BatchSolution::Diagonal(s) => (bits(s.solution.x.as_slice()), bits(&s.solution.mu)),
                BatchSolution::SparseDiagonal(s) => {
                    (bits(s.solution.x.vals()), bits(&s.solution.mu))
                }
                BatchSolution::Bounded(s) => (bits(s.solution.x.as_slice()), bits(&s.solution.mu)),
                BatchSolution::General(s) => (bits(s.solution.x.as_slice()), bits(&s.solution.mu)),
            };
            Fingerprint {
                id: item.id.clone(),
                warm: item.warm_start.name(),
                kernel_work: item.kernel_work,
                work_saved: item.work_saved,
                stop: format!("{:?}", sol.stop()),
                iterations: sol.iterations(),
                x,
                mu,
            }
        })
        .collect()
}

fn workload() -> Vec<BatchInstance> {
    let mut batch: Vec<BatchInstance> = (0..4)
        .map(|i| BatchInstance {
            id: format!("diag-{i}"),
            family: Some(format!("fam-{i}")),
            problem: BatchProblem::Diagonal(generator::heterogeneous(100 + i, 4, 5)),
        })
        .collect();
    batch.push(BatchInstance {
        id: "bounded".to_string(),
        family: Some("fam-b".to_string()),
        problem: BatchProblem::Bounded(
            generator::try_bounded(7, 3, 3, 2, 1.0).expect("feasible bounded instance"),
        ),
    });
    batch.push(BatchInstance {
        id: "general".to_string(),
        family: Some("fam-g".to_string()),
        problem: BatchProblem::General(
            generator::try_general(11, 2, 2, 2).expect("SPD general instance"),
        ),
    });
    batch
}

fn options(parallelism: BatchParallelism) -> BatchOptions {
    BatchOptions {
        epsilon: 1e-9,
        max_iterations: 20_000,
        parallelism,
        ..BatchOptions::default()
    }
}

/// Two epochs (cold, then warm) under one policy, fingerprinting both.
fn run_two_epochs(
    parallelism: BatchParallelism,
    batch: &[BatchInstance],
) -> (Vec<Fingerprint>, Vec<Fingerprint>) {
    let mut engine = BatchEngine::new(options(parallelism));
    let cold = engine.solve_batch(batch, &mut NullObserver);
    let warm = engine.solve_batch(batch, &mut NullObserver);
    (fingerprints(&cold), fingerprints(&warm))
}

#[test]
fn all_parallelism_policies_are_bitwise_identical() {
    let batch = workload();
    let reference = run_two_epochs(BatchParallelism::Serial, &batch);
    for policy in [
        BatchParallelism::Outer,
        BatchParallelism::OuterThreads(1),
        BatchParallelism::OuterThreads(2),
        BatchParallelism::OuterThreads(4),
        BatchParallelism::Inner,
        BatchParallelism::InnerThreads(2),
    ] {
        let got = run_two_epochs(policy, &batch);
        assert_eq!(
            got.0, reference.0,
            "{policy:?}: cold-epoch results diverged from serial"
        );
        assert_eq!(
            got.1, reference.1,
            "{policy:?}: warm-epoch results diverged from serial"
        );
    }
}

#[test]
fn submission_order_does_not_change_per_id_results() {
    let batch = workload();
    let mut reversed = batch.clone();
    reversed.reverse();
    // Also an interleaving that is neither forward nor reverse.
    let mut shuffled = batch.clone();
    shuffled.swap(0, 3);
    shuffled.swap(1, 5);

    let by_id = |fps: Vec<Fingerprint>| {
        let mut fps = fps;
        fps.sort_by(|a, b| a.id.cmp(&b.id));
        fps
    };
    let reference = run_two_epochs(BatchParallelism::OuterThreads(2), &batch);
    let reference = (by_id(reference.0), by_id(reference.1));
    for order in [&reversed, &shuffled] {
        let got = run_two_epochs(BatchParallelism::OuterThreads(2), order);
        let got = (by_id(got.0), by_id(got.1));
        assert_eq!(got.0, reference.0, "cold epoch depends on submission order");
        assert_eq!(got.1, reference.1, "warm epoch depends on submission order");
    }
}

#[test]
fn event_streams_are_identical_across_scheduling_policies() {
    let batch = workload();
    let record = |policy: BatchParallelism| {
        let mut engine = BatchEngine::new(options(policy));
        let mut obs = sea_core::VecObserver::new();
        engine.solve_batch(&batch, &mut obs);
        // Timing fields differ run to run; compare the structural stream.
        obs.events
            .iter()
            .map(|e| e.kind())
            .collect::<Vec<&'static str>>()
    };
    let reference = record(BatchParallelism::Serial);
    for policy in [BatchParallelism::Outer, BatchParallelism::OuterThreads(3)] {
        assert_eq!(
            record(policy),
            reference,
            "{policy:?}: replayed event stream diverged"
        );
    }
}

/// `Inner` policies reach bounded instances: their passes fan out on
/// the instance's pool (the bounded `SolveStart` names it) and the result
/// is bitwise identical to the serial batch.
#[test]
fn inner_parallelism_reaches_bounded_instances_bitwise() {
    let batch: Vec<BatchInstance> = (0..2)
        .map(|i| BatchInstance {
            id: format!("bounded-{i}"),
            family: None,
            problem: BatchProblem::Bounded(
                generator::try_bounded(40 + i, 9, 8, 2, 1.0).expect("feasible bounded instance"),
            ),
        })
        .collect();
    let run = |policy: BatchParallelism| {
        let mut engine = BatchEngine::new(options(policy));
        let mut obs = sea_core::VecObserver::new();
        let report = engine.solve_batch(&batch, &mut obs);
        let labels: Vec<String> = obs
            .events
            .iter()
            .filter_map(|e| match e {
                sea_core::Event::SolveStart {
                    solver: "bounded",
                    parallelism,
                    ..
                } => Some(parallelism.clone()),
                _ => None,
            })
            .collect();
        (fingerprints(&report), labels)
    };
    let (reference, serial_labels) = run(BatchParallelism::Serial);
    assert_eq!(serial_labels, ["serial", "serial"]);
    for (policy, label) in [
        (BatchParallelism::Inner, "rayon"),
        (BatchParallelism::InnerThreads(2), "rayon:2"),
    ] {
        let (got, labels) = run(policy);
        assert_eq!(
            labels,
            [label, label],
            "{policy:?}: bounded passes stayed serial"
        );
        assert_eq!(
            got, reference,
            "{policy:?}: bounded results diverged from serial"
        );
    }
}
