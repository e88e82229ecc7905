//! Warm-start correctness properties.
//!
//! Seeding a solve with cached multipliers is an *accelerator*, never an
//! *approximator*: a warm solve must land on a solution certifying against
//! the same KKT tolerance as the cold one, and on an identical repeated
//! instance it must consume no more kernel work. Instances come from the
//! shared generator's heterogeneous family — unit-weight fixtures converge
//! in a couple of sweeps, which would make both properties vacuous — and
//! from its box-bounded variant, whose warm solves run the boxed warm
//! kernel and are checked from first principles (the library has no
//! bounded certificate).

#[path = "../../sea-core/tests/common/generator.rs"]
mod generator;

use proptest::prelude::*;
use sea_batch::{BatchEngine, BatchInstance, BatchOptions, BatchProblem, BatchSolution, WarmStart};
use sea_core::{verify_solution, BoundedProblem, NullObserver, Storage};

/// KKT certification tolerance: one decade looser than the solve tolerance
/// (the convergence criterion measures residuals, the certificate measures
/// scaled stationarity; they agree only up to conditioning).
const SOLVE_EPS: f64 = 1e-10;
const KKT_TOL: f64 = 1e-6;

fn instance(seed: u64, m: usize, n: usize) -> BatchInstance {
    BatchInstance {
        id: format!("prop-{seed}"),
        family: Some(format!("fam-{seed}")),
        problem: BatchProblem::Diagonal(generator::heterogeneous(seed, m, n)),
    }
}

fn bounded_instance(seed: u64, m: usize, n: usize) -> BatchInstance {
    BatchInstance {
        id: format!("box-{seed}"),
        family: Some(format!("box-{seed}")),
        problem: BatchProblem::Bounded(generator::heterogeneous_bounded(seed, m, n)),
    }
}

/// First-principles check of a bounded answer: inside the box, stationary
/// (`x = clamp(x⁰ + (λᵢ + μⱼ)/(2γ), lo, hi)`), and feasible.
fn check_bounded(p: &BoundedProblem, outcome: Option<&BatchSolution>) -> Result<(), String> {
    let Some(BatchSolution::Bounded(s)) = outcome else {
        return Err("bounded outcome missing".to_string());
    };
    let b = &s.solution;
    let n = p.n();
    let (x, x0, g) = (b.x.values(), p.x0().values(), p.gamma().values());
    let (lo, hi) = (p.lo().values(), p.hi().values());
    for k in 0..x.len() {
        let want = (x0[k] + (b.lambda[k / n] + b.mu[k % n]) / (2.0 * g[k])).clamp(lo[k], hi[k]);
        if x[k] < lo[k] - 1e-9 || x[k] > hi[k] + 1e-9 {
            return Err(format!("x[{k}] = {} outside [{}, {}]", x[k], lo[k], hi[k]));
        }
        if (x[k] - want).abs() > KKT_TOL * x[k].abs().max(1.0) {
            return Err(format!("x[{k}] = {} is not stationary ({want})", x[k]));
        }
    }
    let scale = |t: &[f64]| t.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
    if b.residuals.rel_row_inf > KKT_TOL || b.residuals.col_inf / scale(p.d0()) > KKT_TOL {
        return Err(format!("infeasible: {:?}", b.residuals));
    }
    Ok(())
}

fn options() -> BatchOptions {
    BatchOptions {
        epsilon: SOLVE_EPS,
        max_iterations: 50_000,
        ..BatchOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn warm_start_reaches_the_same_kkt_certificate(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
    ) {
        let inst = instance(seed, m, n);
        let BatchProblem::Diagonal(problem) = &inst.problem else {
            unreachable!("diagonal by construction")
        };
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);

        let cold = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(cold.all_converged(), "cold solve must converge");
        let warm = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(warm.all_converged(), "warm solve must converge");
        prop_assert_eq!(warm.items[0].warm_start, WarmStart::Hit);

        for (tag, report) in [("cold", &cold), ("warm", &warm)] {
            let Some(Ok(BatchSolution::Diagonal(sol))) = report.items.first().map(|i| &i.outcome)
            else {
                return Err("diagonal outcome missing".to_string());
            };
            let kkt = verify_solution(problem, &sol.solution);
            prop_assert!(
                kkt.is_optimal(KKT_TOL),
                "{tag} solve fails the KKT certificate: {kkt:?}"
            );
        }
    }

    #[test]
    fn repeated_identical_instance_never_costs_more_kernel_work(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
    ) {
        let inst = instance(seed, m, n);
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);
        let cold = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(cold.all_converged());
        let warm = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(warm.all_converged());
        prop_assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
        prop_assert!(
            warm.kernel_work <= cold.kernel_work,
            "warm start did more work than cold: {} > {}",
            warm.kernel_work,
            cold.kernel_work
        );
        prop_assert_eq!(
            warm.work_saved,
            cold.kernel_work - warm.kernel_work,
            "work_saved must equal the measured difference"
        );
    }

    #[test]
    fn bounded_warm_start_passes_the_first_principles_check(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
    ) {
        let inst = bounded_instance(seed, m, n);
        let BatchProblem::Bounded(problem) = &inst.problem else {
            unreachable!("bounded by construction")
        };
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);
        let cold = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(cold.all_converged(), "cold bounded solve must converge");
        let warm = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(warm.all_converged(), "warm bounded solve must converge");
        prop_assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
        for (tag, report) in [("cold", &cold), ("warm", &warm)] {
            let outcome = report.items.first().and_then(|i| i.outcome.as_ref().ok());
            if let Err(e) = check_bounded(problem, outcome) {
                return Err(format!("{tag} bounded solve: {e}"));
            }
        }
    }

    #[test]
    fn repeated_bounded_instance_never_costs_more_kernel_work(
        seed in 0u64..1 << 48,
        m in 2usize..6,
        n in 2usize..6,
    ) {
        let inst = bounded_instance(seed, m, n);
        let mut engine = BatchEngine::new(options());
        let batch = std::slice::from_ref(&inst);
        let cold = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(cold.all_converged());
        let warm = engine.solve_batch(batch, &mut NullObserver);
        prop_assert!(warm.all_converged());
        prop_assert_eq!(warm.items[0].warm_start, WarmStart::Hit);
        prop_assert!(
            warm.kernel_work <= cold.kernel_work,
            "warm bounded start did more work than cold: {} > {}",
            warm.kernel_work,
            cold.kernel_work
        );
        prop_assert_eq!(warm.work_saved, cold.kernel_work - warm.kernel_work);
    }
}
