//! Shared experiment drivers for the speedup studies (Table 6/Figure 5 and
//! Table 9/Figure 7), so the table and figure binaries report identical
//! numbers.

use crate::{paper_general_options, paper_options, paper_rc_options, trace_to_phases, Scale};
use sea_baselines::rc::solve_general_rc;
use sea_core::solve_diagonal;
use sea_data::io_tables::{io_dataset, IoVariant};
use sea_data::{table1_instance, table7_instance};
use sea_parsim::SimPhase;
use sea_parsim::{speedup_table, MachineModel, SpeedupRow};
use sea_spatial::random_spe;

/// Processor counts of the paper's diagonal speedup study.
pub const DIAGONAL_PROCESSORS: [usize; 4] = [1, 2, 4, 6];
/// Processor counts of the paper's general speedup study.
pub const GENERAL_PROCESSORS: [usize; 3] = [1, 2, 4];

/// Scalar penalty of the "vector-era machine": on the IBM 3090-600E the
/// parallel equilibration/mat-vec phases ran on the Vector Facility while
/// the serial convergence-verification phases ran scalar, making serial
/// work ~this much more expensive relative to parallel work than on a
/// modern SIMD CPU (where compilers vectorize the serial checks too).
pub const VECTOR_ERA_SCALAR_PENALTY: f64 = 30.0;

/// Rescale a phase list to the vector-era machine: serial phases cost
/// [`VECTOR_ERA_SCALAR_PENALTY`]× more relative to parallel phases.
pub fn vector_era_phases(phases: &[SimPhase]) -> Vec<SimPhase> {
    phases
        .iter()
        .map(|ph| {
            if ph.parallel {
                ph.clone()
            } else {
                SimPhase::serial(
                    ph.tasks
                        .iter()
                        .map(|&t| t * VECTOR_ERA_SCALAR_PENALTY)
                        .collect(),
                )
            }
        })
        .collect()
}

fn speedups_from_trace(
    trace: &sea_core::trace::ExecutionTrace,
    processors: &[usize],
) -> Vec<SpeedupRow> {
    let phases = trace_to_phases(trace);
    speedup_table(
        &phases,
        processors,
        MachineModel::DEFAULT_DISPATCH_OVERHEAD,
        MachineModel::DEFAULT_FORK_JOIN_OVERHEAD,
    )
}

/// Table 6 / Figure 5: run the four diagonal examples (IO72b, the Table 1
/// 1000×1000 instance, SP500×500, SP750×750) with trace recording and
/// simulate N ∈ {1,2,4,6} processors. Returns `(example name, rows)`.
pub fn diagonal_speedup_experiment(scale: Scale, seed: u64) -> Vec<(String, Vec<SpeedupRow>)> {
    let mut out = Vec::new();

    // IO72b (fixed totals; scale shrinks the companion random instance
    // sizes but the I/O dataset is fixed-size).
    {
        let p = io_dataset(
            IoVariant {
                family: 2,
                variant: 'b',
            },
            0,
        );
        let mut opts = paper_options(0.01);
        opts.record_trace = true;
        let sol = solve_diagonal(&p, &opts).expect("feasible");
        let trace = sol.stats.trace.expect("trace requested");
        out.push((
            "IO72b".to_string(),
            speedups_from_trace(&trace, &DIAGONAL_PROCESSORS),
        ));
    }

    // The Table 1 random instance (1000×1000 at paper scale).
    {
        let size = match scale {
            Scale::Small => 200,
            Scale::Medium => 500,
            Scale::Paper => 1000,
        };
        let p = table1_instance(size, seed);
        let mut opts = paper_options(0.01);
        opts.record_trace = true;
        let sol = solve_diagonal(&p, &opts).expect("feasible");
        let trace = sol.stats.trace.expect("trace requested");
        out.push((
            format!("{size} x {size}"),
            speedups_from_trace(&trace, &DIAGONAL_PROCESSORS),
        ));
    }

    // SP500 and SP750 (elastic; convergence checked every other iteration,
    // as §4.2 describes).
    let (sp_small, sp_large) = match scale {
        Scale::Small => (100, 150),
        Scale::Medium => (250, 400),
        Scale::Paper => (500, 750),
    };
    for size in [sp_small, sp_large] {
        let spe = random_spe(size, size, seed);
        let cmp = spe.to_constrained_matrix().expect("valid");
        let mut opts = paper_options(0.01);
        opts.check_every = 2;
        opts.record_trace = true;
        let sol = solve_diagonal(&cmp, &opts).expect("feasible");
        let trace = sol.stats.trace.expect("trace requested");
        out.push((
            format!("SP{size} x {size}"),
            speedups_from_trace(&trace, &DIAGONAL_PROCESSORS),
        ));
    }

    out
}

/// Table 9 / Figure 7: SEA vs RC on the general dense-G example
/// (10000×10000 G at paper scale), simulated at N ∈ {1,2,4}.
///
/// Returns four series: SEA and RC on the modern measured-trace machine,
/// plus both on the "vector-era machine" (serial phases ×
/// [`VECTOR_ERA_SCALAR_PENALTY`]) that reproduces the 3090's
/// serial-phase-dominated efficiency gap between the two algorithms.
pub fn general_speedup_experiment(scale: Scale, seed: u64) -> Vec<(String, Vec<SpeedupRow>)> {
    let side = match scale {
        Scale::Small => 20,
        Scale::Medium => 50,
        Scale::Paper => 100,
    };
    let p = table7_instance(side, seed);
    let g_order = side * side;

    let mut sea_opts = paper_general_options(0.001);
    sea_opts.record_trace = true;
    let sea = sea_core::solve_general(&p, &sea_opts).expect("solvable");
    assert!(sea.converged, "general SEA did not converge");
    let sea_phases = trace_to_phases(sea.trace.as_ref().expect("trace"));

    let mut rc_opts = paper_rc_options(0.001);
    rc_opts.record_trace = true;
    let rc = solve_general_rc(&p, &rc_opts).expect("solvable");
    assert!(rc.converged, "general RC did not converge");
    let rc_phases = trace_to_phases(rc.trace.as_ref().expect("trace"));

    let run = |phases: &[SimPhase]| {
        speedup_table(
            phases,
            &GENERAL_PROCESSORS,
            MachineModel::DEFAULT_DISPATCH_OVERHEAD,
            MachineModel::DEFAULT_FORK_JOIN_OVERHEAD,
        )
    };

    vec![
        (format!("SEA {g_order} x {g_order}"), run(&sea_phases)),
        (format!("RC {g_order} x {g_order}"), run(&rc_phases)),
        (
            format!("SEA {g_order} x {g_order} (vector-era)"),
            run(&vector_era_phases(&sea_phases)),
        ),
        (
            format!("RC {g_order} x {g_order} (vector-era)"),
            run(&vector_era_phases(&rc_phases)),
        ),
    ]
}
