//! # sea-bench — the paper's experiment harness
//!
//! One binary per table/figure of the evaluation section; each prints the
//! same rows/series the paper reports and writes `results/<id>.md`:
//!
//! | binary    | reproduces |
//! |-----------|------------|
//! | `table1`  | Table 1 — SEA on large-scale diagonal problems |
//! | `table2`  | Table 2 — SEA on US input/output datasets |
//! | `table3`  | Table 3 — SEA on social accounting matrices |
//! | `table4`  | Table 4 — SEA on US migration tables |
//! | `table5`  | Table 5 — SEA on spatial price equilibrium problems |
//! | `table6`  | Table 6 + Figure 5 — parallel speedups, diagonal problems |
//! | `table7`  | Table 7 — SEA vs RC vs B-K, general problems, dense G |
//! | `table8`  | Table 8 — SEA on general migration problems |
//! | `table9`  | Table 9 + Figure 7 — parallel speedups, general problems |
//! | `fig5`    | Figure 5 speedup series (CSV) |
//! | `fig7`    | Figure 7 speedup series (CSV) |
//! | `ablation`| extra: sorting / check-cadence ablations (DESIGN.md §8) |
//! | `theory_check` | extra: empirical validation of the §3.1 convergence theory |
//! | `weights_study` | extra: weight-scheme conditioning study |
//! | `run_all` | everything above in sequence |
//!
//! Every binary accepts `--scale {small|medium|paper}` (default `medium`)
//! to trade fidelity for runtime, and `--seed <u64>`.

pub mod experiments;

use sea_baselines::rc::RcOptions;
use sea_core::trace::ExecutionTrace;
use sea_core::{GeneralSeaOptions, KernelKind, SeaOptions};
use sea_parsim::SimPhase;
use std::path::PathBuf;

/// SEA options of the paper-table and figure reproductions at tolerance
/// `epsilon`. They pin the sort-scan oracle kernel rather than the
/// library default: its `7n + n·ln n + 2n` operation profile is the one
/// the paper's timings and the speedup simulations' task costs assume.
pub fn paper_options(epsilon: f64) -> SeaOptions {
    SeaOptions {
        kernel: KernelKind::SortScan,
        ..SeaOptions::with_epsilon(epsilon)
    }
}

/// [`paper_options`] for the general driver (its inner diagonal solves).
pub fn paper_general_options(epsilon: f64) -> GeneralSeaOptions {
    let mut opts = GeneralSeaOptions::with_epsilon(epsilon);
    opts.inner.kernel = KernelKind::SortScan;
    opts
}

/// [`paper_options`] for the RC baseline's half-step subproblems.
pub fn paper_rc_options(epsilon: f64) -> RcOptions {
    RcOptions {
        kernel: KernelKind::SortScan,
        ..RcOptions::with_epsilon(epsilon)
    }
}

/// Problem-size scaling for the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test sizes (seconds).
    Small,
    /// Reduced but representative sizes (default).
    Medium,
    /// The paper's full problem sizes.
    Paper,
}

impl Scale {
    /// Parse `--scale` and `--seed` from `std::env::args`. Unknown
    /// arguments are ignored so binaries can add their own flags.
    pub fn from_args() -> (Scale, u64) {
        let args: Vec<String> = std::env::args().collect();
        let mut scale = Scale::Medium;
        let mut seed = 1990; // the paper's year, for determinism
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    if let Some(v) = it.next() {
                        scale = match v.as_str() {
                            "small" => Scale::Small,
                            "paper" => Scale::Paper,
                            _ => Scale::Medium,
                        };
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next() {
                        seed = v.parse().unwrap_or(seed);
                    }
                }
                _ => {}
            }
        }
        (scale, seed)
    }
}

/// Convert a solver [`ExecutionTrace`] into simulator phases: parallel
/// phases keep their per-task costs; serial phases (convergence checks)
/// become serial `SimPhase`s.
pub fn trace_to_phases(trace: &ExecutionTrace) -> Vec<SimPhase> {
    trace
        .phases
        .iter()
        .map(|ph| match ph.kind {
            k if !k.is_parallel() => SimPhase::serial(ph.task_seconds.clone()),
            sea_core::trace::PhaseKind::Projection => {
                // Dense mat-vec: bandwidth-bound on a shared-memory machine.
                SimPhase::parallel_memory_bound(ph.task_seconds.clone())
            }
            _ => SimPhase::parallel(ph.task_seconds.clone()),
        })
        .collect()
}

/// Directory experiment records are written to (`./results`).
pub fn results_dir() -> PathBuf {
    PathBuf::from("results")
}

/// Standard speedup columns used by Tables 6 and 9.
pub fn speedup_rows_to_table(
    table: &mut sea_report::Table,
    example: &str,
    rows: &[sea_parsim::SpeedupRow],
) {
    for r in rows {
        if r.processors == 1 {
            continue; // the paper lists N ≥ 2 only
        }
        table.push_row(vec![
            example.to_string(),
            r.processors.to_string(),
            format!("{:.2}", r.speedup),
            format!("{:.2}%", 100.0 * r.efficiency),
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_core::trace::PhaseKind;

    #[test]
    fn trace_conversion_respects_parallelism() {
        let mut tr = ExecutionTrace::new();
        tr.push(PhaseKind::RowEquilibration, vec![1.0, 2.0]);
        tr.push(PhaseKind::ConvergenceCheck, vec![0.5]);
        let phases = trace_to_phases(&tr);
        assert!(phases[0].parallel);
        assert!(!phases[1].parallel);
        assert_eq!(phases[0].tasks, vec![1.0, 2.0]);
    }

    #[test]
    fn vector_era_scaling_penalizes_serial_phases_only() {
        use crate::experiments::{vector_era_phases, VECTOR_ERA_SCALAR_PENALTY};
        let phases = vec![
            SimPhase::parallel(vec![1.0, 2.0]),
            SimPhase::serial(vec![0.5]),
            SimPhase::parallel_memory_bound(vec![3.0]),
        ];
        let scaled = vector_era_phases(&phases);
        assert_eq!(scaled[0].tasks, vec![1.0, 2.0]);
        assert_eq!(scaled[1].tasks, vec![0.5 * VECTOR_ERA_SCALAR_PENALTY]);
        assert_eq!(scaled[2].tasks, vec![3.0]);
        assert!(scaled[2].memory_bound);
    }

    #[test]
    fn projection_phases_convert_to_memory_bound() {
        let mut tr = ExecutionTrace::new();
        tr.push(PhaseKind::Projection, vec![0.1; 4]);
        let phases = trace_to_phases(&tr);
        assert!(phases[0].parallel);
        assert!(phases[0].memory_bound);
    }

    #[test]
    fn speedup_table_skips_n1() {
        let mut t = sea_report::Table::new("t", &["Example", "N", "S_N", "E_N"]);
        let rows = vec![
            sea_parsim::SpeedupRow {
                processors: 1,
                time: 1.0,
                speedup: 1.0,
                efficiency: 1.0,
            },
            sea_parsim::SpeedupRow {
                processors: 2,
                time: 0.52,
                speedup: 1.92,
                efficiency: 0.96,
            },
        ];
        speedup_rows_to_table(&mut t, "X", &rows);
        assert_eq!(t.len(), 1);
    }
}
