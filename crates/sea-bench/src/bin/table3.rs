//! Table 3 — SEA on social accounting matrix datasets (§4.1.2).
//!
//! Balanced (SAM) estimation problems: STONE, TURK, SRI, USDA82E, and the
//! large random S500/S750/S1000. Convergence tolerance ε = .001 (relative
//! row balance), per the paper.

use sea_bench::{paper_options, results_dir, Scale};
use sea_core::solve_diagonal;
use sea_data::sam::{sam_problem, SamInstance};
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, seed) = Scale::from_args();
    let instances: Vec<SamInstance> = match scale {
        Scale::Small => vec![
            SamInstance::Stone,
            SamInstance::Turk,
            SamInstance::Sri,
            SamInstance::Usda82e,
        ],
        Scale::Medium | Scale::Paper => SamInstance::all().to_vec(),
    };

    let mut record = ExperimentRecord::new(
        "table3",
        "Table 3: SEA on social accounting matrix datasets",
    );
    let mut table = Table::new(
        "CPU time per dataset (epsilon = .001)",
        &[
            "Dataset",
            "# accounts",
            "# transactions",
            "iterations",
            "CPU time (s)",
        ],
    );

    for inst in instances {
        let problem = sam_problem(inst, seed);
        let sol =
            solve_diagonal(&problem, &paper_options(0.001)).expect("feasible by construction");
        assert!(sol.stats.converged, "{} did not converge", inst.name());
        table.push_row(vec![
            inst.name().to_string(),
            inst.accounts().to_string(),
            problem.x0().count_nonzero().to_string(),
            sol.stats.iterations.to_string(),
            fmt_seconds(sol.stats.elapsed.as_secs_f64()),
        ]);
        eprintln!("table3: {} done", inst.name());
    }

    record.push_table(table);
    record.push_note(format!("scale = {scale:?}, seed = {seed}"));
    record.push_note(
        "Paper CPU seconds: STONE .0024, TURK .0210, SRI .009, USDA82E 5.76, \
         S500 28.99, S750 52.60, S1000 95.08 — small real SAMs in fractions of a \
         second, large random SAMs scaling roughly with account count squared.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir()) {
        eprintln!("saved {}", path.display());
    }
}
