//! Table 8 — SEA on general constrained matrix problems consisting of US
//! migration tables with 100 % dense G (§5.1.2): six 48×48 problems,
//! G of order 2304, ε′ = .001.

use sea_bench::{paper_general_options, results_dir, Scale};
use sea_core::solve_general;
use sea_data::migration::{migration_general, Period};
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, _seed) = Scale::from_args();

    let mut record = ExperimentRecord::new(
        "table8",
        "Table 8: SEA on general migration problems, dense G (2304 x 2304)",
    );
    let mut table = Table::new(
        "CPU time per dataset (epsilon' = .001)",
        &["Dataset", "outer iters", "inner iters", "CPU time (s)"],
    );

    for period in Period::all() {
        for perturb in [false, true] {
            let name = format!("GMIG{}{}", period.tag(), if perturb { 'b' } else { 'a' });
            let p = migration_general(period, perturb);
            let sol = solve_general(&p, &paper_general_options(0.001)).expect("solvable");
            assert!(sol.converged, "{name} did not converge");
            table.push_row(vec![
                name.clone(),
                sol.outer_iterations.to_string(),
                sol.inner_iterations.to_string(),
                fmt_seconds(sol.elapsed.as_secs_f64()),
            ]);
            eprintln!("table8: {name} done");
        }
    }

    record.push_table(table);
    record.push_note(format!(
        "scale = {scale:?} (fixed 48x48 / G 2304^2, as in the paper)"
    ));
    record.push_note(
        "Paper: all six examples ~23-29 CPU seconds with epsilon' = .001; the \
         dominant cost is the dense 2304^2 G mat-vec per projection step, so \
         all six datasets should take nearly identical time.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir()) {
        eprintln!("saved {}", path.display());
    }
}
