//! Table 4 — SEA on United States migration tables (§4.1.2).
//!
//! Nine 48×48 elastic-totals problems (three periods × variants a/b/c),
//! unit weights. The paper's qualitative findings checked here: the larger
//! growth range (`b`) is harder than the smaller (`a`), and the perturbed-
//! entries variant (`c`) solves fastest.

use sea_bench::{paper_options, results_dir, Scale};
use sea_core::solve_diagonal;
use sea_data::migration::{migration_problem, MigrationVariant, Period};
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, _seed) = Scale::from_args();

    let mut record = ExperimentRecord::new(
        "table4",
        "Table 4: SEA on United States migration tables (48 x 48, elastic totals)",
    );
    let mut table = Table::new(
        "CPU time per dataset",
        &["Dataset", "iterations", "CPU time (s)"],
    );

    let mut times = std::collections::HashMap::new();
    for period in Period::all() {
        for variant in [
            MigrationVariant::A,
            MigrationVariant::B,
            MigrationVariant::C,
        ] {
            let name = format!("MIG{}{}", period.tag(), variant.letter());
            let problem = migration_problem(period, variant);
            let sol =
                solve_diagonal(&problem, &paper_options(0.01)).expect("feasible by construction");
            assert!(sol.stats.converged, "{name} did not converge");
            let secs = sol.stats.elapsed.as_secs_f64();
            times.insert(name.clone(), (sol.stats.iterations, secs));
            table.push_row(vec![
                name.clone(),
                sol.stats.iterations.to_string(),
                fmt_seconds(secs),
            ]);
            eprintln!("table4: {name} done");
        }
    }

    record.push_table(table);
    record.push_note(format!(
        "scale = {scale:?} (fixed 48x48 size, as in the paper)"
    ));
    record.push_note(
        "Paper: a-variants 1.3-3.5s, b-variants 4.0-9.1s, c-variants ~0.8s. \
         Expected shape: iterations(b) >= iterations(a) > iterations(c).",
    );
    // Report the qualitative ordering explicitly.
    for period in Period::all() {
        let a = times[&format!("MIG{}a", period.tag())].0;
        let b = times[&format!("MIG{}b", period.tag())].0;
        let c = times[&format!("MIG{}c", period.tag())].0;
        record.push_note(format!(
            "MIG{}: iterations a={a}, b={b}, c={c} ({})",
            period.tag(),
            if b >= a && a >= c {
                "matches paper ordering"
            } else {
                "ordering differs"
            }
        ));
    }
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir()) {
        eprintln!("saved {}", path.display());
    }
}
