//! Table 5 — SEA on spatial price equilibrium problems (§4.1.2).
//!
//! Linear separable SPE instances SP50×50 … SP750×750, solved through the
//! SPE ⇄ constrained-matrix isomorphism, ε = .01. Every solution's
//! equilibrium conditions are verified before reporting.

use sea_bench::{paper_options, results_dir, Scale};
use sea_report::{fmt_seconds, ExperimentRecord, Table};
use sea_spatial::{random_spe, solve_spe};

fn main() {
    let (scale, seed) = Scale::from_args();
    let sizes: &[usize] = match scale {
        Scale::Small => &[50, 100],
        Scale::Medium => &[50, 100, 250, 500],
        Scale::Paper => &[50, 100, 250, 500, 750],
    };

    let mut record = ExperimentRecord::new(
        "table5",
        "Table 5: SEA on spatial price equilibrium problems",
    );
    let mut table = Table::new(
        "CPU time per instance (epsilon = .01)",
        &[
            "m x n",
            "# variables",
            "iterations",
            "CPU time (s)",
            "max equilibrium violation",
        ],
    );

    for &size in sizes {
        let spe = random_spe(size, size, seed);
        // The paper checked convergence every other iteration for these
        // elastic problems (§4.2).
        let mut opts = paper_options(0.01);
        opts.check_every = 2;
        let sol = solve_spe(&spe, &opts).expect("valid instance");
        assert!(sol.converged, "SP{size} did not converge");
        let viol = sol
            .report
            .max_price_violation
            .max(sol.report.max_complementarity_gap / sol.report.total_flow.max(1.0));
        table.push_row(vec![
            format!("SP{size} x {size}"),
            (size * size).to_string(),
            sol.iterations.to_string(),
            fmt_seconds(sol.elapsed.as_secs_f64()),
            format!("{viol:.2e}"),
        ]);
        eprintln!("table5: SP{size} done ({} iterations)", sol.iterations);
    }

    record.push_table(table);
    record.push_note(format!("scale = {scale:?}, seed = {seed}"));
    record.push_note(
        "Paper CPU seconds: SP50 1.38, SP100 11.26, SP250 129.5, SP500 540.7, \
         SP750 1589.1. Elastic problems need far more iterations than the fixed \
         Table 1 problems (paper: 84 for SP500, 104 for SP750).",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir()) {
        eprintln!("saved {}", path.display());
    }
}
