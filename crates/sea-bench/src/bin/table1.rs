//! Table 1 — Computational experience with SEA on large-scale diagonal
//! quadratic constrained matrix problems (§4.1.1).
//!
//! Fixed-totals instances, 100 % dense, `x⁰ ~ U[0.1, 10000]`, chi-square
//! weights, doubled margins, ε = .01 (relative row balance). The paper ran
//! 750² … 3000² on one IBM 3090-600E processor.

use sea_bench::{paper_options, results_dir, Scale};
use sea_core::solve_diagonal;
use sea_data::table1_instance;
use sea_report::{fmt_seconds, ExperimentRecord, Table};

fn main() {
    let (scale, seed) = Scale::from_args();
    let sizes: &[usize] = match scale {
        Scale::Small => &[50, 100, 200],
        Scale::Medium => &[200, 400, 750, 1000],
        Scale::Paper => &[750, 1000, 2000, 3000],
    };

    let mut record = ExperimentRecord::new(
        "table1",
        "Table 1: SEA on large-scale diagonal quadratic constrained matrix problems",
    );
    let mut table = Table::new(
        "CPU time (single example per size)",
        &["m x n", "# nonzero variables", "iterations", "CPU time (s)"],
    );

    for &size in sizes {
        let problem = table1_instance(size, seed);
        let opts = paper_options(0.01);
        let sol = solve_diagonal(&problem, &opts).expect("solvable by construction");
        assert!(sol.stats.converged, "size {size} did not converge");
        table.push_row(vec![
            format!("{size} x {size}"),
            problem.variable_count().to_string(),
            sol.stats.iterations.to_string(),
            fmt_seconds(sol.stats.elapsed.as_secs_f64()),
        ]);
        eprintln!(
            "table1: {size}x{size} done in {} ({} iterations, residual {:.3e})",
            fmt_seconds(sol.stats.elapsed.as_secs_f64()),
            sol.stats.iterations,
            sol.stats.residual
        );
    }

    record.push_table(table);
    record.push_note(format!(
        "scale = {scale:?}, seed = {seed}, epsilon = .01 (paper setting)"
    ));
    record.push_note(
        "Paper (IBM 3090-600E, VS FORTRAN): 750^2 = 204.7s, 1000^2 = 483.2s, \
         2000^2 = 3823.2s, 3000^2 = 13561.6s; compare growth shape, not absolutes.",
    );
    record.print();
    if let Ok(path) = record.save_markdown(&results_dir()) {
        eprintln!("saved {}", path.display());
    }
}
