//! What one run reports: the outcome counts, the metric values the result
//! line carries, and human-readable lines printed before it.

use std::collections::BTreeMap;

/// Operations attempted, those that failed (refused, errored, or not
/// certified), and those whose output was wrong (a claimed answer that
/// failed its check).
#[derive(Debug, Default, Clone, Copy)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Outcome {
    pub fn record(&mut self, ok: bool, right: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.wrong += u64::from(!right);
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub outcome: Outcome,
    pub metrics: BTreeMap<&'static str, f64>,
    pub lines: Vec<String>,
}

impl Report {
    pub fn new(outcome: Outcome, setup_s: f64) -> Self {
        let mut r = Report {
            outcome,
            ..Report::default()
        };
        r.e2e("setup_s", setup_s);
        r.show("setup_s", setup_s, "s", 0);
        r
    }

    /// Set a metric the result line carries.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Print a named figure with its unit and sample count (0 = not a
    /// sample statistic).
    pub fn show(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        let count = if n > 0 {
            format!(" (n={n})")
        } else {
            String::new()
        };
        self.lines
            .push(format!("metric {name} = {value:.6} {unit}{count}"));
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }
}
