//! Typed CLI failure and the documented exit-code contract.
//!
//! Every [`SeaError`] variant and every non-converged [`StopReason`] maps
//! to its own exit code so scripts can branch on *why* a solve ended
//! without parsing stderr. The two `match` expressions below are
//! deliberately wildcard-free: adding a variant upstream breaks this
//! crate's compilation until the new code is assigned and documented in
//! [`crate::args::USAGE`].

use sea_core::{SeaError, StopReason};
use std::fmt;

/// Exit code for usage errors (bad flags); kept in `main`'s parse branch.
pub const EXIT_USAGE: i32 = 2;

/// A CLI failure carrying enough structure to pick its exit code.
#[derive(Debug)]
pub enum CliError {
    /// Plain operational failure (I/O, malformed files): exit 1.
    Message(String),
    /// A typed problem-validation or solver failure.
    Solver(SeaError),
    /// A supervised solve stopped before convergence. `report` is the
    /// partial estimate plus its stop/certificate trailer, ready for
    /// stdout; the process still exits nonzero so scripts notice.
    Stopped {
        /// Why the solve stopped (never `Converged` here).
        reason: StopReason,
        /// Partial estimate + `# stopped:` / `# kkt:` trailer.
        report: String,
    },
}

impl CliError {
    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Message(_) => 1,
            CliError::Solver(e) => error_exit_code(e),
            CliError::Stopped { reason, .. } => stop_exit_code(*reason),
        }
    }

    /// The partial-output payload for stdout, when there is one.
    pub fn partial_output(&self) -> Option<&str> {
        match self {
            CliError::Stopped { report, .. } => Some(report),
            _ => None,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Message(m) => f.write_str(m),
            CliError::Solver(e) => write!(f, "{e}"),
            CliError::Stopped { reason, .. } => {
                write!(f, "solve stopped early: {}", reason.name())
            }
        }
    }
}

impl From<String> for CliError {
    fn from(m: String) -> Self {
        CliError::Message(m)
    }
}

impl From<&str> for CliError {
    fn from(m: &str) -> Self {
        CliError::Message(m.to_string())
    }
}

impl From<SeaError> for CliError {
    fn from(e: SeaError) -> Self {
        CliError::Solver(e)
    }
}

/// Exit code for a typed solver/validation failure. Exhaustive on
/// purpose — see the module docs.
pub fn error_exit_code(e: &SeaError) -> i32 {
    match e {
        SeaError::Shape { .. } => 10,
        SeaError::NonPositiveWeight { .. } => 11,
        SeaError::InconsistentTotals { .. } => 12,
        SeaError::NegativeTotal { .. } => 13,
        SeaError::NonFinite { .. } => 14,
        SeaError::NotSquareSam { .. } => 15,
        SeaError::InfeasibleSubproblem { .. } => 16,
        SeaError::NumericalBreakdown { .. } => 17,
        SeaError::Linalg(_) => 18,
        SeaError::InconsistentBounds { .. } => 19,
        SeaError::WorkerPanic { .. } => 20,
        SeaError::PatternMismatch { .. } => 21,
        SeaError::SimdUnsupported => 22,
        SeaError::Unsupported { .. } => 23,
    }
}

/// Exit code for a supervised stop. `Converged` is 0 (success);
/// `Cancelled` follows the shell convention 128 + SIGINT. Exhaustive on
/// purpose — see the module docs.
pub fn stop_exit_code(s: StopReason) -> i32 {
    match s {
        StopReason::Converged => 0,
        StopReason::IterationCap => 5,
        StopReason::DeadlineExceeded => 6,
        StopReason::WorkCapExceeded => 7,
        StopReason::Stagnated => 8,
        StopReason::Breakdown => 9,
        StopReason::Cancelled => 130,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sea_linalg::LinalgError;

    /// One value of every `SeaError` variant; a new variant upstream
    /// already fails to compile in `error_exit_code`, and this list keeps
    /// the distinctness check honest.
    fn all_errors() -> Vec<SeaError> {
        vec![
            SeaError::Shape {
                context: "t",
                expected: 1,
                actual: 2,
            },
            SeaError::NonPositiveWeight {
                which: "gamma",
                index: 0,
                value: 0.0,
            },
            SeaError::InconsistentTotals {
                row_total: 1.0,
                col_total: 2.0,
            },
            SeaError::NegativeTotal {
                side: "row",
                index: 0,
                value: -1.0,
            },
            SeaError::NonFinite { context: "t" },
            SeaError::NotSquareSam { rows: 2, cols: 3 },
            SeaError::InfeasibleSubproblem {
                side: "row",
                index: 0,
            },
            SeaError::NumericalBreakdown { iteration: 1 },
            SeaError::Linalg(LinalgError::Empty { context: "t" }),
            SeaError::InconsistentBounds {
                index: 0,
                lower: 1.0,
                upper: 0.0,
            },
            SeaError::WorkerPanic {
                side: "row",
                index: 0,
                message: String::new(),
            },
            SeaError::PatternMismatch { context: "t" },
            SeaError::SimdUnsupported,
            SeaError::Unsupported {
                driver: "general",
                option: "checkpoint",
            },
        ]
    }

    #[test]
    fn every_code_is_distinct_and_documented() {
        let mut codes = vec![0, 1, EXIT_USAGE];
        codes.extend(all_errors().iter().map(error_exit_code));
        codes.extend(
            StopReason::ALL
                .iter()
                .filter(|s| **s != StopReason::Converged)
                .map(|s| stop_exit_code(*s)),
        );
        let mut sorted = codes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), codes.len(), "exit codes collide: {codes:?}");
        // Every nonzero code appears in the user-facing usage text.
        for c in &codes {
            assert!(
                crate::args::USAGE.contains(&c.to_string()),
                "exit code {c} is not documented in USAGE"
            );
        }
    }

    #[test]
    fn every_code_has_a_row_in_the_operations_guide() {
        // The operator guide documents each exit code as a markdown table
        // row whose first cell is the bare number: `| 6 | deadline … |`.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/OPERATIONS.md");
        let guide = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let mut codes = vec![0, 1, EXIT_USAGE];
        codes.extend(all_errors().iter().map(error_exit_code));
        codes.extend(StopReason::ALL.iter().map(|s| stop_exit_code(*s)));
        for c in codes {
            assert!(
                guide.contains(&format!("| {c} |")),
                "exit code {c} has no table row in docs/OPERATIONS.md"
            );
        }
    }

    #[test]
    fn stopped_carries_partial_output_and_code() {
        let e = CliError::Stopped {
            reason: StopReason::DeadlineExceeded,
            report: "1,2\n# stopped: deadline_exceeded\n".to_string(),
        };
        assert_eq!(e.exit_code(), 6);
        assert!(e.partial_output().unwrap().contains("# stopped:"));
        assert!(e.to_string().contains("deadline_exceeded"));

        let e: CliError = "plain".to_string().into();
        assert_eq!(e.exit_code(), 1);
        assert!(e.partial_output().is_none());
    }

    #[test]
    fn cancelled_follows_shell_convention() {
        assert_eq!(stop_exit_code(StopReason::Cancelled), 130);
        assert_eq!(stop_exit_code(StopReason::Converged), 0);
    }
}
