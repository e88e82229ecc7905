//! Error type for problem validation and solver failures.

use sea_linalg::LinalgError;
use std::fmt;

/// Errors raised by problem constructors and the SEA solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SeaError {
    /// A vector or matrix had the wrong shape for the problem.
    Shape {
        /// What was being validated.
        context: &'static str,
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// A weight that must be strictly positive was not.
    NonPositiveWeight {
        /// Which weight family (`gamma`, `alpha`, `beta`, diagonal of G/A/B).
        which: &'static str,
        /// Flat index of the offending entry.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Fixed row and column totals must carry the same grand total
    /// (`Σᵢ s⁰ᵢ = Σⱼ d⁰ⱼ`), else the transportation polytope is empty.
    InconsistentTotals {
        /// Sum of the row totals.
        row_total: f64,
        /// Sum of the column totals.
        col_total: f64,
    },
    /// A fixed total was negative (entries are constrained nonnegative, so
    /// no nonnegative matrix can produce a negative margin).
    NegativeTotal {
        /// `"row"` or `"column"`.
        side: &'static str,
        /// Index of the offending total.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// Input data contained NaN or infinity.
    NonFinite {
        /// What was being validated.
        context: &'static str,
    },
    /// The SAM (balanced) problem requires a square prior matrix.
    NotSquareSam {
        /// Row count of the prior.
        rows: usize,
        /// Column count of the prior.
        cols: usize,
    },
    /// A subproblem was infeasible, e.g. a structural all-zero row with a
    /// strictly positive fixed total.
    InfeasibleSubproblem {
        /// `"row"` or `"column"`.
        side: &'static str,
        /// Index of the infeasible subproblem.
        index: usize,
    },
    /// The solver produced a non-finite iterate (numerical breakdown).
    NumericalBreakdown {
        /// Iteration at which breakdown was detected.
        iteration: usize,
    },
    /// An underlying linear-algebra error.
    Linalg(LinalgError),
    /// Box-constrained problems require `lower ≤ upper` and bounds
    /// compatible with the totals.
    InconsistentBounds {
        /// Flat index of the offending entry, if entry-level.
        index: usize,
        /// The offending lower bound.
        lower: f64,
        /// The offending upper bound.
        upper: f64,
    },
    /// Two sparse matrices that must share a support pattern (e.g. the
    /// prior `X⁰` and its weight table `Γ`) did not.
    PatternMismatch {
        /// What was being validated.
        context: &'static str,
    },
    /// SIMD execution was forced (`SimdMode::Force`) but the running CPU
    /// does not support the required instruction set (AVX2).
    SimdUnsupported,
    /// A parallel equilibration worker panicked; the panic was contained
    /// by the supervisor instead of aborting the process.
    WorkerPanic {
        /// `"row"` or `"column"`.
        side: &'static str,
        /// Index of the subproblem whose worker panicked.
        index: usize,
        /// The panic payload's message, when it was a string.
        message: String,
    },
    /// A driver was asked to honour an option it cannot express (e.g. a
    /// checkpoint of a general solve). Refused up front, before any work,
    /// so no option is ever silently ignored.
    Unsupported {
        /// Driver name (`"bounded"`, `"general"`).
        driver: &'static str,
        /// The refused option (`SeaOptions` or `SupervisorOptions` field).
        option: &'static str,
    },
}

impl fmt::Display for SeaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeaError::Shape {
                context,
                expected,
                actual,
            } => write!(f, "shape error in {context}: expected {expected}, got {actual}"),
            SeaError::NonPositiveWeight { which, index, value } => write!(
                f,
                "weight {which}[{index}] = {value} must be strictly positive"
            ),
            SeaError::InconsistentTotals {
                row_total,
                col_total,
            } => write!(
                f,
                "fixed totals are inconsistent: sum of row totals {row_total} != sum of column totals {col_total}"
            ),
            SeaError::NegativeTotal { side, index, value } => {
                write!(f, "{side} total [{index}] = {value} is negative")
            }
            SeaError::NonFinite { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
            SeaError::NotSquareSam { rows, cols } => write!(
                f,
                "SAM (balanced) problems require a square prior, got {rows}x{cols}"
            ),
            SeaError::InfeasibleSubproblem { side, index } => write!(
                f,
                "{side} subproblem {index} is infeasible (no active entries but positive total)"
            ),
            SeaError::NumericalBreakdown { iteration } => {
                write!(f, "numerical breakdown at iteration {iteration}")
            }
            SeaError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            SeaError::InconsistentBounds {
                index,
                lower,
                upper,
            } => write!(
                f,
                "inconsistent bounds at entry {index}: lower {lower} > upper {upper}"
            ),
            SeaError::PatternMismatch { context } => {
                write!(f, "sparse pattern mismatch in {context}")
            }
            SeaError::SimdUnsupported => write!(
                f,
                "SIMD execution was forced but this CPU does not support AVX2 \
                 (use --simd auto for runtime dispatch with a portable fallback)"
            ),
            SeaError::WorkerPanic {
                side,
                index,
                message,
            } => write!(
                f,
                "{side} equilibration worker {index} panicked: {message}"
            ),
            SeaError::Unsupported { driver, option } => {
                write!(f, "the {driver} driver does not support option `{option}`")
            }
        }
    }
}

impl std::error::Error for SeaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SeaError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for SeaError {
    fn from(e: LinalgError) -> Self {
        SeaError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SeaError::InconsistentTotals {
            row_total: 10.0,
            col_total: 11.0,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("11"));

        let e = SeaError::NonPositiveWeight {
            which: "gamma",
            index: 3,
            value: 0.0,
        };
        assert!(e.to_string().contains("gamma[3]"));
    }

    #[test]
    fn inconsistent_bounds_reports_offending_values() {
        let e = SeaError::InconsistentBounds {
            index: 5,
            lower: 2.5,
            upper: 1.25,
        };
        let s = e.to_string();
        assert!(s.contains("entry 5"), "{s}");
        assert!(s.contains("2.5"), "{s}");
        assert!(s.contains("1.25"), "{s}");
    }

    #[test]
    fn worker_panic_reports_side_index_and_message() {
        let e = SeaError::WorkerPanic {
            side: "row",
            index: 7,
            message: "index out of bounds".to_string(),
        };
        let s = e.to_string();
        assert!(s.contains("row"), "{s}");
        assert!(s.contains('7'), "{s}");
        assert!(s.contains("index out of bounds"), "{s}");
    }

    #[test]
    fn linalg_conversion_preserves_source() {
        let le = LinalgError::Empty { context: "x" };
        let e: SeaError = le.clone().into();
        assert_eq!(e, SeaError::Linalg(le));
        assert!(std::error::Error::source(&e).is_some());
    }
}
