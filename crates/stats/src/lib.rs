//! Statistical substrate for the BAYWATCH beaconing-detection reproduction.
//!
//! The BAYWATCH pipeline (Hu et al., DSN 2016) leans on a handful of classic
//! statistical tools:
//!
//! * a **one-sample t-test** used in the pruning step (§IV, Step 2) to decide
//!   whether a candidate period is statistically compatible with the observed
//!   inter-arrival intervals,
//! * **descriptive statistics** (mean, variance, percentiles) used throughout
//!   the ranking and pruning filters,
//! * **Shannon entropy** of symbolized interval series, used as a
//!   classifier feature (§VI, Table II),
//! * the **Normal** and **Student-t** distributions backing the hypothesis
//!   tests and the synthetic noise models of the evaluation (§VIII-A).
//!
//! None of these are heavyweight enough to justify an external numerics
//! dependency, so this crate implements them from scratch on `f64`, with
//! accuracy adequate for hypothesis testing (absolute CDF error well below
//! 1e-10 for the normal distribution and below 1e-8 for Student-t).
//!
//! # Example
//!
//! ```
//! use baywatch_stats::ttest::{one_sample_ttest, Alternative};
//!
//! // Intervals observed from a beacon with a nominal 60 s period.
//! let intervals = [59.2, 60.4, 60.1, 59.7, 60.3, 59.9, 60.2];
//! let t = one_sample_ttest(&intervals, 60.0, Alternative::TwoSided).unwrap();
//! assert!(t.p_value > 0.05, "60 s should not be rejected as the true period");
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod describe;
pub mod dist;
pub mod entropy;
pub mod special;
pub mod ttest;

pub use describe::{mean, percentile, std_dev, variance, Summary};
pub use dist::{Normal, StudentsT};
pub use entropy::shannon_entropy;
pub use ttest::{one_sample_ttest, Alternative, TTestResult};

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input sample was empty or too small for the requested statistic.
    InsufficientData {
        /// Number of observations required.
        required: usize,
        /// Number of observations provided.
        actual: usize,
    },
    /// A distribution parameter was out of its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
    /// The sample variance was zero where a positive variance is required.
    ZeroVariance,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InsufficientData { required, actual } => write!(
                f,
                "insufficient data: required at least {required} observations, got {actual}"
            ),
            StatsError::InvalidParameter { name, constraint } => {
                write!(f, "invalid parameter `{name}`: {constraint}")
            }
            StatsError::ZeroVariance => write!(f, "sample variance is zero"),
        }
    }
}

impl std::error::Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = StatsError::InsufficientData {
            required: 2,
            actual: 0,
        };
        assert!(!e.to_string().is_empty());
        let e = StatsError::InvalidParameter {
            name: "sigma",
            constraint: "must be positive",
        };
        assert!(e.to_string().contains("sigma"));
        assert!(!StatsError::ZeroVariance.to_string().is_empty());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<StatsError>();
    }
}
