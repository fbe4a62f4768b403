//! The BAYWATCH 8-step beaconing-detection pipeline (Hu et al., DSN 2016).
//!
//! BAYWATCH analyzes web-proxy (or DNS/Netflow) logs to expose *beaconing*:
//! periodic callbacks from infected hosts to command-and-control servers.
//! Starting from the assumption that *every* event in the window may be
//! relevant, it applies eight filters grouped into four phases (Fig. 3 of
//! the paper):
//!
//! | # | Filter | Phase | Module |
//! |---|--------|-------|--------|
//! | 1 | Global whitelist | Whitelist analysis | [`whitelist`], [`popularity`] |
//! | 2 | Local whitelist (popularity τ_P) | Whitelist analysis | [`whitelist`], [`popularity`] |
//! | 3 | Periodicity detection (periodogram → pruning → ACF) | Time-series analysis | [`baywatch_timeseries`] |
//! | 4 | URL-token filter | Suspicious-indication analysis | [`tokens`] |
//! | 5 | Novelty analysis | Suspicious-indication analysis | [`novelty`] |
//! | 6 | Language-model scoring | Suspicious-indication analysis | [`baywatch_langmodel`] |
//! | 7 | Weighted ranking + percentile threshold | Suspicious-indication analysis | [`rank`] |
//! | 8 | Bootstrap classification & uncertainty triage | Investigation | [`investigate`] |
//!
//! Each phase is also expressible as a MapReduce job ([`jobs`]) mirroring
//! §VII of the paper. Filters 1, 2 and 4–7 live once in the crate-private
//! `funnel` module; [`pipeline::Baywatch`] (one window at a time) and
//! [`stream::StreamingHunt`] (one tick at a time) both call it:
//!
//! ```
//! use baywatch_core::pipeline::{Baywatch, BaywatchConfig};
//! use baywatch_core::record::LogRecord;
//!
//! // A tiny window: one beaconing pair and some human noise.
//! let mut records = Vec::new();
//! for i in 0..120u64 {
//!     records.push(LogRecord::new(1_000 + i * 60, "host-a", "qwzkrvbplm.com", "a1b2c3"));
//! }
//! for i in 0..40u64 {
//!     records.push(LogRecord::new(1_000 + i * i * 13 % 7200, "host-b", "news-site.com", "index"));
//! }
//!
//! // The paper's τ_P = 1% assumes a 130 K-host population; this toy window
//! // has two hosts, so relax the local whitelist accordingly.
//! let mut engine = Baywatch::new(BaywatchConfig {
//!     local_tau: 0.9,
//!     ..Default::default()
//! });
//! let report = engine.analyze(records);
//! assert!(report
//!     .ranked
//!     .iter()
//!     .any(|c| c.case.pair.destination == "qwzkrvbplm.com"));
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

pub mod activity;
pub mod admission;
pub mod elff;
mod funnel;
pub mod investigate;
pub mod io;
pub mod jobs;
pub mod novelty;
pub mod pair;
pub mod pipeline;
pub mod popularity;
pub mod rank;
pub mod record;
pub mod report;
pub mod schedule;
pub mod stream;
pub mod tokens;
pub mod whitelist;

pub use pair::CommunicationPair;
pub use pipeline::{AnalysisReport, Baywatch, BaywatchConfig};
pub use record::LogRecord;
pub use schedule::ScheduleSpec;
pub use stream::{StreamConfig, StreamLedger, StreamingHunt, TickReport};

/// Errors from the pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value was out of range.
    InvalidConfig {
        /// Offending parameter.
        name: &'static str,
        /// Constraint violated.
        constraint: &'static str,
    },
    /// The time-series layer failed.
    TimeSeries(baywatch_timeseries::TimeSeriesError),
    /// The classifier layer failed.
    Classifier(baywatch_classifier::TrainError),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { name, constraint } => {
                write!(f, "invalid config `{name}`: {constraint}")
            }
            CoreError::TimeSeries(e) => write!(f, "time-series error: {e}"),
            CoreError::Classifier(e) => write!(f, "classifier error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::TimeSeries(e) => Some(e),
            CoreError::Classifier(e) => Some(e),
            CoreError::InvalidConfig { .. } => None,
        }
    }
}

impl From<baywatch_timeseries::TimeSeriesError> for CoreError {
    fn from(e: baywatch_timeseries::TimeSeriesError) -> Self {
        CoreError::TimeSeries(e)
    }
}

impl From<baywatch_classifier::TrainError> for CoreError {
    fn from(e: baywatch_classifier::TrainError) -> Self {
        CoreError::Classifier(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        let e: CoreError = baywatch_classifier::TrainError::EmptyTrainingSet.into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(!e.to_string().is_empty());
        let e: CoreError = baywatch_timeseries::TimeSeriesError::ZeroSpan.into();
        assert!(e.to_string().contains("time-series"));
    }
}
