//! Observability substrate for the BAYWATCH pipeline: a metrics registry
//! (monotonic counters, gauges, fixed-bucket histograms with exact merge
//! semantics), injectable clocks, and a lightweight stage tracer.
//!
//! The paper's operational story (§V: 30 B events over 5 months, the
//! Tables III–VI funnel volumes) depends on knowing exactly how many pairs
//! each of the 8 filtering steps admits, drops, sheds, or quarantines —
//! and where the time goes. Large-scale enterprise detectors live or die
//! by per-stage volume/latency accounting (Oprea et al., MORTON); this
//! crate is that accounting layer, built under two hard constraints:
//!
//! * **zero external dependencies**, so every crate in the workspace —
//!   including the deterministic set policed by `baywatch-lint` — can
//!   embed it;
//! * **determinism-safe by construction**: counter and value-histogram
//!   updates are pure functions of the analyzed data, while anything
//!   wall-clock-derived (span durations, phase timings) is quarantined in
//!   a separate *timings* section that the deterministic JSON export
//!   ([`MetricsSnapshot::to_json`]) never includes. Time itself is
//!   injected through the [`Clock`] trait — [`MonotonicClock`] in
//!   production, [`ManualClock`] in tests — so the one real wall-clock
//!   read in the workspace's deterministic crates lives here, behind a
//!   single audited allowlist entry.
//!
//! ```
//! use std::sync::Arc;
//! use baywatch_obs::{Buckets, ManualClock, MetricsRegistry, StageTracer};
//!
//! let registry = Arc::new(MetricsRegistry::new());
//! let admitted = registry.counter("stage.whitelist.admitted");
//! admitted.add(42);
//!
//! let clock = Arc::new(ManualClock::new());
//! let tracer = StageTracer::new(clock.clone());
//! {
//!     let _span = tracer.span("analyze");
//!     clock.advance(1_000);
//! }
//! let spans = tracer.finished();
//! assert_eq!(spans[0].path, "analyze");
//! assert_eq!(spans[0].duration_nanos, 1_000);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["stage.whitelist.admitted"], 42);
//! assert!(snapshot.to_json().contains("stage.whitelist.admitted"));
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod hist;
pub mod json;
pub mod registry;
pub mod trace;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use hist::{Buckets, Histogram, HistogramSnapshot};
pub use json::{JsonParseError, JsonValue, JsonWriter};
pub use registry::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
pub use trace::{SpanRecord, StageTracer};

/// Errors surfaced by the observability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsError {
    /// Bucket bounds were empty or not strictly increasing.
    InvalidBuckets(String),
    /// Two histograms with different bucket layouts cannot be merged
    /// exactly; the merge is refused rather than approximated.
    BucketMismatch {
        /// Bounds of the left-hand histogram.
        left: Vec<u64>,
        /// Bounds of the right-hand histogram.
        right: Vec<u64>,
    },
}

impl std::fmt::Display for ObsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsError::InvalidBuckets(why) => write!(f, "invalid histogram buckets: {why}"),
            ObsError::BucketMismatch { left, right } => write!(
                f,
                "histogram bucket layouts differ ({left:?} vs {right:?}); exact merge refused"
            ),
        }
    }
}

impl std::error::Error for ObsError {}
