//! Deterministic resilience primitives for the BAYWATCH pipeline.
//!
//! The paper's deployment (§VIII-B2) is a continuously-fed service at an
//! enterprise edge: ingest bursts, flapping log sources, slow checkpoint
//! storage and malformed shards are routine, and the detector must degrade
//! gracefully rather than fall over. This crate provides the three
//! production-shaped mechanisms for that, each built so its behavior is a
//! pure function of its inputs:
//!
//! * [`CircuitBreaker`] — a Closed/Open/HalfOpen state machine guarding a
//!   dependency (a log source, a checkpoint directory). Time is injected
//!   through the [`Clock`](baywatch_obs::Clock) trait from `baywatch-obs`,
//!   so under a [`ManualClock`](baywatch_obs::ManualClock) every
//!   transition is byte-reproducible.
//! * [`RetryPolicy`] — exponential backoff with deterministic seeded
//!   jitter. Delays are computed with integer arithmetic from a seeded
//!   `StdRng` stream and never read the wall clock, so the same seed and
//!   failure schedule yield identical retry timestamps in debug and
//!   `--release` builds.
//! * [`AdmissionController`] — converts budget pressure (an
//!   `ExecBudget`/`PipelineBudget` utilization fraction) into
//!   accept/degrade/reject decisions with hysteresis, so the pipeline
//!   coarsens per-pair budgets under overload *before* shedding work.
//!
//! The crate is part of the deterministic set policed by `baywatch-lint`:
//! no ambient randomness, no wall-clock reads, no filesystem access. The
//! only time source is the injectable clock, and the only randomness is
//! the explicitly seeded jitter stream.

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod breaker;
pub mod retry;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, Transition};
pub use retry::RetryPolicy;
