//! Deterministic resilience primitives for the BAYWATCH pipeline.
//!
//! The paper's deployment (§VIII-B2) is a continuously-fed service at an
//! enterprise edge: ingest bursts, flapping log sources, slow checkpoint
//! storage and malformed shards are routine, and the detector must degrade
//! gracefully rather than fall over. This crate provides the two
//! production-shaped mechanisms for that, each built so its behavior is a
//! pure function of its inputs:
//!
//! * [`CircuitBreaker`] — a Closed/Open/HalfOpen state machine guarding a
//!   dependency (a log source, a checkpoint directory). Time is injected
//!   through the [`Clock`](baywatch_obs::Clock) trait from `baywatch-obs`,
//!   so under a [`ManualClock`](baywatch_obs::ManualClock) every
//!   transition is byte-reproducible.
//! * [`AdmissionController`] — converts budget pressure (the streaming
//!   engine's modelled state bytes as a fraction of its state budget) into
//!   accept/degrade/reject decisions with hysteresis, so the stream
//!   coarsens its ticks under overload *before* shedding work.
//!
//! The crate is held to the root `clippy.toml`'s determinism list: no
//! ambient randomness, no wall-clock reads, no filesystem access, no hash
//! containers; CI plants a violation here to prove the list is armed. The
//! only time source is the injectable clock, and nothing here draws a
//! random number.
//!
//! Retries are not here: a failed MapReduce task is re-run at once, up to
//! `FaultPolicy::max_task_retries` attempts, because a pure mapper or
//! reducer fails on what it computes, never on when it runs.

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

pub mod admission;
pub mod breaker;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionDecision, AdmissionStats};
pub use breaker::{BreakerConfig, BreakerState, BreakerStats, CircuitBreaker, Transition};
