//! Injectable time sources.
//!
//! Everything in the observability layer that measures *duration* reads
//! time through the [`Clock`] trait instead of calling `Instant::now()`
//! directly. Production code injects a [`MonotonicClock`]; tests inject a
//! [`ManualClock`] and advance it by hand, so span durations and timing
//! histograms are exactly reproducible and clippy's `disallowed_methods`
//! list (the root `clippy.toml`) has a single audited read to expect.

#[expect(clippy::disallowed_types, reason = "reasoned on `ManualClock`")]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// A monotonic nanosecond source.
///
/// Implementations must be monotone non-decreasing: a later call never
/// returns a smaller value than an earlier one.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed since the clock's origin.
    fn now_nanos(&self) -> u64;
}

/// The production clock: nanoseconds since construction, read from the
/// OS monotonic clock.
///
/// This is the only wall-clock read in the observability layer; its output
/// flows exclusively into the *timings* section of a
/// [`MetricsSnapshot`](crate::MetricsSnapshot), which the deterministic
/// JSON export never includes.
#[derive(Debug, Clone)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    /// A clock whose origin is the moment of construction.
    #[expect(
        clippy::disallowed_methods,
        reason = "MonotonicClock is the one audited wall-clock source behind the Clock trait; \
                  timings it feeds never reach deterministic exports"
    )]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_nanos(&self) -> u64 {
        // Saturate rather than wrap: a process does not live 2^64 ns.
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-driven clock for tests: starts at zero and only moves when told.
///
/// All clones share the same underlying counter, so a test can hold one
/// handle and advance time observed by code under test holding another.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "a single atomic cell: RMW operations have a total modification order at any ordering, and cross-thread handoff synchronizes via spawn/join, not via the clock"
)]
pub struct ManualClock {
    nanos: AtomicU64,
}

impl ManualClock {
    /// A clock frozen at zero nanoseconds.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock frozen at `nanos`.
    #[expect(clippy::disallowed_types, reason = "builds the cell of `ManualClock`")]
    pub fn at(nanos: u64) -> Self {
        Self {
            nanos: AtomicU64::new(nanos),
        }
    }

    /// Advances the clock by `nanos`.
    pub fn advance(&self, nanos: u64) {
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute value. Never rewinds: setting a value
    /// below the current reading is ignored, preserving monotonicity.
    pub fn set(&self, nanos: u64) {
        self.nanos.fetch_max(nanos, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_nanos(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_starts_at_zero_and_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now_nanos(), 0);
        c.advance(5);
        c.advance(7);
        assert_eq!(c.now_nanos(), 12);
    }

    #[test]
    fn manual_clock_set_never_rewinds() {
        let c = ManualClock::at(100);
        c.set(50);
        assert_eq!(c.now_nanos(), 100, "rewind must be ignored");
        c.set(250);
        assert_eq!(c.now_nanos(), 250);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::new();
        let a = c.now_nanos();
        let b = c.now_nanos();
        assert!(b >= a);
    }

    #[test]
    fn clock_trait_is_object_safe() {
        let clocks: Vec<Box<dyn Clock>> = vec![
            Box::new(ManualClock::at(3)),
            Box::new(MonotonicClock::new()),
        ];
        assert_eq!(clocks[0].now_nanos(), 3);
        let _ = clocks[1].now_nanos();
    }
}
