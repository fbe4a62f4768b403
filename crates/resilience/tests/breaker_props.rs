//! Property-based tests on the circuit-breaker state machine and the
//! additivity of its `resilience.*` counters.
//!
//! A model checker in miniature: random event sequences (success,
//! failure, allow, clock advance) are replayed against the breaker while
//! a transparent reference model tracks what the thresholds *should*
//! have done. Three invariants are pinned:
//!
//! 1. Open is entered iff a threshold was crossed (consecutive count or
//!    failure rate over `min_samples`) or a half-open probe failed.
//! 2. The half-open probe count never exceeds the configured
//!    `half_open_requests` budget within one half-open period.
//! 3. Recording the stats of two breakers into two registries and
//!    merging them equals recording both into one registry sequentially —
//!    counter merges are exact, never approximate.

use std::sync::Arc;

use baywatch_obs::{ManualClock, MetricsRegistry};
use baywatch_resilience::{BreakerConfig, BreakerState, CircuitBreaker};
use proptest::prelude::*;

/// One step of a driving sequence.
#[derive(Debug, Clone, Copy)]
enum Event {
    Allow,
    Success,
    Failure,
    Advance(u64),
}

fn event_strategy() -> impl Strategy<Value = Event> {
    prop_oneof![
        Just(Event::Allow),
        Just(Event::Success),
        2 => Just(Event::Failure),
        (1u64..5_000).prop_map(Event::Advance),
    ]
}

fn config_strategy() -> impl Strategy<Value = BreakerConfig> {
    (1u32..6, 1u32..4, 1u32..5, 1u64..4_000, 0u32..2).prop_map(
        |(failure_threshold, success_threshold, half_open_requests, cooldown_nanos, rate_on)| {
            BreakerConfig {
                failure_threshold,
                failure_rate: if rate_on == 1 { 0.5 } else { 0.0 },
                min_samples: 4,
                success_threshold,
                half_open_requests,
                cooldown_nanos,
            }
        },
    )
}

/// A transparent re-statement of the trip conditions, tracked alongside
/// the real breaker.
#[derive(Default)]
struct Model {
    consecutive: u32,
    window_total: u64,
    window_failures: u64,
    half_open_failure: bool,
}

impl Model {
    fn should_trip(&self, config: &BreakerConfig, state: BreakerState) -> bool {
        match state {
            BreakerState::HalfOpen => self.half_open_failure,
            BreakerState::Closed => {
                let count =
                    config.failure_threshold > 0 && self.consecutive >= config.failure_threshold;
                let rate = config.failure_rate > 0.0
                    && self.window_total >= u64::from(config.min_samples)
                    && (self.window_failures as f64)
                        >= config.failure_rate * (self.window_total as f64);
                count || rate
            }
            BreakerState::Open => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Invariants 1 and 2: Open is entered iff a threshold crossed, and
    /// half-open probe admissions never exceed the probe budget.
    #[test]
    fn open_iff_thresholds_and_probes_bounded(
        config in config_strategy(),
        events in proptest::collection::vec(event_strategy(), 1..120),
    ) {
        let clock = Arc::new(ManualClock::new());
        let mut breaker = CircuitBreaker::new(config, clock.clone());
        let mut model = Model::default();
        let mut probes_this_period: u32 = 0;

        for event in events {
            let before = breaker.state();
            match event {
                Event::Advance(nanos) => clock.advance(nanos),
                Event::Allow => {
                    let admitted = breaker.allow();
                    match before {
                        BreakerState::Closed => prop_assert!(admitted),
                        BreakerState::Open => {
                            if admitted {
                                // Cooldown elapsed: a new half-open period
                                // began and this allow consumed probe #1.
                                prop_assert_eq!(breaker.state(), BreakerState::HalfOpen);
                                probes_this_period = 1;
                                model.half_open_failure = false;
                            }
                        }
                        BreakerState::HalfOpen => {
                            if admitted {
                                probes_this_period += 1;
                            }
                        }
                    }
                    if breaker.state() == BreakerState::HalfOpen {
                        prop_assert!(
                            probes_this_period <= config.probe_budget(),
                            "probes {} exceed budget {}",
                            probes_this_period,
                            config.probe_budget()
                        );
                    }
                }
                Event::Success => {
                    if before == BreakerState::Closed {
                        model.consecutive = 0;
                        model.window_total += 1;
                    }
                    breaker.record_success();
                    if before != BreakerState::Open {
                        prop_assert_ne!(
                            breaker.state(),
                            BreakerState::Open,
                            "a success can never trip the breaker open"
                        );
                    }
                    if before == BreakerState::HalfOpen
                        && breaker.state() == BreakerState::Closed
                    {
                        model = Model::default();
                        probes_this_period = 0;
                    }
                }
                Event::Failure => {
                    if before == BreakerState::Closed {
                        model.consecutive += 1;
                        model.window_total += 1;
                        model.window_failures += 1;
                    } else if before == BreakerState::HalfOpen {
                        model.half_open_failure = true;
                    }
                    let should_trip = model.should_trip(&config, before);
                    breaker.record_failure();
                    let tripped = before != BreakerState::Open
                        && breaker.state() == BreakerState::Open;
                    prop_assert_eq!(
                        tripped, should_trip,
                        "trip mismatch from {:?}: model {:?} vs breaker {:?}",
                        before, should_trip, breaker.state()
                    );
                    if tripped {
                        model = Model::default();
                        probes_this_period = 0;
                    }
                }
            }
        }
    }

    /// Invariant 3: merging two `resilience.*` counter registries equals
    /// recording both breakers' stats into one registry sequentially.
    #[test]
    fn registry_merge_equals_sequential_run(
        config in config_strategy(),
        first in proptest::collection::vec(event_strategy(), 1..60),
        second in proptest::collection::vec(event_strategy(), 1..60),
    ) {
        let drive = |events: &[Event]| {
            let clock = Arc::new(ManualClock::new());
            let mut breaker = CircuitBreaker::new(config, clock.clone());
            for event in events {
                match event {
                    Event::Advance(nanos) => clock.advance(*nanos),
                    Event::Allow => {
                        let _ = breaker.allow();
                    }
                    Event::Success => breaker.record_success(),
                    Event::Failure => breaker.record_failure(),
                }
            }
            breaker.stats()
        };
        let stats_a = drive(&first);
        let stats_b = drive(&second);

        // Split run: one registry per breaker, then merge via absorb.
        let registry_a = MetricsRegistry::new();
        let registry_b = MetricsRegistry::new();
        stats_a.record_metrics(&registry_a, "resilience.breaker");
        stats_b.record_metrics(&registry_b, "resilience.breaker");
        registry_a
            .absorb(&registry_b.snapshot())
            .expect("counter registries always merge");

        // Sequential run: both breakers into one registry.
        let sequential = MetricsRegistry::new();
        stats_a.record_metrics(&sequential, "resilience.breaker");
        stats_b.record_metrics(&sequential, "resilience.breaker");

        prop_assert_eq!(
            registry_a.snapshot().to_json(),
            sequential.snapshot().to_json()
        );
    }
}
