//! A deterministic circuit breaker.
//!
//! The state machine follows the production shape of the prodigy
//! `error_policy` blocks (SNIPPETS.md): a **Closed** breaker admits
//! everything and counts failures; crossing either a consecutive-failure
//! threshold or a failure-*rate* threshold trips it **Open**, which
//! rejects everything until a cooldown elapses; the first admission after
//! the cooldown moves it to **HalfOpen**, where a bounded probe budget
//! (`half_open_requests`) is admitted — enough consecutive probe
//! successes re-**Close** the breaker, any probe failure re-**Open**s it
//! and restarts the cooldown.
//!
//! ```text
//!              failures ≥ threshold, or
//!              rate ≥ failure_rate over ≥ min_samples
//!   ┌────────┐ ───────────────────────────────────────► ┌────────┐
//!   │ Closed │                                          │  Open  │
//!   └────────┘ ◄───────────────┐      cooldown elapsed  └────────┘
//!        ▲                     │            │
//!        │ successes ≥         │            ▼
//!        │ success_threshold   │      ┌──────────┐
//!        └─────────────────────┴───── │ HalfOpen │ ──► Open (any failure)
//!                                     └──────────┘
//! ```
//!
//! Time is read exclusively through the injected [`Clock`], so a test
//! driving a [`ManualClock`] observes byte-identical transition sequences
//! on every run.

use std::sync::Arc;

use baywatch_obs::{Clock, ManualClock, MetricsRegistry};

/// Bound on the retained transition log: enough for any test scenario,
/// small enough that a flapping breaker cannot grow without bound.
const TRANSITION_LOG_LIMIT: usize = 64;

/// Thresholds and budgets for a [`CircuitBreaker`].
///
/// The defaults mirror the prodigy `error_policy` exemplar
/// (SNIPPETS.md): 5 consecutive failures or a 20 % failure rate (over at
/// least 20 samples) trips open, a 60 s cooldown precedes half-open, 3
/// half-open probes are admitted and 2 probe successes re-close.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip Closed → Open. `0` disables the
    /// consecutive-count trigger.
    pub failure_threshold: u32,
    /// Failure-rate cutoff in `[0, 1]` over the observation window.
    /// `0.0` disables the rate trigger.
    pub failure_rate: f64,
    /// Minimum observations before the rate trigger applies, so a single
    /// early failure cannot trip a rate of 1.0.
    pub min_samples: u32,
    /// Consecutive half-open probe successes that re-close the breaker.
    pub success_threshold: u32,
    /// Probe admissions budgeted per half-open period.
    pub half_open_requests: u32,
    /// Nanoseconds the breaker stays Open before probing half-open.
    pub cooldown_nanos: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5,
            failure_rate: 0.2,
            min_samples: 20,
            success_threshold: 2,
            half_open_requests: 3,
            cooldown_nanos: 60_000_000_000,
        }
    }
}

impl BreakerConfig {
    /// The effective half-open probe budget: at least one probe must be
    /// admitted or an Open breaker could never recover.
    pub fn probe_budget(&self) -> u32 {
        self.half_open_requests.max(1)
    }

    /// The effective re-close threshold (at least one success).
    pub fn close_budget(&self) -> u32 {
        self.success_threshold.max(1)
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Admitting everything; counting failures.
    #[default]
    Closed,
    /// Rejecting everything until the cooldown elapses.
    Open,
    /// Admitting a bounded probe budget to test recovery.
    HalfOpen,
}

impl BreakerState {
    /// Stable lower-case label used in metrics names and logs.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One recorded state transition, stamped with the injected clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Clock reading when the transition happened.
    pub at_nanos: u64,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Additive lifetime counters for one breaker. Merging two stats structs
/// field-wise equals the stats of the concatenated event sequence, which
/// is what makes registry merges exact (see the property tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Calls to [`CircuitBreaker::allow`] that returned `true`.
    pub admitted: u64,
    /// Calls to [`CircuitBreaker::allow`] that returned `false`.
    pub rejected: u64,
    /// Failures recorded.
    pub failures: u64,
    /// Successes recorded.
    pub successes: u64,
    /// Transitions into Open.
    pub opened: u64,
    /// Transitions into HalfOpen.
    pub half_opened: u64,
    /// Transitions into Closed (recoveries; the initial state is not
    /// counted).
    pub closed: u64,
    /// Half-open probe admissions (a subset of `admitted`).
    pub probes: u64,
}

// A ledger: its totals must stay exact, so no cast may narrow them
// (DESIGN.md §7).
#[deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
impl BreakerStats {
    /// Total state transitions of any kind.
    pub fn transitions(&self) -> u64 {
        self.opened + self.half_opened + self.closed
    }

    /// Field-wise sum.
    pub fn merge(&mut self, other: &BreakerStats) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.failures += other.failures;
        self.successes += other.successes;
        self.opened += other.opened;
        self.half_opened += other.half_opened;
        self.closed += other.closed;
        self.probes += other.probes;
    }

    /// Registers nonzero counters under `prefix` in `registry`.
    ///
    /// Zero-valued counters are *not* registered, so a breaker that never
    /// saw a failure leaves the registry — and therefore the deterministic
    /// JSON export — byte-identical to a run without breakers at all
    /// (the same gating discipline as the `dlq.*` counters).
    pub fn record_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let put = |name: &str, value: u64| {
            if value > 0 {
                registry.counter(&format!("{prefix}.{name}")).add(value);
            }
        };
        put("admitted", self.admitted);
        put("rejected", self.rejected);
        put("failures", self.failures);
        put("successes", self.successes);
        put("opened", self.opened);
        put("half_opened", self.half_opened);
        put("closed", self.closed);
        put("probes", self.probes);
    }
}

/// A deterministic Closed/Open/HalfOpen circuit breaker.
///
/// Call [`allow`](Self::allow) before attempting the guarded operation;
/// report the outcome with [`record_success`](Self::record_success) /
/// [`record_failure`](Self::record_failure). The breaker is single-owner
/// mutable state (wrap it yourself if you need sharing) and reads time
/// only through the injected clock.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    clock: Arc<dyn Clock>,
    state: BreakerState,
    /// Consecutive failures since the last success (Closed only).
    consecutive_failures: u32,
    /// Observations in the current rate window (Closed only).
    window_total: u64,
    /// Failures in the current rate window (Closed only).
    window_failures: u64,
    /// Probes admitted in the current half-open period.
    half_open_probes: u32,
    /// Probe successes in the current half-open period.
    half_open_successes: u32,
    /// Clock reading at the last transition into Open.
    opened_at: u64,
    stats: BreakerStats,
    transitions: Vec<Transition>,
}

impl CircuitBreaker {
    /// A breaker driven by `clock`, starting Closed.
    pub fn new(config: BreakerConfig, clock: Arc<dyn Clock>) -> Self {
        CircuitBreaker {
            config,
            clock,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            window_total: 0,
            window_failures: 0,
            half_open_probes: 0,
            half_open_successes: 0,
            opened_at: 0,
            stats: BreakerStats::default(),
            transitions: Vec::new(),
        }
    }

    /// A breaker on a fresh [`ManualClock`] frozen at zero — convenient
    /// for tests and for pure failure-count (no cooldown) use.
    pub fn with_manual_clock(config: BreakerConfig) -> Self {
        Self::new(config, Arc::new(ManualClock::new()))
    }

    /// The current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }

    /// The configuration this breaker runs under.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
    }

    /// The retained transition log (bounded; oldest entries are kept).
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Drains the transition log, handing ownership to the caller — the
    /// integration sites use this to emit per-transition span events.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }

    /// Asks whether the next operation may proceed.
    ///
    /// Closed always admits. Open admits nothing until
    /// `cooldown_nanos` have elapsed since the trip, at which point the
    /// breaker moves to HalfOpen and this call consumes the first probe
    /// slot. HalfOpen admits up to [`BreakerConfig::probe_budget`]
    /// probes per period and rejects beyond that.
    pub fn allow(&mut self) -> bool {
        match self.state {
            BreakerState::Closed => {
                self.stats.admitted += 1;
                true
            }
            BreakerState::Open => {
                let now = self.clock.now_nanos();
                if now.saturating_sub(self.opened_at) >= self.config.cooldown_nanos {
                    self.transition(BreakerState::HalfOpen, now);
                    self.half_open_probes = 1;
                    self.half_open_successes = 0;
                    self.stats.probes += 1;
                    self.stats.admitted += 1;
                    true
                } else {
                    self.stats.rejected += 1;
                    false
                }
            }
            BreakerState::HalfOpen => {
                if self.half_open_probes < self.config.probe_budget() {
                    self.half_open_probes += 1;
                    self.stats.probes += 1;
                    self.stats.admitted += 1;
                    true
                } else {
                    self.stats.rejected += 1;
                    false
                }
            }
        }
    }

    /// Records a successful guarded operation.
    pub fn record_success(&mut self) {
        self.stats.successes += 1;
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures = 0;
                self.window_total += 1;
            }
            BreakerState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= self.config.close_budget() {
                    let now = self.clock.now_nanos();
                    self.transition(BreakerState::Closed, now);
                    self.reset_windows();
                }
            }
            // A success reported while Open (e.g. an operation that was
            // in flight when the breaker tripped) is counted but does not
            // move the state machine.
            BreakerState::Open => {}
        }
    }

    /// Records a failed guarded operation.
    pub fn record_failure(&mut self) {
        self.stats.failures += 1;
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                self.window_total += 1;
                self.window_failures += 1;
                if self.count_tripped() || self.rate_tripped() {
                    self.trip_open();
                }
            }
            // Any half-open probe failure re-opens and restarts the
            // cooldown.
            BreakerState::HalfOpen => self.trip_open(),
            BreakerState::Open => {}
        }
    }

    fn count_tripped(&self) -> bool {
        self.config.failure_threshold > 0
            && self.consecutive_failures >= self.config.failure_threshold
    }

    fn rate_tripped(&self) -> bool {
        self.config.failure_rate > 0.0
            && self.window_total >= u64::from(self.config.min_samples)
            // Integer-free of rounding surprises: f ≥ rate·n compared as
            // exact IEEE doubles, identical across builds.
            && (self.window_failures as f64) >= self.config.failure_rate * (self.window_total as f64)
    }

    fn trip_open(&mut self) {
        let now = self.clock.now_nanos();
        self.opened_at = now;
        self.transition(BreakerState::Open, now);
        self.reset_windows();
    }

    fn reset_windows(&mut self) {
        self.consecutive_failures = 0;
        self.window_total = 0;
        self.window_failures = 0;
        self.half_open_probes = 0;
        self.half_open_successes = 0;
    }

    fn transition(&mut self, to: BreakerState, at_nanos: u64) {
        let from = self.state;
        self.state = to;
        match to {
            BreakerState::Open => self.stats.opened += 1,
            BreakerState::HalfOpen => self.stats.half_opened += 1,
            BreakerState::Closed => self.stats.closed += 1,
        }
        if self.transitions.len() < TRANSITION_LOG_LIMIT {
            self.transitions.push(Transition { at_nanos, from, to });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            failure_rate: 0.0,
            min_samples: 0,
            success_threshold: 2,
            half_open_requests: 2,
            cooldown_nanos: 1_000,
        }
    }

    #[test]
    fn closed_admits_and_counts() {
        let mut b = CircuitBreaker::with_manual_clock(fast_config());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow());
        b.record_success();
        assert_eq!(b.stats().admitted, 1);
        assert_eq!(b.stats().successes, 1);
    }

    #[test]
    fn consecutive_failures_trip_open() {
        let mut b = CircuitBreaker::with_manual_clock(fast_config());
        for _ in 0..2 {
            assert!(b.allow());
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "open rejects before the cooldown");
        assert_eq!(b.stats().rejected, 1);
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut b = CircuitBreaker::with_manual_clock(fast_config());
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "2 < threshold after reset");
    }

    #[test]
    fn rate_threshold_trips_after_min_samples() {
        let config = BreakerConfig {
            failure_threshold: 0,
            failure_rate: 0.5,
            min_samples: 4,
            ..fast_config()
        };
        let mut b = CircuitBreaker::with_manual_clock(config);
        // Alternate success/failure: rate sits at exactly 0.5 but the
        // window is too small until the 4th observation.
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open, "2/4 ≥ 0.5 at min_samples");
    }

    #[test]
    fn cooldown_then_half_open_probe_recovery() {
        let clock = Arc::new(ManualClock::new());
        let mut b = CircuitBreaker::new(fast_config(), clock.clone());
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow());
        clock.advance(1_000);
        assert!(b.allow(), "cooldown elapsed: first probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        b.record_success();
        assert!(b.allow(), "second probe within budget");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed, "2 probe successes close");
        assert_eq!(b.stats().closed, 1);
        assert_eq!(b.stats().probes, 2);
    }

    #[test]
    fn half_open_probe_budget_is_bounded() {
        let clock = Arc::new(ManualClock::new());
        let mut b = CircuitBreaker::new(fast_config(), clock.clone());
        for _ in 0..3 {
            b.record_failure();
        }
        clock.advance(1_000);
        assert!(b.allow());
        assert!(b.allow());
        assert!(!b.allow(), "probe budget (2) exhausted");
        assert_eq!(b.stats().probes, 2);
    }

    #[test]
    fn half_open_failure_reopens_and_restarts_cooldown() {
        let clock = Arc::new(ManualClock::new());
        let mut b = CircuitBreaker::new(fast_config(), clock.clone());
        for _ in 0..3 {
            b.record_failure();
        }
        clock.advance(1_000);
        assert!(b.allow());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(), "cooldown restarted at the probe failure");
        clock.advance(1_000);
        assert!(b.allow());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.stats().opened, 2);
        assert_eq!(b.stats().half_opened, 2);
    }

    #[test]
    fn transition_log_is_stamped_and_bounded() {
        let clock = Arc::new(ManualClock::new());
        let mut b = CircuitBreaker::new(fast_config(), clock.clone());
        for _ in 0..3 {
            b.record_failure();
        }
        clock.advance(1_000);
        let _ = b.allow();
        b.record_success();
        b.record_success();
        let log = b.take_transitions();
        assert_eq!(
            log,
            vec![
                Transition {
                    at_nanos: 0,
                    from: BreakerState::Closed,
                    to: BreakerState::Open
                },
                Transition {
                    at_nanos: 1_000,
                    from: BreakerState::Open,
                    to: BreakerState::HalfOpen
                },
                Transition {
                    at_nanos: 1_000,
                    from: BreakerState::HalfOpen,
                    to: BreakerState::Closed
                },
            ]
        );
        assert!(b.transitions().is_empty(), "take drains the log");
    }

    #[test]
    fn metrics_are_gated_on_nonzero() {
        let registry = MetricsRegistry::new();
        let quiet = BreakerStats::default();
        quiet.record_metrics(&registry, "resilience.breaker");
        assert_eq!(
            registry.snapshot().counters.len(),
            0,
            "an idle breaker must not perturb the registry"
        );
        let mut b = CircuitBreaker::with_manual_clock(fast_config());
        assert!(b.allow());
        b.record_success();
        b.stats().record_metrics(&registry, "resilience.breaker");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["resilience.breaker.admitted"], 1);
        assert_eq!(snap.counters["resilience.breaker.successes"], 1);
        assert!(!snap.counters.contains_key("resilience.breaker.opened"));
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let mut a = BreakerStats {
            admitted: 1,
            rejected: 2,
            failures: 3,
            successes: 4,
            opened: 5,
            half_opened: 6,
            closed: 7,
            probes: 8,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.admitted, 2);
        assert_eq!(a.probes, 16);
        assert_eq!(a.transitions(), 36);
    }

    /// Merged totals overflow loudly: each field's `+=` in
    /// `BreakerStats::merge` (and so `IngestGuard::stats`, which merges
    /// every source) panics past `u64::MAX` instead of wrapping or
    /// clamping.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not check overflow")]
    fn stats_merge_panics_on_overflow() {
        let fields: [fn(&mut BreakerStats) -> &mut u64; 8] = [
            |s| &mut s.admitted,
            |s| &mut s.rejected,
            |s| &mut s.failures,
            |s| &mut s.successes,
            |s| &mut s.opened,
            |s| &mut s.half_opened,
            |s| &mut s.closed,
            |s| &mut s.probes,
        ];
        for (i, field) in fields.into_iter().enumerate() {
            let (mut full, mut one) = (BreakerStats::default(), BreakerStats::default());
            *field(&mut full) = u64::MAX;
            *field(&mut one) = 1;
            let merged = std::panic::catch_unwind(move || full.merge(&one));
            assert!(merged.is_err(), "BreakerStats field {i}");
        }
    }

    #[test]
    fn zero_probe_budget_still_recovers() {
        let config = BreakerConfig {
            half_open_requests: 0,
            success_threshold: 0,
            ..fast_config()
        };
        let clock = Arc::new(ManualClock::new());
        let mut b = CircuitBreaker::new(config, clock.clone());
        for _ in 0..3 {
            b.record_failure();
        }
        clock.advance(1_000);
        assert!(b.allow(), "probe budget is clamped to ≥ 1");
        b.record_success();
        assert_eq!(
            b.state(),
            BreakerState::Closed,
            "close budget clamped to ≥ 1"
        );
    }
}
