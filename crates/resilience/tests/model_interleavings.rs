//! Model tests over the resilience state machines: an exhaustive
//! interleaving explorer in the style of `loom`, plus real-thread smoke
//! tests that give ThreadSanitizer a concurrent workload.
//!
//! `CircuitBreaker` and `AdmissionController` are `&mut self` state
//! machines — callers serialize access (a mutex, or per-shard ownership
//! with a post-join merge). What concurrency can still vary is the
//! *order* in which two callers' operations reach the machine. The
//! explorer therefore enumerates **every** merge order of two operation
//! scripts (every path through the interleaving lattice — `C(m+n, m)`
//! orders, 924 for two six-op scripts), replays each against a fresh
//! breaker on a shared manual clock, and checks after every single step:
//!
//! 1. Only legal transitions occur: Closed→Open, Open→HalfOpen,
//!    HalfOpen→Open, HalfOpen→Closed.
//! 2. Conservation: every `allow()` is counted exactly once as admitted
//!    or rejected; every recorded outcome exactly once as a success or
//!    failure.
//! 3. The half-open probe count never exceeds the per-period budget
//!    times the number of half-open entries.
//! 4. An Open breaker under an unexpired cooldown admits nothing.
//!
//! The admission model runs every pressure script over a small alphabet
//! through the controller and pins the hysteresis band: inside
//! `[degrade_exit, degrade_enter)` the level is sticky, at or above
//! `reject_enter` rejection is unconditional, and the stats ledger
//! conserves decisions.

use std::sync::{Arc, Mutex};

use baywatch_obs::{Clock, ManualClock};
use baywatch_resilience::{
    AdmissionConfig, AdmissionController, AdmissionDecision, BreakerConfig, BreakerState,
    CircuitBreaker,
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Allow,
    Success,
    Failure,
    Advance(u64),
}

fn model_config() -> BreakerConfig {
    BreakerConfig {
        // Two consecutive failures trip; the rate trigger is disabled so
        // the model's legal-transition oracle stays simple.
        failure_threshold: 2,
        failure_rate: 0.0,
        min_samples: 0,
        success_threshold: 2,
        half_open_requests: 2,
        cooldown_nanos: 100,
    }
}

/// Which transition kinds a replay exercised, for lattice-wide coverage
/// accounting: [Closed→Open, Open→HalfOpen, HalfOpen→Open,
/// HalfOpen→Closed].
type TransitionCoverage = [bool; 4];

/// Replays one merged schedule against a fresh breaker, checking the
/// step invariants, and returns the final state plus the transition
/// kinds seen, for coverage counting.
fn replay(schedule: &[Op]) -> (BreakerState, TransitionCoverage) {
    let clock = Arc::new(ManualClock::new());
    let mut breaker = CircuitBreaker::new(model_config(), Arc::clone(&clock) as _);
    let budget = breaker.config().probe_budget() as u64;

    let mut allows = 0u64;
    let mut outcomes = 0u64;
    let mut half_open_entries = 0u64;
    let mut coverage = [false; 4];
    let mut prev = breaker.state();
    for (step, op) in schedule.iter().enumerate() {
        match op {
            Op::Allow => {
                let before = breaker.state();
                let cooling = before == BreakerState::Open
                    && clock.now_nanos() < breaker.config().cooldown_nanos;
                let admitted = breaker.allow();
                allows += 1;
                if cooling {
                    assert!(
                        !admitted,
                        "step {step}: Open breaker admitted before its cooldown expired"
                    );
                }
            }
            Op::Success => {
                breaker.record_success();
                outcomes += 1;
            }
            Op::Failure => {
                breaker.record_failure();
                outcomes += 1;
            }
            Op::Advance(nanos) => clock.advance(*nanos),
        }

        let state = breaker.state();
        if state != prev {
            let kind = match (prev, state) {
                (BreakerState::Closed, BreakerState::Open) => 0,
                (BreakerState::Open, BreakerState::HalfOpen) => 1,
                (BreakerState::HalfOpen, BreakerState::Open) => 2,
                (BreakerState::HalfOpen, BreakerState::Closed) => 3,
                _ => panic!("step {step}: illegal transition {prev:?} -> {state:?}"),
            };
            coverage[kind] = true;
            if state == BreakerState::HalfOpen {
                half_open_entries += 1;
            }
            prev = state;
        }

        let stats = breaker.stats();
        assert_eq!(
            stats.admitted + stats.rejected,
            allows,
            "step {step}: every allow() must land in admitted or rejected exactly once"
        );
        assert_eq!(
            stats.successes + stats.failures,
            outcomes,
            "step {step}: every recorded outcome must land in successes or failures"
        );
        assert!(
            stats.probes <= budget * half_open_entries,
            "step {step}: {} probes exceed {budget} per half-open period × {half_open_entries}",
            stats.probes
        );
    }

    // The transition log and the observed state history must agree.
    let logged = breaker.take_transitions();
    for t in &logged {
        assert_ne!(t.from, t.to, "degenerate transition logged");
    }
    assert_eq!(
        logged.last().map(|t| t.to).unwrap_or(BreakerState::Closed),
        breaker.state(),
        "transition log must end at the final state"
    );
    (breaker.state(), coverage)
}

/// Lattice-wide tallies accumulated across every replayed schedule.
#[derive(Default)]
struct Tally {
    /// Replays ending Closed / Open / HalfOpen.
    seen: [u64; 3],
    covered: TransitionCoverage,
    count: u64,
}

/// Depth-first enumeration of every merge order of `a` and `b`.
fn explore(a: &[Op], b: &[Op], ai: usize, bi: usize, schedule: &mut Vec<Op>, tally: &mut Tally) {
    if ai == a.len() && bi == b.len() {
        let (final_state, coverage) = replay(schedule);
        tally.seen[match final_state {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        }] += 1;
        for (slot, hit) in tally.covered.iter_mut().zip(coverage) {
            *slot |= hit;
        }
        tally.count += 1;
        return;
    }
    if ai < a.len() {
        schedule.push(a[ai]);
        explore(a, b, ai + 1, bi, schedule, tally);
        schedule.pop();
    }
    if bi < b.len() {
        schedule.push(b[bi]);
        explore(a, b, ai, bi + 1, schedule, tally);
        schedule.pop();
    }
}

#[test]
fn breaker_invariants_hold_under_every_interleaving_of_two_scripts() {
    // Script A drives recovery: trip, cool down, probe successfully.
    let a = [
        Op::Failure,
        Op::Failure,
        Op::Advance(100),
        Op::Allow,
        Op::Success,
        Op::Success,
    ];
    // Script B drives churn: admissions and a probe failure re-tripping
    // the breaker, plus its own cooldown expiry.
    let b = [
        Op::Allow,
        Op::Failure,
        Op::Allow,
        Op::Advance(100),
        Op::Allow,
        Op::Failure,
    ];
    let mut schedule = Vec::with_capacity(a.len() + b.len());
    let mut tally = Tally::default();
    explore(&a, &b, 0, 0, &mut schedule, &mut tally);
    assert_eq!(
        tally.count, 924,
        "C(12, 6) merge orders of two six-op scripts"
    );
    // Coverage: the lattice must actually exercise the whole state
    // machine — every legal transition kind somewhere, and more than one
    // terminal state — or the invariants above checked nothing.
    assert!(
        tally.covered.iter().all(|&c| c),
        "all four legal transition kinds must occur across the lattice, got {:?}",
        tally.covered
    );
    assert!(
        tally.seen.iter().filter(|&&n| n > 0).count() >= 2,
        "the final state must depend on the schedule, got {:?}",
        tally.seen
    );
}

#[test]
fn admission_hysteresis_holds_for_every_pressure_script() {
    // A pressure alphabet spanning all bands of the default config: calm,
    // inside the degrade hysteresis band, degraded, inside the reject
    // hysteresis band, and rejecting.
    let alphabet: [f64; 5] = [0.2, 0.7, 0.9, 0.95, 1.0];
    let config = AdmissionConfig::default();
    let len = 5usize;
    let scripts = alphabet.len().pow(len as u32);
    for script_id in 0..scripts {
        let mut controller = AdmissionController::new(config);
        let mut id = script_id;
        let mut decisions = 0u64;
        let mut prev = AdmissionDecision::Accept;
        for step in 0..len {
            let pressure = alphabet[id % alphabet.len()];
            id /= alphabet.len();
            let decision = controller.decide(pressure);
            decisions += 1;

            if pressure >= config.reject_enter {
                assert_eq!(
                    decision,
                    AdmissionDecision::Reject,
                    "script {script_id} step {step}: overload must reject"
                );
            }
            // Hysteresis: inside [degrade_exit, degrade_enter) the level
            // is sticky — an elevated controller must not relax there.
            if pressure >= config.degrade_exit
                && pressure < config.degrade_enter
                && prev != AdmissionDecision::Accept
            {
                assert_ne!(
                    decision,
                    AdmissionDecision::Accept,
                    "script {script_id} step {step}: relaxed inside the hysteresis band"
                );
            }
            // Below every band a non-rejecting controller runs normally.
            if pressure < config.degrade_exit && prev != AdmissionDecision::Reject {
                assert_eq!(decision, AdmissionDecision::Accept);
            }
            prev = decision;
        }
        let stats = controller.stats();
        assert_eq!(
            stats.accepted + stats.degraded + stats.rejected,
            decisions,
            "script {script_id}: decision ledger must conserve"
        );
    }
}

/// Real threads hammering a mutex-shared breaker while another thread
/// advances the shared manual clock: the serialization contract under
/// which the breaker is actually deployed. Runs under ThreadSanitizer in
/// the nightly CI job; the conservation check catches lost updates.
#[test]
fn breaker_conservation_survives_real_threads() {
    const THREADS: u64 = 4;
    const OPS: u64 = 200;
    let clock = Arc::new(ManualClock::new());
    let breaker = Arc::new(Mutex::new(CircuitBreaker::new(
        model_config(),
        Arc::clone(&clock) as _,
    )));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let breaker = Arc::clone(&breaker);
            let clock = Arc::clone(&clock);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    let mut b = breaker.lock().expect("breaker lock");
                    if b.allow() {
                        // Mixed outcomes, deterministic per (thread, i).
                        if (t + i) % 3 == 0 {
                            b.record_failure();
                        } else {
                            b.record_success();
                        }
                    }
                    drop(b);
                    if i % 50 == 0 {
                        clock.advance(60);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker join");
    }

    let b = breaker.lock().expect("final lock");
    let stats = b.stats();
    assert_eq!(stats.admitted + stats.rejected, THREADS * OPS);
    assert_eq!(stats.successes + stats.failures, stats.admitted);
}

/// The same contract for the admission controller: decisions from many
/// threads through a mutex conserve exactly.
#[test]
fn admission_conservation_survives_real_threads() {
    const THREADS: u64 = 4;
    const OPS: u64 = 250;
    let controller = Arc::new(Mutex::new(AdmissionController::new(
        AdmissionConfig::default(),
    )));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let controller = Arc::clone(&controller);
            std::thread::spawn(move || {
                for i in 0..OPS {
                    // Sweep pressure deterministically through every band.
                    let pressure = ((t * OPS + i) % 11) as f64 / 10.0;
                    let mut c = controller.lock().expect("controller lock");
                    c.decide(pressure);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker join");
    }

    let stats = controller.lock().expect("final lock").stats();
    assert_eq!(
        stats.accepted + stats.degraded + stats.rejected,
        THREADS * OPS
    );
}
