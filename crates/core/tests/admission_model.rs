//! Model tests over the admission controller: every pressure script over
//! a small alphabet, plus a real-thread smoke test that gives
//! ThreadSanitizer a concurrent workload.
//!
//! `AdmissionController` is a `&mut self` state machine — its caller, the
//! streaming engine, owns it. The script model pins the hysteresis band:
//! inside `[degrade_exit, degrade_enter)` the level is sticky, at or above
//! `reject_enter` rejection is unconditional, and the stats ledger
//! conserves decisions.

use std::sync::{Arc, Mutex};

use baywatch_core::admission::{AdmissionConfig, AdmissionController, AdmissionDecision};

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

/// Decisions from many threads through a mutex conserve exactly. Runs
/// under ThreadSanitizer in the nightly CI job; the conservation check
/// catches lost updates.
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
