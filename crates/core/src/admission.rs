//! Admission control with hysteresis.
//!
//! The streaming engine in [`crate::stream`] closes one tick at a time
//! under a state budget. The [`AdmissionController`] turns its *pressure* (a
//! utilization fraction, 0 = idle, ≥ 1 = exhausted) into one of three
//! settings: past `degrade_enter`, a tick is admitted **degraded** (the
//! caller does coarser work); only past `reject_enter` is work rejected
//! (shed). Each threshold pairs with a lower exit threshold, so a
//! pressure reading oscillating around a boundary does not flap the
//! controller between levels every tick:
//!
//! ```text
//!             pressure ≥ degrade_enter        pressure ≥ reject_enter
//!   ┌────────┐ ──────────────────────► ┌─────────┐ ───────────────► ┌───────────┐
//!   │ Normal │                         │ Degraded│                  │ Rejecting │
//!   └────────┘ ◄────────────────────── └─────────┘ ◄─────────────── └───────────┘
//!             pressure < degrade_exit        pressure < reject_exit
//! ```
//!
//! Decisions are a pure function of the pressure sequence, so a
//! deterministic pressure (modelled bytes against a byte budget) yields
//! byte-identical decision streams on every run.

/// Enter/exit pressure thresholds for the two elevated levels.
///
/// Invariant (clamped at use): exits sit at or below their enters, and
/// the reject band sits above the degrade band.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionConfig {
    /// Pressure at or above which admission degrades.
    pub degrade_enter: f64,
    /// Pressure below which a degraded controller recovers to normal.
    pub degrade_exit: f64,
    /// Pressure at or above which admission rejects outright.
    pub reject_enter: f64,
    /// Pressure below which a rejecting controller falls back (to
    /// degraded or normal, depending on the degrade band).
    pub reject_exit: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            degrade_enter: 0.85,
            degrade_exit: 0.65,
            reject_enter: 1.0,
            reject_exit: 0.9,
        }
    }
}

/// The verdict for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Admit under the normal budget.
    Accept,
    /// Admit under a degraded (coarser) budget.
    Degrade,
    /// Do not admit; the caller sheds or queues the unit.
    Reject,
}

impl AdmissionDecision {
    /// Stable lower-case label used in reports and benchmark output.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionDecision::Accept => "accept",
            AdmissionDecision::Degrade => "degrade",
            AdmissionDecision::Reject => "reject",
        }
    }
}

/// Decision counters of one controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Decisions returned as [`AdmissionDecision::Accept`].
    pub accepted: u64,
    /// Decisions returned as [`AdmissionDecision::Degrade`].
    pub degraded: u64,
    /// Decisions returned as [`AdmissionDecision::Reject`].
    pub rejected: u64,
    /// Level changes (any direction).
    pub transitions: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Normal,
    Degraded,
    Rejecting,
}

impl Level {
    fn decision(self) -> AdmissionDecision {
        match self {
            Level::Normal => AdmissionDecision::Accept,
            Level::Degraded => AdmissionDecision::Degrade,
            Level::Rejecting => AdmissionDecision::Reject,
        }
    }
}

/// Converts a pressure stream into accept/degrade/reject decisions with
/// hysteresis.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    level: Level,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller starting at the normal level.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            level: Level::Normal,
            stats: AdmissionStats::default(),
        }
    }

    /// Decision counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// True while the controller is at an elevated level.
    pub fn is_elevated(&self) -> bool {
        self.level != Level::Normal
    }

    /// Decides the next unit given the current `pressure` reading.
    pub fn decide(&mut self, pressure: f64) -> AdmissionDecision {
        let c = self.config;
        // Clamp the bands so a mis-ordered config degenerates to
        // sane threshold behavior instead of oscillation.
        let degrade_exit = c.degrade_exit.min(c.degrade_enter);
        let reject_exit = c.reject_exit.min(c.reject_enter);
        let next = if pressure >= c.reject_enter {
            Level::Rejecting
        } else {
            match self.level {
                Level::Normal => {
                    if pressure >= c.degrade_enter {
                        Level::Degraded
                    } else {
                        Level::Normal
                    }
                }
                Level::Degraded => {
                    if pressure < degrade_exit {
                        Level::Normal
                    } else {
                        Level::Degraded
                    }
                }
                Level::Rejecting => {
                    if pressure < reject_exit {
                        if pressure >= degrade_exit {
                            Level::Degraded
                        } else {
                            Level::Normal
                        }
                    } else {
                        Level::Rejecting
                    }
                }
            }
        };
        if next != self.level {
            self.stats.transitions += 1;
            self.level = next;
        }
        let decision = self.level.decision();
        match decision {
            AdmissionDecision::Accept => self.stats.accepted += 1,
            AdmissionDecision::Degrade => self.stats.degraded += 1,
            AdmissionDecision::Reject => self.stats.rejected += 1,
        }
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_pressure_accepts() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(0.0), AdmissionDecision::Accept);
        assert_eq!(c.decide(0.5), AdmissionDecision::Accept);
        assert_eq!(c.stats().accepted, 2);
        assert_eq!(c.stats().transitions, 0);
    }

    #[test]
    fn degrade_band_has_hysteresis() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(0.86), AdmissionDecision::Degrade);
        // Dipping below enter but above exit stays degraded.
        assert_eq!(c.decide(0.7), AdmissionDecision::Degrade);
        assert_eq!(c.decide(0.64), AdmissionDecision::Accept);
        assert_eq!(c.stats().transitions, 2);
    }

    #[test]
    fn overload_rejects_and_recovers_straight_to_normal() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(1.0), AdmissionDecision::Reject);
        assert!(c.is_elevated());
        // Recovery falls straight back to normal at low pressure.
        assert_eq!(c.decide(0.1), AdmissionDecision::Accept);
    }

    #[test]
    fn reject_recovery_passes_through_degraded() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(1.2), AdmissionDecision::Reject);
        assert_eq!(
            c.decide(0.95),
            AdmissionDecision::Reject,
            "above reject_exit"
        );
        assert_eq!(
            c.decide(0.8),
            AdmissionDecision::Degrade,
            "in the degrade band"
        );
        assert_eq!(c.decide(0.1), AdmissionDecision::Accept);
        assert_eq!(c.stats().transitions, 3);
    }
}
