//! Admission control with hysteresis.
//!
//! The streaming engine in [`crate::stream`] closes one tick at a time
//! under a state budget. The [`AdmissionController`] turns its *pressure* (a
//! utilization fraction, 0 = idle, ≥ 1 = exhausted) into one of three
//! settings: past [`DEGRADE_ENTER`], a tick is admitted **degraded** (the
//! caller does coarser work); only past [`REJECT_ENTER`] is work rejected
//! (shed). Each threshold pairs with a lower exit threshold, so a
//! pressure reading oscillating around a boundary does not flap the
//! controller between levels every tick:
//!
//! ```text
//!             pressure ≥ DEGRADE_ENTER        pressure ≥ REJECT_ENTER
//!   ┌────────┐ ──────────────────────► ┌─────────┐ ───────────────► ┌───────────┐
//!   │ Normal │                         │ Degraded│                  │ Rejecting │
//!   └────────┘ ◄────────────────────── └─────────┘ ◄─────────────── └───────────┘
//!             pressure < DEGRADE_EXIT        pressure < REJECT_EXIT
//! ```
//!
//! The four thresholds are constants: the pressure is a fraction of the
//! one settable state budget, so the budget is the knob.
//!
//! Decisions are a pure function of the pressure sequence, so a
//! deterministic pressure (modelled bytes against a byte budget) yields
//! byte-identical decision streams on every run.

/// Pressure at or above which admission degrades.
pub const DEGRADE_ENTER: f64 = 0.85;
/// Pressure below which a degraded controller recovers to normal.
pub const DEGRADE_EXIT: f64 = 0.65;
/// Pressure at or above which admission rejects outright.
pub const REJECT_ENTER: f64 = 1.0;
/// Pressure below which a rejecting controller falls back (to degraded
/// or normal, depending on the degrade band).
pub const REJECT_EXIT: f64 = 0.9;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Level {
    #[default]
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
#[derive(Debug, Default)]
pub struct AdmissionController {
    level: Level,
    stats: AdmissionStats,
}

impl AdmissionController {
    /// A controller starting at the normal level.
    pub fn new() -> Self {
        Self::default()
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
        let next = if pressure >= REJECT_ENTER {
            Level::Rejecting
        } else {
            match self.level {
                Level::Normal => {
                    if pressure >= DEGRADE_ENTER {
                        Level::Degraded
                    } else {
                        Level::Normal
                    }
                }
                Level::Degraded => {
                    if pressure < DEGRADE_EXIT {
                        Level::Normal
                    } else {
                        Level::Degraded
                    }
                }
                Level::Rejecting => {
                    if pressure < REJECT_EXIT {
                        if pressure >= DEGRADE_EXIT {
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
        let mut c = AdmissionController::new();
        assert_eq!(c.decide(0.0), AdmissionDecision::Accept);
        assert_eq!(c.decide(0.5), AdmissionDecision::Accept);
        assert_eq!(c.stats().accepted, 2);
        assert_eq!(c.stats().transitions, 0);
    }

    #[test]
    fn degrade_band_has_hysteresis() {
        let mut c = AdmissionController::new();
        assert_eq!(c.decide(0.86), AdmissionDecision::Degrade);
        // Dipping below enter but above exit stays degraded.
        assert_eq!(c.decide(0.7), AdmissionDecision::Degrade);
        assert_eq!(c.decide(0.64), AdmissionDecision::Accept);
        assert_eq!(c.stats().transitions, 2);
    }

    #[test]
    fn overload_rejects_and_recovers_straight_to_normal() {
        let mut c = AdmissionController::new();
        assert_eq!(c.decide(1.0), AdmissionDecision::Reject);
        assert!(c.is_elevated());
        // Recovery falls straight back to normal at low pressure.
        assert_eq!(c.decide(0.1), AdmissionDecision::Accept);
    }

    #[test]
    fn reject_recovery_passes_through_degraded() {
        let mut c = AdmissionController::new();
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
