//! Admission control with hysteresis.
//!
//! The wave scheduler in `core::pipeline` polls its window budget between
//! waves; historically the only lever was binary — keep going or shed the
//! rest. The [`AdmissionController`] adds a middle setting: as budget
//! *pressure* (a utilization fraction, 0 = idle, ≥ 1 = exhausted) climbs
//! past `degrade_enter`, waves are admitted under **degraded** (coarser,
//! `Tier`-style tightened) per-pair budgets; only past `reject_enter` —
//! or outright budget exhaustion — is work rejected (shed). Each
//! threshold pairs with a lower exit threshold, so a pressure reading
//! oscillating around a boundary does not flap the controller between
//! levels every wave:
//!
//! ```text
//!             pressure ≥ degrade_enter        pressure ≥ reject_enter
//!   ┌────────┐ ──────────────────────► ┌─────────┐ ───────────────► ┌───────────┐
//!   │ Normal │                         │ Degraded│                  │ Rejecting │
//!   └────────┘ ◄────────────────────── └─────────┘ ◄─────────────── └───────────┘
//!             pressure < degrade_exit        pressure < reject_exit
//! ```
//!
//! Decisions are a pure function of the pressure sequence, so an
//! ops-ceiling budget (the deterministic kind) yields byte-identical
//! decision streams on every run.

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

/// The verdict for one unit (a wave, a batch, a request).
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
    /// Stable lower-case label used in metrics names and span events.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionDecision::Accept => "accept",
            AdmissionDecision::Degrade => "degrade",
            AdmissionDecision::Reject => "reject",
        }
    }
}

/// Additive decision counters for one controller.
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

impl AdmissionStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &AdmissionStats) {
        self.accepted += other.accepted;
        self.degraded += other.degraded;
        self.rejected += other.rejected;
        self.transitions += other.transitions;
    }
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

/// One recorded level change, stamped with the pressure that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelChange {
    /// Pressure reading that triggered the change.
    pub pressure: f64,
    /// Decision level entered.
    pub entered: AdmissionDecision,
}

/// Bound on the retained level-change log.
const CHANGE_LOG_LIMIT: usize = 64;

/// Converts a pressure stream into accept/degrade/reject decisions with
/// hysteresis.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    level: Level,
    stats: AdmissionStats,
    changes: Vec<LevelChange>,
}

impl AdmissionController {
    /// A controller starting at the normal level.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            level: Level::Normal,
            stats: AdmissionStats::default(),
            changes: Vec::new(),
        }
    }

    /// Decision counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }

    /// The retained level-change log (bounded; oldest entries kept).
    pub fn changes(&self) -> &[LevelChange] {
        &self.changes
    }

    /// Drains the level-change log.
    pub fn take_changes(&mut self) -> Vec<LevelChange> {
        std::mem::take(&mut self.changes)
    }

    /// True while the controller is at an elevated level.
    pub fn is_elevated(&self) -> bool {
        self.level != Level::Normal
    }

    /// Decides the next unit given the current `pressure` reading.
    /// `exhausted` short-circuits to rejection regardless of pressure
    /// (a wall-clock deadline can expire while the utilization fraction
    /// still reads low).
    pub fn decide(&mut self, pressure: f64, exhausted: bool) -> AdmissionDecision {
        let c = self.config;
        // Clamp the bands so a mis-ordered config degenerates to
        // sane threshold behavior instead of oscillation.
        let degrade_exit = c.degrade_exit.min(c.degrade_enter);
        let reject_exit = c.reject_exit.min(c.reject_enter);
        let next = if exhausted || pressure >= c.reject_enter {
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
            if self.changes.len() < CHANGE_LOG_LIMIT {
                self.changes.push(LevelChange {
                    pressure,
                    entered: next.decision(),
                });
            }
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
        assert_eq!(c.decide(0.0, false), AdmissionDecision::Accept);
        assert_eq!(c.decide(0.5, false), AdmissionDecision::Accept);
        assert_eq!(c.stats().accepted, 2);
        assert_eq!(c.stats().transitions, 0);
    }

    #[test]
    fn degrade_band_has_hysteresis() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(0.86, false), AdmissionDecision::Degrade);
        // Dipping below enter but above exit stays degraded.
        assert_eq!(c.decide(0.7, false), AdmissionDecision::Degrade);
        assert_eq!(c.decide(0.64, false), AdmissionDecision::Accept);
        assert_eq!(c.stats().transitions, 2);
    }

    #[test]
    fn exhaustion_forces_reject() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(0.1, true), AdmissionDecision::Reject);
        assert!(c.is_elevated());
        // Recovery falls straight back to normal at low pressure.
        assert_eq!(c.decide(0.1, false), AdmissionDecision::Accept);
    }

    #[test]
    fn reject_recovery_passes_through_degraded() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(c.decide(1.2, false), AdmissionDecision::Reject);
        assert_eq!(
            c.decide(0.95, false),
            AdmissionDecision::Reject,
            "above reject_exit"
        );
        assert_eq!(
            c.decide(0.8, false),
            AdmissionDecision::Degrade,
            "in the degrade band"
        );
        assert_eq!(c.decide(0.1, false), AdmissionDecision::Accept);
        assert_eq!(c.stats().transitions, 3);
    }

    #[test]
    fn change_log_records_pressure_and_level() {
        let mut c = AdmissionController::new(AdmissionConfig::default());
        let _ = c.decide(0.9, false);
        let _ = c.decide(1.5, false);
        let changes = c.take_changes();
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].entered, AdmissionDecision::Degrade);
        assert_eq!(changes[1].entered, AdmissionDecision::Reject);
        assert!(c.changes().is_empty());
    }

    #[test]
    fn stats_merge_is_fieldwise() {
        let mut a = AdmissionStats {
            accepted: 1,
            degraded: 2,
            rejected: 3,
            transitions: 4,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.accepted, 2);
        assert_eq!(a.transitions, 8);
    }
}
