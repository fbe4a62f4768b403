//! Work budgets for the detection kernels.
//!
//! The paper's deployment runs under a hard operational window (§VIII-B2:
//! 26M pairs must clear in ~1.5 h on weekdays), so a single pathological
//! communication pair must not be allowed to stall a worker. [`ExecBudget`]
//! is a per-pair work counter that the detector's hot loops — permutation
//! rounds, the ACF hill scan — charge at safe checkpoints. When the budget
//! is spent the kernel unwinds with [`TimeSeriesError::BudgetExhausted`]
//! instead of spinning, in the spirit of Vlachos et al.'s
//! O(n log n)-per-series cost bound.
//!
//! The one limit is a **work-unit (ops) ceiling**. The charges are a
//! fixed function of the series, not of the work a stage actually does,
//! so the same pair is cut off at the same point on any machine, at any
//! thread count, and on a resumed run alike. A pair over an `n`-bin
//! series is charged:
//!
//! * `n` for the periodogram;
//! * `n` for each shuffle round, however many events the round places
//!   (a round over 21 events and one over 10 002 pay the same);
//! * `n` for the ACF, whether it runs from the events or from the bins;
//! * the lag span `hi − lo + 1` of the ACF hill scan.
//!
//! Nothing else is charged: not the pruning, not the GMM's EM. Whether to
//! price these units by the work each stage's cost model computes, or to
//! delete the budget, is ROADMAP item 11.
//!
//! A budget with no ceiling is *unlimited*: the guarded code path is
//! byte-identical to one with no budget plumbing at all — the checkpoints
//! only ever early-return, never perturb RNG streams or numerical state.

use std::cell::Cell;

use crate::TimeSeriesError;

/// One pair's work counter, threaded through the detection kernels.
#[derive(Debug)]
pub struct ExecBudget {
    /// Maximum abstract work units, if armed.
    max_ops: Option<u64>,
    /// Work units charged so far.
    ops: Cell<u64>,
}

impl ExecBudget {
    /// A budget with no ops ceiling: checkpoints against it never trip.
    pub fn unlimited() -> Self {
        Self::new(None)
    }

    /// A budget with an optional work-unit ceiling.
    pub fn new(max_ops: Option<u64>) -> Self {
        ExecBudget {
            max_ops,
            ops: Cell::new(0),
        }
    }

    /// Work units charged so far.
    pub fn ops_used(&self) -> u64 {
        self.ops.get()
    }

    /// Charges `units` of work and reports whether the budget is now
    /// exhausted. Charging happens even when already exhausted, so
    /// [`ops_used`](Self::ops_used) reflects attempted work.
    #[must_use]
    pub fn charge(&self, units: u64) -> bool {
        let total = self.ops.get().wrapping_add(units);
        self.ops.set(total);
        self.max_ops.is_some_and(|max| total > max)
    }

    /// Charges `units` and unwinds with
    /// [`TimeSeriesError::BudgetExhausted`] when the budget is spent — the
    /// one-line checkpoint the kernels use.
    ///
    /// # Errors
    ///
    /// Returns [`TimeSeriesError::BudgetExhausted`] when exhausted.
    pub fn checkpoint(&self, units: u64) -> Result<(), TimeSeriesError> {
        if self.charge(units) {
            Err(TimeSeriesError::BudgetExhausted)
        } else {
            Ok(())
        }
    }
}

/// Declarative budget limit carried inside configuration structs (a spec,
/// not a live counter: [`start`](Self::start) arms a fresh [`ExecBudget`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// Work-unit ceiling; `None` = no ceiling. A pair over an `n`-bin
    /// series is charged `n` for the periodogram, `n` per shuffle round
    /// whatever its events, `n` for the ACF and the lag span of the hill
    /// scan; the GMM's EM is not charged (see the module docs).
    pub max_ops: Option<u64>,
}

impl BudgetSpec {
    /// A spec with no limit (the default): [`start`](Self::start) yields
    /// an unlimited budget.
    pub const UNLIMITED: BudgetSpec = BudgetSpec { max_ops: None };

    /// Arms a fresh work counter.
    pub fn start(&self) -> ExecBudget {
        ExecBudget::new(self.max_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = ExecBudget::unlimited();
        assert!(!b.charge(u64::MAX / 2));
        assert!(b.checkpoint(1).is_ok());
    }

    #[test]
    fn ops_ceiling_is_deterministic() {
        let b = ExecBudget::new(Some(100));
        assert!(!b.charge(60));
        assert!(b.charge(60), "120 > 100 must exhaust");
        assert!(b.charge(0), "stays exhausted");
        assert_eq!(b.ops_used(), 120);
        assert_eq!(b.checkpoint(1), Err(TimeSeriesError::BudgetExhausted));
        assert_eq!(b.ops_used(), 121, "a charge past the ceiling still counts");
    }

    #[test]
    fn exact_ceiling_is_not_exhausted() {
        // The ceiling is inclusive: exactly max_ops of work is allowed.
        let b = ExecBudget::new(Some(100));
        assert!(!b.charge(100));
        assert!(b.charge(1));
    }

    #[test]
    fn spec_defaults_unlimited() {
        let spec = BudgetSpec::default();
        assert_eq!(spec, BudgetSpec::UNLIMITED);
        assert!(!spec.start().charge(u64::MAX / 2));
        let armed = BudgetSpec { max_ops: Some(1) }.start();
        assert!(!armed.charge(1));
        assert!(armed.charge(1));
    }

    #[test]
    fn debug_formats() {
        let b = ExecBudget::new(Some(5));
        let _ = b.charge(1);
        let s = format!("{b:?}");
        assert!(s.contains("max_ops"));
    }
}
