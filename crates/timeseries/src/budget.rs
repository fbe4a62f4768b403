//! Cooperative execution budgets for the detection kernels.
//!
//! The paper's deployment runs under a hard operational window (§VIII-B2:
//! 26M pairs must clear in ~1.5 h on weekdays), so a single pathological
//! communication pair must not be allowed to stall a worker. [`ExecBudget`]
//! is a cheap, shareable handle that the detector's hot loops — permutation
//! rounds, the ACF hill scan — poll at safe checkpoints. When the budget is
//! exhausted the kernel unwinds with
//! [`TimeSeriesError::BudgetExhausted`] instead of spinning, in the spirit
//! of Vlachos et al.'s O(n log n)-per-series cost bound and MapReduce's
//! straggler handling.
//!
//! Two limits compose, either of which may be absent:
//!
//! - a **wall-clock deadline**, for production runs where only elapsed
//!   time matters;
//! - a **work-unit (ops) ceiling**, a deterministic proxy for elapsed time
//!   (units are charged proportionally to the FFT work actually
//!   performed), so tests can exercise timeout paths reproducibly on any
//!   machine.
//!
//! A handle with neither limit is *unlimited*: every check is a pair of
//! relaxed atomic reads and the guarded code path is byte-identical to one
//! with no budget plumbing at all — the checkpoints only ever early-return,
//! never perturb RNG streams or numerical state.

#[expect(clippy::disallowed_types, reason = "reasoned on `BudgetInner`")]
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::TimeSeriesError;

#[expect(
    clippy::disallowed_types,
    reason = "ops is a monotone usage counter and cancelled a one-way flag; checkpoints only early-exit, and no data is published across threads through either cell, so Relaxed suffices"
)]
struct BudgetInner {
    /// Absolute wall-clock deadline, if armed.
    deadline: Option<Instant>,
    /// The wall-clock allowance the deadline was armed with, kept so
    /// utilization can be expressed as a fraction of it.
    allowance: Option<Duration>,
    /// Maximum abstract work units, if armed.
    max_ops: Option<u64>,
    /// Work units charged so far.
    ops: AtomicU64,
    /// Explicit cooperative cancellation (e.g. the window scheduler decided
    /// to shed this pair mid-flight).
    cancelled: AtomicBool,
}

/// Shared deadline + cancellation token threaded through detection kernels.
///
/// Cloning is cheap (an `Arc` bump); all clones observe the same ops
/// counter and cancellation flag, so a budget can be shared between a
/// worker and a supervisor.
#[derive(Clone)]
pub struct ExecBudget {
    inner: Arc<BudgetInner>,
}

impl std::fmt::Debug for ExecBudget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecBudget")
            .field("deadline", &self.inner.deadline)
            .field("max_ops", &self.inner.max_ops)
            .field("ops", &self.ops_used())
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

impl ExecBudget {
    /// A budget with neither a deadline nor an ops ceiling. Checkpoints
    /// against it never trip (unless [`cancel`](Self::cancel) is called).
    pub fn unlimited() -> Self {
        Self::new(None, None)
    }

    /// A budget with an optional wall-clock allowance (from now) and an
    /// optional work-unit ceiling.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline budgets exist to read wall-clock time; expiry only sheds work and \
                  never reorders surviving results"
    )]
    #[expect(clippy::disallowed_types, reason = "builds the cells of `BudgetInner`")]
    pub fn new(wall: Option<Duration>, max_ops: Option<u64>) -> Self {
        ExecBudget {
            inner: Arc::new(BudgetInner {
                deadline: wall.map(|d| Instant::now() + d),
                allowance: wall,
                max_ops,
                ops: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// True when no limit is armed: checks reduce to a cancellation load.
    pub fn is_unlimited(&self) -> bool {
        self.inner.deadline.is_none() && self.inner.max_ops.is_none()
    }

    /// Requests cooperative cancellation: every subsequent check fails.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Work units charged so far across all clones of this handle.
    pub fn ops_used(&self) -> u64 {
        self.inner.ops.load(Ordering::Relaxed)
    }

    /// Charges `units` of work and reports whether the budget is now
    /// exhausted. Charging happens even when already exhausted, so
    /// [`ops_used`](Self::ops_used) reflects attempted work.
    #[must_use]
    pub fn charge(&self, units: u64) -> bool {
        let total = self.inner.ops.fetch_add(units, Ordering::Relaxed) + units;
        if let Some(max) = self.inner.max_ops {
            if total > max {
                return true;
            }
        }
        self.is_exhausted()
    }

    /// True when cancelled, past the wall-clock deadline, or over the ops
    /// ceiling.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline budgets exist to read wall-clock time; expiry only sheds work and \
                  never reorders surviving results"
    )]
    pub fn is_exhausted(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if let Some(max) = self.inner.max_ops {
            if self.inner.ops.load(Ordering::Relaxed) > max {
                return true;
            }
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return true;
            }
        }
        false
    }

    /// The fraction of the tightest armed limit consumed so far: `0.0`
    /// idle, `≥ 1.0` exhausted, always `0.0` for an unlimited budget
    /// (and `1.0` once cancelled).
    ///
    /// The ops fraction is a pure function of the charged work, so for
    /// ops-ceiling budgets — the deterministic kind the tests arm — the
    /// pressure stream feeding the admission controller is byte-
    /// reproducible. The wall-clock fraction reads the same audited
    /// `Instant` source the deadline itself uses.
    #[expect(
        clippy::disallowed_methods,
        reason = "deadline budgets exist to read wall-clock time; expiry only sheds work and \
                  never reorders surviving results"
    )]
    pub fn utilization(&self) -> f64 {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return 1.0;
        }
        let ops_frac = match self.inner.max_ops {
            Some(max) if max > 0 => self.ops_used() as f64 / max as f64,
            Some(_) => 1.0,
            None => 0.0,
        };
        let wall_frac = match (self.inner.deadline, self.inner.allowance) {
            (Some(deadline), Some(allowance)) if !allowance.is_zero() => {
                let remaining = deadline.saturating_duration_since(Instant::now());
                1.0 - (remaining.as_secs_f64() / allowance.as_secs_f64()).min(1.0)
            }
            (Some(_), _) => 1.0,
            _ => 0.0,
        };
        ops_frac.max(wall_frac)
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

/// Declarative budget limits carried inside configuration structs (a spec,
/// not a live handle: [`start`](Self::start) arms a fresh [`ExecBudget`]
/// whose wall clock begins at the call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetSpec {
    /// Wall-clock allowance in milliseconds; `None` = no deadline.
    pub max_millis: Option<u64>,
    /// Work-unit ceiling; `None` = no ceiling. Units approximate FFT/EM
    /// inner-loop cost: one permutation round over an `n`-bin series
    /// charges `n`, one EM iteration over `n` intervals with `k` components
    /// charges `n·k`, and so on.
    pub max_ops: Option<u64>,
}

impl BudgetSpec {
    /// A spec with no limits (the default): [`start`](Self::start) yields
    /// an unlimited budget.
    pub const UNLIMITED: BudgetSpec = BudgetSpec {
        max_millis: None,
        max_ops: None,
    };

    /// True when either limit is armed.
    pub fn is_armed(&self) -> bool {
        self.max_millis.is_some() || self.max_ops.is_some()
    }

    /// Arms a live budget; the wall clock (if any) starts now.
    pub fn start(&self) -> ExecBudget {
        ExecBudget::new(self.max_millis.map(Duration::from_millis), self.max_ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = ExecBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(!b.charge(u64::MAX / 2));
        assert!(!b.is_exhausted());
        assert!(b.checkpoint(1).is_ok());
    }

    #[test]
    fn ops_ceiling_is_deterministic() {
        let b = ExecBudget::new(None, Some(100));
        assert!(!b.charge(60));
        assert!(!b.is_exhausted());
        assert!(b.charge(60), "121 > 100 must exhaust");
        assert!(b.is_exhausted());
        assert_eq!(b.ops_used(), 120);
        assert_eq!(b.checkpoint(1), Err(TimeSeriesError::BudgetExhausted));
    }

    #[test]
    fn exact_ceiling_is_not_exhausted() {
        // The ceiling is inclusive: exactly max_ops of work is allowed.
        let b = ExecBudget::new(None, Some(100));
        assert!(!b.charge(100));
        assert!(!b.is_exhausted());
    }

    #[test]
    fn utilization_tracks_the_ops_fraction() {
        let b = ExecBudget::new(None, Some(200));
        assert_eq!(b.utilization(), 0.0);
        let _ = b.charge(50);
        assert_eq!(b.utilization(), 0.25);
        let _ = b.charge(150);
        assert_eq!(b.utilization(), 1.0);
        let _ = b.charge(100);
        assert_eq!(b.utilization(), 1.5, "over-charge reads past 1.0");
    }

    #[test]
    fn utilization_is_zero_for_unlimited_and_one_when_cancelled() {
        let b = ExecBudget::unlimited();
        assert_eq!(b.utilization(), 0.0);
        let _ = b.charge(1_000_000);
        assert_eq!(b.utilization(), 0.0);
        b.cancel();
        assert_eq!(b.utilization(), 1.0);
    }

    #[test]
    fn utilization_reads_the_wall_fraction() {
        let b = ExecBudget::new(Some(Duration::from_millis(0)), None);
        assert!(b.utilization() >= 1.0, "expired deadline reads ≥ 1");
        let generous = ExecBudget::new(Some(Duration::from_secs(600)), None);
        assert!(generous.utilization() < 0.01, "fresh 10-minute allowance");
    }

    #[test]
    fn wall_deadline_trips() {
        let b = ExecBudget::new(Some(Duration::from_millis(0)), None);
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.is_exhausted());
        assert!(b.charge(0));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let a = ExecBudget::unlimited();
        let b = a.clone();
        assert!(!b.is_exhausted());
        a.cancel();
        assert!(b.is_exhausted());
        assert!(b.charge(0));
    }

    #[test]
    fn clones_share_the_ops_counter() {
        let a = ExecBudget::new(None, Some(10));
        let b = a.clone();
        assert!(!a.charge(6));
        assert!(b.charge(6), "12 > 10 across clones");
    }

    #[test]
    fn spec_defaults_unlimited() {
        let spec = BudgetSpec::default();
        assert_eq!(spec, BudgetSpec::UNLIMITED);
        assert!(!spec.is_armed());
        assert!(spec.start().is_unlimited());
        assert!(BudgetSpec {
            max_ops: Some(1),
            ..Default::default()
        }
        .is_armed());
        assert!(BudgetSpec {
            max_millis: Some(1),
            ..Default::default()
        }
        .is_armed());
    }

    #[test]
    fn debug_formats() {
        let b = ExecBudget::new(None, Some(5));
        let _ = b.charge(1);
        let s = format!("{b:?}");
        assert!(s.contains("max_ops"));
    }
}
