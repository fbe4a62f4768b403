//! Adversarial traces for per-pair work-budget tests.
//!
//! The deployment constraint of §VIII-B2 (26M pairs must clear the daily
//! window in ~1.5 h) means the pipeline has to survive *pathological*
//! pairs: series whose analysis cost is wildly out of proportion to their
//! event count. This module builds such inputs deterministically — no
//! RNG — so budget/timeout tests trip at exactly the same checkpoint on
//! every machine.

/// A sparse strided beacon: `events` timestamps exactly `stride` seconds
/// apart starting at `start`.
///
/// At time scale 1 the binned series spans `events · stride` bins, so a
/// modest event count (hundreds) produces a series of hundreds of
/// thousands of bins — each permutation round then costs that many work
/// units, which trips an ops-metered
/// [`ExecBudget`](../../baywatch_timeseries/budget/struct.ExecBudget.html)
/// deterministically while a normal beacon pair stays far under the same
/// ceiling.
///
/// # Panics
///
/// Panics if `stride == 0`.
pub fn pathological_sparse_beacon(start: u64, events: usize, stride: u64) -> Vec<u64> {
    assert!(stride > 0, "stride must be positive");
    (0..events as u64).map(|i| start + i * stride).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_beacon_is_exact_grid() {
        let ts = pathological_sparse_beacon(50_000, 300, 2_333);
        assert_eq!(ts.len(), 300);
        assert_eq!(ts[0], 50_000);
        assert!(ts.windows(2).all(|w| w[1] - w[0] == 2_333));
        // The property the budget tests rely on: span (≈ bins at scale 1)
        // is several hundred thousand while the event count stays tiny.
        let span = ts[ts.len() - 1] - ts[0];
        assert_eq!(span, 299 * 2_333);
        assert!(span > 500_000);
    }

    #[test]
    #[should_panic]
    fn zero_stride_rejected() {
        pathological_sparse_beacon(0, 10, 0);
    }
}
