//! The slow-beacon fixture: the low-and-slow pairs that cost the detector
//! the most.
//!
//! A beacon that calls home every forty minutes (Oprea et al., arXiv
//! 1411.5005, hunt exactly such low-and-slow C&C) holds a few hundred
//! events but spans hundreds of thousands of one-second bins, and the
//! detector's work grows with bins, not events. `max_bins` (2²⁰) bounds
//! that span, and so every pair's work (DESIGN §6.1). This module builds
//! such pairs deterministically — no RNG — so a test or benchmark sees the
//! same series on every machine.

/// A sparse strided beacon: `events` timestamps exactly `stride` seconds
/// apart starting at `start`.
///
/// At time scale 1 the binned series spans `(events − 1) · stride + 1`
/// bins: `(50_000, 300, 2_333)` is a 39-minute beacon over ~7·10⁵ bins,
/// which the detector runs in full and reports periodic.
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
        // What makes it slow: the span (≈ bins at scale 1) is several
        // hundred thousand while the event count stays tiny.
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
