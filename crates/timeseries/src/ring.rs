//! Fixed-capacity timestamp ring buffers for streaming ingestion.
//!
//! The streaming engine (`core::stream`) keeps one [`TimestampRing`] per
//! communication pair: a bounded, always-sorted window of *distinct* raw
//! timestamps, each carrying the multiplicity of raw events that collapsed
//! onto it. Two properties matter downstream:
//!
//! * **Losslessness inside the bound** — as long as neither the capacity
//!   nor the window retention drops an entry, the ring reproduces exactly
//!   the (timestamp, multiplicity) multiset a batch run over the same
//!   window would see, which is what makes streaming/batch equivalence
//!   provable rather than approximate.
//! * **Bounded state** — capacity overflow drops the *oldest* entries
//!   first and reports how many raw events went with them, so the caller
//!   can account for the loss instead of silently diverging.

use std::collections::VecDeque;

/// One distinct timestamp with the number of raw events observed on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingEntry {
    /// Raw (unquantized) epoch timestamp in seconds.
    pub timestamp: u64,
    /// How many raw events carried exactly this timestamp.
    pub multiplicity: u32,
}

/// Outcome of one batch append.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingPush {
    /// Raw events admitted into the ring by this append.
    pub appended_events: u64,
    /// Raw events dropped because the capacity bound evicted their
    /// (oldest) entries to make room.
    pub dropped_events: u64,
}

/// A bounded, sorted window of distinct timestamps with multiplicities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimestampRing {
    entries: VecDeque<RingEntry>,
    capacity: usize,
    events: u64,
}

impl TimestampRing {
    /// Creates an empty ring holding at most `capacity` distinct
    /// timestamps. A zero capacity is promoted to one so the ring can
    /// always hold the most recent event.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            events: 0,
        }
    }

    /// The capacity bound (distinct timestamps).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of distinct timestamps currently held.
    pub fn distinct_len(&self) -> usize {
        self.entries.len()
    }

    /// Total raw events currently held (sum of multiplicities).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the ring holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Oldest retained timestamp.
    pub fn first_timestamp(&self) -> Option<u64> {
        self.entries.front().map(|e| e.timestamp)
    }

    /// Newest retained timestamp.
    pub fn last_timestamp(&self) -> Option<u64> {
        self.entries.back().map(|e| e.timestamp)
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &RingEntry> {
        self.entries.iter()
    }

    /// The retained distinct timestamps, ascending.
    pub fn timestamps(&self) -> Vec<u64> {
        self.entries.iter().map(|e| e.timestamp).collect()
    }

    /// Appends one tick's worth of folded events: `batch` must be sorted
    /// ascending by timestamp, deduplicated, and every timestamp must be
    /// strictly greater than [`TimestampRing::last_timestamp`] (ticks only
    /// move forward; the caller folds out-of-order arrivals *within* a
    /// tick before appending). Entries violating the order are skipped and
    /// their events counted as dropped rather than corrupting the sort
    /// invariant.
    ///
    /// When the capacity bound is exceeded the *oldest* entries are
    /// evicted first and their raw events are reported in
    /// [`RingPush::dropped_events`].
    pub fn append_batch(&mut self, batch: &[(u64, u32)]) -> RingPush {
        let mut push = RingPush::default();
        for &(timestamp, multiplicity) in batch {
            let events = u64::from(multiplicity);
            if self.last_timestamp().is_some_and(|last| timestamp <= last) {
                push.dropped_events += events;
                continue;
            }
            self.entries.push_back(RingEntry {
                timestamp,
                multiplicity,
            });
            self.events += events;
            push.appended_events += events;
            while self.entries.len() > self.capacity {
                if let Some(evicted) = self.entries.pop_front() {
                    let lost = u64::from(evicted.multiplicity);
                    self.events -= lost;
                    push.dropped_events += lost;
                }
            }
        }
        push
    }

    /// Drops every entry with `timestamp < cutoff` — the window-retention
    /// edge is **inclusive**: an event landing exactly on the window start
    /// is retained, matching
    /// `ScheduleSpec::in_window`'s closed lower bound. Returns how many
    /// raw events slid out.
    pub fn retain_from(&mut self, cutoff: u64) -> u64 {
        let mut dropped = 0u64;
        while let Some(front) = self.entries.front() {
            if front.timestamp >= cutoff {
                break;
            }
            let lost = u64::from(front.multiplicity);
            self.entries.pop_front();
            self.events -= lost;
            dropped += lost;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(capacity: usize, stamps: &[u64]) -> TimestampRing {
        let mut ring = TimestampRing::new(capacity);
        let batch: Vec<(u64, u32)> = stamps.iter().map(|&t| (t, 1)).collect();
        ring.append_batch(&batch);
        ring
    }

    #[test]
    fn append_keeps_sorted_distinct_timestamps() {
        let ring = ring_of(8, &[10, 20, 30]);
        assert_eq!(ring.timestamps(), vec![10, 20, 30]);
        assert_eq!(ring.distinct_len(), 3);
        assert_eq!(ring.events(), 3);
        assert_eq!(ring.first_timestamp(), Some(10));
        assert_eq!(ring.last_timestamp(), Some(30));
    }

    #[test]
    fn multiplicities_count_raw_events() {
        let mut ring = TimestampRing::new(4);
        let push = ring.append_batch(&[(10, 3), (20, 1)]);
        assert_eq!(push.appended_events, 4);
        assert_eq!(ring.events(), 4);
        assert_eq!(ring.distinct_len(), 2);
    }

    #[test]
    fn capacity_exact_fits_without_loss() {
        // Exactly `capacity` distinct timestamps: nothing may drop.
        let mut ring = TimestampRing::new(5);
        let push = ring.append_batch(&[(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]);
        assert_eq!(push.dropped_events, 0);
        assert_eq!(ring.distinct_len(), 5);
        assert_eq!(ring.timestamps(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn capacity_plus_one_drops_exactly_the_oldest() {
        // capacity + 1 appends: exactly the oldest entry leaves, with its
        // multiplicity reported as dropped.
        let mut ring = TimestampRing::new(5);
        ring.append_batch(&[(1, 2), (2, 1), (3, 1), (4, 1), (5, 1)]);
        let push = ring.append_batch(&[(6, 1)]);
        assert_eq!(push.dropped_events, 2, "oldest entry carried 2 raw events");
        assert_eq!(ring.distinct_len(), 5);
        assert_eq!(ring.timestamps(), vec![2, 3, 4, 5, 6]);
        assert_eq!(ring.events(), 5);
    }

    #[test]
    fn retention_edge_is_inclusive() {
        // An entry exactly on the cutoff must be retained — the window
        // lower bound is closed.
        let mut ring = ring_of(8, &[99, 100, 101]);
        let dropped = ring.retain_from(100);
        assert_eq!(dropped, 1);
        assert_eq!(ring.timestamps(), vec![100, 101]);
    }

    #[test]
    fn retention_drops_everything_before_cutoff() {
        let mut ring = TimestampRing::new(8);
        ring.append_batch(&[(10, 2), (20, 1), (30, 4)]);
        let dropped = ring.retain_from(30);
        assert_eq!(dropped, 3);
        assert_eq!(ring.events(), 4);
        assert_eq!(ring.timestamps(), vec![30]);
        assert_eq!(ring.retain_from(31), 4);
        assert!(ring.is_empty());
        assert_eq!(ring.events(), 0);
    }

    #[test]
    fn out_of_order_append_is_rejected_not_corrupting() {
        let mut ring = ring_of(8, &[100]);
        let push = ring.append_batch(&[(50, 3)]);
        assert_eq!(push.dropped_events, 3);
        assert_eq!(push.appended_events, 0);
        assert_eq!(ring.timestamps(), vec![100]);
    }

    #[test]
    fn zero_capacity_promoted_to_one() {
        let mut ring = TimestampRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.append_batch(&[(1, 1), (2, 1)]);
        assert_eq!(ring.timestamps(), vec![2]);
    }
}
