//! Novelty analysis — change detection over reported cases (§V-B).
//!
//! Analysts should not re-investigate what they have already seen. The
//! novelty filter consolidates cases of the same source/destination pair
//! and forwards a case only when
//!
//! * its destination has never been reported before, or
//! * the source has never been reported as beaconing *to that
//!   destination*.
//!
//! Suppressed cases are still logged (kept available for review) but do not
//! enter the ranking stage again. The store persists across analysis runs
//! (daily operation), which is exactly what makes it a change detector.

use crate::pair::CommunicationPair;

/// The decision for one candidate case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Novelty {
    /// Destination never reported before.
    NewDestination,
    /// Destination known, but this source is new for it.
    NewSourceForDestination,
    /// Pair already reported — suppress from ranking.
    Duplicate,
}

impl Novelty {
    /// Whether the case should be forwarded to ranking.
    pub fn is_novel(&self) -> bool {
        !matches!(self, Novelty::Duplicate)
    }
}

/// Persistent memory of reported cases.
#[derive(Debug, Clone, Default)]
pub struct NoveltyStore {
    /// destination → sources already reported for it.
    #[expect(
        clippy::disallowed_types,
        reason = "only probed per ranked case (entry, get, contains, len), never iterated: \
                  order cannot reach output"
    )]
    reported: std::collections::HashMap<String, std::collections::HashSet<String>>,
    suppressed_log: Vec<CommunicationPair>,
}

impl NoveltyStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Classifies a pair *and records it* (the filter runs exactly once per
    /// candidate case per run).
    pub fn observe(&mut self, pair: &CommunicationPair) -> Novelty {
        use std::collections::hash_map::Entry;
        match self.reported.entry(pair.destination.clone()) {
            Entry::Vacant(e) => {
                e.insert([pair.source.clone()].into());
                Novelty::NewDestination
            }
            Entry::Occupied(mut e) => {
                if e.get_mut().insert(pair.source.clone()) {
                    Novelty::NewSourceForDestination
                } else {
                    self.suppressed_log.push(pair.clone());
                    Novelty::Duplicate
                }
            }
        }
    }

    /// Whether exactly this pair has been reported before (read-only).
    pub fn is_reported(&self, pair: &CommunicationPair) -> bool {
        self.reported
            .get(&pair.destination)
            .is_some_and(|sources| sources.contains(&pair.source))
    }

    /// Cases suppressed as duplicates (kept for analyst review, per the
    /// paper: "the candidate is still logged and reported").
    pub fn suppressed(&self) -> &[CommunicationPair] {
        &self.suppressed_log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(s: &str, d: &str) -> CommunicationPair {
        CommunicationPair::new(s, d)
    }

    #[test]
    fn first_sighting_is_new_destination() {
        let mut store = NoveltyStore::new();
        assert_eq!(store.observe(&pair("a", "x.com")), Novelty::NewDestination);
    }

    #[test]
    fn new_source_same_destination() {
        let mut store = NoveltyStore::new();
        store.observe(&pair("a", "x.com"));
        assert_eq!(
            store.observe(&pair("b", "x.com")),
            Novelty::NewSourceForDestination
        );
    }

    #[test]
    fn exact_duplicate_suppressed_and_logged() {
        let mut store = NoveltyStore::new();
        store.observe(&pair("a", "x.com"));
        let second = store.observe(&pair("a", "x.com"));
        assert_eq!(second, Novelty::Duplicate);
        assert!(!second.is_novel());
        assert_eq!(store.suppressed(), &[pair("a", "x.com")]);
    }

    #[test]
    fn persists_across_runs() {
        let mut store = NoveltyStore::new();
        // Run 1.
        store.observe(&pair("a", "x.com"));
        // Run 2 (same store): the pair is a duplicate, a new pair is not.
        assert_eq!(store.observe(&pair("a", "x.com")), Novelty::Duplicate);
        assert_eq!(store.observe(&pair("a", "y.com")), Novelty::NewDestination);
    }

    #[test]
    fn is_reported_answers_without_recording() {
        let mut store = NoveltyStore::new();
        store.observe(&pair("a", "x.com"));
        store.observe(&pair("a", "x.com"));
        let before = store.suppressed().len();
        // A hit, a new source for a known destination, a new destination.
        assert!(store.is_reported(&pair("a", "x.com")));
        assert!(!store.is_reported(&pair("b", "x.com")));
        assert!(!store.is_reported(&pair("a", "y.com")));
        assert_eq!(store.suppressed().len(), before);
        // The misses really were not recorded: both are still novel.
        assert!(store.observe(&pair("b", "x.com")).is_novel());
        assert!(store.observe(&pair("a", "y.com")).is_novel());
    }

    #[test]
    fn novelty_is_novel_semantics() {
        assert!(Novelty::NewDestination.is_novel());
        assert!(Novelty::NewSourceForDestination.is_novel());
        assert!(!Novelty::Duplicate.is_novel());
    }
}
