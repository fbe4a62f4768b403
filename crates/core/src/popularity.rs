//! Destination popularity (§VII-C) and filter 1's verdicts, from one pass
//! over a window's `(destination, source)` pairs — a union over days is
//! exact — then [`PopularityStats::list`] asks the global whitelist once
//! per distinct destination.

use crate::record::LogRecord;

/// Distinct-source counts per destination of one window, and filter 1's
/// verdicts once [`PopularityStats::list`] has run.
#[derive(Debug, Clone, Default)]
pub struct PopularityStats {
    /// Destination → (distinct sources, listed by filter 1).
    #[expect(
        clippy::disallowed_types,
        reason = "probed per line and pair; iterated only by `list`, whose result is order-free"
    )]
    per_domain: std::collections::HashMap<String, (usize, bool)>,
    total_sources: usize,
}

impl PopularityStats {
    /// One pass over `(destination, source)` pairs, repeats allowed: two
    /// interning probes and one id-pair probe per pair; only a distinct
    /// destination is owned. Nothing is listed.
    #[expect(
        clippy::disallowed_types,
        reason = "interning tables are probed, and iterated only to own the counts"
    )]
    pub fn from_pairs<'a>(pairs: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        use std::collections::{HashMap, HashSet};
        let mut sources: HashMap<&str, usize> = HashMap::new();
        let mut destinations: HashMap<&str, usize> = HashMap::new();
        let mut counts: Vec<usize> = Vec::new();
        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for (destination, source) in pairs {
            let next = sources.len();
            let s = *sources.entry(source).or_insert(next);
            let next = counts.len();
            let d = *destinations.entry(destination).or_insert(next);
            if d == next {
                counts.push(0);
            }
            counts[d] += usize::from(seen.insert((d, s)));
        }
        Self {
            per_domain: destinations
                .into_iter()
                .map(|(d, id)| (d.to_owned(), (counts[id], false)))
                .collect(),
            total_sources: sources.len(),
        }
    }

    /// [`PopularityStats::from_pairs`] over the lines' pairs.
    pub fn from_records(records: &[LogRecord]) -> Self {
        Self::from_pairs(
            records
                .iter()
                .map(|r| (r.domain.as_str(), r.source.as_str())),
        )
    }

    /// Filter 1: asks `is_listed` once per distinct destination and returns
    /// the number of distinct pairs to the listed ones.
    pub fn list(&mut self, is_listed: impl Fn(&str) -> bool) -> usize {
        let mut pairs = 0;
        for (domain, (sources, listed)) in &mut self.per_domain {
            *listed = is_listed(domain);
            pairs += if *listed { *sources } else { 0 };
        }
        pairs
    }

    /// Whether the last [`PopularityStats::list`] listed `domain`.
    pub fn is_listed(&self, domain: &str) -> bool {
        self.per_domain
            .get(domain)
            .is_some_and(|&(_, listed)| listed)
    }

    /// Popularity of a destination (0 when never seen).
    pub fn popularity(&self, domain: &str) -> f64 {
        let sources = self
            .per_domain
            .get(domain)
            .map_or(0, |&(sources, _)| sources);
        sources as f64 / self.total_sources.max(1) as f64
    }

    /// Number of distinct sources in the window.
    pub fn total_sources(&self) -> usize {
        self.total_sources
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn record(s: &str, d: &str) -> LogRecord {
        LogRecord::new(0, s, d, "")
    }

    #[test]
    fn popularity_fractions() {
        let records = vec![
            record("a", "popular.com"),
            record("b", "popular.com"),
            record("c", "popular.com"),
            record("a", "niche.com"),
            // duplicate requests don't double-count sources
            record("a", "popular.com"),
        ];
        let stats = PopularityStats::from_records(&records);
        assert_eq!(stats.total_sources(), 3);
        assert!((stats.popularity("popular.com") - 1.0).abs() < 1e-12);
        assert!((stats.popularity("niche.com") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.popularity("unknown.com"), 0.0);
        assert!(
            !stats.is_listed("popular.com"),
            "nothing listed before `list`"
        );
    }

    /// Every `(source, domain)` line appears one to three times.
    fn repeated_lines() -> Vec<LogRecord> {
        let mut records = Vec::new();
        for i in 0..60usize {
            let s = format!("host{}", i % 12);
            let d = format!("site{}.com", (i * i) % 7);
            for _ in 0..=i % 3 {
                records.push(record(&s, &d));
            }
        }
        records
    }

    #[test]
    fn repeated_lines_match_a_hand_count() {
        let records = repeated_lines();
        let mut by_domain: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for r in &records {
            by_domain.entry(&r.domain).or_default().insert(&r.source);
        }
        let mut stats = PopularityStats::from_records(&records);
        assert_eq!(stats.total_sources(), 12);
        for (domain, sources) in &by_domain {
            assert_eq!(stats.popularity(domain), sources.len() as f64 / 12.0);
        }
        let pairs: usize = by_domain.values().map(BTreeSet::len).sum();
        assert_eq!(stats.list(|_| true), pairs);
    }

    #[test]
    fn listed_pairs_match_a_hand_count() {
        let records = repeated_lines();
        let is_listed = |d: &str| d == "site0.com" || d == "site4.com" || d == "absent.com";
        let by_hand: BTreeSet<(&str, &str)> = records
            .iter()
            .filter(|r| is_listed(&r.domain))
            .map(|r| (r.source.as_str(), r.domain.as_str()))
            .collect();
        assert!(by_hand.len() > 2);
        let mut stats = PopularityStats::from_records(&records);
        assert_eq!(stats.list(is_listed), by_hand.len());
        for r in &records {
            assert_eq!(stats.is_listed(&r.domain), is_listed(&r.domain));
        }
        assert!(!stats.is_listed("absent.com"), "only seen destinations");
        // A second verdict replaces the first.
        assert_eq!(stats.list(|_| false), 0);
        assert!(records.iter().all(|r| !stats.is_listed(&r.domain)));
    }

    #[test]
    fn empty_window() {
        let mut stats = PopularityStats::from_records(&[]);
        assert_eq!(stats.total_sources(), 0);
        assert_eq!(stats.popularity("x.com"), 0.0);
        assert_eq!(stats.list(|_| true), 0);
        assert!(!stats.is_listed("x.com"));
    }

    #[test]
    fn large_window_consistency() {
        // 100 sources; domain "shared.com" contacted by every 4th source.
        let mut records = Vec::new();
        for i in 0..100 {
            let s = format!("host{i}");
            records.push(record(&s, "base.com"));
            if i % 4 == 0 {
                records.push(record(&s, "shared.com"));
            }
        }
        let mut stats = PopularityStats::from_records(&records);
        assert_eq!(stats.total_sources(), 100);
        assert!((stats.popularity("shared.com") - 0.25).abs() < 1e-12);
        assert!((stats.popularity("base.com") - 1.0).abs() < 1e-12);
        assert_eq!(stats.list(|d| d == "shared.com"), 25);
    }
}
