//! Destination popularity statistics (§VII-C).
//!
//! For the local whitelist, BAYWATCH measures each destination's popularity
//! as the number of distinct sources contacting it divided by the total
//! number of sources in the window — computed here as a MapReduce job
//! (`d → {s}` then `d → |{s}| / |S|`).

use std::collections::{HashMap, HashSet};

use baywatch_mapreduce::{FaultPolicy, FaultReport, MapReduce};

use crate::record::LogRecord;

/// Popularity (fraction of the monitored population) per destination.
#[derive(Debug, Clone, Default)]
pub struct PopularityStats {
    per_domain: HashMap<String, f64>,
    total_sources: usize,
}

impl PopularityStats {
    /// Computes popularity from a window of records as one job of the given
    /// MapReduce engine, run under `policy`. A destination the engine had
    /// to drop reads as never seen (popularity 0, so never whitelisted);
    /// the returned [`FaultReport`] says so.
    pub fn compute(
        engine: &MapReduce,
        records: &[LogRecord],
        policy: &FaultPolicy,
    ) -> (Self, FaultReport) {
        let total_sources = records
            .iter()
            .map(|r| r.source.as_str())
            .collect::<HashSet<_>>()
            .len();
        if total_sources == 0 {
            return (Self::default(), FaultReport::default());
        }
        // MAP: record -> (domain, source), borrowed from the window;
        // REDUCE: count distinct sources. Only a distinct domain is owned.
        let (pairs, faults) = engine.run(
            records,
            |r, emit| emit(r.domain.as_str(), r.source.as_str()),
            |d, sources| {
                let distinct: HashSet<&str> = sources.iter().copied().collect();
                vec![(*d, distinct.len())]
            },
            policy,
        );
        let per_domain = pairs
            .into_iter()
            .map(|(d, n)| (d.to_owned(), n as f64 / total_sources as f64))
            .collect();
        let stats = Self {
            per_domain,
            total_sources,
        };
        (stats, faults)
    }

    /// Popularity of a destination (0 when never seen).
    pub fn popularity(&self, domain: &str) -> f64 {
        self.per_domain.get(domain).copied().unwrap_or(0.0)
    }

    /// Number of distinct sources in the window.
    pub fn total_sources(&self) -> usize {
        self.total_sources
    }

    /// Number of distinct destinations.
    pub fn distinct_destinations(&self) -> usize {
        self.per_domain.len()
    }

    /// Number of distinct sources contacting `domain`.
    pub fn source_count(&self, domain: &str) -> usize {
        (self.popularity(domain) * self.total_sources as f64).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baywatch_mapreduce::JobConfig;

    fn compute(records: &[LogRecord]) -> PopularityStats {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let (stats, faults) = PopularityStats::compute(&engine, records, &FaultPolicy::default());
        assert!(faults.is_clean());
        stats
    }

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
        let stats = compute(&records);
        assert_eq!(stats.total_sources(), 3);
        assert!((stats.popularity("popular.com") - 1.0).abs() < 1e-12);
        assert!((stats.popularity("niche.com") - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.popularity("unknown.com"), 0.0);
        assert_eq!(stats.distinct_destinations(), 2);
        assert_eq!(stats.source_count("popular.com"), 3);
        assert_eq!(stats.source_count("niche.com"), 1);
    }

    #[test]
    fn repeated_lines_match_a_hand_count() {
        use std::collections::BTreeMap;
        // Every (source, domain) line appears one to three times.
        let mut records = Vec::new();
        for i in 0..60usize {
            let s = format!("host{}", i % 12);
            let d = format!("site{}.com", (i * i) % 7);
            for _ in 0..=i % 3 {
                records.push(record(&s, &d));
            }
        }
        let mut by_domain: BTreeMap<&str, HashSet<&str>> = BTreeMap::new();
        for r in &records {
            by_domain.entry(&r.domain).or_default().insert(&r.source);
        }
        let stats = compute(&records);
        assert_eq!(stats.total_sources(), 12);
        assert_eq!(stats.distinct_destinations(), by_domain.len());
        for (domain, sources) in by_domain {
            assert_eq!(stats.popularity(domain), sources.len() as f64 / 12.0);
            assert_eq!(stats.source_count(domain), sources.len());
        }
    }

    #[test]
    fn empty_window() {
        let stats = compute(&[]);
        assert_eq!(stats.total_sources(), 0);
        assert_eq!(stats.popularity("x.com"), 0.0);
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
        let stats = compute(&records);
        assert_eq!(stats.total_sources(), 100);
        assert!((stats.popularity("shared.com") - 0.25).abs() < 1e-12);
        assert!((stats.popularity("base.com") - 1.0).abs() < 1e-12);
    }
}
