//! Property-based tests of the MapReduce engine: results must equal a
//! sequential by-hand computation regardless of partitioning/threading.

use std::collections::BTreeMap;
use std::hash::Hash;

use baywatch_mapreduce::{partition_of, FaultPolicy, FaultReport, JobConfig, MapReduce};
use baywatch_stats::rng::{forall, Rng};

/// The engine's output contract, computed sequentially by hand: one group
/// per key with its values in emission order, groups ordered by partition
/// index and then by key.
fn grouped_by_hand<K: Ord + Hash, V>(
    records: impl IntoIterator<Item = (K, V)>,
    partitions: usize,
) -> Vec<(K, Vec<V>)> {
    let mut groups: BTreeMap<K, Vec<V>> = BTreeMap::new();
    for (k, v) in records {
        groups.entry(k).or_default().push(v);
    }
    let mut rows: Vec<(K, Vec<V>)> = groups.into_iter().collect();
    // Stable: keys stay sorted within a partition.
    rows.sort_by_key(|(k, _)| partition_of(k, partitions));
    rows
}

/// A string of `min..=max` characters drawn from `alphabet`.
fn text(rng: &mut Rng, alphabet: &[u8], min: usize, max: usize) -> String {
    let len = rng.random_range(min..=max);
    (0..len)
        .filter_map(|_| rng.choose(alphabet).map(|&b| char::from(b)))
        .collect()
}

/// Word count equals the by-hand reference, row for row, for any corpus
/// and any engine configuration.
#[test]
fn equals_sequential_reference() {
    forall(32, 1, |rng| {
        let len = rng.random_range(0..60);
        let docs: Vec<String> = (0..len).map(|_| text(rng, b"abc ", 0, 30)).collect();
        let partitions = rng.random_range(1usize..64);
        let threads = rng.random_range(1usize..9);
        let engine = MapReduce::new(JobConfig {
            partitions,
            threads,
        });
        let (out, report) = engine.run(
            &docs,
            |doc, emit| {
                for w in doc.split_whitespace() {
                    emit(w, 1usize);
                }
            },
            |w, ones| vec![(*w, ones.len())],
            &FaultPolicy::default(),
        );
        assert!(report.is_clean());
        let words = docs.iter().flat_map(|doc| doc.split_whitespace());
        let reference: Vec<(&str, usize)> = grouped_by_hand(words.map(|w| (w, 1usize)), partitions)
            .into_iter()
            .map(|(w, ones)| (w, ones.len()))
            .collect();
        assert_eq!(out, reference);
    });
}

/// Groups, value order within a group and row order are invariant to
/// thread count (determinism).
#[test]
fn thread_count_invariance() {
    forall(32, 2, |rng| {
        let len = rng.random_range(0..300);
        let values: Vec<u32> = (0..len).map(|_| rng.random_range(0..1000)).collect();
        let run_with = |threads: usize| {
            MapReduce::new(JobConfig {
                partitions: 8,
                threads,
            })
            .run(
                &values,
                |v, emit| emit(v % 13, u64::from(*v)),
                |k, vs| vec![(*k, vs.to_vec())],
                &FaultPolicy::default(),
            )
            .0
        };
        let reference = grouped_by_hand(values.iter().map(|v| (v % 13, u64::from(*v))), 8);
        assert_eq!(run_with(1), reference.clone());
        assert_eq!(run_with(7), reference);
    });
}

/// Partition assignment is total and stable.
#[test]
fn partitioning_valid() {
    forall(32, 3, |rng| {
        let key = rng.next_u64();
        let partitions = rng.random_range(1usize..1000);
        let p = partition_of(&key, partitions);
        assert!(p < partitions);
        assert_eq!(p, partition_of(&key, partitions));
    });
}

/// No records are lost: the count of reduced values equals the count
/// of mapped emissions.
#[test]
fn no_record_loss() {
    forall(32, 4, |rng| {
        let len = rng.random_range(0..500);
        let values: Vec<u16> = (0..len).map(|_| rng.random_range(0..=u16::MAX)).collect();
        let engine = MapReduce::new(JobConfig {
            partitions: 16,
            threads: 4,
        });
        let (out, report) = engine.run(
            &values,
            |v, emit| emit(v % 31, *v),
            |k, vs| vec![(*k, vs.len())],
            &FaultPolicy::default(),
        );
        let reduced_total: usize = out.iter().map(|(_, n)| n).sum();
        assert_eq!(reduced_total, values.len());
        assert_eq!(report.skipped_records(), 0);
    });
}

/// Sample lists as the engine maintains them: deduplicated, bounded. Long
/// enough (up to 15 each) that merging three reports can trip the 32-entry
/// absorb cap.
fn arb_samples(rng: &mut Rng) -> Vec<String> {
    let len = rng.random_range(0..15);
    let mut out: Vec<String> = Vec::new();
    for _ in 0..len {
        let s = text(rng, b"abcde", 1, 3);
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

fn arb_fault_report(rng: &mut Rng) -> FaultReport {
    FaultReport {
        map_retries: rng.random_range(0..100),
        reduce_retries: rng.random_range(0..100),
        quarantined_inputs: rng.random_range(0..100),
        map_bisections: rng.random_range(0..100),
        quarantined_keys: rng.random_range(0..100),
        lost_values: rng.random_range(0..1000),
        input_samples: arb_samples(rng),
        key_samples: arb_samples(rng),
        panic_samples: arb_samples(rng),
        ..FaultReport::default()
    }
}

/// `FaultReport::absorb` is associative over engine-reachable reports
/// (deduplicated, bounded sample lists) and preserves every numeric
/// tally exactly — the property the checkpoint machinery relies on
/// when it folds per-shard reports into a window report in resume
/// order rather than execution order.
#[test]
fn fault_report_absorb_is_associative_and_count_preserving() {
    forall(256, 5, |rng| {
        let a = arb_fault_report(rng);
        let b = arb_fault_report(rng);
        let c = arb_fault_report(rng);
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        assert_eq!(&left, &right);

        // Count preservation: numeric tallies sum exactly, nothing
        // saturates or is clamped.
        assert_eq!(
            left.map_retries,
            a.map_retries + b.map_retries + c.map_retries
        );
        assert_eq!(
            left.reduce_retries,
            a.reduce_retries + b.reduce_retries + c.reduce_retries
        );
        assert_eq!(
            left.quarantined_inputs,
            a.quarantined_inputs + b.quarantined_inputs + c.quarantined_inputs
        );
        assert_eq!(
            left.map_bisections,
            a.map_bisections + b.map_bisections + c.map_bisections
        );
        assert_eq!(
            left.quarantined_keys,
            a.quarantined_keys + b.quarantined_keys + c.quarantined_keys
        );
        assert_eq!(
            left.lost_values,
            a.lost_values + b.lost_values + c.lost_values
        );

        // The default report is the identity element.
        let mut with_identity = a.clone();
        with_identity.absorb(&FaultReport::default());
        assert_eq!(with_identity, a);
    });
}
