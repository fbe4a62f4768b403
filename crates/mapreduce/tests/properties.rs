//! Property-based tests of the MapReduce engine: results must equal a
//! sequential by-hand computation regardless of partitioning/threading.

use std::collections::BTreeMap;
use std::hash::Hash;

use baywatch_mapreduce::{partition_of, FaultPolicy, JobConfig, MapReduce};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Word count equals the by-hand reference, row for row, for any corpus
    /// and any engine configuration.
    #[test]
    fn equals_sequential_reference(
        docs in prop::collection::vec("[a-c ]{0,30}", 0..60),
        partitions in 1usize..64,
        threads in 1usize..9,
    ) {
        let engine = MapReduce::new(JobConfig { partitions, threads });
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
        prop_assert!(report.is_clean());
        let words = docs.iter().flat_map(|doc| doc.split_whitespace());
        let reference: Vec<(&str, usize)> = grouped_by_hand(words.map(|w| (w, 1usize)), partitions)
            .into_iter()
            .map(|(w, ones)| (w, ones.len()))
            .collect();
        prop_assert_eq!(out, reference);
    }

    /// Groups, value order within a group and row order are invariant to
    /// thread count (determinism).
    #[test]
    fn thread_count_invariance(values in prop::collection::vec(0u32..1000, 0..300)) {
        let run_with = |threads: usize| {
            MapReduce::new(JobConfig { partitions: 8, threads }).run(
                &values,
                |v, emit| emit(v % 13, u64::from(*v)),
                |k, vs| vec![(*k, vs.to_vec())],
                &FaultPolicy::default(),
            ).0
        };
        let reference = grouped_by_hand(values.iter().map(|v| (v % 13, u64::from(*v))), 8);
        prop_assert_eq!(run_with(1), reference.clone());
        prop_assert_eq!(run_with(7), reference);
    }

    /// Partition assignment is total and stable.
    #[test]
    fn partitioning_valid(key in any::<u64>(), partitions in 1usize..1000) {
        let p = partition_of(&key, partitions);
        prop_assert!(p < partitions);
        prop_assert_eq!(p, partition_of(&key, partitions));
    }

    /// No records are lost: the count of reduced values equals the count
    /// of mapped emissions.
    #[test]
    fn no_record_loss(values in prop::collection::vec(any::<u16>(), 0..500)) {
        let engine = MapReduce::new(JobConfig { partitions: 16, threads: 4 });
        let (out, report) = engine.run(
            &values,
            |v, emit| emit(v % 31, *v),
            |k, vs| vec![(*k, vs.len())],
            &FaultPolicy::default(),
        );
        let reduced_total: usize = out.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(reduced_total, values.len());
        prop_assert_eq!(report.skipped_records(), 0);
    }
}

use baywatch_mapreduce::FaultReport;

/// Sample lists as the engine maintains them: deduplicated, bounded. Long
/// enough (up to 15 each) that merging three reports can trip the 32-entry
/// absorb cap.
fn arb_samples() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec("[a-e]{1,3}", 0..15).prop_map(|raw| {
        let mut out: Vec<String> = Vec::new();
        for s in raw {
            if !out.contains(&s) {
                out.push(s);
            }
        }
        out
    })
}

fn arb_fault_report() -> impl Strategy<Value = FaultReport> {
    (
        (0usize..100, 0usize..100, 0usize..100, 0usize..100),
        (0usize..100, 0usize..100, 0usize..100, 0usize..1000),
        (arb_samples(), arb_samples(), arb_samples(), arb_samples()),
    )
        .prop_map(
            |(
                (map_retries, reduce_retries, quarantined_inputs, map_bisections),
                (quarantined_keys, timed_out_inputs, timed_out_keys, lost_values),
                (input_samples, key_samples, timeout_samples, panic_samples),
            )| FaultReport {
                map_retries,
                reduce_retries,
                quarantined_inputs,
                map_bisections,
                quarantined_keys,
                timed_out_inputs,
                timed_out_keys,
                lost_values,
                input_samples,
                key_samples,
                timeout_samples,
                panic_samples,
                ..FaultReport::default()
            },
        )
}

proptest! {
    /// `FaultReport::absorb` is associative over engine-reachable reports
    /// (deduplicated, bounded sample lists) and preserves every numeric
    /// tally exactly — the property the checkpoint machinery relies on
    /// when it folds per-shard reports into a window report in resume
    /// order rather than execution order.
    #[test]
    fn fault_report_absorb_is_associative_and_count_preserving(
        a in arb_fault_report(),
        b in arb_fault_report(),
        c in arb_fault_report(),
    ) {
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.absorb(&b);
        left.absorb(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.absorb(&c);
        let mut right = a.clone();
        right.absorb(&bc);
        prop_assert_eq!(&left, &right);

        // Count preservation: numeric tallies sum exactly, nothing
        // saturates or is clamped.
        prop_assert_eq!(left.map_retries, a.map_retries + b.map_retries + c.map_retries);
        prop_assert_eq!(left.reduce_retries, a.reduce_retries + b.reduce_retries + c.reduce_retries);
        prop_assert_eq!(
            left.quarantined_inputs,
            a.quarantined_inputs + b.quarantined_inputs + c.quarantined_inputs
        );
        prop_assert_eq!(left.map_bisections, a.map_bisections + b.map_bisections + c.map_bisections);
        prop_assert_eq!(
            left.quarantined_keys,
            a.quarantined_keys + b.quarantined_keys + c.quarantined_keys
        );
        prop_assert_eq!(
            left.timed_out_inputs,
            a.timed_out_inputs + b.timed_out_inputs + c.timed_out_inputs
        );
        prop_assert_eq!(left.timed_out_keys, a.timed_out_keys + b.timed_out_keys + c.timed_out_keys);
        prop_assert_eq!(left.lost_values, a.lost_values + b.lost_values + c.lost_values);

        // The default report is the identity element.
        let mut with_identity = a.clone();
        with_identity.absorb(&FaultReport::default());
        prop_assert_eq!(with_identity, a);
    }
}
