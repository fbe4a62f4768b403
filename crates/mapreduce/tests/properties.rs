//! Property-based tests of the MapReduce engine: results must equal a
//! sequential reference computation regardless of partitioning/threading.

use std::collections::HashMap;

use baywatch_mapreduce::{partition_of, JobConfig, MapReduce};
use proptest::prelude::*;

fn reference_word_count(docs: &[String]) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for d in docs {
        for w in d.split_whitespace() {
            *m.entry(w.to_owned()).or_insert(0) += 1;
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Word count equals the sequential reference for any corpus and any
    /// engine configuration.
    #[test]
    fn equals_sequential_reference(
        docs in prop::collection::vec("[a-c ]{0,30}", 0..60),
        partitions in 1usize..64,
        threads in 1usize..9,
    ) {
        let engine = MapReduce::new(JobConfig { partitions, threads });
        let out = engine.run(
            docs.clone(),
            |doc: String, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_owned(), 1usize);
                }
            },
            |w, ones| vec![(w.clone(), ones.len())],
        );
        let reference = reference_word_count(&docs);
        let as_map: HashMap<String, usize> = out.into_iter().collect();
        prop_assert_eq!(as_map, reference);
    }

    /// The combiner path computes identical sums to the plain path.
    #[test]
    fn combiner_equivalence(
        keys in prop::collection::vec(0u64..20, 0..400),
        partitions in 1usize..16,
    ) {
        let engine = MapReduce::new(JobConfig { partitions, threads: 4 });
        let mut plain = engine.run(
            keys.clone(),
            |k, emit| emit(k, 1u64),
            |k, vs| vec![(*k, vs.iter().sum::<u64>())],
        );
        let mut combined = engine.run_with_combiner(
            keys,
            |k: u64, emit: &mut dyn FnMut(u64, u64)| emit(k, 1u64),
            |a, b| a + b,
            |k, vs| vec![(*k, vs.iter().sum::<u64>())],
        );
        plain.sort();
        combined.sort();
        prop_assert_eq!(plain, combined);
    }

    /// Output is invariant to thread count (determinism).
    #[test]
    fn thread_count_invariance(values in prop::collection::vec(0u32..1000, 0..300)) {
        let run_with = |threads: usize| {
            MapReduce::new(JobConfig { partitions: 8, threads }).run(
                values.clone(),
                |v, emit| emit(v % 13, v as u64),
                |k, mut vs| {
                    vs.sort();
                    vec![(*k, vs)]
                },
            )
        };
        prop_assert_eq!(run_with(1), run_with(7));
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
        let (out, stats) = engine.run_with_stats(
            values.clone(),
            |v, emit| emit(v % 31, v),
            |k, vs| vec![(*k, vs.len())],
        );
        let reduced_total: usize = out.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(reduced_total, values.len());
        prop_assert_eq!(stats.map_output_records(), values.len());
    }
}

use baywatch_mapreduce::FaultReport;
use std::time::Duration;

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
        (0u64..10_000, 0u64..10_000, 0u64..10_000),
    )
        .prop_map(
            |(
                (map_retries, reduce_retries, quarantined_inputs, map_bisections),
                (quarantined_keys, timed_out_inputs, timed_out_keys, lost_values),
                (input_samples, key_samples, timeout_samples, panic_samples),
                (map_us, shuffle_us, reduce_us),
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
                map_elapsed: Duration::from_micros(map_us),
                shuffle_elapsed: Duration::from_micros(shuffle_us),
                reduce_elapsed: Duration::from_micros(reduce_us),
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
        prop_assert_eq!(left.map_elapsed, a.map_elapsed + b.map_elapsed + c.map_elapsed);
        prop_assert_eq!(
            left.shuffle_elapsed,
            a.shuffle_elapsed + b.shuffle_elapsed + c.shuffle_elapsed
        );
        prop_assert_eq!(left.reduce_elapsed, a.reduce_elapsed + b.reduce_elapsed + c.reduce_elapsed);

        // The default report is the identity element.
        let mut with_identity = a.clone();
        with_identity.absorb(&FaultReport::default());
        prop_assert_eq!(with_identity, a);
    }
}
