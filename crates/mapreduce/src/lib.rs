//! An in-process, multi-threaded MapReduce engine.
//!
//! BAYWATCH's implementation (§VII of the paper) is structured as five
//! modular MapReduce jobs — data extraction, rescaling/merging, destination
//! popularity, beaconing detection, ranking — each keyed by a hash of the
//! source/destination pair `H(s, d)` so partition counts (and thus reducer
//! fan-out) stay controllable. This crate reproduces that programming model
//! at laptop scale: mappers run in parallel over input chunks, emit keyed
//! records into hash partitions, and a pool of [`JobConfig::threads`]
//! reducers works through the partitions with keys grouped and sorted.
//!
//! The engine is deliberately synchronous and in-memory — the paper's
//! contribution is the *decomposition into modular jobs*, not HDFS — but it
//! preserves the semantics that matter: deterministic partitioning by key
//! hash and grouped-and-sorted reduce input.
//!
//! There is one execution body, [`MapReduce::run`]. Daily log mining meets
//! dirty records as a matter of course, so every job runs fault-tolerantly:
//! a panicking map slice is bisected down to its poison record and a
//! panicking reduce key is quarantined (see the [`fault`] module), and the
//! [`FaultReport`] says what was dropped. Nothing is retried: the job is
//! deterministic, so a unit that failed once fails again.
//! [`MapReduce::run_sharded_checkpointed`] is the persistence layer: the
//! same body once per shard, checkpoints between.
//!
//! ```
//! use baywatch_mapreduce::{JobConfig, MapReduce};
//!
//! // Classic word count. Inputs are borrowed, so keys may point into them.
//! let docs = ["to be or not to be", "be fast"];
//! let engine = MapReduce::new(JobConfig::default());
//! let (counts, faults) = engine.run(
//!     &docs,
//!     |doc, emit| {
//!         for w in doc.split_whitespace() {
//!             emit(w, 1usize);
//!         }
//!     },
//!     |word, ones| vec![(*word, ones.len())],
//! );
//! let be = counts.iter().find(|(w, _)| *w == "be").unwrap();
//! assert_eq!(be.1, 3);
//! assert!(faults.is_clean());
//! ```

#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::disallowed_types,
        clippy::disallowed_methods
    )
)]

pub mod fault;
pub mod manifest;

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::fmt::Debug;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, PoisonError};

use baywatch_obs::MetricsRegistry;
use fault::PhaseFaults;

pub use fault::{FaultPlan, FaultReport, SAMPLE_LIMIT};
pub use manifest::{
    fnv1a64, shard_plan_digest, CheckpointStore, CheckpointedRun, DlqEntry, ManifestLoad,
    RunManifest, ShardCheckpoint, ShardRecord, ShardedOutcome,
};

/// Configuration of a MapReduce run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobConfig {
    /// Number of hash partitions (= reduce tasks). The paper uses a k-bit
    /// hash, e.g. 5 bits → 32 reduce tasks; [`JobConfig::with_hash_bits`]
    /// mirrors that.
    pub partitions: usize,
    /// Number of workers in each phase. The map phase splits the input
    /// into at most `threads` contiguous chunks, one OS thread each; the
    /// reduce phase runs at most `threads` OS threads, which claim the
    /// non-empty partitions largest first. Partitions set fan-out, this
    /// field sets concurrency. Defaults to the available parallelism.
    pub threads: usize,
}

impl Default for JobConfig {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self {
            partitions: 32,
            threads,
        }
    }
}

impl JobConfig {
    /// Sets the partition count from a hash bit-width, like the paper's
    /// "a 5-bit hash results in 32 reduce tasks".
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 16.
    pub fn with_hash_bits(mut self, bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "hash bits must be in 1..=16");
        self.partitions = 1usize << bits;
        self
    }
}

/// The MapReduce engine.
#[derive(Debug, Clone)]
pub struct MapReduce {
    config: JobConfig,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl MapReduce {
    /// Creates an engine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `partitions` or `threads` is zero.
    pub fn new(config: JobConfig) -> Self {
        assert!(config.partitions > 0, "partitions must be positive");
        assert!(config.threads > 0, "threads must be positive");
        Self {
            config,
            metrics: None,
        }
    }

    /// Attaches a metrics registry; every run records job and fault
    /// counters (`mapreduce.*`) into it. All recorded values are
    /// order-independent sums, so they stay deterministic under threading.
    #[must_use]
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The engine configuration.
    pub fn config(&self) -> JobConfig {
        self.config
    }

    /// Runs a job: `mapper(input, emit)` produces keyed records,
    /// `reducer(key, values)` consumes each group. Output is ordered by
    /// partition index ([`partition_of`]), then by key within the
    /// partition — fully deterministic for a fixed configuration. Inputs
    /// are borrowed for the whole run, so keys and values may point into
    /// them instead of copying.
    ///
    /// Every map slice and reduce partition executes under
    /// `catch_unwind`. A map slice that panics is bisected, both halves
    /// re-mapped, down to the single poison record; a partition that
    /// panics is re-reduced key by key, and a key whose reducer panics is
    /// quarantined together with its values. The run always completes;
    /// the returned [`FaultReport`] says what was bisected and what was
    /// dropped.
    ///
    /// Isolation shapes the signature: the reducer borrows the value
    /// group (`&[V]`) because the per-key pass re-reads it after a
    /// partition failed, and `I` and `K` must be `Debug` so quarantined
    /// units can be sampled into the report. Mappers and reducers may run
    /// more than once for the same unit — they must be idempotent with
    /// respect to external side effects.
    pub fn run<'a, I, K, V, O, M, R>(
        &self,
        inputs: &'a [I],
        mapper: M,
        reducer: R,
    ) -> (Vec<O>, FaultReport)
    where
        I: Sync + Debug,
        K: Hash + Eq + Ord + Send + Debug,
        V: Send,
        O: Send,
        M: Fn(&'a I, &mut dyn FnMut(K, V)) + Sync,
        R: Fn(&K, &[V]) -> Vec<O> + Sync,
    {
        if let Some(metrics) = &self.metrics {
            metrics.counter("mapreduce.jobs").inc();
        }
        self.run_uncounted(inputs, mapper, reducer)
    }

    /// [`MapReduce::run`] without counting a job: one shard of a sharded
    /// sweep, which counts as one job however many shards it runs.
    fn run_uncounted<'a, I, K, V, O, M, R>(
        &self,
        inputs: &'a [I],
        mapper: M,
        reducer: R,
    ) -> (Vec<O>, FaultReport)
    where
        I: Sync + Debug,
        K: Hash + Eq + Ord + Send + Debug,
        V: Send,
        O: Send,
        M: Fn(&'a I, &mut dyn FnMut(K, V)) + Sync,
        R: Fn(&K, &[V]) -> Vec<O> + Sync,
    {
        let mut report = FaultReport::default();
        let n_partitions = self.config.partitions;

        // ---- Map phase: per-worker chunks, each slice resilient. ----
        // Each worker owns a vector of per-partition buckets; no locking on
        // the hot path.
        let mut all_buckets: Vec<Vec<Vec<(K, V)>>> = Vec::new();
        let mut map_faults = PhaseFaults::default();
        std::thread::scope(|scope| {
            let handles: Vec<_> = split(inputs, self.config.threads)
                .into_iter()
                .map(|chunk| {
                    let mapper = &mapper;
                    scope.spawn(move || map_chunk(chunk, mapper, n_partitions))
                })
                .collect();
            for h in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "task panics are contained per task by catch_unwind; a failed scope join means the engine's own bookkeeping panicked, which is a bug to surface, not input to survive"
                )]
                let (buckets, faults) = h.join().expect("map worker panicked");
                all_buckets.push(buckets);
                map_faults.merge(faults);
            }
        });
        report.map_bisections = map_faults.bisections;
        report.quarantined_inputs = map_faults.quarantined;
        report.input_samples = map_faults.unit_samples;
        report.panic_samples = map_faults.panic_samples;

        // ---- Shuffle: merge per-worker buckets per partition. ----
        let mut partitions: Vec<Vec<(K, V)>> = (0..n_partitions).map(|_| Vec::new()).collect();
        for worker_buckets in all_buckets {
            for (p, bucket) in worker_buckets.into_iter().enumerate() {
                partitions[p].extend(bucket);
            }
        }

        // ---- Reduce phase: a bounded pool claims partitions. ----
        // `min(threads, non-empty partitions)` workers take partitions from
        // one queue, largest first (ties by index) so the heaviest task
        // starts first; results are merged in partition order, which is
        // the output order, whichever worker ran them.
        let mut queue: Vec<(usize, Vec<(K, V)>)> = partitions
            .into_iter()
            .enumerate()
            .filter(|(_, records)| !records.is_empty())
            .collect();
        queue.sort_by_key(|(p, records)| (Reverse(records.len()), *p));
        let workers = self.config.threads.min(queue.len());
        let queue = Mutex::new(queue.into_iter());
        let mut reduced: Vec<Option<(Vec<O>, PhaseFaults)>> =
            (0..n_partitions).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (queue, reducer) = (&queue, &reducer);
                    scope.spawn(move || {
                        let mut done = Vec::new();
                        loop {
                            // The guard drops with this statement: the
                            // lock is held for the claim only, and the
                            // claim (`next`) cannot panic, so the queue
                            // behind a poisoned lock is still whole.
                            let claimed =
                                queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                            let Some((p, records)) = claimed else {
                                break done;
                            };
                            done.push((p, reduce_partition(records, reducer)));
                        }
                    })
                })
                .collect();
            for h in handles {
                #[expect(
                    clippy::expect_used,
                    reason = "task panics are contained per task by catch_unwind; a failed scope join means the engine's own bookkeeping panicked, which is a bug to surface, not input to survive"
                )]
                let done = h.join().expect("reduce worker panicked");
                for (p, result) in done {
                    reduced[p] = Some(result);
                }
            }
        });
        let mut output = Vec::new();
        let mut reduce_faults = PhaseFaults::default();
        for (out, faults) in reduced.into_iter().flatten() {
            output.extend(out);
            reduce_faults.merge(faults);
        }
        report.quarantined_keys = reduce_faults.quarantined;
        report.lost_values = reduce_faults.lost_values;
        report.key_samples = reduce_faults.unit_samples;
        for msg in reduce_faults.panic_samples {
            if report.panic_samples.len() >= SAMPLE_LIMIT * 2 {
                break;
            }
            if !report.panic_samples.contains(&msg) {
                report.panic_samples.push(msg);
            }
        }

        if let Some(metrics) = &self.metrics {
            record_fault_metrics(metrics, &report);
        }

        (output, report)
    }

    /// Runs a shard plan under durable checkpoint/resume.
    ///
    /// Each shard executes through [`MapReduce::run`]; after every shard
    /// the outputs (via `encode`), the shard's [`FaultReport`], and the
    /// deterministic metrics delta it contributed are persisted
    /// atomically, and the [`RunManifest`] — completed shard digests plus
    /// the dead-letter queue assembled by `dlq_hook` — is rewritten. On
    /// `run.resume`, shards already recorded in a trusted manifest are
    /// restored (payload digest-checked, metrics delta replayed into the
    /// attached registry, faults absorbed in shard order) instead of
    /// re-executed, which makes a resumed run's aggregate output
    /// byte-identical to an uninterrupted one. The sweep counts as one
    /// `mapreduce.jobs`, outside every shard's delta, as a plain
    /// [`MapReduce::run`] over the same inputs would.
    ///
    /// Shards execute *sequentially* (parallelism lives inside each
    /// shard's map/reduce phases) — that is what makes the per-shard
    /// metrics delta exact and the checkpoint boundary well-defined.
    ///
    /// `dlq_hook(shard_id, inputs, outputs)` inspects a freshly
    /// completed shard and returns the dead-letter entries it produced. `decode` must invert `encode` (`None` signals a corrupt
    /// payload, re-executing the shard).
    ///
    /// Checkpoint persistence degrades instead of aborting: every shard
    /// attempts its writes, a failed write counts into
    /// [`ShardedOutcome::write_warnings`], and the run carries on
    /// in-memory with full output fidelity — only resumability for the
    /// affected shards is lost.
    ///
    /// # Errors
    ///
    /// Reserved for I/O failures outside the degradable write path; the
    /// current implementation completes with warnings instead of
    /// returning `Err`.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded_checkpointed<'a, I, K, V, O, M, R, Enc, Dec, DlqF>(
        &self,
        shards: &'a [Vec<I>],
        run: &CheckpointedRun<'_>,
        mapper: M,
        reducer: R,
        encode: Enc,
        decode: Dec,
        dlq_hook: DlqF,
    ) -> std::io::Result<ShardedOutcome<O>>
    where
        I: Sync + Debug,
        K: Hash + Eq + Ord + Send + Debug,
        V: Send,
        O: Send,
        M: Fn(&'a I, &mut dyn FnMut(K, V)) + Sync,
        R: Fn(&K, &[V]) -> Vec<O> + Sync,
        Enc: Fn(&[O]) -> String,
        Dec: Fn(&str) -> Option<Vec<O>>,
        DlqF: Fn(usize, &[I], &[O]) -> Vec<DlqEntry>,
    {
        let total_shards = shards.len();
        let mut load_warnings = 0usize;
        let mut write_warnings = 0usize;
        let mut faults = FaultReport::default();
        let mut resumed = None;
        if run.resume {
            match run.store.load_manifest(run.fingerprint, total_shards) {
                ManifestLoad::Resumed(manifest) => resumed = Some(manifest),
                ManifestLoad::Fresh { warning: None } => {}
                ManifestLoad::Fresh {
                    warning: Some(warning),
                } => {
                    load_warnings += 1;
                    faults.note_checkpoint_corruption(warning);
                }
            }
        }
        let mut manifest = resumed
            .unwrap_or_else(|| RunManifest::new(run.fingerprint, total_shards, run.rng_seed));
        // One job per sweep, outside every shard's metrics delta: a
        // checkpointed run counts what a plain run does at any shard size.
        if let Some(metrics) = &self.metrics {
            metrics.counter("mapreduce.jobs").inc();
        }

        let mut outcome_outputs: Vec<O> = Vec::new();
        let mut resumed_shards = 0usize;
        let mut executed_shards = 0usize;
        let mut interrupted = false;

        for (shard_id, inputs) in shards.iter().enumerate() {
            // ---- Resume path: restore the shard from its checkpoint. ----
            if let Some(record) = manifest.shards.get(&shard_id).copied() {
                match self.restore_shard(run, shard_id, record, &decode) {
                    Some((outputs, shard_faults)) => {
                        faults.absorb(&shard_faults);
                        outcome_outputs.extend(outputs);
                        resumed_shards += 1;
                        continue;
                    }
                    None => {
                        // Missing/corrupt/digest-mismatched checkpoint:
                        // drop the stale record (and its DLQ entries) and
                        // fall through to fresh execution.
                        load_warnings += 1;
                        faults.note_checkpoint_corruption(format!(
                            "shard {shard_id}: checkpoint untrusted, re-executing"
                        ));
                        manifest.shards.remove(&shard_id);
                        manifest.dlq.retain(|e| e.shard != shard_id);
                    }
                }
            }

            // ---- Fresh path: execute, then persist atomically. ----
            if run.abort_after_shards == Some(executed_shards) {
                interrupted = true;
                break;
            }
            let before = self.metrics.as_ref().map(|m| m.snapshot());
            let (outputs, shard_faults) = self.run_uncounted(inputs, &mapper, &reducer);
            let metrics_delta = match (&self.metrics, before) {
                (Some(m), Some(before)) => m.snapshot().delta_since(&before),
                _ => baywatch_obs::MetricsSnapshot::default(),
            };
            manifest.dlq.extend(dlq_hook(shard_id, inputs, &outputs));
            let checkpoint = ShardCheckpoint {
                payload: encode(&outputs),
                faults: shard_faults,
                metrics_delta,
            };
            if checkpoint_write(run.io_faults, || {
                run.store.save_shard(shard_id, &checkpoint)
            }) {
                // Only a persisted checkpoint earns a manifest record: a
                // shard whose write failed must re-execute on resume.
                manifest.shards.insert(
                    shard_id,
                    ShardRecord {
                        digest: checkpoint.digest(),
                        outputs: outputs.len(),
                    },
                );
                if let Some(metrics) = &self.metrics {
                    metrics.operational("checkpoint.shards_written").inc();
                }
                if checkpoint_write(run.io_faults, || run.store.save_manifest(&manifest)) {
                    if let Some(metrics) = &self.metrics {
                        metrics.operational("checkpoint.manifest_writes").inc();
                    }
                } else {
                    write_warnings += 1;
                }
            } else {
                write_warnings += 1;
            }
            executed_shards += 1;
            faults.absorb(&checkpoint.faults);
            outcome_outputs.extend(outputs);
        }

        if let Some(metrics) = &self.metrics {
            metrics
                .operational("checkpoint.shards_resumed")
                .add(resumed_shards as u64);
            metrics
                .operational("checkpoint.load_warnings")
                .add(load_warnings as u64);
            metrics
                .operational("checkpoint.write_warnings")
                .add(write_warnings as u64);
        }

        Ok(ShardedOutcome {
            outputs: outcome_outputs,
            faults,
            manifest,
            resumed_shards,
            executed_shards,
            load_warnings,
            write_warnings,
            interrupted,
        })
    }

    /// Restores one shard from its checkpoint file; `None` means the
    /// checkpoint cannot be trusted and the shard must re-execute.
    fn restore_shard<O, Dec>(
        &self,
        run: &CheckpointedRun<'_>,
        shard_id: usize,
        record: ShardRecord,
        decode: &Dec,
    ) -> Option<(Vec<O>, FaultReport)>
    where
        Dec: Fn(&str) -> Option<Vec<O>>,
    {
        let checkpoint = run.store.load_shard(shard_id)?;
        if checkpoint.digest() != record.digest {
            return None;
        }
        let outputs = decode(&checkpoint.payload)?;
        if outputs.len() != record.outputs {
            return None;
        }
        if let Some(metrics) = &self.metrics {
            // Replay the shard's deterministic metrics contribution so
            // counters after a resume match an uninterrupted run. A
            // bucket-layout conflict would mean the code changed under
            // the checkpoint; refuse the restore and re-execute.
            if metrics.absorb(&checkpoint.metrics_delta).is_err() {
                return None;
            }
        }
        Some((outputs, checkpoint.faults))
    }
}

/// Runs one checkpoint write: `true` means it succeeded. Injected faults
/// from the run's [`FaultPlan`], if any, fire before the real write.
fn checkpoint_write(
    io_faults: Option<&FaultPlan>,
    write: impl FnOnce() -> std::io::Result<()>,
) -> bool {
    io_faults
        .map_or(Ok(()), FaultPlan::save_checkpoint)
        .and_then(|()| write())
        .is_ok()
}

/// Folds a fault report's counters into the attached registry.
fn record_fault_metrics(metrics: &MetricsRegistry, report: &FaultReport) {
    metrics
        .counter("mapreduce.map.bisections")
        .add(report.map_bisections as u64);
    metrics
        .counter("mapreduce.map.quarantined")
        .add(report.quarantined_inputs as u64);
    metrics
        .counter("mapreduce.reduce.quarantined")
        .add(report.quarantined_keys as u64);
    metrics
        .counter("mapreduce.lost_values")
        .add(report.lost_values as u64);
}

/// Maps one worker's chunk into per-partition buckets. A slice that
/// panics is not retried: it is split in half and both halves are mapped
/// again, down to the single poison record, which is quarantined — Dean &
/// Ghemawat's "skipping bad records". A one-shot fault in a slice of more
/// than one record is absorbed by the first split with nothing lost; a
/// single record that panics is quarantined, as a deterministic fault
/// would be.
///
/// Each slice emits into fresh buckets so a mid-slice panic cannot leave
/// duplicate partial output behind; only a fully mapped slice is merged,
/// so faults never reorder or duplicate the surviving records.
fn map_chunk<'a, I, K, V, M>(
    chunk: &'a [I],
    mapper: &M,
    n_partitions: usize,
) -> (Vec<Vec<(K, V)>>, PhaseFaults)
where
    I: Debug,
    K: Hash,
    M: Fn(&'a I, &mut dyn FnMut(K, V)),
{
    let mut out: Vec<Vec<(K, V)>> = (0..n_partitions).map(|_| Vec::new()).collect();
    let mut faults = PhaseFaults::default();
    // Slices still to map, the next one last: a failing slice is replaced
    // by its halves, so records are always mapped left to right.
    let mut pending = vec![chunk];
    while let Some(slice) = pending.pop() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut local: Vec<Vec<(K, V)>> = (0..n_partitions).map(|_| Vec::new()).collect();
            for input in slice {
                let mut emit = |k: K, v: V| {
                    let p = partition_of(&k, n_partitions);
                    local[p].push((k, v));
                };
                mapper(input, &mut emit);
            }
            local
        }));
        match result {
            Ok(local) => {
                for (p, bucket) in local.into_iter().enumerate() {
                    out[p].extend(bucket);
                }
            }
            Err(payload) => {
                faults.note_panic(payload);
                if let [unit] = slice {
                    faults.quarantine(format!("{unit:?}"), 0);
                } else {
                    faults.bisections += 1;
                    let (left, right) = slice.split_at(slice.len() / 2);
                    pending.extend([right, left]);
                }
            }
        }
    }
    (out, faults)
}

/// Reduces one partition: a single `catch_unwind` over the whole partition
/// on the fast path, falling back to one attempt per key only when
/// something in the partition panicked; a key whose reducer panics there
/// is quarantined at once. Output order — sorted by key, minus dropped
/// keys — is identical either way.
fn reduce_partition<K, V, O, R>(records: Vec<(K, V)>, reducer: &R) -> (Vec<O>, PhaseFaults)
where
    K: Hash + Eq + Ord + Debug,
    R: Fn(&K, &[V]) -> Vec<O>,
{
    // Group by key, then sort keys for deterministic output.
    #[expect(
        clippy::disallowed_types,
        reason = "grouping only: the groups are sorted by key before any reducer runs"
    )]
    let mut groups: std::collections::HashMap<K, Vec<V>> = std::collections::HashMap::new();
    for (k, v) in records {
        groups.entry(k).or_default().push(v);
    }
    let mut keyed: Vec<(K, Vec<V>)> = groups.into_iter().collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));

    let mut faults = PhaseFaults::default();
    let whole = catch_unwind(AssertUnwindSafe(|| {
        let mut out = Vec::new();
        for (k, vs) in &keyed {
            out.extend(reducer(k, vs));
        }
        out
    }));
    match whole {
        Ok(out) => return (out, faults),
        Err(payload) => faults.note_panic(payload),
    }
    let mut out = Vec::new();
    for (k, vs) in &keyed {
        match catch_unwind(AssertUnwindSafe(|| reducer(k, vs))) {
            Ok(mut o) => out.append(&mut o),
            Err(payload) => {
                faults.note_panic(payload);
                faults.quarantine(format!("{k:?}"), vs.len());
            }
        }
    }
    (out, faults)
}

impl Default for MapReduce {
    fn default() -> Self {
        Self::new(JobConfig::default())
    }
}

/// Stable partition assignment for a key.
pub fn partition_of<K: Hash>(key: &K, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Splits a slice into at most `n` contiguous chunks of near-equal size:
/// the first `len % n` chunks are one longer than the rest.
fn split<T>(items: &[T], n: usize) -> Vec<&[T]> {
    let n = n.min(items.len());
    if n == 0 {
        return Vec::new();
    }
    let (base, extra) = (items.len() / n, items.len() % n);
    let mut rest = items;
    (0..n)
        .map(|i| {
            let (chunk, tail) = rest.split_at(base + usize::from(i < extra));
            rest = tail;
            chunk
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn word_count<'a>(
        engine: &MapReduce,
        docs: &'a [&'a str],
    ) -> (Vec<(String, usize)>, FaultReport) {
        engine.run(
            docs,
            |doc, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_owned(), 1usize);
                }
            },
            |k, vs| vec![(k.clone(), vs.len())],
        )
    }

    fn plain_word_count(engine: &MapReduce, docs: &[&str]) -> Vec<(String, usize)> {
        let (out, report) = word_count(engine, docs);
        assert!(report.is_clean());
        out
    }

    /// The engine's output contract, computed sequentially by hand: one
    /// row per key, ordered by partition index and then by key.
    fn word_count_by_hand(docs: &[&str], partitions: usize) -> Vec<(String, usize)> {
        let mut counts: BTreeMap<String, usize> = BTreeMap::new();
        for w in docs.iter().flat_map(|doc| doc.split_whitespace()) {
            *counts.entry(w.to_owned()).or_default() += 1;
        }
        let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
        // Stable: keys stay sorted within a partition.
        rows.sort_by_key(|(w, _)| partition_of(w, partitions));
        rows
    }

    #[test]
    fn word_count_basic() {
        let engine = MapReduce::default();
        let out = plain_word_count(&engine, &["a b a", "b a"]);
        let get = |w: &str| out.iter().find(|(x, _)| x == w).map(|(_, c)| *c);
        assert_eq!(get("a"), Some(3));
        assert_eq!(get("b"), Some(2));
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_input_empty_output() {
        let engine = MapReduce::default();
        assert!(plain_word_count(&engine, &[]).is_empty());
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let docs: Vec<String> = (0..500)
            .map(|i| format!("w{} w{} w{}", i % 17, i % 5, i % 31))
            .collect();
        let refs: Vec<&str> = docs.iter().map(String::as_str).collect();
        let expected = word_count_by_hand(&refs, 8);
        for threads in [1, 8, 3] {
            let engine = MapReduce::new(JobConfig {
                partitions: 8,
                threads,
            });
            assert_eq!(
                plain_word_count(&engine, &refs),
                expected,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn single_partition_sorts_all_keys() {
        let engine = MapReduce::new(JobConfig {
            partitions: 1,
            threads: 4,
        });
        let out = plain_word_count(&engine, &["delta alpha charlie bravo"]);
        let words: Vec<&str> = out.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(words, vec!["alpha", "bravo", "charlie", "delta"]);
    }

    #[test]
    fn partition_of_is_stable_and_in_range() {
        for k in 0..1000u64 {
            let p = partition_of(&k, 32);
            assert!(p < 32);
            assert_eq!(p, partition_of(&k, 32));
        }
    }

    #[test]
    fn hash_bits_config() {
        let cfg = JobConfig::default().with_hash_bits(5);
        assert_eq!(cfg.partitions, 32);
    }

    #[test]
    #[should_panic]
    fn hash_bits_zero_panics() {
        JobConfig::default().with_hash_bits(0);
    }

    #[test]
    #[should_panic]
    fn zero_partitions_panics() {
        MapReduce::new(JobConfig {
            partitions: 0,
            threads: 1,
        });
    }

    #[test]
    fn split_puts_the_remainder_on_the_leading_chunks() {
        // `FaultPlan` call counts and bisection counts hang off these
        // boundaries.
        for n in [1usize, 2, 3, 7, 100] {
            for len in [0, 1, n - 1, n, n + 1, 3 * n + 2] {
                let items: Vec<usize> = (0..len).collect();
                let chunks = split(&items, n);
                let k = n.min(len);
                assert_eq!(chunks.len(), k, "len {len}, n {n}");
                let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
                let expected: Vec<usize> =
                    (0..k).map(|i| len / k + usize::from(i < len % k)).collect();
                assert_eq!(sizes, expected, "len {len}, n {n}");
                assert_eq!(chunks.concat(), items, "len {len}, n {n}");
            }
        }
    }

    #[test]
    fn values_grouped_per_key() {
        let engine = MapReduce::new(JobConfig {
            partitions: 2,
            threads: 2,
        });
        let (out, _) = engine.run(
            &[1u64, 2, 3, 4, 5, 6],
            |n, emit| emit(n % 2, *n),
            |parity, values| {
                let mut v = values.to_vec();
                v.sort();
                vec![(*parity, v)]
            },
        );
        let evens = out.iter().find(|(p, _)| *p == 0).unwrap();
        assert_eq!(evens.1, vec![2, 4, 6]);
        let odds = out.iter().find(|(p, _)| *p == 1).unwrap();
        assert_eq!(odds.1, vec![1, 3, 5]);
    }

    #[test]
    fn keys_and_values_may_borrow_from_the_inputs() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let docs = vec!["a b a".to_owned(), "b a".to_owned()];
        let (mut out, _) = engine.run(
            &docs,
            |doc, emit| {
                for w in doc.split_whitespace() {
                    emit(w, doc.as_str());
                }
            },
            |word: &&str, docs: &[&str]| vec![(*word, docs.len())],
        );
        out.sort();
        assert_eq!(out, vec![("a", 3), ("b", 2)]);
    }

    #[test]
    fn heavy_parallel_load() {
        let engine = MapReduce::new(JobConfig {
            partitions: 32,
            threads: 8,
        });
        let inputs: Vec<u64> = (0..100_000).collect();
        let (out, report) = engine.run(
            &inputs,
            |n, emit| emit(n % 1000, 1u64),
            |k, vs| vec![(*k, vs.len() as u64)],
        );
        assert!(report.is_clean());
        assert_eq!(out.len(), 1000);
        assert!(out.iter().all(|(_, c)| *c == 100));
    }

    #[test]
    fn chained_jobs_compose() {
        // Job 1: count words; job 2: bucket counts by magnitude — mirrors
        // BAYWATCH's extraction → detection chaining where one job's output
        // feeds the next without reprocessing raw input.
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 4,
        });
        let counts = plain_word_count(&engine, &["a a a a b b c", "a b", "c"]); // a=5, b=3, c=2
        let (buckets, _) = engine.run(
            &counts,
            |(_, c), emit| emit(if *c >= 3 { "hot" } else { "cold" }, 1usize),
            |k, vs| vec![(*k, vs.len())],
        );
        let hot = buckets.iter().find(|(k, _)| *k == "hot").unwrap().1;
        let cold = buckets.iter().find(|(k, _)| *k == "cold").unwrap().1;
        assert_eq!(hot, 2); // a and b
        assert_eq!(cold, 1); // c
    }

    // ---- fault handling ----

    const DOCS: [&str; 3] = ["the quick brown fox", "jumps over the lazy dog", "the end"];

    #[test]
    fn fault_free_run_matches_grouping_by_hand() {
        let engine = MapReduce::new(JobConfig {
            partitions: 8,
            threads: 4,
        });
        let (out, report) = word_count(&engine, &DOCS);
        assert_eq!(out, word_count_by_hand(&DOCS, 8));
        assert!(report.is_clean());
        assert_eq!(report.quarantined_units(), 0);
    }

    #[test]
    fn poison_record_is_bisected_to_single_quarantine() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let inputs: Vec<i64> = (0..64).collect();
        let (out, report) = engine.run(
            &inputs,
            |n, emit| {
                assert!(*n != 37, "poison record");
                emit(n % 2, 1usize);
            },
            |k, vs| vec![(*k, vs.len())],
        );
        // Exactly one record lost; everything else mapped.
        assert_eq!(report.quarantined_inputs, 1);
        assert!(report.input_samples.iter().any(|s| s == "37"));
        let total: usize = out.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 63);
        // 64 records on two workers: 32 per chunk, five splits down to
        // the poison record.
        assert_eq!(report.map_bisections, 5);
        assert!(!report.panic_samples.is_empty());
    }

    #[test]
    fn one_shot_map_panic_is_bisected_without_loss() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 1,
        });
        let plan = FaultPlan::new().panic_on_map_call(2);
        let inputs: Vec<i64> = (0..16).collect();
        let (out, report) = engine.run(
            &inputs,
            |n, emit| {
                plan.map_checkpoint(n);
                emit((), *n)
            },
            |_, vs| vec![vs.iter().sum::<i64>()],
        );
        assert_eq!(plan.injected_faults(), 1);
        assert_eq!(out, vec![(0..16).sum::<i64>()]);
        assert_eq!(report.quarantined_inputs, 0);
        assert_eq!(report.map_bisections, 1, "the first split absorbs it");
        assert!(!report.is_clean());
    }

    #[test]
    fn poison_reduce_key_is_quarantined_with_lost_values() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let (out, report) = engine.run(
            &["a bad a", "bad b bad"],
            |doc, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_owned(), 1usize);
                }
            },
            |k: &String, vs: &[usize]| {
                assert!(k != "bad", "poison key");
                vec![(k.clone(), vs.len())]
            },
        );
        let mut out = out;
        out.sort();
        assert_eq!(out, vec![("a".to_owned(), 2), ("b".to_owned(), 1)]);
        assert_eq!(report.quarantined_keys, 1);
        assert_eq!(report.lost_values, 3);
        assert!(report.key_samples.iter().any(|s| s.contains("bad")));
        assert!(!report.is_clean());
    }

    #[test]
    fn fault_free_deterministic_across_thread_counts() {
        let docs = [
            "lorem ipsum dolor sit amet",
            "consectetur adipiscing elit sed",
            "do eiusmod tempor incididunt",
            "ut labore et dolore magna",
        ];
        let expected = word_count_by_hand(&docs, 16);
        for threads in [1, 2, 4, 8] {
            let engine = MapReduce::new(JobConfig {
                partitions: 16,
                threads,
            });
            assert_eq!(plain_word_count(&engine, &docs), expected);
        }
    }

    #[test]
    fn reduce_phase_runs_at_most_threads_reducers_at_once() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let inputs: Vec<u64> = (0..1024).collect();
        let run = |threads| {
            let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
            // One poison key, so the report has a quarantine and samples
            // to compare.
            let plan = FaultPlan::new().poison_key("13");
            let engine = MapReduce::new(JobConfig {
                partitions: 32,
                threads,
            });
            let (out, report) = engine.run(
                &inputs,
                |n, emit| emit(n % 256, *n),
                |k: &u64, vs: &[u64]| {
                    plan.reduce_checkpoint(k);
                    let now = in_flight.fetch_add(1, Relaxed) + 1;
                    peak.fetch_max(now, Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                    in_flight.fetch_sub(1, Relaxed);
                    vec![(*k, vs.iter().sum::<u64>())]
                },
            );
            (out, report, peak.into_inner())
        };
        let (out, report, peak) = run(2);
        assert!(peak <= 2, "{peak} reducers ran at once on 2 threads");
        assert_eq!(out.len(), 255);
        assert_eq!(report.quarantined_keys, 1);
        assert_eq!(report.lost_values, 4);
        for threads in [1, 8] {
            let (other_out, other_report, other_peak) = run(threads);
            assert!(other_peak <= threads, "{other_peak} on {threads} threads");
            assert_eq!(other_out, out, "{threads} threads");
            assert_eq!(other_report, report, "{threads} threads");
        }
    }

    #[test]
    fn a_job_over_empty_input_calls_nothing() {
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let calls = AtomicUsize::new(0);
        let engine = MapReduce::new(JobConfig {
            partitions: 32,
            threads: 4,
        });
        let (out, report) = engine.run(
            &[] as &[u64],
            |n, emit| {
                calls.fetch_add(1, Relaxed);
                emit(*n, *n);
            },
            |k: &u64, _: &[u64]| {
                calls.fetch_add(1, Relaxed);
                vec![*k]
            },
        );
        assert!(out.is_empty());
        assert_eq!(report, FaultReport::default());
        assert_eq!(calls.into_inner(), 0);
    }

    // ---- checkpoint/resume ----

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "baywatch-ckpt-test-{}-{:x}",
            std::process::id(),
            fnv1a64(tag.as_bytes())
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Word-count shards with a stable numeric encoding, so payloads
    /// round-trip exactly through the checkpoint store.
    fn ckpt_run(
        engine: &MapReduce,
        shards: &[Vec<&'static str>],
        run: &CheckpointedRun<'_>,
    ) -> ShardedOutcome<(String, usize)> {
        ckpt_run_observing(engine, shards, run, |_, _| {})
    }

    /// [`ckpt_run`] whose reducer also calls `observe(word, count)`.
    fn ckpt_run_observing(
        engine: &MapReduce,
        shards: &[Vec<&'static str>],
        run: &CheckpointedRun<'_>,
        observe: impl Fn(&str, usize) + Sync,
    ) -> ShardedOutcome<(String, usize)> {
        engine
            .run_sharded_checkpointed(
                shards,
                run,
                |doc: &&str, emit| {
                    for w in doc.split_whitespace() {
                        emit(w.to_owned(), 1usize);
                    }
                },
                |k: &String, vs: &[usize]| {
                    observe(k, vs.len());
                    vec![(k.clone(), vs.len())]
                },
                |rows: &[(String, usize)]| {
                    let mut out = String::new();
                    for (w, c) in rows {
                        out.push_str(&format!("{w}={c}\n"));
                    }
                    out
                },
                |payload: &str| {
                    let mut rows = Vec::new();
                    for line in payload.lines() {
                        let (w, c) = line.rsplit_once('=')?;
                        rows.push((w.to_string(), c.parse().ok()?));
                    }
                    Some(rows)
                },
                |_, _, _| Vec::new(),
            )
            .expect("checkpoint I/O")
    }

    fn word_shards() -> Vec<Vec<&'static str>> {
        vec![
            vec!["alpha beta alpha", "gamma"],
            vec!["beta beta delta"],
            vec!["alpha epsilon", "zeta zeta zeta"],
        ]
    }

    #[test]
    fn interrupted_then_resumed_matches_uninterrupted() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let dir_a = scratch_dir("uninterrupted");
        let store_a = CheckpointStore::create(&dir_a).unwrap();
        let base = CheckpointedRun {
            store: &store_a,
            fingerprint: 77,
            rng_seed: 1,
            resume: false,
            io_faults: None,
            abort_after_shards: None,
        };
        let full = ckpt_run(&engine, &word_shards(), &base);
        assert!(!full.interrupted);
        assert_eq!(full.executed_shards, 3);
        assert_eq!(full.manifest.shards.len(), 3);

        // Same plan, killed after one shard, then resumed in a "new
        // process": outputs and manifest must match the uninterrupted run
        // exactly.
        let dir_b = scratch_dir("interrupted");
        let store_b = CheckpointStore::create(&dir_b).unwrap();
        let killed = ckpt_run(
            &engine,
            &word_shards(),
            &CheckpointedRun {
                store: &store_b,
                abort_after_shards: Some(1),
                ..base.clone()
            },
        );
        assert!(killed.interrupted);
        assert_eq!(killed.executed_shards, 1);

        let resumed = ckpt_run(
            &engine,
            &word_shards(),
            &CheckpointedRun {
                store: &store_b,
                resume: true,
                abort_after_shards: None,
                ..base.clone()
            },
        );
        assert!(!resumed.interrupted);
        assert_eq!(resumed.resumed_shards, 1);
        assert_eq!(resumed.executed_shards, 2);
        assert_eq!(resumed.load_warnings, 0);
        assert_eq!(resumed.outputs, full.outputs);
        // Durations are process facts, not data — compare the persisted
        // (deterministic) rendering of the aggregate fault report.
        assert_eq!(
            manifest::fault_report_to_json(&resumed.faults),
            manifest::fault_report_to_json(&full.faults)
        );
        assert_eq!(resumed.manifest, full.manifest);
        // The persisted manifests are byte-identical too.
        assert_eq!(
            std::fs::read_to_string(store_b.manifest_path()).unwrap(),
            std::fs::read_to_string(store_a.manifest_path()).unwrap()
        );

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn resume_replays_metrics_deltas_exactly() {
        let shards = word_shards();
        let run_with = |dir: &std::path::Path, resume: bool, abort: Option<usize>| {
            let metrics = Arc::new(MetricsRegistry::new());
            let engine = MapReduce::new(JobConfig {
                partitions: 4,
                threads: 2,
            })
            .with_metrics(Arc::clone(&metrics));
            let store = CheckpointStore::create(dir).unwrap();
            let outcome = ckpt_run(
                &engine,
                &shards,
                &CheckpointedRun {
                    store: &store,
                    fingerprint: 5,
                    rng_seed: 0,
                    resume,
                    io_faults: None,
                    abort_after_shards: abort,
                },
            );
            (outcome, metrics.snapshot())
        };

        let dir_a = scratch_dir("metrics-uninterrupted");
        let (_, uninterrupted) = run_with(&dir_a, false, None);

        let dir_b = scratch_dir("metrics-resumed");
        let (killed, _) = run_with(&dir_b, false, Some(2));
        assert!(killed.interrupted);
        let (resumed, resumed_snap) = run_with(&dir_b, true, None);
        assert_eq!(resumed.resumed_shards, 2);

        // Deterministic sections match; only operational counters (and
        // the full export) may differ between the two histories.
        assert_eq!(resumed_snap.counters, uninterrupted.counters);
        assert_eq!(resumed_snap.histograms, uninterrupted.histograms);
        assert_eq!(resumed_snap.to_json(), uninterrupted.to_json());
        assert_eq!(resumed_snap.operational["checkpoint.shards_resumed"], 2);

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn corrupt_shard_checkpoint_is_reexecuted_not_trusted() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let dir = scratch_dir("corrupt-shard");
        let store = CheckpointStore::create(&dir).unwrap();
        let base = CheckpointedRun {
            store: &store,
            fingerprint: 9,
            rng_seed: 0,
            resume: false,
            io_faults: None,
            abort_after_shards: None,
        };
        let full = ckpt_run(&engine, &word_shards(), &base);

        // Tamper with shard 1's payload on disk; its digest no longer
        // matches the manifest, so resume must re-execute it.
        let tampered = store.load_shard(1).unwrap();
        std::fs::write(
            store.shard_path(1),
            ShardCheckpoint {
                payload: format!("{}tampered=1\n", tampered.payload),
                ..tampered
            }
            .to_json(),
        )
        .unwrap();

        let resumed = ckpt_run(
            &engine,
            &word_shards(),
            &CheckpointedRun {
                resume: true,
                ..base.clone()
            },
        );
        assert_eq!(resumed.load_warnings, 1);
        assert_eq!(resumed.resumed_shards, 2);
        assert_eq!(resumed.executed_shards, 1);
        assert_eq!(resumed.outputs, full.outputs);
        // Regression: the downgrade must be *surfaced*, not just counted —
        // the fault report carries the corruption and a bounded sample,
        // and both survive the persisted-report round trip.
        assert_eq!(resumed.faults.checkpoint_corruptions, 1);
        assert_eq!(resumed.faults.corruption_samples.len(), 1);
        assert!(resumed.faults.corruption_samples[0].contains("shard 1"));
        let round_tripped =
            manifest::fault_report_from_json(&manifest::fault_report_to_json(&resumed.faults))
                .unwrap();
        assert_eq!(round_tripped.checkpoint_corruptions, 1);
        assert_eq!(
            round_tripped.corruption_samples,
            resumed.faults.corruption_samples
        );
        assert!(
            resumed.faults.is_clean(),
            "a re-executed shard is a process fact, not a data fault"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A shard checkpoint whose second histogram (in name order) has a
    /// short `counts` array, under a manifest digest that vouches for it:
    /// the metrics replay is refused, the shard re-executes, and the
    /// first histogram must not have been counted on the way.
    #[test]
    fn refused_metrics_replay_leaves_the_registry_untouched() {
        let shards = word_shards();
        let buckets = baywatch_obs::Buckets::new(&[1, 2, 4]).unwrap();
        let run_with = |dir: &std::path::Path, resume: bool, abort: Option<usize>| {
            let metrics = Arc::new(MetricsRegistry::new());
            let engine = MapReduce::new(JobConfig {
                partitions: 4,
                threads: 2,
            })
            .with_metrics(Arc::clone(&metrics));
            let store = CheckpointStore::create(dir).unwrap();
            let run = CheckpointedRun {
                store: &store,
                fingerprint: 31,
                rng_seed: 0,
                resume,
                io_faults: None,
                abort_after_shards: abort,
            };
            let outcome = ckpt_run_observing(&engine, &shards, &run, |word, count| {
                metrics.histogram("a.count", &buckets).observe(count as u64);
                metrics
                    .histogram("b.length", &buckets)
                    .observe(word.len() as u64);
            });
            (outcome, metrics.snapshot())
        };

        let dir_a = scratch_dir("refused-replay-uninterrupted");
        let (_, uninterrupted) = run_with(&dir_a, false, None);

        let dir_b = scratch_dir("refused-replay-resumed");
        let (killed, _) = run_with(&dir_b, false, Some(2));
        assert!(killed.interrupted);
        let store = CheckpointStore::create(&dir_b).unwrap();
        let mut short = store.load_shard(1).unwrap();
        short
            .metrics_delta
            .histograms
            .get_mut("b.length")
            .unwrap()
            .counts
            .pop();
        store.save_shard(1, &short).unwrap();
        let ManifestLoad::Resumed(mut manifest) = store.load_manifest(31, shards.len()) else {
            panic!("the killed run left a manifest");
        };
        manifest.shards.get_mut(&1).unwrap().digest = short.digest();
        store.save_manifest(&manifest).unwrap();

        let (resumed, resumed_snap) = run_with(&dir_b, true, None);
        assert_eq!(resumed.load_warnings, 1);
        assert_eq!(resumed.resumed_shards, 1);
        assert_eq!(resumed.executed_shards, 2);
        assert_eq!(resumed_snap.histograms, uninterrupted.histograms);
        assert_eq!(resumed_snap.to_json(), uninterrupted.to_json());

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn persistent_save_failure_degrades_every_shard_to_in_memory() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let dir = scratch_dir("persistent-save-failure");
        let store = CheckpointStore::create(&dir).unwrap();
        let plan = FaultPlan::new().fail_all_saves();
        let outcome = ckpt_run(
            &engine,
            &word_shards(),
            &CheckpointedRun {
                store: &store,
                fingerprint: 13,
                rng_seed: 0,
                resume: false,
                io_faults: Some(&plan),
                abort_after_shards: None,
            },
        );

        // Every shard still executed and produced output — only
        // durability was lost.
        let baseline_dir = scratch_dir("persistent-save-baseline");
        let baseline_store = CheckpointStore::create(&baseline_dir).unwrap();
        let baseline = ckpt_run(
            &engine,
            &word_shards(),
            &CheckpointedRun {
                store: &baseline_store,
                fingerprint: 13,
                rng_seed: 0,
                resume: false,
                io_faults: None,
                abort_after_shards: None,
            },
        );
        assert_eq!(outcome.outputs, baseline.outputs);
        assert_eq!(outcome.executed_shards, 3);
        assert_eq!(outcome.write_warnings, 3, "one warning per shard");
        assert!(outcome.manifest.shards.is_empty(), "nothing was persisted");
        // Every shard attempted its write; a failed shard write skips
        // that shard's manifest write.
        assert_eq!(plan.injected_faults(), 3);

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&baseline_dir);
    }

    #[test]
    fn transient_save_failure_skips_one_shard_record() {
        let engine = MapReduce::new(JobConfig {
            partitions: 4,
            threads: 2,
        });
        let dir = scratch_dir("transient-save-failure");
        let store = CheckpointStore::create(&dir).unwrap();
        let plan = FaultPlan::new().fail_next_saves(1);
        let base = CheckpointedRun {
            store: &store,
            fingerprint: 21,
            rng_seed: 0,
            resume: false,
            io_faults: Some(&plan),
            abort_after_shards: None,
        };
        let outcome = ckpt_run(&engine, &word_shards(), &base);
        assert_eq!(outcome.write_warnings, 1);
        assert_eq!(outcome.executed_shards, 3);
        // Shard 0's write failed, so only shards 1 and 2 earned manifest
        // records; a resume re-executes exactly the unpersisted shard.
        assert_eq!(outcome.manifest.shards.len(), 2);
        let resumed = ckpt_run(
            &engine,
            &word_shards(),
            &CheckpointedRun {
                resume: true,
                io_faults: None,
                ..base.clone()
            },
        );
        assert_eq!(resumed.resumed_shards, 2);
        assert_eq!(resumed.executed_shards, 1);
        assert_eq!(resumed.write_warnings, 0);
        assert_eq!(resumed.outputs, outcome.outputs);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
