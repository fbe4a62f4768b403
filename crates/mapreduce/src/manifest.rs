//! Durable checkpoint/resume support for sharded fault-tolerant runs.
//!
//! The paper's evaluation processes ~30 B events over 5 months; at that
//! scale a hunt is a multi-hour sharded job that *will* be interrupted.
//! This module makes an interruption cheap instead of catastrophic: a
//! versioned [`RunManifest`] records which shards completed (with result
//! digests), what landed in the dead-letter queue, and the RNG seed the
//! detector streams derive from — everything
//! [`MapReduce::run_sharded_checkpointed`](crate::MapReduce::run_sharded_checkpointed)
//! needs to resume a run byte-identically to an uninterrupted one.
//!
//! Durability contract:
//!
//! * **Atomic writes.** Every file is written to a temp name in the same
//!   directory and renamed into place, so a crash mid-write leaves the
//!   previous state intact, never a torn file.
//! * **Corruption tolerance.** A manifest that is missing, unparsable,
//!   version-skewed, or fingerprint-mismatched degrades to a fresh run
//!   with an explicit warning — resume never guesses.
//! * **Exactness.** Shard checkpoints — payload, fault report and metrics
//!   delta alike — are digest-checked (FNV-1a 64) before reuse; a shard
//!   whose stored bytes do not match its manifest digest is re-executed
//!   rather than trusted.
//!
//! Serialization uses the workspace's zero-dependency stable-key-order
//! JSON conventions ([`baywatch_obs::JsonWriter`] to write,
//! [`baywatch_obs::json::parse`] to read), the same machinery behind
//! `core::report::export_json` and the golden-run suite.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use baywatch_obs::json::{parse, JsonValue};
use baywatch_obs::{HistogramSnapshot, JsonWriter, MetricsSnapshot};

use crate::fault::{FaultPlan, FaultReport};

/// Version tag of the on-disk manifest schema. A manifest written by a
/// different version is reported as version skew (fresh run + warning),
/// never migrated in place.
pub const MANIFEST_VERSION: u64 = 5;

/// One dead-letter entry: a unit of work the engine quarantined, with the
/// evidence to reproduce it offline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlqEntry {
    /// Stable identity of the failed unit (the `Debug` rendering of its
    /// key, matching the `FaultReport` sample convention).
    pub key: String,
    /// Which shard the unit failed in; that shard's persisted
    /// [`FaultReport`] holds the panic messages.
    pub shard: usize,
    /// Caller-encoded payload sufficient to re-run the unit (for the
    /// pipeline: the serialized activity summaries of the pair).
    pub payload: String,
}

/// What the manifest records about one completed shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRecord {
    /// FNV-1a 64 digest of the shard checkpoint as persisted
    /// ([`ShardCheckpoint::digest`]): payload, fault report and metrics
    /// delta.
    pub digest: u64,
    /// Number of output rows the shard produced.
    pub outputs: usize,
}

/// The versioned run manifest persisted after every shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Schema version ([`MANIFEST_VERSION`]).
    pub version: u64,
    /// Digest binding the manifest to one logical run: input shard plan
    /// and seed. A mismatch on load degrades to a fresh
    /// run instead of resuming someone else's checkpoint.
    pub fingerprint: u64,
    /// Total shards in the plan; resume requires an exact match.
    pub total_shards: usize,
    /// Seed of the deterministic RNG streams. The detector derives every
    /// per-pair permutation stream from this single seed, so recording it
    /// pins the full RNG stream position for resumed pairs.
    pub rng_seed: u64,
    /// Completed shards by id.
    pub shards: BTreeMap<usize, ShardRecord>,
    /// Dead-letter queue across all completed shards.
    pub dlq: Vec<DlqEntry>,
}

impl RunManifest {
    /// A fresh manifest for a run with `total_shards` shards.
    pub fn new(fingerprint: u64, total_shards: usize, rng_seed: u64) -> Self {
        Self {
            version: MANIFEST_VERSION,
            fingerprint,
            total_shards,
            rng_seed,
            shards: BTreeMap::new(),
            dlq: Vec::new(),
        }
    }

    /// Serializes the manifest in stable key order.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("dlq");
        w.raw("[");
        for (i, entry) in self.dlq.iter().enumerate() {
            if i > 0 {
                w.raw(",");
            }
            write_dlq_entry(&mut w, entry);
        }
        w.raw("]");
        w.end_value();
        w.key("fingerprint");
        w.uint(self.fingerprint);
        w.key("rng_seed");
        w.uint(self.rng_seed);
        w.key("shards");
        w.raw("{");
        for (id, record) in &self.shards {
            w.key(&id.to_string());
            w.raw("{");
            w.key("digest");
            w.uint(record.digest);
            w.key("outputs");
            w.uint(record.outputs as u64);
            w.raw("}");
            w.end_value();
        }
        w.raw("}");
        w.end_value();
        w.key("total_shards");
        w.uint(self.total_shards as u64);
        w.key("version");
        w.uint(self.version);
        w.raw("}");
        w.finish()
    }

    /// Parses a manifest; `None` means the document is corrupt.
    pub fn from_json(text: &str) -> Option<Self> {
        Self::from_value(&parse(text).ok()?)
    }

    fn from_value(doc: &JsonValue) -> Option<Self> {
        let mut shards = BTreeMap::new();
        for (id, record) in doc.get("shards")?.as_object()? {
            shards.insert(
                id.parse::<usize>().ok()?,
                ShardRecord {
                    digest: record.get("digest")?.as_u64()?,
                    outputs: record.get("outputs")?.as_u64()? as usize,
                },
            );
        }
        let mut dlq = Vec::new();
        for entry in doc.get("dlq")?.as_array()? {
            dlq.push(read_dlq_entry(entry)?);
        }
        Some(Self {
            version: doc.get("version")?.as_u64()?,
            fingerprint: doc.get("fingerprint")?.as_u64()?,
            total_shards: doc.get("total_shards")?.as_u64()? as usize,
            rng_seed: doc.get("rng_seed")?.as_u64()?,
            shards,
            dlq,
        })
    }
}

fn write_dlq_entry(w: &mut JsonWriter, entry: &DlqEntry) {
    w.raw("{");
    w.key("key");
    w.string(&entry.key);
    w.key("payload");
    w.string(&entry.payload);
    w.key("shard");
    w.uint(entry.shard as u64);
    w.raw("}");
}

fn read_dlq_entry(doc: &JsonValue) -> Option<DlqEntry> {
    Some(DlqEntry {
        key: doc.get("key")?.as_str()?.to_string(),
        shard: doc.get("shard")?.as_u64()? as usize,
        payload: doc.get("payload")?.as_str()?.to_string(),
    })
}

/// Serializes a [`FaultReport`] in stable key order.
pub fn fault_report_to_json(report: &FaultReport) -> String {
    let mut w = JsonWriter::new();
    w.raw("{");
    w.key("checkpoint_corruptions");
    w.uint(report.checkpoint_corruptions as u64);
    w.key("corruption_samples");
    write_string_array(&mut w, &report.corruption_samples);
    w.key("input_samples");
    write_string_array(&mut w, &report.input_samples);
    w.key("key_samples");
    write_string_array(&mut w, &report.key_samples);
    w.key("lost_values");
    w.uint(report.lost_values as u64);
    w.key("map_bisections");
    w.uint(report.map_bisections as u64);
    w.key("panic_samples");
    write_string_array(&mut w, &report.panic_samples);
    w.key("quarantined_inputs");
    w.uint(report.quarantined_inputs as u64);
    w.key("quarantined_keys");
    w.uint(report.quarantined_keys as u64);
    w.raw("}");
    w.finish()
}

/// Inverse of [`fault_report_to_json`]; `None` on corruption.
pub fn fault_report_from_json(text: &str) -> Option<FaultReport> {
    let doc = parse(text).ok()?;
    fault_report_from_value(&doc)
}

fn fault_report_from_value(doc: &JsonValue) -> Option<FaultReport> {
    Some(FaultReport {
        quarantined_inputs: doc.get("quarantined_inputs")?.as_u64()? as usize,
        map_bisections: doc.get("map_bisections")?.as_u64()? as usize,
        quarantined_keys: doc.get("quarantined_keys")?.as_u64()? as usize,
        lost_values: doc.get("lost_values")?.as_u64()? as usize,
        // Absent in pre-resilience checkpoints: default rather than
        // refuse, so old shard files still restore.
        checkpoint_corruptions: doc
            .get("checkpoint_corruptions")
            .and_then(JsonValue::as_u64)
            .unwrap_or(0) as usize,
        corruption_samples: doc
            .get("corruption_samples")
            .and_then(read_string_array)
            .unwrap_or_default(),
        input_samples: read_string_array(doc.get("input_samples")?)?,
        key_samples: read_string_array(doc.get("key_samples")?)?,
        panic_samples: read_string_array(doc.get("panic_samples")?)?,
    })
}

fn write_string_array(w: &mut JsonWriter, items: &[String]) {
    w.raw("[");
    for s in items {
        w.string(s);
    }
    w.raw("]");
    w.end_value();
}

fn read_string_array(doc: &JsonValue) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for s in doc.as_array()? {
        out.push(s.as_str()?.to_string());
    }
    Some(out)
}

/// Serializes the deterministic (replayable) portion of a metrics
/// snapshot: counters and value histograms. Gauges, operational
/// counters, and timings never travel in a checkpoint.
pub fn metrics_delta_to_json(delta: &MetricsSnapshot) -> String {
    let mut w = JsonWriter::new();
    w.raw("{");
    w.key("counters");
    w.raw("{");
    for (name, value) in &delta.counters {
        w.key(name);
        w.uint(*value);
    }
    w.raw("}");
    w.end_value();
    w.key("histograms");
    w.raw("{");
    for (name, snap) in &delta.histograms {
        w.key(name);
        w.raw("{");
        w.key("bounds");
        w.raw("[");
        for b in &snap.bounds {
            w.uint(*b);
        }
        w.raw("]");
        w.end_value();
        w.key("counts");
        w.raw("[");
        for c in &snap.counts {
            w.uint(*c);
        }
        w.raw("]");
        w.end_value();
        w.key("sum");
        w.uint(snap.sum);
        w.key("total");
        w.uint(snap.total);
        w.raw("}");
        w.end_value();
    }
    w.raw("}");
    w.end_value();
    w.raw("}");
    w.finish()
}

/// Inverse of [`metrics_delta_to_json`] on the parsed document; `None`
/// on corruption.
fn metrics_delta_from_value(doc: &JsonValue) -> Option<MetricsSnapshot> {
    let mut delta = MetricsSnapshot::default();
    for (name, value) in doc.get("counters")?.as_object()? {
        delta.counters.insert(name.clone(), value.as_u64()?);
    }
    for (name, hist) in doc.get("histograms")?.as_object()? {
        let mut bounds = Vec::new();
        for b in hist.get("bounds")?.as_array()? {
            bounds.push(b.as_u64()?);
        }
        let mut counts = Vec::new();
        for c in hist.get("counts")?.as_array()? {
            counts.push(c.as_u64()?);
        }
        delta.histograms.insert(
            name.clone(),
            HistogramSnapshot {
                bounds,
                counts,
                total: hist.get("total")?.as_u64()?,
                sum: hist.get("sum")?.as_u64()?,
            },
        );
    }
    Some(delta)
}

/// Everything persisted for one completed shard: the caller-encoded
/// result payload, the shard's fault report, and the deterministic
/// metrics delta it contributed.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCheckpoint {
    /// Caller-encoded outputs (opaque to this layer).
    pub payload: String,
    /// Faults the shard absorbed while running.
    pub faults: FaultReport,
    /// Deterministic metrics the shard contributed (counters + value
    /// histograms), replayed into the live registry on resume.
    pub metrics_delta: MetricsSnapshot,
}

impl ShardCheckpoint {
    /// Serializes the shard checkpoint in stable key order.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.raw("{");
        w.key("faults");
        w.raw(&fault_report_to_json(&self.faults));
        w.end_value();
        w.key("metrics");
        w.raw(&metrics_delta_to_json(&self.metrics_delta));
        w.end_value();
        w.key("payload");
        w.string(&self.payload);
        w.raw("}");
        w.finish()
    }

    /// Inverse of [`ShardCheckpoint::to_json`]; `None` on corruption.
    pub fn from_json(text: &str) -> Option<Self> {
        let doc = parse(text).ok()?;
        Some(Self {
            payload: doc.get("payload")?.as_str()?.to_string(),
            faults: fault_report_from_value(doc.get("faults")?)?,
            metrics_delta: metrics_delta_from_value(doc.get("metrics")?)?,
        })
    }

    /// FNV-1a 64 digest of [`ShardCheckpoint::to_json`], the bytes the
    /// store persists: a checkpoint restores only if every byte of it —
    /// metrics delta and fault report included, not only the payload —
    /// is the one the manifest recorded.
    pub fn digest(&self) -> u64 {
        fnv1a64(self.to_json().as_bytes())
    }
}

/// Result of attempting to load a manifest from a checkpoint directory.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestLoad {
    /// No usable manifest: start fresh. `warning` is `Some` when a file
    /// existed but could not be trusted (corrupt, version skew,
    /// fingerprint mismatch) — callers surface it through the
    /// `checkpoint.load_warnings` counter.
    Fresh {
        /// Why an existing manifest was rejected, if one was found.
        warning: Option<String>,
    },
    /// A trusted manifest to resume from.
    Resumed(RunManifest),
}

/// Directory-backed store for a run's manifest and shard checkpoints.
///
/// All writes are atomic (temp file + rename in the same directory), so
/// an interruption at any point leaves the store in the last fully
/// persisted state.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory.
    #[expect(
        clippy::disallowed_methods,
        reason = "the checkpoint store is this crate's disk boundary"
    )]
    pub fn create(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the run manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("run_manifest.json")
    }

    /// Path of the checkpoint file for shard `id`.
    pub fn shard_path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("shard_{id:05}.json"))
    }

    /// Atomically persists the manifest.
    pub fn save_manifest(&self, manifest: &RunManifest) -> io::Result<()> {
        self.write_atomic(&self.manifest_path(), &manifest.to_json())
    }

    /// Loads the manifest, degrading to a fresh run on anything
    /// untrustworthy. `fingerprint` and `total_shards` must match the
    /// caller's current plan for the manifest to be resumed.
    ///
    /// `version` is read before the rest of the document, so a manifest
    /// of another schema version is reported as version skew even where
    /// its other fields no longer parse.
    #[expect(
        clippy::disallowed_methods,
        reason = "the checkpoint store is this crate's disk boundary"
    )]
    pub fn load_manifest(&self, fingerprint: u64, total_shards: usize) -> ManifestLoad {
        let path = self.manifest_path();
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return ManifestLoad::Fresh { warning: None }
            }
            Err(e) => {
                return ManifestLoad::Fresh {
                    warning: Some(format!("manifest unreadable: {e}")),
                }
            }
        };
        let fresh = |warning: String| ManifestLoad::Fresh {
            warning: Some(warning),
        };
        let Ok(doc) = parse(&text) else {
            return fresh("manifest corrupt: parse failed".to_string());
        };
        match doc.get("version").and_then(JsonValue::as_u64) {
            Some(MANIFEST_VERSION) => {}
            Some(version) => {
                return fresh(format!(
                    "manifest version {version} != supported {MANIFEST_VERSION}"
                ))
            }
            None => return fresh("manifest corrupt: no version".to_string()),
        }
        let Some(manifest) = RunManifest::from_value(&doc) else {
            return fresh("manifest corrupt: parse failed".to_string());
        };
        if manifest.fingerprint != fingerprint || manifest.total_shards != total_shards {
            return fresh("manifest fingerprint mismatch: different run".to_string());
        }
        let in_plan = |shard: usize| shard < total_shards;
        if !manifest.shards.keys().all(|&id| in_plan(id))
            || !manifest.dlq.iter().all(|entry| in_plan(entry.shard))
        {
            return fresh(format!(
                "manifest corrupt: a shard id outside the plan of {total_shards}"
            ));
        }
        ManifestLoad::Resumed(manifest)
    }

    /// Atomically persists one shard checkpoint.
    pub fn save_shard(&self, id: usize, checkpoint: &ShardCheckpoint) -> io::Result<()> {
        self.write_atomic(&self.shard_path(id), &checkpoint.to_json())
    }

    /// Loads one shard checkpoint; `None` means missing or corrupt (the
    /// caller re-executes the shard).
    #[expect(
        clippy::disallowed_methods,
        reason = "the checkpoint store is this crate's disk boundary"
    )]
    pub fn load_shard(&self, id: usize) -> Option<ShardCheckpoint> {
        let text = fs::read_to_string(self.shard_path(id)).ok()?;
        ShardCheckpoint::from_json(&text)
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "the checkpoint store is this crate's disk boundary"
    )]
    fn write_atomic(&self, path: &Path, contents: &str) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, contents)?;
        fs::rename(&tmp, path)
    }
}

/// Caller-facing configuration of one checkpointed sharded run.
#[derive(Debug, Clone)]
pub struct CheckpointedRun<'a> {
    /// Where manifests and shard checkpoints live.
    pub store: &'a CheckpointStore,
    /// Digest binding this run to its input plan and seed (see
    /// [`RunManifest::fingerprint`]).
    pub fingerprint: u64,
    /// Seed the detector's deterministic RNG streams derive from.
    pub rng_seed: u64,
    /// Whether to resume from an existing manifest. `false` always
    /// starts fresh, overwriting whatever the directory holds.
    pub resume: bool,
    /// Test/CI hook: a fault plan whose injected I/O errors are consulted
    /// before every checkpoint write, exercising the degrade-to-in-memory
    /// path without a genuinely broken filesystem.
    pub io_faults: Option<&'a FaultPlan>,
    /// Test/CI hook: stop (gracefully, manifest persisted) after this
    /// many *fresh* shard executions, simulating a kill at a
    /// deterministic checkpoint boundary.
    pub abort_after_shards: Option<usize>,
}

/// What a checkpointed sharded run produced.
#[derive(Debug)]
pub struct ShardedOutcome<O> {
    /// Concatenated shard outputs in shard order. Incomplete when
    /// `interrupted` is set.
    pub outputs: Vec<O>,
    /// Aggregate fault report across all shards (resumed shards
    /// contribute their persisted reports).
    pub faults: FaultReport,
    /// The manifest as persisted at the end of the run.
    pub manifest: RunManifest,
    /// Shards restored from checkpoints instead of re-executed.
    pub resumed_shards: usize,
    /// Shards executed fresh in this process.
    pub executed_shards: usize,
    /// Checkpoint artifacts that existed but could not be trusted.
    pub load_warnings: usize,
    /// Checkpoint writes that failed; the run degraded to in-memory
    /// execution for those shards.
    pub write_warnings: usize,
    /// Set when `abort_after_shards` stopped the run early.
    pub interrupted: bool,
}

/// FNV-1a 64-bit digest — the workspace's standard content fingerprint
/// (dependency-free, deterministic across platforms). Takes any byte
/// sequence, so a key made of several fields can be hashed without first
/// being copied into one buffer.
pub fn fnv1a64<'a>(bytes: impl IntoIterator<Item = &'a u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Digest of a shard plan: the `Debug` renderings of every input in
/// every shard, mixed with shard boundaries. Used as the run
/// fingerprint component that binds a manifest to its exact input.
pub fn shard_plan_digest<I: std::fmt::Debug>(shards: &[Vec<I>]) -> u64 {
    let mut text = String::new();
    for (i, shard) in shards.iter().enumerate() {
        let _ = write!(text, "shard[{i}]#{};", shard.len());
        for input in shard {
            let _ = write!(text, "{input:?};");
        }
    }
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    fn sample_manifest() -> RunManifest {
        let mut m = RunManifest::new(0xDEAD_BEEF, 3, 0xBA9_3A7C4);
        m.shards.insert(
            0,
            ShardRecord {
                digest: u64::MAX,
                outputs: 17,
            },
        );
        m.shards.insert(
            2,
            ShardRecord {
                digest: 42,
                outputs: 0,
            },
        );
        m.dlq.push(DlqEntry {
            key: "pair(\"h1\",\"c2.example\")".to_string(),
            shard: 2,
            payload: "{\"intervals\":[60,60]}".to_string(),
        });
        m
    }

    #[test]
    fn manifest_round_trips_byte_identically() {
        let m = sample_manifest();
        let json = m.to_json();
        let back = RunManifest::from_json(&json).unwrap();
        assert_eq!(back, m);
        // Re-serializing the parsed manifest reproduces the exact bytes.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn fault_report_round_trips() {
        let report = FaultReport {
            map_bisections: 3,
            quarantined_keys: 1,
            lost_values: 7,
            key_samples: vec!["\"bad\"".to_string()],
            panic_samples: vec!["boom".to_string()],
            ..Default::default()
        };
        let back = fault_report_from_json(&fault_report_to_json(&report)).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn shard_checkpoint_round_trips() {
        let mut delta = MetricsSnapshot::default();
        delta.counters.insert("detector.pairs_analyzed".into(), 9);
        delta.histograms.insert(
            "detector.series_len".into(),
            HistogramSnapshot {
                bounds: vec![10, 100],
                counts: vec![1, 2, 0],
                total: 3,
                sum: 77,
            },
        );
        let cp = ShardCheckpoint {
            payload: "rows:[1,2,3] with \"quotes\"\nand newlines".to_string(),
            faults: FaultReport {
                quarantined_keys: 1,
                ..Default::default()
            },
            metrics_delta: delta,
        };
        let back = ShardCheckpoint::from_json(&cp.to_json()).unwrap();
        assert_eq!(back, cp);
    }

    #[test]
    fn store_persists_and_reloads_atomically() {
        let dir = std::env::temp_dir().join(format!(
            "baywatch-manifest-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"store_persists_and_reloads")
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();

        // No manifest yet: fresh without warning.
        assert_eq!(
            store.load_manifest(1, 3),
            ManifestLoad::Fresh { warning: None }
        );

        let m = sample_manifest();
        store.save_manifest(&m).unwrap();
        match store.load_manifest(m.fingerprint, m.total_shards) {
            ManifestLoad::Resumed(loaded) => assert_eq!(loaded, m),
            other => panic!("expected resume, got {other:?}"),
        }

        // Wrong fingerprint: explicit degradation, never a silent resume.
        assert!(matches!(
            store.load_manifest(m.fingerprint ^ 1, m.total_shards),
            ManifestLoad::Fresh { warning: Some(_) }
        ));
        assert!(matches!(
            store.load_manifest(m.fingerprint, m.total_shards + 1),
            ManifestLoad::Fresh { warning: Some(_) }
        ));

        // Corrupt manifest bytes: fresh with warning.
        fs::write(store.manifest_path(), "{not json").unwrap();
        assert!(matches!(
            store.load_manifest(m.fingerprint, m.total_shards),
            ManifestLoad::Fresh { warning: Some(_) }
        ));

        // Shard files: round trip and corruption tolerance.
        let cp = ShardCheckpoint {
            payload: "p".to_string(),
            faults: FaultReport::default(),
            metrics_delta: MetricsSnapshot::default(),
        };
        store.save_shard(4, &cp).unwrap();
        assert_eq!(store.load_shard(4), Some(cp));
        assert_eq!(store.load_shard(5), None);
        fs::write(store.shard_path(4), "garbage").unwrap();
        assert_eq!(store.load_shard(4), None);

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_skew_degrades_to_fresh() {
        let dir = std::env::temp_dir().join(format!(
            "baywatch-manifest-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"version_skew")
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        let mut m = sample_manifest();
        m.version = MANIFEST_VERSION + 1;
        store.save_manifest(&m).unwrap();
        assert!(matches!(
            store.load_manifest(m.fingerprint, m.total_shards),
            ManifestLoad::Fresh { warning: Some(_) }
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    /// What a version-1 build wrote: a task deadline in the policy, a
    /// wall-clock budget, a `timed_out` dead letter, and the three
    /// timeout keys in every shard's fault report.
    const V1_MANIFEST: &str = r#"{"budget":{"max_millis":5000,"max_ops":800000},"dlq":[{"key":"\"slow\"","payload":"","reason":"timed_out","retries":0,"samples":["\"slow\""],"shard":0}],"fingerprint":3735928559,"policy":{"max_task_retries":2,"sample_limit":8,"task_deadline_millis":2000},"rng_seed":7,"shards":{"0":{"digest":42,"outputs":1}},"total_shards":3,"version":1}"#;
    const V1_SHARD: &str = r#"{"faults":{"checkpoint_corruptions":0,"corruption_samples":[],"input_samples":[],"key_samples":["\"bad\""],"lost_values":4,"map_bisections":0,"map_retries":1,"panic_samples":["boom"],"quarantined_inputs":0,"quarantined_keys":1,"reduce_retries":2,"timed_out_inputs":1,"timed_out_keys":1,"timeout_samples":["\"slow\""]},"metrics":{"counters":{"mapreduce.jobs":1},"histograms":{}},"payload":"p"}"#;
    /// What a version-2 build wrote: the retry policy block and a
    /// `retries` count on every dead letter.
    const V2_MANIFEST: &str = r#"{"budget":{"max_ops":800000},"dlq":[{"key":"\"bad\"","payload":"","reason":"poison","retries":2,"samples":["boom"],"shard":0}],"fingerprint":3735928559,"policy":{"max_task_retries":2,"sample_limit":8},"rng_seed":7,"shards":{"0":{"digest":42,"outputs":1}},"total_shards":3,"version":2}"#;
    /// What a version-3 build wrote: the per-pair `budget` block and a
    /// `reason` on every dead letter, here a budget cut.
    const V3_MANIFEST: &str = r#"{"budget":{"max_ops":800000},"dlq":[{"key":"\"slow\"","payload":"","reason":"budget_exhausted","samples":[],"shard":0}],"fingerprint":3735928559,"rng_seed":7,"shards":{"0":{"digest":42,"outputs":1}},"total_shards":3,"version":3}"#;
    /// What a version-4 build wrote: every dead letter carried the first
    /// panic messages of its whole shard, whichever pair they came from.
    const V4_MANIFEST: &str = r#"{"dlq":[{"key":"\"bad\"","payload":"","samples":["boom","other pair's panic"],"shard":0}],"fingerprint":3735928559,"rng_seed":7,"shards":{"0":{"digest":42,"outputs":1}},"total_shards":3,"version":4}"#;

    #[test]
    fn version_1_manifest_starts_fresh_and_its_shards_still_restore() {
        let dir = std::env::temp_dir().join(format!(
            "baywatch-manifest-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"version_1")
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        // Each old manifest reads as version skew, never as a resume: the
        // v3 and v4 documents hold every key a current manifest reads, so
        // the version check is all that keeps their shards — and the v4
        // entries' misattributed panic samples — from resuming.
        assert!(RunManifest::from_json(V3_MANIFEST).is_some());
        assert!(RunManifest::from_json(V4_MANIFEST).is_some());
        for (text, warning) in [
            (V1_MANIFEST, "manifest version 1 != supported 5"),
            (V2_MANIFEST, "manifest version 2 != supported 5"),
            (V3_MANIFEST, "manifest version 3 != supported 5"),
            (V4_MANIFEST, "manifest version 4 != supported 5"),
        ] {
            fs::write(store.manifest_path(), text).unwrap();
            assert_eq!(
                store.load_manifest(3_735_928_559, 3),
                ManifestLoad::Fresh {
                    warning: Some(warning.to_string())
                },
            );
        }

        fs::write(store.shard_path(0), V1_SHARD).unwrap();
        let restored = store.load_shard(0).unwrap();
        assert_eq!(restored.payload, "p");
        assert_eq!(
            restored.faults,
            FaultReport {
                quarantined_keys: 1,
                lost_values: 4,
                key_samples: vec!["\"bad\"".to_string()],
                panic_samples: vec!["boom".to_string()],
                ..Default::default()
            }
        );
        assert_eq!(restored.metrics_delta.counters["mapreduce.jobs"], 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_shard_id_outside_the_plan_is_refused() {
        let dir = std::env::temp_dir().join(format!(
            "baywatch-manifest-test-{}-{:x}",
            std::process::id(),
            fnv1a64(b"shard_outside_plan")
        ));
        let _ = fs::remove_dir_all(&dir);
        let store = CheckpointStore::create(&dir).unwrap();
        let mut m = sample_manifest();
        m.shards.insert(
            m.total_shards,
            ShardRecord {
                digest: 7,
                outputs: 1,
            },
        );
        store.save_manifest(&m).unwrap();
        assert!(matches!(
            store.load_manifest(m.fingerprint, m.total_shards),
            ManifestLoad::Fresh {
                warning: Some(w)
            } if w.contains("outside the plan")
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_digest_covers_more_than_its_payload() {
        let cp = ShardCheckpoint {
            payload: "p".to_string(),
            faults: FaultReport::default(),
            metrics_delta: MetricsSnapshot::default(),
        };
        let mut counted = cp.clone();
        counted.metrics_delta.counters.insert("c".into(), 1);
        assert_ne!(cp.digest(), counted.digest());
        let mut faulted = cp.clone();
        faulted.faults.quarantined_keys = 1;
        assert_ne!(cp.digest(), faulted.digest());
        assert_eq!(cp.digest(), fnv1a64(cp.to_json().as_bytes()));
    }

    #[test]
    fn fnv_digest_is_stable() {
        // Reference vectors for the FNV-1a 64 parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn shard_plan_digest_sees_boundaries() {
        let a = shard_plan_digest(&[vec![1, 2], vec![3]]);
        let b = shard_plan_digest(&[vec![1], vec![2, 3]]);
        assert_ne!(a, b, "same items, different boundaries, different plan");
        assert_eq!(a, shard_plan_digest(&[vec![1, 2], vec![3]]));
    }
}
