//! Hostile bytes at the checkpoint boundary. A run killed between shards
//! leaves a manifest and shard checkpoints on disk; this suite truncates
//! them, flips their bytes, deletes shard files, or rewrites the manifest
//! so that its shard count disagrees with the directory, and then loads
//! them and resumes the run.
//!
//! Whatever the damage, nothing panics, the manifest loads as a resume or
//! as a fresh start with a warning, and the resumed run's outputs and
//! deterministic metrics equal an uninterrupted run's: a checkpoint is
//! either trusted whole or re-executed, never half replayed.

#![allow(
    clippy::disallowed_methods,
    reason = "the suite damages checkpoint files in scratch dirs"
)]

use std::path::{Path, PathBuf};
use std::sync::Arc;

use baywatch::mapreduce::{
    CheckpointStore, CheckpointedRun, JobConfig, ManifestLoad, MapReduce, RunManifest, ShardRecord,
    ShardedOutcome,
};
use baywatch::obs::{Buckets, MetricsRegistry};
use baywatch::stats::rng::{forall, Rng};

const FINGERPRINT: u64 = 0xC0FFEE;

fn shards() -> Vec<Vec<&'static str>> {
    vec![
        vec!["alpha beta alpha", "gamma"],
        vec!["beta beta delta", "epsilon"],
        vec!["alpha epsilon", "zeta zeta zeta"],
        vec!["eta theta", "theta iota alpha"],
    ]
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("baywatch-boundary-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A word count over [`shards`] under checkpoints in `dir`, whose reducer
/// also fills two histograms. Returns the outcome and the registry's
/// deterministic export.
fn word_count(
    dir: &Path,
    resume: bool,
    abort: Option<usize>,
) -> (ShardedOutcome<(String, usize)>, String) {
    let metrics = Arc::new(MetricsRegistry::new());
    let engine = MapReduce::new(JobConfig {
        partitions: 4,
        threads: 2,
    })
    .with_metrics(Arc::clone(&metrics));
    let store = CheckpointStore::create(dir).unwrap();
    let buckets = Buckets::new(&[1, 2, 4]).unwrap();
    let outcome = engine
        .run_sharded_checkpointed(
            &shards(),
            &CheckpointedRun {
                store: &store,
                fingerprint: FINGERPRINT,
                rng_seed: 0,
                resume,
                io_faults: None,
                abort_after_shards: abort,
            },
            |doc: &&str, emit| {
                for w in doc.split_whitespace() {
                    emit(w.to_owned(), 1usize);
                }
            },
            |k: &String, vs: &[usize]| {
                metrics
                    .histogram("a.count", &buckets)
                    .observe(vs.len() as u64);
                metrics
                    .histogram("b.length", &buckets)
                    .observe(k.len() as u64);
                vec![(k.clone(), vs.len())]
            },
            |rows: &[(String, usize)]| rows.iter().map(|(w, c)| format!("{w}={c}\n")).collect(),
            |payload: &str| {
                payload
                    .lines()
                    .map(|line| {
                        let (w, c) = line.rsplit_once('=')?;
                        Some((w.to_owned(), c.parse().ok()?))
                    })
                    .collect()
            },
            |_, _, _, _| Vec::new(),
        )
        .unwrap();
    (outcome, metrics.snapshot().to_json())
}

/// One way to damage what a killed run left behind.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// None at all: the control, a plain resume.
    Nothing,
    TruncateManifest,
    FlipManifest,
    TruncateShard,
    FlipShard,
    DeleteShard,
    /// The manifest's own shard count is not the directory's.
    MiscountShards,
    /// The manifest records a shard the plan does not have.
    ShardOutsidePlan,
}

const DAMAGES: [Damage; 8] = [
    Damage::Nothing,
    Damage::TruncateManifest,
    Damage::FlipManifest,
    Damage::TruncateShard,
    Damage::FlipShard,
    Damage::DeleteShard,
    Damage::MiscountShards,
    Damage::ShardOutsidePlan,
];

fn truncate(path: &Path, rng: &mut Rng) {
    let bytes = std::fs::read(path).unwrap();
    let keep = rng.random_range(0..bytes.len());
    std::fs::write(path, &bytes[..keep]).unwrap();
}

fn flip(path: &Path, rng: &mut Rng) {
    let mut bytes = std::fs::read(path).unwrap();
    let at = rng.random_range(0..bytes.len());
    bytes[at] ^= rng.random_range(1..=255u8);
    std::fs::write(path, bytes).unwrap();
}

/// Applies `damage` to the store a run killed after `written` shards left.
fn damage(store: &CheckpointStore, written: usize, damage: Damage, rng: &mut Rng) {
    let shard = store.shard_path(rng.random_range(0..written));
    let manifest = || {
        RunManifest::from_json(&std::fs::read_to_string(store.manifest_path()).unwrap()).unwrap()
    };
    match damage {
        Damage::Nothing => {}
        Damage::TruncateManifest => truncate(&store.manifest_path(), rng),
        Damage::FlipManifest => flip(&store.manifest_path(), rng),
        Damage::TruncateShard => truncate(&shard, rng),
        Damage::FlipShard => flip(&shard, rng),
        Damage::DeleteShard => std::fs::remove_file(shard).unwrap(),
        Damage::MiscountShards => {
            let mut m = manifest();
            m.total_shards = if rng.random_range(0..2) == 0 {
                written.saturating_sub(1)
            } else {
                shards().len() + 1
            };
            store.save_manifest(&m).unwrap();
        }
        Damage::ShardOutsidePlan => {
            let mut m = manifest();
            m.shards.insert(
                shards().len() + rng.random_range(0..3),
                ShardRecord {
                    digest: rng.next_u64(),
                    outputs: 1,
                },
            );
            store.save_manifest(&m).unwrap();
        }
    }
}

#[test]
fn damaged_checkpoints_resume_to_the_uninterrupted_result() {
    let reference_dir = scratch("reference");
    let (reference, reference_metrics) = word_count(&reference_dir, false, None);
    assert!(!reference.interrupted);
    let _ = std::fs::remove_dir_all(&reference_dir);

    let n = shards().len();
    let dir = scratch("damaged");
    forall(96, 0xB0_0DA2, |rng| {
        let _ = std::fs::remove_dir_all(&dir);
        let written = rng.random_range(1..=n);
        let (killed, _) = word_count(&dir, false, (written < n).then_some(written));
        assert_eq!(killed.executed_shards, written);
        let store = CheckpointStore::create(&dir).unwrap();
        let kind = DAMAGES[rng.random_range(0..DAMAGES.len())];
        damage(&store, written, kind, rng);

        // The loaders take the damage without panicking: a resume or a
        // fresh start that says why.
        let load = store.load_manifest(FINGERPRINT, n);
        assert!(
            !matches!(load, ManifestLoad::Fresh { warning: None }),
            "{kind:?}: an existing manifest was dropped without a warning"
        );
        if matches!(kind, Damage::Nothing) {
            assert!(matches!(load, ManifestLoad::Resumed(_)));
        }
        for shard in 0..=n {
            let _ = store.load_shard(shard);
        }

        let (resumed, metrics) = word_count(&dir, true, None);
        assert!(!resumed.interrupted, "{kind:?}");
        assert_eq!(
            resumed.resumed_shards + resumed.executed_shards,
            n,
            "{kind:?}"
        );
        match load {
            ManifestLoad::Resumed(_) => assert!(resumed.resumed_shards <= written),
            ManifestLoad::Fresh { .. } => {
                assert_eq!(resumed.resumed_shards, 0, "{kind:?}");
                assert_eq!(resumed.load_warnings, 1, "{kind:?}");
            }
        }
        assert_eq!(resumed.outputs, reference.outputs, "{kind:?}");
        assert_eq!(metrics, reference_metrics, "{kind:?}");
    });
    let _ = std::fs::remove_dir_all(&dir);
}
