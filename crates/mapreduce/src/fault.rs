//! Fault-tolerant execution support: retry/quarantine policy, the
//! per-run [`FaultReport`], and the deterministic [`FaultPlan`] injection
//! harness used by the robustness tests.
//!
//! The paper runs over ~30 B proxy events where pathological records are
//! the norm; production MapReduce systems (Dean & Ghemawat) treat task
//! failure and bad-record skipping as first-class for exactly that reason.
//! [`MapReduce::run`](crate::MapReduce::run) follows the same model: every
//! map chunk and reduce partition runs under
//! `catch_unwind` with bounded retries, repeated failures are bisected down
//! to the poison record or key, the poison unit is quarantined (counted and
//! sampled, not propagated), and the run completes in degraded mode.

use std::any::Any;
#[expect(clippy::disallowed_types, reason = "reasoned on `FaultPlan`")]
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
#[expect(clippy::disallowed_types, reason = "reasoned on `FaultPlan`")]
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Retry and sampling policy of a run: how hard the engine tries before
/// it drops a unit. The default is what "plain" execution means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Additional attempts granted to a failing task (map slice or reduce
    /// key) before it is bisected or quarantined. `0` quarantines on the
    /// first failure; the default of `2` absorbs transient faults.
    pub max_task_retries: usize,
    /// Upper bound on the number of `Debug` samples retained per category
    /// in the [`FaultReport`] (quarantined inputs, keys, panic messages).
    /// Counting is always exact; only the samples are bounded.
    pub sample_limit: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        Self {
            max_task_retries: 2,
            sample_limit: 8,
        }
    }
}

/// What the engine had to do to complete a run.
///
/// Returned alongside the results by
/// [`MapReduce::run`](crate::MapReduce::run); a clean run has all counters
/// at zero ([`FaultReport::is_clean`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Map-side task attempts beyond the first (transient faults absorbed).
    pub map_retries: usize,
    /// Reduce-side task attempts beyond the first.
    pub reduce_retries: usize,
    /// Input records quarantined after bisection isolated them as poison.
    pub quarantined_inputs: usize,
    /// Map-slice bisection splits performed while isolating poison
    /// records (each split re-maps both halves of a slice).
    pub map_bisections: usize,
    /// Reduce keys quarantined after retries were exhausted.
    pub quarantined_keys: usize,
    /// Shuffled values dropped together with quarantined reduce keys.
    pub lost_values: usize,
    /// Checkpoint restores refused during a resumed sharded run — a
    /// missing, corrupt, digest-mismatched or truncated shard
    /// checkpoint, or an untrusted manifest, each downgraded to fresh
    /// re-execution. A *process* fact, not a data fact: the affected
    /// shards re-executed correctly, so this does not flip
    /// [`FaultReport::is_clean`].
    pub checkpoint_corruptions: usize,
    /// Human-readable descriptions of the refused restores (bounded
    /// sample).
    pub corruption_samples: Vec<String>,
    /// `Debug` renderings of quarantined inputs (bounded sample).
    pub input_samples: Vec<String>,
    /// `Debug` renderings of quarantined reduce keys (bounded sample).
    pub key_samples: Vec<String>,
    /// Panic messages observed (bounded sample, deduplicated).
    pub panic_samples: Vec<String>,
}

// A ledger: its totals must stay exact, so no cast may narrow them
// (DESIGN.md §7).
#[deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
impl FaultReport {
    /// Whether the run needed no retries and quarantined nothing.
    pub fn is_clean(&self) -> bool {
        self.map_retries == 0
            && self.reduce_retries == 0
            && self.quarantined_inputs == 0
            && self.quarantined_keys == 0
    }

    /// Total quarantined units (poison inputs plus poison keys).
    pub fn quarantined_units(&self) -> usize {
        self.quarantined_inputs + self.quarantined_keys
    }

    /// Records that did not contribute to the output: poison inputs plus
    /// the values dropped with quarantined keys.
    pub fn skipped_records(&self) -> usize {
        self.quarantined_inputs + self.lost_values
    }

    /// Counts one refused checkpoint restore, retaining the description
    /// while under the sample bound.
    pub fn note_checkpoint_corruption(&mut self, sample: String, sample_limit: usize) {
        self.checkpoint_corruptions += 1;
        if self.corruption_samples.len() < sample_limit
            && !self.corruption_samples.contains(&sample)
        {
            self.corruption_samples.push(sample);
        }
    }

    /// Folds another report into this one (counters summed, sample lists
    /// concatenated under the same bound). Used when a pipeline chains
    /// several fault-tolerant jobs and wants one aggregate.
    pub fn absorb(&mut self, other: &FaultReport) {
        self.map_retries += other.map_retries;
        self.reduce_retries += other.reduce_retries;
        self.quarantined_inputs += other.quarantined_inputs;
        self.map_bisections += other.map_bisections;
        self.quarantined_keys += other.quarantined_keys;
        self.lost_values += other.lost_values;
        self.checkpoint_corruptions += other.checkpoint_corruptions;
        extend_bounded(&mut self.corruption_samples, &other.corruption_samples);
        extend_bounded(&mut self.input_samples, &other.input_samples);
        extend_bounded(&mut self.key_samples, &other.key_samples);
        extend_bounded(&mut self.panic_samples, &other.panic_samples);
    }
}

/// Aggregate cap applied when merging sample lists across jobs.
const ABSORB_SAMPLE_LIMIT: usize = 32;

fn extend_bounded(dst: &mut Vec<String>, src: &[String]) {
    for s in src {
        if dst.len() >= ABSORB_SAMPLE_LIMIT {
            break;
        }
        if !dst.contains(s) {
            dst.push(s.clone());
        }
    }
}

/// Renders a panic payload as a message string.
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Per-phase fault accumulator used inside the engine workers.
#[derive(Debug, Default)]
pub(crate) struct PhaseFaults {
    pub retries: usize,
    pub quarantined: usize,
    pub bisections: usize,
    pub lost_values: usize,
    pub unit_samples: Vec<String>,
    pub panic_samples: Vec<String>,
}

// A ledger: its totals must stay exact, so no cast may narrow them
// (DESIGN.md §7).
#[deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
impl PhaseFaults {
    pub fn note_panic(&mut self, payload: Box<dyn Any + Send>, policy: &FaultPolicy) {
        let msg = panic_message(payload.as_ref());
        if self.panic_samples.len() < policy.sample_limit && !self.panic_samples.contains(&msg) {
            self.panic_samples.push(msg);
        }
    }

    pub fn quarantine(&mut self, unit: String, lost_values: usize, policy: &FaultPolicy) {
        self.quarantined += 1;
        self.lost_values += lost_values;
        if self.unit_samples.len() < policy.sample_limit {
            self.unit_samples.push(unit);
        }
    }

    pub fn merge(&mut self, other: PhaseFaults) {
        self.retries += other.retries;
        self.quarantined += other.quarantined;
        self.bisections += other.bisections;
        self.lost_values += other.lost_values;
        self.unit_samples.extend(other.unit_samples);
        self.panic_samples.extend(other.panic_samples);
    }
}

/// A deterministic fault-injection plan: the test harness arms one of
/// these, the instrumented mappers/reducers call the `checkpoint`
/// methods, and the plan panics at exactly the programmed points.
///
/// No randomness is involved — faults fire on the Nth map invocation
/// (counted atomically across workers) or on exact `Debug` renderings of
/// reduce keys / map inputs — so a failing run replays identically.
///
/// # Example
///
/// ```
/// use baywatch_mapreduce::fault::{FaultPlan, FaultPolicy};
/// use baywatch_mapreduce::{JobConfig, MapReduce};
///
/// let plan = FaultPlan::new()
///     .panic_on_map_call(1)      // one transient map fault, absorbed by retry
///     .poison_key("\"bad\"");    // this key always fails → quarantined
/// let engine = MapReduce::new(JobConfig { partitions: 4, threads: 2 });
/// let (out, report) = engine.run(
///     &["ok bad ok", "ok"],
///     |doc, emit| {
///         plan.map_checkpoint(doc);
///         for w in doc.split_whitespace() {
///             emit(w.to_owned(), 1usize);
///         }
///     },
///     |word, ones| {
///         plan.reduce_checkpoint(word);
///         vec![(word.clone(), ones.len())]
///     },
///     &FaultPolicy::default(),
/// );
/// assert_eq!(out, vec![("ok".to_owned(), 3)]);
/// assert_eq!(report.quarantined_keys, 1);
/// assert!(report.map_retries >= 1);
/// ```
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "the plan's sets and maps are only probed by exact call number, input or key, so their iteration order never reaches a report; injected/map_calls are stats-and-uniqueness counters whose single-cell RMWs stay atomic at Relaxed and are read after join; the save_fail_* control cells deliberately stay SeqCst (see their fields)"
)]
pub struct FaultPlan {
    map_calls: AtomicUsize,
    map_panic_calls: HashSet<usize>,
    poison_inputs: HashSet<String>,
    poison_keys: HashSet<String>,
    transient_keys: Mutex<HashMap<String, usize>>,
    // `save_fail_*` are *control* cells: worker threads read them
    // mid-flight to decide whether a checkpoint save fails, and the
    // fault-injection tests assert exact trigger counts across threads.
    // `SeqCst` keeps each trigger decision totally ordered with the
    // injection bookkeeping, and on both of the countdown's
    // `fetch_update` orderings every decrement is observed exactly once.
    save_fail_next: AtomicUsize,
    save_fail_all: AtomicBool,
    injected: AtomicUsize,
}

impl FaultPlan {
    /// An empty plan (no faults fire until programmed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic on the `n`-th map checkpoint (0-based, counted atomically
    /// across all workers and attempts). Because the counter advances on
    /// every call, the fault is transient: the retry of the same slice
    /// draws a later count and succeeds.
    pub fn panic_on_map_call(mut self, n: usize) -> Self {
        self.map_panic_calls.insert(n);
        self
    }

    /// Panic whenever the map checkpoint sees an input whose `Debug`
    /// rendering equals `input` — a permanent poison record, forcing
    /// bisection and quarantine.
    pub fn poison_input(mut self, input: &str) -> Self {
        self.poison_inputs.insert(input.to_owned());
        self
    }

    /// Panic whenever the reduce checkpoint sees a key whose `Debug`
    /// rendering equals `key` — a permanent poison key, quarantined after
    /// the retry budget is exhausted.
    pub fn poison_key(mut self, key: &str) -> Self {
        self.poison_keys.insert(key.to_owned());
        self
    }

    /// Fail the reduce key with `Debug` rendering `key` for the next
    /// `rounds` checkpoints, then let it succeed (a transient key fault,
    /// absorbed by the retry budget when `rounds` is small enough).
    pub fn fail_key(self, key: &str, rounds: usize) -> Self {
        {
            let mut map = lock_recovering(&self.transient_keys);
            map.insert(key.to_owned(), rounds);
        }
        self
    }

    /// Fail the next `n` checkpoint writes with an injected I/O error,
    /// then let writes succeed again — a *transient* storage fault (a
    /// briefly full disk, an NFS hiccup).
    pub fn fail_next_saves(self, n: usize) -> Self {
        self.save_fail_next.store(n, Ordering::SeqCst);
        self
    }

    /// Fail every checkpoint write from now on — a *persistent* storage
    /// fault (checkpoint directory unwritable for the rest of the run).
    pub fn fail_all_saves(self) -> Self {
        self.save_fail_all.store(true, Ordering::SeqCst);
        self
    }

    /// Called by the sharded engine before each checkpoint write; returns
    /// the injected I/O error when the plan says this write must fail.
    ///
    /// # Errors
    ///
    /// Returns an [`std::io::ErrorKind::Other`] error when a transient or
    /// persistent save fault is armed for this write.
    pub fn save_checkpoint(&self) -> std::io::Result<()> {
        if self.save_fail_all.load(Ordering::SeqCst) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(std::io::Error::other(
                "injected fault: persistent checkpoint write failure",
            ));
        }
        let fired = self
            .save_fail_next
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok();
        if fired {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(std::io::Error::other(
                "injected fault: transient checkpoint write failure",
            ));
        }
        Ok(())
    }

    /// How many faults the plan has fired so far.
    pub fn injected_faults(&self) -> usize {
        self.injected.load(Ordering::Relaxed)
    }

    /// Called by instrumented mappers once per map invocation; panics when
    /// the plan says this invocation (or this input) must fail.
    pub fn map_checkpoint<T: Debug>(&self, input: &T) {
        let n = self.map_calls.fetch_add(1, Ordering::Relaxed);
        if self.map_panic_calls.contains(&n) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: map call {n}");
        }
        if !self.poison_inputs.is_empty() {
            let repr = format!("{input:?}");
            if self.poison_inputs.contains(&repr) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                panic!("injected fault: poison input {repr}");
            }
        }
    }

    /// Called by instrumented reducers once per key; panics when the plan
    /// says this key must fail (permanently or for a remaining round).
    pub fn reduce_checkpoint<K: Debug>(&self, key: &K) {
        let repr = format!("{key:?}");
        if self.poison_keys.contains(&repr) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: poison key {repr}");
        }
        let fire = {
            let mut map = lock_recovering(&self.transient_keys);
            match map.get_mut(&repr) {
                Some(rounds) if *rounds > 0 => {
                    *rounds -= 1;
                    true
                }
                _ => false,
            }
        };
        if fire {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: transient key {repr}");
        }
    }
}

/// Locks a mutex, recovering the guard if a previous holder panicked (the
/// entire point of this module is surviving panics).
fn lock_recovering<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn default_policy_is_sane() {
        let p = FaultPolicy::default();
        assert!(p.max_task_retries >= 1);
        assert!(p.sample_limit >= 1);
    }

    #[test]
    fn report_absorb_sums_counters() {
        let mut a = FaultReport {
            map_retries: 1,
            quarantined_inputs: 2,
            input_samples: vec!["x".into()],
            ..Default::default()
        };
        let b = FaultReport {
            map_retries: 2,
            quarantined_keys: 1,
            lost_values: 3,
            input_samples: vec!["y".into()],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.map_retries, 3);
        assert_eq!(a.quarantined_inputs, 2);
        assert_eq!(a.quarantined_keys, 1);
        assert_eq!(a.lost_values, 3);
        assert_eq!(a.quarantined_units(), 3);
        assert_eq!(a.skipped_records(), 5);
        assert_eq!(a.input_samples, vec!["x".to_owned(), "y".to_owned()]);
        assert!(!a.is_clean());
        assert!(FaultReport::default().is_clean());
    }

    #[test]
    fn plan_fires_on_programmed_map_call_only() {
        let plan = FaultPlan::new().panic_on_map_call(1);
        plan.map_checkpoint(&"a"); // call 0: fine
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.map_checkpoint(&"b") // call 1: fires
        }));
        assert!(err.is_err());
        plan.map_checkpoint(&"c"); // call 2: fine again (transient)
        assert_eq!(plan.injected_faults(), 1);
    }

    #[test]
    fn plan_poison_input_fires_every_time() {
        let plan = FaultPlan::new().poison_input("\"bad\"");
        for _ in 0..3 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.map_checkpoint(&"bad")
            }));
            assert!(err.is_err());
        }
        plan.map_checkpoint(&"good");
        assert_eq!(plan.injected_faults(), 3);
    }

    #[test]
    fn plan_transient_key_recovers_after_rounds() {
        let plan = FaultPlan::new().fail_key("\"k\"", 2);
        for _ in 0..2 {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                plan.reduce_checkpoint(&"k")
            }));
            assert!(err.is_err());
        }
        plan.reduce_checkpoint(&"k"); // rounds exhausted: succeeds
        assert_eq!(plan.injected_faults(), 2);
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    /// Ledger counters overflow loudly: every `+=` in
    /// `FaultReport::absorb` and in the `PhaseFaults` mutators panics past
    /// `usize::MAX`, so rewriting one as `wrapping_*` or `saturating_*`
    /// fails here.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not check overflow")]
    fn ledger_counters_panic_on_overflow() {
        let report_fields: [fn(&mut FaultReport) -> &mut usize; 7] = [
            |r| &mut r.map_retries,
            |r| &mut r.reduce_retries,
            |r| &mut r.quarantined_inputs,
            |r| &mut r.map_bisections,
            |r| &mut r.quarantined_keys,
            |r| &mut r.lost_values,
            |r| &mut r.checkpoint_corruptions,
        ];
        for (i, field) in report_fields.into_iter().enumerate() {
            let (mut full, mut one) = (FaultReport::default(), FaultReport::default());
            *field(&mut full) = usize::MAX;
            *field(&mut one) = 1;
            assert!(panics(|| full.absorb(&one)), "FaultReport field {i}");
        }

        let phase_fields: [fn(&mut PhaseFaults) -> &mut usize; 4] = [
            |p| &mut p.retries,
            |p| &mut p.quarantined,
            |p| &mut p.bisections,
            |p| &mut p.lost_values,
        ];
        let full = |field: fn(&mut PhaseFaults) -> &mut usize| {
            let mut p = PhaseFaults::default();
            *field(&mut p) = usize::MAX;
            p
        };
        for (i, field) in phase_fields.into_iter().enumerate() {
            let mut one = PhaseFaults::default();
            *field(&mut one) = 1;
            let mut p = full(field);
            assert!(panics(|| p.merge(one)), "PhaseFaults field {i}");
        }
        let policy = FaultPolicy::default();
        let mut p = full(|p| &mut p.quarantined);
        assert!(panics(|| p.quarantine("unit".into(), 0, &policy)));
        let mut p = full(|p| &mut p.lost_values);
        assert!(panics(|| p.quarantine("unit".into(), 1, &policy)));
    }

    #[test]
    fn panic_message_extracts_strings() {
        let boxed: Box<dyn Any + Send> = Box::new("static str");
        assert_eq!(panic_message(boxed.as_ref()), "static str");
        let boxed: Box<dyn Any + Send> = Box::new("owned".to_owned());
        assert_eq!(panic_message(boxed.as_ref()), "owned");
        let boxed: Box<dyn Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}
