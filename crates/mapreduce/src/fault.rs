//! Fault-tolerant execution support: the per-run [`FaultReport`] and the
//! deterministic [`FaultPlan`] injection harness used by the robustness
//! tests.
//!
//! The paper runs over ~30 B proxy events where pathological records are
//! the norm; production MapReduce systems (Dean & Ghemawat) treat task
//! failure and bad-record skipping as first-class for exactly that reason.
//! [`MapReduce::run`](crate::MapReduce::run) follows their "skipping bad
//! records" model: every map slice and reduce partition runs under
//! `catch_unwind`, a failing map slice is bisected down to the poison
//! record, a failing reduce key is quarantined (counted and sampled, not
//! propagated), and the run completes in degraded mode. Nothing is
//! retried: a pure mapper or reducer fails on what it computes, never on
//! when it runs, so the same unit would fail the same way again.

use std::any::Any;
#[expect(clippy::disallowed_types, reason = "reasoned on `FaultPlan`")]
use std::collections::HashSet;
use std::fmt::Debug;
#[expect(clippy::disallowed_types, reason = "reasoned on `FaultPlan`")]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on the number of `Debug` samples a [`FaultReport`] retains
/// per category (quarantined inputs, keys, panic messages). Counting is
/// always exact; only the samples are bounded.
pub const SAMPLE_LIMIT: usize = 8;

/// What the engine had to do to complete a run.
///
/// Returned alongside the results by
/// [`MapReduce::run`](crate::MapReduce::run); a clean run had no task
/// panic ([`FaultReport::is_clean`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Input records quarantined after bisection isolated them as poison.
    pub quarantined_inputs: usize,
    /// Map-slice bisection splits performed while isolating poison
    /// records (each split re-maps both halves of a slice).
    pub map_bisections: usize,
    /// Reduce keys quarantined because their reducer panicked.
    pub quarantined_keys: usize,
    /// Shuffled values dropped together with quarantined reduce keys.
    pub lost_values: usize,
    /// `Debug` renderings of quarantined inputs (bounded sample).
    pub input_samples: Vec<String>,
    /// `Debug` renderings of quarantined reduce keys (bounded sample).
    pub key_samples: Vec<String>,
    /// Panic messages observed (bounded sample, deduplicated). Every
    /// task panic leaves at least one, so an empty list means no task
    /// panicked.
    pub panic_samples: Vec<String>,
}

// A ledger: its totals must stay exact, so no cast may narrow them
// (DESIGN.md §7).
#[deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
impl FaultReport {
    /// Whether no task panicked: nothing was bisected or quarantined,
    /// and no partition fell back to per-key reduces. A one-shot panic
    /// that bisection absorbs without loss still reads as not clean.
    pub fn is_clean(&self) -> bool {
        self.panic_samples.is_empty()
            && self.map_bisections == 0
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

    /// Folds another report into this one (counters summed, sample lists
    /// concatenated under the same bound). Used when a pipeline chains
    /// several fault-tolerant jobs and wants one aggregate.
    pub fn absorb(&mut self, other: &FaultReport) {
        self.quarantined_inputs += other.quarantined_inputs;
        self.map_bisections += other.map_bisections;
        self.quarantined_keys += other.quarantined_keys;
        self.lost_values += other.lost_values;
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
    pub fn note_panic(&mut self, payload: Box<dyn Any + Send>) {
        let msg = panic_message(payload.as_ref());
        if self.panic_samples.len() < SAMPLE_LIMIT && !self.panic_samples.contains(&msg) {
            self.panic_samples.push(msg);
        }
    }

    pub fn quarantine(&mut self, unit: String, lost_values: usize) {
        self.quarantined += 1;
        self.lost_values += lost_values;
        if self.unit_samples.len() < SAMPLE_LIMIT {
            self.unit_samples.push(unit);
        }
    }

    pub fn merge(&mut self, other: PhaseFaults) {
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
/// use baywatch_mapreduce::fault::FaultPlan;
/// use baywatch_mapreduce::{JobConfig, MapReduce};
///
/// let plan = FaultPlan::new()
///     .panic_on_map_call(1)      // one one-shot map fault, absorbed by bisection
///     .poison_key("\"bad\"");    // this key always fails → quarantined
/// // One worker maps both documents as one slice, which the map fault
/// // splits in half: both halves map cleanly the second time.
/// let engine = MapReduce::new(JobConfig { partitions: 4, threads: 1 });
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
/// );
/// assert_eq!(out, vec![("ok".to_owned(), 3)]);
/// assert_eq!(report.quarantined_keys, 1);
/// assert_eq!(report.quarantined_inputs, 0);
/// assert!(report.map_bisections >= 1);
/// ```
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "the plan's sets are only probed by exact call number, input or key, so their iteration order never reaches a report; injected/map_calls are stats-and-uniqueness counters whose single-cell RMWs stay atomic at Relaxed and are read after join"
)]
pub struct FaultPlan {
    map_calls: AtomicUsize,
    map_panic_calls: HashSet<usize>,
    poison_inputs: HashSet<String>,
    poison_keys: HashSet<String>,
    injected: AtomicUsize,
}

impl FaultPlan {
    /// An empty plan (no faults fire until programmed).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic on the `n`-th map checkpoint (0-based, counted atomically
    /// across all workers and re-executions). Because the counter advances
    /// on every call, the fault fires once: the bisected halves of the
    /// failing slice draw later counts and succeed. (A failing slice of a
    /// single record cannot be split, so that record is quarantined.)
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
    /// rendering equals `key` — a permanent poison key, quarantined.
    pub fn poison_key(mut self, key: &str) -> Self {
        self.poison_keys.insert(key.to_owned());
        self
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
    /// says this key must fail.
    pub fn reduce_checkpoint<K: Debug>(&self, key: &K) {
        let repr = format!("{key:?}");
        if self.poison_keys.contains(&repr) {
            self.injected.fetch_add(1, Ordering::Relaxed);
            panic!("injected fault: poison key {repr}");
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn report_absorb_sums_counters() {
        let mut a = FaultReport {
            map_bisections: 1,
            quarantined_inputs: 2,
            input_samples: vec!["x".into()],
            ..Default::default()
        };
        let b = FaultReport {
            map_bisections: 2,
            quarantined_keys: 1,
            lost_values: 3,
            input_samples: vec!["y".into()],
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.map_bisections, 3);
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
    fn any_panic_makes_a_report_unclean() {
        let absorbed_one_shot = FaultReport {
            panic_samples: vec!["injected fault: map call 3".into()],
            ..Default::default()
        };
        assert!(!absorbed_one_shot.is_clean());
        let bisected = FaultReport {
            map_bisections: 1,
            ..Default::default()
        };
        assert!(!bisected.is_clean());
    }

    #[test]
    fn plan_fires_on_programmed_map_call_only() {
        let plan = FaultPlan::new().panic_on_map_call(1);
        plan.map_checkpoint(&"a"); // call 0: fine
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.map_checkpoint(&"b") // call 1: fires
        }));
        assert!(err.is_err());
        plan.map_checkpoint(&"c"); // call 2: fine again (one-shot)
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
        let report_fields: [fn(&mut FaultReport) -> &mut usize; 4] = [
            |r| &mut r.quarantined_inputs,
            |r| &mut r.map_bisections,
            |r| &mut r.quarantined_keys,
            |r| &mut r.lost_values,
        ];
        for (i, field) in report_fields.into_iter().enumerate() {
            let (mut full, mut one) = (FaultReport::default(), FaultReport::default());
            *field(&mut full) = usize::MAX;
            *field(&mut one) = 1;
            assert!(panics(|| full.absorb(&one)), "FaultReport field {i}");
        }

        let phase_fields: [fn(&mut PhaseFaults) -> &mut usize; 3] = [
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
        let mut p = full(|p| &mut p.quarantined);
        assert!(panics(|| p.quarantine("unit".into(), 0)));
        let mut p = full(|p| &mut p.lost_values);
        assert!(panics(|| p.quarantine("unit".into(), 1)));
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
