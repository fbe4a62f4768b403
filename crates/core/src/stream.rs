//! Streaming/incremental detection engine with bounded per-pair state.
//!
//! The batch pipeline ([`crate::pipeline::Baywatch`]) loads one window of
//! records, runs filters 1–7, and reports. BAYWATCH's deployment model
//! (§VIII: ~30 B events over 5 months) instead wants *continuous*
//! admission: events arrive as they happen, state per communication pair
//! stays bounded, and every tick re-evaluates only what changed.
//! [`StreamingHunt`] is that engine:
//!
//! * **State layout** — one `PairState` per communication pair: a
//!   fixed-capacity [`TimestampRing`] of distinct raw timestamps with
//!   multiplicities, the pair's URL tokens tagged with the last tick each
//!   was seen, a cached detection verdict keyed to the ring's mutation
//!   version, and bookkeeping (last-seen tick, byte cost). Every map that
//!   is iterated is a `BTreeMap` or `BTreeSet` — iteration order is part
//!   of the determinism contract.
//! * **Tick semantics** — time advances in fixed ticks
//!   ([`ScheduleSpec`]); events are buffered within the current tick
//!   (intra-tick arrival order is irrelevant: the buffer is folded and
//!   sorted at tick close, so any chunking of the same trace produces
//!   identical state). The sliding window covers the most recent
//!   `window_ticks` ticks with a **closed lower edge**: an event landing
//!   exactly on the window start is in the window, on both the schedule
//!   side and the ring-retention side. A gap in the feed closes its empty
//!   ticks one by one only until one of them is idle (nothing aged,
//!   nothing live, admission at `Accept`); the all-zero repeats after
//!   that are skipped, so one wild timestamp costs O(`window_ticks`).
//! * **Eviction policy** — a global byte budget over resident pair state.
//!   When it overflows, cold pairs are evicted strictly LRU by last-seen
//!   tick, ties broken by pair key ascending — a deterministic total
//!   order with no hash iteration anywhere. Pairs whose window empties
//!   expire the same way. An evicted pair that returns re-enters with a
//!   fresh ring and is counted under `stream.pairs.readmitted`.
//! * **Degradation before shedding** — the byte budget feeds pressure to
//!   an [`AdmissionController`]: `Degrade` coarsens the effective
//!   detection tick (re-detection only every `DEGRADE_DETECT_STRIDE`-th
//!   tick) and widens eviction (down to `DEGRADE_TARGET` of the budget);
//!   `Reject` sheds the tick's buffered events with exact accounting.
//! * **Re-detection on the worker pool** — a tick's stale pairs go through
//!   one job of the batch engine's executor ([`MapReduce::run`]) on
//!   `pipeline.mapreduce.threads` workers: a pair whose detection panics
//!   is quarantined, not fatal, and no verdict depends on the thread count.
//! * **Equivalence with batch** — by construction for filters 1–2 and 4–7
//!   (both engines call the crate's one `funnel`) and for the filter-3
//!   verdict (`jobs::detect_verdict`); still policed by tests for the
//!   funnel's inputs, which each engine produces itself: popularity (live
//!   pair keys here, a pass over the lines in batch) and the window's events
//!   (ring retention here, extraction in batch). The stream answers for
//!   itself: every closed tick leaves its funnel, ranked cases and
//!   detection faults as an [`AnalysisReport`], and
//!   [`StreamingHunt::final_report`] hands out the last one with the
//!   stream's own metrics — nothing is re-analysed. While nothing was shed,
//!   dropped by ring capacity, or evicted with in-window events the state
//!   is *lossless*, and that report, exported through
//!   [`crate::report::export_json`] with the same metrics snapshot as a
//!   batch run over the final window, is **byte-identical** to it
//!   (`tests/stream_*.rs`).
//!
//! Every [`StreamLedger`] movement is exact integer arithmetic (its
//! overflow test fails on a wrap or clamp): offered events equal admitted +
//! late + shed; admitted equal resident + retired + capacity-dropped +
//! evicted; admitted pairs equal live + evicted.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use baywatch_mapreduce::{fnv1a64, FaultReport, MapReduce};
use baywatch_obs::{Buckets, Clock, MetricsRegistry, MetricsSnapshot, MonotonicClock};
use baywatch_timeseries::detector::PeriodicityDetector;
use baywatch_timeseries::TimestampRing;

use crate::activity::ActivitySummary;
use crate::admission::{AdmissionController, AdmissionDecision};
use crate::funnel::{Funnel, Hits};
use crate::jobs::{self, Verdict};
use crate::novelty::NoveltyStore;
use crate::pair::CommunicationPair;
use crate::pipeline::{AnalysisReport, BaywatchConfig, FilterStats};
use crate::record::LogRecord;
use crate::schedule::ScheduleSpec;
use crate::CoreError;

/// Fixed per-pair overhead charged against the state budget (struct,
/// map-node, and LRU-index overhead), in bytes. The cost model is a
/// deliberate platform-independent *model*, not `size_of` truth: the
/// same trace must make the same eviction decisions on every build.
const PAIR_BASE_BYTES: u64 = 192;
/// Budget cost of one ring slot. Charged for the full capacity up front —
/// the bound is what the budget must stand behind, not the fill level.
const RING_ENTRY_BYTES: u64 = 16;
/// Fixed cost of one retained URL token (map node + string header).
const TOKEN_BASE_BYTES: u64 = 56;
/// While degraded or rejecting, evict down to this fraction of the budget
/// instead of stopping exactly at it, so pressure actually recedes.
const DEGRADE_TARGET: f64 = 0.7;
/// While degraded or rejecting, re-detect only on every N-th tick.
const DEGRADE_DETECT_STRIDE: u64 = 4;

/// Configuration of the streaming engine.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Tick width and sliding-window length.
    pub schedule: ScheduleSpec,
    /// Distinct-timestamp capacity of each per-pair ring buffer.
    pub ring_capacity: usize,
    /// Global budget (bytes, under the model constants above) for all
    /// resident pair state. `u64::MAX` disables eviction pressure.
    pub state_budget_bytes: u64,
    /// The batch-pipeline configuration the stream must stay equivalent
    /// to: detector settings, whitelists, token filter, ranking.
    pub pipeline: BaywatchConfig,
}

impl StreamConfig {
    /// A config with the given schedule and unbounded memory (no eviction
    /// pressure): the lossless mode the equivalence battery runs in.
    pub fn lossless(schedule: ScheduleSpec) -> Self {
        Self {
            schedule,
            ring_capacity: 4096,
            state_budget_bytes: u64::MAX,
            pipeline: BaywatchConfig::default(),
        }
    }
}

/// Exact accounting of every event and pair that entered the engine.
///
/// All arithmetic on these fields is plain `+`/`-` on `u64` (the impl
/// denies narrowing casts, and a unit test fails if a movement wraps or
/// saturates), and
/// [`StreamLedger::is_balanced`] states the invariants:
///
/// ```text
/// events_offered  == events_admitted + events_late + events_shed
///                    + events_buffered
/// events_admitted == events_resident + events_retired
///                    + events_dropped_capacity + events_evicted
/// pairs_admitted  == pairs_live + pairs_evicted
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamLedger {
    /// Every event handed to [`StreamingHunt::ingest`].
    pub events_offered: u64,
    /// Events admitted into some pair's ring (before any later loss).
    pub events_admitted: u64,
    /// Events dropped because their timestamp belonged to an already
    /// closed tick.
    pub events_late: u64,
    /// Buffered events shed whole-tick by an admission `Reject`.
    pub events_shed: u64,
    /// Events waiting in the still-open tick's buffer.
    pub events_buffered: u64,
    /// Admitted events later displaced by a ring's capacity bound.
    pub events_dropped_capacity: u64,
    /// Admitted events that slid out of the window (normal aging).
    pub events_retired: u64,
    /// Admitted events lost because their whole pair was evicted.
    pub events_evicted: u64,
    /// Admitted events currently resident in rings.
    pub events_resident: u64,
    /// Pairs ever admitted (readmissions count again).
    pub pairs_admitted: u64,
    /// Pairs currently holding state.
    pub pairs_live: u64,
    /// Pairs removed (budget eviction or window expiry).
    pub pairs_evicted: u64,
    /// Admissions of a pair previously evicted (fresh ring each time).
    pub pairs_readmitted: u64,
}

// A ledger: its totals must stay exact, so no cast may narrow them
// (DESIGN.md §7).
#[deny(clippy::cast_possible_truncation, clippy::cast_precision_loss)]
impl StreamLedger {
    /// An event arrived and entered the open tick's buffer.
    fn offer_buffered(&mut self, n: u64) {
        self.events_offered += n;
        self.events_buffered += n;
    }

    /// An event arrived but its tick had already closed.
    fn offer_late(&mut self, n: u64) {
        self.events_offered += n;
        self.events_late += n;
    }

    /// A closed tick's buffered events were shed by an admission reject.
    fn shed(&mut self, n: u64) {
        self.events_buffered -= n;
        self.events_shed += n;
    }

    /// A closed tick's buffered events entered rings.
    fn admit(&mut self, n: u64) {
        self.events_buffered -= n;
        self.events_admitted += n;
        self.events_resident += n;
    }

    /// Admitted events displaced by a ring's capacity bound.
    fn drop_capacity(&mut self, n: u64) {
        self.events_resident -= n;
        self.events_dropped_capacity += n;
    }

    fn retire(&mut self, n: u64) {
        self.events_resident -= n;
        self.events_retired += n;
    }

    fn evict_events(&mut self, n: u64) {
        self.events_resident -= n;
        self.events_evicted += n;
    }

    fn admit_pair(&mut self, readmitted: bool) {
        self.pairs_admitted += 1;
        self.pairs_live += 1;
        if readmitted {
            self.pairs_readmitted += 1;
        }
    }

    fn evict_pair(&mut self) {
        self.pairs_live -= 1;
        self.pairs_evicted += 1;
    }

    /// Whether every invariant holds exactly.
    pub fn is_balanced(&self) -> bool {
        self.events_offered
            == self.events_admitted + self.events_late + self.events_shed + self.events_buffered
            && self.events_admitted
                == self.events_resident
                    + self.events_retired
                    + self.events_dropped_capacity
                    + self.events_evicted
            && self.pairs_admitted == self.pairs_live + self.pairs_evicted
    }

    /// Whether no event or pair was ever lost: nothing late, shed,
    /// capacity-dropped, or evicted with events still in its ring. In
    /// this state the resident window is provably identical to what a
    /// batch run over the same window would extract.
    pub fn is_lossless(&self) -> bool {
        self.events_late == 0
            && self.events_shed == 0
            && self.events_dropped_capacity == 0
            && self.events_evicted == 0
    }
}

/// Bounded per-pair streaming state.
#[derive(Debug)]
struct PairState {
    ring: TimestampRing,
    /// URL token → last tick it was observed in. A token is in-window
    /// while its last tick is ≥ the window's first tick.
    tokens: BTreeMap<String, u64>,
    /// Bumped on every ring mutation; verdicts cache against it.
    version: u64,
    /// Filter 3's verdict and the ring version it was reached at.
    verdict: Option<(u64, Verdict)>,
    last_seen_tick: u64,
    /// Whether the destination is on the global whitelist (filter 1),
    /// computed once at admission.
    whitelisted: bool,
    cost_bytes: u64,
}

impl PairState {
    fn new(pair: &CommunicationPair, capacity: usize, whitelisted: bool, tick: u64) -> Self {
        let ring = TimestampRing::new(capacity);
        let cost_bytes = PAIR_BASE_BYTES
            + pair.source.len() as u64
            + pair.destination.len() as u64
            + ring.capacity() as u64 * RING_ENTRY_BYTES;
        Self {
            ring,
            tokens: BTreeMap::new(),
            version: 0,
            verdict: None,
            last_seen_tick: tick,
            whitelisted,
            cost_bytes,
        }
    }

    /// The pair's window as batch extraction would summarize it: ring
    /// timestamps on the detector's time scale plus the in-window tokens.
    fn summary(&self, pair: &CommunicationPair, scale: u64, first_tick: u64) -> ActivitySummary {
        let timestamps = quantized(&self.ring, scale);
        ActivitySummary {
            pair: pair.clone(),
            scale,
            first_timestamp: timestamps.first().copied().unwrap_or(0),
            intervals: timestamps.windows(2).map(|w| w[1] - w[0]).collect(),
            url_tokens: self.window_tokens(first_tick),
        }
    }

    /// The pair's URL tokens still inside the window that starts at
    /// `first_window_tick`.
    fn window_tokens(&self, first_window_tick: u64) -> BTreeSet<String> {
        self.tokens
            .iter()
            .filter(|(_, &last)| last >= first_window_tick)
            .map(|(t, _)| t.clone())
            .collect()
    }
}

/// The outcome of closing one tick.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// The tick that closed.
    pub tick: u64,
    /// Inclusive lower edge of the window at this tick.
    pub window_start: u64,
    /// Full funnel levels over the current window state.
    pub stats: FilterStats,
    /// Pairs removed this tick, in removal order: window expiries first
    /// (pair-key ascending), then budget evictions (LRU order).
    pub evicted: Vec<CommunicationPair>,
    /// The admission controller's decision for this tick.
    pub decision: AdmissionDecision,
    /// Detection runs actually executed this tick.
    pub detect_runs: u64,
    /// Detection verdicts served from the version cache this tick.
    pub detect_cached: u64,
    /// Resident state bytes (model cost) after this tick.
    pub resident_bytes: u64,
    /// Live pairs after this tick.
    pub live_pairs: u64,
}

/// The streaming engine. See the module docs for the full contract.
#[derive(Debug)]
pub struct StreamingHunt {
    config: StreamConfig,
    metrics: Arc<MetricsRegistry>,
    /// Runs each tick's re-detection on `config.pipeline.mapreduce`'s
    /// workers. No registry is attached: the stream's metrics stay
    /// `stream.*`.
    engine: MapReduce,
    /// Times the detection job (`stream.detect.nanos`, operational).
    clock: MonotonicClock,
    detector: PeriodicityDetector,
    funnel: Funnel,
    admission: AdmissionController,
    pairs: BTreeMap<CommunicationPair, PairState>,
    /// LRU index: (last-seen tick, pair) ascending — pop-first is the
    /// coldest pair, ties broken by pair key.
    lru: BTreeSet<(u64, CommunicationPair)>,
    /// FNV-1a fingerprints of every pair ever removed, for readmission
    /// accounting without retaining the evicted keys themselves.
    evicted_fingerprints: BTreeSet<u64>,
    /// Novelty memory, read-only per tick: written only by
    /// [`StreamingHunt::commit_reported`], so by default it matches a
    /// fresh batch engine (everything novel).
    novelty: NoveltyStore,
    current_tick: Option<u64>,
    tick_buffer: Vec<LogRecord>,
    /// The last closed tick's report: funnel, ranked cases, detection
    /// faults. [`StreamingHunt::final_report`] hands it out.
    report: AnalysisReport,
    ledger: StreamLedger,
    resident_bytes: u64,
    /// Pre-eviction peak of the previous tick: eviction always pulls
    /// `resident_bytes` back under budget, so admission must react to
    /// how hard the budget was hit, not to the post-eviction residue.
    peak_resident_bytes: u64,
    ticks_closed: u64,
}

impl StreamingHunt {
    /// Builds a streaming engine.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `ring_capacity`,
    /// `pipeline.detector.time_scale` or either count of
    /// `pipeline.mapreduce` is zero.
    pub fn new(config: StreamConfig) -> Result<Self, CoreError> {
        for (name, zero) in [
            ("ring_capacity", config.ring_capacity == 0),
            (
                "pipeline.detector.time_scale",
                config.pipeline.detector.time_scale == 0,
            ),
            (
                "pipeline.mapreduce.partitions",
                config.pipeline.mapreduce.partitions == 0,
            ),
            (
                "pipeline.mapreduce.threads",
                config.pipeline.mapreduce.threads == 0,
            ),
        ] {
            if zero {
                return Err(CoreError::InvalidConfig {
                    name,
                    constraint: "must be at least 1",
                });
            }
        }
        Ok(Self {
            metrics: Arc::new(MetricsRegistry::new()),
            engine: MapReduce::new(config.pipeline.mapreduce),
            clock: MonotonicClock::new(),
            detector: PeriodicityDetector::new(config.pipeline.detector.clone()),
            funnel: Funnel::new(&config.pipeline),
            admission: AdmissionController::new(),
            config,
            pairs: BTreeMap::new(),
            lru: BTreeSet::new(),
            evicted_fingerprints: BTreeSet::new(),
            novelty: NoveltyStore::new(),
            current_tick: None,
            tick_buffer: Vec::new(),
            report: AnalysisReport::default(),
            ledger: StreamLedger::default(),
            resident_bytes: 0,
            peak_resident_bytes: 0,
            ticks_closed: 0,
        })
    }

    /// The exact event/pair ledger.
    pub fn ledger(&self) -> &StreamLedger {
        &self.ledger
    }

    /// Resident state bytes under the deterministic cost model.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// Live pairs currently holding state.
    pub fn live_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The tick currently accepting events, if any event arrived yet.
    pub fn current_tick(&self) -> Option<u64> {
        self.current_tick
    }

    /// The engine's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Point-in-time snapshot of the stream's own metrics registry
    /// (`stream.*` counters and gauges, detector instruments).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Records pairs as already reported: they stop being novel for all
    /// subsequent per-tick funnels (the streaming analogue of the batch
    /// novelty store's day-over-day memory).
    pub fn commit_reported(&mut self, pairs: impl IntoIterator<Item = CommunicationPair>) {
        for pair in pairs {
            self.novelty.observe(&pair);
        }
    }

    /// Ingests a chunk of events, in any order within a tick. Records
    /// whose tick already closed are dropped as late; records in a future
    /// tick close every tick up to it. Returns the reports of all ticks
    /// closed by this chunk. Chunk boundaries carry no meaning: any
    /// split of the same trace yields identical state and reports.
    pub fn ingest(&mut self, records: &[LogRecord]) -> Vec<TickReport> {
        let mut reports = Vec::new();
        if !records.is_empty() {
            self.metrics
                .counter("stream.events.offered")
                .add(records.len() as u64);
        }
        for record in records {
            let tick = self.config.schedule.tick_of(record.timestamp);
            match self.current_tick {
                None => {
                    self.ledger.offer_buffered(1);
                    self.current_tick = Some(tick);
                    self.tick_buffer.push(record.clone());
                }
                Some(current) if tick == current => {
                    self.ledger.offer_buffered(1);
                    self.tick_buffer.push(record.clone());
                }
                Some(current) if tick < current => {
                    self.ledger.offer_late(1);
                    // Gated: a clean in-order run never registers it.
                    self.metrics.counter("stream.events.late").inc();
                }
                Some(current) => {
                    reports.push(self.close_tick(current, false));
                    // Ticks with no events still advance the window — until
                    // one finds nothing to age and leaves nothing live under
                    // `Accept`: every later empty tick would repeat it, so
                    // the rest of the gap is skipped however long it is.
                    for empty in current + 1..tick {
                        let closed = self.close_tick(empty, false);
                        let idle = closed.live_pairs == 0 && closed.evicted.is_empty();
                        reports.push(closed);
                        if idle && !self.admission.is_elevated() {
                            break;
                        }
                    }
                    self.ledger.offer_buffered(1);
                    self.current_tick = Some(tick);
                    self.tick_buffer.push(record.clone());
                }
            }
        }
        reports
    }

    /// Closes the tick currently accepting events (forcing fresh
    /// detection even under degradation, so the final funnel is exact)
    /// and returns its report. `None` if no event was ever ingested.
    pub fn finish(&mut self) -> Option<TickReport> {
        let current = self.current_tick?;
        let report = self.close_tick(current, true);
        self.current_tick = Some(current);
        Some(report)
    }

    /// The last closed tick's report — its funnel, ranked cases and
    /// detection faults, as [`StreamingHunt::finish`] left them for the
    /// final window — together with the stream's own metrics snapshot.
    /// Novelty honours [`StreamingHunt::commit_reported`], as every tick
    /// does. In lossless mode the report's [`crate::report::export_json`]
    /// is byte-identical to the batch pipeline's on the same window under
    /// the same snapshot.
    pub fn final_report(&self) -> (AnalysisReport, MetricsSnapshot) {
        (self.report.clone(), self.metrics_snapshot())
    }

    /// [`final_report`](StreamingHunt::final_report) exported through
    /// [`crate::report::export_json`] with the given `top_k`.
    pub fn final_export(&self, top_k: usize) -> String {
        crate::report::export_json(&self.report, &self.metrics_snapshot(), top_k)
    }

    fn pressure(&self) -> f64 {
        if self.config.state_budget_bytes == u64::MAX {
            return 0.0;
        }
        if self.config.state_budget_bytes == 0 {
            return 1.0;
        }
        let bytes = self.resident_bytes.max(self.peak_resident_bytes);
        bytes as f64 / self.config.state_budget_bytes as f64
    }

    /// Drops `pair`'s state, moving it and any events still in its ring
    /// through the ledger; returns the tick its LRU entry is filed under.
    fn forget_pair(&mut self, pair: &CommunicationPair) -> Option<u64> {
        let state = self.pairs.remove(pair)?;
        self.resident_bytes -= state.cost_bytes;
        let resident = state.ring.events();
        if resident > 0 {
            self.ledger.evict_events(resident);
        }
        self.ledger.evict_pair();
        self.evicted_fingerprints.insert(fingerprint(pair));
        Some(state.last_seen_tick)
    }

    /// Folds the tick buffer into per-pair sorted (timestamp,
    /// multiplicity) batches plus token observations, then admits them.
    fn admit_buffer(&mut self, tick: u64, buffer: Vec<LogRecord>) {
        struct Fold {
            stamps: BTreeMap<u64, u64>,
            tokens: BTreeSet<String>,
        }
        let mut folded: BTreeMap<CommunicationPair, Fold> = BTreeMap::new();
        for record in buffer {
            let pair = CommunicationPair::new(record.source, record.domain);
            let fold = folded.entry(pair).or_insert_with(|| Fold {
                stamps: BTreeMap::new(),
                tokens: BTreeSet::new(),
            });
            *fold.stamps.entry(record.timestamp).or_insert(0) += 1;
            if !record.url_token.is_empty() {
                fold.tokens.insert(record.url_token);
            }
        }
        let (mut pairs_admitted, mut events_admitted) = (0u64, 0u64);
        for (pair, fold) in folded {
            let mut overflow = 0u64;
            let batch: Vec<(u64, u32)> = fold
                .stamps
                .into_iter()
                .map(|(ts, n)| {
                    // A single timestamp observed more than u32::MAX times
                    // in one tick cannot be represented in a ring entry;
                    // the excess is accounted as capacity loss.
                    let kept = n.min(u64::from(u32::MAX));
                    overflow += n - kept;
                    (ts, kept as u32)
                })
                .collect();
            // One map walk and one key clone (the LRU's) per pair.
            let state = match self.pairs.entry(pair) {
                Entry::Vacant(slot) => {
                    let pair = slot.key();
                    let readmitted = self.evicted_fingerprints.contains(&fingerprint(pair));
                    let whitelisted = self.funnel.globally_whitelisted(&pair.destination);
                    let state = PairState::new(pair, self.config.ring_capacity, whitelisted, tick);
                    self.resident_bytes += state.cost_bytes;
                    self.lru.insert((tick, pair.clone()));
                    self.ledger.admit_pair(readmitted);
                    pairs_admitted += 1;
                    if readmitted {
                        self.metrics.counter("stream.pairs.readmitted").inc();
                    }
                    slot.insert(state)
                }
                Entry::Occupied(slot) => {
                    let last_seen = slot.get().last_seen_tick;
                    if last_seen != tick {
                        let stale = (last_seen, slot.key().clone());
                        self.lru.remove(&stale);
                        self.lru.insert((tick, stale.1));
                    }
                    slot.into_mut()
                }
            };
            state.last_seen_tick = tick;
            let total: u64 = batch.iter().map(|&(_, n)| u64::from(n)).sum::<u64>() + overflow;
            let before = state.ring.events();
            state.ring.append_batch(&batch);
            // Whatever was offered or previously resident but is not
            // resident now was lost to the capacity bound (including
            // the u32 overflow, which never reached the ring).
            let lost = before + total - state.ring.events();
            self.ledger.admit(total);
            if lost > 0 {
                self.ledger.drop_capacity(lost);
                // Gated: only a capacity overflow registers it.
                self.metrics
                    .counter("stream.events.dropped_capacity")
                    .add(lost);
            }
            events_admitted += total;
            state.version += 1;
            let token_cost: u64 = fold
                .tokens
                .iter()
                .filter(|t| !state.tokens.contains_key(*t))
                .map(|t| TOKEN_BASE_BYTES + t.len() as u64)
                .sum();
            for token in fold.tokens {
                state.tokens.insert(token, tick);
            }
            state.cost_bytes += token_cost;
            self.resident_bytes += token_cost;
        }
        // Per tick, not per pair; never registered at zero.
        if pairs_admitted > 0 {
            self.metrics
                .counter("stream.pairs.admitted")
                .add(pairs_admitted);
        }
        if events_admitted > 0 {
            self.metrics
                .counter("stream.events.admitted")
                .add(events_admitted);
        }
    }

    /// Ages every pair to the window of `tick`: ring retention at the
    /// (inclusive) window start, token retirement, and expiry of pairs
    /// whose window emptied. Returns expired pairs in key order.
    fn advance_window(&mut self, tick: u64) -> Vec<CommunicationPair> {
        let cutoff = self.config.schedule.window_start(tick);
        let first_window_tick = self.config.schedule.first_window_tick(tick);
        let mut expired = Vec::new();
        let mut retired_total = 0u64;
        let mut cost_freed = 0u64;
        for (pair, state) in &mut self.pairs {
            let dropped = state.ring.retain_from(cutoff);
            if dropped > 0 {
                retired_total += dropped;
                state.version += 1;
            }
            // Retire tokens whose last observation aged out of the window.
            let stale: Vec<String> = state
                .tokens
                .iter()
                .filter(|(_, &last)| last < first_window_tick)
                .map(|(t, _)| t.clone())
                .collect();
            for token in stale {
                let freed = TOKEN_BASE_BYTES + token.len() as u64;
                state.tokens.remove(&token);
                state.cost_bytes -= freed;
                cost_freed += freed;
                state.version += 1;
            }
            if state.ring.is_empty() {
                expired.push(pair.clone());
            }
        }
        if retired_total > 0 {
            self.ledger.retire(retired_total);
            self.metrics
                .counter("stream.events.retired")
                .add(retired_total);
        }
        self.resident_bytes -= cost_freed;
        for pair in &expired {
            // An expired pair's ring is already empty, so this moves no
            // events — only the pair itself — through the ledger.
            if let Some(last_seen) = self.forget_pair(pair) {
                self.lru.remove(&(last_seen, pair.clone()));
            }
        }
        expired
    }

    /// Evicts coldest-first until resident state fits `target_bytes`.
    /// Returns the evicted pairs in eviction order.
    fn evict_to(&mut self, target_bytes: u64) -> Vec<CommunicationPair> {
        let mut evicted = Vec::new();
        while self.resident_bytes > target_bytes {
            let Some((_, pair)) = self.lru.pop_first() else {
                break;
            };
            self.forget_pair(&pair);
            evicted.push(pair);
        }
        evicted
    }

    fn funnel_gauges(&self, stats: &FilterStats) {
        for (name, value) in [
            ("events", stats.events),
            ("pairs", stats.pairs),
            ("after_global_whitelist", stats.after_global_whitelist),
            ("after_local_whitelist", stats.after_local_whitelist),
            ("periodic", stats.periodic),
            ("after_token_filter", stats.after_token_filter),
            ("after_novelty", stats.after_novelty),
            ("reported", stats.reported),
        ] {
            self.metrics
                .gauge(&format!("stream.funnel.{name}"))
                .set(value as i64);
        }
    }

    /// Closes `tick`: admission decision, buffer fold-in, window
    /// advance, budget eviction, incremental re-detection, and the full
    /// funnel over the resulting state.
    fn close_tick(&mut self, tick: u64, force_detect: bool) -> TickReport {
        let buffer = std::mem::take(&mut self.tick_buffer);
        let decision = self.admission.decide(self.pressure());
        match decision {
            AdmissionDecision::Reject => {
                let shed = buffer.len() as u64;
                if shed > 0 {
                    self.ledger.shed(shed);
                    // Gated: only an actual rejection registers these.
                    self.metrics.counter("stream.events.shed").add(shed);
                }
                self.metrics.counter("stream.ticks.rejected").inc();
            }
            AdmissionDecision::Degrade => {
                self.metrics.counter("stream.ticks.degraded").inc();
                self.admit_buffer(tick, buffer);
            }
            AdmissionDecision::Accept => {
                self.admit_buffer(tick, buffer);
            }
        }

        let mut removed = self.advance_window(tick);
        self.peak_resident_bytes = self.resident_bytes;
        let eviction_target = match decision {
            AdmissionDecision::Accept => self.config.state_budget_bytes,
            AdmissionDecision::Degrade | AdmissionDecision::Reject => {
                (self.config.state_budget_bytes as f64 * DEGRADE_TARGET) as u64
            }
        };
        removed.extend(self.evict_to(eviction_target));
        if !removed.is_empty() {
            self.metrics
                .counter("stream.pairs.evicted")
                .add(removed.len() as u64);
        }

        // Detection coarsening: while elevated, re-detect only every
        // N-th tick (stale verdicts stand in between); a forced close
        // (finish) always refreshes so the final funnel is exact.
        let detect_this_tick = force_detect
            || !self.admission.is_elevated()
            || self.ticks_closed.is_multiple_of(DEGRADE_DETECT_STRIDE);

        let (report, detect_runs, detect_cached) = self.window_stats(tick, detect_this_tick);
        let stats = report.stats;
        self.report = report;
        self.ticks_closed += 1;
        self.metrics.counter("stream.ticks").inc();
        self.metrics.counter("stream.detect.runs").add(detect_runs);
        self.metrics
            .counter("stream.detect.cached")
            .add(detect_cached);
        self.metrics
            .gauge("stream.pairs.live")
            .set(self.pairs.len() as i64);
        self.metrics
            .gauge("stream.state.resident_bytes")
            .set(self.resident_bytes.min(i64::MAX as u64) as i64);
        self.funnel_gauges(&stats);

        TickReport {
            tick,
            window_start: self.config.schedule.window_start(tick),
            stats,
            evicted: removed,
            decision,
            detect_runs,
            detect_cached,
            resident_bytes: self.resident_bytes,
            live_pairs: self.pairs.len() as u64,
        }
    }

    /// Computes the full funnel over current window state, re-running
    /// detection only where the cached verdict's ring version is stale
    /// (and only if `detect` allows). Returns the tick's report, its
    /// detection runs and its cache hits.
    ///
    /// Four steps: filters 1–2 and the staleness check; one MapReduce job
    /// over the stale pairs, whose reducer is the batch jobs' verdict
    /// mapping; filters 4–7 over the periodic pairs; the write-back of the
    /// fresh verdicts. A pair the job quarantines keeps its previous
    /// verdict and counts in `quarantined_pairs`; the job's fault report
    /// is the tick report's. The job is timed into
    /// the operational `stream.detect.nanos` on ticks that run it.
    fn window_stats(&mut self, tick: u64, detect: bool) -> (AnalysisReport, u64, u64) {
        let first_window_tick = self.config.schedule.first_window_tick(tick);
        let scale = self.config.pipeline.detector.time_scale;

        // Popularity over live pairs: distinct sources per destination over
        // total distinct sources. Keys are unique and ordered source-first:
        // distinct sources are runs of equal `source`, a destination's
        // sources are the pairs naming it.
        let mut total_sources = 0usize;
        let mut last_source = None;
        let mut per_domain: BTreeMap<&str, usize> = BTreeMap::new();
        for pair in self.pairs.keys() {
            if last_source != Some(pair.source.as_str()) {
                last_source = Some(pair.source.as_str());
                total_sources += 1;
            }
            *per_domain.entry(pair.destination.as_str()).or_insert(0) += 1;
        }
        let popularity = |destination: &str| {
            per_domain.get(destination).copied().unwrap_or(0) as f64 / total_sources as f64
        };

        // 1. Filters 1–2, and the staleness check: a survivor's cached
        //    verdict is fresh while its ring version has not moved.
        let funnel = &self.funnel;
        let mut stats = FilterStats::default();
        let (mut events, mut cached) = (0u64, 0u64);
        let mut survivors: Vec<(&CommunicationPair, &PairState)> = Vec::new();
        let mut stale: Vec<(&CommunicationPair, &TimestampRing)> = Vec::new();
        for (pair, state) in &self.pairs {
            events += state.ring.events();
            if state.whitelisted {
                continue;
            }
            stats.after_global_whitelist += 1;
            if funnel.locally_whitelisted(popularity(&pair.destination)) {
                continue;
            }
            stats.after_local_whitelist += 1;
            survivors.push((pair, state));
            let fresh = matches!(&state.verdict, Some((v, _)) if *v == state.version);
            cached += u64::from(fresh);
            if !fresh && detect {
                stale.push((pair, &state.ring));
            }
        }
        stats.events = events as usize;
        stats.pairs = self.pairs.len();

        // 2. Filter 3 over the stale pairs: one job on the engine's
        //    workers, each pair through the batch jobs' own verdict
        //    mapping on the timestamps extraction would produce.
        let runs = stale.len() as u64;
        let mut refreshed: BTreeMap<CommunicationPair, Verdict> = BTreeMap::new();
        let mut faults = FaultReport::default();
        if !stale.is_empty() {
            let detector = &self.detector;
            let started = self.clock.now_nanos();
            let (verdicts, job_faults) = self.engine.run(
                &stale,
                |&(pair, ring), emit| emit(pair, ring),
                |pair: &&CommunicationPair, rings: &[&TimestampRing]| {
                    rings
                        .iter()
                        .map(|ring| {
                            let timestamps = quantized(ring, scale);
                            let verdict = jobs::detect_verdict(detector, &timestamps);
                            ((*pair).clone(), verdict)
                        })
                        .collect()
                },
            );
            #[expect(
                clippy::expect_used,
                reason = "bucket bounds are compile-time literal constants; failure is a programming error, not an input condition"
            )]
            let nanos = Buckets::exponential(1_000, 4, 12).expect("static bucket layout is valid");
            self.metrics
                .timing("stream.detect.nanos", &nanos)
                .observe(self.clock.now_nanos().saturating_sub(started));
            stats.quarantined_pairs = job_faults.quarantined_units();
            faults = job_faults;
            refreshed.extend(verdicts);
        }

        // 3. Filters 4–7 over the periodic survivors (a tick only reads the
        //    novelty memory). Only a periodic pair's window is materialised
        //    as a summary.
        let mut hits: Hits = Vec::new();
        for (pair, state) in survivors {
            let verdict = refreshed
                .get(pair)
                .or(state.verdict.as_ref().map(|(_, verdict)| verdict));
            match verdict {
                Some(Verdict::Periodic(candidates)) => hits.push((
                    state.summary(pair, scale, first_window_tick),
                    candidates.clone(),
                )),
                Some(Verdict::Quiet) | None => {}
            }
        }
        stats.periodic = hits.len();
        let novelty = &self.novelty;
        let (after_token_filter, after_novelty, ranked, report_cutoff) =
            funnel.rank(hits, popularity, |pair| !novelty.is_reported(pair), None);
        stats.after_token_filter = after_token_filter;
        stats.after_novelty = after_novelty;
        stats.reported = report_cutoff;

        // 4. Write-back: each fresh verdict is cached at the ring version
        //    it was reached at.
        for (pair, verdict) in refreshed {
            if let Some(state) = self.pairs.get_mut(&pair) {
                state.verdict = Some((state.version, verdict));
            }
        }
        let report = AnalysisReport {
            stats,
            ranked,
            report_cutoff,
            popularity_total_sources: total_sources,
            faults,
            ..AnalysisReport::default()
        };
        (report, runs, cached)
    }
}

/// A ring's distinct timestamps on the detector's time scale, ascending.
fn quantized(ring: &TimestampRing, scale: u64) -> Vec<u64> {
    ring.entries()
        .map(|e| e.timestamp / scale * scale)
        .collect()
}

/// FNV-1a 64-bit fingerprint of a pair key (source NUL destination).
fn fingerprint(pair: &CommunicationPair) -> u64 {
    fnv1a64(
        pair.source
            .as_bytes()
            .iter()
            .chain(&[0])
            .chain(pair.destination.as_bytes()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(tick_seconds: u64, window_ticks: u64) -> StreamConfig {
        let schedule = ScheduleSpec::new(tick_seconds, window_ticks).unwrap();
        let mut config = StreamConfig::lossless(schedule);
        // Toy populations: a single-source pair has popularity 1.0, so
        // only the strict `> 1.0` comparison keeps it out of the local
        // whitelist. Skip the built-in global whitelist (synthetic
        // domains).
        config.pipeline.local_tau = 1.0;
        config.pipeline.use_builtin_whitelist = false;
        config
    }

    fn record(ts: u64, source: &str, domain: &str) -> LogRecord {
        LogRecord::new(ts, source, domain, "a1b2c3")
    }

    /// Every ledger movement fails loudly. Each of the nine mutators is
    /// first run on an all-ones ledger to see which fields it raises and
    /// which it lowers; it must then panic when one of those starts at
    /// `u64::MAX` or at zero, so no `+=`/`-=` can become a `wrapping_*` or
    /// `saturating_*` that fakes balance.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not check overflow")]
    fn ledger_mutators_panic_on_overflow_or_underflow() {
        let fields: [fn(&mut StreamLedger) -> &mut u64; 13] = [
            |l| &mut l.events_offered,
            |l| &mut l.events_admitted,
            |l| &mut l.events_late,
            |l| &mut l.events_shed,
            |l| &mut l.events_buffered,
            |l| &mut l.events_dropped_capacity,
            |l| &mut l.events_retired,
            |l| &mut l.events_evicted,
            |l| &mut l.events_resident,
            |l| &mut l.pairs_admitted,
            |l| &mut l.pairs_live,
            |l| &mut l.pairs_evicted,
            |l| &mut l.pairs_readmitted,
        ];
        type Mutator = fn(&mut StreamLedger);
        let mutators: [(&str, Mutator); 10] = [
            ("offer_buffered", |l| l.offer_buffered(1)),
            ("offer_late", |l| l.offer_late(1)),
            ("shed", |l| l.shed(1)),
            ("admit", |l| l.admit(1)),
            ("drop_capacity", |l| l.drop_capacity(1)),
            ("retire", |l| l.retire(1)),
            ("evict_events", |l| l.evict_events(1)),
            ("admit_pair", |l| l.admit_pair(false)),
            ("admit_pair(readmitted)", |l| l.admit_pair(true)),
            ("evict_pair", |l| l.evict_pair()),
        ];
        let ones = || {
            let mut l = StreamLedger::default();
            for field in fields {
                *field(&mut l) = 1;
            }
            l
        };
        for (name, mutate) in mutators {
            let mut moved = ones();
            mutate(&mut moved);
            let mut touched = 0;
            for (i, field) in fields.into_iter().enumerate() {
                let after = *field(&mut moved);
                if after == 1 {
                    continue;
                }
                touched += 1;
                let mut edge = ones();
                *field(&mut edge) = if after > 1 { u64::MAX } else { 0 };
                let result = std::panic::catch_unwind(move || mutate(&mut edge));
                assert!(result.is_err(), "{name} moved field {i} past its bound");
            }
            assert!(touched >= 2, "{name} moved only {touched} field(s)");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = config(60, 4);
        c.ring_capacity = 0;
        assert!(StreamingHunt::new(c).is_err());
    }

    #[test]
    fn zero_time_scale_is_rejected_not_divided_by() {
        let mut c = config(60, 4);
        c.pipeline.detector.time_scale = 0;
        assert!(matches!(
            StreamingHunt::new(c),
            Err(CoreError::InvalidConfig {
                name: "pipeline.detector.time_scale",
                ..
            })
        ));
    }

    #[test]
    fn window_boundary_one_tick() {
        // window_ticks = 1: closing tick k+1 must retire every tick-k
        // event, but an event exactly on the new window edge stays.
        let mut hunt = StreamingHunt::new(config(60, 1)).unwrap();
        let records = vec![
            record(10, "h", "a.test"),
            record(59, "h", "a.test"),
            record(60, "h", "a.test"), // first ts of tick 1 == window edge
            record(61, "h", "a.test"),
        ];
        let reports = hunt.ingest(&records);
        assert_eq!(reports.len(), 1, "tick 0 closed when tick 1 opened");
        assert_eq!(reports[0].stats.events, 2);
        let last = hunt.finish().unwrap();
        assert_eq!(last.tick, 1);
        assert_eq!(last.window_start, 60);
        assert_eq!(
            last.stats.events, 2,
            "tick-0 events retired; the edge event at ts=60 retained"
        );
        assert_eq!(hunt.ledger().events_retired, 2);
        assert!(hunt.ledger().is_balanced());
    }

    #[test]
    fn window_boundary_exact_capacity_is_lossless() {
        let mut c = config(1_000, 4);
        c.ring_capacity = 5;
        let mut hunt = StreamingHunt::new(c).unwrap();
        let records: Vec<LogRecord> = (0..5).map(|i| record(i * 10, "h", "a.test")).collect();
        hunt.ingest(&records);
        let last = hunt.finish().unwrap();
        assert_eq!(last.stats.events, 5);
        assert_eq!(hunt.ledger().events_dropped_capacity, 0);
        assert!(hunt.ledger().is_lossless());
    }

    #[test]
    fn window_boundary_capacity_plus_one_drops_exactly_one() {
        let mut c = config(1_000, 4);
        c.ring_capacity = 5;
        let mut hunt = StreamingHunt::new(c).unwrap();
        let records: Vec<LogRecord> = (0..6).map(|i| record(i * 10, "h", "a.test")).collect();
        hunt.ingest(&records);
        let last = hunt.finish().unwrap();
        assert_eq!(last.stats.events, 5);
        assert_eq!(hunt.ledger().events_dropped_capacity, 1);
        assert!(!hunt.ledger().is_lossless());
        assert!(hunt.ledger().is_balanced());
        // The oldest timestamp is the one displaced.
        let state = hunt.pairs.values().next().unwrap();
        assert_eq!(state.ring.first_timestamp(), Some(10));
    }

    #[test]
    fn late_events_are_counted_not_admitted() {
        let mut hunt = StreamingHunt::new(config(60, 4)).unwrap();
        hunt.ingest(&[record(10, "h", "a.test"), record(130, "h", "a.test")]);
        // Tick 0 closed when ts=130 (tick 2) arrived; ts=30 is now late.
        hunt.ingest(&[record(30, "h", "a.test")]);
        assert_eq!(hunt.ledger().events_late, 1);
        // ts=130 still sits in the open tick-2 buffer.
        assert_eq!(hunt.ledger().events_admitted, 1);
        assert_eq!(hunt.ledger().events_buffered, 1);
        assert!(hunt.ledger().is_balanced());
        hunt.finish();
        assert_eq!(hunt.ledger().events_admitted, 2);
        assert_eq!(hunt.ledger().events_buffered, 0);
        assert!(hunt.ledger().is_balanced());
    }

    #[test]
    fn far_future_record_closes_a_bounded_number_of_ticks() {
        // `--stream-stdin` parses timestamps from untrusted lines; one wild
        // value used to close every tick of the gap, one report each.
        let gap_ticks = 1_000_000_000_000_000u64;
        let mut hunt = StreamingHunt::new(config(60, 4)).unwrap();
        let reports = hunt.ingest(&[
            record(60, "h", "a.test"),
            record(60 + gap_ticks * 60, "h", "a.test"),
        ]);
        // Tick 1, the empty ticks 2–5 that age its event out of the
        // four-tick window, and the first idle tick.
        let ticks: Vec<u64> = reports.iter().map(|r| r.tick).collect();
        assert_eq!(ticks, [1, 2, 3, 4, 5, 6]);
        assert_eq!(reports[4].evicted.len(), 1);
        assert_eq!(reports[4].stats.events, 0);
        assert_eq!(reports[5].stats, FilterStats::default());
        assert_eq!(hunt.current_tick(), Some(1 + gap_ticks));
        assert!(hunt.ledger().is_balanced());
        let last = hunt.finish().unwrap();
        assert_eq!(last.tick, 1 + gap_ticks);
        assert_eq!((last.stats.events, last.stats.pairs), (1, 1));
        assert_eq!(hunt.ledger().events_retired, 1);
        assert!(hunt.ledger().is_balanced() && hunt.ledger().is_lossless());
    }

    #[test]
    fn gaps_up_to_the_first_idle_tick_close_every_tick() {
        // window_ticks + 2 is the longest gap that skips nothing: its last
        // empty tick is the first idle one. One tick more and only that
        // all-zero repeat is missing.
        for (gap, closed) in [(2u64, 2u64), (5, 5), (6, 6), (7, 6)] {
            let mut hunt = StreamingHunt::new(config(60, 4)).unwrap();
            let reports = hunt.ingest(&[
                record(60, "h", "a.test"),
                record(60 + gap * 60, "h", "a.test"),
            ]);
            let ticks: Vec<u64> = reports.iter().map(|r| r.tick).collect();
            assert_eq!(ticks, (1..=closed).collect::<Vec<_>>(), "gap {gap}");
            assert_eq!(
                hunt.metrics_snapshot().counters["stream.ticks"],
                closed,
                "gap {gap}"
            );
            assert_eq!(hunt.current_tick(), Some(1 + gap));
            assert!(hunt.ledger().is_balanced());
        }
    }

    #[test]
    fn timestamp_at_the_end_of_time_is_admitted() {
        let schedule = ScheduleSpec::new(1, 4).unwrap();
        let mut hunt = StreamingHunt::new(StreamConfig::lossless(schedule)).unwrap();
        hunt.ingest(&[record(5, "h", "a.test"), record(u64::MAX, "h", "a.test")]);
        let last = hunt.finish().unwrap();
        assert_eq!(last.tick, u64::MAX);
        assert_eq!(last.window_start, u64::MAX - 4);
        assert_eq!(last.stats.events, 1);
        assert_eq!(hunt.ledger().events_admitted, 2);
        assert!(hunt.ledger().is_balanced());
    }

    /// Same records, same tick boundaries, different chunk splits and
    /// intra-tick order: identical state, reports, and eviction order.
    #[test]
    fn eviction_determinism_across_interleavings() {
        let mut c = config(100, 2);
        // Small rings (519 bytes/pair with one token) and a budget that
        // fits ~7 of the 12 pairs, forcing evictions every tick.
        c.ring_capacity = 16;
        c.state_budget_bytes = 4 * 1024;
        let mut records = Vec::new();
        for tick in 0u64..8 {
            for p in 0u64..12 {
                let ts = tick * 100 + (p * 7) % 100;
                records.push(record(ts, &format!("h{p}"), &format!("d{p}.test")));
            }
        }
        records.push(record(900, "h0", "d0.test")); // closes the last tick

        let run = |chunks: Vec<Vec<LogRecord>>| {
            let mut hunt = StreamingHunt::new(c.clone()).unwrap();
            let mut reports = Vec::new();
            for chunk in chunks {
                reports.extend(hunt.ingest(&chunk));
            }
            let evictions: Vec<Vec<CommunicationPair>> =
                reports.iter().map(|r| r.evicted.clone()).collect();
            let live: Vec<CommunicationPair> = hunt.pairs.keys().cloned().collect();
            (evictions, live, *hunt.ledger())
        };

        let whole = run(vec![records.clone()]);
        // Chunked at an arbitrary boundary.
        let mid = records.len() / 3;
        let chunked = run(vec![records[..mid].to_vec(), records[mid..].to_vec()]);
        // Reversed within each tick (ticks themselves must stay ordered).
        let mut shuffled = Vec::new();
        for tick_records in records.chunks(12) {
            let mut tick_records = tick_records.to_vec();
            tick_records.reverse();
            shuffled.push(tick_records);
        }
        let reordered = run(shuffled);

        assert_eq!(whole.0, chunked.0, "eviction order differs when chunked");
        assert_eq!(whole.0, reordered.0, "eviction order differs when shuffled");
        assert_eq!(whole.1, chunked.1);
        assert_eq!(whole.1, reordered.1);
        assert_eq!(whole.2, chunked.2);
        assert_eq!(whole.2, reordered.2);
        assert!(whole.2.pairs_evicted > 0, "budget must actually evict");
        assert!(whole.2.is_balanced());
    }

    #[test]
    fn evicted_pair_readmits_with_a_fresh_ring() {
        let mut c = config(100, 8);
        // 519 bytes per pair (base 192 + 9 key bytes + 16×16 ring + one
        // 62-byte token). Six pairs (3114) fit the budget but press it
        // past the degrade threshold (0.92), and a degraded tick evicts
        // coldest-first, ties broken by key order, down to 0.7 of it (2380).
        c.ring_capacity = 16;
        c.state_budget_bytes = 3_400;
        let mut hunt = StreamingHunt::new(c).unwrap();
        // Tick 0: pair A (smallest key, so it loses LRU ties) plus five
        // others — six pairs, under budget.
        let mut records = vec![record(5, "a0", "aa.test")];
        for p in 0..5 {
            records.push(record(10 + p, &format!("h{p}"), &format!("d{p}.test")));
        }
        // Tick 1 (degraded): the five stay warm; the coldest — A, at tick
        // 0 — is evicted, then h0.
        for p in 0..5 {
            records.push(record(110 + p, &format!("h{p}"), &format!("d{p}.test")));
        }
        // Tick 2 (degraded, the peak still 0.92 of the budget): A returns
        // (readmission) and h1, now the coldest, is evicted in its turn.
        records.push(record(205, "a0", "aa.test"));
        // Tick 3: closes tick 2.
        records.push(record(305, "h2", "d2.test"));
        let reports = hunt.ingest(&records);
        let a = CommunicationPair::new("a0", "aa.test");
        assert_eq!(reports[1].decision, AdmissionDecision::Degrade);
        assert!(
            reports[1].evicted.contains(&a),
            "pair A must be evicted while cold: {reports:?}"
        );
        assert!(reports
            .iter()
            .all(|r| r.decision != AdmissionDecision::Reject));
        assert_eq!(hunt.ledger().pairs_readmitted, 1);
        let state = hunt.pairs.get(&a).expect("A is live again");
        assert_eq!(
            state.ring.timestamps(),
            vec![205],
            "readmitted pair must start from a fresh ring"
        );
        assert!(hunt.ledger().is_balanced());
        // The declared counters observed the cycle.
        let json = hunt.metrics_snapshot().to_json();
        assert!(json.contains("\"stream.pairs.evicted\""));
        assert!(json.contains("\"stream.pairs.readmitted\""));
    }

    #[test]
    fn reject_sheds_the_buffered_tick() {
        let mut c = config(100, 4);
        c.state_budget_bytes = 1; // any state at all overflows
        let mut hunt = StreamingHunt::new(c).unwrap();
        let mut records = Vec::new();
        for tick in 0u64..4 {
            for p in 0..4 {
                records.push(record(
                    tick * 100 + p,
                    &format!("h{p}"),
                    &format!("d{p}.test"),
                ));
            }
        }
        let reports = hunt.ingest(&records);
        assert!(
            reports
                .iter()
                .any(|r| r.decision == AdmissionDecision::Reject),
            "pressure ≥ 1 must reject: {reports:?}"
        );
        assert!(hunt.ledger().events_shed > 0);
        assert!(hunt.ledger().is_balanced());
    }

    /// The final report is the finish tick's: a pair whose ring dropped
    /// events still carries every in-window token. Its ring of 16 keeps
    /// the last 16 of 40 beacon events, but the pair holds all 40
    /// tokens; the twelve benign ones sort first, so a report rebuilt
    /// from one token per ring event would see 12 of 16 benign and drop
    /// the pair at filter 4, while the whole set is 12 of 40.
    #[test]
    fn lossy_final_report_is_the_finish_tick() {
        let mut c = config(300, 4);
        c.ring_capacity = 16;
        let mut hunt = StreamingHunt::new(c).unwrap();
        let tokens: BTreeSet<String> = crate::tokens::DEFAULT_BENIGN_TOKENS[..12]
            .iter()
            .map(|t| (*t).to_owned())
            .chain((12..40).map(|i| format!("z{i:02}")))
            .collect();
        assert_eq!(tokens.len(), 40);
        let records: Vec<LogRecord> = tokens
            .iter()
            .enumerate()
            .map(|(i, token)| LogRecord::new(i as u64 * 30, "h", "qwzkrvbplm.test", token))
            .collect();
        hunt.ingest(&records);
        let last = hunt.finish().unwrap();
        assert_eq!(hunt.ledger().events_dropped_capacity, 24);
        let (report, _) = hunt.final_report();
        assert_eq!(report.stats, last.stats);
        let beacon = CommunicationPair::new("h", "qwzkrvbplm.test");
        let case = report
            .ranked
            .iter()
            .find(|c| c.case.pair == beacon)
            .expect("the beacon is ranked");
        assert_eq!(case.case.url_tokens, tokens);
    }

    #[test]
    fn verdict_cache_reuses_unchanged_windows() {
        // A pair that stops sending keeps its window unchanged while the
        // window hasn't slid past its events: no re-detection needed.
        let mut hunt = StreamingHunt::new(config(100, 100)).unwrap();
        let mut records: Vec<LogRecord> =
            (0..30u64).map(|i| record(i * 10, "h", "a.test")).collect();
        // Three quiet ticks afterwards (window long enough to retire
        // nothing), driven by a second distant pair.
        for tick in 4u64..7 {
            records.push(record(tick * 100 + 1, "other", "b.test"));
        }
        let reports = hunt.ingest(&records);
        let later: Vec<&TickReport> = reports.iter().filter(|r| r.tick >= 4).collect();
        assert!(!later.is_empty());
        assert!(
            later.iter().any(|r| r.detect_cached > 0),
            "unchanged pair must serve from the verdict cache: {later:?}"
        );
        assert!(hunt.ledger().is_lossless());
    }

    #[test]
    fn commit_reported_suppresses_novelty() {
        let mut hunt = StreamingHunt::new(config(60, 4)).unwrap();
        let records: Vec<LogRecord> = (0..40u64)
            .map(|i| record(i * 30, "beacon", "qwzkrvbplm.test"))
            .collect();
        hunt.ingest(&records);
        let before = hunt.finish().unwrap();
        assert!(before.stats.after_novelty > 0, "fresh pair must be novel");
        hunt.commit_reported([CommunicationPair::new("beacon", "qwzkrvbplm.test")]);
        let after = hunt.finish().unwrap();
        assert_eq!(after.stats.after_novelty, 0, "committed pair is not novel");
    }

    #[test]
    fn fingerprints_distinguish_field_boundaries() {
        // The NUL separator keeps ("ab", "c") distinct from ("a", "bc").
        let a = fingerprint(&CommunicationPair::new("ab", "c"));
        let b = fingerprint(&CommunicationPair::new("a", "bc"));
        assert_ne!(a, b);
    }
}
