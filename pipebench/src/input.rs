//! Seeded input generation for the four workloads.
//!
//! Everything here runs on one thread, outside every timed region, and is
//! a pure function of `(seed, sizes)`. The *structure* of each input — how
//! many pairs reach the detector, how long their series are — is fixed by
//! the sizes, and the seed only moves events inside that structure. That
//! is deliberate: detection costs ~10⁵ times more per pair than any other
//! layer costs per line, so letting the seed also draw the number of
//! beaconing pairs would make throughput differ by tens of percent between
//! seeds and bury every real change (README, "Why the structure is
//! pinned").

use std::collections::BTreeSet;
use std::fmt::Write as _;

use baywatch_core::LogRecord;
use baywatch_netsim::benign::BrowsingModel;
use baywatch_netsim::corrupt::to_elff;
use baywatch_netsim::enterprise::{EnterpriseConfig, EnterpriseSimulator, DAY_SECONDS};
use baywatch_netsim::longtrace::{LongTraceConfig, LongTraceGenerator};
use baywatch_netsim::synth::{multi_period_burst, random_arrivals, tdss_like, SyntheticBeacon};
use baywatch_netsim::{HostId, ProxyEvent};

use crate::stats::{splitmix, Fnv32};

/// Frozen size constants (README, "Size constants"). `scaled` divides
/// them for the smoke test; the floors keep every check meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// `batch_week`: simulated hosts browsing in the background.
    pub week_hosts: usize,
    /// `batch_week`: planted beaconing pairs, all active on all 7 days.
    pub week_planted: usize,
    /// `batch_tail`: simulated hosts.
    pub tail_hosts: usize,
    /// `batch_tail`: planted beaconing pairs.
    pub tail_planted: usize,
    /// `detect_mix`: rare-destination pairs; a tenth of them planted.
    pub mix_pairs: usize,
    /// `stream_soak`: ticks per repetition.
    pub soak_ticks: u64,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        week_hosts: 100,
        week_planted: 6,
        tail_hosts: 200,
        tail_planted: 1,
        mix_pairs: 120,
        soak_ticks: 100,
    };

    /// `1/divisor` of the full size, floored where a smaller input would
    /// stop exercising the workload (τ_P = 5 % needs > 20 sources).
    pub fn scaled(divisor: usize) -> Sizes {
        let d = divisor.max(1);
        Sizes {
            week_hosts: (Self::FULL.week_hosts / d).max(24),
            week_planted: (Self::FULL.week_planted / d).max(2),
            tail_hosts: (Self::FULL.tail_hosts / d).max(24),
            tail_planted: 1,
            mix_pairs: (Self::FULL.mix_pairs / d).max(30),
            soak_ticks: (Self::FULL.soak_ticks / d as u64).max(12),
        }
    }
}

/// Input of a batch workload: one log text per analysed window.
#[derive(Debug)]
pub struct BatchInput {
    pub windows: Vec<String>,
    /// Windows are ELFF (else tab-separated).
    pub elff: bool,
    /// Destinations whose generator is periodic and malicious.
    pub planted: BTreeSet<String>,
    pub fnv32: u32,
}

impl BatchInput {
    fn new(windows: Vec<String>, elff: bool, planted: BTreeSet<String>) -> Self {
        let mut fnv = Fnv32::new();
        for window in &windows {
            fnv.update(window.as_bytes());
        }
        Self {
            windows,
            elff,
            planted,
            fnv32: fnv.finish(),
        }
    }
}

/// Day 0 of every trace (a Monday midnight, as in `EnterpriseConfig`).
const EPOCH: u64 = 1_420_070_400;

/// A DGA-looking label no whitelist or catalog contains.
fn dga_domain(state: &mut u64) -> String {
    let mut label: String = (0..12)
        .map(|_| char::from(b'a' + (splitmix(state) % 26) as u8))
        .collect();
    label.push_str(".biz");
    label
}

fn tab_lines(events: &[ProxyEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 56);
    for e in events {
        // Writing to a String cannot fail.
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}",
            e.timestamp, e.host, e.domain, e.url_path
        );
    }
    out
}

/// Appends one pair's events, each with its own hex path like a C&C
/// check-in (so the URL-token filter keeps the pair).
fn push_pair(
    events: &mut Vec<ProxyEvent>,
    host: HostId,
    domain: &str,
    timestamps: impl IntoIterator<Item = u64>,
    state: &mut u64,
) {
    for timestamp in timestamps {
        events.push(ProxyEvent {
            timestamp,
            host,
            source_ip: 0x0A00_0000 | host.0,
            domain: domain.to_owned(),
            url_path: format!("{:06x}", splitmix(state) & 0xFF_FFFF),
        });
    }
}

/// Makes a schedule start at `start` and end exactly `span` seconds
/// later. The detector bins a pair into `last − first + 1` one-second
/// bins and transforms that length, so a pair's cost is set by its span
/// to the second (even lengths take the packed real transform, odd ones
/// the full complex one, at about twice the price). Left to jitter, every
/// planted pair would flip between the two from seed to seed.
fn pin_span(mut timestamps: Vec<u64>, start: u64, span: u64) -> Vec<u64> {
    timestamps.retain(|&t| t > start && t < start + span);
    timestamps.insert(0, start);
    timestamps.push(start + span);
    timestamps
}

/// The six beacon shapes planted pairs cycle through, over exactly `span`
/// seconds from `start`: clean, jittered with gaps, slow, TDSS-like with
/// outages, Conficker-like bursts, and jitter + missing + added events.
fn planted_schedule(shape: usize, start: u64, span: u64, seed: u64) -> Vec<u64> {
    let beacon = |period: f64, sigma: f64, p_miss: f64, add_rate: f64| {
        SyntheticBeacon {
            period,
            gaussian_sigma: sigma,
            p_miss,
            add_rate,
            count: (span as f64 / period) as usize,
            start,
        }
        .generate(seed)
    };
    let schedule = match shape % 6 {
        0 => beacon(63.0, 0.0, 0.0, 0.0),
        1 => beacon(180.0, 5.0, 0.05, 0.0),
        2 => beacon(929.0, 20.0, 0.0, 0.0),
        3 => tdss_like(start, (span / 380) as usize, seed),
        4 => multi_period_burst(
            start,
            (span / 3600 + 1) as usize,
            30,
            20.0,
            3000.0,
            1.0,
            seed,
        ),
        _ => beacon(300.0, 3.0, 0.1, 0.1),
    };
    pin_span(schedule, start, span)
}

/// Planted pair `i` of a window `window` seconds long spans `window − 1 − i`
/// seconds: consecutive pairs alternate between even and odd series
/// lengths, and no two share FFT plans.
fn planted_span(window: u64, i: usize) -> u64 {
    window - 1 - i as u64
}

/// `batch_week`: seven daily windows of simulator browsing and always-on
/// services (all above τ_P, so whitelisted) plus `week_planted` beaconing
/// pairs on workstations that are up 08:00–18:00 every day. What survives
/// both whitelists and has enough events is exactly the planted set, so
/// filter 3 runs its accept path on ten-hour series `7 × week_planted`
/// times.
pub fn batch_week(seed: u64, sizes: &Sizes) -> BatchInput {
    let sim = EnterpriseSimulator::new(EnterpriseConfig {
        hosts: sizes.week_hosts,
        days: 7,
        start_epoch: EPOCH,
        niche_service_prob: 0.0,
        infection_rate: 0.0,
        // Enough weekend presence that one planted source stays below
        // τ_P = 5 % of the day's sources whatever the seed draws.
        weekend_activity: 0.3,
        seed,
        ..Default::default()
    });
    let mut state = seed ^ 0xBA7C_4EE4;
    let planted: Vec<(HostId, String)> = (0..sizes.week_planted)
        .map(|i| {
            (
                HostId((sizes.week_hosts + i) as u32),
                dga_domain(&mut state),
            )
        })
        .collect();
    let windows = (0..7)
        .map(|day| {
            let mut events = sim.generate_day(day);
            let day_start = EPOCH + day as u64 * DAY_SECONDS;
            for (i, (host, domain)) in planted.iter().enumerate() {
                let span = planted_span(10 * 3600, i);
                let schedule =
                    planted_schedule(i, day_start + 8 * 3600, span, splitmix(&mut state));
                push_pair(&mut events, *host, domain, schedule, &mut state);
            }
            events.sort_by_key(|e| (e.timestamp, e.host));
            tab_lines(&events)
        })
        .collect();
    let planted = planted.into_iter().map(|(_, d)| d).collect();
    BatchInput::new(windows, false, planted)
}

/// `batch_tail`: one browse-heavy, service-poor weekday in ELFF. Nearly
/// every pair is a host visiting a tail domain a handful of times, so
/// parse, popularity, extract/shuffle and the whitelists do the work;
/// `tail_planted` ten-hour beacons keep the ranked output non-empty.
pub fn batch_tail(seed: u64, sizes: &Sizes) -> BatchInput {
    let sim = EnterpriseSimulator::new(EnterpriseConfig {
        hosts: sizes.tail_hosts,
        days: 1,
        start_epoch: EPOCH,
        popular_domains: 3000,
        browsing: BrowsingModel {
            sessions_per_day: 40.0,
            requests_per_session: 40.0,
            ..Default::default()
        },
        common_service_prob: 0.1,
        niche_service_prob: 0.0,
        infection_rate: 0.0,
        seed,
        ..Default::default()
    });
    let mut state = seed ^ 0x7A11_7A11;
    let mut events = sim.generate_day(0);
    let mut planted = BTreeSet::new();
    for i in 0..sizes.tail_planted {
        let domain = dga_domain(&mut state);
        let span = planted_span(10 * 3600, i);
        let schedule = planted_schedule(i + 1, EPOCH + 8 * 3600, span, splitmix(&mut state));
        let host = HostId((sizes.tail_hosts + i) as u32);
        push_pair(&mut events, host, &domain, schedule, &mut state);
        planted.insert(domain);
    }
    events.sort_by_key(|e| (e.timestamp, e.host));
    BatchInput::new(vec![to_elff(&events)], true, planted)
}

/// Length of the `detect_mix` window.
const MIX_WINDOW: u64 = 8 * 3600;

/// `detect_mix`: `mix_pairs` rare-destination pairs, each with its own
/// host and DGA-like domain so both whitelists pass everything. A tenth
/// are planted beacons (periods 30–1800 s over the window); the rest are
/// memoryless arrivals on a fixed grid of mean event counts (10–200) and
/// spans (2–8 h, all distinct, so every pair needs its own FFT plans).
/// Spans are exact (`pin_span`) because the transform length, and with it
/// the cost of a pair, is its span in seconds.
pub fn detect_mix(seed: u64, sizes: &Sizes) -> BatchInput {
    let n = sizes.mix_pairs;
    let n_planted = n / 10;
    let n_random = n - n_planted;
    let mut state = seed ^ 0xDE7E_C7A1;
    let mut events = Vec::new();
    let mut planted = BTreeSet::new();
    for i in 0..n {
        let host = HostId(i as u32);
        let domain = dga_domain(&mut state);
        let pair_seed = splitmix(&mut state);
        let timestamps = if i < n_planted {
            planted.insert(domain.clone());
            pin_span(
                mix_planted(i, pair_seed),
                EPOCH,
                planted_span(MIX_WINDOW, i),
            )
        } else {
            let j = i - n_planted;
            let count = 10 + j * 190 / (n_random - 1).max(1);
            // A fixed bijection decorrelates span from count; the odd
            // step alternates even and odd series lengths.
            let slot = ((j * 37 + 11) % n_random) as u64;
            let step = (MIX_WINDOW * 3 / 4 / n_random as u64) | 1;
            let span = MIX_WINDOW / 4 + slot * step;
            let start = EPOCH + (MIX_WINDOW - span) * (j % 7) as u64 / 7;
            // Twice the arrivals the span holds on average, cut at its end.
            let arrivals = random_arrivals(start, 2 * count, span as f64 / count as f64, pair_seed);
            pin_span(arrivals, start, span)
        };
        push_pair(&mut events, host, &domain, timestamps, &mut state);
    }
    events.sort_by_key(|e| (e.timestamp, e.host));
    BatchInput::new(vec![tab_lines(&events)], false, planted)
}

fn mix_planted(i: usize, seed: u64) -> Vec<u64> {
    let beacon = |period: f64, noisy: bool| {
        SyntheticBeacon {
            period,
            gaussian_sigma: if noisy { 0.03 * period } else { 0.0 },
            p_miss: if noisy { 0.1 } else { 0.0 },
            add_rate: if noisy { 0.1 } else { 0.0 },
            count: (MIX_WINDOW as f64 / period) as usize,
            start: EPOCH,
        }
        .generate(seed)
    };
    match i % 6 {
        0 => beacon(30.0, false),
        1 => beacon(60.0, true),
        2 => multi_period_burst(EPOCH, 17, 20, 15.0, 1500.0, 0.5, seed),
        3 => beacon(300.0, false),
        4 => beacon(900.0, true),
        _ => beacon(1800.0, false),
    }
}

/// Input of `stream_soak`: one record batch per tick.
#[derive(Debug)]
pub struct StreamInput {
    pub ticks: Vec<Vec<LogRecord>>,
    pub events: usize,
    pub beacons: BTreeSet<String>,
    pub fnv32: u32,
}

pub const SOAK_TICK_SECONDS: u64 = 300;

/// `stream_soak`: `soak_ticks` ticks of the long trace — 16 persistent
/// beacons, 40 short-lived pairs born per tick, 400 one-off events per
/// tick over 512 hosts — so the live working set exceeds the engine's
/// 2 MiB state budget after a few ticks.
pub fn stream_soak(seed: u64, sizes: &Sizes) -> StreamInput {
    let generator = LongTraceGenerator::new(LongTraceConfig {
        seed,
        tick_seconds: SOAK_TICK_SECONDS,
        beacons: 16,
        churn_pairs_per_tick: 40,
        noise_events_per_tick: 400,
        hosts: 512,
        ..Default::default()
    });
    let mut fnv = Fnv32::new();
    let ticks: Vec<Vec<LogRecord>> = (0..sizes.soak_ticks)
        .map(|tick| {
            generator
                .tick_events(tick)
                .iter()
                .map(|e| {
                    let source = e.host.to_string();
                    fnv.update(&e.timestamp.to_le_bytes());
                    fnv.update(source.as_bytes());
                    fnv.update(e.domain.as_bytes());
                    LogRecord::new(e.timestamp, source, e.domain.clone(), e.url_path.clone())
                })
                .collect()
        })
        .collect();
    StreamInput {
        events: ticks.iter().map(Vec::len).sum(),
        ticks,
        beacons: generator.beacon_domains().iter().cloned().collect(),
        fnv32: fnv.finish(),
    }
}
