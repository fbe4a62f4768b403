//! Resilience-scenario generators: flapping log sources and overload
//! bursts.
//!
//! PR 8's fault model needs two traffic shapes the corruption module alone
//! does not produce:
//!
//! * a **flapping source** — an ELFF feed that alternates between clean
//!   windows and windows with a high malformed-line rate, the exact
//!   pattern that should drive a per-source ingest breaker through its
//!   full `Closed → Open → HalfOpen → Closed` recovery cycle, and
//! * **overload bursts** — event-count spikes that push wave admission
//!   past its degrade/reject watermarks while the surrounding baseline
//!   windows let it recover.
//!
//! Both are pure functions of their config plus a `u64` seed, so a soak
//! run that trips a breaker replays byte-for-byte.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::corrupt::{corrupt_elff_lines, to_elff};
use crate::types::{HostId, ProxyEvent};

/// Knobs for [`flapping_source`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlappingConfig {
    /// Number of alternating windows to emit.
    pub windows: usize,
    /// Events rendered per window.
    pub events_per_window: usize,
    /// Malformed-line rate during bad windows (high enough to trip a
    /// breaker's failure-rate threshold).
    pub bad_corruption_rate: f64,
    /// Malformed-line rate during clean windows (usually 0).
    pub clean_corruption_rate: f64,
    /// Wall-clock span of one window in seconds.
    pub window_seconds: u64,
    /// Whether the first window is a bad one.
    pub start_bad: bool,
}

impl Default for FlappingConfig {
    fn default() -> Self {
        Self {
            windows: 6,
            events_per_window: 200,
            bad_corruption_rate: 0.8,
            clean_corruption_rate: 0.0,
            window_seconds: 600,
            start_bad: false,
        }
    }
}

/// One rendered window of a flapping source.
#[derive(Debug, Clone, PartialEq)]
pub struct FlappingWindow {
    /// Window index in emission order.
    pub index: usize,
    /// Whether this window used the bad corruption rate.
    pub bad: bool,
    /// The rendered (possibly damaged) ELFF bytes.
    pub bytes: Vec<u8>,
    /// Exact number of unparseable data lines in `bytes`.
    pub malformed_lines: usize,
    /// Number of data lines rendered before corruption.
    pub data_lines: usize,
}

/// Emits a deterministic flapping ELFF source: windows alternate between
/// clean and high-corruption, starting from `config.start_bad`.
///
/// Each window gets its own RNG stream derived from `seed` and the window
/// index, so inserting or dropping a window never shifts the damage
/// pattern of its neighbours.
pub fn flapping_source(config: &FlappingConfig, seed: u64) -> Vec<FlappingWindow> {
    let mut out = Vec::with_capacity(config.windows);
    for index in 0..config.windows {
        let bad = if config.start_bad {
            index % 2 == 0
        } else {
            index % 2 == 1
        };
        let rate = if bad {
            config.bad_corruption_rate
        } else {
            config.clean_corruption_rate
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (0x5EED_F1A9 + index as u64));
        let events = window_events(config, index, &mut rng);
        let elff = to_elff(&events);
        let (bytes, malformed_lines) = corrupt_elff_lines(&elff, rate, &mut rng);
        out.push(FlappingWindow {
            index,
            bad,
            bytes,
            malformed_lines,
            data_lines: events.len(),
        });
    }
    out
}

fn window_events(config: &FlappingConfig, index: usize, rng: &mut StdRng) -> Vec<ProxyEvent> {
    let base = index as u64 * config.window_seconds;
    let span = config.window_seconds.max(1);
    (0..config.events_per_window)
        .map(|_| ProxyEvent {
            timestamp: base + rng.random_range(0..span),
            host: HostId(rng.random_range(0..16u32)),
            source_ip: 0x0a00_0000 | rng.random_range(0..256u32),
            domain: format!("svc{}.example.net", rng.random_range(0..8u32)),
            url_path: "poll".into(),
        })
        .collect()
}

/// Knobs for [`overload_bursts`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstConfig {
    /// Number of windows to emit.
    pub windows: usize,
    /// Events per baseline (non-burst) window.
    pub baseline_events: usize,
    /// Events per burst window.
    pub burst_events: usize,
    /// Every `burst_every`-th window (1-based) is a burst; 0 disables
    /// bursts entirely.
    pub burst_every: usize,
    /// Wall-clock span of one window in seconds.
    pub window_seconds: u64,
    /// Number of distinct destination domains the burst fans out over
    /// (more domains → more candidate pairs → more admission pressure).
    pub burst_domains: u32,
}

impl Default for BurstConfig {
    fn default() -> Self {
        Self {
            windows: 8,
            baseline_events: 100,
            burst_events: 2_000,
            burst_every: 4,
            window_seconds: 600,
            burst_domains: 64,
        }
    }
}

/// One window of overload traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstWindow {
    /// Window index in emission order.
    pub index: usize,
    /// Whether this window is a burst.
    pub burst: bool,
    /// The events of this window, timestamp-sorted.
    pub events: Vec<ProxyEvent>,
}

/// Emits deterministic overload traffic: mostly-baseline windows with
/// periodic event-count spikes fanning out over many destinations.
pub fn overload_bursts(config: &BurstConfig, seed: u64) -> Vec<BurstWindow> {
    let mut out = Vec::with_capacity(config.windows);
    for index in 0..config.windows {
        let burst = config.burst_every > 0 && (index + 1) % config.burst_every == 0;
        let (count, domains) = if burst {
            (config.burst_events, config.burst_domains.max(1))
        } else {
            (config.baseline_events, 8)
        };
        let mut rng = StdRng::seed_from_u64(seed ^ (0xB0A5_7E11 + index as u64));
        let base = index as u64 * config.window_seconds;
        let span = config.window_seconds.max(1);
        let mut events: Vec<ProxyEvent> = (0..count)
            .map(|_| ProxyEvent {
                timestamp: base + rng.random_range(0..span),
                host: HostId(rng.random_range(0..64u32)),
                source_ip: 0x0a00_0000 | rng.random_range(0..1024u32),
                domain: format!("cdn{}.example.org", rng.random_range(0..domains)),
                url_path: "asset".into(),
            })
            .collect();
        events.sort_by_key(|e| e.timestamp);
        out.push(BurstWindow {
            index,
            burst,
            events,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flapping_alternates_and_damages_only_bad_windows() {
        let config = FlappingConfig {
            windows: 6,
            events_per_window: 300,
            bad_corruption_rate: 0.9,
            clean_corruption_rate: 0.0,
            start_bad: false,
            ..Default::default()
        };
        let windows = flapping_source(&config, 42);
        assert_eq!(windows.len(), 6);
        for w in &windows {
            assert_eq!(w.bad, w.index % 2 == 1, "window {} parity", w.index);
            assert_eq!(w.data_lines, 300);
            if w.bad {
                assert!(
                    w.malformed_lines > 200,
                    "bad window {} damaged only {} lines",
                    w.index,
                    w.malformed_lines
                );
            } else {
                assert_eq!(w.malformed_lines, 0, "clean window {} damaged", w.index);
            }
        }
    }

    #[test]
    fn flapping_start_bad_flips_parity() {
        let config = FlappingConfig {
            windows: 4,
            start_bad: true,
            ..Default::default()
        };
        let windows = flapping_source(&config, 7);
        assert!(windows[0].bad && !windows[1].bad && windows[2].bad);
    }

    #[test]
    fn flapping_is_deterministic_per_seed() {
        let config = FlappingConfig::default();
        let a = flapping_source(&config, 99);
        let b = flapping_source(&config, 99);
        assert_eq!(a, b);
        let c = flapping_source(&config, 100);
        assert_ne!(a, c, "different seed must produce different bytes");
    }

    #[test]
    fn flapping_windows_have_independent_streams() {
        // Dropping the window count must not change earlier windows.
        let long = FlappingConfig {
            windows: 6,
            ..Default::default()
        };
        let short = FlappingConfig { windows: 3, ..long };
        let a = flapping_source(&long, 5);
        let b = flapping_source(&short, 5);
        assert_eq!(&a[..3], &b[..]);
    }

    #[test]
    fn bursts_fire_on_schedule_with_spiked_counts() {
        let config = BurstConfig {
            windows: 8,
            baseline_events: 50,
            burst_events: 500,
            burst_every: 4,
            burst_domains: 32,
            ..Default::default()
        };
        let windows = overload_bursts(&config, 11);
        assert_eq!(windows.len(), 8);
        for w in &windows {
            assert_eq!(w.burst, (w.index + 1) % 4 == 0, "window {}", w.index);
            let expected = if w.burst { 500 } else { 50 };
            assert_eq!(w.events.len(), expected);
            assert!(w
                .events
                .windows(2)
                .all(|p| p[0].timestamp <= p[1].timestamp));
        }
        let burst = windows.iter().find(|w| w.burst).unwrap();
        let domains: std::collections::HashSet<&str> =
            burst.events.iter().map(|e| e.domain.as_str()).collect();
        assert!(domains.len() > 16, "burst fans out over many destinations");
    }

    #[test]
    fn burst_every_zero_disables_bursts() {
        let config = BurstConfig {
            burst_every: 0,
            ..Default::default()
        };
        assert!(overload_bursts(&config, 1).iter().all(|w| !w.burst));
    }

    #[test]
    fn bursts_are_deterministic_per_seed() {
        let config = BurstConfig::default();
        assert_eq!(overload_bursts(&config, 3), overload_bursts(&config, 3));
        assert_ne!(overload_bursts(&config, 3), overload_bursts(&config, 4));
    }
}
