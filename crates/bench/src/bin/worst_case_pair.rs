//! The worst case of `max_bins`, the one bound on a pair's work: detector
//! wall time on the heaviest pairs a window can hold, one thread, median
//! of three runs each.
//!
//! ```text
//! cargo run --release -p baywatch-bench --bin worst_case_pair
//! ```

#![warn(clippy::unwrap_used)]
#![allow(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "experiment drivers time runs and write result files; nothing here feeds a verdict"
)]

use std::time::Instant;

use baywatch_bench::{f, render_table};
use baywatch_netsim::adversarial::pathological_sparse_beacon;
use baywatch_netsim::synth::random_arrivals;
use baywatch_timeseries::detector::PeriodicityDetector;

fn main() {
    let max_bins = PeriodicityDetector::default().config().max_bins as u64;
    let inputs: [(&str, Vec<u64>); 4] = [
        (
            "slow beacon, 300 events 2 333 s apart",
            pathological_sparse_beacon(50_000, 300, 2_333),
        ),
        (
            "clean 60 s beacon filling max_bins",
            (0..=(max_bins - 1) / 60).map(|i| i * 60).collect(),
        ),
        (
            "10^5-event 10 s beacon over 10^6 bins",
            (0..100_000).map(|i| i * 10).collect(),
        ),
        (
            "memoryless pair over 10^6 bins",
            random_arrivals(0, 10_000, 100.0, 7),
        ),
    ];
    println!("=== Worst-case pair under max_bins = {max_bins} ===\n");
    let mut rows = Vec::new();
    for (name, timestamps) in &inputs {
        let detector = PeriodicityDetector::default();
        let mut seconds = Vec::new();
        let mut verdict = String::new();
        for _ in 0..3 {
            let start = Instant::now();
            let report = detector.detect(timestamps);
            seconds.push(start.elapsed().as_secs_f64());
            verdict = match report {
                Ok(r) => r
                    .best()
                    .map_or("not periodic".to_string(), |c| format!("{:.1} s", c.period)),
                Err(e) => format!("error: {e}"),
            };
        }
        seconds.sort_by(f64::total_cmp);
        let span = timestamps.last().unwrap_or(&0) - timestamps.first().unwrap_or(&0);
        rows.push(vec![
            (*name).to_string(),
            timestamps.len().to_string(),
            (span + 1).min(max_bins).to_string(),
            verdict,
            f(seconds[1], 3),
        ]);
    }
    println!(
        "{}",
        render_table(&["pair", "events", "bins", "period", "median s"], &rows)
    );
}
