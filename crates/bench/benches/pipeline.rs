//! Criterion macro-bench: end-to-end pipeline throughput on a simulated
//! enterprise day (weekday vs weekend — the §VIII-B2 operating points).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use baywatch_core::jobs;
use baywatch_core::pipeline::{Baywatch, BaywatchConfig};
use baywatch_core::record::LogRecord;
use baywatch_mapreduce::{FaultPolicy, JobConfig, MapReduce};
use baywatch_netsim::enterprise::{EnterpriseConfig, EnterpriseSimulator};
use baywatch_timeseries::detector::{DetectorConfig, PeriodicityDetector};

fn records_for(hosts: usize, day: usize) -> Vec<LogRecord> {
    let sim = EnterpriseSimulator::new(EnterpriseConfig {
        hosts,
        days: 7,
        seed: 0xBEBC,
        ..Default::default()
    });
    sim.generate_day(day)
        .iter()
        .map(|e| {
            LogRecord::new(
                e.timestamp,
                e.host.to_string(),
                e.domain.clone(),
                e.url_path.clone(),
            )
        })
        .collect()
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_day");
    group.sample_size(10);
    for (label, hosts, day) in [("weekday_100h", 100usize, 1usize), ("weekend_100h", 100, 5)] {
        let records = records_for(hosts, day);
        group.throughput(Throughput::Elements(records.len() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(label),
            &records,
            |b, records| {
                b.iter_batched(
                    || records.clone(),
                    |records| {
                        let mut engine = Baywatch::new(BaywatchConfig {
                            local_tau: 0.05,
                            ..Default::default()
                        });
                        engine.analyze(records)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();

    // Rescaling ablation (DESIGN.md §5): analyzing at a coarser time scale
    // trades resolution for speed — the knob behind the paper's
    // daily/weekly/monthly operation.
    let mut group = c.benchmark_group("pipeline_time_scale_ablation");
    group.sample_size(10);
    let records = records_for(100, 1);
    for scale in [1u64, 60] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{scale}s_bins")),
            &records,
            |b, records| {
                b.iter_batched(
                    || records.clone(),
                    |records| {
                        let mut cfg = BaywatchConfig {
                            local_tau: 0.05,
                            time_scale: scale,
                            ..Default::default()
                        };
                        cfg.detector.time_scale = scale;
                        let mut engine = Baywatch::new(cfg);
                        engine.analyze(records)
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

/// The per-pair hot path in isolation: the beaconing-detection MapReduce
/// job over many *short* pairs — the regime where FFT planning used to
/// dominate and where the thread-local spectral workspace pays off, since
/// every worker thread reuses its plans across all pairs of the batch.
fn bench_detection_job(c: &mut Criterion) {
    let mut group = c.benchmark_group("detect_beaconing_job");
    group.sample_size(10);
    for pairs in [50usize, 200] {
        let mut records = Vec::new();
        for p in 0..pairs {
            // Varied short periods → varied (but repeating) FFT lengths.
            let period = 20 + (p as u64 % 8) * 5;
            for i in 0..60u64 {
                records.push(LogRecord::new(
                    10_000 + i * period,
                    format!("host{p}"),
                    format!("dest{p}.example.com"),
                    "t",
                ));
            }
        }
        let engine = MapReduce::new(JobConfig {
            partitions: 8,
            threads: 4,
        });
        let policy = FaultPolicy::default();
        let (summaries, _faults) = jobs::extract_summaries(&engine, &records, 1, None, &policy);
        let detector = PeriodicityDetector::new(DetectorConfig::default());
        let budget = detector.config().budget;
        group.throughput(Throughput::Elements(pairs as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(pairs),
            &summaries,
            |b, summaries| {
                b.iter(|| {
                    jobs::detect_beaconing(&engine, summaries, &detector, budget, None, &policy)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_detection_job);
criterion_main!(benches);
