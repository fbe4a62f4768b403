//! Criterion micro-bench: MapReduce shuffle throughput vs partition and
//! thread counts (the knob the paper tunes with its k-bit hash, §VII-A).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use baywatch_mapreduce::{FaultPolicy, JobConfig, MapReduce};

fn bench_shuffle(c: &mut Criterion) {
    let inputs: Vec<u64> = (0..200_000).collect();

    let mut group = c.benchmark_group("mapreduce_wordcount_200k");
    group.sample_size(10);
    group.throughput(Throughput::Elements(inputs.len() as u64));
    for (partitions, threads) in [(1usize, 1usize), (32, 1), (32, 4), (32, 8), (256, 8)] {
        let engine = MapReduce::new(JobConfig {
            partitions,
            threads,
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("p{partitions}_t{threads}")),
            &engine,
            |b, engine| {
                b.iter(|| {
                    engine.run(
                        &inputs,
                        |n, emit| emit(n % 5_000, 1u64),
                        |k, vs| vec![(*k, vs.len() as u64)],
                        &FaultPolicy::default(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_shuffle);
criterion_main!(benches);
