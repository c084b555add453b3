//! Criterion benchmarks of the `BatchRunner`: multi-start throughput
//! at 1, 2, 4 and all-core thread counts on a fixed instance × replica
//! grid. Because the runner is deterministic in the root seed, every
//! thread count computes the *same* solutions — the measured spread is
//! pure parallel speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hycim_cop::generator::QkpGenerator;
use hycim_cop::QkpInstance;
use hycim_core::{BatchRunner, HyCimConfig, HyCimEngine};
use std::hint::black_box;

fn bench_batch_speedup(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_runner_speedup");
    group.sample_size(10);
    let config = HyCimConfig::default().with_sweeps(30);
    let engines: Vec<HyCimEngine<QkpInstance>> = (0..4)
        .map(|seed| {
            let inst = QkpGenerator::new(60, 0.5).generate(seed);
            HyCimEngine::new(&inst, &config, seed).expect("maps")
        })
        .collect();
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut counts = vec![1usize, 2, 4];
    if !counts.contains(&max_threads) {
        counts.push(max_threads);
    }
    for threads in counts {
        group.bench_function(BenchmarkId::from_parameter(format!("{threads}t")), |b| {
            let runner = BatchRunner::new().with_threads(threads);
            b.iter(|| black_box(runner.run_grid(black_box(&engines), 4, 7)))
        });
    }
    group.finish();
}

fn bench_replica_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_runner_replicas");
    group.sample_size(10);
    let inst = QkpGenerator::new(60, 0.5).generate(9);
    let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(30), 9).expect("maps");
    let runner = BatchRunner::new();
    for replicas in [1usize, 4, 16] {
        group.bench_function(BenchmarkId::from_parameter(replicas), |b| {
            b.iter(|| black_box(runner.run(black_box(&engine), replicas, 3)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_speedup, bench_replica_scaling);
criterion_main!(benches);
