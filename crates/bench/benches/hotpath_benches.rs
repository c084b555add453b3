//! Criterion micro-benchmark of the local-field commit: the
//! O(deg(i)) field update a committed flip pays.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hycim_cop::maxcut::MaxCut;
use hycim_qubo::{Assignment, LocalFieldState};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_commit_flip(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_field_commit");
    for n in [256usize, 1024] {
        let g = MaxCut::random(n, 0.05, 5);
        let q = g.objective_matrix();
        let mut rng = StdRng::seed_from_u64(6);
        let x = Assignment::random(n, &mut rng);
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter_batched(
                || (LocalFieldState::new(&q, &x), x.clone()),
                |(mut lf, mut x)| {
                    for i in 0..64 {
                        x.flip(i % n);
                        lf.commit_flip(&x, i % n);
                    }
                    black_box(lf.field(0))
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_commit_flip);
criterion_main!(benches);
