//! Criterion micro-benchmarks of the bit-parallel replica hot path:
//! one packed 64-lane sweep vs 64 scalar sweep-reference replicas, and
//! the masked bitplane commit.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hycim_anneal::{run_packed_sweeps, run_replica_scalar, PackedSoftwareState, SweepSchedule};
use hycim_cop::maxcut::MaxCut;
use hycim_cop::CopProblem;
use hycim_qubo::{Assignment, InequalityQubo, PackedReplicaState, LANES};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn problem(n: usize) -> InequalityQubo {
    let g = MaxCut::random(n, 0.05, 3);
    CopProblem::to_inequality_qubo(&g).expect("max-cut encodes")
}

fn lane_rngs(seed: u64) -> Vec<StdRng> {
    (0..LANES)
        .map(|k| StdRng::seed_from_u64(seed.wrapping_add(k as u64)))
        .collect()
}

fn lane_initials(iq: &InequalityQubo, seed: u64) -> Vec<Assignment> {
    lane_rngs(seed)
        .iter_mut()
        .map(|rng| CopProblem::initial(iq, rng))
        .collect()
}

/// 64 replicas × `sweeps` sweeps: packed bitplanes vs 64 independent
/// scalar local-field replicas (both advance `64 × n × sweeps`
/// replica-iterations per measurement).
fn bench_packed_vs_scalar_sweeps(c: &mut Criterion) {
    let sweeps = 10;
    let mut group = c.benchmark_group("replica_sweeps_64");
    for n in [64usize, 256] {
        let iq = problem(n);
        let initials = lane_initials(&iq, 11);
        let schedule = SweepSchedule::cooling_to(25.0, 0.05, sweeps);
        group.bench_function(BenchmarkId::new("packed", n), |b| {
            b.iter_batched(
                || lane_rngs(12),
                |mut rngs| {
                    let state = PackedSoftwareState::new(&iq, &initials);
                    black_box(run_packed_sweeps(state, sweeps, &schedule, &mut rngs))
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("scalar_x64", n), |b| {
            b.iter_batched(
                || lane_rngs(12),
                |mut rngs| {
                    for (k, rng) in rngs.iter_mut().enumerate() {
                        black_box(run_replica_scalar(
                            &iq,
                            initials[k].clone(),
                            sweeps,
                            &schedule,
                            rng,
                        ));
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// The masked commit alone: one bitplane XOR + per-set-lane neighbor
/// field updates, at different accepted-lane counts.
fn bench_masked_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("packed_masked_commit");
    let n = 256;
    let iq = problem(n);
    let initials = lane_initials(&iq, 21);
    for (label, mask) in [
        ("1_lane", 1u64),
        ("8_lanes", 0xFFu64),
        ("64_lanes", u64::MAX),
    ] {
        group.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter_batched(
                || PackedReplicaState::new(iq.objective(), &initials),
                |mut state| {
                    for i in 0..32 {
                        state.commit_masked(i, mask);
                    }
                    black_box(state.field(0, 0))
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_packed_vs_scalar_sweeps, bench_masked_commit);
criterion_main!(benches);
