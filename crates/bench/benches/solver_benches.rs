//! Criterion micro-benchmarks of the simulator's hot paths: filter
//! evaluation, crossbar VMV, SA iteration throughput, and the
//! COP→QUBO transformations.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hycim_anneal::{Annealer, GeometricSchedule, SoftwareState};
use hycim_cim::crossbar::{Crossbar, CrossbarConfig};
use hycim_cim::filter::{FilterConfig, InequalityFilter};
use hycim_cim::Fidelity;
use hycim_cop::generator::QkpGenerator;
use hycim_core::{DquboConfig, DquboEngine, Engine, HyCimConfig, HyCimEngine};
use hycim_qubo::dqubo::{AuxEncoding, DquboForm, PenaltyWeights};
use hycim_qubo::Assignment;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_filter_eval(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_eval");
    let inst = QkpGenerator::new(100, 0.5).generate(1);
    let mut rng = StdRng::seed_from_u64(2);
    for fidelity in [Fidelity::Fast, Fidelity::DeviceAccurate] {
        let config = FilterConfig::default().with_fidelity(fidelity);
        let filter = InequalityFilter::build(inst.weights(), inst.capacity(), &config, &mut rng)
            .expect("benchmark instance maps");
        let x = Assignment::random_with_density(100, 0.4, &mut rng);
        group.bench_function(BenchmarkId::from_parameter(format!("{fidelity}")), |b| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| black_box(filter.classify(black_box(&x), &mut rng)))
        });
    }
    group.finish();
}

fn bench_crossbar_vmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_vmv");
    let inst = QkpGenerator::new(100, 0.5).generate(4);
    let q = inst.objective_matrix();
    let mut rng = StdRng::seed_from_u64(5);
    for fidelity in [Fidelity::Fast, Fidelity::DeviceAccurate] {
        let config = CrossbarConfig::paper().with_fidelity(fidelity);
        let xbar = Crossbar::program(&q, &config, &mut rng).expect("programmable");
        let x = Assignment::random_with_density(100, 0.4, &mut rng);
        group.bench_function(BenchmarkId::from_parameter(format!("{fidelity}")), |b| {
            let mut rng = StdRng::seed_from_u64(6);
            b.iter(|| black_box(xbar.compute_energy(black_box(&x), &mut rng)))
        });
    }
    group.finish();
}

fn bench_sa_iterations(c: &mut Criterion) {
    let mut group = c.benchmark_group("sa_1000_iterations");
    for n in [50usize, 100, 200] {
        let inst = QkpGenerator::new(n, 0.5).generate(7);
        let iq = inst.to_inequality_qubo().expect("valid");
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter_batched(
                || {
                    (
                        SoftwareState::new(&iq, Assignment::zeros(n)),
                        StdRng::seed_from_u64(8),
                    )
                },
                |(mut state, mut rng)| {
                    let annealer =
                        Annealer::new(GeometricSchedule::new(50.0, 0.999), 1000).without_trace();
                    black_box(annealer.run(&mut state, &mut rng))
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_transformations(c: &mut Criterion) {
    let mut group = c.benchmark_group("transformation");
    let inst = QkpGenerator::new(100, 0.5).generate(9);
    group.bench_function("inequality_qubo", |b| {
        b.iter(|| black_box(inst.to_inequality_qubo().expect("valid")))
    });
    group.bench_function("dqubo_one_hot", |b| {
        b.iter(|| {
            black_box(
                DquboForm::transform(
                    &inst.objective_matrix(),
                    &inst.constraint(),
                    PenaltyWeights::PAPER,
                    AuxEncoding::OneHot,
                )
                .expect("valid"),
            )
        })
    });
    group.bench_function("dqubo_binary", |b| {
        b.iter(|| {
            black_box(
                DquboForm::transform(
                    &inst.objective_matrix(),
                    &inst.constraint(),
                    PenaltyWeights::PAPER,
                    AuxEncoding::Binary,
                )
                .expect("valid"),
            )
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end_solve");
    group.sample_size(10);
    let inst = QkpGenerator::new(100, 0.25).generate(10);
    let hycim = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(50), 1).expect("maps");
    group.bench_function("hycim_50_sweeps", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(hycim.solve(seed))
        })
    });
    let dqubo =
        DquboEngine::new(&inst, &DquboConfig::default().with_sweeps(10)).expect("transforms");
    group.bench_function("dqubo_10_sweeps", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(dqubo.solve(seed))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_filter_eval,
    bench_crossbar_vmv,
    bench_sa_iterations,
    bench_transformations,
    bench_end_to_end
);
criterion_main!(benches);
