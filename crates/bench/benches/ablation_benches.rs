//! Ablation benches for the model's design choices:
//! crossbar quantization bits, comparator noise, SA schedule shape,
//! D-QUBO aux encoding, and swap-move fraction. These measure solution
//! *quality* proxies as throughput-style benchmarks so regressions in
//! either speed or structure show up in `cargo bench`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hycim_cim::crossbar::CrossbarConfig;
use hycim_cim::filter::{ComparatorConfig, FilterConfig};
use hycim_cop::generator::QkpGenerator;
use hycim_core::{DquboConfig, Engine, HyCimConfig, HyCimEngine};
use hycim_qubo::dqubo::AuxEncoding;
use std::hint::black_box;

/// Quantization-bits ablation: fewer crossbar bits coarsen the stored
/// matrix; this measures the solve cost at each width (quality is
/// reported by `fig10_success --bits`).
fn bench_quantization_bits(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_quantization_bits");
    group.sample_size(10);
    let inst = QkpGenerator::new(100, 0.5).generate(1);
    for bits in [4u32, 7, 10] {
        let config = HyCimConfig::default()
            .with_sweeps(20)
            .with_crossbar(CrossbarConfig::paper().with_bits(bits));
        let solver = HyCimEngine::new(&inst, &config, 1).expect("maps");
        group.bench_function(BenchmarkId::from_parameter(bits), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(solver.solve(seed).value())
            })
        });
    }
    group.finish();
}

/// Comparator-noise ablation: ideal vs paper-calibrated vs pessimistic
/// comparator.
fn bench_comparator_noise(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_comparator");
    group.sample_size(10);
    let inst = QkpGenerator::new(100, 0.5).generate(2);
    let variants = [
        ("ideal", ComparatorConfig::ideal()),
        ("paper", ComparatorConfig::paper()),
        (
            "pessimistic",
            ComparatorConfig {
                offset_sigma: 0.2e-3,
                noise_sigma: 0.1e-3,
            },
        ),
    ];
    for (name, cmp) in variants {
        let config = HyCimConfig::default()
            .with_sweeps(20)
            .with_filter(FilterConfig::paper().with_comparator(cmp));
        let solver = HyCimEngine::new(&inst, &config, 2).expect("maps");
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(solver.solve(seed).value())
            })
        });
    }
    group.finish();
}

/// Swap-move ablation: pure single-flip vs the exchange-heavy default.
fn bench_swap_fraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_swap_fraction");
    group.sample_size(10);
    let inst = QkpGenerator::new(100, 0.5).generate(3);
    for swap in [0.0f64, 0.25, 0.5] {
        let mut config = HyCimConfig::default().with_sweeps(20);
        config.anneal.swap_probability = swap;
        let solver = HyCimEngine::new(&inst, &config, 3).expect("maps");
        group.bench_function(BenchmarkId::from_parameter(format!("{swap}")), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                black_box(solver.solve(seed).value())
            })
        });
    }
    group.finish();
}

/// D-QUBO encoding ablation: one-hot (paper) vs binary slack —
/// measures the transformation + state-construction cost difference
/// driven by the auxiliary count.
fn bench_dqubo_encoding(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_dqubo_encoding");
    group.sample_size(10);
    let inst = QkpGenerator::new(50, 0.5)
        .with_capacity_range(100, 400)
        .generate(4);
    for (name, enc) in [
        ("one_hot", AuxEncoding::OneHot),
        ("binary", AuxEncoding::Binary),
    ] {
        let config = DquboConfig::default().with_sweeps(5).with_encoding(enc);
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut seed = 0u64;
            b.iter(|| {
                let solver = hycim_core::DquboEngine::new(&inst, &config).expect("transforms");
                seed += 1;
                black_box(solver.solve(seed).value())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_quantization_bits,
    bench_comparator_noise,
    bench_swap_fraction,
    bench_dqubo_encoding
);
criterion_main!(benches);
