//! Hardware-model validation at the paper's full array scale: the
//! fast (SA hot-loop) and device-accurate paths must be statistically
//! equivalent, and noisy hardware must track the exact arithmetic
//! within its documented noise budget.

use hycim::cim::filter::{FilterConfig, InequalityFilter};
use hycim::cim::linearity::measure_linearity;
use hycim::cim::Fidelity;
use hycim::cop::generator::QkpGenerator;
use hycim::fefet::VariationModel;
use hycim::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// At the 16×100 scale of Sec 4.1, both fidelities classify the same
/// Monte-Carlo configurations identically away from the boundary.
#[test]
fn fidelities_agree_at_paper_scale() {
    let inst = QkpGenerator::new(100, 0.5).generate(1);
    let mut rng = StdRng::seed_from_u64(2);
    let dev = InequalityFilter::build(
        inst.weights(),
        inst.capacity(),
        &FilterConfig::default().with_fidelity(Fidelity::DeviceAccurate),
        &mut rng,
    )
    .expect("paper-scale filter");
    let fast = InequalityFilter::build(
        inst.weights(),
        inst.capacity(),
        &FilterConfig::default().with_fidelity(Fidelity::Fast),
        &mut rng,
    )
    .expect("paper-scale filter");
    let constraint = inst.constraint();
    let mut checked = 0;
    while checked < 30 {
        let x = Assignment::random_with_density(100, 0.35, &mut rng);
        let load = constraint.load(&x);
        if load.abs_diff(inst.capacity()) <= 3 {
            continue; // honest uncertainty band
        }
        let expected = constraint.is_satisfied(&x);
        assert_eq!(dev.classify(&x, &mut rng).is_feasible(), expected);
        assert_eq!(fast.classify(&x, &mut rng).is_feasible(), expected);
        checked += 1;
    }
}

/// The ML voltage of the device-accurate path stays within a few
/// noise units of the analytic prediction `VDD − f·ΔV·load` across the
/// full load range.
#[test]
fn device_ml_tracks_analytic_prediction() {
    let weights: Vec<u64> = (0..100).map(|i| i % 50 + 1).collect();
    let config = FilterConfig::default().with_fidelity(Fidelity::DeviceAccurate);
    let mut rng = StdRng::seed_from_u64(3);
    let filter = InequalityFilter::build(&weights, 1000, &config, &mut rng).expect("mappable");
    let unit = filter.working_array().matchline_config().unit_drop();
    let vdd = filter.working_array().matchline_config().vdd;
    // The series-blend conducts ~98% of the clamp current.
    let eff = 1.0e-4 / (1.0e-4 + 2.0e-6);
    for ones in [0usize, 10, 40, 80] {
        let x = Assignment::from_bits((0..100).map(|i| i < ones));
        let load: u64 = weights[..ones].iter().sum();
        let ml = filter.working_array().evaluate(&x, &mut rng);
        let predicted = vdd - eff * unit * load as f64;
        let tolerance = unit * (3.0 + 0.1 * (load as f64).sqrt());
        assert!(
            (ml - predicted).abs() < tolerance,
            "load {load}: ML {ml:.5} vs predicted {predicted:.5}"
        );
    }
}

/// Chip-scale linearity (Fig. 7(d) protocol) holds for arbitrary seeds.
#[test]
fn linearity_is_seed_robust() {
    for seed in [1u64, 7, 99] {
        let sweep = measure_linearity(32, 32, 32, 5, &VariationModel::paper(), seed);
        assert!(
            sweep.r_squared() > 0.999,
            "seed {seed}: R² {}",
            sweep.r_squared()
        );
        let slope = sweep.slope() * 1e6;
        assert!(
            (1.8..2.1).contains(&slope),
            "seed {seed}: slope {slope} µA/cell"
        );
    }
}

/// Noisy hardware solving must stay within a modest gap of noise-free
/// software solving on the same instances and seeds.
#[test]
fn hardware_noise_costs_little_quality() {
    let mut hw_total = 0u64;
    let mut sw_total = 0u64;
    for seed in 0..4 {
        let inst = QkpGenerator::new(60, 0.5).generate(seed);
        let config = HyCimConfig::default().with_sweeps(300);
        let hw = HyCimEngine::new(&inst, &config, seed).expect("maps");
        let sw = SoftwareEngine::new(&inst, &config).expect("transforms");
        hw_total += hw.solve(seed).value();
        sw_total += sw.solve(seed).value();
    }
    assert!(
        hw_total as f64 >= 0.95 * sw_total as f64,
        "hardware total {hw_total} below 95% of software total {sw_total}"
    );
}

/// Variability sweep: success survives 2× the calibrated device noise,
/// degrades gracefully rather than collapsing.
#[test]
fn variability_degrades_gracefully() {
    let inst = QkpGenerator::new(50, 0.5).generate(5);
    let mut values = Vec::new();
    for scale in [0.0, 1.0, 2.0] {
        let config = HyCimConfig::default().with_sweeps(200).with_filter(
            FilterConfig::default().with_variation(VariationModel::paper().scaled(scale)),
        );
        let solver = HyCimEngine::new(&inst, &config, 5).expect("maps");
        values.push(solver.solve(5).value());
    }
    // No collapse: the noisiest run keeps ≥ 90% of the ideal run.
    assert!(
        values[2] as f64 >= 0.9 * values[0] as f64,
        "2x variability collapsed quality: {values:?}"
    );
}
