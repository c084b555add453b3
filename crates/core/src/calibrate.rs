use hycim_anneal::{AnnealState, AnnealTrace, Annealer, GeometricSchedule};
use rand::distr::{Distribution, Uniform};
use rand::rngs::StdRng;

use crate::AnnealSettings;

/// Calibrates the initial annealing temperature from the problem's
/// actual energy landscape: samples random flip deltas at the initial
/// state and returns `fraction × mean|Δ|` (at least 1).
///
/// QKP flip deltas scale with `density × selected items × pair
/// profits`, so a fixed T₀ that anneals a sparse instance correctly is
/// effectively greedy on a dense one; per-instance calibration keeps
/// the acceptance profile comparable across the benchmark set (the
/// paper's 40 instances span densities 25–100%).
fn calibrate_t0<S: AnnealState>(
    state: &mut S,
    fraction: f64,
    samples: usize,
    rng: &mut StdRng,
) -> f64 {
    assert!(fraction > 0.0, "fraction must be positive");
    assert!(samples > 0, "need at least one sample");
    let index = Uniform::new(0, state.dim()).expect("empty range in random_range");
    let mut sum = 0.0;
    let mut count = 0usize;
    for _ in 0..samples {
        let i = index.sample(rng);
        if let Some(delta) = state.probe_flip(i, rng).settled(&mut *state) {
            sum += delta.abs();
            count += 1;
        }
    }
    if count == 0 {
        // Every probe was filtered (start jammed against the
        // constraint); fall back to a generic profit-scale temperature.
        return 100.0 * fraction;
    }
    (fraction * sum / count as f64).max(1.0)
}

/// The shared annealing driver of every engine: calibrates T₀ from the
/// state's probed deltas (`fraction × mean|Δ|` over 64 sampled flips,
/// at least 1), derives
/// the geometric decay reaching `t_end_fraction × T₀` after
/// `sweeps × dim` iterations, and runs the Metropolis loop.
///
/// The HyCiM, D-QUBO, and software pipelines previously each inlined
/// this setup; keeping it in one place guarantees their schedules
/// cannot drift apart.
///
/// # Panics
///
/// Panics if `sweeps × dim` is zero or overflows `usize`.
///
/// # Example
///
/// ```
/// use hycim_anneal::SoftwareState;
/// use hycim_core::{run_annealing, HyCimConfig};
/// use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, QuboMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut q = QuboMatrix::zeros(2);
/// q.set(0, 0, -5.0);
/// let iq = InequalityQubo::new(q, LinearConstraint::new(vec![1, 1], 2)?)?;
/// let mut state = SoftwareState::new(&iq, Assignment::zeros(2));
/// let mut rng = StdRng::seed_from_u64(1);
/// let settings = HyCimConfig::default().with_sweeps(20).anneal;
/// let trace = run_annealing(&mut state, &settings, &mut rng);
/// assert_eq!(trace.best_energy(), -5.0);
/// # Ok(())
/// # }
/// ```
pub fn run_annealing<S: AnnealState>(
    state: &mut S,
    settings: &AnnealSettings,
    rng: &mut StdRng,
) -> AnnealTrace {
    let iterations = settings
        .sweeps
        .checked_mul(state.dim())
        .expect("sweeps × dim overflows usize");
    let t0 = calibrate_t0(state, settings.t0_fraction, 64, rng);
    let alpha = settings.t_end_fraction.powf(1.0 / iterations as f64);
    let mut annealer = Annealer::new(GeometricSchedule::new(t0, alpha), iterations)
        .with_swap_probability(settings.swap_probability);
    if !settings.record_trace {
        annealer = annealer.without_trace();
    }
    annealer.run(state, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_anneal::SoftwareState;
    use hycim_cop::generator::QkpGenerator;
    use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, QuboMatrix};
    use rand::SeedableRng;

    #[test]
    fn calibrates_to_the_fraction_of_the_mean_delta() {
        let mut q = QuboMatrix::zeros(2);
        q.set(0, 0, -40.0);
        q.set(1, 1, -60.0);
        let iq = InequalityQubo::new(q, LinearConstraint::new(vec![1, 1], 2).unwrap()).unwrap();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(2));
        let mut rng = StdRng::seed_from_u64(1);
        let t0 = calibrate_t0(&mut state, 0.5, 64, &mut rng);
        assert!((20.0..=30.0).contains(&t0)); // 0.5 × mean(40, 60)
    }

    #[test]
    fn denser_instances_calibrate_hotter() {
        let mut rng = StdRng::seed_from_u64(1);
        let t0_of = |density: f64, rng: &mut StdRng| {
            let inst = QkpGenerator::new(60, density).generate(9);
            let iq = inst.to_inequality_qubo().unwrap();
            // Start from a half-full configuration so deltas include
            // pair interactions.
            let mut x = Assignment::zeros(60);
            let mut load = 0;
            for i in 0..60 {
                if load + inst.weights()[i] <= inst.capacity() / 2 {
                    x.set(i, true);
                    load += inst.weights()[i];
                }
            }
            let mut state = SoftwareState::new(&iq, x);
            calibrate_t0(&mut state, 0.5, 128, rng)
        };
        let sparse = t0_of(0.25, &mut rng);
        let dense = t0_of(1.0, &mut rng);
        assert!(
            dense > 1.5 * sparse,
            "dense t0 {dense} not above sparse t0 {sparse}"
        );
    }

    #[test]
    fn calibration_does_not_mutate_state() {
        let inst = QkpGenerator::new(20, 0.5).generate(3);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(20));
        let before = state.assignment().clone();
        let e_before = state.energy();
        let mut rng = StdRng::seed_from_u64(2);
        let _ = calibrate_t0(&mut state, 0.5, 64, &mut rng);
        assert_eq!(state.assignment(), &before);
        assert_eq!(state.energy(), e_before);
    }

    #[test]
    fn floor_is_one() {
        let inst = QkpGenerator::new(5, 0.25).with_max_profit(1).generate(4);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(5));
        let mut rng = StdRng::seed_from_u64(3);
        assert!(calibrate_t0(&mut state, 0.001, 32, &mut rng) >= 1.0);
    }

    #[test]
    #[should_panic(expected = "sweeps × dim overflows")]
    fn overflowing_budget_panics_instead_of_wrapping() {
        let mut q = QuboMatrix::zeros(2);
        q.set(0, 0, -5.0);
        let iq = InequalityQubo::new(q, LinearConstraint::new(vec![1, 1], 2).unwrap()).unwrap();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(2));
        let mut settings = crate::HyCimConfig::default().anneal;
        // 2⁶³ + 1 sweeps over 2 variables wraps to 2 iterations.
        settings.sweeps = usize::MAX / 2 + 2;
        let _ = run_annealing(&mut state, &settings, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn zero_fraction_panics() {
        let inst = QkpGenerator::new(5, 0.5).generate(5);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(5));
        let mut rng = StdRng::seed_from_u64(4);
        let _ = calibrate_t0(&mut state, 0.0, 32, &mut rng);
    }
}
