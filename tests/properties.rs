//! Cross-crate property-based tests: invariants that must hold from
//! the problem layer down through the hardware models.

use hycim::cim::filter::{ComparatorConfig, FilterConfig, InequalityFilter};
use hycim::cim::Fidelity;
use hycim::cop::QkpInstance;
use hycim::fefet::VariationModel;
use hycim::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_instance() -> impl Strategy<Value = QkpInstance> {
    (2usize..12, 1u64..6).prop_flat_map(|(n, _)| {
        (
            proptest::collection::vec(0u64..=100, n),
            proptest::collection::vec(1u64..=50, n),
            1u64..=200,
            proptest::collection::vec(0u64..=100, n * (n - 1) / 2),
        )
            .prop_map(move |(profits, weights, cap_raw, pairs)| {
                let max_w = *weights.iter().max().expect("n >= 2");
                // Keep the capacity encodable by the replica array
                // (64 units per column) while letting at least one
                // item fit.
                let capacity = cap_raw.max(max_w).min(64 * n as u64);
                let mut inst =
                    QkpInstance::new(profits, weights, capacity).expect("valid construction");
                let n = inst.num_items();
                let mut it = pairs.into_iter();
                for i in 0..n {
                    for j in (i + 1)..n {
                        inst.set_pair_profit(i, j, it.next().expect("sized"));
                    }
                }
                inst
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The inequality-QUBO energy of any feasible configuration equals
    /// the negated QKP value; infeasible configurations are gated to 0.
    #[test]
    fn energy_value_duality(inst in arb_instance(), seed in any::<u64>()) {
        let iq = inst.to_inequality_qubo().expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Assignment::random(inst.num_items(), &mut rng);
        if inst.is_feasible(&x) {
            prop_assert_eq!(iq.energy(&x), -(inst.value(&x) as f64));
        } else {
            prop_assert_eq!(iq.energy(&x), 0.0);
        }
    }

    /// An ideal (noise-free) filter agrees with exact integer
    /// arithmetic on every configuration, including the boundary.
    #[test]
    fn ideal_filter_is_exact(inst in arb_instance(), seed in any::<u64>()) {
        let config = FilterConfig::default()
            .with_variation(VariationModel::none())
            .with_comparator(ComparatorConfig::ideal())
            .with_fidelity(Fidelity::Fast);
        let mut rng = StdRng::seed_from_u64(seed);
        let filter = InequalityFilter::build(
            inst.weights(),
            inst.capacity(),
            &config,
            &mut rng,
        ).expect("weights within range");
        let x = Assignment::random(inst.num_items(), &mut rng);
        prop_assert_eq!(
            filter.classify(&x, &mut rng).is_feasible(),
            inst.is_feasible(&x)
        );
    }

    /// HyCiM solutions are always feasible and never exceed the
    /// exhaustive optimum.
    #[test]
    fn hycim_solutions_are_sound(inst in arb_instance(), seed in any::<u64>()) {
        let (_, opt) = hycim::cop::solvers::exhaustive(&inst).expect("small");
        let solver = HyCimEngine::new(
            &inst,
            &HyCimConfig::default().with_sweeps(30),
            seed,
        ).expect("mappable");
        let solution = solver.solve(seed);
        prop_assert!(solution.feasible);
        prop_assert!(inst.is_feasible(&solution.assignment));
        prop_assert!(solution.value() <= opt, "value {} above optimum {}", solution.value(), opt);
        prop_assert_eq!(solution.value(), inst.value(&solution.assignment));
    }

    /// D-QUBO decoding always returns an item vector of the right
    /// size, and reported values match re-evaluation.
    #[test]
    fn dqubo_solutions_decode_consistently(inst in arb_instance(), seed in any::<u64>()) {
        let solver = DquboEngine::new(
            &inst,
            &DquboConfig::default().with_sweeps(20),
        ).expect("transformable");
        let solution = solver.solve(seed);
        prop_assert_eq!(solution.assignment.len(), inst.num_items());
        if solution.feasible {
            prop_assert_eq!(solution.value(), inst.value(&solution.assignment));
        } else {
            prop_assert_eq!(solution.value(), 0);
        }
    }
}
