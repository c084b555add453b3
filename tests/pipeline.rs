//! End-to-end integration tests spanning every crate: problem
//! generation → transformation → hardware mapping → annealing →
//! decoded solutions.

use hycim::cop::generator::QkpGenerator;
use hycim::cop::{parser, solvers};
use hycim::core::{DquboConfig, DquboEngine, HyCimConfig, HyCimEngine, SoftwareEngine};
use hycim::prelude::*;
use hycim::qubo::dqubo::{AuxEncoding, PenaltyWeights};

/// The paper's Fig. 7(e) worked example as an instance.
fn fig7e() -> QkpInstance {
    let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9)
        .unwrap()
        .with_name("fig7e");
    inst.set_pair_profit(0, 1, 3);
    inst.set_pair_profit(0, 2, 7);
    inst.set_pair_profit(1, 2, 2);
    inst
}

#[test]
fn full_pipeline_on_fig7e() {
    let inst = fig7e();
    let solver =
        HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(100), 1).expect("mappable");
    let solution = solver.solve(3);
    assert!(solution.feasible);
    assert_eq!(solution.value(), 25);
}

#[test]
fn hardware_and_software_agree_on_small_instances() {
    // Hardware non-idealities must not change *which* solutions are
    // reachable on exhaustively checkable sizes.
    for seed in 0..5 {
        let inst = QkpGenerator::new(15, 0.5).generate(seed);
        let (_, opt) = solvers::exhaustive(&inst).expect("small instance");
        let config = HyCimConfig::default().with_sweeps(200);
        let hw = HyCimEngine::new(&inst, &config, seed).expect("mappable");
        let sw = SoftwareEngine::new(&inst, &config).expect("transformable");
        let hv = hw.solve(seed).value();
        let sv = sw.solve(seed).value();
        assert!(
            hv as f64 >= 0.9 * opt as f64,
            "hardware too weak at seed {seed}: {hv} vs optimum {opt}"
        );
        assert!(
            sv as f64 >= 0.9 * opt as f64,
            "software too weak at seed {seed}: {sv} vs optimum {opt}"
        );
    }
}

#[test]
fn hycim_beats_dqubo_on_benchmark_instances() {
    // The Fig. 10 headline at reduced scale: HyCiM's success rate must
    // clearly dominate the D-QUBO baseline on benchmark-style
    // instances.
    let mut hycim_successes = 0;
    let mut dqubo_successes = 0;
    let runs = 6;
    for seed in 0..runs {
        let inst = QkpGenerator::new(50, 0.5).generate(seed);
        let (_, best) = solvers::best_known(&inst, 10, seed);

        let hycim =
            HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(300), seed).unwrap();
        if hycim.solve(seed).is_success(best) {
            hycim_successes += 1;
        }

        let dqubo = DquboEngine::new(&inst, &DquboConfig::default().with_sweeps(60)).unwrap();
        if dqubo.solve(seed).is_success(best) {
            dqubo_successes += 1;
        }
    }
    assert!(
        hycim_successes >= runs - 1,
        "HyCiM only {hycim_successes}/{runs}"
    );
    assert!(
        hycim_successes > dqubo_successes,
        "no separation: HyCiM {hycim_successes}, D-QUBO {dqubo_successes}"
    );
}

#[test]
fn parsed_instances_round_trip_through_the_solver() {
    // Generator → CNAM text → parser → solver.
    let inst = QkpGenerator::new(30, 0.75).generate(9);
    let text = parser::write_qkp(&inst);
    let parsed = parser::parse_qkp(&text).expect("own output parses");
    assert_eq!(parsed, inst);
    let solver =
        HyCimEngine::new(&parsed, &HyCimConfig::default().with_sweeps(100), 2).expect("mappable");
    let solution = solver.solve(4);
    assert!(solution.feasible);
    assert!(solution.value() > 0);
}

#[test]
fn dqubo_dimensions_match_paper_ranges() {
    // Fig. 9(a,b) invariants over the standard benchmark set shape.
    let inst = QkpGenerator::new(100, 0.5).generate(11);
    let iq = inst.to_inequality_qubo().unwrap();
    assert_eq!(iq.dim(), 100);
    assert!(iq.objective().max_abs_element() <= 100.0);

    let form = inst
        .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::OneHot)
        .unwrap();
    let dim = form.dim();
    assert!((200..=2636).contains(&dim), "D-QUBO dim {dim}");
    let qmax = form.matrix().max_abs_element();
    assert!(
        (1.0e4..=3.0e7).contains(&qmax),
        "D-QUBO (Q)MAX {qmax:.3e} outside the paper's 4·10⁴..2.6·10⁷ band"
    );
}

#[test]
fn filter_and_constraint_agree_across_the_benchmark_set() {
    // The inequality filter must agree with exact integer arithmetic
    // on Monte-Carlo configurations away from the noise boundary.
    use hycim::cim::filter::{FilterConfig, InequalityFilter};
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(5);
    for seed in 0..3 {
        let inst = QkpGenerator::new(100, 0.25).generate(seed);
        let constraint = inst.constraint();
        let filter = InequalityFilter::build(
            inst.weights(),
            inst.capacity(),
            &FilterConfig::default(),
            &mut rng,
        )
        .expect("mappable");
        let mut checked = 0;
        while checked < 20 {
            let x = Assignment::random_with_density(100, 0.4, &mut rng);
            let load = constraint.load(&x);
            // Skip the ±2-unit noise band around the boundary; the
            // hardware is honestly uncertain there.
            if load.abs_diff(inst.capacity()) <= 2 {
                continue;
            }
            assert_eq!(
                filter.classify(&x, &mut rng).is_feasible(),
                constraint.is_satisfied(&x),
                "filter disagreed at load {load} vs C {}",
                inst.capacity()
            );
            checked += 1;
        }
    }
}

#[test]
fn solver_error_paths_are_reported() {
    // Weight above the filter column limit.
    let inst = QkpInstance::new(vec![1, 1], vec![90, 3], 50).unwrap();
    let err = HyCimEngine::new(&inst, &HyCimConfig::default(), 1).unwrap_err();
    assert!(err.to_string().contains("cim layer"));
}
