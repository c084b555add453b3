//! Property-based tests of the annealing engine.

use hycim_anneal::{
    AnnealState, Annealer, ConstantSchedule, GeometricSchedule, PenaltyState, Schedule,
    SoftwareState,
};
use hycim_cop::generator::QkpGenerator;
use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
use hycim_qubo::Assignment;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// All schedules produce non-negative, finite temperatures.
    #[test]
    fn schedules_are_sane(t0 in 0.1f64..1000.0, alpha in 0.01f64..1.0, iter in 0usize..10_000) {
        let g = GeometricSchedule::new(t0, alpha);
        let c = ConstantSchedule::new(t0);
        for s in [&g as &dyn Schedule, &c] {
            let t = s.temperature(iter, 10_000);
            prop_assert!(t.is_finite() && t >= 0.0);
        }
    }

    /// Trace bookkeeping: accepted + rejected + infeasible always
    /// equals the iteration count, and the best energy is a lower
    /// bound on every recorded energy.
    #[test]
    fn trace_invariants(seed in any::<u64>(), n in 4usize..20, iters in 10usize..400) {
        let inst = QkpGenerator::new(n, 0.5).generate(seed);
        let iq = inst.to_inequality_qubo().expect("valid");
        let mut state = SoftwareState::new(&iq, Assignment::zeros(n));
        let annealer = Annealer::new(GeometricSchedule::new(50.0, 0.99), iters);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = annealer.run(&mut state, &mut rng);
        prop_assert_eq!(trace.iterations(), iters);
        prop_assert_eq!(trace.energies().len(), iters + 1);
        for &e in trace.energies() {
            prop_assert!(trace.best_energy() <= e + 1e-9);
        }
        prop_assert!(iq.is_feasible(trace.best_assignment()));
    }

    /// Zero-temperature descent is monotone for any problem.
    #[test]
    fn greedy_descent_is_monotone(seed in any::<u64>(), n in 4usize..16) {
        let inst = QkpGenerator::new(n, 0.75).generate(seed);
        let iq = inst.to_inequality_qubo().expect("valid");
        let mut state = SoftwareState::new(&iq, Assignment::zeros(n));
        let annealer = Annealer::new(ConstantSchedule::new(0.0), 200);
        let mut rng = StdRng::seed_from_u64(seed);
        let trace = annealer.run(&mut state, &mut rng);
        for w in trace.energies().windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9);
        }
    }

    /// Pair probes are algebraically consistent: probing (i, j) equals
    /// the sequential flips' total delta.
    #[test]
    fn pair_probe_matches_sequential(seed in any::<u64>(), n in 4usize..12) {
        let inst = QkpGenerator::new(n, 1.0).generate(seed);
        let iq = inst.to_inequality_qubo().expect("valid");
        let mut state = SoftwareState::new(&iq, Assignment::zeros(n));
        let mut rng = StdRng::seed_from_u64(seed);
        let (i, j) = (0, n - 1);
        if let Some(delta) = state.probe_pair(i, j, &mut rng).settled(&mut state) {
            let before = state.energy();
            state.commit_pair(i, j, delta);
            let expected = iq.objective_energy(state.assignment());
            prop_assert!((state.energy() - expected).abs() < 1e-9);
            prop_assert!((state.energy() - before - delta).abs() < 1e-9);
        }
    }

    /// PenaltyState never vetoes and its energy matches the exact form
    /// after arbitrary committed walks.
    #[test]
    fn penalty_state_consistency(seed in any::<u64>(), n in 3usize..8, steps in 1usize..60) {
        let inst = QkpGenerator::new(n, 0.5)
            .with_capacity_range(5, 40)
            .generate(seed);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .expect("transformable");
        let mut state = PenaltyState::new(&form, Assignment::zeros(form.dim()));
        let mut rng = StdRng::seed_from_u64(seed);
        for s in 0..steps {
            let i = s % form.dim();
            match state.probe_flip(i, &mut rng).settled(&mut state) {
                Some(delta) => state.commit_flip(i, delta),
                None => prop_assert!(false, "penalty state vetoed"),
            }
        }
        prop_assert!((state.energy() - form.energy(state.assignment())).abs() < 1e-6);
    }

    /// A whole annealing run, exchange moves included, keeps the
    /// tracked energy exact on integer-valued instances: after
    /// `Annealer::run` the energy each state accumulated from its
    /// local-field deltas has the bits of the energy recomputed from
    /// the final assignment, for the filtered and the penalty form.
    #[test]
    fn tracked_energy_is_exact_after_full_runs(
        seed in any::<u64>(),
        n in 3usize..24,
        iters in 20usize..300,
    ) {
        let inst = QkpGenerator::new(n, 0.5)
            .with_capacity_range(5, 40)
            .generate(seed);
        let annealer = Annealer::new(GeometricSchedule::new(50.0, 0.995), iters)
            .with_swap_probability(0.5);

        let iq = inst.to_inequality_qubo().expect("valid");
        let mut software = SoftwareState::new(&iq, Assignment::zeros(n));
        annealer.run(&mut software, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(
            software.energy().to_bits(),
            iq.objective_energy(software.assignment()).to_bits()
        );

        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .expect("transformable");
        let mut penalty = PenaltyState::new(&form, Assignment::zeros(form.dim()));
        annealer.run(&mut penalty, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(
            penalty.energy().to_bits(),
            form.energy(penalty.assignment()).to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The run-level packed bit-identity law: a 64-lane packed sweep
    /// run over a max-cut or spin-glass instance equals 64 independent
    /// scalar `LocalFieldState` sweep runs — same best energies, best
    /// assignments, final energies, and aggregate move counts — when
    /// lane `k` consumes the RNG stream seeded for replica `k`.
    #[test]
    fn packed_run_bit_identical_to_scalar_replicas(
        seed in any::<u64>(),
        n in 8usize..40,
        family in 0usize..2,
        sweeps in 2usize..12,
    ) {
        use hycim_anneal::{run_packed_sweeps, run_replica_scalar, PackedSoftwareState, SweepSchedule};
        use hycim_cop::maxcut::MaxCut;
        use hycim_cop::spinglass::SpinGlass;
        use hycim_cop::CopProblem;
        use hycim_qubo::LANES;

        let iq = if family == 0 {
            CopProblem::to_inequality_qubo(&MaxCut::random(n, 0.2, seed)).expect("encodes")
        } else {
            CopProblem::to_inequality_qubo(&SpinGlass::random_binary(n.max(2), seed).expect("n >= 2"))
                .expect("encodes")
        };
        let lane_seed = |k: usize| seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k as u64);
        let mut rngs: Vec<StdRng> =
            (0..LANES).map(|k| StdRng::seed_from_u64(lane_seed(k))).collect();
        let initials: Vec<Assignment> = rngs
            .iter_mut()
            .map(|rng| CopProblem::initial(&iq, rng))
            .collect();
        let schedule = SweepSchedule::cooling_to(40.0, 0.02, sweeps);

        let state = PackedSoftwareState::new(&iq, &initials);
        let packed = run_packed_sweeps(state, sweeps, &schedule, &mut rngs);

        let (mut acc, mut rej, mut inf) = (0u64, 0u64, 0u64);
        for (k, initial) in initials.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(lane_seed(k));
            let _ = CopProblem::initial(&iq, &mut rng); // advance past the initial draw
            let scalar = run_replica_scalar(&iq, initial.clone(), sweeps, &schedule, &mut rng);
            prop_assert_eq!(
                packed.best_energies[k].to_bits(),
                scalar.best_energy.to_bits(),
                "lane {} best energy", k
            );
            prop_assert_eq!(
                &packed.best_assignments[k], &scalar.best_assignment,
                "lane {} best assignment", k
            );
            prop_assert_eq!(
                packed.final_energies[k].to_bits(),
                scalar.final_energy.to_bits(),
                "lane {} final energy", k
            );
            acc += scalar.accepted;
            rej += scalar.rejected;
            inf += scalar.infeasible;
        }
        prop_assert_eq!((packed.accepted, packed.rejected, packed.infeasible), (acc, rej, inf));
    }
}
