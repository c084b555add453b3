//! The problem × engine matrix: every COP type in `hycim-cop` must
//! solve end-to-end through both the HyCiM pipeline (filter +
//! crossbar) and the D-QUBO penalty baseline, producing a typed
//! [`Solution`] — the "general COP framework" claim of paper Sec 3.2
//! made executable.

use hycim_cop::binpack::BinPacking;
use hycim_cop::coloring::GraphColoring;
use hycim_cop::knapsack::Knapsack;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::mkp::{MkpGenerator, MultiKnapsack};
use hycim_cop::spinglass::SpinGlass;
use hycim_cop::tsp::Tsp;
use hycim_cop::{CopProblem, QkpInstance};
use hycim_core::{
    BatchRunner, DquboConfig, DquboEngine, Engine, EngineKind, EngineSettings, HyCimConfig,
    HyCimEngine, SoftwareEngine, Solution,
};

/// Runs one problem through all three engine backends and returns the
/// HyCiM and D-QUBO solutions, checking the invariants every
/// (problem, engine) cell must satisfy.
fn solve_on_both<P: CopProblem>(problem: &P, sweeps: usize) -> (Solution<P>, Solution<P>) {
    let config = HyCimConfig::default().with_sweeps(sweeps);
    let hycim = HyCimEngine::new(problem, &config, 1)
        .unwrap_or_else(|e| panic!("{} does not map onto HyCiM: {e}", problem.kind()));
    let hy = hycim.solve(2);
    assert_eq!(hy.assignment.len(), problem.dim(), "{}", problem.kind());
    // The filter never admits a constraint violation into the
    // accepted trajectory.
    let iq = problem.to_inequality_qubo().expect("encodable");
    assert!(
        iq.is_feasible(&hy.assignment),
        "{}: HyCiM best violates the encoded inequality",
        problem.kind()
    );

    // The noise-free software backend runs the same encoding.
    let software = SoftwareEngine::new(problem, &config)
        .unwrap_or_else(|e| panic!("{} does not encode for software: {e}", problem.kind()));
    let sw = software.solve(2);
    assert_eq!(sw.assignment.len(), problem.dim(), "{}", problem.kind());
    assert!(
        iq.is_feasible(&sw.assignment),
        "{}: software best violates the encoded inequality",
        problem.kind()
    );
    assert_eq!(sw.objective, problem.objective(&sw.assignment));

    let dqubo = DquboEngine::new(problem, &DquboConfig::default().with_sweeps(sweeps))
        .unwrap_or_else(|e| panic!("{} has no D-QUBO form: {e}", problem.kind()));
    assert!(dqubo.form().dim() > problem.dim(), "{}", problem.kind());
    let dq = dqubo.solve(3);
    // The baseline decodes back to the problem's own variable space.
    assert_eq!(dq.assignment.len(), problem.dim(), "{}", problem.kind());

    for s in [&hy, &dq] {
        // Feasible solutions decode and carry a finite objective.
        if s.feasible {
            assert!(s.decoded.is_some(), "{}", problem.kind());
            assert!(s.objective.is_finite(), "{}", problem.kind());
        }
        assert_eq!(s.objective, problem.objective(&s.assignment));
    }
    (hy, dq)
}

#[test]
fn qkp_solves_on_both_engines() {
    let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
    inst.set_pair_profit(0, 1, 3);
    inst.set_pair_profit(0, 2, 7);
    inst.set_pair_profit(1, 2, 2);
    let (hy, _dq) = solve_on_both(&inst, 100);
    assert!(hy.feasible);
    assert_eq!(hy.value(), 25);
}

#[test]
fn knapsack_solves_on_both_engines() {
    let ks = Knapsack::new(vec![60, 100, 120], vec![10, 20, 30], 50).unwrap();
    let (hy, _dq) = solve_on_both(&ks, 150);
    assert!(hy.feasible);
    // The exact DP optimum is 220; HyCiM must reach it at this size.
    assert_eq!(hy.value(), 220);
    assert_eq!(ks.reference_objective(0), Some(-220.0));
}

#[test]
fn maxcut_solves_on_both_engines() {
    let g = MaxCut::random(12, 0.5, 1);
    let (_, opt) = g.brute_force().unwrap();
    let (hy, dq) = solve_on_both(&g, 300);
    assert!(hy.feasible, "max-cut has no infeasible states");
    let cut = g.cut_value(&hy.assignment);
    assert!(
        cut as f64 >= 0.9 * opt as f64,
        "HyCiM cut {cut} below 90% of optimum {opt}"
    );
    // The baseline also always decodes (unconstrained problem).
    assert!(dq.decoded.is_some());
}

#[test]
fn spin_glass_solves_on_both_engines() {
    let sg = SpinGlass::random_binary(10, 4).unwrap();
    let (_, ground) = sg.ground_state().unwrap();
    let (hy, _dq) = solve_on_both(&sg, 400);
    assert!(hy.feasible);
    let spins = hy.decoded.expect("spin states always decode");
    assert_eq!(spins.len(), 10);
    assert!(
        hy.objective <= 0.8 * ground,
        "HyCiM energy {} far from ground state {ground}",
        hy.objective
    );
}

#[test]
fn tsp_solves_on_both_engines() {
    let tsp = Tsp::random_euclidean(5, 10.0, 7).unwrap();
    let (hy, _dq) = solve_on_both(&tsp, 600);
    assert!(hy.feasible, "HyCiM did not find a valid tour");
    let tour = hy.decoded.expect("feasible TSP solutions decode to tours");
    let len = tsp.tour_length(&tour).unwrap();
    assert_eq!(hy.objective, len);
    // At 5 cities SA must at least match the greedy heuristic's scale.
    let nn = tsp.tour_length(&tsp.nearest_neighbor()).unwrap();
    assert!(len <= 1.5 * nn, "tour {len:.1} vs nearest-neighbor {nn:.1}");
}

#[test]
fn coloring_solves_on_both_engines() {
    let g = GraphColoring::random(6, 0.4, 3, 5);
    let (hy, _dq) = solve_on_both(&g, 400);
    assert!(hy.feasible, "HyCiM did not find a proper coloring");
    assert_eq!(hy.objective, 0.0);
    let colors = hy.decoded.expect("proper colorings decode");
    assert_eq!(colors.len(), 6);
}

#[test]
fn bin_packing_solves_on_both_engines() {
    let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
    let (hy, _dq) = solve_on_both(&bp, 500);
    assert!(hy.feasible, "HyCiM did not find a valid packing");
    assert_eq!(hy.objective, 0.0);
    let bins = hy.decoded.expect("valid packings decode");
    assert!(bp.is_valid_packing(&CopProblem::encode(&bp, &bins)));
}

/// Runs a multi-constraint problem through the bank engine, checking
/// the invariants every (problem, bank engine) cell must satisfy: the
/// returned best configuration passes every encoded constraint, and
/// the typed solution scores consistently.
fn solve_on_bank<P: CopProblem>(problem: &P, sweeps: usize, seed: u64) -> Solution<P> {
    let config = HyCimConfig::default().with_sweeps(sweeps);
    let bank = HyCimEngine::bank(problem, &config, 1)
        .unwrap_or_else(|e| panic!("{} does not map onto the bank: {e}", problem.kind()));
    let solution = bank.solve(seed);
    assert_eq!(
        solution.assignment.len(),
        problem.dim(),
        "{}",
        problem.kind()
    );
    let mq = problem.to_multi_inequality_qubo().expect("encodable");
    assert!(
        mq.is_feasible(&solution.assignment),
        "{}: bank best violates an encoded constraint (first: {:?})",
        problem.kind(),
        mq.first_violation(&solution.assignment)
    );
    assert_eq!(solution.objective, problem.objective(&solution.assignment));
    if solution.feasible {
        assert!(solution.decoded.is_some(), "{}", problem.kind());
    }
    solution
}

#[test]
fn bin_packing_is_bin_exact_on_the_bank_engine() {
    // The acceptance criterion: per-bin constraints enforced in
    // hardware, every returned solution bin-exact feasible — verified
    // against the domain decode, across several chip/solve seeds.
    let bp = BinPacking::new(vec![4, 5, 3, 6, 2, 7], 10, 3).unwrap();
    for seed in 0..5 {
        let sol = solve_on_bank(&bp, 400, seed);
        assert!(sol.feasible, "bank packing infeasible at seed {seed}");
        assert_eq!(sol.objective, 0.0);
        let bins = sol.decoded.expect("valid packings decode");
        let encoded = CopProblem::encode(&bp, &bins);
        assert!(bp.is_valid_packing(&encoded));
        // Bin-exact: every bin within its own capacity (not just the
        // aggregate the single-filter path enforces).
        for k in 0..bp.num_bins() {
            assert!(bp.bin_load(&encoded, k) <= bp.capacity(), "bin {k} over");
        }
    }
}

#[test]
fn mkp_solves_on_bank_and_single_filter_engines() {
    let mkp = MultiKnapsack::new(
        vec![10, 6, 8],
        vec![vec![4, 7, 2], vec![1, 2, 6]],
        vec![9, 7],
    )
    .unwrap();
    let sol = solve_on_bank(&mkp, 200, 2);
    assert!(sol.feasible, "bank MKP solutions satisfy every dimension");
    // The tiny instance's exact optimum must be reached.
    assert_eq!(sol.value(), 18);
    assert_eq!(mkp.reference_objective(0), Some(-18.0));

    // The aggregate relaxation also runs (on all three single-filter
    // backends) — its best may or may not be dimension-feasible, which
    // is exactly the gap the bank closes.
    let (hy, _dq) = solve_on_both(&mkp, 200);
    assert_eq!(hy.assignment.len(), 3);
}

#[test]
fn generated_mkp_instances_cover_the_bank_matrix() {
    // The generator feeds the matrix: a fresh MKP instance per seed
    // runs end-to-end on the bank engine and stays exact.
    for seed in 0..3 {
        let mkp = MkpGenerator::new(10, 2).generate(seed);
        let sol = solve_on_bank(&mkp, 150, seed);
        assert!(sol.feasible, "seed {seed}");
        // Compare against the exhaustive reference: the bank must land
        // within 80% of optimal on these tiny instances.
        let reference = -mkp.reference_objective(seed).expect("exact at n=10");
        assert!(
            sol.value() as f64 >= 0.8 * reference,
            "seed {seed}: bank value {} far from reference {reference}",
            sol.value()
        );
    }
}

#[test]
fn bank_engine_is_bit_identical_across_thread_counts() {
    // The second acceptance criterion: BatchRunner grids over the
    // bank engine reproduce bit-identically at any thread count.
    let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
    let engine = HyCimEngine::bank(&bp, &HyCimConfig::default().with_sweeps(60), 3).unwrap();
    let serial = BatchRunner::serial().run(&engine, 6, 42);
    for threads in [2, 4] {
        let parallel = BatchRunner::new().with_threads(threads).run(&engine, 6, 42);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.assignment, p.assignment, "{threads} threads diverged");
            assert_eq!(s.objective, p.objective);
            assert_eq!(s.reported_energy, p.reported_energy);
        }
    }
}

/// The one-pipeline law: on a single-constraint problem the `hycim`
/// and `bank` backends program the same one-filter chip from the same
/// hardware seed, so every solve agrees bit for bit — assignment,
/// reported energy, and the whole anneal trace.
fn check_hycim_equals_bank<P: CopProblem + 'static>(problem: &P) {
    let settings = EngineSettings::new(60, 5);
    let hycim = EngineKind::HyCim
        .build(problem, &settings)
        .expect("encodable");
    let bank = EngineKind::Bank
        .build(problem, &settings)
        .expect("encodable");
    let mq = problem.to_multi_inequality_qubo().expect("encodable");
    assert_eq!(mq.num_constraints(), 1, "{}", problem.kind());
    for seed in 0..3 {
        let (a, b) = (hycim.solve(seed), bank.solve(seed));
        assert_eq!(a.assignment, b.assignment, "{} seed {seed}", problem.kind());
        assert_eq!(
            a.reported_energy.to_bits(),
            b.reported_energy.to_bits(),
            "{} seed {seed}",
            problem.kind()
        );
        assert_eq!(a.trace, b.trace, "{} seed {seed}", problem.kind());
    }
}

#[test]
fn hycim_and_bank_agree_on_single_constraint_problems() {
    use hycim_cop::generator::QkpGenerator;
    check_hycim_equals_bank(&QkpGenerator::new(30, 0.5).generate(4));
    check_hycim_equals_bank(&Knapsack::new(vec![60, 100, 120], vec![10, 20, 30], 50).unwrap());
    check_hycim_equals_bank(&MaxCut::random(14, 0.4, 6));
    check_hycim_equals_bank(&SpinGlass::random_binary(12, 8).unwrap());
}

/// FNV-1a over a solve's assignment bits, reported-energy bits and
/// anneal-trace counts.
fn solve_digest<P: CopProblem>(s: &Solution<P>) -> u64 {
    let t = &s.trace;
    s.assignment
        .iter()
        .map(u64::from)
        .chain([s.reported_energy.to_bits()])
        .chain(
            [
                t.accepted(),
                t.rejected_metropolis(),
                t.rejected_infeasible(),
                t.iterations(),
            ]
            .map(|c| c as u64),
        )
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[test]
fn paper_scale_solves_are_pinned() {
    // Paper-scale instances (n = 100, weights up to 50), where most
    // proposals sit far from a filter's capacity. The study presets
    // use small instances, so these pins guard the regime in which the
    // filter's verdict is settled without its noise draws. The digests
    // were computed by the implementation that evaluated every noise
    // draw on every read.
    use hycim_cop::generator::QkpGenerator;
    let qkp = QkpGenerator::new(100, 0.5).generate(7);
    let hycim = HyCimEngine::new(&qkp, &HyCimConfig::default().with_sweeps(1000), 11).unwrap();
    assert_eq!(solve_digest(&hycim.solve(3)), 0xf1aa_088f_32f3_2011);

    let mkp = MkpGenerator::new(100, 5).generate(7);
    let bank = HyCimEngine::bank(&mkp, &HyCimConfig::default().with_sweeps(300), 11).unwrap();
    assert_eq!(solve_digest(&bank.solve(3)), 0x71bd_50f1_e6d4_7c0c);
}

#[test]
fn dqubo_solves_are_pinned() {
    // The D-QUBO readout path: every probe reads the crossbar with a
    // noise draw, and most uphill moves are rejected whatever it is.
    // A paper-style QKP (the baseline ends infeasible, objective 0)
    // and a max-cut (feasible, nonzero objective). The digests and
    // objective bits were computed by the implementation that
    // evaluated every readout draw.
    use hycim_cop::generator::QkpGenerator;
    fn check<P: CopProblem>(problem: &P, pins: [(u64, u64, f64); 2]) {
        let dqubo = DquboEngine::new(problem, &DquboConfig::default().with_sweeps(200)).unwrap();
        for (seed, digest, objective) in pins {
            let s = dqubo.solve(seed);
            assert_eq!(
                (solve_digest(&s), s.objective.to_bits()),
                (digest, objective.to_bits()),
                "{} seed {seed}",
                problem.kind()
            );
        }
    }
    check(
        &QkpGenerator::new(30, 0.5).generate(5),
        [
            (1, 0xb868_c025_6b6b_672b, 0.0),
            (2, 0x575b_1935_605c_bcf2, 0.0),
        ],
    );
    check(
        &MaxCut::random(20, 0.3, 4),
        [
            (1, 0x771d_9f8b_5943_a44c, -35.0),
            (2, 0x4e6b_f684_ed73_9732, -39.0),
        ],
    );
}

#[test]
fn dqubo_solve_through_a_field_refresh_is_pinned() {
    // The pins above accept fewer moves than one refresh interval, so
    // their local fields are never recomputed. This solve accepts more,
    // so its fields pass through at least one periodic refresh. The
    // digest was computed by the implementation that kept the fields
    // over CSR neighbor lists.
    use hycim_cop::generator::QkpGenerator;
    use hycim_qubo::local_field::DEFAULT_REFRESH_INTERVAL;
    let qkp = QkpGenerator::new(30, 0.5).generate(5);
    let dqubo = DquboEngine::new(&qkp, &DquboConfig::default().with_sweeps(300)).unwrap();
    let s = dqubo.solve(1);
    assert!(
        s.trace.accepted() >= DEFAULT_REFRESH_INTERVAL,
        "{} accepted moves never reach a refresh",
        s.trace.accepted()
    );
    assert_eq!(
        (solve_digest(&s), s.objective.to_bits()),
        (0xc051_41e5_b246_e830, 0.0f64.to_bits())
    );
}

#[test]
fn packed_solves_are_pinned() {
    // The 64-lane packed engine as `EngineKind::Packed` builds it. The
    // lane law compares each lane against its scalar twin; these pins
    // fix the absolute output — the best lane's assignment, energy and
    // the counts of all 64 lanes — on a QKP and a max-cut.
    use hycim_cop::generator::QkpGenerator;
    fn check<P: CopProblem + 'static>(problem: &P, pins: [(u64, u64, f64); 2]) {
        let packed = EngineKind::Packed
            .build(problem, &EngineSettings::new(120, 0))
            .expect("encodable");
        for (seed, digest, objective) in pins {
            let s = packed.solve(seed);
            assert_eq!(
                (solve_digest(&s), s.objective.to_bits()),
                (digest, objective.to_bits()),
                "{} seed {seed}",
                problem.kind()
            );
        }
    }
    check(
        &QkpGenerator::new(40, 0.5).generate(3),
        [
            (1, 0x722d_510e_1e31_b46a, -8553.0),
            (2, 0x18bb_33d1_374d_a042, -8551.0),
        ],
    );
    check(
        &MaxCut::random(30, 0.3, 5),
        [
            (1, 0xbada_864c_e71b_fd4f, -103.0),
            (2, 0x7926_a9f6_3acc_85d6, -103.0),
        ],
    );
}

/// Fabricate once: an engine programs one chip and its solves only read
/// it. An engine that has already solved other seeds — first from 4
/// `BatchRunner` threads at once, then serially — returns for every
/// seed the solution a freshly built engine returns: the same
/// assignment, reported-energy bits and anneal trace (energies
/// recorded), whether solved again from 4 threads or serially.
fn check_shared_chip<P: CopProblem, E: Engine<P>>(build: impl Fn() -> E) {
    let used = build();
    let label = format!("{}/{}", used.problem().kind(), used.backend());
    let runner = BatchRunner::new().with_threads(4);
    runner.run_seeds(&used, &(200..208).collect::<Vec<u64>>());
    for seed in [100, 101] {
        used.solve(seed);
    }
    let seeds: Vec<u64> = (0..8).collect();
    let concurrent = runner.run_seeds(&used, &seeds);
    for (&seed, from_threads) in seeds.iter().zip(&concurrent) {
        let fresh = build().solve(seed);
        for s in [from_threads, &used.solve(seed)] {
            assert_eq!(s.assignment, fresh.assignment, "{label} seed {seed}");
            assert_eq!(
                s.reported_energy.to_bits(),
                fresh.reported_energy.to_bits(),
                "{label} seed {seed}"
            );
            assert_eq!(s.trace, fresh.trace, "{label} seed {seed}");
        }
    }
}

#[test]
fn solves_on_a_shared_chip_equal_solves_on_a_fresh_one() {
    use hycim_cop::generator::QkpGenerator;
    let hycim = HyCimConfig::default().with_sweeps(60).with_trace();
    let qkp = QkpGenerator::new(30, 0.5).generate(2);
    check_shared_chip(|| HyCimEngine::new(&qkp, &hycim, 5).unwrap());
    let mkp = MkpGenerator::new(20, 3).generate(3);
    check_shared_chip(|| HyCimEngine::bank(&mkp, &hycim, 5).unwrap());
    let dqubo = DquboConfig {
        anneal: hycim.anneal,
        ..DquboConfig::default()
    };
    let small = QkpGenerator::new(12, 0.5).generate(4);
    check_shared_chip(|| DquboEngine::new(&small, &dqubo).unwrap());
}

#[test]
fn batch_runner_covers_the_matrix_deterministically() {
    // One problem family per constraint class, both thread counts.
    let g = MaxCut::random(10, 0.5, 9);
    let engine = HyCimEngine::new(&g, &HyCimConfig::default().with_sweeps(50), 2).unwrap();
    let serial = BatchRunner::serial().run(&engine, 4, 11);
    let parallel = BatchRunner::new().with_threads(4).run(&engine, 4, 11);
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.assignment, p.assignment);
        assert_eq!(s.objective, p.objective);
    }
}

mod packed_bit_identity {
    //! The engine-level bit-identity law of the packed engine: lane
    //! `k` of `PackedEngine::solve(seed)` is exactly the scalar
    //! sweep-reference replica seeded with `replica_seed(seed, 0, k)`.

    use super::*;
    use hycim_anneal::{run_replica_scalar, PackedSoftwareState};
    use hycim_core::{replica_seed, PackedConfig, PackedEngine};
    use hycim_qubo::LANES;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn check_lanes_match_scalar<P: CopProblem>(problem: &P, sweeps: usize, seed: u64) {
        let config = PackedConfig::paper().with_sweeps(sweeps);
        let engine = PackedEngine::new(problem, &config).expect("encodable");
        let packed = engine.lane_outcomes(seed);

        // Reconstruct the deterministic schedule from the initials the
        // lane streams draw (the T₀ probe is RNG-free by contract).
        let iq = problem.to_inequality_qubo().expect("encodable");
        let mut streams: Vec<StdRng> = (0..LANES as u64)
            .map(|k| StdRng::seed_from_u64(replica_seed(seed, 0, k)))
            .collect();
        let initials: Vec<_> = streams.iter_mut().map(|rng| problem.initial(rng)).collect();
        let state = PackedSoftwareState::new(&iq, &initials);
        let schedule = engine.schedule_for(&state);

        let (mut accepted, mut rejected, mut infeasible) = (0u64, 0u64, 0u64);
        for (k, rng) in streams.iter_mut().enumerate() {
            // The stream continues where the initial draw left it —
            // exactly what the packed lane consumed.
            let scalar = run_replica_scalar(&iq, initials[k].clone(), sweeps, &schedule, rng);
            assert_eq!(
                packed.best_energies[k].to_bits(),
                scalar.best_energy.to_bits(),
                "lane {k} best energy diverged"
            );
            assert_eq!(
                packed.best_assignments[k], scalar.best_assignment,
                "lane {k} best assignment diverged"
            );
            assert_eq!(
                packed.final_energies[k].to_bits(),
                scalar.final_energy.to_bits(),
                "lane {k} final energy diverged"
            );
            accepted += scalar.accepted;
            rejected += scalar.rejected;
            infeasible += scalar.infeasible;
        }
        assert_eq!(
            (packed.accepted, packed.rejected, packed.infeasible),
            (accepted, rejected, infeasible),
            "aggregate counts diverged"
        );

        // And the engine's Solution reports the best of those lanes.
        let solution = engine.solve(seed);
        let k = packed.best_lane();
        assert_eq!(
            solution.reported_energy.to_bits(),
            packed.best_energies[k].to_bits()
        );
        assert_eq!(solution.assignment, packed.best_assignments[k]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// 64 packed lanes == 64 scalar replicas, bit for bit, under
        /// the `replica_seed` stream contract (max-cut).
        #[test]
        fn packed_engine_lanes_equal_scalar_replicas_maxcut(
            n in 12usize..40,
            density in 0.1f64..0.5,
            instance_seed in 0u64..1000,
            solve_seed in 0u64..1000,
        ) {
            let g = MaxCut::random(n, density, instance_seed);
            check_lanes_match_scalar(&g, 12, solve_seed);
        }

        /// The same law on spin glasses (signed couplings).
        #[test]
        fn packed_engine_lanes_equal_scalar_replicas_spinglass(
            n in 10usize..30,
            instance_seed in 0u64..1000,
            solve_seed in 0u64..1000,
        ) {
            let sg = SpinGlass::random_binary(n, instance_seed).unwrap();
            check_lanes_match_scalar(&sg, 10, solve_seed);
        }
    }

    /// The law at a larger size and a longer schedule than the
    /// proptest cells: n = 64 over 240 sweeps, instance seed `1 + n`.
    #[test]
    fn packed_engine_lanes_equal_scalar_replicas_at_n64() {
        check_lanes_match_scalar(&MaxCut::random(64, 0.05, 65), 240, 1);
        let sg = SpinGlass::random_binary(64, 65).unwrap();
        check_lanes_match_scalar(&sg, 240, 1);
    }

    #[test]
    fn packed_engine_covers_the_qkp_matrix() {
        use hycim_cop::generator::QkpGenerator;
        let inst = QkpGenerator::new(20, 0.5).generate(1);
        check_lanes_match_scalar(&inst, 25, 7);
    }
}
