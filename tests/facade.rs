//! Workspace smoke test: the facade's re-exports must keep resolving
//! to the sub-crate types, so `hycim::...` paths cannot silently drift
//! from the crates they forward to.

use hycim::prelude::*;

/// Every facade module path re-exports the matching sub-crate: a type
/// reached through `hycim::<module>` must be the *same type* as the
/// one in the underlying `hycim_*` crate.
#[test]
fn facade_modules_alias_subcrates() {
    // Same-type checks (not just name collisions): an identity
    // function pins each pair of paths to one type.
    fn same<T>(_: fn(T) -> T) {}
    same::<hycim::qubo::Assignment>(std::convert::identity::<hycim_qubo::Assignment>);
    same::<hycim::qubo::QuboMatrix>(std::convert::identity::<hycim_qubo::QuboMatrix>);
    same::<hycim::cop::QkpInstance>(std::convert::identity::<hycim_cop::QkpInstance>);
    same::<hycim::fefet::FefetCell>(std::convert::identity::<hycim_fefet::FefetCell>);
    same::<hycim::cim::Fidelity>(std::convert::identity::<hycim_cim::Fidelity>);
    same::<hycim::anneal::AnnealTrace>(std::convert::identity::<hycim_anneal::AnnealTrace>);
    same::<hycim::core::Solution<hycim::cop::QkpInstance>>(
        std::convert::identity::<hycim_core::Solution<hycim_cop::QkpInstance>>,
    );
    same::<hycim::net::WireSolution>(std::convert::identity::<hycim_net::WireSolution>);
    same::<hycim::service::DisposeOutcome>(std::convert::identity::<hycim_service::DisposeOutcome>);
    same::<hycim::obs::Snapshot>(std::convert::identity::<hycim_obs::Snapshot>);
    same::<hycim::obs::Event>(std::convert::identity::<hycim_obs::Event>);
}

/// The prelude surface named in the facade docs resolves and is
/// usable end-to-end: build a tiny instance, solve it, check the
/// solution through prelude types only.
#[test]
fn prelude_surface_is_usable() {
    let instance = QkpGenerator::new(12, 0.5).generate(3);
    let solver = HyCimEngine::new(&instance, &HyCimConfig::default().with_sweeps(30), 1)
        .expect("small instance maps onto the paper-sized hardware");
    let solution: Solution<QkpInstance> = solver.solve(7);
    assert!(solution.feasible);
    assert_eq!(solution.assignment.len(), 12);

    let x = Assignment::from_bits([true, false]);
    assert_eq!(x.ones(), 1);
}

/// Deep module paths advertised in the facade's module table stay
/// reachable (`hycim::<module>::<submodule>::Type`).
#[test]
fn nested_module_paths_resolve() {
    let _ = hycim::cop::generator::QkpGenerator::new(5, 0.5);
    let _ = hycim::qubo::dqubo::PenaltyWeights::PAPER;
    let _: hycim::cim::filter::FilterConfig = FilterConfig::default();
    let _: hycim::core::HycimError;
}

/// The wire surface is reachable through the facade: spin up a
/// loopback worker, submit a solve over real TCP through prelude
/// types only, and the fetched result matches a direct local solve.
#[test]
fn net_surface_round_trips_a_job() {
    use hycim::cop::maxcut::MaxCut;
    use hycim::cop::AnyProblem;
    use hycim::core::{EngineKind, EngineSettings};
    use hycim::net::WorkerConfig;

    let problem = MaxCut::random(8, 0.5, 4);
    let any = AnyProblem::from(problem.clone());
    let handle = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
        .expect("bind loopback")
        .spawn();
    let mut client = WorkerClient::connect(handle.addr()).expect("connect");
    let spec = JobSpec {
        family: any.family_tag().to_string(),
        problem: any.to_wire(),
        engine: EngineKind::Software.tag().to_string(),
        sweeps: 30,
        hardware_seed: 1,
        record_trace: true,
        seeds: vec![9],
    };
    let job = client.submit(&spec).expect("submit");
    let fetched = client.wait_fetch(job).expect("fetch");

    let engine = EngineKind::Software
        .build(&problem, &EngineSettings::new(30, 1))
        .expect("builds");
    let local = WireSolution::from_solution(&engine.solve(9));
    assert_eq!(fetched, vec![local]);
    handle.stop();
}

/// The observability surface is reachable through the facade and the
/// prelude: record through prelude types only, then check the
/// deterministic snapshot form and the wire `stats` verb against a
/// loopback worker.
#[test]
fn obs_surface_records_and_scrapes() {
    let registry = ObsRegistry::new();
    registry.counter("facade.test").add(3);
    registry.gauge("facade.level").set(2);
    registry.histogram("facade.sizes").record(8.0);
    let snapshot: Snapshot = registry.snapshot();
    assert_eq!(snapshot.counter("facade.test"), Some(3));
    assert!(snapshot.render_stable().contains("facade.test 3"));
    assert!(snapshot.render_prometheus().contains("hycim_facade_test 3"));

    // The wire scrape goes through the same facade surface.
    let handle = WorkerServer::bind("127.0.0.1:0", hycim::net::WorkerConfig::new())
        .expect("bind loopback")
        .spawn();
    let mut client = WorkerClient::connect(handle.addr()).expect("connect");
    let scraped = client.stats().expect("stats verb");
    assert!(scraped.counter("net.frames_in").unwrap_or(0) >= 1);
    handle.stop();
}

/// The filter-bank pipeline surface is reachable through the prelude:
/// encode a multi-constraint problem, build its bank, classify a
/// configuration, and solve it on `HyCimEngine::bank`.
#[test]
fn bank_pipeline_surface_is_usable() {
    use rand::{rngs::StdRng, SeedableRng};

    let mkp = MkpGenerator::new(8, 2).generate(1);
    let multi: MultiInequalityQubo = mkp.to_multi_inequality_qubo().expect("encodable");
    assert_eq!(multi.num_constraints(), 2);

    let mut rng = StdRng::seed_from_u64(2);
    let bank = FilterBank::build(multi.constraints(), &FilterConfig::default(), &mut rng)
        .expect("generated weights fit the filter columns");
    let decision: BankDecision = bank.classify(&Assignment::zeros(8), &mut rng);
    assert!(decision.is_feasible());
    assert_eq!(decision.first_violation(), None);

    let engine = HyCimEngine::bank(&mkp, &HyCimConfig::default().with_sweeps(30), 1)
        .expect("generated instances map onto the bank");
    let solution: Solution<MultiKnapsack> = engine.solve(5);
    assert!(multi.is_feasible(&solution.assignment));
}
