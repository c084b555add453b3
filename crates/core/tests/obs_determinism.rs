//! The observability determinism law: instrumentation consumes zero
//! RNG draws, so every engine returns **bit-identical** `Solution`s
//! whether or not a `BatchRunner` publishes into a metrics registry,
//! and a metrics snapshot minus the `timing.` section is
//! byte-identical across two runs of the same seed. No test here
//! touches process-global state: each run owns its registry.

use std::sync::Arc;

use hycim_cop::generator::QkpGenerator;
use hycim_core::{BatchRunner, EngineKind, EngineSettings, HyCimConfig, SoftwareEngine};
use hycim_obs::{Event, ObsRegistry};

/// Every engine kind, with and without `with_obs`: the solves must not
/// differ by a single bit, and the instrumented run must actually have
/// published its anneal counters and phase events.
#[test]
fn solutions_are_bit_identical_with_and_without_a_registry() {
    let inst = QkpGenerator::new(20, 0.5).generate(11);
    let settings = EngineSettings::new(30, 2);

    for kind in EngineKind::ALL {
        let engine = kind
            .build(&inst, &settings)
            .expect("QKP encodes everywhere");
        let bare = BatchRunner::serial().run(&engine, 3, 7);

        let obs = Arc::new(ObsRegistry::new());
        let instrumented = BatchRunner::serial()
            .with_threads(2)
            .with_obs(Arc::clone(&obs))
            .run(&engine, 3, 7);

        for (replica, (a, b)) in bare.iter().zip(&instrumented).enumerate() {
            assert_eq!(
                a.assignment, b.assignment,
                "{kind} diverged at replica {replica}"
            );
            assert_eq!(
                a.objective, b.objective,
                "{kind} objective at replica {replica}"
            );
            assert_eq!(
                a.reported_energy, b.reported_energy,
                "{kind} energy at replica {replica}"
            );
            assert_eq!(
                a.feasible, b.feasible,
                "{kind} feasibility at replica {replica}"
            );
            assert_eq!(a.trace, b.trace, "{kind} trace at replica {replica}");
        }

        // The instrumented run published one solve per replica, with
        // the counts read off the traces.
        let snapshot = obs.snapshot();
        assert_eq!(
            snapshot.counter("core.anneal.solves"),
            Some(3),
            "{kind} published no solve counters"
        );
        let iterations: usize = instrumented.iter().map(|s| s.trace.iterations()).sum();
        assert_eq!(
            snapshot.counter("core.anneal.iterations"),
            Some(iterations as u64),
            "{kind} published the wrong iteration count"
        );
        let accepted: usize = instrumented.iter().map(|s| s.trace.accepted()).sum();
        assert_eq!(
            snapshot.counter("core.anneal.accepted"),
            Some(accepted as u64)
        );
        let phases: Vec<_> = obs
            .tracer()
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::AnnealPhase { label, .. } => Some(label),
                _ => None,
            })
            .collect();
        assert_eq!(phases, vec![kind.tag(); 3], "{kind} phase events");
    }
}

/// The stable snapshot form is a pure function of the work: two
/// same-seed `BatchRunner` runs — at *different thread counts* —
/// produce byte-identical `render_stable()` output, while the
/// wall-clock observations stay quarantined in the `timing.` section.
#[test]
fn stable_snapshots_are_byte_identical_across_runs() {
    let inst = QkpGenerator::new(18, 0.5).generate(4);
    let engine = SoftwareEngine::new(&inst, &HyCimConfig::default().with_sweeps(25))
        .expect("software engine builds");

    let run = |threads: usize| {
        let obs = Arc::new(ObsRegistry::new());
        let runner = BatchRunner::serial()
            .with_threads(threads)
            .with_obs(Arc::clone(&obs));
        let cells = runner.run(&engine, 6, 42);
        assert_eq!(cells.len(), 6);
        obs.snapshot()
    };

    let first = run(1);
    let second = run(4);

    let stable = first.render_stable();
    assert_eq!(
        stable,
        second.render_stable(),
        "stable form varied across identical-seed runs"
    );
    // The batch counters made it in; the wall clock stayed out.
    assert!(stable.contains("batch.cells 6"));
    assert!(stable.contains("batch.iterations "));
    assert!(!stable.contains("timing."));
    assert_eq!(
        first
            .histogram("timing.batch.cell_seconds")
            .map(|h| h.count()),
        Some(6),
        "wall-clock observations were recorded, just quarantined"
    );
    assert!(first.render().contains("timing.batch.cell_seconds"));
}
