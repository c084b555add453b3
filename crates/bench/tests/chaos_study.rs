//! The resilience pin on the study artifact itself: a distributed
//! study run through fault-injection proxies — a worker that keeps
//! dying mid-run, a flaky worker that recovers, seeded backoff active
//! — must render the exact `BENCH_study.json` bytes of a local
//! single-thread [`StudyRunner`] run. And when every worker is gone,
//! the coordinator's local fallback must still produce those bytes.

use std::time::Duration;

use hycim_bench::{render_study_json, ReportMeta, StudyRecipe, StudyRunner};
use hycim_core::BatchRunner;
use hycim_net::{
    ChaosProxy, ConnFault, Coordinator, FaultPlan, WorkerConfig, WorkerFault, WorkerHandle,
    WorkerServer,
};

fn spawn_worker(config: WorkerConfig) -> WorkerHandle {
    WorkerServer::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
}

fn local_doc(recipe: &StudyRecipe, meta: &ReportMeta) -> String {
    let local = StudyRunner::Local(BatchRunner::serial())
        .run(recipe)
        .expect("local run completes");
    render_study_json(&local, meta)
}

#[test]
fn gate_study_through_chaos_is_byte_identical_to_local() {
    // Worker 0 sits behind a proxy that severs every conversation
    // after one forwarded response — it keeps "dying mid-run" and
    // keeps being probed back in, only to die again. Worker 1 panics
    // on its first two solves, then recovers for good (the flaky
    // worker readmission exists for). Worker 2 is healthy. Backoff is
    // active (the default); stragglers that exhaust their attempts
    // finish through the local fallback. None of it may move a byte.
    let recipe = StudyRecipe::preset("gate").expect("preset exists");
    let meta = ReportMeta::unknown();

    let doomed = spawn_worker(WorkerConfig::new());
    let proxy = ChaosProxy::spawn(
        doomed.addr().to_string(),
        FaultPlan::clean(11)
            .with_random(100, vec![ConnFault::CloseAfterResponses { responses: 1 }]),
    )
    .expect("spawn proxy");
    let mut flaky_config = WorkerConfig::new();
    flaky_config.fault = Some(WorkerFault::PanicFirstSubmits(2));
    let flaky = spawn_worker(flaky_config);
    let healthy = spawn_worker(WorkerConfig::new());

    let addrs = vec![
        proxy.addr().to_string(),
        flaky.addr().to_string(),
        healthy.addr().to_string(),
    ];
    let coordinator = Coordinator::new(addrs)
        .with_read_timeout(Duration::from_millis(300))
        .with_connect_timeout(Duration::from_secs(5));
    let wire = StudyRunner::Fleet {
        coordinator: coordinator.clone(),
        shards: 3,
    }
    .run(&recipe)
    .expect("chaos study completes");

    assert_eq!(
        render_study_json(&wire, &meta),
        local_doc(&recipe, &meta),
        "chaos moved a byte of the artifact"
    );
    // The run was genuinely chaotic, not accidentally clean.
    assert!(proxy.faults_injected() >= 1, "the proxy never fired");
    let stats = coordinator.obs().snapshot();
    assert!(
        stats.counter("coord.workers_retired").unwrap_or(0) >= 1,
        "{stats:?}"
    );
    assert!(
        stats.counter("coord.workers_readmitted").unwrap_or(0) >= 1,
        "{stats:?}"
    );

    proxy.stop();
    doomed.stop();
    flaky.stop();
    healthy.stop();
}

#[test]
fn all_workers_dead_study_completes_locally_with_the_same_bytes() {
    // One address nobody listens on, one proxy that refuses every
    // conversation: the fleet dies, the probe budgets exhaust, and
    // the whole study degrades to the coordinator host — with the
    // byte-identical artifact.
    let recipe = StudyRecipe::preset("micro").expect("preset exists");
    let meta = ReportMeta::unknown();

    let ghost = spawn_worker(WorkerConfig::new());
    let proxy = ChaosProxy::spawn(
        ghost.addr().to_string(),
        FaultPlan::clean(13).with_random(100, vec![ConnFault::Refuse]),
    )
    .expect("spawn proxy");

    let addrs = vec!["127.0.0.1:1".to_string(), proxy.addr().to_string()];
    let coordinator = Coordinator::new(addrs)
        .with_read_timeout(Duration::from_millis(200))
        .with_connect_timeout(Duration::from_secs(5));
    let wire = StudyRunner::Fleet {
        coordinator: coordinator.clone(),
        shards: 2,
    }
    .run(&recipe)
    .expect("local fallback completes the study");

    assert_eq!(
        render_study_json(&wire, &meta),
        local_doc(&recipe, &meta),
        "the fallback moved a byte of the artifact"
    );
    let stats = coordinator.obs().snapshot();
    assert!(
        stats.counter("coord.shards_local").unwrap_or(0) >= 1,
        "{stats:?}"
    );

    proxy.stop();
    ghost.stop();
}
