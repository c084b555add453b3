//! Scripted chaos scenarios: a coordinator talking to workers through
//! the deterministic fault-injection proxy must absorb every
//! transport misbehavior — refused conversations, mid-run drops,
//! mid-frame truncation, stalls, delays, partial writes — and still
//! merge the byte-for-byte result of a local single-thread run.
//!
//! Each scenario is a [`FaultPlan`] script, so a failure here replays
//! exactly: same connection indices, same faults, same recovery path.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hycim_cop::maxcut::MaxCut;
use hycim_cop::AnyProblem;
use hycim_core::{BatchRunner, EngineKind, EngineSettings};
use hycim_net::{
    shard_replica_column, BackoffConfig, ChaosProxy, ConnFault, Coordinator, FaultPlan, JobSpec,
    WireSolution, WorkerConfig, WorkerFault, WorkerHandle, WorkerServer,
};
use hycim_obs::Event;

fn spawn_worker(config: WorkerConfig) -> WorkerHandle {
    WorkerServer::bind("127.0.0.1:0", config)
        .expect("bind loopback")
        .spawn()
}

fn problem() -> MaxCut {
    MaxCut::random(10, 0.5, 9)
}

fn spec_for(p: &MaxCut, seeds: Vec<u64>) -> JobSpec {
    let any = AnyProblem::from(p.clone());
    JobSpec {
        family: any.family_tag().to_string(),
        problem: any.to_wire(),
        engine: "software".to_string(),
        sweeps: 40,
        hardware_seed: 2,
        record_trace: true,
        seeds,
    }
}

/// The local single-thread ground truth every scenario must match.
fn reference(p: &MaxCut, replicas: usize, root_seed: u64) -> Vec<WireSolution> {
    let engine = EngineKind::Software
        .build(p, &EngineSettings::new(40, 2))
        .expect("builds");
    BatchRunner::serial()
        .run(&engine, replicas, root_seed)
        .iter()
        .map(WireSolution::from_solution)
        .collect()
}

/// Runs one proxied scenario to completion: a single worker behind a
/// chaos proxy under `plan`, 6 replicas in 2 shards, and asserts the
/// merged result is bit-identical to the local reference. Returns the
/// coordinator for counter and event assertions.
fn run_scenario(plan: FaultPlan) -> Coordinator {
    let p = problem();
    let worker = spawn_worker(WorkerConfig::new());
    let proxy = ChaosProxy::spawn(worker.addr().to_string(), plan).expect("spawn proxy");

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 6, 33, 0, 2);
    let coordinator = Coordinator::new(vec![proxy.addr().to_string()])
        .with_max_attempts(8)
        .expect("nonzero bound")
        .with_read_timeout(Duration::from_millis(200))
        .with_connect_timeout(Duration::from_secs(5));
    let merged = coordinator
        .run(total, &jobs)
        .expect("the scenario recovers");
    assert_eq!(merged, reference(&p, 6, 33), "faults perturbed the bits");

    proxy.stop();
    worker.stop();
    coordinator
}

#[test]
fn refused_conversation_is_survived_through_probation_and_readmission() {
    // Connection 0 (the coordinator's initial connect) is accepted
    // and immediately severed; every later connection is clean.
    let coordinator = run_scenario(FaultPlan::clean(1).script(0, ConnFault::Refuse));
    let stats = coordinator.obs().snapshot();
    assert!(
        stats.counter("coord.workers_retired").unwrap_or(0) >= 1,
        "{stats:?}"
    );
    assert!(
        stats.counter("coord.probes_sent").unwrap_or(0) >= 1,
        "{stats:?}"
    );
    assert!(
        stats.counter("coord.workers_readmitted").unwrap_or(0) >= 1,
        "{stats:?}"
    );
    let events = coordinator.obs().tracer().events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::WorkerReadmitted { .. })),
        "no WorkerReadmitted event: {events:?}"
    );
}

#[test]
fn mid_run_drop_is_retried_bit_identically() {
    // The first conversation dies after two forwarded responses — a
    // worker lost mid-run, with a shard already accepted.
    let coordinator = run_scenario(
        FaultPlan::clean(2).script(0, ConnFault::CloseAfterResponses { responses: 2 }),
    );
    let stats = coordinator.obs().snapshot();
    assert!(
        stats.counter("coord.shard_retries").unwrap_or(0) >= 1,
        "{stats:?}"
    );
    assert!(
        stats.counter("coord.workers_readmitted").unwrap_or(0) >= 1,
        "{stats:?}"
    );
}

#[test]
fn drop_between_pipelined_submit_replies_retries_without_reading_the_new_connection() {
    // Three submits go out on connection 0 before any reply is read.
    // The proxy forwards the first reply, then cuts the connection.
    // Under a failure threshold of 2 the coordinator reconnects at
    // once. The later shards must be retried rather than have their
    // replies read from the replacement connection, which never
    // carried their submits: such a read would wait out the read
    // timeout.
    let p = problem();
    let worker = spawn_worker(WorkerConfig::new());
    let plan = FaultPlan::clean(7).script(0, ConnFault::CloseAfterResponses { responses: 1 });
    let proxy = ChaosProxy::spawn(worker.addr().to_string(), plan).expect("spawn proxy");

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 6, 33, 0, 3);
    let read_timeout = Duration::from_secs(10);
    let coordinator = Coordinator::new(vec![proxy.addr().to_string()])
        .with_max_attempts(8)
        .expect("nonzero bound")
        .with_failure_threshold(2)
        .with_read_timeout(read_timeout)
        .with_connect_timeout(Duration::from_secs(5));
    let begun = Instant::now();
    let merged = coordinator.run(total, &jobs).expect("the run recovers");
    assert!(
        begun.elapsed() < read_timeout / 2,
        "a read waited out its timeout: {:?}",
        begun.elapsed()
    );
    assert_eq!(merged, reference(&p, 6, 33), "faults perturbed the bits");

    let events = coordinator.obs().tracer().events();
    for job in &jobs[1..] {
        assert!(
            events.iter().any(|e| matches!(
                *e,
                Event::ShardRetried { start, end }
                    if start == job.shard.start as u64 && end == job.shard.end as u64
            )),
            "shard {:?} was not retried: {events:?}",
            job.shard
        );
    }
    assert!(proxy.connections() >= 2, "the worker was reconnected");

    proxy.stop();
    worker.stop();
}

#[test]
fn mid_frame_truncation_is_a_recovered_framing_error_never_a_short_result() {
    // One full response through, then 5 bytes of the next frame.
    let coordinator = run_scenario(FaultPlan::clean(3).script(
        0,
        ConnFault::TruncateResponse {
            responses: 1,
            bytes: 5,
        },
    ));
    let stats = coordinator.obs().snapshot();
    assert!(
        stats.counter("coord.workers_retired").unwrap_or(0) >= 1,
        "{stats:?}"
    );
}

#[test]
fn stalled_worker_hits_the_read_deadline_and_the_run_recovers() {
    // One response through, then silence with the socket held open:
    // only the coordinator's read deadline can unblock the run.
    let coordinator =
        run_scenario(FaultPlan::clean(4).script(0, ConnFault::Stall { responses: 1 }));
    let stats = coordinator.obs().snapshot();
    assert!(
        stats.counter("coord.workers_retired").unwrap_or(0) >= 1,
        "{stats:?}"
    );
    assert!(
        stats.counter("coord.workers_readmitted").unwrap_or(0) >= 1,
        "{stats:?}"
    );
}

#[test]
fn slow_and_chunked_transports_do_not_perturb_results_or_trip_the_breaker() {
    // Delays and partial writes are degraded service, not faults: the
    // run must finish without a single retirement.
    let coordinator = run_scenario(
        FaultPlan::clean(5)
            .script(0, ConnFault::Delay { millis: 5 })
            .script(1, ConnFault::Chunked { chunk: 3 }),
    );
    let stats = coordinator.obs().snapshot();
    assert_eq!(stats.counter("coord.workers_retired").unwrap_or(0), 0);
    assert_eq!(stats.counter("coord.shard_retries").unwrap_or(0), 0);
}

#[test]
fn seeded_random_plans_inject_the_same_faults_every_run() {
    // The menu is recoverable misbehavior; two runs under the same
    // seed must see the identical injection schedule (and both merge
    // to the reference — run_scenario asserts that).
    let menu = vec![
        ConnFault::CloseAfterResponses { responses: 1 },
        ConnFault::Delay { millis: 2 },
        ConnFault::Chunked { chunk: 7 },
    ];
    let plan = FaultPlan::clean(0xC0FFEE).with_random(40, menu);
    let first = plan.clone();
    run_scenario(first);
    run_scenario(plan);
}

#[test]
fn flaky_worker_failing_k_times_is_readmitted_and_bit_identical() {
    // A lone worker whose first k solves panic, then recovers: the
    // probation/readmission machinery must bring it back (there is no
    // survivor to hide behind) and the merge must not care.
    for k in [0usize, 1, 3] {
        let p = problem();
        let mut config = WorkerConfig::new();
        config.fault = Some(WorkerFault::PanicFirstSubmits(k));
        let worker = spawn_worker(config);

        let spec = spec_for(&p, Vec::new());
        let (total, jobs) = shard_replica_column(&spec, 8, 55, 0, 4);
        let coordinator = Coordinator::new(vec![worker.addr().to_string()])
            .with_max_attempts(10)
            .expect("nonzero bound");
        let merged = coordinator
            .run(total, &jobs)
            .expect("the recovered worker finishes the run");
        assert_eq!(merged, reference(&p, 8, 55), "k={k} perturbed the bits");

        let stats = coordinator.obs().snapshot();
        if k == 0 {
            assert_eq!(
                stats.counter("coord.workers_retired").unwrap_or(0),
                0,
                "a healthy worker must not trip the breaker: {stats:?}"
            );
        } else {
            assert!(
                stats.counter("coord.workers_readmitted").unwrap_or(0) >= 1,
                "k={k}: no readmission: {stats:?}"
            );
            let events = coordinator.obs().tracer().events();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, Event::WorkerReadmitted { .. })),
                "k={k}: no WorkerReadmitted event"
            );
        }

        worker.stop();
    }
}

#[test]
fn every_worker_dead_mid_run_degrades_to_a_bit_identical_local_solve() {
    // The first conversation gets real work done, then dies; every
    // later connection (retries, probes) dies before answering. The
    // probe budget exhausts, the worker is declared dead, and the
    // coordinator finishes the whole grid locally — same bytes.
    let p = problem();
    let worker = spawn_worker(WorkerConfig::new());
    let plan = FaultPlan::clean(6)
        .with_random(100, vec![ConnFault::CloseAfterResponses { responses: 0 }])
        .script(0, ConnFault::CloseAfterResponses { responses: 2 });
    let proxy = ChaosProxy::spawn(worker.addr().to_string(), plan).expect("spawn proxy");

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 6, 33, 0, 2);
    let coordinator = Coordinator::new(vec![proxy.addr().to_string()])
        .with_read_timeout(Duration::from_millis(200))
        .with_connect_timeout(Duration::from_secs(5));
    let merged = coordinator
        .run(total, &jobs)
        .expect("graceful degradation completes the run");
    assert_eq!(merged, reference(&p, 6, 33), "the fallback changed bits");

    let stats = coordinator.obs().snapshot();
    assert_eq!(
        stats.counter("coord.workers_dead").unwrap_or(0),
        1,
        "{stats:?}"
    );
    assert_eq!(
        stats.counter("coord.shards_local").unwrap_or(0),
        2,
        "both shards ended local: {stats:?}"
    );
    let events = coordinator.obs().tracer().events();
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, Event::ShardLocalSolve { .. }))
            .count(),
        2,
        "{events:?}"
    );

    proxy.stop();
    worker.stop();
}

#[test]
fn backoff_waits_are_seeded_and_replayable() {
    // A sleep recorder instead of real sleeps: the delays the
    // coordinator asks for must be exactly the BackoffConfig's pure
    // function of (seed, attempt) — wall-clock never gets a vote.
    let p = problem();
    let mut config = WorkerConfig::new();
    config.fault = Some(WorkerFault::PanicFirstSubmits(2));
    let worker = spawn_worker(config);

    let backoff = BackoffConfig::new(99)
        .with_base(Duration::from_millis(3))
        .with_cap(Duration::from_millis(40));
    let recorded: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&recorded);

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 4, 21, 0, 1);
    let coordinator = Coordinator::new(vec![worker.addr().to_string()])
        .with_max_attempts(8)
        .expect("nonzero bound")
        .with_backoff(backoff)
        .with_sleep_fn(Arc::new(move |d| {
            sink.lock().expect("recorder lock").push(d);
        }));
    let merged = coordinator.run(total, &jobs).expect("recovers");
    assert_eq!(merged, reference(&p, 4, 21));

    let recorded = recorded.lock().expect("recorder lock").clone();
    assert_eq!(
        recorded,
        vec![backoff.delay(1), backoff.delay(2)],
        "one seeded wait per retry, in attempt order"
    );

    worker.stop();
}
