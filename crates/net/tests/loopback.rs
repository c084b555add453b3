//! Loopback integration: a coordinator and N worker servers in one
//! process, talking real TCP over 127.0.0.1.
//!
//! The acceptance pins of the distributed path live here:
//!
//! * a 3-worker sharded run merges **bit-identically** to a
//!   single-thread local [`BatchRunner`] run;
//! * shard-boundary choice (1, 2, 3, 5 shards) does not change the
//!   merged result;
//! * the submit/wait/cancel verbs behave over the wire, including
//!   cancelling concurrently with waiting — no stuck `Running`
//!   entries, job tables drain to zero;
//! * the `stats` verb round-trips a worker's metrics registry, and a
//!   coordinator scrape sees nonzero frame and shard counters on
//!   every worker it drove.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hycim_cop::maxcut::MaxCut;
use hycim_cop::AnyProblem;
use hycim_core::{BatchRunner, EngineKind, EngineSettings};
use hycim_net::{
    shard_replica_column, Coordinator, ErrorCode, JobSpec, NetError, WireSolution, WorkerClient,
    WorkerConfig, WorkerServer,
};
use hycim_obs::Event;

fn spawn_workers(n: usize) -> (Vec<hycim_net::WorkerHandle>, Vec<String>) {
    let handles: Vec<_> = (0..n)
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
                .expect("bind loopback")
                .spawn()
        })
        .collect();
    let addrs = handles.iter().map(|h| h.addr().to_string()).collect();
    (handles, addrs)
}

fn gate_problem() -> MaxCut {
    MaxCut::random(12, 0.5, 42)
}

fn base_spec(problem: &MaxCut, engine: EngineKind, sweeps: u64, hardware_seed: u64) -> JobSpec {
    let any = AnyProblem::from(problem.clone());
    JobSpec {
        family: any.family_tag().to_string(),
        problem: any.to_wire(),
        engine: engine.tag().to_string(),
        sweeps,
        hardware_seed,
        record_trace: true,
        seeds: Vec::new(),
    }
}

/// The local single-thread reference for one engine column.
fn local_reference(
    problem: &MaxCut,
    engine: EngineKind,
    sweeps: u64,
    hardware_seed: u64,
    replicas: usize,
    root_seed: u64,
) -> Vec<WireSolution> {
    let engine = engine
        .build(
            problem,
            &EngineSettings::new(sweeps as usize, hardware_seed),
        )
        .expect("max-cut builds on every backend");
    BatchRunner::serial()
        .run(&engine, replicas, root_seed)
        .iter()
        .map(WireSolution::from_solution)
        .collect()
}

/// Waits (bounded) for a worker's job table to drain.
fn assert_drains(handle: &hycim_net::WorkerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.live_jobs() > 0 {
        assert!(Instant::now() < deadline, "worker leaked jobs");
        std::thread::yield_now();
    }
}

#[test]
fn three_worker_shard_run_is_bit_identical_to_local_batch() {
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(3);
    let spec = base_spec(&problem, EngineKind::HyCim, 60, 7);
    let (total, jobs) = shard_replica_column(&spec, 9, 99, 0, 3);
    assert_eq!(total, 9);
    assert_eq!(jobs.len(), 3);

    let merged = Coordinator::new(addrs).run(total, &jobs).expect("run");
    let reference = local_reference(&problem, EngineKind::HyCim, 60, 7, 9, 99);

    assert_eq!(merged.len(), reference.len());
    for (k, (ours, local)) in merged.iter().zip(&reference).enumerate() {
        assert_eq!(ours, local, "replica {k} differs from the local run");
    }
    for handle in &handles {
        assert_drains(handle);
    }
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn shard_boundaries_do_not_change_the_merged_result() {
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(2);
    let spec = base_spec(&problem, EngineKind::Software, 40, 3);

    let mut runs = Vec::new();
    for shards in [1usize, 2, 3, 5] {
        let (total, jobs) = shard_replica_column(&spec, 7, 11, 0, shards);
        let coordinator = Coordinator::new(addrs.clone());
        let merged = coordinator
            .run(total, &jobs)
            .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        runs.push((shards, merged));
        // With 5 shards one connection carries 3 pipelined submits and
        // waits; a clean run still makes one attempt per shard and
        // dispatches in slot order, round-robin over the workers.
        let stats = coordinator.obs().snapshot();
        assert_eq!(
            stats.counter("coord.shard_attempts"),
            Some(shards as u64),
            "{stats:?}"
        );
        assert_eq!(stats.counter("coord.shard_retries"), Some(0), "{stats:?}");
        let dispatched: Vec<(u64, u64)> = coordinator
            .obs()
            .tracer()
            .events()
            .iter()
            .filter_map(|e| match *e {
                Event::ShardDispatched { start, worker, .. } => Some((start, worker)),
                _ => None,
            })
            .collect();
        let in_slot_order: Vec<(u64, u64)> = jobs
            .iter()
            .enumerate()
            .map(|(i, job)| (job.shard.start as u64, i as u64 % 2))
            .collect();
        assert_eq!(dispatched, in_slot_order, "{shards} shards");
    }
    let (_, first) = &runs[0];
    for (shards, merged) in &runs[1..] {
        assert_eq!(merged, first, "{shards}-shard run diverged");
    }
    // And all equal the local reference.
    let reference = local_reference(&problem, EngineKind::Software, 40, 3, 7, 11);
    assert_eq!(first, &reference);
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn every_backend_matches_its_local_run_over_the_wire() {
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(2);
    for engine in [
        EngineKind::Software,
        EngineKind::HyCim,
        EngineKind::Bank,
        EngineKind::Dqubo,
        EngineKind::Packed,
    ] {
        let spec = base_spec(&problem, engine, 30, 5);
        let (total, jobs) = shard_replica_column(&spec, 4, 17, 0, 2);
        let merged = Coordinator::new(addrs.clone())
            .run(total, &jobs)
            .unwrap_or_else(|e| panic!("{}: {e}", engine.tag()));
        let reference = local_reference(&problem, engine, 30, 5, 4, 17);
        assert_eq!(merged, reference, "{} diverged", engine.tag());
    }
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn verbs_round_trip_over_the_wire() {
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(1);
    let mut client = WorkerClient::connect(addrs[0].as_str()).expect("connect");

    let mut spec = base_spec(&problem, EngineKind::Software, 30, 1);
    spec.seeds = vec![4, 5];
    let job = client.submit(&spec).expect("submit");

    // Wait until delivered, and compare against direct solves.
    let solutions = client.wait_fetch(job).expect("fetch");
    assert_eq!(solutions.len(), 2);
    let engine = EngineKind::Software
        .build(&problem, &EngineSettings::new(30, 1))
        .expect("builds");
    for (seed, ours) in spec.seeds.iter().zip(&solutions) {
        assert_eq!(ours, &WireSolution::from_solution(&engine.solve(*seed)));
    }

    // The delivery consumed the job: a wait, blocking or not, now
    // says unknown.
    for timeout in [Duration::ZERO, Duration::from_millis(200)] {
        match client.wait(job, timeout).unwrap_err() {
            NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
            other => panic!("expected a typed remote error, got {other}"),
        }
    }

    // Cancel on an unknown id reports Unknown, not an error.
    assert_eq!(
        client.cancel(job).expect("cancel"),
        hycim_service::DisposeOutcome::Unknown
    );
    assert_drains(&handles[0]);
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn stats_verb_round_trips_a_live_workers_registry() {
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(1);
    let mut client = WorkerClient::connect(addrs[0].as_str()).expect("connect");

    let mut spec = base_spec(&problem, EngineKind::Software, 30, 1);
    spec.seeds = vec![8, 9, 10];
    let job = client.submit(&spec).expect("submit");
    let solutions = client.wait_fetch(job).expect("fetch");
    assert_eq!(solutions.len(), 3);

    let stats = client.stats().expect("stats");
    // The wire layer counted our conversation (submit + waits, and
    // the stats request itself).
    assert!(
        stats.counter("net.frames_in").unwrap_or(0) >= 3,
        "{stats:?}"
    );
    assert!(
        stats.counter("net.frames_out").unwrap_or(0) >= 2,
        "{stats:?}"
    );
    // The solve path counted the shard and its replicas.
    assert_eq!(stats.counter("net.shards_solved"), Some(1));
    assert_eq!(stats.counter("net.solved_replicas"), Some(3));
    // The job service shares the same registry.
    assert_eq!(stats.counter("service.submitted"), Some(1));
    assert_eq!(stats.counter("service.jobs_done"), Some(1));
    // The scrape is a faithful image of the in-process registry for
    // everything that was settled when the stats frame was answered
    // (frame counters keep ticking with the scrape itself, so the
    // comparison pins the solve-side families).
    let local = handles[0].obs().snapshot();
    for name in [
        "net.shards_solved",
        "net.solved_replicas",
        "service.submitted",
        "service.jobs_done",
    ] {
        assert_eq!(stats.counter(name), local.counter(name), "{name}");
    }

    assert_drains(&handles[0]);
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn coordinator_scrape_sees_nonzero_counters_on_every_worker() {
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(2);
    let spec = base_spec(&problem, EngineKind::Software, 40, 3);
    let (total, jobs) = shard_replica_column(&spec, 8, 21, 0, 4);

    let coordinator = Coordinator::new(addrs);
    let merged = coordinator.run(total, &jobs).expect("run");
    assert_eq!(merged.len(), 8);

    // The coordinator's own registry tells the dispatch story.
    let coord = coordinator.obs().snapshot();
    assert_eq!(coord.counter("coord.shard_attempts"), Some(4));
    assert_eq!(coord.counter("coord.shards_done"), Some(4));
    assert_eq!(coord.counter("coord.workers_retired"), None);

    // Every worker served frames and solved shards, and says so.
    let scraped = coordinator.scrape().expect("scrape");
    assert_eq!(scraped.len(), 2);
    let mut shards_seen = 0;
    for (addr, stats) in &scraped {
        assert!(
            stats.counter("net.frames_in").unwrap_or(0) > 0,
            "{addr} served no frames: {stats:?}"
        );
        assert!(
            stats.counter("net.frames_out").unwrap_or(0) > 0,
            "{addr} answered no frames: {stats:?}"
        );
        shards_seen += stats.counter("net.shards_solved").unwrap_or(0);
    }
    assert_eq!(shards_seen, 4, "every shard solved exactly once");

    for handle in &handles {
        assert_drains(handle);
    }
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn concurrent_cancel_and_fetch_over_the_wire_leave_no_stuck_jobs() {
    // The wire-level regression test for the dispose/delivery race:
    // one connection waits on a job while another cancels it.
    // Whatever interleaving happens, the job table drains and every
    // response is typed.
    let problem = gate_problem();
    let (handles, addrs) = spawn_workers(1);
    let addr = Arc::new(addrs[0].clone());

    for round in 0..12u64 {
        let mut submitter = WorkerClient::connect(addr.as_str()).expect("connect");
        let mut spec = base_spec(&problem, EngineKind::Software, 80, round);
        spec.seeds = (0..4).map(|k| round * 10 + k).collect();
        let job = submitter.submit(&spec).expect("submit");

        let canceller = {
            let addr = Arc::clone(&addr);
            std::thread::spawn(move || {
                let mut client = WorkerClient::connect(addr.as_str()).expect("connect");
                client.cancel(job).expect("cancel is always answered")
            })
        };
        let waiter = std::thread::spawn(move || loop {
            match submitter.wait(job, Duration::from_millis(20)) {
                Ok(Some(solutions)) => return Ok(solutions),
                Ok(None) => {}
                Err(NetError::Remote { code, message }) => return Err((code, message)),
                Err(other) => panic!("untyped failure: {other}"),
            }
        });

        let outcome = canceller.join().expect("canceller thread");
        let fetched = waiter.join().expect("waiter thread");
        // Consistency: typed outcomes only, whoever won the race.
        match fetched {
            Ok(solutions) => assert_eq!(solutions.len(), 4),
            Err((code, message)) => assert!(
                code == ErrorCode::UnknownJob,
                "round {round}: unexpected {code}: {message} (cancel said {outcome:?})"
            ),
        }
        assert_drains(&handles[0]);
    }
    for handle in handles {
        handle.stop();
    }
}
