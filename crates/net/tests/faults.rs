//! Fault injection against the live wire: every misbehavior ends in a
//! typed error or a successful retry — never a hang, never a
//! corrupted merge, never a leaked job.
//!
//! Covered faults: truncated frames, oversized frames, wrong-protocol
//! peers, unknown verbs, malformed JSON, bad specs, mid-job
//! connection drops, a worker panicking mid-shard (reassigned to the
//! surviving worker, bit-identically), hung peers (accepted the
//! connection, never answer — a typed [`NetError::Timeout`], and a
//! retirement visible in the coordinator's registry), workers killed
//! mid-run, and runs with no reachable workers at all.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hycim_cop::maxcut::MaxCut;
use hycim_cop::AnyProblem;
use hycim_core::{BatchRunner, EngineKind, EngineSettings};
use hycim_net::{
    shard_replica_column, Coordinator, ErrorCode, FrameError, JobSpec, MessageReceiver,
    MessageSender, NetError, Request, Response, WireSolution, WorkerClient, WorkerConfig,
    WorkerFault, WorkerHandle, WorkerServer,
};

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

/// Waits (bounded) for a worker's job table to drain.
fn assert_drains(handle: &WorkerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while handle.live_jobs() > 0 {
        assert!(Instant::now() < deadline, "worker leaked jobs");
        std::thread::yield_now();
    }
}

/// A raw protocol connection: hand-written bytes out, one persistent
/// framed receiver in (so no read-ahead is lost between responses).
struct RawConn {
    stream: TcpStream,
    receiver: MessageReceiver<BufReader<TcpStream>>,
}

impl RawConn {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let receiver = MessageReceiver::new(BufReader::new(
            stream.try_clone().expect("clone for reading"),
        ));
        Self { stream, receiver }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write");
    }

    fn send(&mut self, request: &Request) {
        MessageSender::new(&self.stream)
            .send(&request.to_value())
            .expect("send");
    }

    fn recv(&mut self) -> Result<Option<Response>, FrameError> {
        Ok(self
            .receiver
            .recv()?
            .map(|frame| Response::from_value(&frame).expect("worker speaks the protocol")))
    }

    fn expect_error(&mut self) -> (ErrorCode, String) {
        match self.recv().expect("frame").expect("a response") {
            Response::Error { code, message } => (code, message),
            other => panic!("expected an error response, got {other:?}"),
        }
    }
}

#[test]
fn unknown_verb_gets_a_typed_error_and_the_stream_survives() {
    let handle = spawn_worker(WorkerConfig::new());
    let mut conn = RawConn::connect(handle.addr());
    conn.write(b"hycim1 {\"verb\":\"steal\"}\n");
    let (code, message) = conn.expect_error();
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(message.contains("unknown verb"), "{message}");

    // The stream is still synchronized: a real verb works after it.
    conn.send(&Request::Poll { job: 0 });
    let (code, _) = conn.expect_error();
    assert_eq!(code, ErrorCode::UnknownJob);
    handle.stop();
}

#[test]
fn malformed_json_gets_a_typed_error_and_the_stream_survives() {
    let handle = spawn_worker(WorkerConfig::new());
    let mut conn = RawConn::connect(handle.addr());
    conn.write(b"hycim1 {oops\n");
    let (code, _) = conn.expect_error();
    assert_eq!(code, ErrorCode::BadRequest);
    // Nesting far past the parser's depth bound: a typed error, not a
    // stack overflow on the connection thread.
    conn.write(format!("hycim1 {}\n", "[".repeat(10_000)).as_bytes());
    let (code, message) = conn.expect_error();
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(message.contains("nesting"), "{message}");

    // Still synchronized.
    conn.send(&Request::Poll { job: 1 });
    let (code, _) = conn.expect_error();
    assert_eq!(code, ErrorCode::UnknownJob);
    handle.stop();
}

#[test]
fn truncated_frame_closes_the_connection_without_leaking() {
    let handle = spawn_worker(WorkerConfig::new());
    let conn = RawConn::connect(handle.addr());
    // Half a frame, then the write side dies mid-line.
    (&conn.stream)
        .write_all(b"hycim1 {\"verb\":\"po")
        .expect("write");
    conn.stream
        .shutdown(Shutdown::Write)
        .expect("shutdown write");
    // The worker answers nothing and closes.
    let mut rest = Vec::new();
    (&conn.stream)
        .read_to_end(&mut rest)
        .expect("read to close");
    assert!(rest.is_empty(), "no response to a truncated frame");
    assert_drains(&handle);
    handle.stop();
}

#[test]
fn oversized_frame_is_refused_with_a_typed_error_then_closed() {
    let mut config = WorkerConfig::new();
    config.max_frame = 256;
    let handle = spawn_worker(config);
    let mut conn = RawConn::connect(handle.addr());
    conn.write(format!("hycim1 \"{}\"\n", "x".repeat(4096)).as_bytes());
    let (code, message) = conn.expect_error();
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(message.contains("256-byte bound"), "{message}");
    // The desynchronized stream is closed afterwards.
    assert!(matches!(conn.recv(), Ok(None)), "stream closed");
    handle.stop();
}

#[test]
fn wrong_protocol_peer_is_answered_once_and_dropped() {
    let handle = spawn_worker(WorkerConfig::new());
    let mut conn = RawConn::connect(handle.addr());
    conn.write(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
    let (code, message) = conn.expect_error();
    assert_eq!(code, ErrorCode::BadRequest);
    assert!(message.contains("hycim1"), "{message}");
    assert!(matches!(conn.recv(), Ok(None)), "stream closed");
    handle.stop();
}

#[test]
fn bad_specs_fail_the_submit_with_typed_errors() {
    let handle = spawn_worker(WorkerConfig::new());
    let mut client = WorkerClient::connect(handle.addr()).expect("connect");
    let good = spec_for(&problem(), vec![1]);

    let mut unknown_engine = good.clone();
    unknown_engine.engine = "quantum".into();
    match client.submit(&unknown_engine).unwrap_err() {
        NetError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("quantum"), "{message}");
        }
        other => panic!("expected a typed remote error, got {other}"),
    }

    let mut unknown_family = good.clone();
    unknown_family.family = "sudoku".into();
    match client.submit(&unknown_family).unwrap_err() {
        NetError::Remote { code, .. } => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected a typed remote error, got {other}"),
    }

    let mut corrupt_payload = good.clone();
    corrupt_payload.problem.push_str("trailing garbage\n");
    match client.submit(&corrupt_payload).unwrap_err() {
        NetError::Remote { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("line"), "line-numbered: {message}");
        }
        other => panic!("expected a typed remote error, got {other}"),
    }

    // The connection survived all three rejections.
    let job = client.submit(&good).expect("good spec still submits");
    assert!(!client.wait_fetch(job).expect("fetches").is_empty());
    assert_drains(&handle);
    handle.stop();
}

#[test]
fn mid_job_connection_drop_disposes_the_jobs() {
    let handle = spawn_worker(WorkerConfig::new());
    {
        let mut client = WorkerClient::connect(handle.addr()).expect("connect");
        // Enough work that jobs are still queued or unfetched on drop.
        for seed in 0..6u64 {
            let seeds = (0..50u64).map(|k| seed * 100 + k).collect();
            client.submit(&spec_for(&problem(), seeds)).expect("submit");
        }
        assert!(handle.live_jobs() > 0, "jobs are live before the drop");
        // Client dropped here: the coordinator vanished mid-job.
    }
    // The worker disposes everything the dead connection owned.
    assert_drains(&handle);
    handle.stop();
}

#[test]
fn panicked_worker_is_retried_on_the_survivor_bit_identically() {
    let p = problem();
    // Worker A panics on its first submit; worker B is healthy.
    let mut faulty = WorkerConfig::new();
    faulty.fault = Some(WorkerFault::PanicOnSubmit(0));
    let a = spawn_worker(faulty);
    let b = spawn_worker(WorkerConfig::new());
    let addrs = vec![a.addr().to_string(), b.addr().to_string()];

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 6, 33, 0, 2);
    let merged = Coordinator::new(addrs)
        .run(total, &jobs)
        .expect("retry on the survivor succeeds");

    // Bit-identical to the local run despite the mid-shard panic.
    let engine = EngineKind::Software
        .build(&p, &EngineSettings::new(40, 2))
        .expect("builds");
    let reference: Vec<WireSolution> = BatchRunner::serial()
        .run(&engine, 6, 33)
        .iter()
        .map(WireSolution::from_solution)
        .collect();
    assert_eq!(merged, reference);

    assert_drains(&a);
    assert_drains(&b);
    a.stop();
    b.stop();
}

#[test]
fn wait_pass_failure_requeues_every_pipelined_shard_of_the_worker() {
    let p = problem();
    let engine = EngineKind::Software
        .build(&p, &EngineSettings::new(40, 2))
        .expect("builds");
    let reference: Vec<WireSolution> = BatchRunner::serial()
        .run(&engine, 8, 45)
        .iter()
        .map(WireSolution::from_solution)
        .collect();
    // Four shards on two workers: A holds shards 0 and 2, with both
    // waits written before either reply is read. Shard 0 panics. At
    // threshold 1 the suspension requeues both; at threshold 2 A gets
    // a new connection, from which shard 2's reply must not be read
    // (it would wait out the read timeout).
    for threshold in [1, 2] {
        let mut faulty = WorkerConfig::new();
        faulty.fault = Some(WorkerFault::PanicOnSubmit(0));
        let a = spawn_worker(faulty);
        let b = spawn_worker(WorkerConfig::new());
        let addrs = vec![a.addr().to_string(), b.addr().to_string()];

        let spec = spec_for(&p, Vec::new());
        let (total, jobs) = shard_replica_column(&spec, 8, 45, 0, 4);
        let read_timeout = Duration::from_secs(10);
        let coordinator = Coordinator::new(addrs)
            .with_failure_threshold(threshold)
            .with_read_timeout(read_timeout);
        let begun = Instant::now();
        let merged = coordinator
            .run(total, &jobs)
            .expect("retry on the survivor succeeds");
        assert!(
            begun.elapsed() < read_timeout / 2,
            "threshold {threshold}: a read waited out its timeout: {:?}",
            begun.elapsed()
        );
        assert_eq!(
            merged, reference,
            "threshold {threshold} perturbed the bits"
        );
        if threshold == 1 {
            let stats = coordinator.obs().snapshot();
            assert_eq!(stats.counter("coord.workers_retired"), Some(1), "{stats:?}");
            assert_eq!(stats.counter("coord.shards_requeued"), Some(2), "{stats:?}");
            assert_eq!(stats.counter("coord.shard_retries"), Some(2), "{stats:?}");
        }

        assert_drains(&a);
        assert_drains(&b);
        a.stop();
        b.stop();
    }
}

#[test]
fn closed_connections_leave_the_worker_connection_table() {
    // Every connection a worker accepts is tracked until it ends; a
    // long-lived worker must not keep a socket per past connection.
    let handle = spawn_worker(WorkerConfig::new());
    let open = || {
        handle
            .obs()
            .snapshot()
            .gauge("net.connections_open")
            .unwrap_or(0)
    };
    for _ in 0..50 {
        let mut client = WorkerClient::connect(handle.addr()).expect("connect");
        let stats = client.stats().expect("stats");
        assert!(
            stats.gauge("net.connections_open").unwrap_or(0) >= 1,
            "the scraping connection is open: {stats:?}"
        );
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while open() > 0 {
        assert!(
            Instant::now() < deadline,
            "{} connections still tracked",
            open()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.stop();
}

#[test]
fn exhausted_retries_surface_a_typed_shard_error() {
    // A spec no worker can run: the engine tag is unknown everywhere.
    let handle = spawn_worker(WorkerConfig::new());
    let mut spec = spec_for(&problem(), Vec::new());
    spec.engine = "quantum".into();
    let (total, jobs) = shard_replica_column(&spec, 4, 1, 0, 2);
    let err = Coordinator::new(vec![handle.addr().to_string()])
        .with_max_attempts(2)
        .expect("nonzero bound")
        .run(total, &jobs)
        .unwrap_err();
    match err {
        NetError::ShardExhausted {
            attempts, chain, ..
        } => {
            assert!(attempts <= 2);
            let joined = chain.join(" | ");
            assert!(
                joined.contains("quantum"),
                "chain names the fault: {joined}"
            );
            // The spec is unsolvable, so graceful degradation tried —
            // and failed with the same reason — before giving up.
            assert!(
                joined.contains("local fallback failed"),
                "the fallback attempt is on the chain: {joined}"
            );
        }
        other => panic!("expected ShardExhausted, got {other}"),
    }
    assert_drains(&handle);
    handle.stop();
}

/// A peer that accepts connections and then never says anything — the
/// pathological hang the timeout knobs exist for.
fn hung_listener() -> (SocketAddr, std::net::TcpListener) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    (addr, listener)
}

#[test]
fn hung_peer_turns_into_a_typed_timeout_not_a_hang() {
    let (addr, listener) = hung_listener();
    let accepter = std::thread::spawn(move || {
        // Accept and hold the socket open, answering nothing.
        listener.accept().map(|(stream, _)| stream)
    });

    let mut client =
        WorkerClient::connect_timeout(addr, Duration::from_secs(5)).expect("connect succeeds");
    client
        .set_timeout(Some(Duration::from_millis(50)))
        .expect("set timeout");
    let started = Instant::now();
    match client.poll(0) {
        Err(NetError::Timeout) => {}
        other => panic!("expected NetError::Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the deadline bounded the wait"
    );
    drop(client);
    let _ = accepter.join();
}

#[test]
fn stalled_reader_turns_a_large_write_into_a_typed_timeout() {
    // The peer accepts and then never reads: once the socket buffers
    // fill, a large submit must hit the write deadline as a typed
    // NetError::Timeout instead of blocking the coordinator forever.
    let (addr, listener) = hung_listener();
    let accepter = std::thread::spawn(move || listener.accept().map(|(stream, _)| stream));
    let mut client =
        WorkerClient::connect_timeout(addr, Duration::from_secs(5)).expect("connect succeeds");
    client
        .set_write_timeout(Some(Duration::from_millis(50)))
        .expect("set write timeout");
    // Tens of megabytes of seeds: far past any loopback socket buffer
    // (send + receive together absorb a few MB before blocking).
    let spec = spec_for(&problem(), (0..4_000_000u64).collect());
    let started = Instant::now();
    match client.submit(&spec) {
        Err(NetError::Timeout) => {}
        other => panic!("expected NetError::Timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline bounded the wait"
    );
    drop(client);
    let _ = accepter.join();
}

#[test]
fn hung_worker_is_retired_and_the_survivor_finishes_bit_identically() {
    let p = problem();
    let (hung_addr, listener) = hung_listener();
    let accepter = std::thread::spawn(move || {
        // Keep accepting so every retry also sees a silent peer.
        let mut held = Vec::new();
        while let Ok((stream, _)) = listener.accept() {
            held.push(stream);
            if held.len() >= 8 {
                break;
            }
        }
        held
    });
    let survivor = spawn_worker(WorkerConfig::new());
    let addrs = vec![hung_addr.to_string(), survivor.addr().to_string()];

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 6, 33, 0, 2);
    let coordinator = Coordinator::new(addrs)
        .with_connect_timeout(Duration::from_secs(5))
        .with_read_timeout(Duration::from_millis(100));
    let merged = coordinator
        .run(total, &jobs)
        .expect("the survivor absorbs the hung worker's shards");

    let engine = EngineKind::Software
        .build(&p, &EngineSettings::new(40, 2))
        .expect("builds");
    let reference: Vec<WireSolution> = BatchRunner::serial()
        .run(&engine, 6, 33)
        .iter()
        .map(WireSolution::from_solution)
        .collect();
    assert_eq!(merged, reference, "the hang never touched the results");

    // The retirement is on the record.
    let coord = coordinator.obs().snapshot();
    assert!(
        coord.counter("coord.workers_retired").unwrap_or(0) >= 1,
        "{coord:?}"
    );
    assert!(
        coord.counter("coord.shard_retries").unwrap_or(0) >= 1,
        "{coord:?}"
    );
    assert_eq!(coord.counter("coord.shards_done"), Some(2));

    assert_drains(&survivor);
    survivor.stop();
    drop(accepter); // Left blocked on accept; the process exit reaps it.
}

#[test]
fn killed_workers_requeued_shards_are_visible_in_the_coordinator_registry() {
    // The deterministic worker-died-mid-shard fault: the doomed
    // worker's first solve thread dies, so by the time the coordinator
    // sees the failure its other shard is still pending there — the
    // retirement must requeue it, and both must be on the record.
    let p = problem();
    let mut faulty = WorkerConfig::new();
    faulty.fault = Some(WorkerFault::PanicOnSubmit(0));
    let doomed = spawn_worker(faulty);
    let survivor = spawn_worker(WorkerConfig::new());
    let addrs = vec![doomed.addr().to_string(), survivor.addr().to_string()];

    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 40, 77, 0, 4);
    let coordinator = Coordinator::new(addrs)
        .with_max_attempts(6)
        .expect("nonzero bound");
    let merged = coordinator
        .run(total, &jobs)
        .expect("the survivor finishes the run");

    // Bit-identical despite the mid-run death.
    let engine = EngineKind::Software
        .build(&p, &EngineSettings::new(40, 2))
        .expect("builds");
    let reference: Vec<WireSolution> = BatchRunner::serial()
        .run(&engine, 40, 77)
        .iter()
        .map(WireSolution::from_solution)
        .collect();
    assert_eq!(merged, reference);

    // The registry tells the story: the worker was retired and the
    // shards it held were requeued (then finished elsewhere).
    let coord = coordinator.obs().snapshot();
    assert!(
        coord.counter("coord.workers_retired").unwrap_or(0) >= 1,
        "no retirement recorded: {coord:?}"
    );
    assert!(
        coord.counter("coord.shards_requeued").unwrap_or(0) >= 1,
        "no requeue recorded: {coord:?}"
    );
    assert_eq!(coord.counter("coord.shards_done"), Some(4));
    let events = coordinator.obs().tracer().events();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, hycim_obs::Event::WorkerRetired { .. })),
        "no WorkerRetired event: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, hycim_obs::Event::ShardRequeued { .. })),
        "no ShardRequeued event: {events:?}"
    );

    assert_drains(&doomed);
    assert_drains(&survivor);
    doomed.stop();
    survivor.stop();
}

#[test]
fn unreachable_workers_surface_a_typed_error_not_a_hang() {
    let p = problem();
    let spec = spec_for(&p, Vec::new());
    let (total, jobs) = shard_replica_column(&spec, 3, 1, 0, 1);

    // Strict mode (no fallback): nobody to talk to at all.
    let err = Coordinator::new(Vec::new())
        .with_local_fallback(false)
        .run(total, &jobs)
        .unwrap_err();
    assert!(matches!(err, NetError::NoWorkers), "{err}");

    // Strict mode, a dead address: the probe budget exhausts, and the
    // shard fails carrying the fleet's obituary on its chain.
    let err = Coordinator::new(vec!["127.0.0.1:1".to_string()])
        .with_local_fallback(false)
        .with_max_attempts(1)
        .expect("nonzero bound")
        .run(total, &jobs)
        .unwrap_err();
    match &err {
        NetError::ShardExhausted { chain, .. } => assert!(
            chain.iter().any(|c| c.contains("no usable workers")),
            "{chain:?}"
        ),
        other => panic!("expected ShardExhausted, got {other}"),
    }

    // Default mode degrades gracefully instead: both runs complete on
    // the coordinator host, byte-identical to the local reference.
    let engine = EngineKind::Software
        .build(&p, &EngineSettings::new(40, 2))
        .expect("builds");
    let reference: Vec<WireSolution> = BatchRunner::serial()
        .run(&engine, 3, 1)
        .iter()
        .map(WireSolution::from_solution)
        .collect();
    let empty_fleet = Coordinator::new(Vec::new());
    let local = empty_fleet.run(total, &jobs).expect("solves locally");
    assert_eq!(local, reference);
    assert_eq!(
        empty_fleet.obs().snapshot().counter("coord.shards_local"),
        Some(1)
    );
    let dead_fleet = Coordinator::new(vec!["127.0.0.1:1".to_string()]);
    let degraded = dead_fleet.run(total, &jobs).expect("degrades to local");
    assert_eq!(degraded, reference);
}
