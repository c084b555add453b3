//! The worker side: a TCP server answering protocol requests by
//! bridging them onto a [`JobService`] worker pool.
//!
//! Job ownership is per-connection: every job a connection submits is
//! tracked, and when the connection ends — cleanly or by a mid-job
//! drop — every job it still owns is disposed through
//! [`JobService::dispose`]. A coordinator crash therefore never
//! strands results on a worker; the job table drains back to empty.

use std::collections::{HashMap, HashSet};
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use hycim_core::BatchRunner;
use hycim_obs::ObsRegistry;
use hycim_service::{DisposeOutcome, JobId, JobService, ServiceConfig, SubmitError};

use crate::frame::{FrameError, MessageReceiver, MessageSender, DEFAULT_MAX_FRAME};
use crate::proto::{ErrorCode, JobSpec, Request, Response, WireSolution};

/// The longest a `wait` request may hold its connection: a larger
/// `timeout_ms` is clamped to this, so no request parks a connection
/// thread for long. Clients keep their `wait` deadlines below their
/// read timeouts, so a clamped reply always arrives in time.
pub const MAX_WAIT: Duration = Duration::from_secs(1);

/// Deliberate misbehavior for the fault-injection tests — compiled in
/// unconditionally (it is inert unless configured) so the test suite
/// exercises the exact production server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// The `n`-th accepted submit (0-based, across all connections)
    /// panics on its worker thread instead of solving — the "worker
    /// died mid-shard" scenario. The pool survives; the job turns
    /// `Failed`.
    PanicOnSubmit(usize),
    /// The first `k` accepted submits panic, then the worker recovers
    /// — the flaky-then-healthy scenario the probation/readmission
    /// machinery exists for. `k == 0` is a healthy worker.
    PanicFirstSubmits(usize),
}

/// Sizing and behavior of a [`WorkerServer`].
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Solve threads in the underlying [`JobService`] pool.
    pub threads: usize,
    /// Bound on queued (not yet running) jobs.
    pub queue_capacity: usize,
    /// Per-frame byte bound for incoming requests.
    pub max_frame: usize,
    /// Optional injected fault (tests only; `None` in production).
    pub fault: Option<WorkerFault>,
}

impl WorkerConfig {
    /// Defaults: 2 solve threads, 1024-job queue, the frame layer's
    /// default byte bound, no fault.
    pub fn new() -> Self {
        Self {
            threads: 2,
            queue_capacity: 1024,
            max_frame: DEFAULT_MAX_FRAME,
            fault: None,
        }
    }
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self::new()
    }
}

struct WorkerShared {
    service: JobService,
    stop: AtomicBool,
    submits: AtomicUsize,
    fault: Option<WorkerFault>,
    max_frame: usize,
    /// One registry for the whole worker: the wire layer's `net.*`
    /// counters and the job service's `service.*` family land in the
    /// same place, so a single `stats` scrape sees the entire process.
    obs: Arc<ObsRegistry>,
    /// Live connection streams, keyed by connection id, for
    /// unblocking reads on stop. A connection removes its entry when
    /// it ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// The id the next accepted connection gets.
    next_conn: AtomicU64,
}

/// A bound (not yet serving) protocol server.
pub struct WorkerServer {
    listener: TcpListener,
    shared: Arc<WorkerShared>,
}

impl WorkerServer {
    /// Binds the listening socket (use port 0 for an ephemeral port)
    /// and starts the solve pool.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: WorkerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let obs = Arc::new(ObsRegistry::new());
        let service = JobService::start(
            ServiceConfig::new()
                .with_workers(config.threads)
                .with_queue_capacity(config.queue_capacity)
                .with_obs(Arc::clone(&obs)),
        );
        Ok(Self {
            listener,
            shared: Arc::new(WorkerShared {
                service,
                stop: AtomicBool::new(false),
                submits: AtomicUsize::new(0),
                fault: config.fault,
                max_frame: config.max_frame,
                obs,
                conns: Mutex::new(HashMap::new()),
                next_conn: AtomicU64::new(0),
            }),
        })
    }

    /// The bound address (the resolved port when bound to port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections on the calling thread until the process
    /// exits — the entry point of the `hycim-worker` binary.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn serve(self) -> std::io::Result<()> {
        accept_loop(&self.listener, &self.shared)
    }

    /// Serves connections on a background thread and returns a handle
    /// for inspection and orderly shutdown — the entry point of the
    /// in-process tests.
    pub fn spawn(self) -> WorkerHandle {
        let addr = self.local_addr().expect("bound listener has an address");
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let accept = std::thread::Builder::new()
            .name(format!("hycim-net-accept-{}", addr.port()))
            .spawn(move || {
                let _ = accept_loop(&listener, &shared);
            })
            .expect("spawn accept thread");
        WorkerHandle {
            addr,
            shared: self.shared,
            accept: Some(accept),
        }
    }
}

/// Handle of a [spawned](WorkerServer::spawn) worker.
pub struct WorkerHandle {
    addr: SocketAddr,
    shared: Arc<WorkerShared>,
    accept: Option<JoinHandle<()>>,
}

impl WorkerHandle {
    /// The worker's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Jobs the worker's service is currently tracking — drains to 0
    /// once every owning connection has collected (`wait`), cancelled,
    /// or disconnected (the leak assertion of the protocol tests).
    pub fn live_jobs(&self) -> usize {
        self.shared.service.live_jobs()
    }

    /// The worker's metrics registry — the same one the `stats` wire
    /// verb snapshots, exposed for in-process assertions.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.obs
    }

    /// Stops accepting, severs live connections, and joins the accept
    /// thread. Jobs already running finish on the pool (dropped via
    /// their connections' disposal) before the handle returns.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        // Sever every live connection to unblock its reader thread. This
        // runs from `Drop`, so a poisoned table is taken as it is: each
        // insert or remove leaves it whole.
        let conns = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for stream in conns.into_values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shutdown();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<WorkerShared>) -> std::io::Result<()> {
    loop {
        let (stream, _) = listener.accept()?;
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        set_up_stream(&stream);
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            track_connection(shared, |conns| {
                conns.insert(id, clone);
            });
        }
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("hycim-net-conn".to_string())
            .spawn(move || {
                handle_connection(stream, &shared);
                track_connection(&shared, |conns| {
                    conns.remove(&id);
                });
            });
    }
}

/// Edits the live-connection table and republishes its size as the
/// `net.connections_open` gauge.
fn track_connection(shared: &WorkerShared, edit: impl FnOnce(&mut HashMap<u64, TcpStream>)) {
    let mut conns = shared.conns.lock().expect("conn list lock");
    edit(&mut conns);
    shared
        .obs
        .gauge("net.connections_open")
        .set(conns.len() as u64);
}

/// Socket setup shared by every protocol socket: the worker's accepted
/// connections, the client's, and both sides of a chaos proxy
/// connection. Nagle's algorithm is off: the coordinator pipelines
/// requests, so two replies can leave back to back, and under Nagle
/// the second would wait for the peer's delayed ACK (about 40 ms).
pub(crate) fn set_up_stream(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

/// Serves one connection: a strict request → response loop. Requests
/// that arrive pipelined (written before the earlier replies are
/// read) are answered one at a time, in arrival order. Malformed
/// frames that leave the stream synchronized (valid line, bad
/// content) get an error response; anything that desynchronizes or
/// ends the stream closes the connection. Either way, every job the
/// connection still owns is disposed on the way out.
fn handle_connection(stream: TcpStream, shared: &WorkerShared) {
    let mut owned: HashSet<u64> = HashSet::new();
    let frames_in = shared.obs.counter("net.frames_in");
    let frames_out = shared.obs.counter("net.frames_out");
    // The accept loop holds a clone of this socket (for stop-time
    // severing), so dropping our handles alone would not send FIN;
    // shut the socket down explicitly on the way out so peers waiting
    // on EOF observe the close.
    let teardown = stream.try_clone().ok();
    let reader = match stream.try_clone() {
        Ok(clone) => BufReader::new(clone),
        Err(_) => return,
    };
    let mut receiver = MessageReceiver::with_max_frame(reader, shared.max_frame);
    let mut sender = MessageSender::new(stream);
    loop {
        match receiver.recv() {
            Ok(None) => break,
            Ok(Some(frame)) => {
                frames_in.inc();
                let response = match Request::from_value(&frame) {
                    Ok(request) => handle_request(request, shared, &mut owned),
                    Err(e) => Response::Error {
                        code: ErrorCode::BadRequest,
                        message: e.to_string(),
                    },
                };
                if sender.send(&response.to_value()).is_err() {
                    break;
                }
                frames_out.inc();
            }
            // A well-formed line with an invalid payload: the stream
            // is still synchronized, answer and keep serving.
            Err(FrameError::Json(e)) => {
                shared.obs.counter("net.frame_errors.json").inc();
                let response = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                };
                if sender.send(&response.to_value()).is_err() {
                    break;
                }
                frames_out.inc();
            }
            // Desynchronized or dead stream: answer best-effort where
            // a write may still land, then drop the connection.
            Err(e @ (FrameError::BadPrefix { .. } | FrameError::Oversized { .. })) => {
                count_frame_error(shared, &e);
                let response = Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                };
                if sender.send(&response.to_value()).is_ok() {
                    frames_out.inc();
                }
                break;
            }
            Err(e @ (FrameError::Io(_) | FrameError::Truncated { .. })) => {
                count_frame_error(shared, &e);
                break;
            }
        }
    }
    for id in owned {
        shared.service.dispose(JobId::from_raw(id));
    }
    if let Some(socket) = teardown {
        let _ = socket.shutdown(Shutdown::Both);
    }
}

/// Ticks the per-variant frame-error counter — the registry keys
/// mirror the [`FrameError`] variant names, so a scrape distinguishes
/// a flaky transport (`io`, `truncated`) from a confused peer
/// (`bad_prefix`, `oversized`, `json`).
fn count_frame_error(shared: &WorkerShared, error: &FrameError) {
    let variant = match error {
        FrameError::Io(_) => "io",
        FrameError::Truncated { .. } => "truncated",
        FrameError::Oversized { .. } => "oversized",
        FrameError::BadPrefix { .. } => "bad_prefix",
        FrameError::Json(_) => "json",
    };
    shared
        .obs
        .counter(&format!("net.frame_errors.{variant}"))
        .inc();
}

fn handle_request(request: Request, shared: &WorkerShared, owned: &mut HashSet<u64>) -> Response {
    match request {
        Request::Submit(spec) => submit(spec, shared, owned),
        Request::Stats => Response::Stats {
            stats: shared.obs.snapshot(),
        },
        Request::Wait { job, timeout_ms } => {
            let timeout = Duration::from_millis(timeout_ms).min(MAX_WAIT);
            match shared.service.wait_timeout(JobId::from_raw(job), timeout) {
                Some(status) if !status.is_terminal() => Response::Status { job, status },
                // Terminal or untracked: deliver it.
                _ => fetch(job, shared, owned),
            }
        }
        Request::Cancel { job } => {
            let outcome = shared.service.dispose(JobId::from_raw(job));
            if outcome != DisposeOutcome::Unknown {
                owned.remove(&job);
            }
            Response::Cancelled { job, outcome }
        }
    }
}

fn submit(spec: JobSpec, shared: &WorkerShared, owned: &mut HashSet<u64>) -> Response {
    // Validate everything the worker can check synchronously, so bad
    // specs fail the submit instead of a later wait.
    let kind = match spec.engine_kind() {
        Ok(kind) => kind,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: e.to_string(),
            }
        }
    };
    let problem = match spec.decode_problem() {
        Ok(problem) => problem,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::BadRequest,
                message: format!("problem does not parse: {e}"),
            }
        }
    };
    let settings = spec.settings();
    let seeds = spec.seeds;
    let sequence = shared.submits.fetch_add(1, Ordering::SeqCst);
    let inject_panic = match shared.fault {
        Some(WorkerFault::PanicOnSubmit(n)) => sequence == n,
        Some(WorkerFault::PanicFirstSubmits(k)) => sequence < k,
        None => false,
    };
    let obs = Arc::clone(&shared.obs);
    let submitted = shared
        .service
        .submit_with(move || -> Result<Vec<WireSolution>, String> {
            if inject_panic {
                panic!("injected worker fault: submit {sequence} dies mid-shard");
            }
            let solutions =
                crate::local::solve_any(&BatchRunner::serial(), &problem, kind, &settings, &seeds)?;
            // Flushed once per shard, after the solve — the anneal loop
            // itself stays untouched (the determinism contract).
            obs.counter("net.shards_solved").inc();
            obs.counter("net.solved_replicas")
                .add(solutions.len() as u64);
            Ok(solutions)
        });
    match submitted {
        Ok(id) => {
            owned.insert(id.raw());
            Response::Submitted { job: id.raw() }
        }
        Err(e @ SubmitError::QueueFull { .. }) => Response::Error {
            code: ErrorCode::Backpressure,
            message: e.to_string(),
        },
        Err(e) => Response::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        },
    }
}

/// The delivery step of `wait`: takes a terminal (or untracked) job's
/// value out of the service, consuming the entry.
fn fetch(job: u64, shared: &WorkerShared, owned: &mut HashSet<u64>) -> Response {
    use hycim_service::FetchError;
    match shared
        .service
        .fetch_value::<Result<Vec<WireSolution>, String>>(JobId::from_raw(job))
    {
        Ok(Ok(solutions)) => {
            owned.remove(&job);
            Response::Solutions { job, solutions }
        }
        Ok(Err(message)) => {
            // The spec validated but the engine refused the instance
            // (an encoding limit); the entry is consumed.
            owned.remove(&job);
            Response::Error {
                code: ErrorCode::JobFailed,
                message,
            }
        }
        Err(FetchError::Failed { message, .. }) => {
            owned.remove(&job);
            Response::Error {
                code: ErrorCode::JobFailed,
                message,
            }
        }
        Err(FetchError::Unknown(_)) => Response::Error {
            code: ErrorCode::UnknownJob,
            message: format!("job {job} is not tracked"),
        },
        Err(e) => Response::Error {
            code: ErrorCode::Internal,
            message: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    use hycim_cop::maxcut::MaxCut;
    use hycim_cop::AnyProblem;

    use crate::client::WorkerClient;

    /// A shard that keeps a solve thread busy for a while, so a `wait`
    /// on it parks its connection.
    fn slow_spec() -> JobSpec {
        let problem = AnyProblem::from(MaxCut::random(40, 0.5, 5));
        JobSpec {
            family: problem.family_tag().to_string(),
            problem: problem.to_wire(),
            engine: "software".to_string(),
            sweeps: 4000,
            hardware_seed: 1,
            record_trace: false,
            seeds: vec![1, 2, 3],
        }
    }

    fn assert_drains(handle: &WorkerHandle) {
        let deadline = Instant::now() + Duration::from_secs(60);
        while handle.live_jobs() > 0 {
            assert!(Instant::now() < deadline, "worker leaked jobs");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn set_up_streams_have_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        assert!(
            !accepted.nodelay().expect("query"),
            "Nagle is on by default"
        );
        set_up_stream(&accepted);
        assert!(accepted.nodelay().expect("query"));
        drop(client);

        // The accept loop sets up every connection the worker serves.
        let worker = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
            .expect("bind")
            .spawn();
        let mut client = WorkerClient::connect(worker.addr()).expect("connect");
        client.stats().expect("stats");
        let nodelay: Vec<bool> = worker
            .shared
            .conns
            .lock()
            .expect("conn list lock")
            .values()
            .map(|s| s.nodelay().expect("query"))
            .collect();
        assert_eq!(nodelay, [true]);
        worker.stop();
    }

    #[test]
    fn wait_deadlines_are_clamped_to_max_wait() {
        let server = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new()).expect("bind");
        let shared = &server.shared;
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let id = shared
            .service
            .submit_with(move || -> Result<Vec<WireSolution>, String> {
                gate.recv().expect("the test releases the job");
                Ok(Vec::new())
            })
            .expect("queue has room");
        let job = id.raw();
        let mut owned = HashSet::from([job]);

        let begun = Instant::now();
        let reply = handle_request(
            Request::Wait {
                job,
                timeout_ms: u64::MAX,
            },
            shared,
            &mut owned,
        );
        let took = begun.elapsed();
        assert!(
            matches!(reply, Response::Status { status, .. } if !status.is_terminal()),
            "{reply:?}"
        );
        assert!(took >= MAX_WAIT && took < 3 * MAX_WAIT, "held {took:?}");

        release.send(()).expect("the job is waiting");
        let reply = handle_request(
            Request::Wait {
                job,
                timeout_ms: u64::MAX,
            },
            shared,
            &mut owned,
        );
        assert_eq!(
            reply,
            Response::Solutions {
                job,
                solutions: Vec::new()
            }
        );
        assert!(owned.is_empty(), "the delivered wait consumed the job");
    }

    #[test]
    fn hanging_up_mid_wait_leaks_no_job() {
        let worker = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
            .expect("bind")
            .spawn();
        // A zero deadline answers at once with the live status, and
        // the hang-up disposes the running job; a long one is still
        // parked when the peer goes away.
        for timeout_ms in [0, 1000] {
            let stream = TcpStream::connect(worker.addr()).expect("connect");
            let mut receiver =
                MessageReceiver::new(BufReader::new(stream.try_clone().expect("clone")));
            let mut sender = MessageSender::new(&stream);
            sender
                .send(&Request::Submit(slow_spec()).to_value())
                .expect("send submit");
            let frame = receiver.recv().expect("frame").expect("a reply");
            let Ok(Response::Submitted { job }) = Response::from_value(&frame) else {
                panic!("expected submitted, got {frame:?}");
            };
            sender
                .send(&Request::Wait { job, timeout_ms }.to_value())
                .expect("send wait");
            stream.shutdown(Shutdown::Both).expect("hang up");
            assert_drains(&worker);
        }
        worker.stop();
    }

    #[test]
    fn stop_returns_while_a_connection_is_parked_in_wait() {
        let server = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new()).expect("bind");
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let id = server
            .shared
            .service
            .submit_with(move || -> Result<Vec<WireSolution>, String> {
                let _ = gate.recv();
                Ok(Vec::new())
            })
            .expect("queue has room");
        let frames_in = server.shared.obs.counter("net.frames_in");
        let worker = server.spawn();
        let mut client = WorkerClient::connect(worker.addr()).expect("connect");
        let waiter = std::thread::spawn(move || client.wait(id.raw(), MAX_WAIT));
        // The wait frame has arrived: its connection thread is parked
        // on a job that cannot finish.
        while frames_in.get() == 0 {
            std::thread::yield_now();
        }

        let begun = Instant::now();
        worker.stop();
        assert!(
            begun.elapsed() < MAX_WAIT / 2,
            "stop took {:?}",
            begun.elapsed()
        );
        // The severed connection fails the waiter instead of holding it.
        assert!(waiter.join().expect("waiter thread").is_err());
        drop(release);
    }
}
