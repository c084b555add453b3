//! The worker pool: a bounded job queue drained by OS threads, with
//! submit / wait / fetch / dispose endpoints safe to call from any
//! number of caller threads at once.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hycim_core::default_threads;
use hycim_obs::{Counter, Event, Gauge, Histogram, ObsRegistry};

use crate::{FetchError, JobId, JobStatus, SubmitError};

/// A finished job's value with its concrete type erased, so
/// heterogeneous jobs can share one queue and one result store.
type ErasedResult = Box<dyn Any + Send>;

/// A queued unit of work: runs the closure and returns the erased
/// value. Stored until a worker picks it up (or disposal drops it).
type ErasedTask = Box<dyn FnOnce() -> ErasedResult + Send>;

/// Sizing of a [`JobService`]: worker-thread count and the queue
/// bound.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    workers: usize,
    queue_capacity: usize,
    obs: Option<Arc<ObsRegistry>>,
}

impl ServiceConfig {
    /// Default sizing: one worker per available core (the
    /// [`default_threads`] resolution, i.e. `HYCIM_THREADS` is
    /// honored) and a 1024-job queue bound.
    pub fn new() -> Self {
        Self {
            workers: default_threads(),
            queue_capacity: 1024,
            obs: None,
        }
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`.
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        self.workers = workers;
        self
    }

    /// Overrides the bound on *waiting* jobs (running jobs do not
    /// count against it). Submits beyond the bound fail with
    /// [`SubmitError::QueueFull`].
    ///
    /// # Panics
    ///
    /// Panics if `queue_capacity == 0`.
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        assert!(queue_capacity > 0, "need a non-empty queue");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Publishes the service's metrics and job-lifecycle events into
    /// `obs` (under `service.*` names — see the `hycim-obs` crate
    /// docs). Without this the service keeps a private registry,
    /// readable via [`JobService::obs`].
    pub fn with_obs(mut self, obs: Arc<ObsRegistry>) -> Self {
        self.obs = Some(obs);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// What [`JobService::dispose`] did, by the lifecycle stage it found
/// the job in — decided atomically under the service lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DisposeOutcome {
    /// The id is untracked (never submitted, or already fetched or
    /// disposed).
    Unknown,
    /// The job was still queued: its entry was dropped; it will never
    /// run.
    Cancelled,
    /// The job was running: its entry is flagged and will be dropped
    /// by the worker the moment the solve finishes, result discarded.
    Deferred,
    /// The job was already terminal: its retained entry (and any
    /// unfetched result) was dropped.
    Discarded,
}

impl DisposeOutcome {
    /// Stable text tag for carrying the outcome across a wire.
    pub fn tag(self) -> &'static str {
        match self {
            DisposeOutcome::Unknown => "unknown",
            DisposeOutcome::Cancelled => "cancelled",
            DisposeOutcome::Deferred => "deferred",
            DisposeOutcome::Discarded => "discarded",
        }
    }

    /// Parses a [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Self> {
        [
            DisposeOutcome::Unknown,
            DisposeOutcome::Cancelled,
            DisposeOutcome::Deferred,
            DisposeOutcome::Discarded,
        ]
        .into_iter()
        .find(|o| o.tag() == tag)
    }
}

/// Book-keeping of one job. The task is taken when a worker starts
/// it; exactly one of `result` / `error` is set once terminal.
struct JobEntry {
    status: JobStatus,
    task: Option<ErasedTask>,
    result: Option<ErasedResult>,
    error: Option<String>,
    /// Set by [`JobService::dispose`] on a running job: the completion
    /// path drops the entry instead of storing its result.
    forgotten: bool,
    /// When the job entered the queue — the start of the
    /// submit→fetch latency observation.
    submitted: Instant,
}

/// Mutable service state behind one mutex: the wait queue, the job
/// table, and the id counter. One lock (rather than per-job locks)
/// keeps the invariants simple; every critical section is O(1) or
/// O(queue) and never runs a solve.
struct State {
    queue: VecDeque<JobId>,
    jobs: HashMap<u64, JobEntry>,
    next_id: u64,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes workers when a job is queued or shutdown begins.
    work_cv: Condvar,
    /// Wakes [`JobService::wait`] and [`JobService::wait_timeout`]
    /// callers when any job turns terminal.
    done_cv: Condvar,
    queue_capacity: usize,
    metrics: ServiceMetrics,
}

/// The service's registry handle plus cached metric handles, so the
/// submit/complete paths never re-lock the registry's name table.
struct ServiceMetrics {
    obs: Arc<ObsRegistry>,
    submitted: Arc<Counter>,
    rejected_queue_full: Arc<Counter>,
    jobs_done: Arc<Counter>,
    jobs_failed: Arc<Counter>,
    jobs_cancelled: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    submit_to_fetch: Arc<Histogram>,
}

impl ServiceMetrics {
    fn new(obs: Arc<ObsRegistry>) -> Self {
        Self {
            submitted: obs.counter("service.submitted"),
            rejected_queue_full: obs.counter("service.rejected_queue_full"),
            jobs_done: obs.counter("service.jobs_done"),
            jobs_failed: obs.counter("service.jobs_failed"),
            jobs_cancelled: obs.counter("service.jobs_cancelled"),
            queue_depth: obs.gauge("service.queue_depth"),
            submit_to_fetch: obs.histogram("timing.service.submit_to_fetch_seconds"),
            obs,
        }
    }
}

/// A running job service: submit closures from any thread, wait for
/// their [`JobStatus`], fetch their typed values. Dropping the service
/// (or calling [`shutdown`](Self::shutdown)) stops accepting new
/// jobs, drains the queue, and joins the workers.
///
/// See the [crate docs](crate) for the determinism guarantee and a
/// usage example.
pub struct JobService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl JobService {
    /// Spawns the worker pool and returns the running service.
    pub fn start(config: ServiceConfig) -> Self {
        let obs = config.obs.unwrap_or_default();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                next_id: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            queue_capacity: config.queue_capacity,
            metrics: ServiceMetrics::new(obs),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("hycim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();
        Self { shared, workers }
    }

    /// Submits a job: a worker runs `task()` and stores its value for
    /// [`fetch_value`](Self::fetch_value). Returns immediately with the
    /// job handle. The wire protocol (`hycim-net`) submits "rebuild the
    /// engine and solve a shard" closures whose values are plain
    /// serializable solutions; a closure that runs `engine.solve(seed)`
    /// fetches a value bit-identical to that direct call.
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] under backpressure,
    /// [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn submit_with<R, F>(&self, task: F) -> Result<JobId, SubmitError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let task: ErasedTask = Box::new(move || -> ErasedResult { Box::new(task()) });
        let metrics = &self.shared.metrics;
        let mut state = self.shared.state.lock().expect("service state lock");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.queue.len() >= self.shared.queue_capacity {
            metrics.rejected_queue_full.inc();
            return Err(SubmitError::QueueFull {
                capacity: self.shared.queue_capacity,
            });
        }
        let id = JobId(state.next_id);
        state.next_id += 1;
        state.jobs.insert(
            id.0,
            JobEntry {
                status: JobStatus::Queued,
                task: Some(task),
                result: None,
                error: None,
                forgotten: false,
                submitted: Instant::now(),
            },
        );
        state.queue.push_back(id);
        metrics.submitted.inc();
        metrics.queue_depth.set(state.queue.len() as u64);
        metrics
            .obs
            .tracer()
            .record(Event::JobSubmitted { job: id.0 });
        drop(state);
        self.shared.work_cv.notify_one();
        Ok(id)
    }

    /// Takes the typed value of a terminal job. A successful fetch
    /// (and a fetch of a failed job) **consumes** the entry: later
    /// waits return `None` and the id is forgotten. A type mismatch
    /// leaves the entry in place.
    ///
    /// # Errors
    ///
    /// [`FetchError::NotFinished`] while queued/running,
    /// [`FetchError::Failed`] for a job that panicked,
    /// [`FetchError::WrongType`] when `R` is not the closure's return
    /// type, [`FetchError::Unknown`] for untracked ids.
    pub fn fetch_value<R>(&self, id: JobId) -> Result<R, FetchError>
    where
        R: Send + 'static,
    {
        let mut state = self.shared.state.lock().expect("service state lock");
        let entry = state.jobs.get_mut(&id.0).ok_or(FetchError::Unknown(id))?;
        match entry.status {
            JobStatus::Queued | JobStatus::Running => Err(FetchError::NotFinished(entry.status)),
            JobStatus::Failed => {
                let entry = state.jobs.remove(&id.0).expect("entry just observed");
                Err(FetchError::Failed {
                    id,
                    message: entry.error.unwrap_or_else(|| "unknown panic".into()),
                })
            }
            JobStatus::Done => {
                let erased = entry.result.take().expect("done jobs hold a result");
                let latency = entry.submitted.elapsed();
                match erased.downcast::<R>() {
                    Ok(value) => {
                        state.jobs.remove(&id.0);
                        self.shared
                            .metrics
                            .submit_to_fetch
                            .record(latency.as_secs_f64());
                        Ok(*value)
                    }
                    Err(erased) => {
                        entry.result = Some(erased);
                        Err(FetchError::WrongType(id))
                    }
                }
            }
        }
    }

    /// Blocks until the job reaches a terminal state and returns it
    /// (`None` when the id is unknown or already fetched — possibly
    /// by a concurrent fetcher while waiting).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        self.wait_timeout(id, Duration::MAX)
    }

    /// [`wait`](Self::wait) with a deadline: returns the terminal
    /// status as soon as the job reaches it, or the job's current
    /// (non-terminal) status once `timeout` has passed. `None` when
    /// the id is unknown or already fetched. A `timeout` too large to
    /// form a deadline (such as [`Duration::MAX`]) waits without one;
    /// [`Duration::ZERO`] reads the current status without waiting.
    pub fn wait_timeout(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.state.lock().expect("service state lock");
        loop {
            let status = state.jobs.get(&id.0)?.status;
            if status.is_terminal() {
                return Some(status);
            }
            state = match deadline {
                None => self.shared.done_cv.wait(state).expect("service state lock"),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Some(status);
                    }
                    self.shared
                        .done_cv
                        .wait_timeout(state, left)
                        .expect("service state lock")
                        .0
                }
            };
        }
    }

    /// Drops a job's book-keeping without fetching its value: the
    /// disposal path for fire-and-forget submissions and for jobs
    /// whose caller lost interest. A queued job is dropped before it
    /// runs; a running job's entry is dropped as soon as its worker
    /// finishes, its value discarded. The outcome is what the wire
    /// protocol's `cancel` verb reports back.
    ///
    /// The service retains every unfetched terminal result (that is
    /// what makes fetch-after-completion work), so callers that
    /// abandon jobs **must** dispose of them or the result store grows
    /// with each abandoned job.
    ///
    /// The whole decision runs under one lock acquisition, so a dispose racing a
    /// concurrent fetch (or a worker finishing the job) observes
    /// exactly one consistent lifecycle stage: a job can never end up
    /// half-disposed with a stuck `Running` entry.
    pub fn dispose(&self, id: JobId) -> DisposeOutcome {
        let mut state = self.shared.state.lock().expect("service state lock");
        let Some(entry) = state.jobs.get_mut(&id.0) else {
            return DisposeOutcome::Unknown;
        };
        let outcome = match entry.status {
            JobStatus::Queued => {
                // Unqueue and drop the entry, task and all, in one
                // critical section.
                state.queue.retain(|&queued| queued != id);
                state.jobs.remove(&id.0);
                let metrics = &self.shared.metrics;
                metrics.queue_depth.set(state.queue.len() as u64);
                metrics.jobs_cancelled.inc();
                metrics
                    .obs
                    .tracer()
                    .record(Event::JobCancelled { job: id.0 });
                DisposeOutcome::Cancelled
            }
            JobStatus::Running => {
                // The worker holds the task; flag the entry so the
                // completion path drops it instead of storing the
                // result.
                entry.forgotten = true;
                DisposeOutcome::Deferred
            }
            JobStatus::Done | JobStatus::Failed => {
                state.jobs.remove(&id.0);
                DisposeOutcome::Discarded
            }
        };
        drop(state);
        if outcome == DisposeOutcome::Cancelled {
            self.shared.done_cv.notify_all();
        }
        outcome
    }

    /// Number of jobs the service is currently tracking (queued,
    /// running, or terminal-but-unfetched). A well-behaved caller that
    /// fetches or disposes of every submission drives this back to zero —
    /// the leak assertion the protocol tests rely on.
    pub fn live_jobs(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("service state lock")
            .jobs
            .len()
    }

    /// The registry this service publishes into: the one handed to
    /// [`ServiceConfig::with_obs`], or the service's private registry
    /// otherwise. Metric names are listed in the `hycim-obs` docs
    /// (`service.submitted`, `service.queue_depth`,
    /// `timing.service.submit_to_fetch_seconds`, ...).
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.shared.metrics.obs
    }

    /// Stops accepting submissions, lets the workers drain every
    /// still-queued job, and joins them. Equivalent to dropping the
    /// service, as an explicit statement of intent.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for JobService {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("service state lock");
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One worker: pop a job, run it outside the lock, record the
/// outcome. A panicking job is caught and recorded as `Failed`; the
/// worker survives. Exits once shutdown is flagged *and* the queue is
/// drained.
fn worker_loop(shared: &Shared) {
    let metrics = &shared.metrics;
    loop {
        let (id, task) = {
            let mut state = shared.state.lock().expect("service state lock");
            loop {
                if let Some(id) = state.queue.pop_front() {
                    let entry = state.jobs.get_mut(&id.0).expect("queued job has an entry");
                    entry.status = JobStatus::Running;
                    let task = entry.task.take().expect("queued job has a task");
                    metrics.queue_depth.set(state.queue.len() as u64);
                    metrics.obs.tracer().record(Event::JobStarted { job: id.0 });
                    break (id, task);
                }
                if state.shutdown {
                    return;
                }
                state = shared.work_cv.wait(state).expect("service state lock");
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(task));
        let mut state = shared.state.lock().expect("service state lock");
        let entry = state
            .jobs
            .get_mut(&id.0)
            .expect("running job keeps its entry");
        match &outcome {
            Ok(_) => {
                metrics.jobs_done.inc();
                metrics.obs.tracer().record(Event::JobDone { job: id.0 });
            }
            Err(_) => {
                metrics.jobs_failed.inc();
                metrics.obs.tracer().record(Event::JobFailed { job: id.0 });
            }
        }
        if entry.forgotten {
            // The caller disowned the job mid-run: discard instead of
            // retaining a result nobody will fetch.
            state.jobs.remove(&id.0);
        } else {
            match outcome {
                Ok(result) => {
                    entry.status = JobStatus::Done;
                    entry.result = Some(result);
                }
                Err(payload) => {
                    entry.status = JobStatus::Failed;
                    entry.error = Some(panic_message(payload.as_ref()));
                }
            }
        }
        drop(state);
        shared.done_cv.notify_all();
    }
}

/// Renders a caught panic payload as text (the common `&str` /
/// `String` payloads verbatim, anything else a placeholder).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Sender};

    /// Submits a job that parks its worker until the returned sender
    /// is used or dropped, and waits until it is running — the fixture
    /// that keeps later jobs queued.
    fn park_worker(service: &JobService) -> (JobId, Sender<()>) {
        let (started_tx, started) = channel();
        let (release, gate) = channel::<()>();
        let id = service
            .submit_with(move || {
                started_tx.send(()).expect("test is listening");
                let _ = gate.recv();
            })
            .unwrap();
        started.recv().expect("the job starts");
        (id, release)
    }

    fn status(service: &JobService, id: JobId) -> Option<JobStatus> {
        service.wait_timeout(id, Duration::ZERO)
    }

    #[test]
    fn single_job_round_trip() {
        let service = JobService::start(ServiceConfig::new().with_workers(2));
        let id = service.submit_with(|| vec![5u64, 6]).unwrap();
        assert_eq!(service.wait(id), Some(JobStatus::Done));
        assert_eq!(service.fetch_value::<Vec<u64>>(id).unwrap(), [5, 6]);
        // Fetch consumed the entry.
        assert_eq!(status(&service, id), None);
        assert!(matches!(
            service.fetch_value::<Vec<u64>>(id),
            Err(FetchError::Unknown(_))
        ));
    }

    #[test]
    fn wrong_type_fetch_keeps_the_result() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service.submit_with(|| String::from("cut")).unwrap();
        service.wait(id);
        assert!(matches!(
            service.fetch_value::<u64>(id),
            Err(FetchError::WrongType(_))
        ));
        // Entry survived; the right type still succeeds.
        assert_eq!(service.fetch_value::<String>(id).unwrap(), "cut");
    }

    #[test]
    fn wait_timeout_returns_the_live_status_at_the_deadline_and_early_on_completion() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let running = service
            .submit_with(move || {
                started_tx.send(()).expect("test is listening");
                gate.recv().expect("test releases the job");
                7u32
            })
            .unwrap();
        let queued = service.submit_with(|| 8u32).unwrap();
        started.recv().expect("the job starts");

        // The deadline passes with both jobs still live: each wait
        // hands back the job's current status.
        let timeout = Duration::from_millis(20);
        let begun = Instant::now();
        assert_eq!(
            service.wait_timeout(running, timeout),
            Some(JobStatus::Running)
        );
        assert!(begun.elapsed() >= timeout, "returned before the deadline");
        assert_eq!(
            service.wait_timeout(queued, Duration::ZERO),
            Some(JobStatus::Queued)
        );

        // Completion wakes a waiter long before its deadline.
        let releaser = std::thread::spawn(move || release.send(()).expect("job is waiting"));
        let begun = Instant::now();
        assert_eq!(
            service.wait_timeout(running, Duration::from_secs(600)),
            Some(JobStatus::Done)
        );
        assert!(begun.elapsed() < Duration::from_secs(60));
        releaser.join().expect("releaser thread");
        assert_eq!(
            service.wait_timeout(queued, Duration::MAX),
            Some(JobStatus::Done)
        );

        // Unknown and already-fetched ids have no status.
        assert_eq!(service.fetch_value::<u32>(running).unwrap(), 7);
        assert_eq!(service.wait_timeout(running, Duration::from_secs(1)), None);
        assert_eq!(
            service.wait_timeout(JobId::from_raw(999), Duration::from_secs(1)),
            None
        );
    }

    #[test]
    fn panicking_job_fails_without_killing_the_pool() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service
            .submit_with(|| -> u64 { panic!("intentional test panic") })
            .unwrap();
        assert_eq!(service.wait(id), Some(JobStatus::Failed));
        match service.fetch_value::<u64>(id) {
            Err(FetchError::Failed { message, .. }) => {
                assert!(message.contains("intentional test panic"))
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        // The lone worker survived the panic and still serves jobs.
        let ok = service.submit_with(|| 3u64).unwrap();
        assert_eq!(service.wait(ok), Some(JobStatus::Done));
    }

    #[test]
    fn value_jobs_round_trip_with_typed_fetch() {
        let service = JobService::start(ServiceConfig::new().with_workers(2));
        let id = service.submit_with(|| 6u64 * 7).unwrap();
        assert_eq!(service.wait(id), Some(JobStatus::Done));
        // Wrong type leaves the entry intact...
        assert!(matches!(
            service.fetch_value::<String>(id),
            Err(FetchError::WrongType(_))
        ));
        // ...the right type consumes it.
        assert_eq!(service.fetch_value::<u64>(id).unwrap(), 42);
        assert!(matches!(
            service.fetch_value::<u64>(id),
            Err(FetchError::Unknown(_))
        ));
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn value_job_panics_surface_as_failed() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service
            .submit_with(|| -> u64 { panic!("value job panic") })
            .unwrap();
        service.wait(id);
        match service.fetch_value::<u64>(id) {
            Err(FetchError::Failed { message, .. }) => {
                assert!(message.contains("value job panic"))
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn forget_disposes_of_every_lifecycle_stage() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let stored = |service: &JobService| service.shared.state.lock().unwrap().jobs.len();

        // Done: the retained result is dropped without a fetch.
        let done = service.submit_with(|| 1u64).unwrap();
        service.wait(done);
        assert_ne!(service.dispose(done), DisposeOutcome::Unknown);
        assert_eq!(status(&service, done), None);
        assert_eq!(stored(&service), 0);

        // Queued: the job never runs.
        let (head, release) = park_worker(&service);
        let queued = service
            .submit_with(|| -> u64 { panic!("a disposed job ran") })
            .unwrap();
        assert_ne!(service.dispose(queued), DisposeOutcome::Unknown);
        assert_eq!(status(&service, queued), None);
        assert_eq!(stored(&service), 1, "only the running head remains");

        // Running: the entry goes once the worker finishes.
        assert_ne!(service.dispose(head), DisposeOutcome::Unknown);
        drop(release);
        while status(&service, head).is_some() {
            std::thread::yield_now();
        }

        // The store is empty: nothing leaked.
        assert_eq!(stored(&service), 0);
        assert_eq!(
            service.obs().snapshot().counter("service.jobs_failed"),
            Some(0)
        );
    }

    #[test]
    fn dispose_reports_the_stage_it_found() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        assert_eq!(service.dispose(JobId(404)), DisposeOutcome::Unknown);

        let done = service.submit_with(|| 1u64).unwrap();
        service.wait(done);
        assert_eq!(service.dispose(done), DisposeOutcome::Discarded);
        assert_eq!(service.dispose(done), DisposeOutcome::Unknown);

        // Park the worker, then queue one more.
        let (head, release) = park_worker(&service);
        let queued = service.submit_with(|| 3u64).unwrap();
        assert_eq!(service.dispose(queued), DisposeOutcome::Cancelled);
        assert_eq!(status(&service, queued), None);

        // Flagged while running: the worker drops it on finish.
        assert_eq!(service.dispose(head), DisposeOutcome::Deferred);
        assert_eq!(status(&service, head), Some(JobStatus::Running));
        release.send(()).expect("the head is parked");
        while status(&service, head).is_some() {
            std::thread::yield_now();
        }
        assert!(matches!(
            service.fetch_value::<()>(head),
            Err(FetchError::Unknown(_))
        ));
        // The store is empty: nothing leaked.
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn concurrent_dispose_and_fetch_never_strand_an_entry() {
        // The regression this guards: an older disposal path took the lock
        // twice (cancel, then re-lock), so a fetch could interleave
        // and the second half would act on stale state. Hammer
        // dispose against fetch and the worker from three sides and
        // assert the job table always drains to empty.
        let service = Arc::new(JobService::start(ServiceConfig::new().with_workers(2)));
        for round in 0..40u64 {
            let id = service
                .submit_with(move || (0..2000u64).fold(round, |acc, k| acc.wrapping_mul(31) ^ k))
                .unwrap();
            let disposer = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.dispose(id))
            };
            let fetcher = {
                let service = Arc::clone(&service);
                std::thread::spawn(move || service.fetch_value::<u64>(id))
            };
            let disposed = disposer.join().unwrap();
            let fetched = fetcher.join().unwrap();
            // If the fetch only observed NotFinished, the dispose must
            // have claimed the entry (it existed at that point, so
            // Unknown would mean both sides lost it — the stranding).
            if matches!(fetched, Err(FetchError::NotFinished(_))) {
                assert_ne!(disposed, DisposeOutcome::Unknown, "round {round}");
            }
            // Whatever the interleaving, the entry drains: directly
            // (Cancelled/Discarded or a successful fetch) or via the
            // worker's forgotten-flag path (Deferred). Bounded wait so
            // a stranded entry fails the test instead of hanging it.
            let deadline = Instant::now() + Duration::from_secs(10);
            while status(&service, id).is_some() {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: entry stranded as {:?} after dispose={disposed:?} fetch={fetched:?}",
                    status(&service, id)
                );
                std::thread::yield_now();
            }
        }
        assert_eq!(service.live_jobs(), 0);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let ids: Vec<JobId> = (0..5u64)
            .map(|k| service.submit_with(move || k).unwrap())
            .collect();
        let shared = Arc::clone(&service.shared);
        service.shutdown();
        // After shutdown every submitted job has completed.
        let state = shared.state.lock().unwrap();
        for id in ids {
            assert_eq!(state.jobs.get(&id.0).unwrap().status, JobStatus::Done);
        }
    }

    #[test]
    fn submit_after_shutdown_flag_is_rejected() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        service.shared.state.lock().unwrap().shutdown = true;
        assert_eq!(
            service.submit_with(|| 1u64).unwrap_err(),
            SubmitError::ShuttingDown
        );
        // Clear the flag so Drop's join still works normally.
        service.shared.state.lock().unwrap().shutdown = false;
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = ServiceConfig::new().with_workers(0);
    }

    #[test]
    fn metrics_track_the_job_lifecycle() {
        let obs = Arc::new(hycim_obs::ObsRegistry::new());
        let service = JobService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_obs(Arc::clone(&obs)),
        );

        // Done path, with a submit→fetch latency observation.
        let done = service.submit_with(|| 1u64).unwrap();
        service.wait(done);
        service.fetch_value::<u64>(done).unwrap();

        // QueueFull path: park the worker, fill the 1-slot queue,
        // then overflow it.
        let (head, release) = park_worker(&service);
        let queued = service.submit_with(|| 3u64).unwrap();
        let overflow = service.submit_with(|| 4u64);
        assert!(matches!(overflow, Err(SubmitError::QueueFull { .. })));

        // Cancelled path: disposing of a queued job.
        assert_eq!(service.dispose(queued), DisposeOutcome::Cancelled);
        service.dispose(head);
        drop(release);
        service.wait(head);

        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("service.submitted"), Some(3));
        assert_eq!(snapshot.counter("service.rejected_queue_full"), Some(1));
        assert_eq!(snapshot.counter("service.jobs_cancelled"), Some(1));
        assert!(snapshot.counter("service.jobs_done").unwrap() >= 1);
        assert_eq!(snapshot.counter("service.jobs_failed"), Some(0));
        assert_eq!(snapshot.gauge("service.queue_depth"), Some(0));
        assert_eq!(
            snapshot
                .histogram("timing.service.submit_to_fetch_seconds")
                .map(|h| h.count()),
            Some(1)
        );
        // The lifecycle shows up in the tracer too.
        let events = obs.tracer().events();
        assert!(events.contains(&hycim_obs::Event::JobSubmitted { job: done.0 }));
        assert!(events.contains(&hycim_obs::Event::JobDone { job: done.0 }));
        assert!(events.contains(&hycim_obs::Event::JobCancelled { job: queued.0 }));

        // A service without with_obs still tracks privately.
        let private = JobService::start(ServiceConfig::new().with_workers(1));
        let id = private.submit_with(|| 9u64).unwrap();
        private.wait(id);
        assert_eq!(
            private.obs().snapshot().counter("service.submitted"),
            Some(1)
        );
    }

    #[test]
    fn failed_jobs_are_counted() {
        let service = JobService::start(ServiceConfig::new().with_workers(1));
        let id = service
            .submit_with(|| -> u64 { panic!("metric test panic") })
            .unwrap();
        service.wait(id);
        assert_eq!(
            service.obs().snapshot().counter("service.jobs_failed"),
            Some(1)
        );
    }
}
