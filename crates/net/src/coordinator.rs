//! The coordinator: splits a replica grid into shards, dispatches
//! them to workers, retries failures with seeded backoff, probes and
//! readmits recovered workers, and merges the results bit-identically
//! to a local run.
//!
//! # Resilience model
//!
//! Every worker is in one of three states:
//!
//! * **Live** — in the dispatch rotation. A failure (transport death,
//!   a panicked solve, a refused spec, a wrong count of solutions)
//!   requeues the worker's in-flight shards and counts against a
//!   per-worker consecutive-failure circuit breaker. Under its
//!   threshold the worker is reconnected; tripping it moves the worker
//!   to probation.
//! * **Probation** — out of the rotation, on a deterministic probe
//!   schedule measured in dispatch rounds (base penalty, doubling per
//!   failed probe). An elapsed penalty triggers a cheap health probe
//!   (the `stats` wire verb); success readmits the worker, failure
//!   doubles the penalty. The schedule is counted in loop rounds, not
//!   wall-clock, so a replayed run probes at the same points.
//! * **Dead** — the probe budget is spent; the worker is never
//!   contacted again in this run.
//!
//! # Waiting on shards
//!
//! Each loop round probes, dispatches, and then sends the `wait` verb
//! for every in-flight shard. The worker answers as soon as the shard
//! finishes, with its solutions, or with the shard's status once the
//! deadline passes. The deadline is half the read timeout, capped at
//! [`MAX_WAIT`](crate::worker::MAX_WAIT), so it always expires before
//! the read does. While some worker is on probation the deadline is
//! cut to 2 ms, so rounds, and with them the probe schedule, keep
//! ticking; a round with no shard in flight then sleeps those 2 ms.
//! A healthy fleet never sleeps between rounds.
//!
//! Both passes are pipelined: the dispatch pass writes every `submit`
//! before it reads any reply, and the wait pass every `wait`. Replies
//! are read in write order, which on each connection is the order the
//! worker answers in, and one function settles the slot of each. A
//! failure settles every slot written to the worker's connection,
//! whether the worker is reconnected or suspended: a submit whose
//! reply was not read is requeued as a failed attempt, and an accepted
//! shard is requeued, since the worker disposes of a connection's jobs
//! when it closes. So every request in flight went out on its worker's
//! current connection, and a reply is never read from another one.
//!
//! Between retry attempts of one shard the coordinator sleeps an
//! exponentially growing, jittered backoff. The jitter is drawn from
//! a dedicated `replica_seed(seed, BACKOFF_ROLE, attempt)` stream —
//! never from the wall clock — so timing noise cannot leak into
//! anything derived from the run, and the sleep itself is injectable
//! (and skippable in tests) via [`Coordinator::with_sleep_fn`].
//!
//! When a shard exhausts its attempt bound, or the whole fleet is
//! dead or empty, the coordinator **degrades gracefully**: it runs
//! the remaining shards locally through
//! [`BatchRunner`](hycim_core::BatchRunner) over the spec's exact
//! pre-derived seeds, so the merged result is still byte-identical to
//! an all-local run. [`NetError::ShardExhausted`] is reserved for
//! shards that *no path* can finish (e.g. a spec every worker and the
//! local host refuse), or for coordinators that opted out via
//! [`with_local_fallback(false)`](Coordinator::with_local_fallback).
//! Because every spec carries its exact seeds, a retried, readmitted,
//! or locally solved shard recomputes byte-for-byte the same
//! solutions — retries are invisible in the merged result.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use hycim_core::{merge_shards, replica_seed, Shard, ShardPlan};
use hycim_obs::{Event, ObsRegistry, Snapshot};

use crate::client::{submitted, wait_deadline, wait_request, waited, NetError, WorkerClient};
use crate::local;
use crate::proto::{JobSpec, Request, Response, WireSolution};

/// Role index of the backoff-jitter stream in
/// [`hycim_core::replica_seed`] — distinct from every
/// role the study recipes use (instance 0, solve 1, hardware 2), so
/// backoff draws can never collide with a solve stream.
const BACKOFF_ROLE: u64 = 0xB0FF;

/// How long a loop round lasts while some worker is on probation: the
/// `wait` deadline, or the sleep of a round with no shard in flight.
/// The probe schedule counts rounds, so rounds must keep passing while
/// a probe is due.
const PROBATION_WAIT: Duration = Duration::from_millis(2);

/// Dispatch rounds a worker spends on probation before its first
/// health probe; each failed probe doubles the wait.
const PROBE_BASE_ROUNDS: u64 = 4;

/// Failed probes after which a worker is dead for the rest of the run.
const PROBE_LIMIT: u32 = 3;

/// Seeded exponential backoff between retry attempts of one shard.
///
/// Attempt `a` (1-based) waits `base · 2^(a-1)`, scaled by a jitter
/// factor in `[0.5, 1.5)` drawn from
/// `replica_seed(seed, BACKOFF_ROLE, a)`, and capped at `cap`. The
/// delay is a pure function of `(seed, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffConfig {
    /// First-retry delay.
    pub base: Duration,
    /// Upper bound on any single delay.
    pub cap: Duration,
    /// Root of the jitter stream.
    pub seed: u64,
}

impl BackoffConfig {
    /// Defaults: 2 ms base, 100 ms cap, jitter stream rooted at
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(100),
            seed,
        }
    }

    /// Overrides the first-retry delay.
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Overrides the per-delay cap.
    pub fn with_cap(mut self, cap: Duration) -> Self {
        self.cap = cap;
        self
    }

    /// The capped, jittered delay before retry attempt `attempt`
    /// (1-based; attempt 0 — the first dispatch — never waits).
    pub fn delay(&self, attempt: usize) -> Duration {
        if attempt == 0 {
            return Duration::ZERO;
        }
        let doublings = (attempt - 1).min(16) as u32;
        let raw = self.base.as_secs_f64() * f64::from(2u32.pow(doublings));
        let draw = replica_seed(self.seed, BACKOFF_ROLE, attempt as u64);
        // 53 uniform bits -> [0, 1), mapped onto a [0.5, 1.5) factor.
        let jitter = 0.5 + (draw >> 11) as f64 / (1u64 << 53) as f64;
        Duration::from_secs_f64((raw * jitter).min(self.cap.as_secs_f64()))
    }
}

/// One unit of dispatch: a shard of the flat grid and the spec that
/// computes exactly that shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardJob {
    /// The flat-grid range this job covers.
    pub shard: Shard,
    /// The work: one solve per seed, in shard order (so
    /// `spec.seeds.len() == shard.len()`).
    pub spec: JobSpec,
}

/// Builds the shard jobs for one problem's replica column: replica
/// `k` solves with `replica_seed(root_seed, problem_index, k)` — for
/// `problem_index == 0` exactly the
/// [`BatchRunner`](hycim_core::BatchRunner) derivation, which is what
/// the bit-identity guarantee is stated against. Returns the grid
/// total alongside the jobs.
pub fn shard_replica_column(
    base: &JobSpec,
    replicas: usize,
    root_seed: u64,
    problem_index: u64,
    shards: usize,
) -> (usize, Vec<ShardJob>) {
    let plan = ShardPlan::split(replicas, shards.max(1));
    let jobs = plan
        .shards()
        .iter()
        .map(|&shard| {
            let mut spec = base.clone();
            spec.seeds = shard
                .indices()
                .map(|k| replica_seed(root_seed, problem_index, k as u64))
                .collect();
            ShardJob { shard, spec }
        })
        .collect();
    (plan.total(), jobs)
}

/// The injectable sleep used for backoff waits — tests swap in a
/// recorder so retry schedules are asserted, not slept through.
type SleepFn = Arc<dyn Fn(Duration) + Send + Sync>;

/// Dispatches shard jobs across a set of workers, with worker health
/// tracking, seeded retry backoff, and local-fallback graceful
/// degradation (see the module docs for the full model).
#[derive(Clone)]
pub struct Coordinator {
    addrs: Vec<String>,
    max_attempts: usize,
    read_timeout: Option<Duration>,
    connect_timeout: Option<Duration>,
    failure_threshold: u32,
    backoff: BackoffConfig,
    local_fallback: bool,
    sleep: SleepFn,
    obs: Arc<ObsRegistry>,
}

impl fmt::Debug for Coordinator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Coordinator")
            .field("addrs", &self.addrs)
            .field("max_attempts", &self.max_attempts)
            .field("read_timeout", &self.read_timeout)
            .field("connect_timeout", &self.connect_timeout)
            .field("failure_threshold", &self.failure_threshold)
            .field("backoff", &self.backoff)
            .field("local_fallback", &self.local_fallback)
            .finish_non_exhaustive()
    }
}

/// Coordinator-side view of one worker address.
enum Worker {
    /// In the dispatch rotation.
    Live {
        client: WorkerClient,
        /// Consecutive failures since the last success (the circuit
        /// breaker's count).
        failures: u32,
    },
    /// Out of the rotation, awaiting its next health probe.
    Probation {
        /// Round the probation (or last failed probe) started.
        since: u64,
        /// Failed probes so far; sets the doubling penalty.
        probes_failed: u32,
        /// Most recent failure, for diagnostics.
        last: String,
    },
    /// Probe budget exhausted; never contacted again this run.
    Dead {
        /// The failure that spent the last probe.
        last: String,
    },
}

/// One shard's progress through a run.
struct Slot {
    /// Dispatch attempts begun, the one in flight included.
    attempts: usize,
    /// Every failure so far, oldest first.
    chain: Vec<String>,
    state: State,
}

/// Where a shard's current attempt stands.
enum State {
    /// Waiting for (re-)dispatch.
    Todo,
    /// Submit written to `worker`'s connection, reply not yet read.
    Submitted { worker: usize },
    /// Submit accepted as `worker`'s job `job`.
    Pending { worker: usize, job: u64 },
    /// Fetched.
    Done(Vec<WireSolution>),
}

impl Slot {
    /// Puts the shard back in the dispatch queue, with `failure` on
    /// its chain under the current attempt.
    fn requeue(&mut self, failure: &str) {
        self.chain
            .push(format!("attempt {}: {failure}", self.attempts));
        self.state = State::Todo;
    }
}

impl Coordinator {
    /// A coordinator over the given worker addresses. The default
    /// attempt bound lets every shard try each worker once, plus one
    /// retry; local fallback and seeded backoff are on by default.
    pub fn new(addrs: Vec<String>) -> Self {
        let max_attempts = addrs.len() + 1;
        Self {
            addrs,
            max_attempts,
            read_timeout: None,
            connect_timeout: None,
            failure_threshold: 1,
            backoff: BackoffConfig::new(0),
            local_fallback: true,
            sleep: Arc::new(std::thread::sleep),
            obs: Arc::new(ObsRegistry::new()),
        }
    }

    /// Overrides the per-shard attempt bound.
    ///
    /// # Errors
    ///
    /// [`NetError::Config`] if `max_attempts == 0` (a shard must get
    /// at least one attempt).
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Result<Self, NetError> {
        if max_attempts == 0 {
            return Err(NetError::Config(
                "max_attempts must be at least 1 (every shard needs one dispatch attempt)".into(),
            ));
        }
        self.max_attempts = max_attempts;
        Ok(self)
    }

    /// Bounds every per-request wait on a worker: a peer that accepts
    /// the connection but goes silent turns into [`NetError::Timeout`]
    /// — a failure like any other, which requeues its shards — instead
    /// of hanging the whole run. The `wait` verb's deadline is half of
    /// it, capped at [`MAX_WAIT`](crate::worker::MAX_WAIT).
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Bounds the initial connect to each worker (unreachable
    /// addresses otherwise stall for the platform default, often
    /// minutes).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Consecutive failures a live worker absorbs before the circuit
    /// breaker moves it to probation (clamped to at least 1; default
    /// 1 — the first failure suspends, the conservative policy). A
    /// failure under the threshold reconnects the worker at once.
    /// Either way the shards in flight on it are requeued.
    pub fn with_failure_threshold(mut self, failures: u32) -> Self {
        self.failure_threshold = failures.max(1);
        self
    }

    /// Overrides the seeded retry backoff (see [`BackoffConfig`]).
    pub fn with_backoff(mut self, backoff: BackoffConfig) -> Self {
        self.backoff = backoff;
        self
    }

    /// Enables or disables graceful degradation. When enabled (the
    /// default), shards that exhaust their attempts — or a fleet that
    /// is entirely dead or empty — are solved on the coordinator host
    /// through [`BatchRunner`](hycim_core::BatchRunner), keeping the
    /// merged result byte-identical to an all-local run. When
    /// disabled, those conditions surface as
    /// [`NetError::ShardExhausted`] / [`NetError::NoWorkers`].
    pub fn with_local_fallback(mut self, enabled: bool) -> Self {
        self.local_fallback = enabled;
        self
    }

    /// Replaces the backoff sleep (tests inject a recorder so retry
    /// schedules are asserted without real waits). Only backoff waits
    /// route through this hook; the probation pacing does not.
    pub fn with_sleep_fn(mut self, sleep: SleepFn) -> Self {
        self.sleep = sleep;
        self
    }

    /// Routes the coordinator's own counters and events into a caller
    /// registry (by default each coordinator owns a private one,
    /// readable via [`obs`](Self::obs)).
    pub fn with_obs(mut self, obs: Arc<ObsRegistry>) -> Self {
        self.obs = obs;
        self
    }

    /// The registry holding the coordinator-side view of a run:
    /// `coord.shard_attempts` / `coord.shard_retries` /
    /// `coord.shards_done` / `coord.shards_local` /
    /// `coord.workers_retired` / `coord.workers_readmitted` /
    /// `coord.workers_dead` / `coord.probes_sent` /
    /// `coord.shards_requeued` / `coord.backoff_waits`, plus the
    /// dispatch/retire/probe/readmit event trace.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Scrapes every worker's metrics registry over the `stats` wire
    /// verb, honoring the configured timeouts. Returns one
    /// [`Snapshot`] per address, in address order.
    ///
    /// # Errors
    ///
    /// The first per-worker failure — scraping is a diagnostic path,
    /// so it reports rather than retries.
    pub fn scrape(&self) -> Result<Vec<(String, Snapshot)>, NetError> {
        self.addrs
            .iter()
            .map(|addr| {
                let mut client = self.connect(addr)?;
                Ok((addr.clone(), client.stats()?))
            })
            .collect()
    }

    fn connect(&self, addr: &str) -> Result<WorkerClient, NetError> {
        let mut client = match self.connect_timeout {
            Some(timeout) => WorkerClient::connect_timeout(addr, timeout)?,
            None => WorkerClient::connect(addr)?,
        };
        client.set_timeout(self.read_timeout)?;
        Ok(client)
    }

    /// The health probe: connect and exercise the `stats` verb. A
    /// worker that answers it has a live accept loop, a working frame
    /// path, and a responsive registry — cheap, and no job state is
    /// touched. The successful client is kept for dispatch.
    fn probe(&self, addr: &str) -> Result<WorkerClient, NetError> {
        let mut client = self.connect(addr)?;
        client.stats()?;
        Ok(client)
    }

    /// Runs a set of shard jobs to completion and merges their
    /// results into flat-grid order. With local fallback enabled (the
    /// default) the run completes whenever the specs are solvable at
    /// all — worker faults degrade throughput, never the result.
    ///
    /// # Errors
    ///
    /// [`NetError::NoWorkers`] for an empty address list (fallback
    /// disabled), [`NetError::ShardExhausted`] when a shard runs out
    /// of retries, surviving workers, *and* (if enabled) the local
    /// fallback — carrying the full failure chain — and
    /// [`NetError::Shard`] if the jobs do not cover the grid exactly
    /// once. A worker that returns the wrong count of solutions fails
    /// that attempt; the shard is retried.
    pub fn run(&self, total: usize, jobs: &[ShardJob]) -> Result<Vec<WireSolution>, NetError> {
        if self.addrs.is_empty() && !self.local_fallback {
            return Err(NetError::NoWorkers);
        }
        let mut run = Run::new(self, jobs);
        loop {
            run.probe();
            run.dispatch_write()?;
            run.dispatch_read();
            let in_flight = run.wait_write();
            run.wait_read();
            if run.slots.iter().all(|s| matches!(s.state, State::Done(_))) {
                break;
            }
            run.round += 1;
            if !in_flight && run.on_probation() {
                std::thread::sleep(PROBATION_WAIT);
            }
        }
        let parts = jobs
            .iter()
            .zip(run.slots)
            .map(|(job, slot)| match slot.state {
                State::Done(solutions) => (job.shard, solutions),
                _ => unreachable!("the loop ends when every slot is done"),
            })
            .collect();
        merge_shards(total, parts).map_err(NetError::Shard)
    }
}

/// One [`Coordinator::run`]: the shards' slots, the fleet, and the
/// round-robin and probe clocks, with one method per phase of a loop
/// round.
///
/// Invariant: a `Submitted` or `Pending` slot names a live worker, and
/// its request went out on that worker's current connection. A failure
/// settles every slot written to the connection before the worker
/// reconnects or leaves the rotation.
struct Run<'a> {
    coord: &'a Coordinator,
    jobs: &'a [ShardJob],
    slots: Vec<Slot>,
    workers: Vec<Worker>,
    /// The worker the next dispatch tries first (modulo the fleet).
    cursor: usize,
    /// Loop rounds completed: the probe schedule's clock.
    round: u64,
}

impl<'a> Run<'a> {
    fn new(coord: &'a Coordinator, jobs: &'a [ShardJob]) -> Self {
        // Registered up front, so a clean run reads them as zero.
        for name in [
            "coord.shard_attempts",
            "coord.shard_retries",
            "coord.shards_done",
            "coord.probes_sent",
            "coord.workers_readmitted",
            "coord.backoff_waits",
        ] {
            coord.obs.counter(name);
        }
        let workers = coord
            .addrs
            .iter()
            .map(|addr| match coord.connect(addr) {
                Ok(client) => Worker::Live {
                    client,
                    failures: 0,
                },
                Err(e) => Worker::Probation {
                    since: 0,
                    probes_failed: 0,
                    last: format!("initial connect failed: {e}"),
                },
            })
            .collect();
        let slots = jobs
            .iter()
            .map(|_| Slot {
                attempts: 0,
                chain: Vec::new(),
                state: State::Todo,
            })
            .collect();
        Self {
            coord,
            jobs,
            slots,
            workers,
            cursor: 0,
            round: 0,
        }
    }

    fn count(&self, counter: &str) {
        self.coord.obs.counter(counter).inc();
    }

    fn record(&self, event: Event) {
        self.coord.obs.tracer().record(event);
    }

    /// Probe pass: contacts every probation worker whose penalty has
    /// elapsed and readmits the ones that answer.
    fn probe(&mut self) {
        for w in 0..self.workers.len() {
            let Worker::Probation {
                since,
                probes_failed,
                ..
            } = self.workers[w]
            else {
                continue;
            };
            let penalty = PROBE_BASE_ROUNDS << probes_failed.min(16);
            if self.round < since.saturating_add(penalty) {
                continue;
            }
            self.count("coord.probes_sent");
            self.record(Event::WorkerProbed { worker: w as u64 });
            self.workers[w] = match self.coord.probe(&self.coord.addrs[w]) {
                Ok(client) => {
                    self.count("coord.workers_readmitted");
                    self.record(Event::WorkerReadmitted { worker: w as u64 });
                    Worker::Live {
                        client,
                        failures: 0,
                    }
                }
                Err(e) if probes_failed + 1 >= PROBE_LIMIT => {
                    self.count("coord.workers_dead");
                    Worker::Dead {
                        last: e.to_string(),
                    }
                }
                Err(e) => Worker::Probation {
                    since: self.round,
                    probes_failed: probes_failed + 1,
                    last: e.to_string(),
                },
            };
        }
    }

    /// Dispatch, write half: sends every waiting shard's submit to the
    /// next live worker — or settles its fate when neither retries nor
    /// workers remain.
    fn dispatch_write(&mut self) -> Result<(), NetError> {
        for i in 0..self.slots.len() {
            if !matches!(self.slots[i].state, State::Todo) {
                continue;
            }
            let attempts = self.slots[i].attempts;
            if attempts >= self.coord.max_attempts {
                self.finish_locally(i)?;
                continue;
            }
            let Some(worker) = self.next_live() else {
                // With a worker on probation, wait for the probe
                // schedule. A dead fleet degrades (or reports, with
                // every worker's last failure on the chain).
                if !self.on_probation() {
                    let obituary = self.obituary();
                    self.slots[i].chain.push(obituary);
                    self.finish_locally(i)?;
                }
                continue;
            };
            if attempts > 0 {
                self.count("coord.backoff_waits");
                (self.coord.sleep)(self.coord.backoff.delay(attempts));
            }
            self.count("coord.shard_attempts");
            let slot = &mut self.slots[i];
            slot.attempts += 1;
            slot.state = State::Submitted { worker };
            let submit = Request::Submit(self.jobs[i].spec.clone());
            if let Err(e) = self.client(worker).send(&submit) {
                let failure = e.to_string();
                self.slots[i].requeue(&failure);
                self.fail(worker, &failure);
            }
        }
        Ok(())
    }

    /// Dispatch, read half: one reply per submit, in write order.
    fn dispatch_read(&mut self) {
        for i in 0..self.slots.len() {
            if let State::Submitted { worker } = self.slots[i].state {
                let reply = self.client(worker).recv();
                self.settle(i, worker, reply);
            }
        }
    }

    /// Wait, write half: a `wait` for every in-flight shard. The worker
    /// answers as soon as the shard finishes, or with its status at the
    /// deadline. Returns whether any shard was in flight.
    fn wait_write(&mut self) -> bool {
        let wait_for = wait_deadline(self.coord.read_timeout);
        let mut in_flight = false;
        for i in 0..self.slots.len() {
            let State::Pending { worker, job } = self.slots[i].state else {
                continue;
            };
            in_flight = true;
            let deadline = if self.on_probation() {
                wait_for.min(PROBATION_WAIT)
            } else {
                wait_for
            };
            if let Err(e) = self.client(worker).send(&wait_request(job, deadline)) {
                self.fail(worker, &e.to_string());
            }
        }
        in_flight
    }

    /// Wait, read half: the replies in write order. A shard that
    /// finished early has its reply buffered already.
    fn wait_read(&mut self) {
        for i in 0..self.slots.len() {
            if let State::Pending { worker, .. } = self.slots[i].state {
                let reply = self.client(worker).recv();
                self.settle(i, worker, reply);
            }
        }
    }

    /// Settles slot `i` with the reply `worker` sent for it: an
    /// accepted submit makes the shard pending, a full set of solutions
    /// finishes it, and every failure goes to [`fail`](Self::fail).
    fn settle(&mut self, i: usize, worker: usize, reply: Result<Response, NetError>) {
        let shard = self.jobs[i].shard;
        let failure = if let State::Submitted { .. } = self.slots[i].state {
            match reply.and_then(submitted) {
                Ok(job) => {
                    let slot = &mut self.slots[i];
                    slot.state = State::Pending { worker, job };
                    if slot.attempts > 1 {
                        self.count("coord.shard_retries");
                        self.record(Event::ShardRetried {
                            start: shard.start as u64,
                            end: shard.end as u64,
                        });
                    }
                    self.record(Event::ShardDispatched {
                        start: shard.start as u64,
                        end: shard.end as u64,
                        worker: worker as u64,
                    });
                    return;
                }
                Err(e) => {
                    // Booked under its own failure, not as a lost reply.
                    let failure = e.to_string();
                    self.slots[i].requeue(&failure);
                    failure
                }
            }
        } else {
            let seeds = self.jobs[i].spec.seeds.len();
            match reply.and_then(waited) {
                Ok(None) => return,
                Ok(Some(solutions)) if solutions.len() == seeds => {
                    // A delivered shard closes the breaker's
                    // consecutive count.
                    if let Worker::Live { failures, .. } = &mut self.workers[worker] {
                        *failures = 0;
                    }
                    self.count("coord.shards_done");
                    self.slots[i].state = State::Done(solutions);
                    return;
                }
                Ok(Some(solutions)) => format!(
                    "worker {worker} returned {} solutions for {seeds} seeds",
                    solutions.len()
                ),
                Err(e) => e.to_string(),
            }
        };
        self.fail(worker, &failure);
    }

    /// Counts a failure against `worker`'s circuit breaker, then
    /// settles every slot written to its connection, which is gone: a
    /// failure under the threshold replaces it (the failed one is
    /// suspect), tripping the breaker (or a refused reconnect) drops it
    /// and suspends the worker into probation. A submit whose reply was
    /// not read is requeued as a failed attempt. An accepted shard is
    /// requeued with its attempt count kept (the retry re-increments on
    /// dispatch), since the worker disposes of a connection's jobs when
    /// it closes.
    fn fail(&mut self, worker: usize, reason: &str) {
        let Worker::Live { failures, .. } = &mut self.workers[worker] else {
            unreachable!("only a live worker's connection carries requests");
        };
        *failures += 1;
        let failures = *failures;
        let coord = self.coord;
        let fresh = if failures < coord.failure_threshold {
            coord.connect(&coord.addrs[worker]).ok()
        } else {
            None
        };
        let fate = if let Some(client) = fresh {
            self.workers[worker] = Worker::Live { client, failures };
            "reconnected"
        } else {
            self.count("coord.workers_retired");
            self.record(Event::WorkerRetired {
                worker: worker as u64,
            });
            self.workers[worker] = Worker::Probation {
                since: self.round,
                probes_failed: 0,
                last: reason.to_string(),
            };
            "suspended"
        };
        for (slot, job) in self.slots.iter_mut().zip(self.jobs) {
            match slot.state {
                State::Submitted { worker: w } if w == worker => {
                    slot.requeue(&format!("worker {worker} connection lost before the reply"));
                }
                State::Pending { worker: w, .. } if w == worker => {
                    coord.obs.counter("coord.shards_requeued").inc();
                    coord.obs.tracer().record(Event::ShardRequeued {
                        start: job.shard.start as u64,
                        end: job.shard.end as u64,
                    });
                    slot.requeue(&format!("worker {worker} {fate}: {reason}"));
                }
                _ => {}
            }
        }
    }

    /// Local finish: solves shard `i` on the coordinator host, or fails
    /// the run with the shard's exhaustion error.
    fn finish_locally(&mut self, i: usize) -> Result<(), NetError> {
        let shard = self.jobs[i].shard;
        let slot = &mut self.slots[i];
        if self.coord.local_fallback {
            match local::solve_spec(&self.jobs[i].spec) {
                Ok(solutions) => {
                    slot.state = State::Done(solutions);
                    self.count("coord.shards_local");
                    self.record(Event::ShardLocalSolve {
                        start: shard.start as u64,
                        end: shard.end as u64,
                    });
                    return Ok(());
                }
                Err(e) => slot.chain.push(format!("local fallback failed: {e}")),
            }
        }
        Err(NetError::ShardExhausted {
            start: shard.start,
            end: shard.end,
            attempts: slot.attempts,
            chain: std::mem::take(&mut slot.chain),
        })
    }

    /// The connection of `worker`, which the invariant keeps live.
    fn client(&mut self, worker: usize) -> &mut WorkerClient {
        match &mut self.workers[worker] {
            Worker::Live { client, .. } => client,
            _ => unreachable!("a slot in flight names a live worker"),
        }
    }

    /// Whether some worker awaits a probe.
    fn on_probation(&self) -> bool {
        self.workers
            .iter()
            .any(|w| matches!(w, Worker::Probation { .. }))
    }

    /// Advances the round-robin cursor to the next live worker.
    fn next_live(&mut self) -> Option<usize> {
        for _ in 0..self.workers.len() {
            let candidate = self.cursor % self.workers.len();
            self.cursor = candidate + 1;
            if matches!(self.workers[candidate], Worker::Live { .. }) {
                return Some(candidate);
            }
        }
        None
    }

    /// One line summarizing why no worker is usable — the chain entry a
    /// shard gets when the whole fleet is gone.
    fn obituary(&self) -> String {
        let summary: Vec<String> = self
            .workers
            .iter()
            .zip(&self.coord.addrs)
            .map(|(w, addr)| match w {
                Worker::Dead { last } | Worker::Probation { last, .. } => format!("{addr}: {last}"),
                Worker::Live { .. } => format!("{addr}: live"),
            })
            .collect();
        format!("no usable workers ({})", summary.join("; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let backoff = BackoffConfig::new(9)
            .with_base(Duration::from_millis(4))
            .with_cap(Duration::from_millis(50));
        assert_eq!(backoff.delay(0), Duration::ZERO);
        for attempt in 1..32 {
            let d = backoff.delay(attempt);
            assert_eq!(d, backoff.delay(attempt), "pure in (seed, attempt)");
            assert!(d <= Duration::from_millis(50), "capped: {d:?}");
            if attempt == 1 {
                // base * [0.5, 1.5)
                assert!(d >= Duration::from_millis(2), "{d:?}");
                assert!(d < Duration::from_millis(6), "{d:?}");
            }
        }
        // Growth before the cap bites: attempt 3 waits longer than
        // the fastest possible attempt 1.
        assert!(backoff.delay(3) > backoff.delay(1) || backoff.delay(3) >= backoff.cap / 2);
        // Different seeds draw different jitter somewhere early.
        let other = BackoffConfig::new(10)
            .with_base(Duration::from_millis(4))
            .with_cap(Duration::from_millis(50));
        assert!((1..8).any(|a| other.delay(a) != backoff.delay(a)));
    }

    #[test]
    fn probes_keep_their_round_pace_while_a_long_shard_runs() {
        use crate::worker::{WorkerConfig, WorkerFault, WorkerServer};
        use hycim_cop::{maxcut::MaxCut, AnyProblem};

        // Worker 0 solves a long shard. Worker 1 panics on its first
        // shard and goes on probation. The probe schedule counts
        // rounds, so rounds must keep passing while the long shard
        // runs: worker 1 is probed and readmitted before the run ends.
        let spawn = |fault| {
            let mut config = WorkerConfig::new();
            config.fault = fault;
            WorkerServer::bind("127.0.0.1:0", config)
                .expect("bind loopback")
                .spawn()
        };
        let healthy = spawn(None);
        let flaky = spawn(Some(WorkerFault::PanicFirstSubmits(1)));
        let problem = AnyProblem::from(MaxCut::random(60, 0.5, 5));
        let spec = JobSpec {
            family: problem.family_tag().to_string(),
            problem: problem.to_wire(),
            engine: "software".to_string(),
            sweeps: 10_000,
            hardware_seed: 1,
            record_trace: false,
            seeds: Vec::new(),
        };
        let (total, jobs) = shard_replica_column(&spec, 2, 7, 0, 2);
        let coordinator =
            Coordinator::new(vec![healthy.addr().to_string(), flaky.addr().to_string()]);
        let merged = coordinator.run(total, &jobs).expect("the run completes");
        assert_eq!(merged.len(), 2);
        let stats = coordinator.obs().snapshot();
        assert_eq!(stats.counter("coord.workers_retired"), Some(1), "{stats:?}");
        assert!(
            stats.counter("coord.workers_readmitted").unwrap_or(0) >= 1,
            "{stats:?}"
        );
        healthy.stop();
        flaky.stop();
    }

    #[test]
    fn zero_max_attempts_is_a_typed_config_error() {
        let err = Coordinator::new(vec!["127.0.0.1:1".into()])
            .with_max_attempts(0)
            .unwrap_err();
        match err {
            NetError::Config(message) => assert!(message.contains("max_attempts"), "{message}"),
            other => panic!("expected NetError::Config, got {other}"),
        }
        assert!(Coordinator::new(Vec::new()).with_max_attempts(3).is_ok());
    }
}
