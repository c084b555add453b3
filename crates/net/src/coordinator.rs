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
//!   a panicked solve, a refused spec) counts against a per-worker
//!   consecutive-failure circuit breaker; tripping it moves the
//!   worker to probation and requeues its in-flight shards.
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
//! worker answers in. A failure partway through a pass moves the
//! worker's connection generation on, whether the connection was
//! replaced or dropped, and no reply is read from a generation other
//! than the one its request was written to. Such a submit is requeued
//! as a failed attempt. Such a `wait` is skipped: a suspension has
//! already requeued its shard, and after a reconnect the shard is
//! waited on again in the next round.
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
//! an all-local run. [`NetError::ShardExhausted`] — now carrying the
//! full per-attempt failure chain — is reserved for shards that *no
//! path* can finish (e.g. a spec every worker and the local host
//! refuse), or for coordinators that opted out via
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
use crate::proto::{JobSpec, Request, WireSolution};

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

/// The workers of one run.
struct Fleet {
    workers: Vec<Worker>,
    /// Per-worker connection generation, bumped whenever a worker's
    /// connection is replaced or dropped. A reply is read only from
    /// the generation its request was written to.
    generations: Vec<u64>,
}

impl Fleet {
    /// The client and breaker count of `worker`, if it is live on the
    /// connection `generation` names.
    fn connection(
        &mut self,
        worker: usize,
        generation: u64,
    ) -> Option<(&mut WorkerClient, &mut u32)> {
        match &mut self.workers[worker] {
            Worker::Live { client, failures } if self.generations[worker] == generation => {
                Some((client, failures))
            }
            _ => None,
        }
    }
}

enum Slot {
    /// Waiting for (re-)dispatch.
    Todo { attempts: usize, chain: Vec<String> },
    /// Submit written to `worker`'s connection `generation`, reply not
    /// yet read; `attempts` excludes this one.
    Submitted {
        worker: usize,
        generation: u64,
        attempts: usize,
        chain: Vec<String>,
    },
    /// Submit accepted; `attempts` includes this one.
    Pending {
        worker: usize,
        job: u64,
        attempts: usize,
        chain: Vec<String>,
    },
    /// Fetched.
    Done(Vec<WireSolution>),
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
    /// — which suspends it and requeues its shards — instead of
    /// hanging the whole run. The `wait` verb's deadline is half of
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
    /// 1 — the first failure suspends, the conservative policy).
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

    /// Solves one shard on the coordinator host, or folds the local
    /// failure into the shard's exhaustion error.
    fn finish_locally_or_fail(
        &self,
        job: &ShardJob,
        attempts: usize,
        mut chain: Vec<String>,
    ) -> Result<Vec<WireSolution>, NetError> {
        if self.local_fallback {
            match local::solve_spec(&job.spec) {
                Ok(solutions) => {
                    self.obs.counter("coord.shards_local").inc();
                    self.obs.tracer().record(Event::ShardLocalSolve {
                        start: job.shard.start as u64,
                        end: job.shard.end as u64,
                    });
                    return Ok(solutions);
                }
                Err(e) => chain.push(format!("local fallback failed: {e}")),
            }
        }
        Err(NetError::ShardExhausted {
            start: job.shard.start,
            end: job.shard.end,
            attempts,
            chain,
        })
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
    /// [`NetError::Shard`] if the returned pieces cannot cover the
    /// grid exactly once (a worker returning the wrong count).
    pub fn run(&self, total: usize, jobs: &[ShardJob]) -> Result<Vec<WireSolution>, NetError> {
        let mut slots: Vec<Slot> = jobs
            .iter()
            .map(|_| Slot::Todo {
                attempts: 0,
                chain: Vec::new(),
            })
            .collect();

        if self.addrs.is_empty() {
            if !self.local_fallback {
                return Err(NetError::NoWorkers);
            }
            // Degraded from the start: the whole grid runs here.
            for (i, job) in jobs.iter().enumerate() {
                slots[i] = Slot::Done(self.finish_locally_or_fail(job, 0, Vec::new())?);
            }
            return Self::merge(total, jobs, slots);
        }

        let attempts_made = self.obs.counter("coord.shard_attempts");
        let retries = self.obs.counter("coord.shard_retries");
        let shards_done = self.obs.counter("coord.shards_done");
        let probes_sent = self.obs.counter("coord.probes_sent");
        let readmitted = self.obs.counter("coord.workers_readmitted");
        let backoff_waits = self.obs.counter("coord.backoff_waits");

        let workers: Vec<Worker> = self
            .addrs
            .iter()
            .map(|addr| match self.connect(addr) {
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
        let mut fleet = Fleet {
            generations: vec![0; workers.len()],
            workers,
        };
        let mut cursor = 0usize;
        let mut round = 0u64;
        let wait_for = wait_deadline(self.read_timeout);

        loop {
            // Probe pass: contact every probation worker whose
            // penalty has elapsed; readmit the ones that answer.
            for (w, state) in fleet.workers.iter_mut().enumerate() {
                let Worker::Probation {
                    since,
                    probes_failed,
                    ..
                } = &*state
                else {
                    continue;
                };
                let penalty = PROBE_BASE_ROUNDS << (*probes_failed).min(16);
                if round < since.saturating_add(penalty) {
                    continue;
                }
                let probes_failed = *probes_failed;
                probes_sent.inc();
                self.obs
                    .tracer()
                    .record(Event::WorkerProbed { worker: w as u64 });
                match self.probe(&self.addrs[w]) {
                    Ok(client) => {
                        *state = Worker::Live {
                            client,
                            failures: 0,
                        };
                        readmitted.inc();
                        self.obs
                            .tracer()
                            .record(Event::WorkerReadmitted { worker: w as u64 });
                    }
                    Err(e) => {
                        let probes_failed = probes_failed + 1;
                        *state = if probes_failed >= PROBE_LIMIT {
                            self.obs.counter("coord.workers_dead").inc();
                            Worker::Dead {
                                last: e.to_string(),
                            }
                        } else {
                            Worker::Probation {
                                since: round,
                                probes_failed,
                                last: e.to_string(),
                            }
                        };
                    }
                }
            }

            // Dispatch, write half: send every waiting shard's submit
            // to the next live worker — or settle its fate when
            // neither retries nor workers remain.
            for i in 0..slots.len() {
                let Slot::Todo { attempts, chain } = &slots[i] else {
                    continue;
                };
                let (attempts, chain) = (*attempts, chain.clone());
                if attempts >= self.max_attempts {
                    slots[i] = Slot::Done(self.finish_locally_or_fail(&jobs[i], attempts, chain)?);
                    continue;
                }
                let Some(worker) = next_live(&fleet.workers, &mut cursor) else {
                    if on_probation(&fleet.workers) {
                        // Someone may still be readmitted; wait for
                        // the probe schedule.
                        continue;
                    }
                    // The whole fleet is dead: degrade (or report,
                    // with every worker's last failure on the chain).
                    let mut chain = chain;
                    chain.push(fleet_obituary(&self.addrs, &fleet.workers));
                    slots[i] = Slot::Done(self.finish_locally_or_fail(&jobs[i], attempts, chain)?);
                    continue;
                };
                if attempts > 0 {
                    backoff_waits.inc();
                    (self.sleep)(self.backoff.delay(attempts));
                }
                let generation = fleet.generations[worker];
                let Worker::Live { client, .. } = &mut fleet.workers[worker] else {
                    unreachable!("next_live returns live workers");
                };
                slots[i] = match client.send(&Request::Submit(jobs[i].spec.clone())) {
                    Ok(()) => Slot::Submitted {
                        worker,
                        generation,
                        attempts,
                        chain,
                    },
                    Err(e) => {
                        attempts_made.inc();
                        let failure = e.to_string();
                        self.note_failure(&mut fleet, &mut slots, jobs, worker, &failure, round);
                        requeued(attempts, chain, &failure)
                    }
                };
            }

            // Dispatch, read half: one reply per submit, in write
            // order, each from the connection its submit went out on.
            for i in 0..slots.len() {
                let Slot::Submitted {
                    worker,
                    generation,
                    attempts,
                    chain,
                } = &mut slots[i]
                else {
                    continue;
                };
                let (worker, generation, attempts) = (*worker, *generation, *attempts);
                let chain = std::mem::take(chain);
                attempts_made.inc();
                let Some((client, _)) = fleet.connection(worker, generation) else {
                    // An earlier failure replaced or dropped that
                    // connection, and the submit was lost with it.
                    let failure = format!("worker {worker} connection lost before the reply");
                    slots[i] = requeued(attempts, chain, &failure);
                    continue;
                };
                slots[i] = match client.recv().and_then(submitted) {
                    Ok(job) => {
                        let shard = jobs[i].shard;
                        if attempts > 0 {
                            retries.inc();
                            self.obs.tracer().record(Event::ShardRetried {
                                start: shard.start as u64,
                                end: shard.end as u64,
                            });
                        }
                        self.obs.tracer().record(Event::ShardDispatched {
                            start: shard.start as u64,
                            end: shard.end as u64,
                            worker: worker as u64,
                        });
                        Slot::Pending {
                            worker,
                            job,
                            attempts: attempts + 1,
                            chain,
                        }
                    }
                    Err(e) => {
                        let failure = e.to_string();
                        self.note_failure(&mut fleet, &mut slots, jobs, worker, &failure, round);
                        requeued(attempts, chain, &failure)
                    }
                };
            }

            // Wait, write half: a `wait` for every in-flight shard.
            // The worker answers as soon as the shard finishes, or
            // with its status at the deadline.
            let mut in_flight = false;
            let mut waits = Vec::new();
            for i in 0..slots.len() {
                let Slot::Pending { worker, job, .. } = slots[i] else {
                    continue;
                };
                let deadline = if on_probation(&fleet.workers) {
                    wait_for.min(PROBATION_WAIT)
                } else {
                    wait_for
                };
                let generation = fleet.generations[worker];
                let Worker::Live { client, .. } = &mut fleet.workers[worker] else {
                    // Its worker was suspended this round; the
                    // suspension already requeued it.
                    continue;
                };
                in_flight = true;
                match client.send(&wait_request(job, deadline)) {
                    Ok(()) => waits.push((i, worker, generation)),
                    Err(e) => {
                        let failure = e.to_string();
                        self.note_failure(&mut fleet, &mut slots, jobs, worker, &failure, round);
                    }
                }
            }

            // Wait, read half: the replies in write order. A shard
            // that finished early has its reply buffered already.
            for (i, worker, generation) in waits {
                let Some((client, failures)) = fleet.connection(worker, generation) else {
                    // The connection this wait went out on was
                    // dropped, which requeued the shard, or replaced,
                    // and the next round waits on it again.
                    continue;
                };
                match client.recv().and_then(waited) {
                    Ok(None) => {}
                    Ok(Some(solutions)) => {
                        // A delivered shard closes the breaker's
                        // consecutive count.
                        *failures = 0;
                        shards_done.inc();
                        slots[i] = Slot::Done(solutions);
                    }
                    Err(e @ NetError::Remote { .. }) => {
                        // A job-level failure (panicked solve, refused
                        // spec): the worker is suspect, the shard
                        // retries elsewhere.
                        let failure = e.to_string();
                        self.note_failure(&mut fleet, &mut slots, jobs, worker, &failure, round);
                        if let Slot::Pending {
                            attempts, chain, ..
                        } = &mut slots[i]
                        {
                            let attempts = *attempts;
                            let mut chain = std::mem::take(chain);
                            chain.push(format!("attempt {attempts}: {failure}"));
                            slots[i] = Slot::Todo { attempts, chain };
                        }
                    }
                    Err(e) => {
                        let failure = e.to_string();
                        self.note_failure(&mut fleet, &mut slots, jobs, worker, &failure, round);
                    }
                }
            }

            if slots.iter().all(|s| matches!(s, Slot::Done(_))) {
                break;
            }
            round += 1;
            if !in_flight && on_probation(&fleet.workers) {
                std::thread::sleep(PROBATION_WAIT);
            }
        }

        Self::merge(total, jobs, slots)
    }

    fn merge(
        total: usize,
        jobs: &[ShardJob],
        slots: Vec<Slot>,
    ) -> Result<Vec<WireSolution>, NetError> {
        let parts: Vec<(Shard, Vec<WireSolution>)> = jobs
            .iter()
            .zip(slots)
            .map(|(job, slot)| match slot {
                Slot::Done(solutions) => (job.shard, solutions),
                _ => unreachable!("merge runs only when every slot is done"),
            })
            .collect();
        merge_shards(total, parts).map_err(NetError::Shard)
    }

    /// Counts a failure against a worker's circuit breaker. Tripping
    /// it suspends the worker into probation and requeues every shard
    /// pending on it (attempt counts preserved — the retry itself
    /// re-increments on dispatch). A failure under the threshold
    /// keeps the worker live but replaces its connection, since most
    /// failures sever the transport. Either way the worker's
    /// connection generation moves on, so no reply to a request
    /// written before the failure is read.
    fn note_failure(
        &self,
        fleet: &mut Fleet,
        slots: &mut [Slot],
        jobs: &[ShardJob],
        worker: usize,
        reason: &str,
        round: u64,
    ) {
        let failures = match &mut fleet.workers[worker] {
            Worker::Live { failures, .. } => {
                *failures += 1;
                *failures
            }
            // Already suspended (several pendings can fail in one
            // round, and the first suspension requeues them all).
            _ => return,
        };
        fleet.generations[worker] += 1;
        if failures < self.failure_threshold {
            // Under the breaker threshold: stay in rotation on a
            // fresh connection (the failed one is suspect).
            match self.connect(&self.addrs[worker]) {
                Ok(client) => {
                    fleet.workers[worker] = Worker::Live { client, failures };
                    return;
                }
                Err(_) => {
                    // Reconnect refused: fall through to suspension.
                }
            }
        }
        self.obs.counter("coord.workers_retired").inc();
        self.obs.tracer().record(Event::WorkerRetired {
            worker: worker as u64,
        });
        fleet.workers[worker] = Worker::Probation {
            since: round,
            probes_failed: 0,
            last: reason.to_string(),
        };
        let requeued = self.obs.counter("coord.shards_requeued");
        for (i, slot) in slots.iter_mut().enumerate() {
            if let Slot::Pending {
                worker: w,
                attempts,
                chain,
                ..
            } = slot
            {
                if *w == worker {
                    requeued.inc();
                    self.obs.tracer().record(Event::ShardRequeued {
                        start: jobs[i].shard.start as u64,
                        end: jobs[i].shard.end as u64,
                    });
                    let mut chain = std::mem::take(chain);
                    chain.push(format!(
                        "attempt {attempts}: worker {worker} suspended: {reason}"
                    ));
                    *slot = Slot::Todo {
                        attempts: *attempts,
                        chain,
                    };
                }
            }
        }
    }
}

/// The slot of a failed dispatch attempt: requeued, with the attempt
/// counted and its failure on the chain.
fn requeued(attempts: usize, mut chain: Vec<String>, failure: &str) -> Slot {
    chain.push(format!("attempt {}: {failure}", attempts + 1));
    Slot::Todo {
        attempts: attempts + 1,
        chain,
    }
}

/// Whether some worker awaits a probe.
fn on_probation(workers: &[Worker]) -> bool {
    workers
        .iter()
        .any(|w| matches!(w, Worker::Probation { .. }))
}

/// Advances the round-robin cursor to the next live worker.
fn next_live(workers: &[Worker], cursor: &mut usize) -> Option<usize> {
    for _ in 0..workers.len() {
        let candidate = *cursor % workers.len();
        *cursor = candidate + 1;
        if matches!(workers[candidate], Worker::Live { .. }) {
            return Some(candidate);
        }
    }
    None
}

/// One line summarizing why no worker is usable — the chain entry a
/// shard gets when the whole fleet is gone.
fn fleet_obituary(addrs: &[String], workers: &[Worker]) -> String {
    let summary: Vec<String> = workers
        .iter()
        .zip(addrs)
        .map(|(w, addr)| match w {
            Worker::Dead { last } => format!("{addr}: {last}"),
            Worker::Probation { last, .. } => format!("{addr}: {last}"),
            Worker::Live { .. } => format!("{addr}: live"),
        })
        .collect();
    format!("no usable workers ({})", summary.join("; "))
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
