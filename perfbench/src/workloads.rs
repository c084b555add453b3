//! The workloads: their instances (generated from the workload seed),
//! set-up, closed-loop measured phase, result verification, and
//! solution quality.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hycim_cop::binpack::BinPacking;
use hycim_cop::generator::QkpGenerator;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::mkp::MkpGenerator;
use hycim_cop::spinglass::SpinGlass;
use hycim_cop::AnyProblem;
use hycim_core::{objective_success, replica_seed, BatchRunner, EngineKind, EngineSettings};
use hycim_net::{shard_replica_column, Coordinator, ShardJob, WireSolution};
use hycim_net::{WorkerConfig, WorkerHandle, WorkerServer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engines::{build, Job, Outcome, Runnable};
use crate::host;
use crate::trace::Recorder;

/// Items per paper-scale instance.
const ITEMS: usize = 100;
/// QKP capacity on the filter path, fixed near half the expected total
/// weight (Σw of 100 items with weights 1..=50) so that the veto share,
/// and hence the cost of a solve, does not depend on the seed.
const QKP_CAPACITY: u64 = 1250;
/// QKP profit densities, in percent.
const DENSITIES: [u32; 4] = [25, 50, 75, 100];
/// MKP constraint counts (filters per bank).
const MKP_DIMS: [usize; 2] = [2, 5];
/// The paper's annealing budget.
const PAPER_SWEEPS: usize = 1000;
/// The `gate` study preset: budget and replicas per cell.
const GATE_SWEEPS: usize = 200;
const GATE_REPLICAS: usize = 6;
/// Capacity of the gate QKP instance, fixed (about 40% of the expected
/// total weight) so the size of its D-QUBO cell does not depend on the
/// seed.
const GATE_QKP_CAPACITY: u64 = 150;
/// Fleet shape: loopback workers, solve threads per worker, shards
/// per cell.
pub const FLEET_WORKERS: usize = 2;
const FLEET_SHARDS: usize = 2;
/// Rounds (passes for the fleet) whose results define the quality
/// figures and the deterministic trace counts.
const QUALITY_ROUNDS: usize = 2;
/// Seeds of round 0 of every direct job that [`verify`] re-solves.
pub const RESOLVES: usize = 2;

const ROLE_INSTANCE: u64 = 1;
const ROLE_SOLVE: u64 = 2;
const ROLE_HARDWARE: u64 = 3;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale QKP on `hycim` and MKP on `bank`, through `BatchRunner`.
    IneqFilter,
    /// The `gate` preset, cell by cell, through a 2-worker coordinator.
    FleetGate,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::IneqFilter, Workload::FleetGate];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IneqFilter => "ineq-filter",
            Workload::FleetGate => "fleet-gate",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything generated from the workload seed.
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// One job per (instance, backend).
    pub jobs: Vec<Job>,
    /// Solves per job per round (replicas per cell for the fleet).
    pub seeds_per_job: usize,
    /// `BatchRunner` threads.
    pub threads: usize,
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn derive(seed: u64, key: &str, role: u64) -> u64 {
    replica_seed(seed ^ fnv1a(key), role, 0)
}

fn job(
    seed: u64,
    instance: &str,
    problem: AnyProblem,
    kind: EngineKind,
    sweeps: usize,
    record_trace: bool,
) -> Job {
    Job {
        instance: instance.to_string(),
        problem,
        kind,
        settings: EngineSettings {
            sweeps,
            hardware_seed: derive(seed, instance, ROLE_HARDWARE),
            record_trace,
        },
        instance_seed: derive(seed, instance, ROLE_INSTANCE),
        root: derive(seed, &format!("{instance}/{kind}"), ROLE_SOLVE),
    }
}

/// A seeded packable bin-packing instance (~80% fill; redrawn until
/// first-fit-decreasing succeeds), as the study harness generates it.
fn bin_packing(items: usize, bins: usize, seed: u64) -> BinPacking {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let sizes: Vec<u64> = (0..items).map(|_| rng.random_range(2..=9)).collect();
        let total: u64 = sizes.iter().sum();
        let capacity = (total * 5 / 4 / bins as u64).max(9);
        let bp = BinPacking::new(sizes, capacity, bins).expect("valid sizes");
        if bp.first_fit_decreasing().is_some() {
            return bp;
        }
    }
}

/// The instances of the `gate` study preset, generated from `seed`.
fn gate_instances(seed: u64) -> Vec<(String, AnyProblem)> {
    let s = |key: &str| derive(seed, key, ROLE_INSTANCE);
    vec![
        (
            "qkp-d50-n14".into(),
            AnyProblem::from(
                QkpGenerator::new(14, 0.5)
                    .with_capacity_range(GATE_QKP_CAPACITY, GATE_QKP_CAPACITY)
                    .generate(s("qkp-d50-n14")),
            ),
        ),
        (
            "maxcut-d50-n12".into(),
            AnyProblem::from(MaxCut::random(12, 0.5, s("maxcut-d50-n12"))),
        ),
        (
            "spinglass-n10".into(),
            AnyProblem::from(
                SpinGlass::random_binary(10, s("spinglass-n10")).expect("n=10 spin glass"),
            ),
        ),
        (
            "binpack-b2-n6".into(),
            AnyProblem::from(bin_packing(6, 2, s("binpack-b2-n6"))),
        ),
        (
            "mkp-m2-n8".into(),
            AnyProblem::from(MkpGenerator::new(8, 2).generate(s("mkp-m2-n8"))),
        ),
    ]
}

/// Generates a workload's jobs from its seed.
pub fn plan(workload: Workload, seed: u64, threads: usize) -> Plan {
    let mut jobs = Vec::new();
    let seeds_per_job = match workload {
        Workload::IneqFilter => {
            for d in DENSITIES {
                let key = format!("qkp-d{d}-n{ITEMS}-c{QKP_CAPACITY}");
                let inst = QkpGenerator::new(ITEMS, f64::from(d) / 100.0)
                    .with_capacity_range(QKP_CAPACITY, QKP_CAPACITY)
                    .generate(derive(seed, &key, ROLE_INSTANCE));
                jobs.push(job(
                    seed,
                    &key,
                    inst.into(),
                    EngineKind::HyCim,
                    PAPER_SWEEPS,
                    false,
                ));
            }
            for m in MKP_DIMS {
                let key = format!("mkp-m{m}-n{ITEMS}");
                let inst = MkpGenerator::new(ITEMS, m).generate(derive(seed, &key, ROLE_INSTANCE));
                jobs.push(job(
                    seed,
                    &key,
                    inst.into(),
                    EngineKind::Bank,
                    PAPER_SWEEPS,
                    false,
                ));
            }
            2 * threads
        }
        Workload::FleetGate => {
            for (key, p) in gate_instances(seed) {
                for kind in [
                    EngineKind::Software,
                    EngineKind::HyCim,
                    EngineKind::Bank,
                    EngineKind::Dqubo,
                ] {
                    jobs.push(job(seed, &key, p.clone(), kind, GATE_SWEEPS, true));
                }
            }
            GATE_REPLICAS
        }
    };
    Plan {
        workload,
        jobs,
        seeds_per_job,
        threads,
    }
}

/// A loopback worker fleet. Dropping it stops every worker and joins
/// its threads.
pub struct Fleet {
    handles: Vec<WorkerHandle>,
}

impl Fleet {
    /// Binds and spawns `FLEET_WORKERS` workers with one solve thread
    /// each.
    pub fn spawn() -> Result<Fleet, String> {
        let handles = (0..FLEET_WORKERS)
            .map(|_| {
                let config = WorkerConfig {
                    threads: 1,
                    ..WorkerConfig::new()
                };
                WorkerServer::bind("127.0.0.1:0", config)
                    .map(WorkerServer::spawn)
                    .map_err(|e| format!("worker bind failed: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet { handles })
    }

    /// Worker addresses.
    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.handles.iter().map(WorkerHandle::addr).collect()
    }

    /// A coordinator over this fleet that reports worker faults as
    /// errors instead of solving locally.
    pub fn coordinator(&self) -> Coordinator {
        Coordinator::new(self.addrs().iter().map(ToString::to_string).collect())
            .with_local_fallback(false)
            .with_connect_timeout(Duration::from_secs(5))
            .with_read_timeout(Duration::from_secs(60))
    }
}

/// Wall time of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTime {
    /// The whole set-up, seconds.
    pub total: f64,
    /// Mean `EngineKind::build` time per job, seconds.
    pub build_mean: f64,
    /// Host slowness measured just before the set-up.
    pub slowness: f64,
}

/// The built engines (and the fleet) and what building them cost.
pub struct Setup {
    /// One engine per job.
    pub engines: Vec<Arc<dyn Runnable>>,
    /// The fleet, for `fleet-gate`.
    pub fleet: Option<Fleet>,
    /// Wall time of this set-up.
    pub time: SetupTime,
}

/// Builds every job's engine with `EngineKind::build`, and binds and
/// spawns the fleet for `fleet-gate`. `rep` numbers the set-up in the
/// trace.
pub fn setup(plan: &Plan, rec: &Recorder, rep: u64) -> Result<Setup, String> {
    let slowness = host::slowness(1);
    let (built, total) = rec.span("setup", plan.workload.name(), 0, rep, |id| {
        let mut engines = Vec::new();
        let mut build_secs = 0.0;
        for (j, job) in plan.jobs.iter().enumerate() {
            let (engine, secs) =
                rec.span("core.build", job.kind.tag(), id, j as u64, |_| build(job));
            engines.push(engine?);
            build_secs += secs;
        }
        let fleet = match plan.workload {
            Workload::FleetGate => Some(rec.span("fleet.spawn", "", id, 0, |_| Fleet::spawn()).0?),
            Workload::IneqFilter => None,
        };
        Ok::<_, String>((engines, fleet, build_secs / plan.jobs.len() as f64))
    });
    let (engines, fleet, build_mean) = built?;
    Ok(Setup {
        engines,
        fleet,
        time: SetupTime {
            total,
            build_mean,
            slowness,
        },
    })
}

/// One `BatchRunner::run_seeds` call of a direct workload.
pub struct Batch {
    /// Job index.
    pub job: usize,
    /// Round index (the seeds are `jobs[job].seeds(round, ..)`).
    pub round: usize,
    /// Results in seed order.
    pub outcomes: Vec<Outcome>,
    /// Wall time of the call.
    pub wall: f64,
    /// Host slowness measured before the round.
    pub slowness: f64,
}

/// One `Coordinator::run` call of the fleet workload.
pub struct CellRun {
    /// Job (cell) index.
    pub job: usize,
    /// Pass index.
    pub pass: usize,
    /// The merged result, or the coordinator's error.
    pub result: Result<Vec<WireSolution>, String>,
    /// From `Coordinator::run` entry to the merged result.
    pub secs: f64,
    /// Host slowness measured before the pass.
    pub slowness: f64,
}

/// The measured phase: closed-loop rounds until the time is up.
pub enum Phase {
    /// `ineq-filter`.
    Direct { batches: Vec<Batch>, wall: f64 },
    /// `fleet-gate`.
    Fleet {
        cells: Vec<CellRun>,
        wall: f64,
        retries: u64,
    },
}

impl Phase {
    /// Wall time of the measured phase, seconds.
    pub fn wall(&self) -> f64 {
        match self {
            Phase::Direct { wall, .. } | Phase::Fleet { wall, .. } => *wall,
        }
    }

    /// Operations attempted: solves, or cells for the fleet.
    pub fn attempted(&self) -> usize {
        match self {
            Phase::Direct { batches, .. } => batches.iter().map(|b| b.outcomes.len()).sum(),
            Phase::Fleet { cells, .. } => cells.len(),
        }
    }

    /// Solves completed (every replica of a successful cell).
    pub fn solves(&self) -> usize {
        match self {
            Phase::Direct { .. } => self.attempted(),
            Phase::Fleet { cells, .. } => cells
                .iter()
                .filter_map(|c| c.result.as_ref().ok())
                .map(Vec::len)
                .sum(),
        }
    }

    /// Throughput of each complete round (fleet pass) at the reference
    /// host's speed, solves/s: the round's solves over its wall time
    /// divided by the host slowness measured before the round.
    pub fn round_rates(&self) -> Vec<f64> {
        let mut rounds: Vec<(usize, f64)> = Vec::new();
        let mut add = |round: usize, solves: usize, wall: f64| {
            if rounds.len() <= round {
                rounds.resize(round + 1, (0, 0.0));
            }
            rounds[round].0 += solves;
            rounds[round].1 += wall;
        };
        match self {
            Phase::Direct { batches, .. } => {
                for b in batches {
                    add(b.round, b.outcomes.len(), b.wall / b.slowness);
                }
            }
            Phase::Fleet { cells, .. } => {
                for c in cells {
                    add(
                        c.pass,
                        c.result.as_ref().map_or(0, Vec::len),
                        c.secs / c.slowness,
                    );
                }
            }
        }
        rounds.iter().map(|&(n, wall)| n as f64 / wall).collect()
    }

    /// Per-operation latencies at the reference host's speed, seconds:
    /// solves, or cells.
    pub fn latencies(&self) -> Vec<f64> {
        match self {
            Phase::Direct { batches, .. } => batches
                .iter()
                .flat_map(|b| b.outcomes.iter().map(move |o| o.secs / b.slowness))
                .collect(),
            Phase::Fleet { cells, .. } => cells.iter().map(|c| c.secs / c.slowness).collect(),
        }
    }

    /// The host slowness of every batch, or of every fleet cell.
    pub fn slowness(&self) -> Vec<f64> {
        match self {
            Phase::Direct { batches, .. } => batches.iter().map(|b| b.slowness).collect(),
            Phase::Fleet { cells, .. } => cells.iter().map(|c| c.slowness).collect(),
        }
    }
}

/// The shard jobs of one fleet cell.
pub fn cell_shards(plan: &Plan, j: usize) -> (usize, Vec<ShardJob>) {
    let job = &plan.jobs[j];
    shard_replica_column(
        &job.spec(Vec::new()),
        plan.seeds_per_job,
        job.root,
        0,
        FLEET_SHARDS,
    )
}

/// Runs rounds (fleet passes) until `seconds` have passed and at least
/// `QUALITY_ROUNDS` rounds are complete. Before each round it times one
/// more whole set-up and tears it down again, so that the set-up
/// samples span the same stretch of time as the rounds, and then
/// measures the host slowness the round is scaled by.
pub fn run_phase(
    plan: &Plan,
    setup: &Setup,
    seconds: f64,
    rec: &Recorder,
) -> Result<(Phase, Vec<SetupTime>), String> {
    let runner = BatchRunner::new().with_threads(plan.threads);
    let start = Instant::now();
    let done = |round: usize| round >= QUALITY_ROUNDS && start.elapsed().as_secs_f64() >= seconds;
    let mut setups = Vec::new();
    let mut sample = |round: usize| -> Result<(), String> {
        setups.push(self::setup(plan, rec, round as u64 + 1)?.time);
        Ok(())
    };
    let phase = match (&setup.fleet, plan.workload) {
        (Some(fleet), Workload::FleetGate) => {
            let coordinator = fleet.coordinator();
            let shards: Vec<_> = (0..plan.jobs.len()).map(|j| cell_shards(plan, j)).collect();
            let mut cells = Vec::new();
            let mut pass = 0;
            while !done(pass) {
                sample(pass)?;
                let slowness = host::slowness(FLEET_WORKERS);
                for (j, (total, jobs)) in shards.iter().enumerate() {
                    let (result, secs) =
                        rec.span("coord.cell", plan.jobs[j].kind.tag(), 0, j as u64, |_| {
                            coordinator.run(*total, jobs).map_err(|e| e.to_string())
                        });
                    cells.push(CellRun {
                        job: j,
                        pass,
                        result,
                        secs,
                        slowness,
                    });
                }
                pass += 1;
            }
            let retries = coordinator
                .obs()
                .snapshot()
                .counter("coord.shard_retries")
                .unwrap_or(0);
            Phase::Fleet {
                cells,
                wall: start.elapsed().as_secs_f64(),
                retries,
            }
        }
        _ => {
            let mut batches = Vec::new();
            let mut round = 0;
            while !done(round) {
                sample(round)?;
                let slowness = host::slowness(plan.threads);
                for (j, job) in plan.jobs.iter().enumerate() {
                    let seeds = job.seeds(round, plan.seeds_per_job);
                    let (outcomes, wall) =
                        rec.span("core.batch", job.kind.tag(), 0, j as u64, |id| {
                            setup.engines[j].run(&runner, &seeds, rec, id)
                        });
                    batches.push(Batch {
                        job: j,
                        round,
                        outcomes,
                        wall,
                        slowness,
                    });
                }
                round += 1;
            }
            Phase::Direct {
                batches,
                wall: start.elapsed().as_secs_f64(),
            }
        }
    };
    Ok((phase, setups))
}

/// The local result of one fleet cell, shard by shard.
pub struct LocalCell {
    /// All replicas, in grid order.
    pub outcomes: Vec<Outcome>,
    /// Wall time of each shard's serial `BatchRunner::run_seeds`.
    pub shard_secs: Vec<f64>,
}

/// Solves every fleet cell's shards locally, as a worker would
/// (serially, per shard), timing each shard.
pub fn local_cells(plan: &Plan, setup: &Setup, rec: &Recorder) -> Vec<LocalCell> {
    (0..plan.jobs.len())
        .map(|j| {
            let (_, shards) = cell_shards(plan, j);
            let mut outcomes = Vec::new();
            let mut shard_secs = Vec::new();
            for shard in &shards {
                let (outs, secs) =
                    rec.span("local.shard", plan.jobs[j].kind.tag(), 0, j as u64, |id| {
                        setup.engines[j].run(&BatchRunner::serial(), &shard.spec.seeds, rec, id)
                    });
                outcomes.extend(outs);
                shard_secs.push(secs);
            }
            LocalCell {
                outcomes,
                shard_secs,
            }
        })
        .collect()
}

/// Checks a phase's results, one flag per operation (solve, or fleet
/// cell), set when the operation failed. Direct workloads re-solve the
/// first `resolves` seeds of round 0 of every job with a serial
/// `BatchRunner`; the fleet compares every merged cell with its local
/// solve, and an error is a failure.
pub fn verify(
    plan: &Plan,
    setup: &Setup,
    phase: &Phase,
    local: &[LocalCell],
    resolves: usize,
) -> Vec<bool> {
    match phase {
        Phase::Direct { batches, .. } => {
            let mut failed = Vec::new();
            for b in batches {
                let again = if b.round == 0 && resolves > 0 {
                    let seeds = plan.jobs[b.job].seeds(0, resolves.min(b.outcomes.len()));
                    setup.engines[b.job].run(&BatchRunner::serial(), &seeds, &Recorder::off(), 0)
                } else {
                    Vec::new()
                };
                failed.extend(
                    b.outcomes
                        .iter()
                        .enumerate()
                        .map(|(k, o)| again.get(k).is_some_and(|a| !a.same_result(o))),
                );
            }
            failed
        }
        Phase::Fleet { cells, .. } => cells
            .iter()
            .map(|c| match &c.result {
                Ok(merged) => {
                    let expected = &local[c.job].outcomes;
                    merged.len() != expected.len()
                        || merged.iter().zip(expected).any(|(m, e)| *m != e.wire)
                }
                Err(_) => true,
            })
            .collect(),
    }
}

/// Compares phase `b` with phase `a`, run on the same seeds: one flag
/// per operation of `b`, set when the same operation of `a` completed
/// with a different result. Also returns how many operations both ran.
pub fn compare_phases(a: &Phase, b: &Phase) -> (Vec<bool>, usize) {
    let mut differ = Vec::new();
    let mut compared = 0;
    match (a, b) {
        (Phase::Direct { batches: x, .. }, Phase::Direct { batches: y, .. }) => {
            for (k, q) in y.iter().enumerate() {
                for (i, r) in q.outcomes.iter().enumerate() {
                    let o = x.get(k).and_then(|p| p.outcomes.get(i));
                    compared += usize::from(o.is_some());
                    differ.push(o.is_some_and(|o| !o.same_result(r)));
                }
            }
        }
        (Phase::Fleet { cells: x, .. }, Phase::Fleet { cells: y, .. }) => {
            for (k, q) in y.iter().enumerate() {
                let p = x.get(k);
                compared += usize::from(p.is_some());
                differ.push(p.is_some_and(|p| p.result != q.result));
            }
        }
        _ => differ.resize(b.attempted(), false),
    }
    (differ, compared)
}

/// The solves whose results define quality and the trace counts: the
/// first `QUALITY_ROUNDS` rounds (direct), or one local solve of every
/// fleet cell. A pure function of the seed.
pub fn quality_set<'a>(phase: &'a Phase, local: &'a [LocalCell]) -> Vec<(usize, &'a Outcome)> {
    match phase {
        Phase::Direct { batches, .. } => batches
            .iter()
            .filter(|b| b.round < QUALITY_ROUNDS)
            .flat_map(|b| b.outcomes.iter().map(move |o| (b.job, o)))
            .collect(),
        Phase::Fleet { .. } => local
            .iter()
            .enumerate()
            .flat_map(|(j, c)| c.outcomes.iter().map(move |o| (j, o)))
            .collect(),
    }
}

/// Solution quality and deterministic anneal counts over a quality set.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Quality {
    /// Solves scored.
    pub solves: usize,
    /// Solves within 5% of the instance reference (`objective_success`).
    pub successes: usize,
    /// Solves satisfying every domain constraint.
    pub feasible: usize,
    /// Annealing iterations.
    pub iterations: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Proposals vetoed by the feasibility check.
    pub vetoed: u64,
    /// Proposals classified by a hardware filter.
    pub filter_evals: u64,
    /// Proposals that reached a crossbar.
    pub crossbar_evals: u64,
}

/// Scores a quality set with the study harness's reference rule: the
/// instance's reference objective folded with the best feasible solve
/// of any backend on that instance.
pub fn quality(plan: &Plan, set: &[(usize, &Outcome)]) -> Quality {
    let mut q = Quality::default();
    let mut references: Vec<(String, f64)> = Vec::new();
    for (j, _) in set {
        let job = &plan.jobs[*j];
        if references.iter().any(|(k, _)| *k == job.instance) {
            continue;
        }
        let best_seen = set
            .iter()
            .filter(|(i, o)| plan.jobs[*i].instance == job.instance && o.wire.feasible)
            .map(|(_, o)| o.wire.objective)
            .fold(f64::INFINITY, f64::min);
        let reference = job
            .problem
            .reference_objective(job.instance_seed)
            .unwrap_or(f64::INFINITY)
            .min(best_seen);
        references.push((job.instance.clone(), reference));
    }
    for (j, o) in set {
        let job = &plan.jobs[*j];
        let reference = references
            .iter()
            .find(|(k, _)| *k == job.instance)
            .map(|&(_, r)| r)
            .expect("every instance has a reference");
        q.solves += 1;
        q.successes += usize::from(objective_success(
            o.wire.objective,
            o.wire.feasible,
            reference,
        ));
        q.feasible += usize::from(o.wire.feasible);
        q.iterations += o.wire.iterations;
        q.accepted += o.accepted;
        q.vetoed += o.vetoed;
        match job.kind {
            EngineKind::HyCim | EngineKind::Bank => {
                q.filter_evals += o.wire.iterations;
                q.crossbar_evals += o.wire.iterations - o.vetoed;
            }
            EngineKind::Dqubo => q.crossbar_evals += o.wire.iterations,
            EngineKind::Software | EngineKind::Packed => {}
        }
    }
    q
}
