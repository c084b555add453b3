//! Per-layer metrics of the traced run. Each is measured from outside
//! the program, around the public calls of one layer: timings from
//! the traced phase's spans, counts from the anneal traces, and short
//! replays of a layer's calls on the workload's own instances,
//! filters, matrices and results.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use hycim_core::{BatchRunner, EngineKind};
use hycim_net::{shard_replica_column, MessageReceiver, MessageSender, Request, Response};
use hycim_net::{JobSpec, WireSolution, WorkerClient};
use hycim_qubo::{Assignment, LocalFieldState, QuboMatrix};
use hycim_service::{JobService, ServiceConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::engines::{blueprint, build, Chip, Job, Outcome};
use crate::trace::{median, Recorder};
use crate::workloads::{
    cell_shards, Fleet, LocalCell, Phase, Plan, Quality, Setup, SetupTime, FLEET_WORKERS,
};

/// Fabrications timed per engine (the median is kept).
const FAB_REPS: usize = 5;
/// Filter classifications replayed per filter or bank.
const CLASSIFY_CALLS: usize = 50_000;
/// Flip probes and commits replayed per matrix.
const PROBES: usize = 100_000;
const COMMITS: usize = 10_000;
/// Connects and `stats` round trips replayed against a worker.
const CONNECTS: usize = 30;
const STATS_CALLS: usize = 100;
/// Encode/decode repetitions per message pair.
const CODEC_REPS: usize = 20;

/// One reported figure.
pub struct Metric {
    /// `layer.quantity`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Sample count or other provenance, for the human report.
    pub note: String,
}

fn metric(
    name: impl Into<String>,
    unit: &'static str,
    value: f64,
    note: impl Into<String>,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
        note: note.into(),
    }
}

/// Replayed operations, and how many of them failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations replayed.
    pub attempted: usize,
    /// Operations whose result disagreed with the measured run.
    pub failed: usize,
}

impl Tally {
    fn add(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += usize::from(!ok);
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Inputs of the per-layer measurement.
pub struct Ctx<'a> {
    /// The workload's jobs.
    pub plan: &'a Plan,
    /// Built engines (and the fleet).
    pub setup: &'a Setup,
    /// The set-ups timed during the traced phase.
    pub setups: &'a [SetupTime],
    /// The traced measured phase.
    pub phase: &'a Phase,
    /// Local solves of the fleet cells (empty for direct workloads).
    pub local: &'a [LocalCell],
    /// Quality and anneal counts.
    pub quality: &'a Quality,
    /// The span recorder (switched on).
    pub rec: &'a Recorder,
    /// The workload seed.
    pub seed: u64,
}

/// Per-layer metrics, and the operations replayed to measure them.
pub fn per_layer(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let build_means: Vec<f64> = std::iter::once(&ctx.setup.time)
        .chain(ctx.setups)
        .map(|t| t.build_mean * 1e3)
        .collect();
    let mut out = vec![metric(
        "core.build_ms",
        "ms",
        median(&build_means),
        format!("mean per job, median of {} set-ups", build_means.len()),
    )];
    let mut replays = Tally::default();

    // Solve samples: (job, outcome) of every timed solve.
    let solves: Vec<(usize, &Outcome)> = match ctx.phase {
        Phase::Direct { batches, .. } => batches
            .iter()
            .flat_map(|b| b.outcomes.iter().map(move |o| (b.job, o)))
            .collect(),
        Phase::Fleet { .. } => ctx
            .local
            .iter()
            .enumerate()
            .flat_map(|(j, c)| c.outcomes.iter().map(move |o| (j, o)))
            .collect(),
    };
    for kind in [EngineKind::HyCim, EngineKind::Bank, EngineKind::Dqubo] {
        let mut secs: Vec<f64> = solves
            .iter()
            .filter(|(j, _)| ctx.plan.jobs[*j].kind == kind)
            .map(|(_, o)| o.secs)
            .collect();
        let mut note = format!("n={}", secs.len());
        if secs.is_empty() {
            secs = replay_backend(ctx, kind)?;
            note = format!(
                "n={}, replayed on this workload's QKP instances",
                secs.len()
            );
        }
        out.push(metric(
            format!("core.solve_ms.{kind}"),
            "ms",
            median(&secs) * 1e3,
            note,
        ));
    }

    let solve_total: f64 = solves.iter().map(|(_, o)| o.secs).sum();
    let efficiency = match ctx.phase {
        Phase::Direct { batches, .. } => {
            solve_total / (ctx.plan.threads as f64 * batches.iter().map(|b| b.wall).sum::<f64>())
        }
        Phase::Fleet { cells, .. } => {
            // Workers solve each cell's shards; their local solve time
            // stands in for the time spent solving on the workers.
            let cell_solve = |j: usize| ctx.local[j].outcomes.iter().map(|o| o.secs).sum::<f64>();
            let worked: f64 = cells.iter().map(|c| cell_solve(c.job)).sum();
            worked / (FLEET_WORKERS as f64 * cells.iter().map(|c| c.secs).sum::<f64>())
        }
    };
    out.push(metric(
        "core.batch_efficiency",
        "fraction",
        efficiency,
        "sum of solve time / (threads x batch wall)",
    ));

    // Fabrication, timed per engine, then weighted by the solves.
    let mut matrices = Vec::new();
    let mut fab_secs = Vec::new();
    for (j, job) in ctx.plan.jobs.iter().enumerate() {
        let print = blueprint(&job.problem, job.kind)?;
        let reps = if print.has_hardware() { FAB_REPS } else { 1 };
        let mut times = Vec::new();
        let mut matrix = None;
        for _ in 0..reps {
            let (chip, t) = ctx
                .rec
                .span("cim.fabricate", job.kind.tag(), 0, j as u64, |_| {
                    print.fabricate(job.settings.hardware_seed)
                });
            matrix = Some(chip?.matrix);
            times.push(t);
        }
        matrices.push(matrix.expect("at least one fabrication"));
        fab_secs.push(if print.has_hardware() {
            median(&times)
        } else {
            0.0
        });
    }
    let hw_solves: Vec<usize> = solves
        .iter()
        .map(|(j, _)| *j)
        .filter(|&j| ctx.plan.jobs[j].kind != EngineKind::Software)
        .collect();
    let fab_total: f64 = hw_solves.iter().map(|&j| fab_secs[j]).sum();
    out.push(metric(
        "cim.fabricate_ms",
        "ms",
        fab_total / hw_solves.len().max(1) as f64 * 1e3,
        format!("per hardware solve, n={}", hw_solves.len()),
    ));
    out.push(metric(
        "core.fabricate_share",
        "fraction",
        fab_total / solve_total,
        "fabrication / solve time",
    ));

    let (single, bank) = classify_ns(ctx)?;
    out.push(single);
    out.push(bank);
    let q = ctx.quality;
    out.push(metric(
        "cim.filter_evals",
        "count",
        q.filter_evals as f64,
        format!("{} solves", q.solves),
    ));
    out.push(metric(
        "cim.crossbar_evals",
        "count",
        q.crossbar_evals as f64,
        format!("{} solves", q.solves),
    ));

    let (probe, commit) = local_field_ns(ctx, &matrices);
    out.push(metric(
        "qubo.probe_ns",
        "ns",
        probe,
        "LocalFieldState::flip_delta, mean over matrices",
    ));
    out.push(metric(
        "qubo.commit_ns",
        "ns",
        commit,
        "LocalFieldState::commit_flip, mean over matrices",
    ));

    out.push(metric(
        "anneal.ns_per_iter",
        "ns",
        (solve_total - fab_total)
            / solves
                .iter()
                .map(|(_, o)| o.wire.iterations as f64)
                .sum::<f64>()
            * 1e9,
        "(solve - fabricate) / iterations",
    ));
    let iters = q.iterations.max(1) as f64;
    out.push(metric(
        "anneal.iterations",
        "count",
        q.iterations as f64,
        format!("{} solves", q.solves),
    ));
    out.push(metric(
        "anneal.veto_share",
        "fraction",
        q.vetoed as f64 / iters,
        "vetoed / iterations",
    ));
    out.push(metric(
        "anneal.accept_share",
        "fraction",
        q.accepted as f64 / iters,
        "accepted / iterations",
    ));

    let (service, tally) = service_layer(ctx)?;
    out.extend(service);
    replays.merge(tally);

    // Direct workloads have no fleet of their own; this one lives until
    // the function returns.
    let temporary;
    let fleet = match &ctx.setup.fleet {
        Some(fleet) => fleet,
        None => {
            temporary = Fleet::spawn()?;
            &temporary
        }
    };
    let (net, tally) = net_layer(ctx, fleet)?;
    out.extend(net);
    replays.merge(tally);
    let (coord, tally) = coord_layer(ctx, fleet)?;
    out.extend(coord);
    replays.merge(tally);
    Ok((out, replays))
}

/// Times `kind` on the workload's QKP instances when the measured
/// phase never ran it: one seed per thread per instance, through
/// `BatchRunner`.
fn replay_backend(ctx: &Ctx, kind: EngineKind) -> Result<Vec<f64>, String> {
    let runner = BatchRunner::new().with_threads(ctx.plan.threads);
    let mut secs = Vec::new();
    for job in ctx
        .plan
        .jobs
        .iter()
        .filter(|j| j.problem.family_tag() == "qkp")
    {
        let other = Job {
            kind,
            ..job.clone()
        };
        let engine = build(&other)?;
        let seeds = other.seeds(0, ctx.plan.threads);
        secs.extend(
            engine
                .run(&runner, &seeds, ctx.rec, 0)
                .iter()
                .map(|o| o.secs),
        );
    }
    Ok(secs)
}

/// Fabricates the hardware of every job on `kind`.
fn chips_of(ctx: &Ctx, kind: EngineKind) -> Result<Vec<Chip>, String> {
    ctx.plan
        .jobs
        .iter()
        .filter(|j| j.kind == kind)
        .map(|j| blueprint(&j.problem, kind)?.fabricate(j.settings.hardware_seed))
        .collect()
}

/// Mean ns per `classify_load` (single filter) and per
/// `classify_loads` (bank), on loads within one maximum item weight of
/// each capacity — where the annealer's probes land.
fn classify_ns(ctx: &Ctx) -> Result<(Metric, Metric), String> {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let near = |cap: u64, rng: &mut StdRng| cap.saturating_sub(64) + rng.random_range(0..=128u64);

    let filters = chips_of(ctx, EngineKind::HyCim)?;
    let mut single = Vec::new();
    for (i, c) in filters.iter().enumerate() {
        let filter = c.filter.as_ref().expect("hycim chips carry a filter");
        let loads: Vec<u64> = (0..1024)
            .map(|_| near(filter.capacity(), &mut rng))
            .collect();
        let mut noise = StdRng::seed_from_u64(ctx.seed ^ i as u64);
        let ((), t) = ctx.rec.span("cim.classify", "hycim", 0, i as u64, |_| {
            let mut admitted = 0usize;
            for k in 0..CLASSIFY_CALLS {
                admitted += usize::from(
                    filter
                        .classify_load(loads[k % loads.len()], &mut noise)
                        .is_feasible(),
                );
            }
            black_box(admitted);
        });
        single.push(t / CLASSIFY_CALLS as f64 * 1e9);
    }

    let banks = chips_of(ctx, EngineKind::Bank)?;
    let mut banked = Vec::new();
    let mut filters_per_bank = Vec::new();
    for (i, c) in banks.iter().enumerate() {
        let bank = c.bank.as_ref().expect("bank chips carry a bank");
        let loads: Vec<Vec<u64>> = (0..1024)
            .map(|_| {
                bank.constraints()
                    .iter()
                    .map(|k| near(k.capacity(), &mut rng))
                    .collect()
            })
            .collect();
        let mut noise = StdRng::seed_from_u64(ctx.seed ^ i as u64);
        let ((), t) = ctx.rec.span("cim.bank_classify", "bank", 0, i as u64, |_| {
            let mut admitted = 0usize;
            for k in 0..CLASSIFY_CALLS {
                admitted += usize::from(
                    bank.classify_loads(&loads[k % loads.len()], &mut noise)
                        .is_feasible(),
                );
            }
            black_box(admitted);
        });
        banked.push(t / CLASSIFY_CALLS as f64 * 1e9);
        filters_per_bank.push(bank.len().to_string());
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    Ok((
        metric(
            "cim.classify_ns",
            "ns",
            mean(&single),
            format!("mean over {} filters", single.len()),
        ),
        metric(
            "cim.bank_classify_ns",
            "ns",
            mean(&banked),
            format!("mean over banks of {} filters", filters_per_bank.join("/")),
        ),
    ))
}

/// Mean ns per `flip_delta` probe and per `commit_flip` on each
/// engine's stored matrix, from a random 30%-dense configuration.
fn local_field_ns(ctx: &Ctx, matrices: &[QuboMatrix]) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(ctx.seed);
    let (mut probe, mut commit) = (Vec::new(), Vec::new());
    for (j, m) in matrices.iter().enumerate() {
        let mut x = Assignment::random_with_density(m.dim(), 0.3, &mut rng);
        let mut fields = LocalFieldState::new(m, &x);
        let picks: Vec<usize> = (0..4096).map(|_| rng.random_range(0..m.dim())).collect();
        let tag = ctx.plan.jobs[j].kind.tag();
        let ((), t) = ctx.rec.span("qubo.probe", tag, 0, j as u64, |_| {
            let mut sum = 0.0;
            for k in 0..PROBES {
                sum += fields.flip_delta(&x, picks[k % picks.len()]);
            }
            black_box(sum);
        });
        probe.push(t / PROBES as f64 * 1e9);
        let ((), t) = ctx.rec.span("qubo.commit", tag, 0, j as u64, |_| {
            for k in 0..COMMITS {
                let i = picks[k % picks.len()];
                x.flip(i);
                fields.commit_flip(&x, i);
            }
            black_box(fields.field(0));
        });
        commit.push(t / COMMITS as f64 * 1e9);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    (mean(&probe), mean(&commit))
}

/// One unit of replayed work with the result the measured phase (or
/// the local fleet solve) produced for it.
struct Unit {
    job: usize,
    seeds: Vec<u64>,
    expected: Vec<WireSolution>,
}

/// The replay sample: round 0 of every direct job, one unit per
/// solve; or every fleet shard.
fn units(ctx: &Ctx, per_solve: bool) -> Vec<Unit> {
    match ctx.phase {
        Phase::Direct { batches, .. } => {
            let mut units = Vec::new();
            for b in batches.iter().filter(|b| b.round == 0) {
                let seeds = ctx.plan.jobs[b.job].seeds(0, b.outcomes.len());
                let unit = |s: &[u64], o: &[Outcome]| Unit {
                    job: b.job,
                    seeds: s.to_vec(),
                    expected: o.iter().map(|o| o.wire.clone()).collect(),
                };
                if per_solve {
                    for (s, o) in seeds.chunks(1).zip(b.outcomes.chunks(1)) {
                        units.push(unit(s, o));
                    }
                } else {
                    units.push(unit(&seeds, &b.outcomes));
                }
            }
            units
        }
        Phase::Fleet { .. } => {
            let mut units = Vec::new();
            for (j, local) in ctx.local.iter().enumerate() {
                let (_, shards) = cell_shards(ctx.plan, j);
                for shard in shards {
                    let o = &local.outcomes[shard.shard.start..shard.shard.end];
                    units.push(Unit {
                        job: j,
                        seeds: shard.spec.seeds.clone(),
                        expected: o.iter().map(|o| o.wire.clone()).collect(),
                    });
                }
            }
            units
        }
    }
}

/// Solves a wire spec the way a worker does: decode, build, run every
/// seed serially.
fn solve_spec(spec: &JobSpec) -> Result<Vec<Outcome>, String> {
    let problem = spec.decode_problem().map_err(|e| e.to_string())?;
    let job = Job {
        instance: String::new(),
        problem,
        kind: spec.engine_kind().map_err(|e| e.to_string())?,
        settings: spec.settings(),
        instance_seed: 0,
        root: 0,
    };
    Ok(build(&job)?.run(&BatchRunner::serial(), &spec.seeds, &Recorder::off(), 0))
}

type Stamped = (Instant, Instant, Result<Vec<Outcome>, String>);

/// Pushes the sample through a 2-worker `JobService` with
/// `submit_with`, two jobs in flight: single solves for direct
/// workloads, whole shard specs (decode, build, solve) for the fleet.
fn service_layer(ctx: &Ctx) -> Result<(Vec<Metric>, Tally), String> {
    let service = JobService::start(ServiceConfig::new().with_workers(2).with_queue_capacity(64));
    let fleet = matches!(ctx.phase, Phase::Fleet { .. });
    let units = units(ctx, true);
    let (mut waits, mut runs, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    for group in units.chunks(2) {
        let mut ids = Vec::new();
        for u in group {
            let job = &ctx.plan.jobs[u.job];
            let task: Box<dyn FnOnce() -> Stamped + Send> = if fleet {
                let spec = job.spec(u.seeds.clone());
                Box::new(move || {
                    let start = Instant::now();
                    let out = solve_spec(&spec);
                    (start, Instant::now(), out)
                })
            } else {
                let engine = Arc::clone(&ctx.setup.engines[u.job]);
                let seeds = u.seeds.clone();
                Box::new(move || {
                    let start = Instant::now();
                    let out = engine.run(&BatchRunner::serial(), &seeds, &Recorder::off(), 0);
                    (start, Instant::now(), Ok(out))
                })
            };
            let submitted = Instant::now();
            let id = service
                .submit_with(task)
                .map_err(|e| format!("service submit: {e}"))?;
            ids.push((id, submitted, u));
        }
        for (id, submitted, u) in ids {
            service.wait(id);
            match service.fetch_value::<Stamped>(id) {
                Ok((start, end, Ok(out))) => {
                    waits.push(start.duration_since(submitted).as_secs_f64());
                    runs.push(end.duration_since(start).as_secs_f64());
                    tally.add(out.iter().map(|o| &o.wire).eq(&u.expected));
                }
                _ => tally.add(false),
            }
        }
    }
    service.shutdown();
    let note = format!("n={}, 2 workers, 2 jobs in flight", runs.len());
    Ok((
        vec![
            metric(
                "service.queue_wait_ms",
                "ms",
                median(&waits) * 1e3,
                note.clone(),
            ),
            metric("service.run_ms", "ms", median(&runs) * 1e3, note),
        ],
        tally,
    ))
}

/// Connect and `stats` round-trip latency against a loopback worker,
/// and the frame codec on each unit's submit request and result
/// response.
fn net_layer(ctx: &Ctx, fleet: &Fleet) -> Result<(Vec<Metric>, Tally), String> {
    let addr = fleet.addrs()[0];
    let mut connects = Vec::new();
    for i in 0..CONNECTS {
        let (client, t) = ctx.rec.span("net.connect", "", 0, i as u64, |_| {
            WorkerClient::connect(addr)
        });
        drop(client.map_err(|e| format!("connect: {e}"))?);
        connects.push(t);
    }
    let mut client = WorkerClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut rtts = Vec::new();
    for i in 0..STATS_CALLS {
        let (stats, t) = ctx
            .rec
            .span("net.stats", "", 0, i as u64, |_| client.stats());
        stats.map_err(|e| format!("stats: {e}"))?;
        rtts.push(t);
    }
    drop(client);

    let (mut codec, mut bytes, mut tally) = (Vec::new(), Vec::new(), Tally::default());
    for (i, u) in units(ctx, false).iter().enumerate() {
        let request = Request::Submit(ctx.plan.jobs[u.job].spec(u.seeds.clone()));
        let response = Response::Solutions {
            job: i as u64,
            solutions: u.expected.clone(),
        };
        let mut times = Vec::new();
        let mut size = 0;
        for _ in 0..CODEC_REPS {
            let ((ok, n), t) = ctx.rec.span("net.codec", "", 0, i as u64, |_| {
                let (req, req_bytes) = round_trip(&request.to_value());
                let (resp, resp_bytes) = round_trip(&response.to_value());
                let ok = req.and_then(|v| Request::from_value(&v).ok()).as_ref() == Some(&request)
                    && resp.and_then(|v| Response::from_value(&v).ok()).as_ref() == Some(&response);
                (ok, req_bytes + resp_bytes)
            });
            tally.add(ok);
            size = n;
            times.push(t);
        }
        codec.push(median(&times));
        bytes.push(size as f64);
    }
    Ok((
        vec![
            metric(
                "net.connect_ms",
                "ms",
                median(&connects) * 1e3,
                format!("n={CONNECTS}"),
            ),
            metric(
                "net.stats_rtt_us",
                "us",
                median(&rtts) * 1e6,
                format!("n={STATS_CALLS}"),
            ),
            metric(
                "net.codec_us",
                "us",
                median(&codec) * 1e6,
                format!("submit + result frames, n={} messages", codec.len()),
            ),
            metric(
                "net.frame_bytes",
                "bytes",
                median(&bytes),
                format!("n={}", bytes.len()),
            ),
        ],
        tally,
    ))
}

/// Frames a message into memory and reads it back.
fn round_trip(value: &hycim_net::json::Value) -> (Option<hycim_net::json::Value>, usize) {
    let mut buffer = Vec::new();
    if MessageSender::new(&mut buffer).send(value).is_err() {
        return (None, 0);
    }
    let n = buffer.len();
    let back = MessageReceiver::new(&buffer[..]).recv().ok().flatten();
    (back, n)
}

/// Coordinator overhead per cell: latency minus the slowest shard's
/// local serial solve time. The fleet workload reads it off its
/// measured cells; direct workloads send round 0 of each job through a
/// coordinator as one 2-shard cell, then solve each shard locally.
fn coord_layer(ctx: &Ctx, fleet: &Fleet) -> Result<(Vec<Metric>, Tally), String> {
    let (mut overhead, mut tally) = (Vec::new(), Tally::default());
    let retries = match ctx.phase {
        Phase::Fleet { cells, retries, .. } => {
            for c in cells.iter().filter(|c| c.result.is_ok()) {
                let slowest = ctx.local[c.job]
                    .shard_secs
                    .iter()
                    .cloned()
                    .fold(0.0, f64::max);
                overhead.push(c.secs - slowest);
            }
            *retries
        }
        Phase::Direct { .. } => {
            let coordinator = fleet.coordinator();
            for (i, u) in units(ctx, false).iter().enumerate() {
                let job = &ctx.plan.jobs[u.job];
                let (total, shards) =
                    shard_replica_column(&job.spec(Vec::new()), u.seeds.len(), job.root, 0, 2);
                let (merged, t) = ctx
                    .rec
                    .span("coord.cell", job.kind.tag(), 0, i as u64, |_| {
                        coordinator.run(total, &shards)
                    });
                // Each shard again on this host, alone, as its worker ran it.
                let mut slowest: f64 = 0.0;
                let mut ok = true;
                for shard in &shards {
                    let (local, secs) =
                        ctx.rec
                            .span("local.shard", job.kind.tag(), 0, i as u64, |id| {
                                ctx.setup.engines[u.job].run(
                                    &BatchRunner::serial(),
                                    &shard.spec.seeds,
                                    ctx.rec,
                                    id,
                                )
                            });
                    let expected = &u.expected[shard.shard.start..shard.shard.end];
                    ok &= local.iter().map(|o| &o.wire).eq(expected);
                    slowest = slowest.max(secs);
                }
                match merged {
                    Ok(m) if m == u.expected => overhead.push(t - slowest),
                    _ => ok = false,
                }
                tally.add(ok);
            }
            coordinator
                .obs()
                .snapshot()
                .counter("coord.shard_retries")
                .unwrap_or(0)
        }
    };
    Ok((
        vec![
            metric(
                "coord.overhead_ms",
                "ms",
                median(&overhead) * 1e3,
                format!("cell latency - slowest local shard, n={}", overhead.len()),
            ),
            metric(
                "coord.shard_retries",
                "count",
                retries as f64,
                "coordinator registry",
            ),
        ],
        tally,
    ))
}
