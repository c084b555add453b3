//! Job lifecycle integration tests: concurrent submissions across
//! heterogeneous problem types fetch solutions **bit-identical** to
//! serial `Engine::solve` calls with the same seeds, plus disposal of
//! queued jobs and queue-full behavior.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Duration;

use hycim_cop::binpack::BinPacking;
use hycim_cop::generator::QkpGenerator;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::tsp::Tsp;
use hycim_cop::{CopProblem, QkpInstance};
use hycim_core::{
    replica_seed, BatchRunner, DquboConfig, DquboEngine, Engine, HyCimConfig, HyCimEngine,
    SoftwareEngine, Solution,
};
use hycim_service::{
    DisposeOutcome, FetchError, JobId, JobService, JobStatus, ServiceConfig, SubmitError,
};

fn qkp_engine(seed: u64) -> Arc<HyCimEngine<QkpInstance>> {
    let inst = QkpGenerator::new(20, 0.5).generate(seed);
    Arc::new(
        HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(60), seed)
            .expect("benchmark instances map"),
    )
}

fn maxcut_engine(seed: u64) -> Arc<SoftwareEngine<MaxCut>> {
    let graph = MaxCut::random(16, 0.5, seed);
    Arc::new(
        SoftwareEngine::new(&graph, &HyCimConfig::default().with_sweeps(60))
            .expect("max-cut always encodes"),
    )
}

/// Submits `engine.solve(seed)` as a job.
fn submit_solve<P, E>(service: &JobService, engine: &Arc<E>, seed: u64) -> JobId
where
    P: CopProblem + 'static,
    E: Engine<P> + 'static,
{
    let engine = Arc::clone(engine);
    service
        .submit_with(move || engine.solve(seed))
        .expect("capacity is ample")
}

/// Waits for a solve job and takes its solution.
fn wait_solution<P: CopProblem + 'static>(service: &JobService, job: JobId) -> Solution<P> {
    service.wait(job);
    service.fetch_value(job).expect("solve job fetches")
}

/// Submits a job that holds the service's only worker until the
/// returned sender is used or dropped, and waits until it runs.
fn park_worker(service: &JobService) -> (JobId, Sender<()>) {
    let (started_tx, started) = channel();
    let (release, gate) = channel::<()>();
    let job = service
        .submit_with(move || {
            started_tx.send(()).expect("test is listening");
            let _ = gate.recv();
        })
        .expect("capacity");
    started.recv().expect("the head job starts");
    (job, release)
}

/// The headline guarantee: many threads hammering one service with
/// three different problem types (and three different engine
/// backends), every fetched solution equal to the serial reference.
#[test]
fn concurrent_heterogeneous_submits_match_serial_solves() {
    let qkp = qkp_engine(1);
    let cut = maxcut_engine(2);
    let tsp_inst = Tsp::random_euclidean(5, 10.0, 3).expect("valid instance");
    let tsp = Arc::new(
        DquboEngine::new(&tsp_inst, &DquboConfig::default().with_sweeps(60)).expect("tsp encodes"),
    );

    let service = JobService::start(ServiceConfig::new().with_workers(4));
    let seeds: Vec<u64> = (0..6).collect();

    // Submit from several caller threads at once.
    let (qkp_jobs, cut_jobs, tsp_jobs) = std::thread::scope(|scope| {
        let submit_qkp = scope.spawn(|| {
            seeds
                .iter()
                .map(|&s| submit_solve(&service, &qkp, s))
                .collect::<Vec<_>>()
        });
        let submit_cut = scope.spawn(|| {
            seeds
                .iter()
                .map(|&s| submit_solve(&service, &cut, s))
                .collect::<Vec<_>>()
        });
        let submit_tsp = scope.spawn(|| {
            seeds
                .iter()
                .map(|&s| submit_solve(&service, &tsp, s))
                .collect::<Vec<_>>()
        });
        (
            submit_qkp.join().expect("submitter"),
            submit_cut.join().expect("submitter"),
            submit_tsp.join().expect("submitter"),
        )
    });

    for (&seed, &job) in seeds.iter().zip(&qkp_jobs) {
        let got: Solution<QkpInstance> = wait_solution(&service, job);
        let want = qkp.solve(seed);
        assert_eq!(got.assignment, want.assignment, "qkp seed {seed}");
        assert_eq!(got.objective, want.objective);
        assert_eq!(got.reported_energy, want.reported_energy);
    }
    for (&seed, &job) in seeds.iter().zip(&cut_jobs) {
        let got: Solution<MaxCut> = wait_solution(&service, job);
        let want = cut.solve(seed);
        assert_eq!(got.assignment, want.assignment, "cut seed {seed}");
        assert_eq!(got.objective, want.objective);
    }
    for (&seed, &job) in seeds.iter().zip(&tsp_jobs) {
        let got: Solution<Tsp> = wait_solution(&service, job);
        let want = tsp.solve(seed);
        assert_eq!(got.assignment, want.assignment, "tsp seed {seed}");
        assert_eq!(got.decoded, want.decoded);
    }
    assert_eq!(service.live_jobs(), 0);
}

/// A multi-start batch run inside one job (a closure around
/// `BatchRunner`) equals the same `BatchRunner` run outside the
/// service, whatever the thread count on either side.
#[test]
fn batch_job_is_bit_identical_to_batch_runner() {
    let engine = qkp_engine(5);
    let service = JobService::start(ServiceConfig::new().with_workers(3));
    let solver = Arc::clone(&engine);
    let job = service
        .submit_with(move || BatchRunner::serial().run(solver.as_ref(), 5, 77))
        .expect("capacity");
    service.wait(job);
    let got = service
        .fetch_value::<Vec<Solution<QkpInstance>>>(job)
        .expect("batch job");
    let want = BatchRunner::new()
        .with_threads(2)
        .run(engine.as_ref(), 5, 77);
    assert_eq!(got.len(), want.len());
    for (k, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.assignment,
            engine.solve(replica_seed(77, 0, k as u64)).assignment
        );
        assert_eq!(g.assignment, w.assignment, "replica {k}");
        assert_eq!(g.objective, w.objective);
        assert_eq!(g.reported_energy, w.reported_energy);
    }
}

/// Bank-engine solves ride the same erased queue: one job per replica
/// seed fetches bit-identical to `BatchRunner`, and every replica's
/// solution satisfies each per-bin constraint.
#[test]
fn bank_engine_jobs_are_bit_identical_and_bin_exact() {
    let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
    let engine = Arc::new(
        HyCimEngine::bank(&bp, &HyCimConfig::default().with_sweeps(60), 7)
            .expect("bin packing maps onto the bank"),
    );
    assert_eq!(Engine::<BinPacking>::backend(engine.as_ref()), "bank");
    let service = JobService::start(ServiceConfig::new().with_workers(3));
    let jobs: Vec<JobId> = (0..4)
        .map(|k| submit_solve(&service, &engine, replica_seed(31, 0, k)))
        .collect();
    let want = BatchRunner::new()
        .with_threads(2)
        .run(engine.as_ref(), 4, 31);
    let mq = bp.to_multi_inequality_qubo().expect("encodable");
    for (k, (&job, w)) in jobs.iter().zip(&want).enumerate() {
        let g: Solution<BinPacking> = wait_solution(&service, job);
        assert_eq!(g.assignment, w.assignment, "replica {k}");
        assert_eq!(g.reported_energy, w.reported_energy);
        assert!(
            mq.is_feasible(&g.assignment),
            "replica {k} violates a bin constraint"
        );
    }
}

/// Disposing of a queued job drops it before it runs: the dispose
/// reports `Cancelled`, the id is forgotten at once, a second dispose
/// finds nothing, and the jobs around it still complete.
#[test]
fn cancellation_of_queued_jobs() {
    // One worker parked on a head job keeps later jobs queued.
    let service = JobService::start(ServiceConfig::new().with_workers(1).with_queue_capacity(16));
    let (head, release) = park_worker(&service);
    let ran = Arc::new(AtomicBool::new(false));
    let victims: Vec<JobId> = (0..4)
        .map(|_| {
            let ran = Arc::clone(&ran);
            service
                .submit_with(move || ran.store(true, Ordering::SeqCst))
                .expect("capacity")
        })
        .collect();
    let survivor = service.submit_with(|| 7u64).expect("capacity");

    for &job in &victims {
        assert_eq!(service.dispose(job), DisposeOutcome::Cancelled);
        assert_eq!(service.wait_timeout(job, Duration::ZERO), None);
        // Double-dispose is a no-op, not an error.
        assert_eq!(service.dispose(job), DisposeOutcome::Unknown);
        assert!(matches!(
            service.fetch_value::<()>(job),
            Err(FetchError::Unknown(id)) if id == job
        ));
    }
    // Untouched jobs still complete correctly.
    drop(release);
    assert_eq!(service.wait(head), Some(JobStatus::Done));
    assert_eq!(service.wait(survivor), Some(JobStatus::Done));
    assert_eq!(service.fetch_value::<u64>(survivor).unwrap(), 7);
    service.fetch_value::<()>(head).unwrap();
    assert!(!ran.load(Ordering::SeqCst), "a disposed job ran");
    assert_eq!(service.live_jobs(), 0);
}

/// The queue bound is enforced per waiting job: submits beyond it
/// fail fast with `QueueFull`, and capacity frees up as the queue
/// drains.
#[test]
fn queue_full_backpressure() {
    let engine = qkp_engine(11);
    let service = JobService::start(ServiceConfig::new().with_workers(1).with_queue_capacity(3));
    // Occupy the worker so subsequent submits stay queued.
    let (head, release) = park_worker(&service);

    let mut queued_jobs = Vec::new();
    let mut rejections = 0usize;
    for seed in 0..16 {
        let engine = Arc::clone(&engine);
        match service.submit_with(move || engine.solve(seed)) {
            Ok(job) => queued_jobs.push(job),
            Err(SubmitError::QueueFull { capacity }) => {
                assert_eq!(capacity, 3);
                rejections += 1;
                break;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert_eq!(rejections, 1, "submit loop must hit the bound");
    assert_eq!(queued_jobs.len(), 3, "the bound counts waiting jobs only");

    // Draining the queue restores capacity.
    drop(release);
    service.wait(head);
    for &job in &queued_jobs {
        service.wait(job);
    }
    let retry = submit_solve(&service, &engine, 99);
    let got: Solution<QkpInstance> = wait_solution(&service, retry);
    assert_eq!(got.assignment, engine.solve(99).assignment);
}

/// Status transitions observed through the public API follow the
/// documented lifecycle: Queued/Running → Done, and ids are unique.
#[test]
fn status_lifecycle_and_unique_ids() {
    let engine = maxcut_engine(13);
    let service = JobService::start(ServiceConfig::new().with_workers(2));
    let jobs: Vec<_> = (0..8).map(|s| submit_solve(&service, &engine, s)).collect();
    let unique: std::collections::BTreeSet<_> = jobs.iter().copied().collect();
    assert_eq!(unique.len(), jobs.len(), "ids must be unique");

    for &job in &jobs {
        // Any status observed before the terminal wait must be a
        // legal non-fetched state.
        if let Some(status) = service.wait_timeout(job, Duration::ZERO) {
            assert!(matches!(
                status,
                JobStatus::Queued | JobStatus::Running | JobStatus::Done
            ));
        }
        assert_eq!(service.wait(job), Some(JobStatus::Done));
    }
    for job in jobs {
        assert!(service.fetch_value::<Solution<MaxCut>>(job).is_ok());
    }
}
