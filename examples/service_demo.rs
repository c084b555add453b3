//! Job-service demo: serve heterogeneous solve jobs (QKP + max-cut)
//! to concurrent callers through `hycim::service::JobService`, then
//! verify the fetched results are bit-identical to direct synchronous
//! `Engine::solve` calls with the same seeds.
//!
//! Run with: `cargo run --release --example service_demo`

use std::sync::Arc;

use hycim::cop::generator::QkpGenerator;
use hycim::cop::maxcut::MaxCut;
use hycim::cop::QkpInstance;
use hycim::core::{replica_seed, BatchRunner, Engine, HyCimConfig, HyCimEngine, Solution};
use hycim::service::{DisposeOutcome, JobService, ServiceConfig, SubmitError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two unrelated problem types behind one queue.
    let qkp = QkpGenerator::new(40, 0.5).generate(7);
    let graph = MaxCut::random(24, 0.4, 7);
    let config = HyCimConfig::default().with_sweeps(200);
    let qkp_engine = Arc::new(HyCimEngine::new(&qkp, &config, 1)?);
    let cut_engine = Arc::new(HyCimEngine::new(&graph, &config, 1)?);

    let service = JobService::start(
        ServiceConfig::default()
            .with_workers(4)
            .with_queue_capacity(64),
    );
    println!("service up: 4 workers, queue bound 64");

    // --- submit → wait → fetch, across both problem types ------------
    // A job is a closure; its return value is what `fetch_value` hands
    // back.
    let qkp_jobs = (0..4)
        .map(|seed| {
            let engine = Arc::clone(&qkp_engine);
            service.submit_with(move || engine.solve(seed))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // One max-cut job runs an 8-replica multi-start with the
    // `BatchRunner` seed derivation.
    let engine = Arc::clone(&cut_engine);
    let cut_batch =
        service.submit_with(move || BatchRunner::serial().run(engine.as_ref(), 8, 42))?;
    println!(
        "submitted {} QKP solves + 1 max-cut batch (8 replicas)",
        qkp_jobs.len()
    );

    for (seed, &job) in (0u64..).zip(&qkp_jobs) {
        service.wait(job);
        let solution = service.fetch_value::<Solution<QkpInstance>>(job)?;
        let direct = qkp_engine.solve(seed);
        assert_eq!(solution.assignment, direct.assignment);
        println!(
            "  {job} (qkp, seed {seed}): value {} — matches direct solve",
            solution.value()
        );
    }

    service.wait(cut_batch);
    let batch = service.fetch_value::<Vec<Solution<MaxCut>>>(cut_batch)?;
    let best = batch.iter().map(Solution::value).max().unwrap_or(0);
    println!(
        "  {cut_batch} (max-cut batch): best cut {best} over {} replicas",
        batch.len()
    );
    // Every replica reproduces from its derived seed alone.
    for (k, solution) in (0u64..).zip(&batch) {
        let seed = replica_seed(42, 0, k);
        assert_eq!(solution.assignment, cut_engine.solve(seed).assignment);
    }
    println!(
        "  all {} replicas bit-identical to Engine::solve",
        batch.len()
    );

    // --- disposal ----------------------------------------------------
    // A tiny single-worker service so a job stays queued.
    let small = JobService::start(
        ServiceConfig::default()
            .with_workers(1)
            .with_queue_capacity(2),
    );
    let engine = Arc::clone(&qkp_engine);
    let running = small.submit_with(move || engine.solve(100))?;
    let engine = Arc::clone(&qkp_engine);
    let queued = small.submit_with(move || engine.solve(101))?;
    match small.dispose(queued) {
        DisposeOutcome::Cancelled => println!("dispose({queued}) while queued: dropped, never ran"),
        outcome => println!("dispose({queued}): worker won the race ({})", outcome.tag()),
    }
    small.wait(running);
    small.dispose(running);

    // --- backpressure ------------------------------------------------
    let mut accepted = Vec::new();
    loop {
        let engine = Arc::clone(&qkp_engine);
        let seed = 200 + accepted.len() as u64;
        match small.submit_with(move || engine.solve(seed)) {
            Ok(job) => accepted.push(job),
            Err(SubmitError::QueueFull { capacity }) => {
                println!(
                    "backpressure after {} accepted jobs (queue bound {capacity})",
                    accepted.len()
                );
                break;
            }
            Err(e) => return Err(e.into()),
        }
    }
    let dropped = accepted
        .into_iter()
        .filter(|&job| small.dispose(job) == DisposeOutcome::Cancelled)
        .count();
    println!("disposed of {dropped} queued jobs; shutting down");

    small.shutdown();
    service.shutdown();
    println!("done: every fetched result matched its synchronous reference");
    Ok(())
}
