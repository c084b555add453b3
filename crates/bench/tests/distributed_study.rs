//! The distributed-study determinism pins: a sharded run over
//! loopback TCP workers renders the exact `BENCH_study.json` bytes of
//! a local single-thread [`StudyRunner`] run, for the CI presets and
//! for any shard-boundary choice.

use hycim_bench::{render_study_json, ReportMeta, StudyRecipe, StudyRunner};
use hycim_core::BatchRunner;
use hycim_net::{Coordinator, WorkerConfig, WorkerHandle, WorkerServer};

fn spawn_workers(n: usize) -> (Vec<WorkerHandle>, Vec<String>) {
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

fn preset(name: &str) -> StudyRecipe {
    StudyRecipe::preset(name).expect("preset exists")
}

/// Renders a recipe's artifact from a distributed run and from a
/// single-thread local run, with identical meta.
fn render_both(recipe: &StudyRecipe, addrs: Vec<String>, shards: usize) -> (String, String) {
    let meta = ReportMeta::unknown();
    let wire = StudyRunner::Fleet {
        coordinator: Coordinator::new(addrs),
        shards,
    }
    .run(recipe)
    .expect("distributed run completes");
    let local = StudyRunner::Local(BatchRunner::serial())
        .run(recipe)
        .expect("local run completes");
    (
        render_study_json(&wire, &meta),
        render_study_json(&local, &meta),
    )
}

#[test]
fn micro_preset_sharded_run_is_byte_identical_to_local() {
    let (handles, addrs) = spawn_workers(2);
    let (wire_doc, local_doc) = render_both(&preset("micro"), addrs, 3);
    assert_eq!(wire_doc, local_doc, "micro artifact diverged");
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn gate_preset_three_worker_run_matches_single_thread_local() {
    // The `gate` preset — every backend on a subset of the committed
    // BENCH_study.json's problems — sharded over 3 workers.
    let (handles, addrs) = spawn_workers(3);
    let (wire_doc, local_doc) = render_both(&preset("gate"), addrs, 3);
    assert_eq!(wire_doc, local_doc, "gate artifact diverged");
    for handle in handles {
        handle.stop();
    }
}

#[test]
fn shard_boundary_choice_does_not_change_the_artifact() {
    let (handles, addrs) = spawn_workers(2);
    let recipe = preset("micro");
    let meta = ReportMeta::unknown();
    let mut docs = Vec::new();
    for shards in [1usize, 2, 5] {
        let result = StudyRunner::Fleet {
            coordinator: Coordinator::new(addrs.clone()),
            shards,
        }
        .run(&recipe)
        .unwrap_or_else(|e| panic!("{shards} shards: {e}"));
        docs.push(render_study_json(&result, &meta));
    }
    assert_eq!(docs[0], docs[1], "2-shard run diverged from 1-shard");
    assert_eq!(docs[0], docs[2], "5-shard run diverged from 1-shard");
    for handle in handles {
        handle.stop();
    }
}
