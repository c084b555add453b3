//! Sharded-study demonstration and smoke check: spins up N in-process
//! TCP workers on loopback, runs a study preset through the
//! [`StudyRunner::Fleet`], re-runs it locally on one thread, and
//! verifies the two rendered `BENCH_study.json` documents are
//! **byte-identical** — the end-to-end pin of the wire protocol's
//! determinism contract.
//!
//! ```text
//! cargo run --release -p hycim-bench --bin shard_demo -- \
//!     --preset micro --workers 3 --shards 3
//! ```
//!
//! Exits nonzero if the distributed artifact diverges from the local
//! one, so CI can run it as a smoke step.

use hycim_bench::{render_study_json, Args, ReportMeta, StudyRecipe, StudyRunner};
use hycim_core::BatchRunner;
use hycim_net::{Coordinator, WorkerConfig, WorkerServer};

fn main() {
    let args = Args::parse();
    let preset = args.get_str("preset", "micro");
    let workers = args.get_usize("workers", 3);
    let shards = args.get_usize("shards", workers.max(1));
    let threads = args.get_usize("threads", 2);

    let recipe = StudyRecipe::preset(&preset).unwrap_or_else(|| {
        panic!(
            "unknown preset {preset:?} (available: {:?})",
            StudyRecipe::PRESETS
        )
    });
    println!(
        "sharding study '{}' over {workers} loopback workers ({shards} shards per cell):",
        recipe.name
    );
    print!("{recipe}");
    println!();

    // N in-process workers on ephemeral loopback ports — the same
    // server the standalone `hycim-worker` binary runs.
    let mut config = WorkerConfig::new();
    config.threads = threads;
    let handles: Vec<_> = (0..workers.max(1))
        .map(|_| {
            WorkerServer::bind("127.0.0.1:0", config.clone())
                .expect("bind loopback")
                .spawn()
        })
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();
    for addr in &addrs {
        println!("worker listening on {addr}");
    }

    let fleet = StudyRunner::Fleet {
        coordinator: Coordinator::new(addrs),
        shards,
    };
    let distributed = fleet.run(&recipe).expect("distributed run completes");
    println!(
        "\ndistributed: {} cells, {} iterations, {:.2}s",
        distributed.cells(),
        distributed.total_iterations(),
        distributed.wall_seconds
    );

    let local = StudyRunner::Local(BatchRunner::serial())
        .run(&recipe)
        .expect("local run completes");
    println!(
        "local (1 thread): {} cells, {} iterations, {:.2}s",
        local.cells(),
        local.total_iterations(),
        local.wall_seconds
    );

    let meta = ReportMeta::from_env();
    let wire_doc = render_study_json(&distributed, &meta);
    let local_doc = render_study_json(&local, &meta);
    for handle in handles {
        handle.stop();
    }

    if wire_doc == local_doc {
        println!(
            "\nsharded == local: byte-identical artifact ({} bytes)",
            wire_doc.len()
        );
    } else {
        let divergence = wire_doc
            .lines()
            .zip(local_doc.lines())
            .position(|(a, b)| a != b);
        eprintln!(
            "\nsharded artifact DIVERGED from the local run (first differing line: {:?})",
            divergence.map(|i| i + 1)
        );
        std::process::exit(1);
    }
}
