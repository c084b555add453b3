//! The BENCH regression gate: re-runs the tiny gate recipe and diffs
//! the fresh cells against the committed `BENCH_study.json` within
//! tolerance bands; quality regressions fail (exit 1), improvements
//! and throughput drift warn. Also validates `BENCH_hotpath.json`
//! (schema v4 only) and re-times its smallest probe cells — both the
//! scalar local-field rows and the packed 64-lane replica rows
//! (warn-only drift; a lane diverging from its scalar `replica_seed`
//! twin fails).
//!
//! ```text
//! cargo run --release -p hycim-bench --bin bench_gate
//! cargo run --release -p hycim-bench --bin bench_gate -- \
//!     --study BENCH_study.json --hotpath BENCH_hotpath.json \
//!     --preset gate --skip-throughput
//! ```
//!
//! The gate recipe is a strict subset of the committed study's
//! default recipe with identical seeds, so every fresh cell compares
//! against its committed counterpart bit-for-bit-comparably: any
//! difference beyond tolerance is a real behavioral change, not
//! sampling noise.

use std::process::ExitCode;
use std::sync::Arc;

use hycim_bench::gate::{
    diff_study_cells, replica_throughput_drift, throughput_drift, GateReport, GateTolerances,
};
use hycim_bench::{
    default_threads, read_hotpath, read_study, render_metrics_summary, Args, StudyRecipe,
    StudyRunner,
};
use hycim_core::BatchRunner;
use hycim_obs::ObsRegistry;

fn main() -> ExitCode {
    let args = Args::parse();
    let study_path = args.get_str("study", "BENCH_study.json");
    let hotpath_path = args.get_str("hotpath", "BENCH_hotpath.json");
    let preset = args.get_str("preset", "gate");
    let threads = args.get_usize("threads", default_threads());
    let tol = GateTolerances {
        success_drop: args.get_f64("success-tol", 0.10),
        objective_rel: args.get_f64("objective-tol", 0.05),
        throughput_ratio: args.get_f64("throughput-ratio", 0.40),
    };

    let mut report = GateReport::default();

    // Committed quality artifact: must exist and read cleanly.
    let committed = match std::fs::read_to_string(&study_path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("FAIL: cannot read {study_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let committed_cells = match read_study(&committed) {
        Ok(cells) => cells,
        Err(e) => {
            eprintln!("FAIL: {study_path} is malformed: {e}");
            return ExitCode::from(2);
        }
    };

    // Fresh gate run, diffed cell-by-cell.
    let recipe = StudyRecipe::preset(&preset).unwrap_or_else(|| {
        panic!(
            "unknown preset {preset:?} (available: {:?})",
            StudyRecipe::PRESETS
        )
    });
    println!(
        "gate: running study '{}' ({} instances × {} engines × {} replicas) on {threads} threads",
        recipe.name,
        recipe.instances().len(),
        recipe.engines.len(),
        recipe.replicas
    );
    let obs = Arc::new(ObsRegistry::new());
    let runner = BatchRunner::new()
        .with_threads(threads)
        .with_obs(Arc::clone(&obs));
    let result = StudyRunner::Local(runner)
        .run(&recipe)
        .expect("gate recipe cells must construct");
    println!(
        "gate: fresh run finished in {:.2}s wall-clock ({} cells)",
        result.wall_seconds,
        result.cells()
    );
    print!("{}", render_metrics_summary(&result, &obs.snapshot()));
    report.merge(diff_study_cells(
        &committed_cells,
        &result.fresh_cells(),
        &tol,
    ));

    // Throughput artifact: read, then (optionally) probe drift.
    let hotpath = std::fs::read_to_string(&hotpath_path)
        .map_err(|e| format!("cannot read {hotpath_path}: {e}"))
        .and_then(|doc| read_hotpath(&doc).map_err(|e| format!("{hotpath_path}: {e}")));
    match hotpath {
        Err(e) => report.failures.push(e),
        Ok(hotpath) if !args.has_flag("skip-throughput") => {
            report.merge(throughput_drift(&hotpath, &tol));
            report.merge(replica_throughput_drift(&hotpath, &tol));
        }
        Ok(_) => {}
    }

    for w in &report.warnings {
        println!("WARN: {w}");
    }
    for f in &report.failures {
        println!("FAIL: {f}");
    }
    if report.passed() {
        println!(
            "gate: PASS ({} cells within tolerance, {} warnings)",
            result.cells(),
            report.warnings.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("gate: FAIL ({} regressions)", report.failures.len());
        ExitCode::FAILURE
    }
}
