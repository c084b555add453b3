//! Benchmark-study report: expands a declarative study recipe into the
//! replica × problem × engine grid, ranks the engine backends, and
//! emits the committed `BENCH_study.json` quality artifact.
//!
//! ```text
//! cargo run --release -p hycim-bench --bin study_report -- \
//!     --preset default --threads 4
//! cargo run --release -p hycim-bench --bin study_report -- \
//!     --recipe my_study.recipe --out my_study.json --quiet
//! ```
//!
//! The emitted document is deterministic — bit-identical across
//! `--threads` settings and machines for the same recipe — because
//! every seed derives from the recipe and wall-clock never enters the
//! artifact. Execution metrics flow through an
//! [`ObsRegistry`] and are rendered to stdout
//! as an opt-in summary block; `--quiet` suppresses every print so
//! nothing interleaves with machine-read output. The `meta`
//! provenance block reads `HYCIM_GIT_DESCRIBE` / `SOURCE_DATE_EPOCH`,
//! defaulting to `"unknown"`.

use std::sync::Arc;

use hycim_bench::{
    default_threads, read_study, render_metrics_summary, render_study_json, Args, ReportMeta,
    StudyRecipe, StudyRunner,
};
use hycim_obs::ObsRegistry;

fn main() {
    let args = Args::parse();
    let threads = args.get_usize("threads", default_threads());
    let out_path = args.get_str("out", "BENCH_study.json");
    let recipe_path = args.get_str("recipe", "");
    let preset = args.get_str("preset", "default");
    let quiet = args.has_flag("quiet");

    let recipe = if recipe_path.is_empty() {
        StudyRecipe::preset(&preset).unwrap_or_else(|| {
            panic!(
                "unknown preset {preset:?} (available: {:?})",
                StudyRecipe::PRESETS
            )
        })
    } else {
        let text = std::fs::read_to_string(&recipe_path)
            .unwrap_or_else(|e| panic!("cannot read {recipe_path}: {e}"));
        StudyRecipe::parse(&text).unwrap_or_else(|e| panic!("{recipe_path}: {e}"))
    };

    if !quiet {
        println!("study '{}' on {threads} threads:", recipe.name);
        print!("{recipe}");
        println!();
    }

    let obs = Arc::new(ObsRegistry::new());
    let result = StudyRunner::new()
        .with_threads(threads)
        .with_obs(Arc::clone(&obs))
        .run(&recipe)
        .expect("every recipe cell must construct");

    if !quiet {
        for p in &result.problems {
            println!(
                "{:<16} dim {:>4}  reference {:>12.2}",
                p.problem, p.dim, p.reference
            );
            for c in &p.cells {
                println!(
                    "  {:<9} success {:>6.1}%  feasible {:>6.1}%  best {:>12.2}  \
                     iters-to-best {:>8.0}",
                    c.engine,
                    100.0 * c.success_rate,
                    100.0 * c.feasible_rate,
                    c.best_objective,
                    c.mean_iters_to_best,
                );
            }
        }

        println!("\nengine rankings over {} problems:", result.problems.len());
        println!(
            "{:<6} {:<9} {:>9} {:>7} {:>6} {:>6}",
            "rank", "engine", "success", "borda", "best", "worst"
        );
        for (i, r) in result.rankings.iter().enumerate() {
            println!(
                "{:<6} {:<9} {:>8.1}% {:>7} {:>6} {:>6}",
                i + 1,
                r.engine,
                100.0 * r.mean_success_rate,
                r.borda,
                r.best_count,
                r.worst_count
            );
        }
    }

    let doc = render_study_json(&result, &ReportMeta::from_env());
    read_study(&doc).expect("emitted report must be well-formed");
    std::fs::write(&out_path, &doc).expect("writable output path");
    if !quiet {
        println!(
            "\nwrote {out_path} ({} cells, shape validated)",
            result.cells()
        );
        println!();
        print!("{}", render_metrics_summary(&result, &obs.snapshot()));
    }
}
