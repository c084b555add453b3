//! The study runner: expands a [`StudyRecipe`] into its replica ×
//! problem × engine grid, executes every replica column on this host
//! or sharded over wire workers, and folds the results into
//! per-problem summaries plus cross-problem engine rankings.
//!
//! Determinism contract: every value that reaches the summaries (and
//! therefore `BENCH_study.json`) is a pure function of the recipe —
//! instance seeds, solve seeds, and hardware seeds all derive from
//! the study seed and each instance's canonical key. Both executors
//! solve a column through [`solve_any`] over the same pre-derived
//! replica seeds, and the [`BatchRunner`] guarantees bit-identical
//! solves at any thread count, so a sharded run renders the bytes of
//! a local one (the pin of the `distributed_study` and `chaos_study`
//! tests and the `shard_demo` binary). Wall-clock time is measured
//! (for stdout reporting) but never rendered into the artifact.
//! Because seeding is keyed and not positional, any sub-recipe — the
//! `gate` preset — reproduces the exact cells of a superset study.

use hycim_cop::binpack::BinPacking;
use hycim_cop::coloring::GraphColoring;
use hycim_cop::generator::QkpGenerator;
use hycim_cop::knapsack::Knapsack;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::mkp::MkpGenerator;
use hycim_cop::spinglass::SpinGlass;
use hycim_cop::tsp::Tsp;
use std::time::Instant;

use hycim_cop::AnyProblem;
use hycim_core::{replica_seed, BatchRunner, EngineSettings};
use hycim_net::local::solve_any;
use hycim_net::{shard_replica_column, Coordinator, JobSpec, WireSolution};
use hycim_obs::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::ReportMeta;
use crate::check::STUDY_SCHEMA;
use crate::recipe::{EngineKind, Family, FamilySpec, StudyRecipe};
use crate::stats::{
    fold_reference, rank_engines, summarize_cell, EngineRanking, ProblemSummary, RunScore,
};

/// Outcome of one study run: the deterministic summaries plus the
/// (nondeterministic, stdout-only) execution telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    /// The recipe that was run.
    pub recipe: StudyRecipe,
    /// Per-problem summaries, in recipe instance order.
    pub problems: Vec<ProblemSummary>,
    /// Cross-problem engine rankings, best-first.
    pub rankings: Vec<EngineRanking>,
    /// Wall-clock time of the whole run, in seconds (telemetry; never
    /// rendered into the JSON artifact).
    pub wall_seconds: f64,
}

impl StudyResult {
    /// Total annealing iterations across all cells (deterministic).
    pub fn total_iterations(&self) -> u64 {
        self.problems
            .iter()
            .flat_map(|p| &p.cells)
            .map(|c| c.iterations)
            .sum()
    }

    /// Number of (problem, engine) cells the study ran.
    pub fn cells(&self) -> usize {
        self.problems.iter().map(|p| p.cells.len()).sum()
    }
}

/// Executes [`StudyRecipe`]s over the engine matrix; the variant picks
/// where each (problem, engine) replica column is solved. Both render
/// the same `BENCH_study.json` bytes.
#[derive(Debug, Clone)]
pub enum StudyRunner {
    /// Solves every column on this host, on the runner's threads. A
    /// registry attached with [`BatchRunner::with_obs`] receives the
    /// per-cell `batch.*` counts, each solve's `core.anneal.*` counts
    /// and `timing.batch.cell_seconds` (wall-clock, quarantined in the
    /// snapshot's `timing.` section) — render the snapshot with
    /// [`render_metrics_summary`] when a human report is wanted.
    Local(BatchRunner),
    /// Splits every column into `shards` jobs dispatched over the
    /// coordinator's workers (with its retries, backoff and local
    /// fallback). The shard count changes only dispatch granularity,
    /// never a result.
    Fleet {
        /// Dispatches the shard jobs and merges their results.
        coordinator: Coordinator,
        /// Shards per replica column (0 is read as 1).
        shards: usize,
    },
}

impl StudyRunner {
    /// Runs the full grid of a recipe.
    ///
    /// # Errors
    ///
    /// Returns a message naming the instance on the first instance that
    /// cannot be generated, and the instance and engine on the first
    /// column that cannot be built, dispatched, or merged (exhausted
    /// retries surface here as the coordinator's error).
    pub fn run(&self, recipe: &StudyRecipe) -> Result<StudyResult, String> {
        let started = Instant::now();
        let mut problems = Vec::new();
        for (spec, n, key) in recipe.instances() {
            let instance = build_instance(&spec, n, &key, recipe)?;
            let mut columns = Vec::new();
            for &kind in &recipe.engines {
                let runs: Vec<RunScore> = self
                    .column(&instance, kind, &key, recipe)
                    .map_err(|e| format!("{key} on {}: {e}", kind.tag()))?
                    .iter()
                    .map(|s| {
                        let iters = s.iters_to_best as usize;
                        (s.objective, s.feasible, iters, s.iterations as usize)
                    })
                    .collect();
                columns.push((kind, runs));
            }

            // Problem-local reference: the instance's exact/heuristic
            // reference folded with the best feasible solve of any
            // engine on this problem — never values from other
            // problems, so recipe subsetting cannot shift it.
            let reference = fold_reference(
                instance.reference_objective(recipe.instance_seed(&key)),
                columns
                    .iter()
                    .flat_map(|(_, runs)| runs)
                    .map(|r| (r.0, r.1)),
            );
            problems.push(ProblemSummary {
                problem: key.clone(),
                family: spec.family.tag().to_string(),
                n,
                dim: instance.dim(),
                reference,
                cells: columns
                    .iter()
                    .map(|(kind, runs)| summarize_cell(kind.tag(), reference, runs))
                    .collect(),
            });
        }
        let rankings = rank_engines(&problems);
        Ok(StudyResult {
            recipe: recipe.clone(),
            problems,
            rankings,
            wall_seconds: started.elapsed().as_secs_f64(),
        })
    }

    /// The `replicas` solves of one engine on one instance, in replica
    /// order: replica `k` solves with `replica_seed(solve_seed, 0, k)`
    /// on an engine fabricated from the instance-keyed hardware seed.
    fn column(
        &self,
        instance: &AnyProblem,
        kind: EngineKind,
        key: &str,
        recipe: &StudyRecipe,
    ) -> Result<Vec<WireSolution>, String> {
        let solve_seed = recipe.solve_seed(key);
        let settings = EngineSettings::new(recipe.sweeps, recipe.hardware_seed(key));
        match self {
            StudyRunner::Local(runner) => {
                let seeds: Vec<u64> = (0..recipe.replicas as u64)
                    .map(|k| replica_seed(solve_seed, 0, k))
                    .collect();
                solve_any(runner, instance, kind, &settings, &seeds)
            }
            StudyRunner::Fleet {
                coordinator,
                shards,
            } => {
                let base = JobSpec {
                    family: instance.family_tag().to_string(),
                    problem: instance.to_wire(),
                    engine: kind.tag().to_string(),
                    sweeps: settings.sweeps as u64,
                    hardware_seed: settings.hardware_seed,
                    record_trace: settings.record_trace,
                    seeds: Vec::new(),
                };
                let (total, jobs) =
                    shard_replica_column(&base, recipe.replicas, solve_seed, 0, *shards);
                coordinator.run(total, &jobs).map_err(|e| e.to_string())
            }
        }
    }
}

/// Generates the instance of one recipe cell, type-erased, from its
/// instance-keyed seed.
fn build_instance(
    spec: &FamilySpec,
    n: usize,
    key: &str,
    recipe: &StudyRecipe,
) -> Result<AnyProblem, String> {
    let iseed = recipe.instance_seed(key);
    Ok(match spec.family {
        Family::Qkp { density_pct } => {
            AnyProblem::from(QkpGenerator::new(n, density_pct as f64 / 100.0).generate(iseed))
        }
        Family::Knapsack => AnyProblem::from(random_knapsack(n, iseed)),
        Family::MaxCut { density_pct } => {
            AnyProblem::from(MaxCut::random(n, density_pct as f64 / 100.0, iseed))
        }
        Family::SpinGlass => {
            AnyProblem::from(SpinGlass::random_binary(n, iseed).map_err(|e| format!("{key}: {e}"))?)
        }
        Family::Tsp => AnyProblem::from(
            Tsp::random_euclidean(n, 10.0, iseed).map_err(|e| format!("{key}: {e}"))?,
        ),
        Family::Coloring { colors } => {
            AnyProblem::from(GraphColoring::random(n, 0.3, colors as usize, iseed))
        }
        Family::BinPack { bins } => AnyProblem::from(BinPacking::random(n, bins as usize, iseed)),
        Family::Mkp { dims } => {
            AnyProblem::from(MkpGenerator::new(n, dims as usize).generate(iseed))
        }
    })
}

/// A seeded linear knapsack: weights comfortably below the filter's
/// 64-unit column budget, capacity around half the total weight.
fn random_knapsack(items: usize, seed: u64) -> Knapsack {
    let mut rng = StdRng::seed_from_u64(seed);
    let weights: Vec<u64> = (0..items).map(|_| rng.random_range(1..=30)).collect();
    let profits: Vec<u64> = (0..items).map(|_| rng.random_range(1..=60)).collect();
    let max_w = weights.iter().copied().max().unwrap_or(1);
    let capacity = (weights.iter().sum::<u64>() / 2).max(max_w);
    Knapsack::new(profits, weights, capacity).expect("valid knapsack")
}

/// Formats a number with fixed decimals, rendering non-finite values
/// as JSON `null` (infinite objectives mean "no finite result").
fn fmt_num(v: f64, decimals: usize) -> String {
    if v.is_finite() {
        format!("{v:.decimals$}")
    } else {
        "null".to_string()
    }
}

/// The opt-in human formatter for a study's execution metrics — the
/// successor of the old unconditional stdout telemetry print. Binaries
/// call it only when not `--quiet`, so machine-read output never
/// interleaves with telemetry. Nothing rendered here enters any
/// artifact: the grid totals are deterministic, the trailing
/// `-- timing --` section is wall-clock.
pub fn render_metrics_summary(result: &StudyResult, snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("-- metrics (stdout only, never in the artifact) --\n");
    out.push_str(&format!(
        "cells {}  iterations {}  wall-clock {:.2}s\n",
        result.cells(),
        result.total_iterations(),
        result.wall_seconds
    ));
    out.push_str(&snapshot.render());
    out
}

/// Renders the `BENCH_study.json` document for a study result.
///
/// Every rendered value is deterministic (fixed decimal formatting,
/// no wall-clock), so the document is bit-identical across thread
/// counts and machines for the same recipe.
pub fn render_study_json(result: &StudyResult, meta: &ReportMeta) -> String {
    let r = &result.recipe;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{STUDY_SCHEMA}\",\n"));
    out.push_str("  \"bin\": \"study_report\",\n");
    out.push_str(&format!("  {},\n", meta.render()));
    out.push_str(&format!(
        "  \"study\": \"{}\", \"seed\": {}, \"replicas\": {}, \"sweeps\": {},\n",
        r.name, r.seed, r.replicas, r.sweeps
    ));
    let engines: Vec<String> = r.engines.iter().map(|e| format!("\"{e}\"")).collect();
    out.push_str(&format!("  \"engines\": [{}],\n", engines.join(", ")));
    out.push_str("  \"problems\": [\n");
    for (i, p) in result.problems.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"problem\": \"{}\", \"family\": \"{}\", \"n\": {}, \"dim\": {}, \
             \"reference\": {}, \"cells\": [\n",
            p.problem,
            p.family,
            p.n,
            p.dim,
            fmt_num(p.reference, 4)
        ));
        for (j, c) in p.cells.iter().enumerate() {
            out.push_str(&format!(
                "      {{ \"engine\": \"{}\", \"success_rate\": {}, \"feasible_rate\": {}, \
                 \"best_objective\": {}, \"mean_objective\": {}, \"mean_iters_to_best\": {}, \
                 \"iterations\": {} }}{}\n",
                c.engine,
                fmt_num(c.success_rate, 4),
                fmt_num(c.feasible_rate, 4),
                fmt_num(c.best_objective, 4),
                fmt_num(c.mean_objective, 4),
                fmt_num(c.mean_iters_to_best, 1),
                c.iterations,
                if j + 1 < p.cells.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!(
            "    ] }}{}\n",
            if i + 1 < result.problems.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"rankings\": [\n");
    for (i, row) in result.rankings.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"rank\": {}, \"engine\": \"{}\", \"problems\": {}, \
             \"mean_success_rate\": {}, \"borda\": {}, \"best_count\": {}, \
             \"worst_count\": {} }}{}\n",
            i + 1,
            row.engine,
            row.problems,
            fmt_num(row.mean_success_rate, 4),
            row.borda,
            row.best_count,
            row.worst_count,
            if i + 1 < result.rankings.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::read_study;
    use hycim_obs::ObsRegistry;
    use std::sync::Arc;

    #[test]
    fn tiny_study_runs_and_renders_valid_json() {
        let recipe = StudyRecipe::parse(
            "study tiny\nseed 5\nreplicas 2\nsweeps 30\nengines software,hycim\n\
             problem qkp sizes=8 density=50\nproblem maxcut sizes=6 density=50\n",
        )
        .unwrap();
        let result = StudyRunner::Local(BatchRunner::new().with_threads(2))
            .run(&recipe)
            .unwrap();
        assert_eq!(result.problems.len(), 2);
        assert_eq!(result.cells(), 4);
        assert_eq!(result.rankings.len(), 2);
        assert!(result.total_iterations() > 0);
        assert!(result.wall_seconds > 0.0);
        for p in &result.problems {
            assert!(p.reference.is_finite(), "{}: reference folded", p.problem);
            for c in &p.cells {
                assert!((0.0..=1.0).contains(&c.success_rate));
                assert!((0.0..=1.0).contains(&c.feasible_rate));
            }
        }
        let doc = render_study_json(&result, &ReportMeta::unknown());
        read_study(&doc).expect("rendered document validates");
        // Telemetry never leaks into the artifact.
        assert!(!doc.contains("wall"));
    }

    #[test]
    fn study_runs_feed_the_obs_registry_and_the_summary_formatter() {
        let recipe = StudyRecipe::parse(
            "study tiny\nseed 5\nreplicas 2\nsweeps 30\nengines software\n\
             problem qkp sizes=8 density=50\n",
        )
        .unwrap();
        let obs = Arc::new(ObsRegistry::new());
        let runner = BatchRunner::new()
            .with_obs(Arc::clone(&obs))
            .with_threads(2);
        let result = StudyRunner::Local(runner).run(&recipe).unwrap();
        let snapshot = obs.snapshot();
        assert_eq!(snapshot.counter("batch.cells"), Some(2));
        assert_eq!(
            snapshot.counter("batch.iterations"),
            Some(result.total_iterations())
        );
        assert_eq!(
            snapshot
                .histogram("timing.batch.cell_seconds")
                .map(|h| h.count()),
            Some(2)
        );
        let summary = render_metrics_summary(&result, &snapshot);
        assert!(summary.contains("-- metrics"));
        assert!(summary.contains("batch.cells 2"));
        assert!(summary.contains("-- timing --"));
    }

    #[test]
    fn unknown_family_backend_combinations_surface_as_errors() {
        // The parser refuses a 1-spin glass; the recipe's public fields
        // do not, so the generator's refusal must surface from both
        // executors as an error that names the instance. A fleet with
        // no workers runs its columns through the local fallback.
        let recipe = StudyRecipe {
            name: "t".to_string(),
            seed: 1,
            replicas: 1,
            sweeps: 5,
            engines: vec![EngineKind::Software],
            problems: vec![FamilySpec {
                family: Family::SpinGlass,
                sizes: vec![1],
            }],
        };
        let fleet = StudyRunner::Fleet {
            coordinator: Coordinator::new(Vec::new()),
            shards: 1,
        };
        for runner in [StudyRunner::Local(BatchRunner::serial()), fleet] {
            let err = runner.run(&recipe).expect_err("a 1-spin glass is refused");
            assert!(err.contains("spinglass-n1"), "{err}");
        }
    }

    #[test]
    fn iters_to_best_reads_the_trace() {
        let recipe = StudyRecipe::parse(
            "study t\nseed 2\nreplicas 2\nsweeps 40\nengines software\n\
             problem qkp sizes=8 density=50\n",
        )
        .unwrap();
        let result = StudyRunner::Local(BatchRunner::serial())
            .run(&recipe)
            .unwrap();
        let cell = &result.problems[0].cells[0];
        // The mean first-touch index is within the executed budget.
        let per_replica = cell.iterations as f64 / recipe.replicas as f64;
        assert!(cell.mean_iters_to_best >= 0.0);
        assert!(cell.mean_iters_to_best <= per_replica + 1.0);
    }
}
