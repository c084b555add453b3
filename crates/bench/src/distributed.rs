//! The distributed study runner: the same replica × problem × engine
//! grid as [`StudyRunner`](crate::StudyRunner), executed by sharding
//! every cell's replica column across TCP workers through a
//! [`Coordinator`] and merging the results.
//!
//! Determinism contract: instances come from the exact construction
//! path the local runner uses (`build_instance`), every shard
//! carries its pre-derived solve seeds plus the instance-keyed
//! hardware seed, and scoring delegates to the same formulas
//! ([`fold_reference`], [`summarize_cell`]). A
//! distributed run therefore renders a `BENCH_study.json` document
//! **byte-identical** to a local single-thread run of the same recipe
//! — the pin of the `distributed_study` integration tests and the
//! `shard_demo` binary.

use std::time::Instant;

use hycim_net::{shard_replica_column, Coordinator, JobSpec};

use crate::recipe::StudyRecipe;
use crate::stats::{fold_reference, rank_engines, summarize_cell, ProblemSummary, RunScore};
use crate::study::{build_instance, StudyResult};

/// Executes [`StudyRecipe`]s by sharding every cell over wire workers.
#[derive(Debug, Clone)]
pub struct DistributedStudyRunner {
    shards: usize,
    coordinator: Coordinator,
}

impl DistributedStudyRunner {
    /// A runner dispatching to the given worker addresses, with one
    /// shard per worker by default and a default [`Coordinator`]
    /// (local fallback and seeded backoff on).
    pub fn new(addrs: Vec<String>) -> Self {
        let shards = addrs.len().max(1);
        Self {
            shards,
            coordinator: Coordinator::new(addrs),
        }
    }

    /// Overrides how many shards each replica column is split into
    /// (the merged result is bit-identical for any shard count — only
    /// dispatch granularity changes).
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self.shards = shards;
        self
    }

    /// Replaces the dispatching [`Coordinator`] wholesale — the hook
    /// for resilience knobs (timeouts, probe schedules, backoff,
    /// strict no-fallback mode) and for the chaos tests, which route
    /// a study through fault-injection proxies. The coordinator's own
    /// address list is used; the one given to [`new`](Self::new) is
    /// superseded.
    pub fn with_coordinator(mut self, coordinator: Coordinator) -> Self {
        self.coordinator = coordinator;
        self
    }

    /// Runs the full grid of a recipe over the workers.
    ///
    /// # Errors
    ///
    /// Returns a message naming the instance and engine on the first
    /// cell that cannot be constructed, dispatched, or merged
    /// (exhausted retries surface here as the coordinator's typed
    /// error, stringified with its cell context).
    pub fn run(&self, recipe: &StudyRecipe) -> Result<StudyResult, String> {
        let started = Instant::now();
        let coordinator = &self.coordinator;
        let mut problems = Vec::new();
        for (spec, n, key) in recipe.instances() {
            let instance = build_instance(&spec, n, &key, recipe)?;
            let mut columns = Vec::new();
            for &kind in &recipe.engines {
                let base = JobSpec {
                    family: instance.family_tag().to_string(),
                    problem: instance.to_wire(),
                    engine: kind.tag().to_string(),
                    sweeps: recipe.sweeps as u64,
                    hardware_seed: recipe.hardware_seed(&key),
                    record_trace: true,
                    seeds: Vec::new(),
                };
                let (total, jobs) = shard_replica_column(
                    &base,
                    recipe.replicas,
                    recipe.solve_seed(&key),
                    0,
                    self.shards,
                );
                let runs: Vec<RunScore> = coordinator
                    .run(total, &jobs)
                    .map_err(|e| format!("{key} on {}: {e}", kind.tag()))?
                    .iter()
                    .map(|s| {
                        let iters = s.iters_to_best as usize;
                        (s.objective, s.feasible, iters, s.iterations as usize)
                    })
                    .collect();
                columns.push((kind, runs));
            }

            // Problem-local reference, folded exactly as the local
            // runner folds it: the instance's own reference with the
            // best feasible solve of any engine on this problem.
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
}
