//! Deterministic parallel multi-start evaluation: the paper's
//! Monte-Carlo protocol (Sec 4.3 runs 1000 initial states per
//! instance) fanned out over OS threads.
//!
//! [`BatchRunner`] is the one multi-start evaluation loop. Its
//! determinism guarantee: every (problem, replica) cell derives its
//! own seed from the root seed with
//! [`replica_seed`], and every [`Engine::solve`] call is a pure
//! function of that seed — so results are **bit-identical regardless
//! of thread count or scheduling**, and a single cell can be re-run in
//! isolation to reproduce a batch entry.
//!
//! # Example
//!
//! ```
//! use hycim_core::{BatchRunner, HyCimConfig, HyCimEngine};
//! use hycim_cop::generator::QkpGenerator;
//!
//! # fn main() -> Result<(), hycim_core::HycimError> {
//! let inst = QkpGenerator::new(15, 0.5).generate(1);
//! let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(30), 1)?;
//! let runner = BatchRunner::new().with_threads(2);
//! let solutions = runner.run(&engine, 4, 7);
//! assert_eq!(solutions.len(), 4);
//! assert!(solutions.iter().all(|s| s.feasible));
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hycim_cop::CopProblem;
use hycim_obs::ObsRegistry;

use crate::{Engine, Solution};

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the solve seed of one grid cell from the root seed. The
/// derivation is position-based (problem index × replica index), so it
/// does not depend on how cells are distributed over threads.
pub fn replica_seed(root_seed: u64, problem_index: u64, replica: u64) -> u64 {
    let per_problem = splitmix64(root_seed ^ splitmix64(problem_index));
    splitmix64(per_problem ^ splitmix64(replica.wrapping_add(0x5851_F42D_4C95_7F2D)))
}

/// Worker-thread count every layer that fans engine solves out over
/// OS threads agrees on: the `HYCIM_THREADS` environment variable
/// when set (`0` clamps to 1, i.e. serial — the historic
/// bench-harness semantics), else available parallelism, else 4.
/// Used by [`BatchRunner::new`] and the `hycim-service` worker pool,
/// so one knob sizes the whole stack.
pub fn default_threads() -> usize {
    std::env::var("HYCIM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|n| n.max(1))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
}

/// Multi-threaded, deterministic multi-start runner over a
/// replica-count × problem-list grid.
#[derive(Debug, Clone)]
pub struct BatchRunner {
    threads: usize,
    obs: Option<Arc<ObsRegistry>>,
}

impl BatchRunner {
    /// A runner using all available parallelism (respects the
    /// `HYCIM_THREADS` environment variable — see [`default_threads`]).
    pub fn new() -> Self {
        Self {
            threads: default_threads(),
            obs: None,
        }
    }

    /// A single-threaded runner (the serial reference the determinism
    /// guarantee is stated against).
    pub fn serial() -> Self {
        Self {
            threads: 1,
            obs: None,
        }
    }

    /// Publishes every [`run_seeds`](Self::run_seeds) fan-out (and so
    /// every [`run`](Self::run)) into `obs`: `batch.*` cell counts,
    /// each solve's anneal counts under `core.anneal.*` plus one
    /// `AnnealPhase` event labeled with the engine's backend tag, and
    /// per-cell wall-clock under `timing.batch.*`. Observations are
    /// recorded after the fan-out joins, in seed order, so every
    /// non-`timing.` metric is bit-identical across thread counts.
    /// [`run_grid`](Self::run_grid) does not publish.
    pub fn with_obs(mut self, obs: Arc<ObsRegistry>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Worker-thread count in use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `replicas` independent solves of one engine (replica `k`
    /// uses `replica_seed(root_seed, 0, k)`, the seeds of
    /// [`run_grid`](Self::run_grid) row 0), returning solutions in
    /// replica order — [`run_seeds`](Self::run_seeds) over that column.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn run<P, E>(&self, engine: &E, replicas: usize, root_seed: u64) -> Vec<Solution<P>>
    where
        P: CopProblem,
        E: Engine<P>,
    {
        assert!(replicas > 0, "need at least one replica");
        let seeds: Vec<u64> = (0..replicas as u64)
            .map(|k| replica_seed(root_seed, 0, k))
            .collect();
        self.run_seeds(engine, &seeds)
    }

    /// Runs one solve per pre-derived seed, in seed order — the
    /// primitive behind [`run`](Self::run) and shard execution (a shard
    /// spec carries its exact [`replica_seed`]s, so the worker and the
    /// coordinator's local fallback both reduce to this call). Results
    /// are bit-identical for any thread count; an empty seed list
    /// returns an empty vector.
    ///
    /// With a registry attached ([`with_obs`](Self::with_obs)) each
    /// cell is also timed and the batch is published after the join;
    /// without one, no clock is read.
    pub fn run_seeds<P, E>(&self, engine: &E, seeds: &[u64]) -> Vec<Solution<P>>
    where
        P: CopProblem,
        E: Engine<P>,
    {
        let Some(obs) = &self.obs else {
            return self.map_indexed(seeds.len(), |k| engine.solve(seeds[k]));
        };
        let cells = self.map_indexed(seeds.len(), |k| {
            let start = Instant::now();
            let solution = engine.solve(seeds[k]);
            (solution, start.elapsed().as_secs_f64())
        });
        // Feed the registry after the join, in seed order: no hot-path
        // contention, and the non-timing metrics are independent of
        // how cells landed on threads. Whole-solve anneal counts come
        // off each finished trace, so publishing them draws nothing
        // from any solve stream.
        let cell_count = obs.counter("batch.cells");
        let iterations = obs.counter("batch.iterations");
        let per_cell = obs.histogram("batch.cell_iterations");
        let wall = obs.histogram("timing.batch.cell_seconds");
        let solves = obs.counter("core.anneal.solves");
        let anneal_iterations = obs.counter("core.anneal.iterations");
        let accepted = obs.counter("core.anneal.accepted");
        let rejected_metropolis = obs.counter("core.anneal.rejected_metropolis");
        let rejected_infeasible = obs.counter("core.anneal.rejected_infeasible");
        for (solution, seconds) in &cells {
            let trace = &solution.trace;
            cell_count.inc();
            iterations.add(trace.iterations() as u64);
            per_cell.record(trace.iterations() as f64);
            wall.record(*seconds);
            solves.inc();
            anneal_iterations.add(trace.iterations() as u64);
            accepted.add(trace.accepted() as u64);
            rejected_metropolis.add(trace.rejected_metropolis() as u64);
            rejected_infeasible.add(trace.rejected_infeasible() as u64);
            obs.tracer().record(hycim_obs::Event::AnnealPhase {
                label: engine.backend(),
                iterations: trace.iterations() as u64,
            });
        }
        cells.into_iter().map(|(solution, _)| solution).collect()
    }

    /// Runs the full grid: `replicas` solves of every engine, fanned
    /// out cell-by-cell over the worker threads. Row `p` column `k`
    /// uses `replica_seed(root_seed, p, k)`; the output preserves
    /// engine order and replica order.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0` (an engine list may be empty — that
    /// returns no rows — but every listed engine must get at least one
    /// replica so the output shape always matches `engines`).
    pub fn run_grid<P, E>(
        &self,
        engines: &[E],
        replicas: usize,
        root_seed: u64,
    ) -> Vec<Vec<Solution<P>>>
    where
        P: CopProblem,
        E: Engine<P>,
    {
        assert!(replicas > 0, "need at least one replica");
        let mut flat = self
            .map_indexed(engines.len() * replicas, |idx| {
                let (p, k) = (idx / replicas, idx % replicas);
                engines[p].solve(replica_seed(root_seed, p as u64, k as u64))
            })
            .into_iter();
        (0..engines.len())
            .map(|_| (0..replicas).map(|_| flat.next().expect("sized")).collect())
            .collect()
    }

    /// Order-preserving parallel map over `0..n` on this runner's
    /// worker threads: the deterministic fan-out primitive every run
    /// method uses, public so report layers can put per-instance work
    /// (such as re-running a reference heuristic) on the same threads.
    pub fn map_indexed<R, F>(&self, n: usize, job: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        if n == 0 {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<&mut Option<R>>> = results.iter_mut().map(Mutex::new).collect();
        let (next_ref, slots_ref, job_ref) = (&next, &slots, &job);
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(move || loop {
                    let idx = next_ref.fetch_add(1, Ordering::Relaxed);
                    if idx >= n {
                        break;
                    }
                    let r = job_ref(idx);
                    **slots_ref[idx].lock().expect("slot lock") = Some(r);
                });
            }
        });
        drop(slots);
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

impl Default for BatchRunner {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DquboConfig, DquboEngine, HyCimConfig, HyCimEngine};
    use hycim_cop::generator::QkpGenerator;

    #[test]
    fn replica_seeds_are_unique_across_the_grid() {
        let mut seen = std::collections::BTreeSet::new();
        for p in 0..8u64 {
            for k in 0..64u64 {
                assert!(
                    seen.insert(replica_seed(42, p, k)),
                    "collision at ({p},{k})"
                );
            }
        }
        // Different roots give different streams.
        assert_ne!(replica_seed(1, 0, 0), replica_seed(2, 0, 0));
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let inst = QkpGenerator::new(25, 0.5).generate(3);
        let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(40), 3).unwrap();
        let serial = BatchRunner::serial().run(&engine, 6, 99);
        for threads in [2, 4, 8] {
            let parallel = BatchRunner::new().with_threads(threads).run(&engine, 6, 99);
            assert_eq!(serial.len(), parallel.len());
            for (s, p) in serial.iter().zip(&parallel) {
                assert_eq!(s.assignment, p.assignment, "{threads} threads diverged");
                assert_eq!(s.objective, p.objective);
                assert_eq!(s.reported_energy, p.reported_energy);
            }
        }
    }

    #[test]
    fn grid_preserves_engine_and_replica_order() {
        let config = HyCimConfig::default().with_sweeps(20);
        let engines: Vec<_> = (0..3)
            .map(|seed| {
                let inst = QkpGenerator::new(12, 0.5).generate(seed);
                HyCimEngine::new(&inst, &config, seed).unwrap()
            })
            .collect();
        let grid = BatchRunner::new().with_threads(4).run_grid(&engines, 2, 5);
        assert_eq!(grid.len(), 3);
        for (p, row) in grid.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (k, sol) in row.iter().enumerate() {
                // Each cell reproduces from its derived seed alone.
                let expected = engines[p].solve(replica_seed(5, p as u64, k as u64));
                assert_eq!(sol.assignment, expected.assignment, "cell ({p},{k})");
                assert_eq!(sol.objective, expected.objective);
            }
        }
    }

    #[test]
    fn works_for_the_dqubo_backend_too() {
        let inst = QkpGenerator::new(10, 0.5)
            .with_capacity_range(20, 50)
            .generate(1);
        let engine = DquboEngine::new(&inst, &DquboConfig::default().with_sweeps(30)).unwrap();
        let a = BatchRunner::serial().run(&engine, 3, 1);
        let b = BatchRunner::new().with_threads(3).run(&engine, 3, 1);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.assignment, y.assignment);
        }
    }

    #[test]
    fn telemetry_runs_match_plain_runs() {
        let inst = QkpGenerator::new(15, 0.5).generate(7);
        let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(30), 7).unwrap();
        let plain = BatchRunner::serial().run(&engine, 4, 13);
        let obs = Arc::new(ObsRegistry::new());
        let published = BatchRunner::new()
            .with_threads(3)
            .with_obs(Arc::clone(&obs))
            .run(&engine, 4, 13);
        assert_eq!(plain.len(), published.len());
        for (p, s) in plain.iter().zip(&published) {
            assert_eq!(p.assignment, s.assignment);
            assert_eq!(p.objective, s.objective);
            assert!(s.trace.iterations() > 0);
        }
        // Telemetry is attached, not substituted: iterations come from
        // the traces and every cell's wall clock was recorded.
        let snapshot = obs.snapshot();
        let iterations: usize = published.iter().map(|s| s.trace.iterations()).sum();
        assert_eq!(snapshot.counter("batch.cells"), Some(4));
        assert_eq!(
            snapshot.counter("batch.iterations"),
            Some(iterations as u64)
        );
        let wall = snapshot.histogram("timing.batch.cell_seconds").unwrap();
        assert_eq!(wall.count(), 4);
    }

    #[test]
    fn run_seeds_publishes_what_run_publishes() {
        let inst = QkpGenerator::new(14, 0.5).generate(9);
        let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(20), 9).unwrap();
        let seeds: Vec<u64> = (0..5).map(|k| replica_seed(21, 0, k)).collect();
        let (via_run, via_seeds) = (Arc::new(ObsRegistry::new()), Arc::new(ObsRegistry::new()));
        let runner = BatchRunner::serial().with_obs(Arc::clone(&via_run));
        runner.run(&engine, 5, 21);
        let runner = BatchRunner::new()
            .with_threads(3)
            .with_obs(Arc::clone(&via_seeds));
        runner.run_seeds(&engine, &seeds);
        let stable = via_run.render_stable();
        assert!(stable.contains("batch.cells 5"));
        assert!(stable.contains("core.anneal.solves 5"));
        assert_eq!(via_seeds.render_stable(), stable);
    }

    #[test]
    fn run_seeds_matches_per_seed_solves() {
        let inst = QkpGenerator::new(12, 0.5).generate(2);
        let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(25), 2).unwrap();
        let seeds: Vec<u64> = (0..5).map(|k| replica_seed(11, 0, k)).collect();
        let serial = BatchRunner::serial().run_seeds(&engine, &seeds);
        let threaded = BatchRunner::new()
            .with_threads(3)
            .run_seeds(&engine, &seeds);
        assert_eq!(serial.len(), 5);
        for ((s, t), &seed) in serial.iter().zip(&threaded).zip(&seeds) {
            let direct = engine.solve(seed);
            assert_eq!(s.assignment, direct.assignment);
            assert_eq!(t.assignment, direct.assignment);
            assert_eq!(s.objective, direct.objective);
        }
        // The explicit-seed path agrees with the replica-column path.
        let column = BatchRunner::serial().run(&engine, 5, 11);
        for (a, b) in serial.iter().zip(&column) {
            assert_eq!(a.assignment, b.assignment);
        }
        let empty: Vec<u64> = Vec::new();
        assert!(BatchRunner::serial().run_seeds(&engine, &empty).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_panics() {
        let inst = QkpGenerator::new(5, 0.5).generate(1);
        let engine = HyCimEngine::new(&inst, &HyCimConfig::default(), 1).unwrap();
        let _ = BatchRunner::serial().run(&engine, 0, 0);
    }
}
