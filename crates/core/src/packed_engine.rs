//! The bit-parallel multi-replica engine: 64 annealing replicas per
//! [`solve`](crate::Engine::solve) call, packed into `u64` spin
//! bitplanes ([`hycim_qubo::PackedReplicaState`]) and advanced by
//! [`hycim_anneal::packed`] sweeps.
//!
//! Where every other engine runs *one* replica per seed, the packed
//! engine runs [`LANES`] replicas in one pass over the coupling
//! structure and reports the best lane. The replicas are not merely
//! "similar" to scalar runs — they are bit-identical to them:
//!
//! # The `replica_seed` lane contract
//!
//! Lane `k` of `solve(seed)` consumes exactly the RNG stream
//! `StdRng::seed_from_u64(replica_seed(seed, 0, k))` — the same
//! stream-derivation rule [`BatchRunner`](crate::BatchRunner) uses for
//! scalar replica fan-outs. The lane draws its initial configuration
//! from that stream and continues annealing on it, so a 64-lane packed
//! run is bit-identical to 64 independent scalar
//! [`run_replica_scalar`](hycim_anneal::run_replica_scalar) runs
//! seeded the same way. The law is pinned by a proptest in
//! `tests/engines.rs`.
//!
//! Determinism of the schedule: T₀ is calibrated *without randomness*
//! as `t0_fraction × mean|h|` over all `n × 64` maintained fields at
//! the initial configurations
//! ([`PackedSoftwareState::mean_abs_field`]), floored at 1 like
//! [`run_annealing`](crate::run_annealing), so scalar twins can
//! reconstruct the exact cooling schedule from the initials alone.

use hycim_anneal::{
    run_packed_sweeps, AnnealTrace, PackedRunOutcome, PackedSoftwareState, SweepSchedule,
};
use hycim_cop::CopProblem;
use hycim_qubo::{InequalityQubo, LANES};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::replica_seed;
use crate::{Engine, HycimError, Solution};

/// Configuration of the [`PackedEngine`]: the annealing-scale
/// parameters (paper defaults, matching
/// [`HyCimConfig`](crate::HyCimConfig)).
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConfig {
    /// Annealing sweeps; each sweep proposes `n` moves *per lane*.
    pub sweeps: usize,
    /// T₀ = `t0_fraction × mean|h|` at the initial configurations.
    pub t0_fraction: f64,
    /// Final (coldest) temperature as a fraction of T₀.
    pub t_end_fraction: f64,
}

impl PackedConfig {
    /// The paper-calibrated defaults (Sec 4).
    pub fn paper() -> Self {
        Self {
            sweeps: 1000,
            t0_fraction: 0.5,
            t_end_fraction: 0.002,
        }
    }

    /// Overrides the sweep count.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps == 0`.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        assert!(sweeps > 0, "need at least one sweep");
        self.sweeps = sweeps;
        self
    }
}

/// The bit-parallel software engine: exact inequality-QUBO evaluation
/// like [`SoftwareEngine`](crate::SoftwareEngine), but annealing
/// [`LANES`] replicas per solve in `u64` bitplanes and reporting the
/// best lane. See [`hycim_anneal::packed`] for the lane/seed contract.
#[derive(Debug, Clone)]
pub struct PackedEngine<P: CopProblem> {
    problem: P,
    encoded: InequalityQubo,
    config: PackedConfig,
}

impl<P: CopProblem> PackedEngine<P> {
    /// Builds a packed engine for a problem.
    ///
    /// # Errors
    ///
    /// Returns [`HycimError`] if the problem cannot be encoded.
    pub fn new(problem: &P, config: &PackedConfig) -> Result<Self, HycimError> {
        Ok(Self {
            problem: problem.clone(),
            encoded: problem.to_inequality_qubo()?,
            config: config.clone(),
        })
    }

    /// The deterministic per-sweep cooling schedule for a packed state
    /// at its initial configurations: `T₀ = t0_fraction × mean|h|`
    /// (floored at 1, like [`run_annealing`](crate::run_annealing)),
    /// decaying geometrically to `t_end_fraction × T₀` over `sweeps`.
    pub fn schedule_for(&self, state: &PackedSoftwareState) -> SweepSchedule {
        let t0 = (self.config.t0_fraction * state.mean_abs_field()).max(1.0);
        SweepSchedule::cooling_to(t0, self.config.t_end_fraction, self.config.sweeps)
    }

    /// Runs all [`LANES`] lanes of `solve(seed)` and returns the
    /// per-lane outcomes — the testable surface of the bit-identity
    /// law, and what the throughput benchmarks time.
    ///
    /// Lane `k` draws its initial configuration from the
    /// [`replica_seed`](crate::replica_seed) stream
    /// (`problem_index = 0`, replica `k`) and anneals on the rest of
    /// that stream.
    pub fn lane_outcomes(&self, seed: u64) -> PackedRunOutcome {
        let mut rngs: Vec<StdRng> = (0..LANES as u64)
            .map(|k| StdRng::seed_from_u64(replica_seed(seed, 0, k)))
            .collect();
        let initials: Vec<_> = rngs
            .iter_mut()
            .map(|rng| self.problem.initial(rng))
            .collect();
        let state = PackedSoftwareState::new(&self.encoded, &initials);
        let schedule = self.schedule_for(&state);
        run_packed_sweeps(state, self.config.sweeps, &schedule, &mut rngs)
    }
}

impl<P: CopProblem> Engine<P> for PackedEngine<P> {
    fn problem(&self) -> &P {
        &self.problem
    }

    fn backend(&self) -> &'static str {
        "packed"
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        let outcome = self.lane_outcomes(seed);
        let k = outcome.best_lane();
        let trace = AnnealTrace::from_counts(
            outcome.best_energies[k],
            outcome.best_assignments[k].clone(),
            outcome.accepted as usize,
            outcome.rejected as usize,
            outcome.infeasible as usize,
        );
        Solution::score(&self.problem, outcome.best_assignments[k].clone(), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;
    use hycim_cop::QkpInstance;

    fn fig7e() -> QkpInstance {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
        inst.set_pair_profit(0, 1, 3);
        inst.set_pair_profit(0, 2, 7);
        inst.set_pair_profit(1, 2, 2);
        inst
    }

    #[test]
    fn packed_engine_solves_fig7e() {
        let engine = PackedEngine::new(&fig7e(), &PackedConfig::paper().with_sweeps(30)).unwrap();
        assert_eq!(engine.backend(), "packed");
        let solution = engine.solve(2);
        assert!(solution.feasible);
        assert_eq!(solution.value(), 25);
        assert_eq!(solution.objective, -25.0);
    }

    #[test]
    fn packed_engine_is_seed_deterministic() {
        let inst = QkpGenerator::new(25, 0.5).generate(4);
        let engine = PackedEngine::new(&inst, &PackedConfig::paper().with_sweeps(40)).unwrap();
        let a = engine.solve(9);
        let b = engine.solve(9);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.reported_energy, b.reported_energy);
        assert_eq!(a.trace.iterations(), b.trace.iterations());
    }

    #[test]
    fn solution_reports_the_best_lane() {
        let inst = QkpGenerator::new(20, 0.5).generate(7);
        let engine = PackedEngine::new(&inst, &PackedConfig::paper().with_sweeps(30)).unwrap();
        let outcome = engine.lane_outcomes(3);
        let solution = engine.solve(3);
        let k = outcome.best_lane();
        assert_eq!(solution.reported_energy, outcome.best_energies[k]);
        assert_eq!(solution.assignment, outcome.best_assignments[k]);
        // The trace aggregates all 64 lanes' move counts.
        assert_eq!(
            solution.trace.iterations() as u64,
            outcome.accepted + outcome.rejected + outcome.infeasible
        );
        assert_eq!(
            solution.trace.iterations(),
            engine.config.sweeps * engine.encoded.dim() * LANES
        );
    }
}
