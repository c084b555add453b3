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
//! [`calibrate_t0`](crate::calibrate_t0), so scalar twins can
//! reconstruct the exact cooling schedule from the initials alone.

use hycim_anneal::{
    run_packed_tempering, AnnealTrace, PackedRunOutcome, PackedSoftwareState,
    PackedTemperingConfig, SweepSchedule,
};
use hycim_cop::CopProblem;
use hycim_qubo::{Assignment, InequalityQubo, LANES};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::replica_seed;
use crate::{Engine, HyCimConfig, HycimError, Solution};

/// How the packed engine couples its 64 lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackedMode {
    /// Independent lanes: every lane cools on the same geometric
    /// per-sweep schedule. This is the mode covered by the
    /// packed-vs-scalar bit-identity law.
    Independent,
    /// Parallel tempering: the 64 lanes hold a geometric temperature
    /// ladder and exchange rungs in deterministic even/odd sweeps
    /// ([`hycim_anneal::tempering::run_packed_tempering`]).
    Tempering,
}

/// Configuration of the [`PackedEngine`]: the shared annealing-scale
/// parameters (paper defaults, matching [`HyCimConfig`]) plus the
/// lane-coupling mode.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedConfig {
    /// Annealing sweeps; each sweep proposes `n` moves *per lane*.
    pub sweeps: usize,
    /// T₀ = `t0_fraction × mean|h|` at the initial configurations.
    pub t0_fraction: f64,
    /// Final (coldest) temperature as a fraction of T₀.
    pub t_end_fraction: f64,
    /// Packed sweeps between exchange rounds (tempering mode only).
    pub sweeps_per_exchange: usize,
    /// Lane-coupling mode.
    pub mode: PackedMode,
}

impl PackedConfig {
    /// The paper-calibrated defaults (Sec 4), independent lanes.
    pub fn paper() -> Self {
        Self {
            sweeps: 1000,
            t0_fraction: 0.5,
            t_end_fraction: 0.002,
            sweeps_per_exchange: 2,
            mode: PackedMode::Independent,
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

    /// Switches the lanes to parallel tempering with
    /// `sweeps_per_exchange` packed sweeps between exchange rounds.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps_per_exchange == 0`.
    pub fn with_tempering(mut self, sweeps_per_exchange: usize) -> Self {
        assert!(
            sweeps_per_exchange > 0,
            "need at least one sweep between exchanges"
        );
        self.mode = PackedMode::Tempering;
        self.sweeps_per_exchange = sweeps_per_exchange;
        self
    }

    /// The packed counterpart of a scalar engine configuration: same
    /// sweep count and temperature fractions.
    pub fn from_hycim(config: &HyCimConfig) -> Self {
        Self {
            sweeps: config.sweeps,
            t0_fraction: config.t0_fraction,
            t_end_fraction: config.t_end_fraction,
            ..Self::paper()
        }
    }
}

impl Default for PackedConfig {
    fn default() -> Self {
        Self::paper()
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

    /// The problem in inequality-QUBO form.
    pub fn encoded(&self) -> &InequalityQubo {
        &self.encoded
    }

    /// The engine configuration.
    pub fn config(&self) -> &PackedConfig {
        &self.config
    }

    /// Lane `k`'s RNG stream for a solve: the
    /// [`replica_seed`](crate::replica_seed) contract with
    /// `problem_index = 0`.
    fn lane_rngs(seed: u64) -> Vec<StdRng> {
        (0..LANES)
            .map(|k| StdRng::seed_from_u64(replica_seed(seed, 0, k as u64)))
            .collect()
    }

    /// Draws each lane's initial configuration from its own stream
    /// (the stream then continues into the annealing loop).
    fn lane_initials(&self, rngs: &mut [StdRng]) -> Vec<Assignment> {
        rngs.iter_mut()
            .map(|rng| self.problem.initial(rng))
            .collect()
    }

    /// The deterministic per-sweep cooling schedule for a packed state
    /// at its initial configurations: `T₀ = t0_fraction × mean|h|`
    /// (floored at 1, like [`calibrate_t0`](crate::calibrate_t0)),
    /// decaying geometrically to `t_end_fraction × T₀` over `sweeps`.
    pub fn schedule_for(&self, state: &PackedSoftwareState) -> SweepSchedule {
        let t0 = (self.config.t0_fraction * state.mean_abs_field()).max(1.0);
        SweepSchedule::cooling_to(t0, self.config.t_end_fraction, self.config.sweeps)
    }

    /// Runs all [`LANES`] independent lanes of `solve(seed)` and
    /// returns the per-lane outcomes — the testable surface of the
    /// bit-identity law, and what the throughput benchmarks time.
    ///
    /// Only meaningful in [`PackedMode::Independent`]; tempering mode
    /// couples the lanes, so per-lane outcomes are not scalar runs.
    pub fn lane_outcomes(&self, seed: u64) -> PackedRunOutcome {
        let mut rngs = Self::lane_rngs(seed);
        let initials = self.lane_initials(&mut rngs);
        let mut state = PackedSoftwareState::new(&self.encoded, &initials);
        let schedule = self.schedule_for(&state);
        let mut temperatures = [0.0f64; LANES];
        for sweep in 0..self.config.sweeps {
            temperatures.fill(schedule.temperature(sweep));
            state.sweep(&temperatures, &mut rngs);
        }
        let (accepted, rejected, infeasible) = state.counts();
        PackedRunOutcome {
            best_energies: (0..LANES).map(|k| state.best_energy(k)).collect(),
            best_assignments: (0..LANES).map(|k| state.best_assignment(k)).collect(),
            final_energies: (0..LANES).map(|k| state.energy(k)).collect(),
            accepted,
            rejected,
            infeasible,
        }
    }

    fn solve_tempering(&self, seed: u64) -> Solution<P> {
        let mut rngs = Self::lane_rngs(seed);
        let initials = self.lane_initials(&mut rngs);
        let state = PackedSoftwareState::new(&self.encoded, &initials);
        let schedule = self.schedule_for(&state);
        let rounds = (self.config.sweeps / self.config.sweeps_per_exchange).max(1);
        let config = PackedTemperingConfig {
            t_min: schedule.t0() * self.config.t_end_fraction,
            t_max: schedule.t0(),
            sweeps_per_exchange: self.config.sweeps_per_exchange,
            rounds,
        };
        // The exchange decisions draw from their own stream (replica
        // index LANES — past every lane) so lane streams stay aligned
        // with their independent-mode twins.
        let mut swap_rng = StdRng::seed_from_u64(replica_seed(seed, 0, LANES as u64));
        let result =
            run_packed_tempering(&self.encoded, &initials, &config, &mut rngs, &mut swap_rng);
        let trace = AnnealTrace::from_counts(
            result.best_energy,
            result.best_assignment.clone(),
            result.accepted as usize,
            result.rejected as usize,
            result.infeasible as usize,
        );
        Solution::score(&self.problem, result.best_assignment, trace)
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
        match self.config.mode {
            PackedMode::Independent => {
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
            PackedMode::Tempering => self.solve_tempering(seed),
        }
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
            engine.config().sweeps * engine.encoded().dim() * LANES
        );
    }

    #[test]
    fn tempering_mode_solves_and_is_deterministic() {
        let inst = QkpGenerator::new(15, 0.6).generate(2);
        let engine = PackedEngine::new(
            &inst,
            &PackedConfig::paper().with_sweeps(40).with_tempering(2),
        )
        .unwrap();
        let a = engine.solve(5);
        let b = engine.solve(5);
        assert!(a.feasible);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.reported_energy, b.reported_energy);
    }

    #[test]
    fn from_hycim_copies_the_shared_scale_parameters() {
        let h = HyCimConfig::default().with_sweeps(77);
        let p = PackedConfig::from_hycim(&h);
        assert_eq!(p.sweeps, 77);
        assert_eq!(p.t0_fraction, h.t0_fraction);
        assert_eq!(p.t_end_fraction, h.t_end_fraction);
        assert_eq!(p.mode, PackedMode::Independent);
    }
}
