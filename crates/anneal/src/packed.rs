//! Bit-parallel 64-replica annealing over [`PackedReplicaState`]
//! bitplanes, plus the scalar sweep reference it is proven against.
//!
//! One packed sweep proposes every variable once in
//! each of the 64 lanes: the CSR row, constraint weight, and spin
//! bitplane of variable `i` are loaded once, each lane runs the exact
//! inequality veto and the shared
//! [`metropolis_accept_sweep`] on its
//! own RNG stream, and the accepting lanes are committed with one
//! masked bitplane update.
//!
//! # The bit-identity contract
//!
//! [`run_packed_sweeps`] over lanes `0..64` produces *bit-identical*
//! trajectories to 64 independent [`run_replica_scalar`] runs (one
//! scalar [`SoftwareState`] with maintained
//! [`LocalFieldState`](hycim_qubo::LocalFieldState) fields per lane),
//! provided lane `k` consumes the RNG stream seeded for replica `k`.
//! The alignment is move-for-move:
//!
//! * both propose variables in the same sequential sweep order
//!   `i = 0..n`, with the temperature updated once per sweep;
//! * the veto (`load ± w > capacity`) uses the same integer
//!   arithmetic and consumes no randomness;
//! * deltas come from maintained fields kept bit-identical by
//!   construction (see [`hycim_qubo::packed`]);
//! * accept decisions funnel through the one shared
//!   [`metropolis_accept_sweep`], so
//!   lane `k` draws exactly when its scalar twin draws (one uniform
//!   per uphill feasible probe that is not deterministically
//!   rejected — see the function's draw-skip rule).
//!
//! The law is pinned by proptests here (state level) and in
//! `hycim-core` (engine level, under the `replica_seed` contract).

use hycim_qubo::{Assignment, InequalityQubo, PackedReplicaState, LANES};
use rand::rngs::StdRng;

use crate::annealer::metropolis_accept_sweep;
use crate::{AnnealState, SoftwareState};

/// A per-*sweep* geometric cooling schedule: `T(s) = t0 · αˢ`.
///
/// The packed loop anneals sweep-synchronously (all 64 lanes share
/// one temperature per sweep), so the schedule is indexed by sweep —
/// unlike [`GeometricSchedule`](crate::GeometricSchedule), which the
/// scalar [`Annealer`](crate::Annealer) indexes by iteration. Keeping
/// the type separate keeps the two cooling granularities from being
/// confused.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSchedule {
    t0: f64,
    alpha: f64,
}

impl SweepSchedule {
    /// Creates the schedule `T(s) = t0 · αˢ`.
    ///
    /// # Panics
    ///
    /// Panics unless `t0 > 0` and `0 < α <= 1`.
    fn new(t0: f64, alpha: f64) -> Self {
        assert!(t0 > 0.0, "initial temperature must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self { t0, alpha }
    }

    /// The schedule cooling from `t0` to `t0 · t_end_fraction` over
    /// `sweeps` sweeps.
    ///
    /// # Panics
    ///
    /// Panics unless `t0 > 0`, `0 < t_end_fraction <= 1`, and
    /// `sweeps > 0`.
    pub fn cooling_to(t0: f64, t_end_fraction: f64, sweeps: usize) -> Self {
        assert!(sweeps > 0, "need at least one sweep");
        assert!(
            t_end_fraction > 0.0 && t_end_fraction <= 1.0,
            "end fraction must be in (0, 1]"
        );
        Self::new(t0, t_end_fraction.powf(1.0 / sweeps as f64))
    }

    /// Temperature of sweep `s`.
    pub fn temperature(&self, sweep: usize) -> f64 {
        self.t0 * self.alpha.powi(sweep as i32)
    }
}

/// 64 exact software replicas of one inequality-QUBO problem, packed:
/// bitplane spins + per-lane maintained fields ([`PackedReplicaState`])
/// joined with per-lane constraint loads, tracked energies, and
/// best-so-far snapshots — the packed counterpart of 64 independent
/// [`SoftwareState`]s.
#[derive(Debug, Clone)]
pub struct PackedSoftwareState {
    problem: InequalityQubo,
    fields: PackedReplicaState,
    loads: Vec<u64>,
    energies: Vec<f64>,
    best_energies: Vec<f64>,
    /// Bit `k` of `best_planes[i]` = lane `k`'s best-so-far value of
    /// variable `i` (same layout as the live planes).
    best_planes: Vec<u64>,
    /// `Σwᵢ ≤ capacity`: every subset load satisfies the constraint,
    /// so the inequality veto can never fire (true for the
    /// unconstrained max-cut/spin-glass encodings) and the sweep can
    /// skip the per-lane load checks without changing any decision.
    veto_free: bool,
    /// Per-sweep scratch: the `(variable, mask)` commits of the sweep
    /// in flight, so best-so-far snapshots can be deferred to one
    /// reconstruction per improving lane at sweep end (best energy is
    /// monotone within a lane, so only its *last* improvement of the
    /// sweep needs the configuration materialized).
    commit_log: Vec<(u32, u64)>,
    /// `best_pos[k]`: index into `commit_log` just past lane `k`'s
    /// latest improving commit this sweep — the suffix to undo.
    best_pos: [u32; LANES],
    accepted: u64,
    rejected: u64,
    infeasible: u64,
}

impl PackedSoftwareState {
    /// Creates the packed state from exactly [`LANES`] feasible
    /// initial configurations (lane `k` starts at `initials[k]`).
    ///
    /// # Panics
    ///
    /// Panics if `initials.len() != LANES`, any length mismatches the
    /// problem, or any configuration is infeasible.
    pub fn new(problem: &InequalityQubo, initials: &[Assignment]) -> Self {
        assert_eq!(
            initials.len(),
            LANES,
            "packed state needs exactly {LANES} initial configurations, got {}",
            initials.len()
        );
        for (k, x) in initials.iter().enumerate() {
            assert!(
                problem.is_feasible(x),
                "lane {k} initial configuration must be feasible"
            );
        }
        let fields = PackedReplicaState::new(problem.objective(), initials);
        let loads: Vec<u64> = initials
            .iter()
            .map(|x| problem.constraint().load(x))
            .collect();
        // CSR-walk energies are bit-identical to the scalar states'
        // dense `objective_energy` (see `lane_energy`) at O(nnz) per
        // lane instead of O(n²).
        let energies: Vec<f64> = (0..LANES).map(|k| fields.lane_energy(k)).collect();
        let constraint = problem.constraint();
        let veto_free = constraint
            .weights()
            .iter()
            .try_fold(0u64, |acc, &w| acc.checked_add(w))
            .is_some_and(|total| total <= constraint.capacity());
        let best_planes = fields.planes().to_vec();
        Self {
            problem: problem.clone(),
            fields,
            best_energies: energies.clone(),
            loads,
            energies,
            best_planes,
            veto_free,
            commit_log: Vec::new(),
            best_pos: [0; LANES],
            accepted: 0,
            rejected: 0,
            infeasible: 0,
        }
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.fields.dim()
    }

    /// Lane `k`'s current tracked energy.
    pub fn energy(&self, k: usize) -> f64 {
        self.energies[k]
    }

    /// Lane `k`'s best energy so far.
    pub fn best_energy(&self, k: usize) -> f64 {
        self.best_energies[k]
    }

    /// Lane `k`'s best-so-far configuration.
    pub fn best_assignment(&self, k: usize) -> Assignment {
        Assignment::from_bits(self.best_planes.iter().map(|plane| (plane >> k) & 1 == 1))
    }

    /// Aggregate (accepted, Metropolis-rejected, vetoed) move counts
    /// across all lanes.
    fn counts(&self) -> (u64, u64, u64) {
        (self.accepted, self.rejected, self.infeasible)
    }

    /// Mean `|h_i|` over all variables and lanes of the *current*
    /// fields — the deterministic (RNG-free) energy-scale probe the
    /// packed engine calibrates its initial temperature from. Scalar
    /// twins can recompute it from the same initial configurations.
    pub fn mean_abs_field(&self) -> f64 {
        let n = self.dim();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = (0..n)
            .flat_map(|i| self.fields.fields_row(i).iter().map(|h| h.abs()))
            .sum();
        sum / (n * LANES) as f64
    }

    /// Runs one sequential sweep: proposes flipping each variable
    /// `i = 0..n` once in every lane. Every lane anneals at
    /// `temperature`; lane `k` consumes randomness only from `rngs[k]`
    /// (one uniform draw per uphill feasible probe — exactly the
    /// scalar reference's consumption). Accepting lanes of each
    /// variable are committed with one masked bitplane update.
    ///
    /// # Panics
    ///
    /// Panics unless `rngs` has [`LANES`] entries.
    fn sweep(&mut self, temperature: f64, rngs: &mut [StdRng]) {
        assert_eq!(rngs.len(), LANES, "need one RNG stream per lane");
        let rngs: &mut [StdRng; LANES] = rngs.try_into().expect("length asserted");
        let capacity = self.problem.constraint().capacity();
        let weights = self.problem.constraint().weights();
        let veto_free = self.veto_free;
        let (mut accepted, mut rejected, mut infeasible) = (0u64, 0u64, 0u64);
        let mut deltas = [0.0f64; LANES];
        let mut improved = 0u64;
        // Draw-skip threshold: an uphill `Δ ≥ 37.5·T` is rejected by
        // `metropolis_accept_sweep` *before* it draws (see
        // `DRAW_DOMINATED`), with the identical `mul` + `cmp`, so that
        // whole branch folds into the phase-1 mask. At `T ≤ 0` every
        // uphill move also rejects draw-free, and the threshold
        // `37.5·T ≤ 0` is below every uphill delta — same verdict.
        let threshold = crate::annealer::DRAW_DOMINATED * temperature;
        self.commit_log.clear();
        for (i, &w) in weights.iter().enumerate() {
            let word = self.fields.plane(i);
            // Phase 1 (branchless, vectorizable): all 64 lane deltas
            // and the downhill mask from one read of the field row.
            let row: &[f64; LANES] = self
                .fields
                .fields_row(i)
                .try_into()
                .expect("field rows span LANES");
            for (k, (d, h)) in deltas.iter_mut().zip(row).enumerate() {
                *d = if (word >> k) & 1 == 1 { -*h } else { *h };
            }
            let mut downhill = 0u64;
            let mut draw_free_reject = 0u64;
            for (k, d) in deltas.iter().enumerate() {
                downhill |= u64::from(*d <= 0.0) << k;
                draw_free_reject |= u64::from(*d >= threshold) << k;
            }
            // Inequality veto, skipped when `veto_free` proves the
            // filter can never fire. Consumes no randomness (scalar
            // parity: `probe_flip` returns `Infeasible` before any
            // draw).
            let mut vetoed = 0u64;
            if !veto_free && w != 0 {
                for (k, &load) in self.loads.iter().enumerate() {
                    let new_load = if (word >> k) & 1 == 1 {
                        load - w
                    } else {
                        load + w
                    };
                    vetoed |= u64::from(new_load > capacity) << k;
                }
            }
            // Phase 2: feasible downhill lanes accept outright without
            // touching their RNGs (exactly the shared test's
            // `delta <= 0` branch), draw-dominated uphill lanes reject
            // outright (its draw-skip branch); only the remaining
            // feasible uphill lanes run `metropolis_accept_sweep`,
            // each on its own stream, so lane order is free. In the
            // cold tail of a schedule this mask is almost always
            // empty, making frozen sweeps RNG- and branch-free.
            let mut commit_mask = downhill & !vetoed;
            let mut pending = !downhill & !draw_free_reject & !vetoed;
            while pending != 0 {
                let k = pending.trailing_zeros() as usize & (LANES - 1);
                pending &= pending - 1;
                if metropolis_accept_sweep(deltas[k], temperature, &mut rngs[k]) {
                    commit_mask |= 1u64 << k;
                }
            }
            infeasible += u64::from(vetoed.count_ones());
            let committed = u64::from(commit_mask.count_ones());
            accepted += committed;
            rejected += u64::from((!vetoed).count_ones()) - committed;
            // Phase 3: one masked bitplane commit, then per-accepted-
            // lane load/energy/best bookkeeping. Best snapshots are
            // deferred: only the improvement *position* is recorded.
            if commit_mask != 0 {
                self.fields.commit_masked(i, commit_mask);
                self.commit_log.push((i as u32, commit_mask));
                let mut m = commit_mask;
                while m != 0 {
                    let k = m.trailing_zeros() as usize & (LANES - 1);
                    m &= m - 1;
                    if w != 0 {
                        self.loads[k] = if (word >> k) & 1 == 1 {
                            self.loads[k] - w
                        } else {
                            self.loads[k] + w
                        };
                    }
                    self.energies[k] += deltas[k];
                    if self.energies[k] < self.best_energies[k] {
                        self.best_energies[k] = self.energies[k];
                        improved |= 1u64 << k;
                        self.best_pos[k] = self.commit_log.len() as u32;
                    }
                }
            }
        }
        // Materialize the deferred snapshots: copy each improving
        // lane's live bit column, then XOR-undo the commits made after
        // its last improvement (the suffix of the log).
        while improved != 0 {
            let k = improved.trailing_zeros() as usize & (LANES - 1);
            improved &= improved - 1;
            let bit = 1u64 << k;
            for (best, live) in self.best_planes.iter_mut().zip(self.fields.planes()) {
                *best = (*best & !bit) | (live & bit);
            }
            for &(i, mask) in &self.commit_log[self.best_pos[k] as usize..] {
                if mask & bit != 0 {
                    self.best_planes[i as usize] ^= bit;
                }
            }
        }
        self.accepted += accepted;
        self.rejected += rejected;
        self.infeasible += infeasible;
    }
}

/// Outcome of a packed multi-sweep run: per-lane bests and finals plus
/// aggregate move counts.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedRunOutcome {
    /// Lane `k`'s best energy.
    pub best_energies: Vec<f64>,
    /// Lane `k`'s best configuration.
    pub best_assignments: Vec<Assignment>,
    /// Lane `k`'s final tracked energy.
    pub final_energies: Vec<f64>,
    /// Accepted moves across all lanes.
    pub accepted: u64,
    /// Metropolis-rejected moves across all lanes.
    pub rejected: u64,
    /// Filter-vetoed moves across all lanes.
    pub infeasible: u64,
}

impl PackedRunOutcome {
    /// The lane with the lowest best energy (lowest index on ties).
    pub fn best_lane(&self) -> usize {
        let mut best = 0;
        for k in 1..self.best_energies.len() {
            if self.best_energies[k] < self.best_energies[best] {
                best = k;
            }
        }
        best
    }
}

/// Runs `sweeps` annealing sweeps from `state` (every lane cools on
/// the same per-sweep schedule) and returns the per-lane outcomes.
/// Lane `k` reads randomness only from `rngs[k]`; the run is
/// bit-identical to 64 [`run_replica_scalar`] calls on the state's
/// initial configurations, the same schedule, and the same RNG
/// streams.
///
/// # Panics
///
/// Panics unless `rngs` has [`LANES`] entries.
pub fn run_packed_sweeps(
    mut state: PackedSoftwareState,
    sweeps: usize,
    schedule: &SweepSchedule,
    rngs: &mut [StdRng],
) -> PackedRunOutcome {
    for sweep in 0..sweeps {
        state.sweep(schedule.temperature(sweep), rngs);
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

/// Outcome of one scalar reference replica.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaOutcome {
    /// Best energy seen.
    pub best_energy: f64,
    /// Configuration achieving it.
    pub best_assignment: Assignment,
    /// Final tracked energy.
    pub final_energy: f64,
    /// Accepted moves.
    pub accepted: u64,
    /// Metropolis-rejected moves.
    pub rejected: u64,
    /// Filter-vetoed moves.
    pub infeasible: u64,
}

/// The scalar twin of one packed lane: a sequential-sweep annealing
/// loop over a [`SoftwareState`] (maintained local fields), proposing
/// `i = 0..n` per sweep with the per-sweep temperature and the shared
/// [`metropolis_accept_sweep`]. This is the
/// reference side of the packed bit-identity law — *not* the
/// production [`Annealer`](crate::Annealer), which proposes randomly
/// and mixes in exchange moves.
///
/// # Panics
///
/// Panics if `initial` is infeasible or mismatches the problem.
pub fn run_replica_scalar(
    problem: &InequalityQubo,
    initial: Assignment,
    sweeps: usize,
    schedule: &SweepSchedule,
    rng: &mut StdRng,
) -> ReplicaOutcome {
    let mut state = SoftwareState::new(problem, initial);
    let n = state.dim();
    let mut best_energy = state.energy();
    let mut best_assignment = state.assignment().clone();
    let (mut accepted, mut rejected, mut infeasible) = (0u64, 0u64, 0u64);
    for sweep in 0..sweeps {
        let t = schedule.temperature(sweep);
        for i in 0..n {
            match state.probe_flip(i, rng).settled(&mut state) {
                None => infeasible += 1,
                Some(delta) => {
                    if metropolis_accept_sweep(delta, t, rng) {
                        state.commit_flip(i, delta);
                        accepted += 1;
                        if state.energy() < best_energy {
                            best_energy = state.energy();
                            best_assignment = state.assignment().clone();
                        }
                    } else {
                        rejected += 1;
                    }
                }
            }
        }
    }
    ReplicaOutcome {
        best_energy,
        best_assignment,
        final_energy: state.energy(),
        accepted,
        rejected,
        infeasible,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;
    use hycim_cop::maxcut::MaxCut;
    use hycim_cop::CopProblem;
    use rand::SeedableRng;

    fn lane_rngs(seed: u64) -> Vec<StdRng> {
        (0..LANES)
            .map(|k| StdRng::seed_from_u64(seed.wrapping_add(k as u64)))
            .collect()
    }

    fn lane_initials(problem: &InequalityQubo, seed: u64) -> Vec<Assignment> {
        let mut rngs = lane_rngs(seed);
        rngs.iter_mut()
            .map(|rng| CopProblem::initial(problem, rng))
            .collect()
    }

    #[test]
    fn packed_run_matches_64_scalar_replicas_bitwise() {
        for (name, iq) in [
            (
                "maxcut",
                CopProblem::to_inequality_qubo(&MaxCut::random(40, 0.15, 1)).unwrap(),
            ),
            (
                "qkp",
                QkpGenerator::new(30, 0.4)
                    .generate(2)
                    .to_inequality_qubo()
                    .unwrap(),
            ),
        ] {
            let initials = lane_initials(&iq, 10);
            let schedule = SweepSchedule::cooling_to(25.0, 0.01, 30);
            let mut rngs = lane_rngs(99);
            let state = PackedSoftwareState::new(&iq, &initials);
            let packed = run_packed_sweeps(state, 30, &schedule, &mut rngs);
            let (mut accepted, mut rejected, mut infeasible) = (0u64, 0u64, 0u64);
            for (k, initial) in initials.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(99u64.wrapping_add(k as u64));
                let scalar = run_replica_scalar(&iq, initial.clone(), 30, &schedule, &mut rng);
                assert_eq!(
                    packed.best_energies[k].to_bits(),
                    scalar.best_energy.to_bits(),
                    "{name}: lane {k} best energy diverged"
                );
                assert_eq!(
                    packed.best_assignments[k], scalar.best_assignment,
                    "{name}: lane {k} best assignment diverged"
                );
                assert_eq!(
                    packed.final_energies[k].to_bits(),
                    scalar.final_energy.to_bits(),
                    "{name}: lane {k} final energy diverged"
                );
                accepted += scalar.accepted;
                rejected += scalar.rejected;
                infeasible += scalar.infeasible;
            }
            assert_eq!(
                (packed.accepted, packed.rejected, packed.infeasible),
                (accepted, rejected, infeasible),
                "{name}: aggregate counts diverged"
            );
        }
    }

    #[test]
    fn packed_lanes_keep_caches_and_feasibility_consistent() {
        let iq = QkpGenerator::new(25, 0.5)
            .generate(3)
            .to_inequality_qubo()
            .unwrap();
        let initials = lane_initials(&iq, 4);
        let schedule = SweepSchedule::cooling_to(30.0, 0.05, 20);
        let mut rngs = lane_rngs(5);
        let mut state = PackedSoftwareState::new(&iq, &initials);
        for sweep in 0..20 {
            state.sweep(schedule.temperature(sweep), &mut rngs);
        }
        for k in 0..LANES {
            let x = state.fields.lane_assignment(k);
            assert!(iq.is_feasible(&x), "lane {k} walked infeasible");
            assert!(
                (state.energy(k) - iq.objective_energy(&x)).abs() < 1e-6,
                "lane {k} energy cache diverged"
            );
            assert_eq!(state.loads[k], iq.constraint().load(&x), "lane {k} load");
            assert!(iq.is_feasible(&state.best_assignment(k)));
            assert!(state.best_energy(k) <= state.energy(k) + 1e-12);
        }
    }

    #[test]
    fn sweep_schedule_cools_geometrically_to_the_end_fraction() {
        let s = SweepSchedule::cooling_to(100.0, 0.01, 50);
        assert_eq!(s.temperature(0), 100.0);
        let t_end = s.temperature(50);
        assert!((t_end - 1.0).abs() < 1e-9, "T(50) = {t_end}");
        assert!(s.alpha < 1.0 && s.alpha > 0.0);
    }

    #[test]
    fn best_lane_breaks_ties_low() {
        let outcome = PackedRunOutcome {
            best_energies: vec![-1.0, -3.0, -3.0, 0.0],
            best_assignments: vec![Assignment::zeros(1); 4],
            final_energies: vec![0.0; 4],
            accepted: 0,
            rejected: 0,
            infeasible: 0,
        };
        assert_eq!(outcome.best_lane(), 1);
    }
}
