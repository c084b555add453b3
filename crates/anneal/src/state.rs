use hycim_qubo::dqubo::DquboForm;
use hycim_qubo::{Assignment, InequalityQubo, LocalFieldState};
use rand::rngs::StdRng;

/// Result of probing a single-bit flip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlipOutcome {
    /// The flipped configuration was vetoed by the feasibility check
    /// (HyCiM's inequality filter, paper Fig. 3): the SA logic moves to
    /// the next iteration without an energy computation.
    Infeasible,
    /// The flip is admissible; `delta` is the (possibly noisy) energy
    /// change the hardware reported.
    Feasible {
        /// Energy change `E(x·flip) − E(x)`.
        delta: f64,
    },
    /// The flip is admissible and certainly uphill: its noise draw is
    /// taken, but the reported energy change — at least `floor` — is
    /// computed only by [`AnnealState::settle`], which a Metropolis
    /// test calls when `floor` cannot decide it.
    Uphill {
        /// A lower bound, above zero, on the energy change the probe
        /// reports once settled.
        floor: f64,
    },
}

impl FlipOutcome {
    /// The energy change of an admissible probe, settling an
    /// [`Uphill`](Self::Uphill) one through `state` (the state that
    /// produced it); `None` for an infeasible probe.
    pub fn settled<S: AnnealState + ?Sized>(self, state: &mut S) -> Option<f64> {
        match self {
            Self::Infeasible => None,
            Self::Feasible { delta } => Some(delta),
            Self::Uphill { .. } => Some(state.settle()),
        }
    }
}

/// The problem-side contract of the SA loop: a current configuration
/// with incremental flip probing.
///
/// Implementations keep whatever caches they need (current load for
/// the filter, maintained local fields, current energy) so that
/// [`probe_flip`] runs in O(1) and [`commit_flip`] in O(n)
/// rather than O(n²) — matching the one-shot evaluation cadence of
/// the CiM hardware. See
/// [`hycim_qubo::local_field`] for the field-maintenance scheme and
/// its drift/refresh story.
///
/// [`probe_flip`]: AnnealState::probe_flip
/// [`commit_flip`]: AnnealState::commit_flip
pub trait AnnealState {
    /// Number of binary variables.
    fn dim(&self) -> usize;

    /// Current configuration.
    fn assignment(&self) -> &Assignment;

    /// Current (tracked) energy.
    fn energy(&self) -> f64;

    /// Probes flipping bit `i` without committing. The RNG feeds any
    /// hardware noise models; a probe takes all of its draws, even when
    /// it defers its energy change as [`FlipOutcome::Uphill`].
    fn probe_flip(&mut self, i: usize, rng: &mut StdRng) -> FlipOutcome;

    /// The energy change of the most recent probe, which returned
    /// [`FlipOutcome::Uphill`]: exactly the `delta` it would otherwise
    /// have reported as [`FlipOutcome::Feasible`].
    ///
    /// # Panics
    ///
    /// The default panics: states whose probes never return `Uphill`
    /// need not implement it.
    fn settle(&mut self) -> f64 {
        panic!("settle() needs a probe that returned FlipOutcome::Uphill")
    }

    /// Commits the most recently probed flip of bit `i`, updating the
    /// internal caches. `delta` must be the value returned by the
    /// matching [`probe_flip`](Self::probe_flip) (or its
    /// [`settle`](Self::settle)).
    fn commit_flip(&mut self, i: usize, delta: f64);

    /// Probes flipping bits `i` and `j` together (one SA move — the
    /// exchange neighborhood that lets a knapsack SA swap an item out
    /// for a better one without an uphill intermediate).
    ///
    /// # Panics
    ///
    /// Implementations may panic if `i == j`.
    fn probe_pair(&mut self, i: usize, j: usize, rng: &mut StdRng) -> FlipOutcome;

    /// Commits the most recently probed pair flip of `i` and `j`.
    fn commit_pair(&mut self, i: usize, j: usize, delta: f64);

    /// Re-verifies the *current* configuration before the SA logic
    /// records it as the reserved best solution `x_o` (paper
    /// Fig. 6(b): accepted solutions pass through the inequality
    /// evaluation again). Hardware states re-run the filter here so a
    /// rare noisy false-feasible admission cannot survive as the
    /// final answer; exact states return `true`.
    fn verify_best(&mut self, _rng: &mut StdRng) -> bool {
        true
    }
}

/// Exact software evaluation of the paper's inequality-QUBO form: the
/// constraint is checked with integer arithmetic and energies carry no
/// hardware noise. This is the noise-free reference the hardware
/// pipelines are validated against.
#[derive(Debug, Clone)]
pub struct SoftwareState {
    problem: InequalityQubo,
    x: Assignment,
    load: u64,
    energy: f64,
    fields: LocalFieldState,
}

impl SoftwareState {
    /// Creates a state at `initial`, which must satisfy the constraint.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` mismatches the problem or `initial`
    /// is infeasible (the paper's SA starts from filtered
    /// configurations).
    pub fn new(problem: &InequalityQubo, initial: Assignment) -> Self {
        assert!(
            problem.is_feasible(&initial),
            "initial configuration must be feasible"
        );
        let load = problem.constraint().load(&initial);
        let energy = problem.objective_energy(&initial);
        let fields = LocalFieldState::new(problem.objective(), &initial);
        Self {
            problem: problem.clone(),
            x: initial,
            load,
            energy,
            fields,
        }
    }

    /// Current constraint load `Σwᵢxᵢ`.
    pub fn load(&self) -> u64 {
        self.load
    }

    /// The underlying problem.
    pub fn problem(&self) -> &InequalityQubo {
        &self.problem
    }
}

impl AnnealState for SoftwareState {
    fn dim(&self) -> usize {
        self.problem.dim()
    }

    fn assignment(&self) -> &Assignment {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn probe_flip(&mut self, i: usize, _rng: &mut StdRng) -> FlipOutcome {
        let w = self.problem.constraint().weights()[i];
        let new_load = if self.x.get(i) {
            self.load - w
        } else {
            self.load + w
        };
        if new_load > self.problem.constraint().capacity() {
            return FlipOutcome::Infeasible;
        }
        FlipOutcome::Feasible {
            delta: self.fields.flip_delta(&self.x, i),
        }
    }

    fn commit_flip(&mut self, i: usize, delta: f64) {
        let w = self.problem.constraint().weights()[i];
        if self.x.flip(i) {
            self.load += w;
        } else {
            self.load -= w;
        }
        self.fields.commit_flip(&self.x, i);
        self.energy += delta;
    }

    fn probe_pair(&mut self, i: usize, j: usize, _rng: &mut StdRng) -> FlipOutcome {
        assert_ne!(i, j, "pair flip needs two distinct bits");
        let w = self.problem.constraint().weights();
        let signed = |on: bool, weight: u64| {
            if on {
                -(weight as i64)
            } else {
                weight as i64
            }
        };
        let new_load = self.load as i64 + signed(self.x.get(i), w[i]) + signed(self.x.get(j), w[j]);
        debug_assert!(new_load >= 0);
        if new_load as u64 > self.problem.constraint().capacity() {
            return FlipOutcome::Infeasible;
        }
        FlipOutcome::Feasible {
            delta: self.fields.pair_delta(&self.x, i, j),
        }
    }

    fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
        let w = self.problem.constraint().weights();
        for (bit, weight) in [(i, w[i]), (j, w[j])] {
            if self.x.flip(bit) {
                self.load += weight;
            } else {
                self.load -= weight;
            }
        }
        self.fields.commit_pair(&self.x, i, j);
        self.energy += delta;
    }
}

/// Exact software evaluation of the D-QUBO (penalty) form: every flip
/// is admissible — there is no filter — and constraint violations only
/// appear as penalty energy, which is exactly how the baseline gets
/// trapped in infeasible regions (paper Fig. 10).
#[derive(Debug, Clone)]
pub struct PenaltyState {
    form: DquboForm,
    x: Assignment,
    energy: f64,
    fields: LocalFieldState,
}

impl PenaltyState {
    /// Creates a state at `initial` over the extended `n + n_aux`
    /// variable space.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len() != form.dim()`.
    pub fn new(form: &DquboForm, initial: Assignment) -> Self {
        assert_eq!(initial.len(), form.dim(), "configuration length mismatch");
        let energy = form.energy(&initial);
        let fields = LocalFieldState::new(form.matrix(), &initial);
        Self {
            form: form.clone(),
            x: initial,
            energy,
            fields,
        }
    }

    /// The underlying D-QUBO form.
    pub fn form(&self) -> &DquboForm {
        &self.form
    }
}

impl AnnealState for PenaltyState {
    fn dim(&self) -> usize {
        self.form.dim()
    }

    fn assignment(&self) -> &Assignment {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn probe_flip(&mut self, i: usize, _rng: &mut StdRng) -> FlipOutcome {
        FlipOutcome::Feasible {
            delta: self.fields.flip_delta(&self.x, i),
        }
    }

    fn commit_flip(&mut self, i: usize, delta: f64) {
        self.x.flip(i);
        self.fields.commit_flip(&self.x, i);
        self.energy += delta;
    }

    fn probe_pair(&mut self, i: usize, j: usize, _rng: &mut StdRng) -> FlipOutcome {
        assert_ne!(i, j, "pair flip needs two distinct bits");
        FlipOutcome::Feasible {
            delta: self.fields.pair_delta(&self.x, i, j),
        }
    }

    fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
        self.x.flip(i);
        self.x.flip(j);
        self.fields.commit_pair(&self.x, i, j);
        self.energy += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
    use hycim_qubo::{LinearConstraint, QuboMatrix};
    use rand::{Rng, SeedableRng};

    fn fig7e() -> InequalityQubo {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -10.0);
        q.set(1, 1, -6.0);
        q.set(2, 2, -8.0);
        q.set(0, 1, -6.0);
        q.set(0, 2, -14.0);
        q.set(1, 2, -4.0);
        InequalityQubo::new(q, LinearConstraint::new(vec![4, 7, 2], 9).unwrap()).unwrap()
    }

    #[test]
    fn software_state_tracks_energy_and_load() {
        let iq = fig7e();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(state.energy(), 0.0);
        // Flip item 0 in.
        match state.probe_flip(0, &mut rng).settled(&mut state) {
            Some(delta) => {
                assert_eq!(delta, -10.0);
                state.commit_flip(0, delta);
            }
            None => panic!("item 0 alone is feasible"),
        }
        assert_eq!(state.load(), 4);
        assert_eq!(state.energy(), -10.0);
        assert_eq!(
            state.energy(),
            iq.objective_energy(state.assignment()),
            "tracked energy diverged"
        );
    }

    #[test]
    fn software_state_vetoes_infeasible_flips() {
        let iq = fig7e();
        // Start with items 0 and 2 (load 6); adding item 1 (w=7) → 13 > 9.
        let mut state = SoftwareState::new(&iq, Assignment::from_bits([true, false, true]));
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(state.probe_flip(1, &mut rng), FlipOutcome::Infeasible);
        // Removing item 0 is always feasible.
        assert!(matches!(
            state.probe_flip(0, &mut rng),
            FlipOutcome::Feasible { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "feasible")]
    fn software_state_rejects_infeasible_start() {
        let iq = fig7e();
        let _ = SoftwareState::new(&iq, Assignment::ones_vec(3));
    }

    #[test]
    fn random_walk_keeps_caches_consistent() {
        let iq = fig7e();
        let mut state = SoftwareState::new(&iq, Assignment::zeros(3));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..500 {
            let i = rng.random_range(0..3);
            if let Some(delta) = state.probe_flip(i, &mut rng).settled(&mut state) {
                state.commit_flip(i, delta);
                let expected = iq.objective_energy(state.assignment());
                assert!(
                    (state.energy() - expected).abs() < 1e-9,
                    "energy cache diverged"
                );
                assert_eq!(state.load(), iq.constraint().load(state.assignment()));
                assert!(iq.is_feasible(state.assignment()));
            }
        }
    }

    #[test]
    fn penalty_state_allows_infeasible_moves() {
        let iq = fig7e();
        let form = DquboForm::transform(
            iq.objective(),
            iq.constraint(),
            PenaltyWeights::PAPER,
            AuxEncoding::OneHot,
        )
        .unwrap();
        let mut state = PenaltyState::new(&form, Assignment::zeros(form.dim()));
        let mut rng = StdRng::seed_from_u64(4);
        // Walk into an infeasible region freely: flip all three items in.
        for i in 0..3 {
            match state.probe_flip(i, &mut rng).settled(&mut state) {
                Some(delta) => state.commit_flip(i, delta),
                None => panic!("penalty state never vetoes"),
            }
        }
        let x = form.decode(state.assignment());
        assert!(!iq.is_feasible(&x), "walked into infeasible region");
        // Energy matches the exact form evaluation.
        assert!((state.energy() - form.energy(state.assignment())).abs() < 1e-9);
    }
}
