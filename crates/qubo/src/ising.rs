use crate::{Assignment, QuboError, QuboMatrix};

/// An Ising model `H(σ) = Σ_{i<j} J_ij σᵢσⱼ + Σ hᵢσᵢ` with
/// `σᵢ ∈ {−1, +1}` (paper Eq. 1).
///
/// QUBO and Ising forms are equivalent through `σᵢ = 1 − 2xᵢ`
/// (paper Sec 2.1); the conversions here preserve energies up to the
/// recorded constant [`offset`](IsingModel::offset).
///
/// # Example
///
/// ```
/// use hycim_qubo::{Assignment, IsingModel, QuboMatrix};
///
/// let mut q = QuboMatrix::zeros(2);
/// q.set(0, 0, 1.0);
/// q.set(0, 1, -2.0);
/// let ising = IsingModel::from_qubo(&q);
/// let x = Assignment::from_bits([true, false]);
/// let e_qubo = q.energy(&x);
/// let e_ising = ising.energy_of_assignment(&x);
/// assert!((e_qubo - e_ising).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IsingModel {
    n: usize,
    /// Couplings J_ij stored for i < j, row-major upper triangle
    /// (diagonal excluded: σᵢ² = 1 contributes only to the offset).
    couplings: Vec<f64>,
    /// Self-couplings (local fields) hᵢ.
    fields: Vec<f64>,
    /// Constant energy offset relative to the originating QUBO form.
    offset: f64,
}

impl IsingModel {
    /// Creates a zero Ising model of `n` spins.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            couplings: vec![0.0; n.saturating_sub(1) * n / 2],
            fields: vec![0.0; n],
            offset: 0.0,
        }
    }

    fn pair_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j && j < self.n);
        i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Number of spins.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Constant energy offset carried over from QUBO conversion.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Coupling `J_ij` (order-insensitive; zero for `i == j`).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        if i == j {
            return 0.0;
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.couplings[self.pair_index(a, b)]
    }

    /// Sets the coupling `J_ij`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or `i == j` (self-couplings
    /// are fields).
    pub fn set_coupling(&mut self, i: usize, j: usize, value: f64) {
        assert!(i < self.n && j < self.n, "index out of bounds");
        assert_ne!(i, j, "diagonal couplings are fields");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let idx = self.pair_index(a, b);
        self.couplings[idx] = value;
    }

    /// Local field `hᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn field(&self, i: usize) -> f64 {
        self.fields[i]
    }

    /// Ising energy of a spin configuration `σ ∈ {−1, +1}ⁿ`, including
    /// the offset.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.dim()` or any spin is not `±1`.
    pub fn energy(&self, spins: &[i8]) -> f64 {
        assert_eq!(spins.len(), self.n, "spin count mismatch");
        assert!(
            spins.iter().all(|&s| s == 1 || s == -1),
            "spins must be +1 or -1"
        );
        let mut e = self.offset;
        for i in 0..self.n {
            e += self.fields[i] * f64::from(spins[i]);
            for j in (i + 1)..self.n {
                e += self.couplings[self.pair_index(i, j)]
                    * f64::from(spins[i])
                    * f64::from(spins[j]);
            }
        }
        e
    }

    /// Ising energy of a binary assignment via `σᵢ = 1 − 2xᵢ`.
    ///
    /// Equals the QUBO energy of the originating matrix exactly.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn energy_of_assignment(&self, x: &Assignment) -> f64 {
        let spins: Vec<i8> = x.iter().map(|b| if b { -1 } else { 1 }).collect();
        self.energy(&spins)
    }

    /// Converts a QUBO matrix into the equivalent Ising model.
    ///
    /// Uses `xᵢ = (1 − σᵢ)/2`, so
    /// `J_ij = Q_ij/4`, `hᵢ = −(Q_ii + Σ_{j≠i} Q_ij/2)/2`, with the
    /// remaining constant absorbed into [`offset`](Self::offset).
    pub fn from_qubo(q: &QuboMatrix) -> Self {
        let n = q.dim();
        let mut ising = IsingModel::zeros(n);
        let mut offset = 0.0;
        for (i, j, v) in q.iter_nonzero() {
            if i == j {
                // Q_ii x_i = Q_ii (1-σ)/2
                ising.fields[i] -= v / 2.0;
                offset += v / 2.0;
            } else {
                // Q_ij x_i x_j = Q_ij (1-σi)(1-σj)/4
                let idx = ising.pair_index(i, j);
                ising.couplings[idx] += v / 4.0;
                ising.fields[i] -= v / 4.0;
                ising.fields[j] -= v / 4.0;
                offset += v / 4.0;
            }
        }
        ising.offset = offset;
        ising
    }

    /// Converts this Ising model back to a QUBO matrix, discarding the
    /// offset (returned separately).
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::EmptyProblem`] for zero-spin models.
    pub fn to_qubo(&self) -> Result<(QuboMatrix, f64), QuboError> {
        if self.n == 0 {
            return Err(QuboError::EmptyProblem);
        }
        // σᵢ = 1 − 2xᵢ: J σᵢσⱼ = J(1-2xᵢ)(1-2xⱼ) = J - 2Jxᵢ - 2Jxⱼ + 4Jxᵢxⱼ
        //               h σᵢ   = h − 2hxᵢ
        let mut q = QuboMatrix::zeros(self.n);
        let mut constant = self.offset;
        for i in 0..self.n {
            q.add(i, i, -2.0 * self.fields[i]);
            constant += self.fields[i];
            for j in (i + 1)..self.n {
                let jij = self.couplings[self.pair_index(i, j)];
                if jij != 0.0 {
                    q.add(i, j, 4.0 * jij);
                    q.add(i, i, -2.0 * jij);
                    q.add(j, j, -2.0 * jij);
                    constant += jij;
                }
            }
        }
        Ok((q, constant))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_qubo(n: usize, seed: u64) -> QuboMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                if rng.random_bool(0.7) {
                    q.set(i, j, rng.random_range(-5.0..5.0));
                }
            }
        }
        q
    }

    #[test]
    fn qubo_to_ising_preserves_energy() {
        let q = random_qubo(7, 21);
        let ising = IsingModel::from_qubo(&q);
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..30 {
            let x = Assignment::random(7, &mut rng);
            assert!(
                (q.energy(&x) - ising.energy_of_assignment(&x)).abs() < 1e-9,
                "energy mismatch for {x}"
            );
        }
    }

    #[test]
    fn ising_roundtrip_preserves_energy() {
        let q = random_qubo(6, 33);
        let ising = IsingModel::from_qubo(&q);
        let (q2, constant) = ising.to_qubo().unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..30 {
            let x = Assignment::random(6, &mut rng);
            assert!(
                (q.energy(&x) - (q2.energy(&x) + constant)).abs() < 1e-9,
                "roundtrip mismatch"
            );
        }
    }

    #[test]
    fn spin_energy_definition() {
        let mut ising = IsingModel::zeros(2);
        ising.set_coupling(0, 1, 2.0);
        ising.fields[0] = -1.0;
        // σ = (+1, −1): E = 2·(+1)(−1) + (−1)(+1) = −3
        assert_eq!(ising.energy(&[1, -1]), -3.0);
    }

    #[test]
    #[should_panic(expected = "spins must be")]
    fn rejects_invalid_spin() {
        let ising = IsingModel::zeros(1);
        let _ = ising.energy(&[0]);
    }

    #[test]
    #[should_panic(expected = "fields")]
    fn rejects_diagonal_coupling() {
        let mut ising = IsingModel::zeros(2);
        ising.set_coupling(1, 1, 1.0);
    }

    #[test]
    fn empty_model_to_qubo_errs() {
        let ising = IsingModel::zeros(0);
        assert!(matches!(ising.to_qubo(), Err(QuboError::EmptyProblem)));
    }

    #[test]
    fn coupling_accessors_are_order_insensitive() {
        let mut ising = IsingModel::zeros(3);
        ising.set_coupling(2, 0, 1.25);
        assert_eq!(ising.coupling(0, 2), 1.25);
        assert_eq!(ising.coupling(2, 0), 1.25);
        assert_eq!(ising.coupling(1, 1), 0.0);
    }
}
