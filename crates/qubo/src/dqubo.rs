//! The conventional **D-QUBO** transformation (paper Fig. 1(b),
//! Sec 2.1): embedding an inequality constraint `Σ wᵢxᵢ ≤ C` into the
//! objective as a quadratic penalty over auxiliary variables.
//!
//! The paper's baseline uses a *one-hot* auxiliary vector
//! `y ∈ {0,1}^C` and the penalty
//!
//! ```text
//! p₁(x, y) = α(1 − Σₖ yₖ)² + β(Σᵢ wᵢxᵢ − Σₖ k·yₖ)²
//! ```
//!
//! which expands the search space from `2ⁿ` to `2^(n+C)` and blows up
//! the largest matrix element to `O(βC²)` (Fig. 9(a)). A more compact
//! *binary* slack encoding (⌈log₂(C+1)⌉ auxiliaries) is provided as an
//! extension for ablation studies.

use std::fmt;

use crate::{Assignment, LinearConstraint, QuboError, QuboMatrix};

/// Auxiliary-variable encoding used by the D-QUBO transformation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum AuxEncoding {
    /// One-hot `y ∈ {0,1}^C` with value `Σ k·yₖ` (the paper's baseline,
    /// Fig. 1(b)). Adds `C` variables.
    #[default]
    OneHot,
    /// Binary slack `s = Σ 2ʲ·bⱼ` with `⌈log₂(C+1)⌉` bits and penalty
    /// `β(Σwᵢxᵢ + s − C)²`. Adds `⌈log₂(C+1)⌉` variables.
    Binary,
}

impl fmt::Display for AuxEncoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuxEncoding::OneHot => f.write_str("one-hot"),
            AuxEncoding::Binary => f.write_str("binary"),
        }
    }
}

/// Penalty coefficients `α`, `β` of the D-QUBO transformation.
///
/// The paper's evaluation sets both to 2 (Sec 4.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PenaltyWeights {
    /// Coefficient of the one-hot cardinality penalty `α(1 − Σyₖ)²`.
    pub alpha: f64,
    /// Coefficient of the load-matching penalty `β(Σwᵢxᵢ − Σk·yₖ)²`.
    pub beta: f64,
}

impl PenaltyWeights {
    /// The paper's setting `α = β = 2` (Sec 4.2).
    pub const PAPER: PenaltyWeights = PenaltyWeights {
        alpha: 2.0,
        beta: 2.0,
    };
}

impl Default for PenaltyWeights {
    fn default() -> Self {
        Self::PAPER
    }
}

/// A constrained problem transformed to an unconstrained QUBO over
/// `n + n_aux` variables (the baseline HyCiM is compared against).
///
/// # Example
///
/// ```
/// use hycim_qubo::dqubo::{AuxEncoding, DquboForm, PenaltyWeights};
/// use hycim_qubo::{LinearConstraint, QuboMatrix};
///
/// # fn main() -> Result<(), hycim_qubo::QuboError> {
/// let mut q = QuboMatrix::zeros(3);
/// q.set(0, 0, -10.0);
/// let c = LinearConstraint::new(vec![4, 7, 2], 9)?;
/// let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot)?;
/// assert_eq!(d.num_items(), 3);
/// assert_eq!(d.num_aux(), 9);      // one y_k per capacity unit
/// assert_eq!(d.dim(), 12);         // search space 2¹² instead of 2³
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DquboForm {
    matrix: QuboMatrix,
    n_items: usize,
    n_aux: usize,
    encoding: AuxEncoding,
    weights: PenaltyWeights,
    constraint: LinearConstraint,
    /// Constant energy offset dropped from the penalty expansion.
    offset: f64,
}

impl DquboForm {
    /// Transforms `min xᵀQx  s.t.  Σwᵢxᵢ ≤ C` into an unconstrained
    /// QUBO with penalty terms (paper Fig. 1(b)).
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::DimensionMismatch`] if `objective` and
    /// `constraint` disagree on the variable count.
    pub fn transform(
        objective: &QuboMatrix,
        constraint: &LinearConstraint,
        weights: PenaltyWeights,
        encoding: AuxEncoding,
    ) -> Result<Self, QuboError> {
        let n = objective.dim();
        if n != constraint.dim() {
            return Err(QuboError::DimensionMismatch {
                expected: n,
                found: constraint.dim(),
            });
        }
        match encoding {
            AuxEncoding::OneHot => Self::transform_one_hot(objective, constraint, weights),
            AuxEncoding::Binary => Self::transform_binary(objective, constraint, weights),
        }
    }

    /// One-hot encoding per the paper:
    /// `p₁ = α(1 − Σyₖ)² + β(Σwᵢxᵢ − Σk·yₖ)²`, `k = 1..=C`.
    // Indices couple `w` to the (i, j) matrix entries being written;
    // the indexed form mirrors the β(A − B)² expansion as written.
    #[allow(clippy::needless_range_loop)]
    fn transform_one_hot(
        objective: &QuboMatrix,
        constraint: &LinearConstraint,
        pw: PenaltyWeights,
    ) -> Result<Self, QuboError> {
        let n = objective.dim();
        let c = constraint.capacity() as usize;
        let dim = n + c;
        let w = constraint.weights();
        let (alpha, beta) = (pw.alpha, pw.beta);

        let mut q = objective.embedded(dim);

        // α(1 − Σy)² = α − 2αΣyₖ + αΣyₖ + 2αΣ_{k<l} yₖyₗ
        //            = α − αΣyₖ + 2αΣ_{k<l} yₖyₗ      (yₖ² = yₖ)
        for k in 0..c {
            q.add(n + k, n + k, -alpha);
            for l in (k + 1)..c {
                q.add(n + k, n + l, 2.0 * alpha);
            }
        }

        // β(A − B)² with A = Σwᵢxᵢ, B = Σ k·yₖ (value of aux slot k is k+1).
        for i in 0..n {
            let wi = w[i] as f64;
            // A² diagonal: β wᵢ² xᵢ.
            q.add(i, i, beta * wi * wi);
            // A² off-diagonal: 2β wᵢwⱼ xᵢxⱼ.
            for j in (i + 1)..n {
                let wj = w[j] as f64;
                if wi != 0.0 && wj != 0.0 {
                    q.add(i, j, 2.0 * beta * wi * wj);
                }
            }
            // −2AB cross terms: −2β wᵢ k xᵢ yₖ.
            for k in 0..c {
                let kv = (k + 1) as f64;
                q.add(i, n + k, -2.0 * beta * wi * kv);
            }
        }
        for k in 0..c {
            let kv = (k + 1) as f64;
            // B² diagonal: β k² yₖ.
            q.add(n + k, n + k, beta * kv * kv);
            // B² off-diagonal: 2β k·l yₖyₗ.
            for l in (k + 1)..c {
                let lv = (l + 1) as f64;
                q.add(n + k, n + l, 2.0 * beta * kv * lv);
            }
        }

        Ok(Self {
            matrix: q,
            n_items: n,
            n_aux: c,
            encoding: AuxEncoding::OneHot,
            weights: pw,
            constraint: constraint.clone(),
            offset: alpha,
        })
    }

    /// Binary slack encoding (extension):
    /// `p = β(Σwᵢxᵢ + Σ 2ʲbⱼ − C)²` with `⌈log₂(C+1)⌉` slack bits.
    fn transform_binary(
        objective: &QuboMatrix,
        constraint: &LinearConstraint,
        pw: PenaltyWeights,
    ) -> Result<Self, QuboError> {
        let n = objective.dim();
        let cap = constraint.capacity();
        let bits = (u64::BITS - cap.leading_zeros()) as usize; // ⌈log₂(C+1)⌉
        let dim = n + bits;
        let w = constraint.weights();
        let beta = pw.beta;

        let mut q = objective.embedded(dim);

        // Terms of β(A + S − C)² where A = Σwᵢxᵢ, S = Σ2ʲbⱼ:
        //   β(A² + S² + C² + 2AS − 2AC − 2SC)
        // Coefficient helper: value of variable v in the linear form.
        let coeff = |v: usize| -> f64 {
            if v < n {
                w[v] as f64
            } else {
                (1u64 << (v - n)) as f64
            }
        };
        let c = cap as f64;
        for a in 0..dim {
            let ca = coeff(a);
            if ca == 0.0 {
                continue;
            }
            // Squared + linear-in-C part: β(ca² − 2·ca·C)·v  (v² = v).
            q.add(a, a, beta * (ca * ca - 2.0 * ca * c));
            for b in (a + 1)..dim {
                let cb = coeff(b);
                if cb != 0.0 {
                    q.add(a, b, 2.0 * beta * ca * cb);
                }
            }
        }

        Ok(Self {
            matrix: q,
            n_items: n,
            n_aux: bits,
            encoding: AuxEncoding::Binary,
            weights: pw,
            constraint: constraint.clone(),
            offset: beta * c * c,
        })
    }

    /// The expanded QUBO matrix over `n + n_aux` variables.
    pub fn matrix(&self) -> &QuboMatrix {
        &self.matrix
    }

    /// Number of original item variables `n`.
    pub fn num_items(&self) -> usize {
        self.n_items
    }

    /// Number of auxiliary variables added by the encoding.
    pub fn num_aux(&self) -> usize {
        self.n_aux
    }

    /// Total QUBO dimension `n + n_aux` (paper Fig. 9(b)).
    pub fn dim(&self) -> usize {
        self.n_items + self.n_aux
    }

    /// Encoding in use.
    pub fn encoding(&self) -> AuxEncoding {
        self.encoding
    }

    /// The original constraint the penalty encodes.
    pub fn constraint(&self) -> &LinearConstraint {
        &self.constraint
    }

    /// Constant offset dropped during the penalty expansion: the full
    /// D-QUBO energy is `matrix.energy(z) + offset`.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Full D-QUBO energy including the constant offset.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn energy(&self, z: &Assignment) -> f64 {
        self.matrix.energy(z) + self.offset
    }

    /// Penalty value `p₁(x, y)` alone (energy minus the original
    /// objective on the item part). Zero iff the auxiliaries certify a
    /// satisfied constraint.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn penalty(&self, z: &Assignment, original: &QuboMatrix) -> f64 {
        let x = z.truncated(self.n_items);
        self.energy(z) - original.energy(&x)
    }

    /// Extracts the item part `x` of an extended configuration.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn decode(&self, z: &Assignment) -> Assignment {
        assert_eq!(z.len(), self.dim(), "configuration length mismatch");
        z.truncated(self.n_items)
    }

    /// Lifts an item configuration to the extended space, choosing the
    /// penalty-minimizing auxiliary assignment for the current load.
    ///
    /// For one-hot: sets `y_load = 1` when `1 ≤ load ≤ C` (zero load
    /// keeps all `yₖ = 0`, incurring the inherent `α` penalty of the
    /// paper's encoding). For binary: sets the slack bits to
    /// `min(C − load, C)` when feasible, else all zero.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_items()`.
    pub fn lift(&self, x: &Assignment) -> Assignment {
        assert_eq!(x.len(), self.n_items, "item configuration length mismatch");
        let load = self.constraint.load(x);
        let mut z = x.extended(self.n_aux);
        match self.encoding {
            AuxEncoding::OneHot => {
                if load >= 1 && load <= self.constraint.capacity() {
                    z.set(self.n_items + (load as usize - 1), true);
                }
            }
            AuxEncoding::Binary => {
                if load <= self.constraint.capacity() {
                    let slack = self.constraint.capacity() - load;
                    for j in 0..self.n_aux {
                        if slack >> j & 1 == 1 {
                            z.set(self.n_items + j, true);
                        }
                    }
                }
            }
        }
        z
    }
}

impl fmt::Display for DquboForm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DquboForm({} encoding, n={}+{}, (Q)MAX={:.3e})",
            self.encoding,
            self.n_items,
            self.n_aux,
            self.matrix.max_abs_element()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> (QuboMatrix, LinearConstraint) {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -10.0);
        q.set(1, 1, -6.0);
        q.set(2, 2, -8.0);
        q.set(0, 2, -14.0);
        let c = LinearConstraint::new(vec![4, 7, 2], 9).unwrap();
        (q, c)
    }

    /// Brute-force reference implementation of the paper's penalty
    /// p₁(x,y) = α(1−Σy)² + β(Σwx − Σky)².
    fn reference_one_hot_energy(
        q: &QuboMatrix,
        c: &LinearConstraint,
        pw: PenaltyWeights,
        z: &Assignment,
    ) -> f64 {
        let n = q.dim();
        let x = z.truncated(n);
        let sum_y: f64 = (n..z.len()).map(|k| if z.get(k) { 1.0 } else { 0.0 }).sum();
        let sum_ky: f64 = (n..z.len())
            .map(|k| if z.get(k) { (k - n + 1) as f64 } else { 0.0 })
            .sum();
        let load = c.load(&x) as f64;
        q.energy(&x) + pw.alpha * (1.0 - sum_y).powi(2) + pw.beta * (load - sum_ky).powi(2)
    }

    #[test]
    fn one_hot_matches_reference_formula() {
        let (q, c) = small_problem();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot).unwrap();
        assert_eq!(d.dim(), 12);
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let z = Assignment::random(12, &mut rng);
            let expected = reference_one_hot_energy(&q, &c, PenaltyWeights::PAPER, &z);
            assert!(
                (d.energy(&z) - expected).abs() < 1e-9,
                "energy mismatch for {z}: got {}, want {expected}",
                d.energy(&z)
            );
        }
    }

    #[test]
    fn feasible_lift_has_zero_penalty() {
        let (q, c) = small_problem();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot).unwrap();
        // x = {items 0, 2}: load 6, feasible, nonzero.
        let x = Assignment::from_bits([true, false, true]);
        let z = d.lift(&x);
        assert!((d.penalty(&z, &q)).abs() < 1e-9);
        assert_eq!(d.decode(&z), x);
    }

    #[test]
    fn infeasible_configuration_is_penalized() {
        let (q, c) = small_problem();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot).unwrap();
        // x = all items: load 13 > 9. No aux assignment reaches zero
        // penalty. Note the structural weakness of the paper's one-hot
        // encoding with small α: a *multi-hot* y (e.g. y₄ + y₉ = 13)
        // matches the load and pays only α(1−2)² = α — far cheaper than
        // the honest one-hot penalty β(13−9)². This is precisely why
        // D-QUBO SA gets trapped in infeasible configurations (Fig. 10).
        let x = Assignment::ones_vec(3);
        let mut best = f64::INFINITY;
        for ybits in 0u32..(1 << 9) {
            let mut z = x.extended(9);
            for k in 0..9 {
                if ybits >> k & 1 == 1 {
                    z.set(3 + k, true);
                }
            }
            best = best.min(d.penalty(&z, &q));
        }
        assert!(best > 0.0, "infeasible x reached zero penalty");
        assert!(
            (best - PenaltyWeights::PAPER.alpha).abs() < 1e-9,
            "cheapest cheat should cost exactly α, got {best}"
        );
    }

    #[test]
    fn binary_encoding_matches_reference() {
        let (q, c) = small_problem();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::Binary).unwrap();
        // ⌈log₂(9+1)⌉ = 4 slack bits.
        assert_eq!(d.num_aux(), 4);
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..200 {
            let z = Assignment::random(7, &mut rng);
            let x = z.truncated(3);
            let slack: u64 = (0..4).map(|j| if z.get(3 + j) { 1 << j } else { 0 }).sum();
            let expected = q.energy(&x) + 2.0 * ((c.load(&x) as f64) + slack as f64 - 9.0).powi(2);
            assert!((d.energy(&z) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn binary_lift_is_penalty_free_when_feasible() {
        let (q, c) = small_problem();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::Binary).unwrap();
        for bits in 0u32..8 {
            let x = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1));
            let z = d.lift(&x);
            if c.is_satisfied(&x) {
                assert!((d.penalty(&z, &q)).abs() < 1e-9, "penalty for feasible {x}");
            } else {
                assert!(d.penalty(&z, &q) > 0.0, "no penalty for infeasible {x}");
            }
        }
    }

    #[test]
    fn one_hot_qij_max_scales_with_capacity_squared() {
        // The claim behind paper Fig. 9(a): (Q_ij)MAX ≈ 2βC(C−1) for
        // the y-pair terms, 4–7 orders of magnitude above the original.
        let (q, _) = small_problem();
        let c = LinearConstraint::new(vec![4, 7, 2], 100).unwrap();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot).unwrap();
        let expected = 2.0 * 2.0 * 100.0 * 99.0 + 2.0 * 2.0; // 2βkl + 2α at k=99,l=100
        assert_eq!(d.matrix().max_abs_element(), expected);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let q = QuboMatrix::zeros(2);
        let c = LinearConstraint::new(vec![1, 2, 3], 4).unwrap();
        assert!(DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot).is_err());
    }

    #[test]
    fn display_mentions_encoding() {
        let (q, c) = small_problem();
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot).unwrap();
        assert!(d.to_string().contains("one-hot"));
    }
}
