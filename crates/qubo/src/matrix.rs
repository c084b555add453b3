use std::fmt;

use crate::{Assignment, QuboError};

/// An `n × n` QUBO matrix with energy `E(x) = xᵀQx` (paper Eq. 2).
///
/// The matrix is stored in upper-triangular form: setting an
/// off-diagonal pair `(i, j)` and `(j, i)` separately accumulates into
/// the single canonical coefficient for the product `xᵢxⱼ` (binary
/// variables satisfy `xᵢ² = xᵢ`, so the diagonal carries the linear
/// terms).
///
/// # Example
///
/// ```
/// use hycim_qubo::{Assignment, QuboMatrix};
///
/// let mut q = QuboMatrix::zeros(2);
/// q.set(0, 0, -3.0);
/// q.set(0, 1, 2.0);
/// let x = Assignment::from_bits([true, true]);
/// assert_eq!(q.energy(&x), -1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuboMatrix {
    n: usize,
    /// Upper-triangular coefficients, row-major: entry for (i, j), i <= j,
    /// lives at `tri_index(i, j)`.
    coeffs: Vec<f64>,
}

impl QuboMatrix {
    /// Creates an all-zero QUBO matrix of dimension `n`.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::QuboMatrix;
    /// let q = QuboMatrix::zeros(4);
    /// assert_eq!(q.dim(), 4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics, naming the dimension and before allocating, if the
    /// triangle's size `n·(n+1)/2` overflows `usize`.
    pub fn zeros(n: usize) -> Self {
        let len = n
            .checked_add(1)
            .and_then(|m| n.checked_mul(m))
            .unwrap_or_else(|| panic!("triangular QUBO matrix of dimension {n} overflows usize"))
            / 2;
        Self {
            n,
            coeffs: vec![0.0; len],
        }
    }

    /// Builds a QUBO matrix from `(i, j, value)` triplets.
    ///
    /// Triplets with `i > j` are folded into the upper triangle;
    /// repeated coordinates accumulate.
    ///
    /// # Errors
    ///
    /// Returns [`QuboError::IndexOutOfBounds`] if a coordinate exceeds
    /// `n`, or [`QuboError::NonFiniteElement`] if a value is NaN or
    /// infinite.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::QuboMatrix;
    /// # fn main() -> Result<(), hycim_qubo::QuboError> {
    /// let q = QuboMatrix::from_triplets(3, [(0, 1, 2.0), (1, 0, 1.0)])?;
    /// assert_eq!(q.get(0, 1), 3.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_triplets<I>(n: usize, triplets: I) -> Result<Self, QuboError>
    where
        I: IntoIterator<Item = (usize, usize, f64)>,
    {
        let mut q = Self::zeros(n);
        for (i, j, v) in triplets {
            if i >= n {
                return Err(QuboError::IndexOutOfBounds { index: i, dim: n });
            }
            if j >= n {
                return Err(QuboError::IndexOutOfBounds { index: j, dim: n });
            }
            if !v.is_finite() {
                return Err(QuboError::NonFiniteElement { row: i, col: j });
            }
            q.add(i, j, v);
        }
        Ok(q)
    }

    /// Matrix dimension `n` (number of binary variables).
    pub fn dim(&self) -> usize {
        self.n
    }

    fn tri_index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i <= j && j < self.n);
        // Row i starts after rows 0..i, each row k holding n-k entries.
        i * self.n - i * (i + 1) / 2 + j
    }

    /// Canonical coefficient of the product `xᵢxⱼ` (order-insensitive).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        assert!(
            b < self.n,
            "index ({i}, {j}) out of bounds for dim {}",
            self.n
        );
        self.coeffs[self.tri_index(a, b)]
    }

    /// Row `i` of the upper triangle: the coefficients of `(i, j)` for
    /// `j` in `i..n`, the diagonal first.
    pub(crate) fn upper_row(&self, i: usize) -> &[f64] {
        let start = self.tri_index(i, i);
        &self.coeffs[start..start + self.n - i]
    }

    /// Sets the canonical coefficient of `xᵢxⱼ`, replacing any prior value.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        assert!(
            b < self.n,
            "index ({i}, {j}) out of bounds for dim {}",
            self.n
        );
        let idx = self.tri_index(a, b);
        self.coeffs[idx] = value;
    }

    /// Adds `value` to the canonical coefficient of `xᵢxⱼ`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        assert!(
            b < self.n,
            "index ({i}, {j}) out of bounds for dim {}",
            self.n
        );
        let idx = self.tri_index(a, b);
        self.coeffs[idx] += value;
    }

    /// Evaluates the QUBO energy `xᵀQx`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::{Assignment, QuboMatrix};
    /// let mut q = QuboMatrix::zeros(2);
    /// q.set(0, 1, 5.0);
    /// assert_eq!(q.energy(&Assignment::ones_vec(2)), 5.0);
    /// ```
    pub fn energy(&self, x: &Assignment) -> f64 {
        assert_eq!(
            x.len(),
            self.n,
            "assignment length {} does not match dim {}",
            x.len(),
            self.n
        );
        let mut e = 0.0;
        for i in 0..self.n {
            if !x.get(i) {
                continue;
            }
            // Diagonal (linear) term.
            e += self.coeffs[self.tri_index(i, i)];
            for j in (i + 1)..self.n {
                if x.get(j) {
                    e += self.coeffs[self.tri_index(i, j)];
                }
            }
        }
        e
    }

    /// Energy change `E(x with bit i flipped) − E(x)` in O(n).
    ///
    /// This is the quantity the SA logic needs per move; recomputing the
    /// full energy would be O(n²).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `i` is out of bounds.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::{Assignment, QuboMatrix};
    /// let mut q = QuboMatrix::zeros(2);
    /// q.set(0, 0, -4.0);
    /// let x = Assignment::zeros(2);
    /// assert_eq!(q.flip_delta(&x, 0), -4.0);
    /// ```
    pub fn flip_delta(&self, x: &Assignment, i: usize) -> f64 {
        assert_eq!(
            x.len(),
            self.n,
            "assignment length {} does not match dim {}",
            x.len(),
            self.n
        );
        assert!(i < self.n, "index {i} out of bounds for dim {}", self.n);
        // Interaction of bit i with the rest of the configuration plus
        // its own diagonal term.
        let mut coupling = self.coeffs[self.tri_index(i, i)];
        for j in 0..self.n {
            if j != i && x.get(j) {
                coupling += self.get(i, j);
            }
        }
        if x.get(i) {
            -coupling
        } else {
            coupling
        }
    }

    /// The largest absolute matrix element `(Q_ij)_MAX` (paper Sec 4.2).
    ///
    /// Determines the crossbar quantization precision; see
    /// [`crate::quant::required_bits`].
    pub fn max_abs_element(&self) -> f64 {
        self.coeffs.iter().fold(0.0_f64, |m, &c| m.max(c.abs()))
    }

    /// Number of structurally nonzero coefficients.
    pub fn nonzeros(&self) -> usize {
        self.coeffs.iter().filter(|&&c| c != 0.0).count()
    }

    /// Iterates over nonzero `(i, j, value)` triplets with `i <= j`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.n).flat_map(move |i| {
            (i..self.n).filter_map(move |j| {
                let v = self.coeffs[self.tri_index(i, j)];
                (v != 0.0).then_some((i, j, v))
            })
        })
    }

    /// Scales every coefficient by `factor`, returning the result.
    pub fn scaled(&self, factor: f64) -> QuboMatrix {
        QuboMatrix {
            n: self.n,
            coeffs: self.coeffs.iter().map(|c| c * factor).collect(),
        }
    }

    /// Embeds this matrix in the top-left corner of a larger zero
    /// matrix of dimension `new_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `new_dim < self.dim()`.
    pub fn embedded(&self, new_dim: usize) -> QuboMatrix {
        assert!(
            new_dim >= self.n,
            "cannot embed dim {} into smaller dim {new_dim}",
            self.n
        );
        let mut q = QuboMatrix::zeros(new_dim);
        for (i, j, v) in self.iter_nonzero() {
            q.set(i, j, v);
        }
        q
    }

    /// Dense row-major copy of the upper-triangular convention used by
    /// the paper's crossbar mapping (Fig. 6(a)): element `(i, j)` holds
    /// the full coefficient for `i <= j`, zeros below the diagonal.
    fn to_dense_upper(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.n]; self.n];
        for (i, j, v) in self.iter_nonzero() {
            m[i][j] = v;
        }
        m
    }
}

impl fmt::Display for QuboMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "QuboMatrix(dim={}, nnz={})", self.n, self.nonzeros())?;
        if self.n <= 8 {
            for row in self.to_dense_upper() {
                let cells: Vec<String> = row.iter().map(|v| format!("{v:8.2}")).collect();
                writeln!(f, "  [{}]", cells.join(" "))?;
            }
        }
        Ok(())
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
                q.set(i, j, rng.random_range(-10.0..10.0));
            }
        }
        q
    }

    #[test]
    fn empty_matrix_energy_is_zero() {
        let q = QuboMatrix::zeros(0);
        assert_eq!(q.energy(&Assignment::zeros(0)), 0.0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "triangular QUBO matrix of dimension 4294967296 overflows usize")]
    fn zeros_refuses_a_triangle_whose_size_overflows() {
        // n·(n+1) = 2⁶⁴ + 2³² wraps; the check panics before allocating.
        let _ = QuboMatrix::zeros(1 << 32);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "triangular QUBO matrix of dimension 18446744073709551615 overflows")]
    fn zeros_refuses_the_largest_dimension() {
        let _ = QuboMatrix::zeros(usize::MAX);
    }

    #[test]
    fn symmetric_fold() {
        let mut q = QuboMatrix::zeros(3);
        q.add(0, 2, 1.5);
        q.add(2, 0, 2.5);
        assert_eq!(q.get(0, 2), 4.0);
        assert_eq!(q.get(2, 0), 4.0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // deliberate brute-force double loop
    fn energy_matches_brute_force_definition() {
        let q = random_qubo(6, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let x = Assignment::random(6, &mut rng);
            // Brute-force xᵀQx with the symmetric dense convention:
            // each off-diagonal coefficient split across (i,j), (j,i).
            let mut e = 0.0;
            for i in 0..6 {
                for j in 0..6 {
                    if x.get(i) && x.get(j) {
                        e += if i == j {
                            q.get(i, i)
                        } else {
                            q.get(i, j) / 2.0
                        };
                    }
                }
            }
            assert!((q.energy(&x) - e).abs() < 1e-9);
        }
    }

    #[test]
    fn flip_delta_matches_full_recompute() {
        let q = random_qubo(8, 3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let mut x = Assignment::random(8, &mut rng);
            let i = rng.random_range(0..8);
            let before = q.energy(&x);
            let delta = q.flip_delta(&x, i);
            x.flip(i);
            let after = q.energy(&x);
            assert!(
                (after - before - delta).abs() < 1e-9,
                "delta mismatch at bit {i}"
            );
        }
    }

    #[test]
    fn from_triplets_validates() {
        assert!(matches!(
            QuboMatrix::from_triplets(2, [(0, 5, 1.0)]),
            Err(QuboError::IndexOutOfBounds { index: 5, dim: 2 })
        ));
        assert!(matches!(
            QuboMatrix::from_triplets(2, [(0, 1, f64::NAN)]),
            Err(QuboError::NonFiniteElement { row: 0, col: 1 })
        ));
    }

    #[test]
    fn max_abs_element_and_nnz() {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 1, -7.0);
        q.set(2, 2, 3.0);
        assert_eq!(q.max_abs_element(), 7.0);
        assert_eq!(q.nonzeros(), 2);
        let triplets: Vec<_> = q.iter_nonzero().collect();
        assert_eq!(triplets, vec![(0, 1, -7.0), (2, 2, 3.0)]);
    }

    #[test]
    fn scaled_and_added() {
        let q = random_qubo(4, 9);
        let doubled = q.scaled(2.0);
        let mut sum = q.clone();
        for (i, j, v) in q.iter_nonzero() {
            sum.add(i, j, v);
        }
        assert_eq!(doubled, sum);
    }

    #[test]
    fn embedding_preserves_energy_on_prefix() {
        let q = random_qubo(4, 11);
        let big = q.embedded(7);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..10 {
            let x = Assignment::random(4, &mut rng);
            let ext = x.extended(3);
            assert!((q.energy(&x) - big.energy(&ext)).abs() < 1e-12);
        }
    }

    #[test]
    fn display_small_matrix() {
        let mut q = QuboMatrix::zeros(2);
        q.set(0, 1, 1.0);
        let s = format!("{q}");
        assert!(s.contains("dim=2"));
        assert!(s.contains("nnz=1"));
    }
}
