use std::fmt;

use hycim_qubo::quant::QuantizedMatrix;
use hycim_qubo::QuboMatrix;

use crate::CimError;

/// Bit-sliced crossbar mapping of a QUBO matrix (paper Fig. 6(a)).
///
/// Each column `Aⱼ` of the upper-triangular `Q` is mapped onto an
/// `n × M` subarray at `M`-bit magnitude quantization, one bit per
/// 1FeFET1R cell. Negative coefficients (HyCiM's negated profits) are
/// stored in a parallel *negative* plane set whose column sums are
/// subtracted digitally after the ADCs — the standard two-array
/// signed-weight CiM scheme.
///
/// # Example
///
/// ```
/// use hycim_cim::crossbar::CrossbarMapping;
/// use hycim_qubo::QuboMatrix;
///
/// # fn main() -> Result<(), hycim_cim::CimError> {
/// let mut q = QuboMatrix::zeros(3);
/// q.set(0, 0, -10.0);
/// q.set(0, 2, -7.0);
/// let map = CrossbarMapping::new(&q, 7)?;
/// assert_eq!(map.dim(), 3);
/// assert_eq!(map.bits(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CrossbarMapping {
    dim: usize,
    bits: u32,
    scale: f64,
    /// `planes[sign][bit][col]` = sorted row indices whose cell stores
    /// a 1 for that (sign, bit, column). sign 0 = positive, 1 = negative.
    planes: [Vec<Vec<Vec<u32>>>; 2],
}

/// Hard cap on the mapped dimension; protects against accidentally
/// programming a D-QUBO-sized matrix (n ≈ 2600, hundreds of millions
/// of cells) into an explicit cell array.
pub(super) const MAX_CROSSBAR_DIM: usize = 4096;

impl CrossbarMapping {
    /// Quantizes `q` to `bits` magnitude bits and builds the bit-plane
    /// layout.
    ///
    /// # Errors
    ///
    /// * [`CimError::EmptyProblem`] for a zero-dimension matrix.
    /// * [`CimError::MatrixTooLarge`] if `q.dim() > MAX_CROSSBAR_DIM`.
    pub fn new(q: &QuboMatrix, bits: u32) -> Result<Self, CimError> {
        check_dim(q)?;
        Ok(Self::from_quantized(&QuantizedMatrix::quantize(q, bits)))
    }

    /// The bit-plane layout of an already quantized matrix.
    pub(super) fn from_quantized(quant: &QuantizedMatrix) -> Self {
        let (dim, bits) = (quant.dim(), quant.bits());
        let empty_planes = || vec![vec![Vec::new(); dim]; bits as usize];
        let mut planes = [empty_planes(), empty_planes()];
        for &(i, j, level) in quant.levels() {
            let sign = usize::from(level < 0);
            let mag = level.unsigned_abs();
            for b in 0..bits {
                if mag >> b & 1 == 1 {
                    // Upper-triangular convention of Fig. 6(a): the cell
                    // for coefficient (i, j), i ≤ j, sits at row i of
                    // column j's subarray.
                    planes[sign][b as usize][j].push(i as u32);
                }
            }
        }
        Self {
            dim,
            bits,
            scale: quant.scale(),
            planes,
        }
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Magnitude bit width `M`.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Scale factor from integer levels to coefficient values.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Row indices storing a 1 in the given (sign, bit, column) plane
    /// slice. `negative = false` selects the positive plane.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= self.bits()` or `col >= self.dim()`.
    pub fn plane_rows(&self, negative: bool, bit: u32, col: usize) -> &[u32] {
        &self.planes[usize::from(negative)][bit as usize][col]
    }

    /// Number of programmed (1-storing) cells.
    pub fn programmed_cells(&self) -> usize {
        self.planes.iter().flatten().flatten().map(Vec::len).sum()
    }
}

/// Checks that `q` can be mapped: a nonzero dimension of at most
/// `MAX_CROSSBAR_DIM`.
pub(super) fn check_dim(q: &QuboMatrix) -> Result<(), CimError> {
    if q.dim() == 0 {
        return Err(CimError::EmptyProblem);
    }
    if q.dim() > MAX_CROSSBAR_DIM {
        return Err(CimError::MatrixTooLarge {
            dim: q.dim(),
            limit: MAX_CROSSBAR_DIM,
        });
    }
    Ok(())
}

/// What a crossbar programmed with `quant` stores, without its bit
/// planes: the stored matrix ([`QuantizedMatrix::dequantize`], which
/// sums each coefficient's bit planes), the number of programmed
/// (1-storing) cells, and the level scale.
pub(super) fn stored_levels(quant: &QuantizedMatrix) -> (QuboMatrix, usize, f64) {
    let programmed = quant
        .levels()
        .iter()
        .map(|&(_, _, level)| level.unsigned_abs().count_ones() as usize)
        .sum();
    (quant.dequantize(), programmed, quant.scale())
}

impl fmt::Display for CrossbarMapping {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CrossbarMapping(n={}, M={} bits, {} programmed cells)",
            self.dim,
            self.bits,
            self.programmed_cells()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_qubo(n: usize, seed: u64, max: f64) -> QuboMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                if rng.random_bool(0.6) {
                    q.set(i, j, rng.random_range(-max..max));
                }
            }
        }
        q
    }

    #[test]
    fn integer_matrices_map_losslessly() {
        // Integer coefficients within the bit budget survive exactly —
        // the HyCiM case ((Q)MAX = 100 at 7 bits).
        let mut q = QuboMatrix::zeros(4);
        q.set(0, 0, -100.0);
        q.set(0, 1, -37.0);
        q.set(2, 3, -1.0);
        q.set(1, 1, 64.0);
        let (back, _, scale) = stored_levels(&QuantizedMatrix::quantize(&q, 7));
        assert_eq!(scale, 1.0);
        for (i, j, v) in q.iter_nonzero() {
            assert!(
                (back.get(i, j) - v).abs() < 1e-9,
                "({i},{j}): {} != {v}",
                back.get(i, j)
            );
        }
    }

    #[test]
    fn rejects_oversized_matrix() {
        let q = QuboMatrix::zeros(MAX_CROSSBAR_DIM + 1);
        assert!(matches!(
            CrossbarMapping::new(&q, 4),
            Err(CimError::MatrixTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_empty_matrix() {
        let q = QuboMatrix::zeros(0);
        assert!(matches!(
            CrossbarMapping::new(&q, 4),
            Err(CimError::EmptyProblem)
        ));
    }

    #[test]
    fn plane_rows_are_upper_triangular() {
        let q = random_qubo(8, 3, 50.0);
        let map = CrossbarMapping::new(&q, 6).unwrap();
        for sign in [false, true] {
            for b in 0..6 {
                for col in 0..8 {
                    for &row in map.plane_rows(sign, b, col) {
                        assert!(row as usize <= col, "cell below diagonal");
                    }
                }
            }
        }
    }

    #[test]
    fn cell_counts() {
        let mut q = QuboMatrix::zeros(2);
        q.set(0, 0, 3.0); // 0b11 at 2-bit scale → depends on scale
        let map = CrossbarMapping::new(&q, 2).unwrap();
        assert!(map.programmed_cells() >= 1);
    }
}
