//! Quantization analysis for crossbar mapping (paper Sec 4.2).
//!
//! When a QUBO matrix is mapped onto a CiM crossbar with 1-bit cells,
//! each element needs `⌈log₂ (Q_ij)_MAX⌉` bit planes. D-QUBO's large
//! penalty coefficients inflate this to 16–25 bits while HyCiM stays at
//! 7 bits for the 100-item QKP set (paper Fig. 9(a)), which is where
//! most of the hardware saving of Fig. 9(c) comes from.

use crate::QuboMatrix;

/// Bit width needed to represent magnitudes up to `max_abs` on a
/// crossbar with 1-bit cells: `⌈log₂ max_abs⌉`, minimum 1.
///
/// Matches the paper's convention: `(Q_ij)MAX = 100 → 7` bits,
/// `4·10⁴ → 16`, `2.6·10⁷ → 25`.
///
/// # Example
///
/// ```
/// use hycim_qubo::quant::required_bits;
/// assert_eq!(required_bits(100.0), 7);
/// assert_eq!(required_bits(4.0e4), 16);
/// assert_eq!(required_bits(2.6e7), 25);
/// ```
pub fn required_bits(max_abs: f64) -> u32 {
    if max_abs <= 1.0 {
        return 1;
    }
    max_abs.log2().ceil() as u32
}

/// Bit width needed to map `q` onto the crossbar.
///
/// # Example
///
/// ```
/// use hycim_qubo::quant::matrix_bits;
/// use hycim_qubo::QuboMatrix;
/// let mut q = QuboMatrix::zeros(2);
/// q.set(0, 1, -100.0);
/// assert_eq!(matrix_bits(&q), 7);
/// ```
pub fn matrix_bits(q: &QuboMatrix) -> u32 {
    required_bits(q.max_abs_element())
}

/// Result of quantizing a matrix to signed integers of `bits` bits.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    /// Quantized coefficients as `(i, j, level)` triplets, `i <= j`.
    levels: Vec<(usize, usize, i64)>,
    /// Matrix dimension.
    dim: usize,
    /// Bit width of the magnitude.
    bits: u32,
    /// Multiply a level by this factor to recover the approximate value.
    scale: f64,
}

impl QuantizedMatrix {
    /// Quantizes `q` uniformly to integer levels representable in
    /// `bits` magnitude bits (levels in `[-(2^bits − 1), 2^bits − 1]`).
    ///
    /// The scale maps the largest absolute element to the top level, so
    /// lower `bits` coarsens all coefficients — exactly the effect
    /// limited crossbar precision has on D-QUBO's huge penalty terms.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 62`.
    pub fn quantize(q: &QuboMatrix, bits: u32) -> Self {
        assert!(bits > 0 && bits <= 62, "bits must be in 1..=62, got {bits}");
        let max_abs = q.max_abs_element();
        let top = ((1u64 << bits) - 1) as f64;
        // When the magnitudes already fit the integer grid (the HyCiM
        // case: (Q)MAX = 100 at 7 bits), store them directly at unit
        // scale — integer matrices then map losslessly. Only when the
        // range exceeds the grid (the D-QUBO case) must the scale grow,
        // which is what crushes small coefficients.
        let scale = if max_abs <= top { 1.0 } else { max_abs / top };
        let levels = q
            .iter_nonzero()
            .map(|(i, j, v)| (i, j, (v / scale).round() as i64))
            .filter(|&(_, _, l)| l != 0)
            .collect();
        Self {
            levels,
            dim: q.dim(),
            bits,
            scale,
        }
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Magnitude bit width.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Scale factor from levels back to approximate coefficients.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Quantized integer levels as `(i, j, level)` triplets with `i <= j`.
    pub fn levels(&self) -> &[(usize, usize, i64)] {
        &self.levels
    }

    /// Reconstructs the approximate real-valued matrix: what a
    /// crossbar of 1-bit cells stores. Each coefficient sums the values
    /// `±2ᵇ·scale` of its level's set bit planes in increasing bit
    /// order `b`, starting from zero; that order fixes the coefficient's
    /// rounding when the scale is not 1 (at unit scale, integer levels
    /// are exact in any order).
    pub fn dequantize(&self) -> QuboMatrix {
        let mut q = QuboMatrix::zeros(self.dim);
        for &(i, j, level) in &self.levels {
            let sign = if level < 0 { -1.0 } else { 1.0 };
            let (mut planes, mut value) = (level.unsigned_abs(), 0.0);
            while planes != 0 {
                let b = planes.trailing_zeros();
                value += sign * ((1u64 << b) as f64) * self.scale;
                planes &= planes - 1;
            }
            q.set(i, j, value);
        }
        q
    }

    /// Worst-case absolute quantization error per coefficient
    /// (half a level).
    pub fn max_error(&self) -> f64 {
        self.scale / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Assignment;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_bit_widths() {
        // Fig. 9(a): HyCiM (Q)MAX = 100 → 7 bits; D-QUBO 4·10⁴..2.6·10⁷
        // → 16..25 bits (the paper's "16-25-bit quantization").
        assert_eq!(required_bits(100.0), 7);
        assert_eq!(required_bits(4.0e4), 16);
        assert_eq!(required_bits(2.6e7), 25);
        assert_eq!(required_bits(0.5), 1);
        assert_eq!(required_bits(1.0), 1);
        assert_eq!(required_bits(2.0), 1);
        assert_eq!(required_bits(3.0), 2);
    }

    #[test]
    fn quantize_roundtrip_error_bound() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut q = QuboMatrix::zeros(10);
        for i in 0..10 {
            for j in i..10 {
                q.set(i, j, rng.random_range(-100.0..100.0));
            }
        }
        for bits in [4, 7, 10] {
            let quant = QuantizedMatrix::quantize(&q, bits);
            let back = quant.dequantize();
            for (i, j, v) in q.iter_nonzero() {
                let err = (back.get(i, j) - v).abs();
                assert!(
                    err <= quant.max_error() + 1e-12,
                    "error {err} above bound {} at ({i},{j}) bits={bits}",
                    quant.max_error()
                );
            }
        }
    }

    #[test]
    fn higher_bits_reduce_energy_error() {
        let mut rng = StdRng::seed_from_u64(78);
        let mut q = QuboMatrix::zeros(12);
        for i in 0..12 {
            for j in i..12 {
                q.set(i, j, rng.random_range(-50.0..50.0));
            }
        }
        let x = Assignment::random(12, &mut rng);
        let exact = q.energy(&x);
        let err4 = (QuantizedMatrix::quantize(&q, 4).dequantize().energy(&x) - exact).abs();
        let err10 = (QuantizedMatrix::quantize(&q, 10).dequantize().energy(&x) - exact).abs();
        assert!(err10 <= err4, "10-bit error {err10} > 4-bit error {err4}");
    }

    #[test]
    fn zero_matrix_quantizes_cleanly() {
        let q = QuboMatrix::zeros(4);
        let quant = QuantizedMatrix::quantize(&q, 7);
        assert!(quant.levels().is_empty());
        assert_eq!(quant.dequantize(), q);
    }

    #[test]
    fn levels_fit_in_bits() {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, 1000.0);
        q.set(0, 1, -333.0);
        let quant = QuantizedMatrix::quantize(&q, 5);
        let top = (1i64 << 5) - 1;
        for &(_, _, l) in quant.levels() {
            assert!(l.abs() <= top, "level {l} exceeds {top}");
        }
    }

    #[test]
    #[should_panic(expected = "bits")]
    fn zero_bits_panics() {
        let _ = QuantizedMatrix::quantize(&QuboMatrix::zeros(1), 0);
    }
}
