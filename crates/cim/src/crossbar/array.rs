use std::fmt;

use hycim_fefet::{gaussian, VariationModel};
use hycim_qubo::quant::QuantizedMatrix;
use hycim_qubo::{Assignment, QuboMatrix};
use rand::Rng;

use crate::crossbar::mapping::{check_dim, stored_levels};
use crate::crossbar::{Adc, AdcConfig, CrossbarMapping};
use crate::{CimError, Fidelity};

/// Construction parameters for a [`Crossbar`].
#[derive(Debug, Clone)]
pub struct CrossbarConfig {
    /// Magnitude quantization bits `M` (paper: `⌈log₂(Q_ij)MAX⌉`,
    /// 7 for HyCiM on the benchmark set).
    pub bits: u32,
    /// ADC resolution in bits (one ADC per column, Fig. 6(a)).
    pub adc_bits: u32,
    /// ADC noise in LSBs.
    pub adc_noise_lsb: f64,
    /// Device variability (propagates into per-cell currents in
    /// device-accurate mode and into aggregate noise in fast mode).
    pub variation: VariationModel,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
}

impl CrossbarConfig {
    /// The paper's HyCiM crossbar setting: 7-bit matrix quantization,
    /// 8-bit ADCs.
    pub fn paper() -> Self {
        Self {
            bits: 7,
            adc_bits: 8,
            adc_noise_lsb: 0.3,
            variation: VariationModel::paper(),
            fidelity: Fidelity::default(),
        }
    }

    /// Overrides the matrix quantization bit width.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0 || bits > 62`.
    pub fn with_bits(mut self, bits: u32) -> Self {
        assert!(bits > 0 && bits <= 62, "bits must be in 1..=62");
        self.bits = bits;
        self
    }

    /// Overrides the variability model.
    pub fn with_variation(mut self, variation: VariationModel) -> Self {
        self.variation = variation;
        self
    }

    /// Overrides the fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }
}

impl Default for CrossbarConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// The FeFET-based CiM crossbar computing `xᵀQx` (paper Sec 3.4,
/// Fig. 6(a)).
///
/// During a QUBO computation the input vector drives gates (via the WL
/// driver) and drains (via the SL/DL decoder) simultaneously; each
/// conducting cell contributes one clamped unit current, column
/// currents are digitized by per-column ADCs, and shift-add logic
/// accumulates the bit-plane codes into the energy value.
///
/// # Example
///
/// ```
/// use hycim_cim::crossbar::{Crossbar, CrossbarConfig};
/// use hycim_qubo::{Assignment, QuboMatrix};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), hycim_cim::CimError> {
/// let mut q = QuboMatrix::zeros(3);
/// q.set(0, 0, -10.0);
/// q.set(0, 2, -14.0);
/// q.set(2, 2, -8.0);
/// let mut rng = StdRng::seed_from_u64(5);
/// let xbar = Crossbar::program(&q, &CrossbarConfig::default(), &mut rng)?;
/// let x = Assignment::from_bits([true, false, true]);
/// let e = xbar.compute_energy(&x, &mut rng);
/// assert!((e - (-32.0)).abs() < 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    mapping: CrossbarMapping,
    adc: Adc,
    config: CrossbarConfig,
    /// Cached dequantized matrix for the fast path and ideal reads.
    dequantized: QuboMatrix,
}

impl Crossbar {
    /// Quantizes and programs `q` into the crossbar.
    ///
    /// # Errors
    ///
    /// Propagates [`CimError::EmptyProblem`] /
    /// [`CimError::MatrixTooLarge`] from the mapping.
    pub fn program<R: Rng + ?Sized>(
        q: &QuboMatrix,
        config: &CrossbarConfig,
        rng: &mut R,
    ) -> Result<Self, CimError> {
        let _ = rng; // array-level D2D effects are folded into read noise
        let (quant, adc) = quantize(q, config)?;
        Ok(Self {
            mapping: CrossbarMapping::from_quantized(&quant),
            adc,
            config: config.clone(),
            dequantized: quant.dequantize(),
        })
    }

    /// What a solve reads of the crossbar [`program`](Self::program)
    /// builds, without its bit planes: the [`stored_matrix`] and the
    /// [`readout_sigma`] of a typical read, which activates about half
    /// the programmed cells — what a programmed chip keeps. The same
    /// checks and the same bits as `program`, which draws nothing from
    /// its stream, so this takes none.
    ///
    /// # Errors
    ///
    /// As [`program`](Self::program), and it panics where `program`
    /// does.
    ///
    /// [`stored_matrix`]: Self::stored_matrix
    /// [`readout_sigma`]: Self::readout_sigma
    pub fn program_stored(
        q: &QuboMatrix,
        config: &CrossbarConfig,
    ) -> Result<(QuboMatrix, f64), CimError> {
        let (quant, _) = quantize(q, config)?;
        let (stored, programmed, scale) = stored_levels(&quant);
        Ok((stored, readout_sigma(config, programmed / 2, scale)))
    }

    /// Matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.mapping.dim()
    }

    /// Quantization bit width `M`.
    pub fn bits(&self) -> u32 {
        self.mapping.bits()
    }

    /// The bit-plane mapping.
    pub fn mapping(&self) -> &CrossbarMapping {
        &self.mapping
    }

    /// The matrix the crossbar effectively stores (quantized then
    /// dequantized).
    pub fn stored_matrix(&self) -> &QuboMatrix {
        &self.dequantized
    }

    /// One full analog QUBO computation `xᵀQx` (paper Fig. 6(a)):
    /// bit-plane column currents → ADC codes → shift-add → scaled
    /// energy.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn compute_energy<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> f64 {
        assert_eq!(x.len(), self.dim(), "input length mismatch");
        match self.config.fidelity {
            Fidelity::DeviceAccurate => self.compute_device(x, rng),
            Fidelity::Fast => self.compute_fast(x, rng),
        }
    }

    /// Device-accurate path: per-cell currents with relative noise,
    /// per-column-per-bitplane ADC conversion.
    fn compute_device<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> f64 {
        let sigma = self.config.variation.current_sigma_rel();
        let mut total = 0.0_f64;
        for (negative, sign) in [(false, 1.0f64), (true, -1.0)] {
            for b in 0..self.bits() {
                let weight = (1u64 << b) as f64;
                for col in 0..self.dim() {
                    if !x.get(col) {
                        continue;
                    }
                    // Column current: one unit per conducting cell
                    // (gate row i driven by x_i, drain by x_col).
                    let mut current_units = 0.0;
                    for &row in self.mapping.plane_rows(negative, b, col) {
                        if x.get(row as usize) {
                            current_units +=
                                self.config.variation.sample_current_factor(rng).max(0.0);
                        }
                    }
                    if current_units == 0.0 {
                        continue;
                    }
                    let _ = sigma;
                    let code = self.adc.sample_count(current_units, rng);
                    total += sign * weight * code as f64;
                }
            }
        }
        total * self.mapping.scale()
    }

    /// Fast path: exact plane counts + ADC quantization + aggregate
    /// Gaussian noise with the same variance the per-cell path has.
    fn compute_fast<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> f64 {
        let sigma_rel = self.config.variation.current_sigma_rel();
        let mut total = 0.0_f64;
        let mut active_weighted_cells = 0.0_f64;
        for (negative, sign) in [(false, 1.0f64), (true, -1.0)] {
            for b in 0..self.bits() {
                let weight = (1u64 << b) as f64;
                for col in 0..self.dim() {
                    if !x.get(col) {
                        continue;
                    }
                    let count = self
                        .mapping
                        .plane_rows(negative, b, col)
                        .iter()
                        .filter(|&&row| x.get(row as usize))
                        .count();
                    if count == 0 {
                        continue;
                    }
                    let code = self.adc.sample_count(count as f64, rng);
                    total += sign * weight * code as f64;
                    active_weighted_cells += weight * weight * count as f64;
                }
            }
        }
        if sigma_rel > 0.0 && active_weighted_cells > 0.0 {
            total += gaussian(rng) * sigma_rel * active_weighted_cells.sqrt();
        }
        total * self.mapping.scale()
    }

    /// Standard deviation of the hardware readout noise for a
    /// configuration activating `active_cells` weighted cells,
    /// expressed in energy units. Exposed so the SA hot loop can model
    /// readout noise without a full array pass (see
    /// `docs/ARCHITECTURE.md`, "The hot path").
    pub fn readout_sigma(&self, active_cells: usize) -> f64 {
        readout_sigma(&self.config, active_cells, self.mapping.scale())
    }
}

/// Checks and quantizes `q` for a crossbar of `config`, with the
/// column ADC it reads through.
///
/// # Panics
///
/// Panics on an ADC resolution outside `1..=24` bits or a negative ADC
/// noise ([`AdcConfig::new`]), and on a quantization width outside
/// `1..=62` bits.
fn quantize(q: &QuboMatrix, config: &CrossbarConfig) -> Result<(QuantizedMatrix, Adc), CimError> {
    check_dim(q)?;
    let quant = QuantizedMatrix::quantize(q, config.bits);
    let adc = Adc::new(AdcConfig::new(
        config.adc_bits,
        q.dim().max(1),
        config.adc_noise_lsb,
    ));
    Ok((quant, adc))
}

/// Readout noise σ, in energy units, of a read activating
/// `active_cells` weighted cells at level scale `scale`.
fn readout_sigma(config: &CrossbarConfig, active_cells: usize, scale: f64) -> f64 {
    config.variation.current_sigma_rel() * (active_cells as f64).sqrt() * scale
}

impl fmt::Display for Crossbar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Crossbar(n={}, M={} bits, {})",
            self.dim(),
            self.bits(),
            self.adc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::mapping::MAX_CROSSBAR_DIM;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_integer_qubo(n: usize, seed: u64, max: i64) -> QuboMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                if rng.random_bool(0.6) {
                    q.set(i, j, rng.random_range(-max..=max) as f64);
                }
            }
        }
        q
    }

    #[test]
    fn ideal_crossbar_reproduces_exact_energy() {
        // Integer coefficients ≤ 100, 7 bits, no noise → exact.
        let q = random_integer_qubo(12, 1, 100);
        let cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let mut rng = StdRng::seed_from_u64(2);
        let xbar = Crossbar::program(&q, &cfg, &mut rng).unwrap();
        for _ in 0..30 {
            let x = Assignment::random(12, &mut rng);
            let e = xbar.compute_energy(&x, &mut rng);
            assert!(
                (e - q.energy(&x)).abs() < 1e-6,
                "ideal crossbar error: {e} vs {}",
                q.energy(&x)
            );
        }
    }

    #[test]
    fn device_and_fast_agree_in_expectation() {
        let q = random_integer_qubo(10, 3, 100);
        let mut rng = StdRng::seed_from_u64(4);
        let dev = Crossbar::program(
            &q,
            &CrossbarConfig::paper().with_fidelity(Fidelity::DeviceAccurate),
            &mut rng,
        )
        .unwrap();
        let fast = Crossbar::program(
            &q,
            &CrossbarConfig::paper().with_fidelity(Fidelity::Fast),
            &mut rng,
        )
        .unwrap();
        let x = Assignment::random(10, &mut rng);
        let avg = |xb: &Crossbar, rng: &mut StdRng| {
            (0..300).map(|_| xb.compute_energy(&x, rng)).sum::<f64>() / 300.0
        };
        let m_dev = avg(&dev, &mut rng);
        let m_fast = avg(&fast, &mut rng);
        let scale = q.max_abs_element();
        assert!(
            (m_dev - m_fast).abs() < 0.05 * scale,
            "means differ: device {m_dev}, fast {m_fast}"
        );
    }

    #[test]
    fn noise_scales_with_active_cells() {
        let q = random_integer_qubo(16, 5, 100);
        let mut rng = StdRng::seed_from_u64(6);
        let xbar = Crossbar::program(&q, &CrossbarConfig::paper(), &mut rng).unwrap();
        let spread = |x: &Assignment, rng: &mut StdRng| {
            let es: Vec<f64> = (0..200).map(|_| xbar.compute_energy(x, rng)).collect();
            let m = es.iter().sum::<f64>() / es.len() as f64;
            (es.iter().map(|e| (e - m).powi(2)).sum::<f64>() / es.len() as f64).sqrt()
        };
        let sparse = Assignment::from_bits((0..16).map(|i| i < 2));
        let dense = Assignment::ones_vec(16);
        assert!(spread(&dense, &mut rng) > spread(&sparse, &mut rng));
    }

    #[test]
    fn coarse_quantization_distorts_energy() {
        // The D-QUBO failure mode: huge (Q)MAX forces coarse levels.
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -1.0e6); // dominates the scale
        q.set(1, 1, -10.0); // gets crushed at low bit width
        q.set(2, 2, -7.0);
        let cfg = CrossbarConfig::paper()
            .with_bits(8)
            .with_variation(VariationModel::none());
        let mut rng = StdRng::seed_from_u64(7);
        let xbar = Crossbar::program(&q, &cfg, &mut rng).unwrap();
        let x = Assignment::from_bits([false, true, true]);
        let e = xbar.compute_energy(&x, &mut rng);
        // True energy −17, but the 8-bit grid over 10⁶ has LSB ≈ 3922:
        // the small coefficients vanish entirely.
        assert_eq!(e, 0.0, "expected small coefficients to be crushed, got {e}");
    }

    #[test]
    fn readout_sigma_is_monotone() {
        let q = random_integer_qubo(8, 8, 50);
        let mut rng = StdRng::seed_from_u64(9);
        let xbar = Crossbar::program(&q, &CrossbarConfig::paper(), &mut rng).unwrap();
        assert!(xbar.readout_sigma(100) > xbar.readout_sigma(10));
        assert_eq!(xbar.readout_sigma(0), 0.0);
    }

    /// The matrix the mapping's bit planes hold, summed plane by plane
    /// in (sign, bit, column, row) order: the reference the
    /// fabrication law checks `stored_levels` against.
    fn planes_matrix(map: &CrossbarMapping) -> QuboMatrix {
        let mut q = QuboMatrix::zeros(map.dim());
        for (negative, sign) in [(false, 1.0f64), (true, -1.0)] {
            for b in 0..map.bits() {
                for col in 0..map.dim() {
                    for &row in map.plane_rows(negative, b, col) {
                        q.add(row as usize, col, sign * ((1u64 << b) as f64) * map.scale());
                    }
                }
            }
        }
        q
    }

    fn assert_same_bits(a: &QuboMatrix, b: &QuboMatrix, case: &str) {
        assert_eq!(a.dim(), b.dim(), "{case}: dimension");
        for i in 0..a.dim() {
            for j in i..a.dim() {
                let (x, y) = (a.get(i, j), b.get(i, j));
                assert_eq!(x.to_bits(), y.to_bits(), "{case}: ({i}, {j}) {x} != {y}");
            }
        }
    }

    /// Fabrication law: what the crossbar stores, taken from the
    /// quantized levels without bit planes, has the bits of the sum of
    /// the planes `program` lays out, the same programmed cell count
    /// and scale; [`Crossbar::program_stored`] returns that matrix and
    /// `program`'s typical readout σ. On an integer QKP matrix at
    /// 7 bits, a D-QUBO form at its `matrix_bits`, and a real-valued
    /// matrix at every width from 1 to 10 bits.
    #[test]
    fn cell_free_crossbar_stores_what_the_bit_planes_hold() {
        use hycim_qubo::dqubo::{AuxEncoding, DquboForm, PenaltyWeights};
        use hycim_qubo::quant::matrix_bits;
        use hycim_qubo::LinearConstraint;

        let mut rng = StdRng::seed_from_u64(31);
        let mut qkp = QuboMatrix::zeros(30);
        for i in 0..30 {
            for j in i..30 {
                if rng.random_bool(0.5) {
                    qkp.set(i, j, -(rng.random_range(1..=100) as f64));
                }
            }
        }
        let weights: Vec<u64> = (0..10).map(|_| rng.random_range(1..=20)).collect();
        let constraint = LinearConstraint::new(weights, 40).unwrap();
        let dqubo = DquboForm::transform(
            &random_integer_qubo(10, 32, 100),
            &constraint,
            PenaltyWeights::PAPER,
            AuxEncoding::OneHot,
        )
        .unwrap();
        let mut real = QuboMatrix::zeros(12);
        for i in 0..12 {
            for j in i..12 {
                if rng.random_bool(0.7) {
                    real.set(i, j, rng.random_range(-700.0..700.0));
                }
            }
        }
        let mut cases = vec![
            ("qkp".to_string(), qkp, 7),
            (
                "dqubo".to_string(),
                dqubo.matrix().clone(),
                matrix_bits(dqubo.matrix()),
            ),
        ];
        cases.extend((1..=10).map(|bits| (format!("real, {bits} bits"), real.clone(), bits)));
        for (case, q, bits) in cases {
            let config = CrossbarConfig::paper().with_bits(bits);
            let xbar = Crossbar::program(&q, &config, &mut rng).unwrap();
            let map = xbar.mapping();
            let reference = planes_matrix(map);
            let (stored, programmed, scale) = stored_levels(&QuantizedMatrix::quantize(&q, bits));
            assert_same_bits(&stored, &reference, &case);
            assert_same_bits(xbar.stored_matrix(), &reference, &case);
            assert_eq!(
                programmed,
                map.programmed_cells(),
                "{case}: programmed cells"
            );
            assert_eq!(scale.to_bits(), map.scale().to_bits(), "{case}: scale");
            let (chip, sigma) = Crossbar::program_stored(&q, &config).unwrap();
            assert_same_bits(&chip, &reference, &case);
            let typical = xbar.readout_sigma(map.programmed_cells() / 2);
            assert_eq!(sigma.to_bits(), typical.to_bits(), "{case}: readout sigma");
        }
    }

    /// The message of the panic `f` raises.
    fn panic_message<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(f).err().expect("a panic");
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("a text payload")
    }

    /// [`Crossbar::program_stored`] refuses what
    /// [`Crossbar::program`] refuses, with the same error, and panics
    /// with the same message on a configuration `program` panics on.
    #[test]
    fn cell_free_crossbar_errors_and_panics_as_program() {
        let config = CrossbarConfig::paper();
        let cases = [
            (0, CimError::EmptyProblem),
            (
                MAX_CROSSBAR_DIM + 1,
                CimError::MatrixTooLarge {
                    dim: MAX_CROSSBAR_DIM + 1,
                    limit: MAX_CROSSBAR_DIM,
                },
            ),
        ];
        for (dim, expected) in cases {
            let q = QuboMatrix::zeros(dim);
            let mut rng = StdRng::seed_from_u64(1);
            assert_eq!(
                Crossbar::program(&q, &config, &mut rng).unwrap_err(),
                expected
            );
            assert_eq!(Crossbar::program_stored(&q, &config).unwrap_err(), expected);
        }
        let q = random_integer_qubo(4, 2, 100);
        let bad = [
            CrossbarConfig {
                adc_bits: 0,
                ..CrossbarConfig::paper()
            },
            CrossbarConfig {
                adc_bits: 25,
                ..CrossbarConfig::paper()
            },
            CrossbarConfig {
                adc_noise_lsb: -0.1,
                ..CrossbarConfig::paper()
            },
            CrossbarConfig {
                bits: 0,
                ..CrossbarConfig::paper()
            },
        ];
        for config in bad {
            let built = panic_message(|| {
                Crossbar::program(&q, &config, &mut StdRng::seed_from_u64(1)).map(|_| ())
            });
            let free = panic_message(|| Crossbar::program_stored(&q, &config).map(|_| ()));
            assert_eq!(free, built, "{config:?}");
        }
    }
}
