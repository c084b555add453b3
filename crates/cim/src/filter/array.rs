use std::fmt;

use hycim_fefet::{gaussian, MultiLevelSpec, StaircasePulse, VariationModel};
use hycim_qubo::Assignment;
use rand::Rng;

use crate::filter::FilterCell;
use crate::{CimError, Fidelity, Matchline, MatchlineConfig};

/// An `m × n` matchline array of filter cells (paper Fig. 5(a)).
///
/// Item weight `wᵢ` is decomposed into `m` sub-weights
/// `wᵢ = Σⱼ wᵢⱼ, wᵢⱼ ∈ {0..=4}` stored down column `i`; all matchlines
/// are interconnected, so after a 4-phase staircase evaluation the
/// shared ML voltage is `VDD − ΔV_unit · Σᵢ wᵢxᵢ` (paper Eq. 9).
///
/// # Example
///
/// ```
/// use hycim_cim::filter::FilterArray;
/// use hycim_cim::filter::FilterConfig;
/// use hycim_qubo::Assignment;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), hycim_cim::CimError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let array = FilterArray::program(&[4, 7, 2], &FilterConfig::default(), &mut rng)?;
/// let ml = array.evaluate(&Assignment::from_bits([true, false, true]), &mut rng);
/// // 6 weight units discharged from a 2 V precharge.
/// assert!(ml < 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FilterArray {
    /// Cells in column-major order: `cells[col][row]`.
    cells: Vec<Vec<FilterCell>>,
    /// The weights actually stored (after decomposition).
    weights: Vec<u64>,
    rows: usize,
    staircase: StaircasePulse,
    fidelity: Fidelity,
    /// The constants of a fast-path read.
    fast: ArrayRead,
}

/// What a fast-path read of a [`FilterArray`] needs, and nothing of its
/// cells: the aggregate drop and √load-scaled noise of
/// [`Fidelity::Fast`]. An [`InequalityFilter`]'s [`FilterRead`] carries
/// one per array, so it outlives the cells.
///
/// [`InequalityFilter`]: crate::filter::InequalityFilter
/// [`FilterRead`]: crate::filter::FilterRead
#[derive(Debug, Clone)]
pub(super) struct ArrayRead {
    ml_config: MatchlineConfig,
    /// Fraction of the nominal clamp current an ON cell actually
    /// conducts: the 1FeFET1R series blend gives
    /// `I = I_clamp · I_on / (I_on + I_clamp)`, ≈ 0.98 at the paper's
    /// operating point. The fast path scales its unit drops by this so
    /// both fidelities share the same mean ML.
    effective_unit_fraction: f64,
    /// Relative per-read current noise of one cell-phase: the temporal
    /// share ([`FilterArray::TEMPORAL_NOISE_FRACTION`]) of the cell
    /// current spread.
    temporal_sigma: f64,
}

impl ArrayRead {
    /// Fast-path evaluation from a precomputed load (used by the SA
    /// loop, where the load is tracked incrementally in O(1)). `z` is
    /// the read's standard-normal noise sample, drawn by the caller
    /// exactly when the load is positive and the array has current
    /// variability (it has no effect otherwise).
    pub(super) fn evaluate_fast(&self, load_units: u64, z: f64) -> f64 {
        let mut ml = self.discharged(load_units);
        let sigma_units = self.read_noise_units(load_units);
        if sigma_units > 0.0 {
            let noise_units = z * sigma_units;
            if noise_units > 0.0 {
                ml.discharge_units(noise_units);
                return ml.voltage();
            }
            // Negative noise: less discharge → add voltage back
            // (bounded by VDD).
            let v = ml.voltage() - noise_units * ml.config().unit_drop();
            return v.min(self.ml_config.vdd);
        }
        ml.voltage()
    }

    /// The noise-free part of a fast-path read: the matchline after
    /// the aggregate drop of `load_units` at the effective
    /// (series-blended) cell current.
    pub(super) fn discharged(&self, load_units: u64) -> Matchline {
        let mut ml = Matchline::precharged(self.matchline_config());
        ml.discharge_units(load_units as f64 * self.effective_unit_fraction);
        ml
    }

    /// Whether a fast-path read at `load_units` carries noise, and so
    /// takes one standard-normal sample.
    pub(super) fn draws_noise(&self, load_units: u64) -> bool {
        self.temporal_sigma > 0.0 && load_units > 0
    }

    /// σ, in weight units, of a fast-path read's noise: each of the
    /// `load` conducting cell-phases carries temporal current noise,
    /// so the summed charge noise scales with √load. Zero exactly when
    /// the read draws no noise sample.
    pub(super) fn read_noise_units(&self, load_units: u64) -> f64 {
        if self.draws_noise(load_units) {
            self.temporal_sigma * (load_units as f64).sqrt()
        } else {
            0.0
        }
    }

    /// The matchline configuration the read discharges.
    pub(super) fn matchline_config(&self) -> &MatchlineConfig {
        &self.ml_config
    }
}

/// Shared construction parameters for filter arrays (re-exported from
/// [`crate::filter`]; see [`crate::filter::FilterConfig`]).
pub(crate) struct ArrayParams<'a> {
    pub rows: usize,
    pub spec: &'a MultiLevelSpec,
    pub ml_config: &'a MatchlineConfig,
    pub variation: &'a VariationModel,
    pub fidelity: Fidelity,
}

impl FilterArray {
    /// Programs an array holding `weights`, one item per column, using
    /// the filter configuration (16 rows of 5-level cells by default →
    /// per-item weights up to 64, the paper's Sec 4.1 setting).
    ///
    /// # Errors
    ///
    /// Returns [`CimError::WeightTooLarge`] if any weight exceeds
    /// `rows × max_level`, or [`CimError::EmptyProblem`] for an empty
    /// weight list.
    pub fn program<R: Rng + ?Sized>(
        weights: &[u64],
        config: &crate::filter::FilterConfig,
        rng: &mut R,
    ) -> Result<Self, CimError> {
        Self::program_with(
            weights,
            &ArrayParams {
                rows: config.rows,
                spec: &config.spec,
                ml_config: &config.matchline,
                variation: &config.variation,
                fidelity: config.fidelity,
            },
            rng,
        )
    }

    pub(crate) fn program_with<R: Rng + ?Sized>(
        weights: &[u64],
        params: &ArrayParams<'_>,
        rng: &mut R,
    ) -> Result<Self, CimError> {
        if weights.is_empty() {
            return Err(CimError::EmptyProblem);
        }
        let max_level = u64::from(params.spec.max_level());
        let limit = params.rows as u64 * max_level;
        let mut cells = Vec::with_capacity(weights.len());
        for (item, &w) in weights.iter().enumerate() {
            if w > limit {
                return Err(CimError::WeightTooLarge {
                    item,
                    weight: w,
                    limit,
                });
            }
            let mut column = Vec::with_capacity(params.rows);
            for sub in decompose_weight(w, params.rows, params.spec.max_level()) {
                let mut cell = FilterCell::sample(params.spec, params.variation, rng);
                cell.store(sub);
                column.push(cell);
            }
            cells.push(column);
        }
        let i_on = params.spec.i_on();
        Ok(Self {
            cells,
            weights: weights.to_vec(),
            rows: params.rows,
            staircase: StaircasePulse::for_spec(params.spec),
            fidelity: params.fidelity,
            fast: ArrayRead {
                ml_config: params.ml_config.clone(),
                effective_unit_fraction: i_on / (i_on + params.ml_config.cell_current),
                temporal_sigma: params.variation.current_sigma_rel()
                    * Self::TEMPORAL_NOISE_FRACTION,
            },
        })
    }

    /// Number of item columns `n`.
    pub fn num_columns(&self) -> usize {
        self.cells.len()
    }

    /// Number of cell rows `m`.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// The stored item weights.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Total weight units `Σ wᵢxᵢ` selected by a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_columns()`.
    fn selected_units(&self, x: &Assignment) -> u64 {
        assert_eq!(x.len(), self.num_columns(), "input length mismatch");
        self.weights
            .iter()
            .zip(x.iter())
            .filter(|(_, b)| *b)
            .map(|(w, _)| *w)
            .sum()
    }

    /// Runs one 4-phase evaluation and returns the final ML voltage.
    ///
    /// Fidelity [`Fidelity::DeviceAccurate`] integrates every cell's
    /// current per phase; [`Fidelity::Fast`] applies the analytically
    /// equivalent aggregate drop with √N-scaled noise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_columns()`.
    pub fn evaluate<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> f64 {
        match self.fidelity {
            Fidelity::DeviceAccurate => self.evaluate_device(x, rng),
            Fidelity::Fast => {
                let load = self.selected_units(x);
                let z = if self.fast.draws_noise(load) {
                    gaussian(rng)
                } else {
                    0.0
                };
                self.fast.evaluate_fast(load, z)
            }
        }
    }

    fn evaluate_device<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> f64 {
        assert_eq!(x.len(), self.num_columns(), "input length mismatch");
        let mut ml = Matchline::precharged(self.matchline_config());
        for v in self.staircase.iter() {
            let mut i_total = 0.0;
            for (col, column) in self.cells.iter().enumerate() {
                if !x.get(col) {
                    continue;
                }
                for cell in column {
                    i_total += cell.current_in_phase(v, true, rng);
                }
            }
            ml.integrate_phase(i_total);
        }
        ml.voltage()
    }

    /// Fraction of the per-cell current variability that is *temporal*
    /// (redrawn per read). The bulk of the 1FeFET1R current spread is
    /// static mismatch, which a replica-referenced comparison largely
    /// cancels (both arrays carry it); only thermal/flicker noise
    /// remains per-read. This is what keeps the Fig. 8 classification
    /// clean even at loads of thousands of units.
    const TEMPORAL_NOISE_FRACTION: f64 = 0.1;

    /// The constants of a fast-path read, which outlive the cells.
    pub(super) fn fast_read(&self) -> &ArrayRead {
        &self.fast
    }

    /// The matchline configuration in use.
    pub fn matchline_config(&self) -> &MatchlineConfig {
        self.fast.matchline_config()
    }

    /// Per-phase ML voltage trace of a device-accurate evaluation —
    /// the transient waveform of paper Fig. 4(c) / Fig. 5(f).
    ///
    /// Returns `num_phases + 1` samples: precharge voltage followed by
    /// the voltage after each phase.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_columns()`.
    pub fn waveform<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> Vec<f64> {
        assert_eq!(x.len(), self.num_columns(), "input length mismatch");
        let mut ml = Matchline::precharged(self.matchline_config());
        let mut trace = vec![ml.voltage()];
        for v in self.staircase.iter() {
            let mut i_total = 0.0;
            for (col, column) in self.cells.iter().enumerate() {
                if !x.get(col) {
                    continue;
                }
                for cell in column {
                    i_total += cell.current_in_phase(v, true, rng);
                }
            }
            ml.integrate_phase(i_total);
            trace.push(ml.voltage());
        }
        trace
    }
}

impl fmt::Display for FilterArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FilterArray({}×{}, {} fidelity)",
            self.rows,
            self.num_columns(),
            self.fidelity
        )
    }
}

/// Decomposes an item weight into `rows` sub-weights of at most
/// `max_level` each: greedy fill (`w = 4+4+…+r+0+…`), per paper
/// Sec 3.3 ("each item weight wᵢ is decomposed into multiple wᵢⱼ
/// values").
fn decompose_weight(w: u64, rows: usize, max_level: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(rows);
    let mut remaining = w;
    for _ in 0..rows {
        let sub = remaining.min(u64::from(max_level)) as u8;
        out.push(sub);
        remaining -= u64::from(sub);
    }
    debug_assert_eq!(remaining, 0, "weight {w} does not fit {rows} rows");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ideal_config() -> FilterConfig {
        FilterConfig::default().with_variation(VariationModel::none())
    }

    #[test]
    fn decomposition_sums_to_weight() {
        for w in 0..=64u64 {
            let subs = decompose_weight(w, 16, 4);
            assert_eq!(subs.len(), 16);
            assert_eq!(subs.iter().map(|&s| u64::from(s)).sum::<u64>(), w);
            assert!(subs.iter().all(|&s| s <= 4));
        }
    }

    #[test]
    fn rejects_oversized_weight() {
        let mut rng = StdRng::seed_from_u64(1);
        let err = FilterArray::program(&[65], &ideal_config(), &mut rng).unwrap_err();
        assert!(matches!(
            err,
            CimError::WeightTooLarge {
                item: 0,
                weight: 65,
                limit: 64
            }
        ));
    }

    #[test]
    fn rejects_empty() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(matches!(
            FilterArray::program(&[], &ideal_config(), &mut rng),
            Err(CimError::EmptyProblem)
        ));
    }

    #[test]
    fn ml_voltage_is_linear_in_load_device_accurate() {
        // Paper Eq. 9: ML ∝ −Σwᵢxᵢ, validated cell-by-cell.
        let cfg = ideal_config().with_fidelity(Fidelity::DeviceAccurate);
        let mut rng = StdRng::seed_from_u64(2);
        let array = FilterArray::program(&[4, 7, 2, 11], &cfg, &mut rng).unwrap();
        let vdd = cfg.matchline.vdd;
        let unit = cfg.matchline.unit_drop();
        let cases = [
            (Assignment::from_bits([false, false, false, false]), 0),
            (Assignment::from_bits([true, false, false, false]), 4),
            (Assignment::from_bits([true, true, false, false]), 11),
            (Assignment::from_bits([true, true, true, true]), 24),
        ];
        for (x, load) in cases {
            let ml = array.evaluate(&x, &mut rng);
            let expected = vdd - unit * load as f64;
            assert!(
                (ml - expected).abs() < 0.02 * unit * (load.max(1) as f64),
                "load {load}: ml {ml}, expected {expected}"
            );
        }
    }

    #[test]
    fn fast_and_device_paths_agree_in_expectation() {
        let mut rng = StdRng::seed_from_u64(3);
        let dev_cfg = FilterConfig::default().with_fidelity(Fidelity::DeviceAccurate);
        let fast_cfg = FilterConfig::default().with_fidelity(Fidelity::Fast);
        let weights = [10, 20, 30, 4];
        let dev = FilterArray::program(&weights, &dev_cfg, &mut rng).unwrap();
        let fast = FilterArray::program(&weights, &fast_cfg, &mut rng).unwrap();
        let x = Assignment::from_bits([true, true, false, true]);
        let avg = |a: &FilterArray, rng: &mut StdRng| {
            (0..200).map(|_| a.evaluate(&x, rng)).sum::<f64>() / 200.0
        };
        let m_dev = avg(&dev, &mut rng);
        let m_fast = avg(&fast, &mut rng);
        let unit = dev_cfg.matchline.unit_drop();
        assert!(
            (m_dev - m_fast).abs() < 2.0 * unit,
            "means differ: device {m_dev}, fast {m_fast}"
        );
    }

    #[test]
    fn waveform_descends_monotonically() {
        let cfg = ideal_config().with_fidelity(Fidelity::DeviceAccurate);
        let mut rng = StdRng::seed_from_u64(4);
        let array = FilterArray::program(&[4, 7, 2], &cfg, &mut rng).unwrap();
        let trace = array.waveform(&Assignment::from_bits([true, true, true]), &mut rng);
        assert_eq!(trace.len(), 5); // precharge + 4 phases
        assert!(trace.windows(2).all(|w| w[1] <= w[0] + 1e-12));
        assert_eq!(trace[0], 2.0);
    }

    #[test]
    fn zero_input_keeps_ml_at_vdd() {
        let cfg = ideal_config().with_fidelity(Fidelity::DeviceAccurate);
        let mut rng = StdRng::seed_from_u64(5);
        let array = FilterArray::program(&[64, 64], &cfg, &mut rng).unwrap();
        let ml = array.evaluate(&Assignment::zeros(2), &mut rng);
        // Only leakage currents: drop far below one unit.
        assert!(2.0 - ml < 0.1 * cfg.matchline.unit_drop());
    }
}
