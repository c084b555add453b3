use std::fmt;

use rand::Rng;

use crate::VariationModel;

/// Specification of a multi-level FeFET: per-level threshold voltages
/// and the read voltages that discriminate them (paper Fig. 2(a,b),
/// Fig. 4(b)).
///
/// Levels are ordered by stored value: level 0 is the erased (high-Vt,
/// never conducting) state; higher levels have progressively *lower*
/// thresholds, so read voltage `Vread_j` (which sits between the
/// thresholds of levels `j−1` and `j`) turns ON exactly the cells
/// storing level ≥ `j`.
///
/// # Example
///
/// ```
/// use hycim_fefet::MultiLevelSpec;
///
/// let spec = MultiLevelSpec::paper_filter();
/// assert_eq!(spec.max_level(), 4);
/// // Read voltages decrease with index: Vread1 > Vread4.
/// assert!(spec.read_voltage(1) > spec.read_voltage(4));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiLevelSpec {
    /// Threshold voltage of each level, index = stored level.
    /// Strictly decreasing.
    vt_levels: Vec<f64>,
    /// ON current at strong inversion (A). The paper's devices reach
    /// ~10⁻⁴ A (Fig. 2(b)); the 1FeFET1R clamp later regulates this.
    i_on: f64,
    /// OFF / leakage current (A), ~10⁻⁹ A in Fig. 2(b).
    i_off: f64,
    /// Logistic transition width (V) of the I_D–V_G characteristic —
    /// wider means a softer subthreshold slope.
    transition_width: f64,
    /// Maximum safe gate voltage (V).
    vg_limit: f64,
}

impl MultiLevelSpec {
    /// The 5-level device used by the inequality filter (weights 0..=4
    /// per cell, four read voltages; paper Sec 3.3, Fig. 4(b)).
    ///
    /// Threshold spacing and current range follow the measured curves
    /// of Fig. 2(b): thresholds span ~0.2–2.2 V, currents 1 nA–100 µA,
    /// VDD = 2 V.
    pub fn paper_filter() -> Self {
        Self {
            // Level:      0     1     2     3     4
            vt_levels: vec![2.2, 1.7, 1.2, 0.7, 0.2],
            i_on: 1.0e-4,
            i_off: 1.0e-9,
            transition_width: 0.06,
            vg_limit: 4.0,
        }
    }

    /// The binary (2-level) device used by the QUBO crossbar cells
    /// (1 bit per 1FeFET1R cell; paper Sec 3.4, Fig. 6(a)).
    pub fn paper_binary() -> Self {
        Self {
            vt_levels: vec![2.2, 0.7],
            i_on: 1.0e-4,
            i_off: 1.0e-9,
            transition_width: 0.06,
            vg_limit: 4.0,
        }
    }

    /// Creates a custom specification.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two levels are given, thresholds are not
    /// strictly decreasing, or currents are not positive with
    /// `i_on > i_off`.
    pub fn new(vt_levels: Vec<f64>, i_on: f64, i_off: f64, transition_width: f64) -> Self {
        assert!(vt_levels.len() >= 2, "need at least two levels");
        assert!(
            vt_levels.windows(2).all(|w| w[0] > w[1]),
            "thresholds must strictly decrease with level"
        );
        assert!(i_on > i_off && i_off > 0.0, "need i_on > i_off > 0");
        assert!(transition_width > 0.0, "transition width must be positive");
        let vg_limit = vt_levels[0] + 2.0;
        Self {
            vt_levels,
            i_on,
            i_off,
            transition_width,
            vg_limit,
        }
    }

    /// Highest storable level (`number of levels − 1`).
    pub fn max_level(&self) -> u8 {
        (self.vt_levels.len() - 1) as u8
    }

    /// Nominal threshold voltage of `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds [`max_level`](Self::max_level).
    pub fn threshold(&self, level: u8) -> f64 {
        self.vt_levels[usize::from(level)]
    }

    /// ON current at strong inversion (A).
    pub fn i_on(&self) -> f64 {
        self.i_on
    }

    /// OFF current (A).
    fn i_off(&self) -> f64 {
        self.i_off
    }

    /// Maximum safe gate voltage (V).
    fn vg_limit(&self) -> f64 {
        self.vg_limit
    }

    /// Read voltage `Vread_j` for `j in 1..=max_level()`: the midpoint
    /// between the thresholds of levels `j−1` and `j`, so it turns ON
    /// exactly the cells storing level ≥ `j` (paper Fig. 4(b)).
    ///
    /// # Panics
    ///
    /// Panics if `j == 0` or `j > max_level()`.
    pub fn read_voltage(&self, j: u8) -> f64 {
        assert!(
            j >= 1 && j <= self.max_level(),
            "read index {j} outside 1..={}",
            self.max_level()
        );
        let hi = self.vt_levels[usize::from(j) - 1];
        let lo = self.vt_levels[usize::from(j)];
        (hi + lo) / 2.0
    }

    /// All read voltages `Vread_1 ..= Vread_max`, highest first.
    pub fn read_voltages(&self) -> Vec<f64> {
        (1..=self.max_level())
            .map(|j| self.read_voltage(j))
            .collect()
    }
}

impl fmt::Display for MultiLevelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MultiLevelSpec({} levels, Vt {:.2}..{:.2} V, Ion {:.1e} A)",
            self.vt_levels.len(),
            self.vt_levels[0],
            self.vt_levels[self.vt_levels.len() - 1],
            self.i_on
        )
    }
}

/// One FeFET device instance: a sampled threshold-voltage offset
/// (device-to-device variation) plus the currently programmed level.
///
/// The transfer characteristic is a logistic ramp between `i_off` and
/// `i_on` centered on the level's threshold — a standard behavioral
/// stand-in for the measured I_D–V_G curves of Fig. 2(b).
#[derive(Debug, Clone, PartialEq)]
pub struct FefetDevice {
    spec: MultiLevelSpec,
    variation: VariationModel,
    /// Fixed device-to-device Vt offset sampled at fabrication (V).
    vt_offset: f64,
    level: u8,
}

impl FefetDevice {
    /// Fabricates a device: samples its device-to-device Vt offset
    /// from `variation` using `rng`. Starts erased (level 0).
    pub fn sample<R: Rng + ?Sized>(
        spec: &MultiLevelSpec,
        variation: &VariationModel,
        rng: &mut R,
    ) -> Self {
        Self {
            spec: spec.clone(),
            variation: variation.clone(),
            vt_offset: variation.sample_d2d_offset(rng),
            level: 0,
        }
    }

    /// An ideal (variation-free) device, for noise-free reference runs.
    pub fn ideal(spec: &MultiLevelSpec) -> Self {
        Self {
            spec: spec.clone(),
            variation: VariationModel::none(),
            vt_offset: 0.0,
            level: 0,
        }
    }

    /// Device specification.
    pub fn spec(&self) -> &MultiLevelSpec {
        &self.spec
    }

    /// Currently programmed level.
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Programs the device to `level` (an idealized write: the stored
    /// level is set directly).
    ///
    /// # Panics
    ///
    /// Panics if the level is not supported.
    pub fn program(&mut self, level: u8) {
        let max_level = self.spec.max_level();
        assert!(
            level <= max_level,
            "storage level {level} exceeds device maximum {max_level}"
        );
        self.level = level;
    }

    /// Erases the device back to level 0.
    pub fn erase(&mut self) {
        self.level = 0;
    }

    /// Effective threshold voltage: nominal level threshold plus the
    /// device's fixed offset.
    fn effective_threshold(&self) -> f64 {
        self.spec.threshold(self.level) + self.vt_offset
    }

    /// Drain current at gate voltage `vg` (A), including
    /// cycle-to-cycle read noise drawn from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `vg` exceeds the safe gate limit.
    pub fn drain_current<R: Rng + ?Sized>(&self, vg: f64, rng: &mut R) -> f64 {
        let limit = self.spec.vg_limit();
        if vg.abs() > limit {
            panic!("voltage {vg} V exceeds safe limit {limit} V");
        }
        let vt = self.effective_threshold() + self.variation.sample_c2c_shift(rng);
        // Logistic I_D–V_G in log-current space: interpolate the
        // exponent between log(i_off) and log(i_on) so the subthreshold
        // region decays exponentially like a real transfer curve.
        let s = 1.0 / (1.0 + (-(vg - vt) / self.spec.transition_width).exp());
        let log_i = self.spec.i_off().ln() * (1.0 - s) + self.spec.i_on().ln() * s;
        let noise = self.variation.sample_current_factor(rng);
        log_i.exp() * noise
    }

    /// Whether the device conducts (current above the geometric mean of
    /// ON and OFF currents) at gate voltage `vg`.
    ///
    /// # Panics
    ///
    /// Panics if `vg` exceeds the safe gate limit.
    pub fn is_on<R: Rng + ?Sized>(&self, vg: f64, rng: &mut R) -> bool {
        let mid = (self.spec.i_on().ln() + self.spec.i_off().ln()) / 2.0;
        self.drain_current(vg, rng) > mid.exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_filter_spec_shape() {
        let spec = MultiLevelSpec::paper_filter();
        assert_eq!(spec.max_level(), 4);
        // Read voltages strictly decrease with index (staircase goes
        // from Vread4 up to Vread1; paper Fig. 4(c)).
        let v = spec.read_voltages();
        assert!(v.windows(2).all(|w| w[0] > w[1]));
    }

    #[test]
    fn read_voltage_separates_levels() {
        let spec = MultiLevelSpec::paper_filter();
        for j in 1..=4u8 {
            let vread = spec.read_voltage(j);
            for level in 0..=4u8 {
                let conducts = vread > spec.threshold(level);
                assert_eq!(
                    conducts,
                    level >= j,
                    "Vread{j} vs level {level}: expected on iff level >= j"
                );
            }
        }
    }

    #[test]
    fn multilevel_currents_are_ordered() {
        // A fixed Vg between thresholds: higher level → more current.
        let spec = MultiLevelSpec::paper_filter();
        let mut rng = StdRng::seed_from_u64(3);
        let mut dev = FefetDevice::ideal(&spec);
        let vg = 1.0;
        let mut last = 0.0;
        for level in 0..=4u8 {
            dev.program(level);
            let i = dev.drain_current(vg, &mut rng);
            assert!(i >= last, "current not monotone at level {level}");
            last = i;
        }
    }

    #[test]
    fn ideal_device_on_off_contrast() {
        let spec = MultiLevelSpec::paper_binary();
        let mut rng = StdRng::seed_from_u64(4);
        let mut dev = FefetDevice::ideal(&spec);
        dev.program(1);
        let i_on = dev.drain_current(1.95, &mut rng); // Vread1
        dev.erase();
        let i_off = dev.drain_current(1.95, &mut rng);
        assert!(
            i_on / i_off > 1e3,
            "ON/OFF ratio too small: {i_on:.2e}/{i_off:.2e}"
        );
    }

    #[test]
    #[should_panic(expected = "storage level 5 exceeds device maximum 1")]
    fn program_validates_level() {
        let spec = MultiLevelSpec::paper_binary();
        let mut dev = FefetDevice::ideal(&spec);
        dev.program(1);
        assert_eq!(dev.level(), 1);
        dev.program(5);
    }

    #[test]
    #[should_panic(expected = "voltage 9 V exceeds safe limit")]
    fn voltage_limit_enforced() {
        let spec = MultiLevelSpec::paper_filter();
        let dev = FefetDevice::ideal(&spec);
        let mut rng = StdRng::seed_from_u64(5);
        dev.drain_current(9.0, &mut rng);
    }

    #[test]
    fn d2d_variation_spreads_thresholds() {
        let spec = MultiLevelSpec::paper_filter();
        let variation = VariationModel::default();
        let mut rng = StdRng::seed_from_u64(6);
        let offsets: Vec<f64> = (0..60)
            .map(|_| FefetDevice::sample(&spec, &variation, &mut rng).vt_offset)
            .collect();
        let mean = offsets.iter().sum::<f64>() / offsets.len() as f64;
        let var = offsets.iter().map(|o| (o - mean).powi(2)).sum::<f64>() / offsets.len() as f64;
        assert!(var.sqrt() > 0.0, "no device-to-device spread");
        assert!(mean.abs() < 0.05, "offset mean too far from zero: {mean}");
    }

    #[test]
    #[should_panic(expected = "strictly decrease")]
    fn spec_rejects_unordered_thresholds() {
        let _ = MultiLevelSpec::new(vec![1.0, 1.5], 1e-4, 1e-9, 0.06);
    }

    #[test]
    fn display_mentions_levels() {
        assert!(MultiLevelSpec::paper_filter()
            .to_string()
            .contains("5 levels"));
    }
}
