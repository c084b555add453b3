use std::fmt;

use rand::Rng;

use crate::{FefetDevice, MultiLevelSpec, VariationModel};

/// A 1FeFET1R cell: one FeFET in series with a resistor R that clamps
/// the ON current (paper Fig. 4(a)).
///
/// The clamp is the paper's variability-regulation trick (\[24, 25\],
/// Fig. 4(b)): the FeFET's ON current varies device-to-device over
/// orders of magnitude, but in series with R the cell current
/// saturates at ≈ `V_DL / R`, so all ON cells draw nearly identical
/// current — a prerequisite for the matchline voltage being *linear*
/// in the number of conducting cells (Eq. 7) and for the crossbar
/// current being linear in the number of activated cells (Fig. 7(d)).
///
/// # Example
///
/// ```
/// use hycim_fefet::{FefetCell, MultiLevelSpec, VariationModel};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let spec = MultiLevelSpec::paper_binary();
/// let mut rng = StdRng::seed_from_u64(9);
/// let mut cell = FefetCell::sample(&spec, &VariationModel::default(), &mut rng);
/// let vread = spec.read_voltage(1);
/// assert!(!cell.is_on(vread, &mut rng)); // erased: stores 0
/// cell.program(1);
/// assert!(cell.is_on(vread, &mut rng)); // stores 1: conducts at the clamp
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FefetCell {
    device: FefetDevice,
}

impl FefetCell {
    /// Series resistance (Ω). With the drive below the clamped ON
    /// current `DRIVE / RESISTANCE` is 2 µA, matching the ~2 µA/cell
    /// slope of the measured crossbar linearity (paper Fig. 7(d):
    /// ~64 µA at 32 cells).
    const RESISTANCE: f64 = 25_000.0;
    /// Drain-line voltage when driven (V). The paper reads at
    /// V_DS = 50 mV (Fig. 2(b)).
    const DRIVE: f64 = 0.05;

    /// Fabricates a cell with sampled device variability.
    pub fn sample<R: Rng + ?Sized>(
        spec: &MultiLevelSpec,
        variation: &VariationModel,
        rng: &mut R,
    ) -> Self {
        Self {
            device: FefetDevice::sample(spec, variation, rng),
        }
    }

    /// An ideal, variation-free cell.
    pub fn ideal(spec: &MultiLevelSpec) -> Self {
        Self {
            device: FefetDevice::ideal(spec),
        }
    }

    /// Currently stored level.
    pub fn level(&self) -> u8 {
        self.device.level()
    }

    /// Programs the stored level.
    ///
    /// # Panics
    ///
    /// Panics if `level` exceeds the device's range.
    pub fn program(&mut self, level: u8) {
        self.device.program(level);
    }

    /// Erases to level 0.
    pub fn erase(&mut self) {
        self.device.erase();
    }

    /// Nominal clamped ON current (A).
    pub fn clamp_current(&self) -> f64 {
        Self::DRIVE / Self::RESISTANCE
    }

    /// Cell current at gate voltage `vg` (A): the FeFET current
    /// limited by the series-R clamp.
    ///
    /// # Panics
    ///
    /// Panics if `vg` exceeds the device's safe range.
    pub fn current<R: Rng + ?Sized>(&self, vg: f64, rng: &mut R) -> f64 {
        let i_fet = self.device.drain_current(vg, rng);
        // Series R: the cell current cannot exceed V/R; when the FeFET
        // is strongly ON the resistor dominates, compressing
        // variability (paper Fig. 4(b)).
        let i_clamp = self.clamp_current();
        i_fet * i_clamp / (i_fet + i_clamp)
    }

    /// Whether the cell conducts meaningfully (≥ half the clamp
    /// current) at gate voltage `vg`.
    ///
    /// # Panics
    ///
    /// Panics if `vg` exceeds the device's safe range.
    pub fn is_on<R: Rng + ?Sized>(&self, vg: f64, rng: &mut R) -> bool {
        self.current(vg, rng) >= 0.5 * self.clamp_current()
    }
}

impl fmt::Display for FefetCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FefetCell(level={}, R={:.0} Ω, clamp={:.2e} A)",
            self.level(),
            Self::RESISTANCE,
            self.clamp_current()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clamp_compresses_on_current_spread() {
        // The Fig. 4(b) effect: raw FeFET ON currents vary widely; the
        // 1FeFET1R cell currents cluster tightly at the clamp value.
        let spec = MultiLevelSpec::paper_binary();
        let variation = VariationModel::new(0.05, 0.01, 0.20); // exaggerated
        let mut rng = StdRng::seed_from_u64(10);
        let vread = spec.read_voltage(1);

        let mut raw = Vec::new();
        let mut clamped = Vec::new();
        for _ in 0..60 {
            let mut cell = FefetCell::sample(&spec, &variation, &mut rng);
            cell.program(1);
            raw.push(cell.device.drain_current(vread, &mut rng));
            clamped.push(cell.current(vread, &mut rng));
        }
        let rel_spread = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let sd = (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
            sd / m
        };
        assert!(
            rel_spread(&clamped) < 0.5 * rel_spread(&raw),
            "clamp failed to compress spread: {} vs {}",
            rel_spread(&clamped),
            rel_spread(&raw)
        );
    }

    #[test]
    fn off_cell_draws_negligible_current() {
        let spec = MultiLevelSpec::paper_binary();
        let cell = FefetCell::ideal(&spec); // erased
        let mut rng = StdRng::seed_from_u64(11);
        let vread = spec.read_voltage(1);
        assert!(cell.current(vread, &mut rng) < 0.01 * cell.clamp_current());
        assert!(!cell.is_on(vread, &mut rng));
    }

    #[test]
    fn default_clamp_is_two_microamps() {
        let spec = MultiLevelSpec::paper_binary();
        let cell = FefetCell::ideal(&spec);
        assert!((cell.clamp_current() - 2.0e-6).abs() < 1e-12);
    }
}
