use std::fmt;

use hycim_fefet::{FefetCell, MultiLevelSpec, VariationModel};
use rand::Rng;

/// One 1FeFET1R filter cell storing a sub-weight in `{0..=4}` (paper
/// Fig. 4(a,b)).
///
/// During a staircase phase with gate voltage `v`, the cell conducts
/// its clamped current iff the input variable is 1 **and** the stored
/// level's threshold lies below `v`. Over the full 4-phase staircase a
/// cell storing `w` therefore conducts in exactly `w` phases,
/// producing a matchline drop proportional to `w·x` (paper Eq. 7).
///
/// # Example
///
/// ```
/// use hycim_cim::filter::FilterCell;
/// use hycim_fefet::{MultiLevelSpec, StaircasePulse, VariationModel};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let spec = MultiLevelSpec::paper_filter();
/// let mut rng = StdRng::seed_from_u64(2);
/// let mut cell = FilterCell::sample(&spec, &VariationModel::none(), &mut rng);
/// cell.store(3);
/// let stair = StaircasePulse::for_spec(&spec);
/// let phases_on = stair
///     .iter()
///     .filter(|&v| cell.current_in_phase(v, true, &mut rng) > 1e-6)
///     .count();
/// assert_eq!(phases_on, 3);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FilterCell {
    inner: FefetCell,
}

impl FilterCell {
    /// Fabricates a filter cell with sampled device variability,
    /// initially storing weight 0.
    pub fn sample<R: Rng + ?Sized>(
        spec: &MultiLevelSpec,
        variation: &VariationModel,
        rng: &mut R,
    ) -> Self {
        Self {
            inner: FefetCell::sample(spec, variation, rng),
        }
    }

    /// Stored sub-weight.
    fn weight(&self) -> u8 {
        self.inner.level()
    }

    /// Programs the stored sub-weight.
    ///
    /// # Panics
    ///
    /// Panics if `weight` exceeds the device's level range.
    pub fn store(&mut self, weight: u8) {
        self.inner.program(weight);
    }

    /// Clamped ON current of this cell (A).
    pub fn clamp_current(&self) -> f64 {
        self.inner.clamp_current()
    }

    /// Cell current during one staircase phase (A): zero when the
    /// input variable `x` is 0 (gate grounded, paper Sec 3.3), else
    /// the device current at the phase's gate voltage.
    ///
    /// # Panics
    ///
    /// Panics if `phase_voltage` exceeds the device's safe range.
    pub fn current_in_phase<R: Rng + ?Sized>(
        &self,
        phase_voltage: f64,
        x: bool,
        rng: &mut R,
    ) -> f64 {
        if !x {
            return 0.0;
        }
        self.inner.current(phase_voltage, rng)
    }
}

impl fmt::Display for FilterCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FilterCell(w={})", self.weight())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_fefet::StaircasePulse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conduction_phases_equal_weight() {
        // The Fig. 4(c) property for every storable weight.
        let spec = MultiLevelSpec::paper_filter();
        let stair = StaircasePulse::for_spec(&spec);
        let mut rng = StdRng::seed_from_u64(3);
        for w in 0..=4u8 {
            let mut cell = FilterCell {
                inner: FefetCell::ideal(&spec),
            };
            cell.store(w);
            let on = stair
                .iter()
                .filter(|&v| cell.current_in_phase(v, true, &mut rng) > 0.5 * cell.clamp_current())
                .count();
            assert_eq!(on, usize::from(w), "weight {w}");
        }
    }

    #[test]
    fn grounded_gate_never_conducts() {
        let spec = MultiLevelSpec::paper_filter();
        let mut rng = StdRng::seed_from_u64(4);
        let mut cell = FilterCell {
            inner: FefetCell::ideal(&spec),
        };
        cell.store(4);
        for v in spec.read_voltages() {
            assert_eq!(cell.current_in_phase(v, false, &mut rng), 0.0);
        }
    }

    #[test]
    fn variability_preserves_classification() {
        // With the paper's variation, level separation (500 mV) must
        // dominate Vt noise (~30 mV) — every cell still conducts in
        // exactly `w` phases.
        let spec = MultiLevelSpec::paper_filter();
        let stair = StaircasePulse::for_spec(&spec);
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..50 {
            let w = trial % 5;
            let mut cell = FilterCell::sample(&spec, &VariationModel::paper(), &mut rng);
            cell.store(w as u8);
            let on = stair
                .iter()
                .filter(|&v| cell.current_in_phase(v, true, &mut rng) > 0.5 * cell.clamp_current())
                .count();
            assert_eq!(on, w, "trial {trial}");
        }
    }
}
