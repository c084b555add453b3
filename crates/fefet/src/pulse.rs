use crate::MultiLevelSpec;

/// The multi-phase staircase read pulse of the inequality filter
/// (paper Fig. 4(c)): phase `t` (0-based) applies `Vread_{L−t}`,
/// rising from the lowest read voltage (`Vread_L`, selecting only the
/// highest stored level) to the highest (`Vread_1`, selecting every
/// nonzero level). A cell storing level `k` therefore conducts in
/// exactly `k` phases, which is what makes the matchline discharge
/// proportional to the stored weight (paper Eq. 7–8).
///
/// # Example
///
/// ```
/// use hycim_fefet::{MultiLevelSpec, StaircasePulse};
///
/// let spec = MultiLevelSpec::paper_filter();
/// let stair = StaircasePulse::for_spec(&spec);
/// let volts: Vec<f64> = stair.iter().collect();
/// assert_eq!(volts.len(), 4);
/// // Amplitude rises phase by phase.
/// assert!(volts.windows(2).all(|w| w[0] < w[1]));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StaircasePulse {
    /// Voltage applied in each phase, ascending.
    phase_voltages: Vec<f64>,
}

impl StaircasePulse {
    /// Builds the staircase matching a device spec: one phase per read
    /// voltage, ascending (`Vread_L` first, `Vread_1` last).
    pub fn for_spec(spec: &MultiLevelSpec) -> Self {
        let mut v = spec.read_voltages(); // Vread_1 (highest) .. Vread_L (lowest)
        v.reverse(); // ascend: Vread_L .. Vread_1
        Self { phase_voltages: v }
    }

    /// Iterates over the phase voltages in time order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.phase_voltages.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_matches_spec_read_voltages() {
        let spec = MultiLevelSpec::paper_filter();
        let stair = StaircasePulse::for_spec(&spec);
        assert_eq!(stair.phase_voltages.len(), 4);
        // Phase 0 applies Vread_4 (lowest), phase 3 applies Vread_1.
        assert!((stair.phase_voltages[0] - spec.read_voltage(4)).abs() < 1e-12);
        assert!((stair.phase_voltages[3] - spec.read_voltage(1)).abs() < 1e-12);
    }

    #[test]
    fn conduction_count_equals_stored_level() {
        // The core staircase property behind ML ∝ −wᵢxᵢ (Eq. 8).
        let spec = MultiLevelSpec::paper_filter();
        let stair = StaircasePulse::for_spec(&spec);
        for level in 0..=4u8 {
            let vt = spec.threshold(level);
            let conducting = stair.iter().filter(|&v| v > vt).count();
            assert_eq!(conducting, usize::from(level), "level {level}");
        }
    }
}
