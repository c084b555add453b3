//! Property-based tests of the device-model invariants.

use hycim_fefet::{FefetCell, FefetDevice, MultiLevelSpec, VariationModel};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drain current is monotone non-decreasing in gate voltage for
    /// any programmed level (ideal device).
    #[test]
    fn current_monotone_in_vg(level in 0u8..=4, a in 0.0f64..3.0, b in 0.0f64..3.0) {
        let spec = MultiLevelSpec::paper_filter();
        let mut dev = FefetDevice::ideal(&spec);
        dev.program(level);
        let mut rng = StdRng::seed_from_u64(1);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let i_lo = dev.drain_current(lo, &mut rng);
        let i_hi = dev.drain_current(hi, &mut rng);
        prop_assert!(i_hi >= i_lo * 0.999, "current fell with Vg: {i_lo:.3e} -> {i_hi:.3e}");
    }

    /// At any read voltage, a higher programmed level never conducts
    /// less than a lower one (ideal device).
    #[test]
    fn current_monotone_in_level(vg in 0.0f64..2.5) {
        let spec = MultiLevelSpec::paper_filter();
        let mut rng = StdRng::seed_from_u64(2);
        let mut last = 0.0;
        for level in 0..=4u8 {
            let mut dev = FefetDevice::ideal(&spec);
            dev.program(level);
            let i = dev.drain_current(vg, &mut rng);
            prop_assert!(i >= last * 0.999, "level {level} conducts less at {vg} V");
            last = i;
        }
    }

    /// The 1FeFET1R clamp bounds every cell current by V/R regardless
    /// of device state or variability.
    #[test]
    fn clamp_is_a_hard_upper_bound(level in 0u8..=1, seed in any::<u64>(), vg in 0.0f64..2.5) {
        let spec = MultiLevelSpec::paper_binary();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cell = FefetCell::sample(&spec, &VariationModel::paper(), &mut rng);
        cell.program(level);
        let i = cell.current(vg, &mut rng);
        // Allow for the multiplicative read-noise factor on top of the
        // series blend (noise can exceed 1 but the blend halves it well
        // below the clamp ceiling for any realistic factor).
        prop_assert!(i <= cell.clamp_current() * 1.5, "current {i:.3e} above clamp");
        prop_assert!(i >= 0.0);
    }

    /// Staircase conduction count equals the stored level for every
    /// level of any well-formed spec.
    #[test]
    fn staircase_counts_levels(pitch in 0.3f64..0.8) {
        let vts: Vec<f64> = (0..5).map(|k| 2.2 - pitch * k as f64).collect();
        let spec = MultiLevelSpec::new(vts, 1e-4, 1e-9, 0.05);
        let stair = hycim_fefet::StaircasePulse::for_spec(&spec);
        for level in 0..=spec.max_level() {
            let vt = spec.threshold(level);
            let conducting = stair.iter().filter(|&v| v > vt).count();
            prop_assert_eq!(conducting, usize::from(level));
        }
    }
}
