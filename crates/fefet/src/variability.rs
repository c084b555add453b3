use rand::Rng;

/// Stochastic non-idealities of the FeFET devices: the spread visible
/// across the 60 measured devices of paper Fig. 2(b).
///
/// Three components, all Gaussian and independently sampled:
///
/// * **device-to-device** threshold offset, fixed per device at
///   fabrication;
/// * **cycle-to-cycle** threshold shift, redrawn at every read;
/// * **relative current noise**, a multiplicative log-normal-ish
///   factor `max(0, 1 + N(0, σ))` on each current sample.
///
/// # Example
///
/// ```
/// use hycim_fefet::VariationModel;
///
/// let noisy = VariationModel::default();
/// let clean = VariationModel::none();
/// assert!(noisy.vt_sigma_d2d() > 0.0);
/// assert_eq!(clean.vt_sigma_d2d(), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VariationModel {
    vt_sigma_d2d: f64,
    vt_sigma_c2c: f64,
    current_sigma_rel: f64,
}

impl VariationModel {
    /// Calibrated default: ~30 mV device-to-device and ~10 mV
    /// cycle-to-cycle Vt sigma with 3% relative current noise —
    /// consistent with the level separation the paper relies on
    /// (adjacent thresholds are 500 mV apart, so levels remain well
    /// separated, matching the clean classification of Fig. 8).
    pub fn paper() -> Self {
        Self {
            vt_sigma_d2d: 0.030,
            vt_sigma_c2c: 0.010,
            current_sigma_rel: 0.03,
        }
    }

    /// No variability at all (ideal hardware).
    pub fn none() -> Self {
        Self {
            vt_sigma_d2d: 0.0,
            vt_sigma_c2c: 0.0,
            current_sigma_rel: 0.0,
        }
    }

    /// Custom variability model.
    ///
    /// # Panics
    ///
    /// Panics if any sigma is negative or non-finite.
    pub fn new(vt_sigma_d2d: f64, vt_sigma_c2c: f64, current_sigma_rel: f64) -> Self {
        for (name, s) in [
            ("vt_sigma_d2d", vt_sigma_d2d),
            ("vt_sigma_c2c", vt_sigma_c2c),
            ("current_sigma_rel", current_sigma_rel),
        ] {
            assert!(s >= 0.0 && s.is_finite(), "{name} must be non-negative");
        }
        Self {
            vt_sigma_d2d,
            vt_sigma_c2c,
            current_sigma_rel,
        }
    }

    /// Device-to-device threshold sigma (V).
    pub fn vt_sigma_d2d(&self) -> f64 {
        self.vt_sigma_d2d
    }

    /// Cycle-to-cycle threshold sigma (V).
    pub fn vt_sigma_c2c(&self) -> f64 {
        self.vt_sigma_c2c
    }

    /// Relative current noise sigma.
    pub fn current_sigma_rel(&self) -> f64 {
        self.current_sigma_rel
    }

    /// Returns a copy scaled by `factor` on every sigma — convenient
    /// for variability sweeps in ablation benches.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "scale factor must be non-negative");
        Self {
            vt_sigma_d2d: self.vt_sigma_d2d * factor,
            vt_sigma_c2c: self.vt_sigma_c2c * factor,
            current_sigma_rel: self.current_sigma_rel * factor,
        }
    }

    /// Samples a device's fixed Vt offset (V).
    pub fn sample_d2d_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        gaussian(rng) * self.vt_sigma_d2d
    }

    /// Samples a per-read Vt shift (V).
    pub fn sample_c2c_shift<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.vt_sigma_c2c == 0.0 {
            return 0.0;
        }
        gaussian(rng) * self.vt_sigma_c2c
    }

    /// Samples a multiplicative current factor (≥ 0, mean ≈ 1).
    pub fn sample_current_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.current_sigma_rel == 0.0 {
            return 1.0;
        }
        (1.0 + gaussian(rng) * self.current_sigma_rel).max(0.0)
    }
}

impl Default for VariationModel {
    fn default() -> Self {
        Self::paper()
    }
}

/// Standard normal sample via Box–Muller (keeps the workspace free of
/// distribution dependencies). Every noise source of the device and
/// circuit models draws through this one function.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.random::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// Advances `rng` exactly as one [`gaussian`] call does — the same
/// redraws of `u1`, then `u2` — without the transcendental math. For
/// callers that can prove the sample cannot matter (see
/// [`GAUSSIAN_MAX`]) but must keep the stream where it would be.
pub fn skip_gaussian<R: Rng + ?Sized>(rng: &mut R) {
    while rng.random::<f64>() <= f64::MIN_POSITIVE {}
    rng.random::<f64>();
}

/// An upper bound on `|gaussian(rng)|` for every possible stream.
///
/// `u1` is a 53-bit uniform `k·2⁻⁵³`, and the redraw loop rejects
/// `k = 0`, so `u1 ≥ 2⁻⁵³`. Hence `−2·ln u1 ≤ 106·ln 2` and the
/// magnitude is at most `√(106·ln 2) · |cos| ≤ 8.5716`. The constant is
/// rounded up to 8.6 so the few ulps of `ln`/`sqrt`/`cos` rounding
/// cannot reach it.
pub const GAUSSIAN_MAX: f64 = 8.6;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn none_is_deterministic() {
        let v = VariationModel::none();
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(v.sample_d2d_offset(&mut rng), 0.0);
        assert_eq!(v.sample_c2c_shift(&mut rng), 0.0);
        assert_eq!(v.sample_current_factor(&mut rng), 1.0);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let samples: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    /// Yields a fixed list of raw 64-bit words.
    struct Words(std::vec::IntoIter<u64>);

    impl rand::RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.0.next().expect("stream exhausted")
        }
    }

    #[test]
    fn largest_gaussian_magnitude_is_below_the_bound() {
        // u1 = 2⁻⁵³ (the smallest accepted draw) and u2 = 0 (cos = 1).
        let mut rng = Words(vec![1 << 11, 0].into_iter());
        let z = gaussian(&mut rng);
        assert!(z > 8.57, "extreme sample {z}");
        assert!(z < GAUSSIAN_MAX, "extreme sample {z}");
        assert!((z - (106.0 * std::f64::consts::LN_2).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn skip_gaussian_advances_like_gaussian() {
        // Two rejected u1 draws (0 and 0 again) before the accepted one.
        let words = vec![0, 0, 5 << 11, 7 << 40, 99];
        let mut drawn = Words(words.clone().into_iter());
        let mut skipped = Words(words.into_iter());
        gaussian(&mut drawn);
        skip_gaussian(&mut skipped);
        assert_eq!(drawn.next_u64(), 99);
        assert_eq!(skipped.next_u64(), 99);
        for seed in 0..50 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            gaussian(&mut a);
            skip_gaussian(&mut b);
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn sigma_controls_spread() {
        let tight = VariationModel::new(0.01, 0.0, 0.0);
        let wide = VariationModel::new(0.10, 0.0, 0.0);
        let spread = |v: &VariationModel, seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<f64> = (0..2000).map(|_| v.sample_d2d_offset(&mut rng)).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64).sqrt()
        };
        assert!(spread(&wide, 3) > 5.0 * spread(&tight, 3));
    }

    #[test]
    fn current_factor_is_nonnegative() {
        let v = VariationModel::new(0.0, 0.0, 1.0); // huge noise
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5000 {
            assert!(v.sample_current_factor(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn scaled_zero_equals_none() {
        assert_eq!(VariationModel::paper().scaled(0.0), VariationModel::none());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_rejected() {
        let _ = VariationModel::new(-0.1, 0.0, 0.0);
    }
}
