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
/// assert!(noisy.current_sigma_rel() > 0.0);
/// assert_eq!(clean.current_sigma_rel(), 0.0);
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
/// circuit models draws through this one function, or through
/// [`GaussianDraw`], which takes the same draws.
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    GaussianDraw::draw(rng).value()
}

/// The two uniforms of one Box–Muller sample, drawn but not yet turned
/// into a value.
///
/// A caller that needs the sample only when it could change a decision
/// draws first, asks [`bound`](Self::bound) for a cheap upper bound on
/// the magnitude, and computes [`value`](Self::value) (`ln`, `sqrt`,
/// `cos`) only when the bound cannot settle the decision. The stream
/// advances exactly as one [`gaussian`] call advances it.
///
/// # Example
///
/// ```
/// use hycim_fefet::{gaussian, GaussianDraw};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let draw = GaussianDraw::draw(&mut StdRng::seed_from_u64(3));
/// assert!(draw.value().abs() <= draw.bound());
/// assert_eq!(draw.value(), gaussian(&mut StdRng::seed_from_u64(3)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianDraw {
    u1: f64,
    u2: f64,
}

impl GaussianDraw {
    /// Draws `u1` (redrawn until it exceeds `f64::MIN_POSITIVE`) and
    /// then `u2`: the draws of one [`gaussian`] call.
    pub fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let u1: f64 = rng.random::<f64>();
            if u1 > f64::MIN_POSITIVE {
                let u2: f64 = rng.random::<f64>();
                return Self { u1, u2 };
            }
        }
    }

    /// The standard normal sample `√(−2 ln u1) · cos(2π u2)`.
    pub fn value(self) -> f64 {
        (-2.0 * self.u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * self.u2).cos()
    }

    /// A certified upper bound on `|value()|`, from `u1`'s bits alone:
    /// no `ln`, no `cos`, never NaN.
    ///
    /// For a normal `u1 = 2^(e−1023)·(1 + m/2⁵²)` the bit image is
    /// `b = e·2⁵² + m`, and the concave `log2` lies above its chord on
    /// `[1, 2]`: `log2(1 + x) ≥ x`. Hence `log2 u1 ≥ b/2⁵² − 1023` and
    /// `value² ≤ −2 ln u1 ≤ 2 ln 2 · (1023 − b/2⁵²)`. Converting `b`
    /// (below 2⁶²) to `f64` is off by at most 2⁸, i.e. 2⁻⁴⁴ after the
    /// exact division, and `1023 − b/2⁵²` is then exact (Sterbenz), so
    /// a margin of 2⁻⁴³ *inside* the root keeps the argument above its
    /// true value even as `u1 → 1`, where that value is about 2⁻⁵² (a
    /// margin outside the root would not cover the conversion error
    /// there). A factor `1 + 2⁻⁴⁰` covers the few ulps of
    /// `ln`/`sqrt`/`cos` in `value()` and of this product.
    pub fn bound(self) -> f64 {
        let chord = 1023.0 - self.u1.to_bits() as f64 / (1u64 << 52) as f64;
        (2.0 * std::f64::consts::LN_2 * (chord + Self::CHORD_MARGIN)).sqrt() * Self::ROUNDING_FACTOR
    }

    /// Margin inside the root of [`bound`](Self::bound): twice the
    /// worst error of the bit-image conversion.
    const CHORD_MARGIN: f64 = 1.0 / (1u64 << 43) as f64;

    /// Relative margin on [`bound`](Self::bound) for floating-point
    /// rounding (`1 + 2⁻⁴⁰`, far above the few ulps it covers).
    const ROUNDING_FACTOR: f64 = 1.0 + 1.0 / (1u64 << 40) as f64;
}

/// Advances `rng` exactly as one [`gaussian`] call does — the same
/// redraws of `u1`, then `u2` — without the transcendental math. For
/// callers that can prove the sample cannot matter (see
/// [`GAUSSIAN_MAX`]) before drawing, but must keep the stream where it
/// would be.
///
/// A uniform `u1` is `(w >> 11)·2⁻⁵³` for the raw word `w`, so it is at
/// most `f64::MIN_POSITIVE` exactly when `w >> 11 == 0`: the redraw
/// test reads the word without converting it.
pub fn skip_gaussian<R: Rng + ?Sized>(rng: &mut R) {
    while rng.next_u64() >> 11 == 0 {}
    rng.next_u64();
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

    /// The Box–Muller expression `gaussian` inlined before
    /// [`GaussianDraw`] existed.
    fn inline_gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u1: f64 = rng.random::<f64>();
            if u1 > f64::MIN_POSITIVE {
                let u2: f64 = rng.random::<f64>();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    #[test]
    fn gaussian_draw_reproduces_the_inline_box_muller() {
        let words = vec![0, 0, 5 << 11, 7 << 40, 99];
        let mut drawn = Words(words.clone().into_iter());
        let mut inline = Words(words.into_iter());
        assert_eq!(
            GaussianDraw::draw(&mut drawn).value().to_bits(),
            inline_gaussian(&mut inline).to_bits()
        );
        assert_eq!(drawn.next_u64(), 99);
        assert_eq!(inline.next_u64(), 99);
        for seed in 0..200 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            for _ in 0..50 {
                assert_eq!(
                    GaussianDraw::draw(&mut a).value().to_bits(),
                    inline_gaussian(&mut b).to_bits()
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}");
        }
    }

    fn check_bound(draw: GaussianDraw) {
        let (bound, value) = (draw.bound(), draw.value());
        assert!(!bound.is_nan(), "NaN bound for {draw:?}");
        assert!(bound >= value.abs(), "{draw:?}: bound {bound} < |{value}|");
        assert!(bound < GAUSSIAN_MAX, "{draw:?}: bound {bound}");
    }

    #[test]
    fn gaussian_bound_covers_every_extreme_draw() {
        // u1 = k·2⁻⁵³ at every power-of-two edge of the 53-bit uniform,
        // with u2 where |cos| is largest.
        const ULP: f64 = 1.0 / (1u64 << 53) as f64;
        let mut ks = vec![1, (1u64 << 53) - 1];
        for j in 0..53 {
            ks.extend([(1u64 << j) - 1, 1 << j, (1 << j) + 1]);
        }
        let u2s = [0.0, 0.5 - ULP, 0.5, 0.5 + ULP, 1.0 - ULP];
        for k in ks.into_iter().filter(|&k| k > 0) {
            for u2 in u2s {
                check_bound(GaussianDraw {
                    u1: k as f64 * ULP,
                    u2,
                });
            }
        }
    }

    #[test]
    fn gaussian_bound_covers_seeded_draws() {
        let mut rng = StdRng::seed_from_u64(0xb0d);
        for _ in 0..1_000_000 {
            check_bound(GaussianDraw::draw(&mut rng));
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
