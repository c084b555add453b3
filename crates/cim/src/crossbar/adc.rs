use std::fmt;

use hycim_fefet::gaussian;
use rand::Rng;

/// Column ADC of the CiM crossbar (paper Fig. 6(a)): digitizes a
/// column current into a code that the shift-add logic accumulates.
///
/// The column current is `count × I_unit` where `count` is the number
/// of conducting cells; the ADC quantizes it with
/// `LSB = full_scale / (2^bits − 1)` plus Gaussian integral
/// non-linearity noise (in LSBs).
///
/// # Example
///
/// ```
/// use hycim_cim::crossbar::{Adc, AdcConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let adc = Adc::new(AdcConfig::new(8, 100, 0.0));
/// let mut rng = StdRng::seed_from_u64(1);
/// // 8 bits over 100 cells: every count is resolved exactly.
/// assert_eq!(adc.sample_count(42.0, &mut rng), 42);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdcConfig {
    /// Resolution in bits.
    pub bits: u32,
    /// Largest cell count the full scale must represent (the number of
    /// rows feeding one column).
    pub max_count: usize,
    /// INL/readout noise sigma in LSBs.
    pub noise_lsb: f64,
}

impl AdcConfig {
    /// Fully custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if `bits == 0` or `bits > 24`, `max_count == 0`, or
    /// `noise_lsb < 0`.
    pub fn new(bits: u32, max_count: usize, noise_lsb: f64) -> Self {
        assert!(bits > 0 && bits <= 24, "adc bits must be in 1..=24");
        assert!(max_count > 0, "max count must be positive");
        assert!(noise_lsb >= 0.0, "noise must be non-negative");
        Self {
            bits,
            max_count,
            noise_lsb,
        }
    }

    /// Counts per LSB: `max_count / (2^bits − 1)`, at least one count
    /// resolved per code when the resolution suffices.
    fn counts_per_lsb(&self) -> f64 {
        self.max_count as f64 / ((1u64 << self.bits) - 1) as f64
    }
}

/// A column ADC instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Adc {
    config: AdcConfig,
}

impl Adc {
    /// Creates an ADC from its configuration.
    pub fn new(config: AdcConfig) -> Self {
        Self { config }
    }

    /// Configuration in use.
    pub fn config(&self) -> &AdcConfig {
        &self.config
    }

    /// Digitizes a (possibly fractional, noisy) conducting-cell count
    /// and returns the reconstructed count estimate.
    ///
    /// With enough resolution (`2^bits − 1 ≥ max_count`) and zero
    /// noise this is exact rounding; otherwise quantization error and
    /// INL noise appear, which is exactly how limited ADC precision
    /// degrades large D-QUBO matrices.
    pub fn sample_count<R: Rng + ?Sized>(&self, count: f64, rng: &mut R) -> u64 {
        let lsb = self.config.counts_per_lsb();
        let noisy = if self.config.noise_lsb > 0.0 {
            count + gaussian(rng) * self.config.noise_lsb * lsb
        } else {
            count
        };
        let code = (noisy / lsb)
            .round()
            .clamp(0.0, ((1u64 << self.config.bits) - 1) as f64);
        (code * lsb).round() as u64
    }
}

impl fmt::Display for Adc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Adc({} bits, {} counts full scale, {:.2} LSB noise)",
            self.config.bits, self.config.max_count, self.config.noise_lsb
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_adc_is_exact_when_resolution_suffices() {
        let adc = Adc::new(AdcConfig::new(8, 100, 0.0));
        let mut rng = StdRng::seed_from_u64(1);
        for count in 0..=100u64 {
            assert_eq!(adc.sample_count(count as f64, &mut rng), count);
        }
    }

    #[test]
    fn coarse_adc_quantizes() {
        // 3 bits over 100 counts: LSB ≈ 14.3 counts.
        let adc = Adc::new(AdcConfig::new(3, 100, 0.0));
        let mut rng = StdRng::seed_from_u64(2);
        let out = adc.sample_count(50.0, &mut rng);
        assert_ne!(out, 50);
        assert!((out as f64 - 50.0).abs() <= adc.config().counts_per_lsb());
    }

    #[test]
    fn clamps_at_full_scale() {
        let adc = Adc::new(AdcConfig::new(4, 15, 0.0));
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(adc.sample_count(1000.0, &mut rng), 15);
    }

    #[test]
    fn noise_perturbs_codes() {
        let adc = Adc::new(AdcConfig::new(8, 100, 2.0));
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<u64> = (0..100).map(|_| adc.sample_count(50.0, &mut rng)).collect();
        assert!(
            samples.iter().any(|&s| s != samples[0]),
            "noise had no effect"
        );
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!((mean - 50.0).abs() < 2.0, "noise is biased: mean {mean}");
    }

    #[test]
    #[should_panic(expected = "adc bits")]
    fn zero_bits_rejected() {
        let _ = AdcConfig::new(0, 10, 0.0);
    }
}
