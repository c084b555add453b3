use std::fmt;

use hycim_fefet::gaussian;
use rand::Rng;

/// The 2-stage voltage comparator of the inequality filter (paper
/// Fig. 5(c–e)): a differential pre-amplifier followed by a dynamic
/// latched comparator.
///
/// At the behavioral level the non-idealities that matter are a fixed
/// input-referred **offset** (sampled once, as in a fabricated
/// comparator) and per-decision **noise**; both are Gaussian. A
/// decision declares the working ML *feasible* when
/// `v_ml + noise ≥ v_replica + offset`.
///
/// # Example
///
/// ```
/// use hycim_cim::filter::{ComparatorConfig, VoltageComparator};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let cmp = VoltageComparator::sample(&ComparatorConfig::ideal(), &mut rng);
/// assert!(cmp.at_least(1.5, 1.0, 0.0));
/// assert!(!cmp.at_least(0.5, 1.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageComparator {
    offset: f64,
    noise_sigma: f64,
}

/// Construction parameters for [`VoltageComparator`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComparatorConfig {
    /// Standard deviation of the fixed input-referred offset (V).
    pub offset_sigma: f64,
    /// Standard deviation of per-decision noise (V).
    pub noise_sigma: f64,
}

impl ComparatorConfig {
    /// Paper-calibrated: 0.05 mV offset sigma (an offset-trimmed
    /// 2-stage design) and 0.02 mV decision noise — a quarter of a
    /// weight unit (ΔV_unit = 0.2 mV), so only configurations within
    /// about one weight unit of the boundary can misclassify,
    /// consistent with the clean separation of Fig. 8.
    pub fn paper() -> Self {
        Self {
            offset_sigma: 0.05e-3,
            noise_sigma: 0.02e-3,
        }
    }

    /// A perfectly ideal comparator.
    pub fn ideal() -> Self {
        Self {
            offset_sigma: 0.0,
            noise_sigma: 0.0,
        }
    }
}

impl Default for ComparatorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl VoltageComparator {
    /// Fabricates a comparator, sampling its fixed offset.
    pub fn sample<R: Rng + ?Sized>(config: &ComparatorConfig, rng: &mut R) -> Self {
        let offset = if config.offset_sigma > 0.0 {
            gaussian(rng) * config.offset_sigma
        } else {
            0.0
        };
        Self {
            offset,
            noise_sigma: config.noise_sigma,
        }
    }

    /// The fixed input-referred offset (V) of this comparator instance.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// The per-decision noise sigma (V); a decision draws a noise
    /// sample exactly when it is positive.
    pub fn noise_sigma(&self) -> f64 {
        self.noise_sigma
    }

    /// Decides whether `v_a ≥ v_b`, subject to offset and noise; `z` is
    /// the decision's standard-normal noise sample, drawn by the caller
    /// exactly when [`noise_sigma`](Self::noise_sigma) is positive (it
    /// has no effect otherwise).
    pub fn at_least(&self, v_a: f64, v_b: f64, z: f64) -> bool {
        v_a + z * self.noise_sigma >= v_b + self.offset
    }
}

impl fmt::Display for VoltageComparator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "VoltageComparator(offset={:.3} mV, noise σ={:.3} mV)",
            self.offset * 1e3,
            self.noise_sigma * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ideal_comparator_is_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let cmp = VoltageComparator::sample(&ComparatorConfig::ideal(), &mut rng);
        assert_eq!(cmp.offset(), 0.0);
        assert!(cmp.at_least(1.0, 1.0, 0.0)); // ties resolve feasible
        assert!(cmp.at_least(1.0 + 1e-12, 1.0, 0.0));
        assert!(!cmp.at_least(1.0 - 1e-9, 1.0, 0.0));
    }

    #[test]
    fn decisions_far_from_boundary_are_reliable() {
        let mut rng = StdRng::seed_from_u64(2);
        let cmp = VoltageComparator::sample(&ComparatorConfig::paper(), &mut rng);
        // 10 weight units (2 mV) of margin: decisions must be stable.
        for _ in 0..1000 {
            assert!(cmp.at_least(1.002, 1.000, gaussian(&mut rng)));
            assert!(!cmp.at_least(0.998, 1.000, gaussian(&mut rng)));
        }
    }

    #[test]
    fn boundary_decisions_are_noisy() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = ComparatorConfig {
            offset_sigma: 0.0,
            noise_sigma: 0.5e-3,
        };
        let cmp = VoltageComparator::sample(&cfg, &mut rng);
        let yes = (0..2000)
            .filter(|_| cmp.at_least(1.0, 1.0, gaussian(&mut rng)))
            .count();
        // Exactly at the boundary with symmetric noise → ~50/50.
        assert!((800..1200).contains(&yes), "saw {yes}/2000 feasible");
    }

    #[test]
    fn offsets_vary_across_instances() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = ComparatorConfig::paper();
        let offsets: Vec<f64> = (0..50)
            .map(|_| VoltageComparator::sample(&cfg, &mut rng).offset())
            .collect();
        assert!(offsets.iter().any(|&o| o != offsets[0]));
    }
}
