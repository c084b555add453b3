//! Seeded QKP instance generator reproducing the CNAM benchmark
//! construction \[28\] the paper evaluates on (Sec 4: 40 instances,
//! 100 items each).
//!
//! The benchmark construction (Billionnet & Soutif): every profit
//! coefficient `pᵢⱼ` (including diagonals) is nonzero with probability
//! equal to the *density* Δ and drawn uniformly from `1..=100`;
//! weights are uniform in `1..=50`; the capacity is uniform between 50
//! and `Σwᵢ`. We default the capacity range to `100..=2536` (clamped
//! to `Σwᵢ`) so the derived D-QUBO dimensions span the paper's
//! reported `200..2636` (Fig. 9(b)).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::QkpInstance;

/// Configurable QKP generator.
///
/// # Example
///
/// ```
/// use hycim_cop::generator::QkpGenerator;
///
/// let inst = QkpGenerator::new(100, 0.25).generate(7);
/// assert_eq!(inst.num_items(), 100);
/// // Density lands near the requested 25%.
/// assert!((inst.density() - 0.25).abs() < 0.06);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QkpGenerator {
    n: usize,
    density: f64,
    max_profit: u64,
    max_weight: u64,
    capacity_range: (u64, u64),
}

impl QkpGenerator {
    /// Creates a generator for `n`-item instances with the given
    /// profit density.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `density` is outside `(0.0, 1.0]`.
    pub fn new(n: usize, density: f64) -> Self {
        assert!(n > 0, "need at least one item");
        assert!(
            density > 0.0 && density <= 1.0,
            "density must be in (0, 1], got {density}"
        );
        Self {
            n,
            density,
            max_profit: 100,
            max_weight: 50,
            capacity_range: (100, 2536),
        }
    }

    /// Overrides the maximum profit coefficient (default 100, giving
    /// the paper's `(Q_ij)MAX = 100`).
    pub fn with_max_profit(mut self, max_profit: u64) -> Self {
        assert!(max_profit > 0, "max profit must be positive");
        self.max_profit = max_profit;
        self
    }

    /// Overrides the maximum item weight (default 50; the paper's
    /// filter stores per-item weights up to 64).
    pub fn with_max_weight(mut self, max_weight: u64) -> Self {
        assert!(max_weight > 0, "max weight must be positive");
        self.max_weight = max_weight;
        self
    }

    /// Overrides the capacity sampling range (inclusive). The sampled
    /// capacity is additionally clamped to `Σwᵢ − 1` so the constraint
    /// is never trivial, and to at least `max(wᵢ)` so at least one item
    /// fits.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `lo == 0`.
    pub fn with_capacity_range(mut self, lo: u64, hi: u64) -> Self {
        assert!(lo > 0 && lo <= hi, "invalid capacity range {lo}..={hi}");
        self.capacity_range = (lo, hi);
        self
    }

    /// Number of items per generated instance.
    pub fn num_items(&self) -> usize {
        self.n
    }

    /// Requested profit density.
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Generates one instance deterministically from `seed`.
    pub fn generate(&self, seed: u64) -> QkpInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = self.n;
        let weights: Vec<u64> = (0..n)
            .map(|_| rng.random_range(1..=self.max_weight))
            .collect();
        let total: u64 = weights.iter().sum();
        let max_w = *weights.iter().max().expect("n > 0");

        let (lo, hi) = self.capacity_range;
        let hi = hi.min(total.saturating_sub(1)).max(1);
        let lo = lo.min(hi).max(1);
        let capacity = rng.random_range(lo..=hi).max(max_w);

        let item_profits: Vec<u64> = (0..n)
            .map(|_| {
                if rng.random_bool(self.density) {
                    rng.random_range(1..=self.max_profit)
                } else {
                    0
                }
            })
            .collect();

        let mut inst = QkpInstance::new(item_profits, weights, capacity)
            .expect("generator invariants yield a valid instance")
            .with_name(format!(
                "gen_{}_{}_{}",
                n,
                (self.density * 100.0).round() as u32,
                seed
            ));
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.random_bool(self.density) {
                    inst.set_pair_profit(i, j, rng.random_range(1..=self.max_profit));
                }
            }
        }
        inst
    }
}

/// A benchmark set: `per_density` seeds at each of the four densities
/// {25, 50, 75, 100}%, `n` items each. Seeds are derived
/// deterministically so the set is reproducible across runs.
/// `benchmark_set(100, 10)` is the paper's evaluation workload: 40 QKP
/// instances of 100 items (Sec 4, \[28\]).
///
/// # Example
///
/// ```
/// use hycim_cop::generator::benchmark_set;
///
/// let set = benchmark_set(100, 10);
/// assert_eq!(set.len(), 40);
/// assert!(set.iter().all(|i| i.num_items() == 100));
/// ```
pub fn benchmark_set(n: usize, per_density: usize) -> Vec<QkpInstance> {
    let densities = [0.25, 0.5, 0.75, 1.0];
    let mut out = Vec::with_capacity(densities.len() * per_density);
    for (di, &d) in densities.iter().enumerate() {
        let generator = QkpGenerator::new(n, d);
        for s in 0..per_density {
            // Stable per-(density, index) seed.
            let seed = 1000 * (di as u64 + 1) + s as u64;
            out.push(generator.generate(seed));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let generator = QkpGenerator::new(30, 0.5);
        assert_eq!(generator.generate(1), generator.generate(1));
        assert_ne!(generator.generate(1), generator.generate(2));
    }

    #[test]
    fn weights_and_profits_in_range() {
        let inst = QkpGenerator::new(50, 1.0).generate(3);
        assert!(inst.weights().iter().all(|&w| (1..=50).contains(&w)));
        assert!(inst.item_profits().iter().all(|&p| p <= 100));
        assert_eq!(
            inst.max_profit_coefficient().max(1),
            inst.max_profit_coefficient()
        );
        assert!(inst.max_profit_coefficient() <= 100);
    }

    #[test]
    fn full_density_fills_every_coefficient() {
        let inst = QkpGenerator::new(20, 1.0).generate(5);
        assert!((inst.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_is_nontrivial() {
        for seed in 0..20 {
            let inst = QkpGenerator::new(100, 0.25).generate(seed);
            let total: u64 = inst.weights().iter().sum();
            assert!(inst.capacity() < total, "trivial capacity at seed {seed}");
            assert!(
                inst.capacity() >= *inst.weights().iter().max().unwrap(),
                "no item fits at seed {seed}"
            );
        }
    }

    #[test]
    fn standard_set_matches_paper_shape() {
        let set = benchmark_set(100, 10);
        assert_eq!(set.len(), 40);
        // D-QUBO dimension n + C must fall in the paper's reported
        // 200..=2636 band (Fig. 9(b)).
        for inst in &set {
            let dim = 100 + inst.capacity() as usize;
            assert!(
                (200..=2636).contains(&dim),
                "instance {} gives D-QUBO dim {dim}",
                inst.name()
            );
        }
    }

    #[test]
    fn densities_are_respected() {
        for (d, lo, hi) in [(0.25, 0.18, 0.32), (0.75, 0.68, 0.82)] {
            let inst = QkpGenerator::new(100, d).generate(11);
            assert!(
                inst.density() > lo && inst.density() < hi,
                "density {} for requested {d}",
                inst.density()
            );
        }
    }

    #[test]
    fn custom_ranges() {
        let inst = QkpGenerator::new(10, 0.5)
            .with_max_profit(7)
            .with_max_weight(3)
            .with_capacity_range(5, 9)
            .generate(2);
        assert!(inst.max_profit_coefficient() <= 7);
        assert!(inst.weights().iter().all(|&w| w <= 3));
        assert!(inst.capacity() <= 9);
    }

    #[test]
    #[should_panic(expected = "density")]
    fn invalid_density_panics() {
        let _ = QkpGenerator::new(5, 0.0);
    }
}
