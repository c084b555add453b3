//! Bin packing — the paper's other motivating COP with inequality
//! constraints (Sec 1, Sec 2.1) — formulated for the HyCiM pipeline.
//!
//! The decision variant with `b` bins uses variables `x_{i,k}` ("item
//! `i` goes to bin `k`"). The objective penalizes items assigned to
//! more or fewer than one bin (an *equality* penalty, which QUBO
//! handles natively), while each bin's capacity is an *inequality*
//! `Σᵢ sᵢ·x_{i,k} ≤ C` — one filterable constraint per bin. This is
//! the natural multi-constraint generalization of the paper's single
//! inequality filter, handled by a bank of filters.

use hycim_qubo::{Assignment, LinearConstraint, QuboMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CopError;

/// A bin packing instance: item sizes, uniform bin capacity, and a
/// fixed number of available bins.
///
/// # Example
///
/// ```
/// use hycim_cop::binpack::BinPacking;
/// use hycim_qubo::Assignment;
///
/// # fn main() -> Result<(), hycim_cop::CopError> {
/// let bp = BinPacking::new(vec![4, 5, 3], 9, 2)?;
/// // item0+item2 in bin0 (7 ≤ 9), item1 in bin1 (5 ≤ 9).
/// let x = Assignment::parse_bit_string("101001").unwrap();
/// assert!(bp.is_valid_packing(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinPacking {
    sizes: Vec<u64>,
    capacity: u64,
    bins: usize,
}

impl BinPacking {
    /// Creates a bin packing instance.
    ///
    /// # Errors
    ///
    /// * [`CopError::EmptyInstance`] for zero items or zero bins.
    /// * [`CopError::ZeroCapacity`] for zero capacity.
    /// * [`CopError::ZeroWeight`] for a zero-size item.
    pub fn new(sizes: Vec<u64>, capacity: u64, bins: usize) -> Result<Self, CopError> {
        if sizes.is_empty() || bins == 0 {
            return Err(CopError::EmptyInstance);
        }
        if capacity == 0 {
            return Err(CopError::ZeroCapacity);
        }
        if let Some(item) = sizes.iter().position(|&s| s == 0) {
            return Err(CopError::ZeroWeight { item });
        }
        Ok(Self {
            sizes,
            capacity,
            bins,
        })
    }

    /// A seeded packable instance, deterministically from `seed`: sizes
    /// in `2..=9` and a uniform capacity for ~80% fill across the bins
    /// (at least 9, so every item fits a bin), redrawn until
    /// first-fit-decreasing packs them, so a packing always exists.
    ///
    /// # Panics
    ///
    /// Panics if `items == 0` or `bins == 0`.
    pub fn random(items: usize, bins: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let sizes: Vec<u64> = (0..items).map(|_| rng.random_range(2..=9)).collect();
            let total: u64 = sizes.iter().sum();
            let capacity = (total * 5 / 4 / bins as u64).max(9);
            let bp = BinPacking::new(sizes, capacity, bins).expect("valid sizes");
            if bp.first_fit_decreasing().is_some() {
                return bp;
            }
        }
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.sizes.len()
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins
    }

    /// Bin capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Item sizes.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Number of QUBO variables: `items × bins`, with variable
    /// `i·bins + k` meaning "item `i` in bin `k`".
    pub fn dim(&self) -> usize {
        self.num_items() * self.bins
    }

    /// Index of variable `x_{i,k}`.
    ///
    /// # Panics
    ///
    /// Panics if `item` or `bin` is out of range.
    pub fn var(&self, item: usize, bin: usize) -> usize {
        assert!(item < self.num_items(), "item out of range");
        assert!(bin < self.bins, "bin out of range");
        item * self.bins + bin
    }

    /// The assignment-validity objective: a QUBO whose minimum (zero)
    /// is attained exactly when every item sits in exactly one bin.
    /// Expands `penalty · Σᵢ (1 − Σₖ x_{i,k})²`.
    pub fn assignment_objective(&self, penalty: f64) -> QuboMatrix {
        let mut q = QuboMatrix::zeros(self.dim());
        for i in 0..self.num_items() {
            for k in 0..self.bins {
                let v = self.var(i, k);
                // (1 − Σx)² = 1 − Σx + 2Σ_{k<l} x_k x_l  (over this item's bins)
                q.add(v, v, -penalty);
                for l in (k + 1)..self.bins {
                    q.add(v, self.var(i, l), 2.0 * penalty);
                }
            }
        }
        q
    }

    /// One capacity inequality per bin: `Σᵢ sᵢ·x_{i,k} ≤ C` over the
    /// full variable vector (weights are zero for other bins'
    /// variables — the filter bank evaluates each independently).
    pub fn bin_constraints(&self) -> Vec<LinearConstraint> {
        (0..self.bins)
            .map(|k| {
                let mut w = vec![0u64; self.dim()];
                for i in 0..self.num_items() {
                    w[self.var(i, k)] = self.sizes[i];
                }
                LinearConstraint::new(w, self.capacity)
                    .expect("instance invariants guarantee a valid constraint")
            })
            .collect()
    }

    /// Load of bin `k` under an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `bin` is out of range.
    pub fn bin_load(&self, x: &Assignment, bin: usize) -> u64 {
        assert_eq!(x.len(), self.dim(), "assignment length mismatch");
        (0..self.num_items())
            .filter(|&i| x.get(self.var(i, bin)))
            .map(|i| self.sizes[i])
            .sum()
    }

    /// Whether `x` is a valid packing: every item in exactly one bin
    /// and every bin within capacity.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn is_valid_packing(&self, x: &Assignment) -> bool {
        assert_eq!(x.len(), self.dim(), "assignment length mismatch");
        for i in 0..self.num_items() {
            let count = (0..self.bins).filter(|&k| x.get(self.var(i, k))).count();
            if count != 1 {
                return false;
            }
        }
        (0..self.bins).all(|k| self.bin_load(x, k) <= self.capacity)
    }

    /// First-fit-decreasing heuristic; returns a packing if one is
    /// found within the available bins.
    pub fn first_fit_decreasing(&self) -> Option<Assignment> {
        let mut order: Vec<usize> = (0..self.num_items()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.sizes[i]));
        let mut loads = vec![0u64; self.bins];
        let mut x = Assignment::zeros(self.dim());
        for i in order {
            let bin = (0..self.bins).find(|&k| loads[k] + self.sizes[i] <= self.capacity)?;
            loads[bin] += self.sizes[i];
            x.set(self.var(i, bin), true);
        }
        Some(x)
    }

    /// Lower bound on the number of bins needed: `⌈Σsᵢ / C⌉`.
    pub fn bin_lower_bound(&self) -> usize {
        let total: u64 = self.sizes.iter().sum();
        (total.div_ceil(self.capacity)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(matches!(
            BinPacking::new(vec![], 5, 2),
            Err(CopError::EmptyInstance)
        ));
        assert!(matches!(
            BinPacking::new(vec![1], 5, 0),
            Err(CopError::EmptyInstance)
        ));
        assert!(matches!(
            BinPacking::new(vec![1], 0, 1),
            Err(CopError::ZeroCapacity)
        ));
        assert!(matches!(
            BinPacking::new(vec![1, 0], 5, 1),
            Err(CopError::ZeroWeight { item: 1 })
        ));
    }

    #[test]
    fn valid_packing_detection() {
        let bp = BinPacking::new(vec![4, 5, 3], 9, 2).unwrap();
        let good = Assignment::parse_bit_string("101001").unwrap();
        assert!(bp.is_valid_packing(&good));
        // Item 0 in both bins.
        let double = Assignment::parse_bit_string("111001").unwrap();
        assert!(!bp.is_valid_packing(&double));
        // All three in bin 0: load 12 > 9.
        let overload = Assignment::parse_bit_string("101010").unwrap();
        assert!(!bp.is_valid_packing(&overload));
    }

    #[test]
    fn assignment_objective_minimized_by_valid_packing() {
        let bp = BinPacking::new(vec![4, 5, 3], 9, 2).unwrap();
        let q = bp.assignment_objective(10.0);
        let good = Assignment::parse_bit_string("101001").unwrap();
        // Penalty expansion drops the constant Σᵢ penalty = 3·10.
        assert_eq!(q.energy(&good), -30.0);
        let missing = Assignment::parse_bit_string("100001").unwrap();
        assert!(q.energy(&missing) > q.energy(&good));
    }

    #[test]
    fn bin_constraints_check_loads() {
        let bp = BinPacking::new(vec![4, 5, 3], 9, 2).unwrap();
        let cons = bp.bin_constraints();
        assert_eq!(cons.len(), 2);
        let overload = Assignment::parse_bit_string("101010").unwrap();
        assert!(!cons[0].is_satisfied(&overload));
        assert!(cons[1].is_satisfied(&overload));
        assert_eq!(cons[0].load(&overload), bp.bin_load(&overload, 0));
    }

    #[test]
    fn ffd_finds_known_packing() {
        let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let x = bp.first_fit_decreasing().expect("packable");
        assert!(bp.is_valid_packing(&x));
    }

    #[test]
    fn ffd_fails_when_impossible() {
        let bp = BinPacking::new(vec![9, 9, 9], 9, 2).unwrap();
        assert!(bp.first_fit_decreasing().is_none());
        assert_eq!(bp.bin_lower_bound(), 3);
    }

    #[test]
    fn random_instances_are_seeded_and_packable() {
        for seed in 0..20 {
            let bp = BinPacking::random(8, 2, seed);
            assert_eq!(bp, BinPacking::random(8, 2, seed));
            assert_eq!((bp.num_items(), bp.num_bins()), (8, 2));
            assert!(bp.sizes().iter().all(|s| (2..=9).contains(s)));
            let x = bp.first_fit_decreasing().expect("packable");
            assert!(bp.is_valid_packing(&x));
        }
    }
}
