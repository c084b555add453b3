use std::fmt;

use crate::{Assignment, QuboError};

/// A linear inequality constraint `Σ wᵢxᵢ ≤ C` with non-negative
/// integer weights and positive integer capacity (paper Eq. 4).
///
/// # Example
///
/// ```
/// use hycim_qubo::{Assignment, LinearConstraint};
///
/// # fn main() -> Result<(), hycim_qubo::QuboError> {
/// let c = LinearConstraint::new(vec![4, 7, 2], 9)?;
/// let x = Assignment::from_bits([true, false, true]);
/// assert!(c.is_satisfied(&x));
/// assert_eq!(c.load(&x), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinearConstraint {
    weights: Vec<u64>,
    capacity: u64,
}

impl LinearConstraint {
    /// Creates a constraint from item weights and a capacity.
    ///
    /// # Errors
    ///
    /// * [`QuboError::EmptyProblem`] if `weights` is empty.
    /// * [`QuboError::ZeroCapacity`] if `capacity == 0`.
    pub fn new(weights: Vec<u64>, capacity: u64) -> Result<Self, QuboError> {
        if weights.is_empty() {
            return Err(QuboError::EmptyProblem);
        }
        if capacity == 0 {
            return Err(QuboError::ZeroCapacity);
        }
        Ok(Self { weights, capacity })
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.weights.len()
    }

    /// Item weights `wᵢ`.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Capacity `C`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total weight `Σ wᵢxᵢ` of the selected items.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn load(&self, x: &Assignment) -> u64 {
        assert_eq!(
            x.len(),
            self.dim(),
            "assignment length {} does not match constraint dim {}",
            x.len(),
            self.dim()
        );
        self.weights
            .iter()
            .zip(x.iter())
            .filter(|(_, b)| *b)
            .map(|(w, _)| *w)
            .sum()
    }

    /// Whether `Σ wᵢxᵢ ≤ C` holds.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn is_satisfied(&self, x: &Assignment) -> bool {
        self.load(x) <= self.capacity
    }

    /// Total weight of all items `Σ wᵢ`.
    fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Fraction of the `2ⁿ` configurations that are feasible, computed
    /// by exact dynamic programming over weight sums.
    ///
    /// Cost is O(n·C); intended for analysis and tests, not the solver
    /// hot path. This quantifies the paper's "search space reduction"
    /// claim from the problem side.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::LinearConstraint;
    /// # fn main() -> Result<(), hycim_qubo::QuboError> {
    /// let c = LinearConstraint::new(vec![4, 7, 2], 9)?;
    /// // 6 of the 8 configurations satisfy the constraint (paper Fig. 5(f)).
    /// assert!((c.feasible_fraction() - 0.75).abs() < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn feasible_fraction(&self) -> f64 {
        // counts[s] = number of subsets with total weight exactly s (s ≤ C),
        // tracked as f64 counts scaled by 2^-n to avoid overflow for n=100.
        let cap = self.capacity as usize;
        let mut counts = vec![0.0_f64; cap + 1];
        counts[0] = 1.0;
        let mut scale = 0u32; // total halvings applied
        for &w in &self.weights {
            let w = w as usize;
            // Each item halves the probability mass of each branch.
            if w <= cap {
                for s in (w..=cap).rev() {
                    counts[s] += counts[s - w];
                }
            }
            scale += 1;
            // Rescale lazily to keep values in range: divide by 2 each item.
            for c in counts.iter_mut() {
                *c /= 2.0;
            }
        }
        debug_assert_eq!(scale as usize, self.weights.len());
        counts.iter().sum()
    }
}

impl fmt::Display for LinearConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Σ wᵢxᵢ ≤ {} (n={}, Σw={})",
            self.capacity,
            self.dim(),
            self.total_weight()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> LinearConstraint {
        // Paper Fig. 5(f): 4x₁ + 7x₂ + 2x₃ ≤ 9.
        LinearConstraint::new(vec![4, 7, 2], 9).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(matches!(
            LinearConstraint::new(vec![], 3),
            Err(QuboError::EmptyProblem)
        ));
        assert!(matches!(
            LinearConstraint::new(vec![1], 0),
            Err(QuboError::ZeroCapacity)
        ));
    }

    #[test]
    fn fig5f_truth_table() {
        // The paper's worked example: exactly 2 of 8 configurations are
        // infeasible ({x₁,x₂} and {x₁,x₂,x₃}).
        let c = example();
        let mut feasible = 0;
        for bits in 0u32..8 {
            let x = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1));
            if c.is_satisfied(&x) {
                feasible += 1;
            }
        }
        assert_eq!(feasible, 6);
    }

    #[test]
    fn load_slack_violation() {
        let c = example();
        let x = Assignment::from_bits([true, true, false]); // load 11 > 9
        assert_eq!(c.load(&x), 11);
        assert!(!c.is_satisfied(&x));
        assert_eq!(c.load(&x) - c.capacity(), 2); // the violation

        let y = Assignment::from_bits([false, true, true]); // load 9 == 9
        assert!(c.is_satisfied(&y));
        assert_eq!(c.capacity() - c.load(&y), 0); // no slack left
    }

    #[test]
    fn trivial_constraint() {
        let c = LinearConstraint::new(vec![1, 1], 10).unwrap();
        assert!((c.feasible_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn feasible_fraction_matches_enumeration() {
        let c = LinearConstraint::new(vec![3, 5, 2, 8, 1], 9).unwrap();
        let mut feasible = 0u32;
        for bits in 0u32..32 {
            let x = Assignment::from_bits((0..5).map(|i| bits >> i & 1 == 1));
            if c.is_satisfied(&x) {
                feasible += 1;
            }
        }
        let expected = f64::from(feasible) / 32.0;
        assert!((c.feasible_fraction() - expected).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_capacity() {
        assert!(example().to_string().contains("≤ 9"));
    }
}
