use std::fmt;

use hycim_qubo::dqubo::{AuxEncoding, DquboForm, PenaltyWeights};
use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, QuboError, QuboMatrix};

use crate::CopError;

/// A Quadratic Knapsack Problem instance (paper Eq. 3–4):
///
/// ```text
/// max Σᵢⱼ pᵢⱼ xᵢxⱼ   s.t.  Σᵢ wᵢxᵢ ≤ C,  xᵢ ∈ {0,1}
/// ```
///
/// `pᵢᵢ` is the individual profit of item `i`; `pᵢⱼ` (i ≠ j) is the
/// *additional* profit earned when items `i` and `j` are both selected
/// (stored once; the paper's symmetric double-sum convention counts it
/// via `pᵢⱼ = pⱼᵢ`).
///
/// # Example
///
/// ```
/// use hycim_cop::QkpInstance;
/// use hycim_qubo::Assignment;
///
/// # fn main() -> Result<(), hycim_cop::CopError> {
/// let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9)?;
/// inst.set_pair_profit(0, 2, 14);
/// let x = Assignment::from_bits([true, false, true]);
/// assert_eq!(inst.value(&x), 32);
/// assert!(inst.is_feasible(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QkpInstance {
    name: String,
    /// Individual profits pᵢᵢ.
    item_profits: Vec<u64>,
    /// Pair profits pᵢⱼ for i < j, row-major upper triangle (diagonal
    /// excluded).
    pair_profits: Vec<u64>,
    weights: Vec<u64>,
    capacity: u64,
}

impl QkpInstance {
    /// Creates an instance with the given individual profits, item
    /// weights and capacity; all pair profits start at zero.
    ///
    /// # Errors
    ///
    /// * [`CopError::EmptyInstance`] for zero items.
    /// * [`CopError::SizeMismatch`] if profit and weight counts differ.
    /// * [`CopError::ZeroCapacity`] if `capacity == 0`.
    /// * [`CopError::ZeroWeight`] if any item weight is zero.
    pub fn new(item_profits: Vec<u64>, weights: Vec<u64>, capacity: u64) -> Result<Self, CopError> {
        if item_profits.is_empty() && weights.is_empty() {
            return Err(CopError::EmptyInstance);
        }
        if item_profits.len() != weights.len() {
            return Err(CopError::SizeMismatch {
                profits: item_profits.len(),
                weights: weights.len(),
            });
        }
        if capacity == 0 {
            return Err(CopError::ZeroCapacity);
        }
        if let Some(item) = weights.iter().position(|&w| w == 0) {
            return Err(CopError::ZeroWeight { item });
        }
        let n = item_profits.len();
        Ok(Self {
            name: String::new(),
            item_profits,
            pair_profits: vec![0; n * n.saturating_sub(1) / 2],
            weights,
            capacity,
        })
    }

    /// Sets the instance name (e.g. the benchmark file stem).
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Instance name (empty if unnamed).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of items `n`.
    pub fn num_items(&self) -> usize {
        self.item_profits.len()
    }

    /// Knapsack capacity `C`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Item weights.
    pub fn weights(&self) -> &[u64] {
        &self.weights
    }

    /// Individual profits `pᵢᵢ`.
    pub fn item_profits(&self) -> &[u64] {
        &self.item_profits
    }

    fn pair_index(&self, i: usize, j: usize) -> usize {
        let n = self.num_items();
        debug_assert!(i < j && j < n);
        i * n - i * (i + 1) / 2 + (j - i - 1)
    }

    /// Pair profit `pᵢⱼ` (order-insensitive; `i == j` returns the
    /// individual profit).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn pair_profit(&self, i: usize, j: usize) -> u64 {
        let n = self.num_items();
        assert!(i < n && j < n, "item index out of bounds");
        if i == j {
            return self.item_profits[i];
        }
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        self.pair_profits[self.pair_index(a, b)]
    }

    /// Sets the pair profit `pᵢⱼ = pⱼᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds or `i == j` (item profits
    /// are set by the constructor).
    pub fn set_pair_profit(&mut self, i: usize, j: usize, profit: u64) {
        let n = self.num_items();
        assert!(i < n && j < n, "item index out of bounds");
        assert_ne!(i, j, "diagonal profits are item profits");
        let (a, b) = if i < j { (i, j) } else { (j, i) };
        let idx = self.pair_index(a, b);
        self.pair_profits[idx] = profit;
    }

    /// Objective value `Σ pᵢᵢxᵢ + Σ_{i<j} pᵢⱼxᵢxⱼ` of a selection
    /// (pair profits counted once, matching the benchmark convention).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_items()`.
    pub fn value(&self, x: &Assignment) -> u64 {
        let n = self.num_items();
        assert_eq!(x.len(), n, "assignment length mismatch");
        let mut v = 0;
        for i in 0..n {
            if !x.get(i) {
                continue;
            }
            v += self.item_profits[i];
            for j in (i + 1)..n {
                if x.get(j) {
                    v += self.pair_profits[self.pair_index(i, j)];
                }
            }
        }
        v
    }

    /// Total weight of the selection.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_items()`.
    pub fn load(&self, x: &Assignment) -> u64 {
        self.weights
            .iter()
            .zip(x.iter())
            .filter(|(_, b)| *b)
            .map(|(w, _)| *w)
            .sum()
    }

    /// Whether the selection respects the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.num_items()`.
    pub fn is_feasible(&self, x: &Assignment) -> bool {
        self.load(x) <= self.capacity
    }

    /// Largest profit coefficient (the `(Q_ij)MAX` of the HyCiM
    /// formulation; paper Fig. 9(a) reports 100 for the benchmark set).
    pub fn max_profit_coefficient(&self) -> u64 {
        let diag = self.item_profits.iter().copied().max().unwrap_or(0);
        let pair = self.pair_profits.iter().copied().max().unwrap_or(0);
        diag.max(pair)
    }

    /// The capacity constraint as a [`LinearConstraint`].
    pub fn constraint(&self) -> LinearConstraint {
        LinearConstraint::new(self.weights.clone(), self.capacity)
            .expect("instance invariants guarantee a valid constraint")
    }

    /// Negated-profit objective matrix: minimizing `xᵀQx` maximizes the
    /// QKP value (paper Eq. 5 with `pᵢⱼ = −qᵢⱼ`).
    pub fn objective_matrix(&self) -> QuboMatrix {
        let n = self.num_items();
        let mut q = QuboMatrix::zeros(n);
        for i in 0..n {
            q.set(i, i, -(self.item_profits[i] as f64));
            for j in (i + 1)..n {
                let p = self.pair_profits[self.pair_index(i, j)];
                if p != 0 {
                    q.set(i, j, -(p as f64));
                }
            }
        }
        q
    }

    /// Converts to the paper's inequality-QUBO form
    /// `min (Σwᵢxᵢ ≤ C)·xᵀQx` (Sec 3.2).
    ///
    /// # Errors
    ///
    /// Propagates [`QuboError`] from the underlying constructors
    /// (cannot occur for a valid instance).
    pub fn to_inequality_qubo(&self) -> Result<InequalityQubo, QuboError> {
        InequalityQubo::new(self.objective_matrix(), self.constraint())
    }

    /// Converts to the baseline D-QUBO form with penalty auxiliaries
    /// (paper Fig. 1(b)).
    ///
    /// # Errors
    ///
    /// Propagates [`QuboError`] from the transformation (cannot occur
    /// for a valid instance).
    pub fn to_dqubo(
        &self,
        weights: PenaltyWeights,
        encoding: AuxEncoding,
    ) -> Result<DquboForm, QuboError> {
        DquboForm::transform(
            &self.objective_matrix(),
            &self.constraint(),
            weights,
            encoding,
        )
    }

    /// Density: fraction of nonzero profit coefficients among all
    /// `n(n+1)/2` possible (the benchmark set uses 25–100%).
    pub fn density(&self) -> f64 {
        let nz = self.item_profits.iter().filter(|&&p| p != 0).count()
            + self.pair_profits.iter().filter(|&&p| p != 0).count();
        let total = self.item_profits.len() + self.pair_profits.len();
        nz as f64 / total as f64
    }
}

impl fmt::Display for QkpInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QkpInstance({}n={}, C={}, density={:.0}%)",
            if self.name.is_empty() {
                String::new()
            } else {
                format!("{}, ", self.name)
            },
            self.num_items(),
            self.capacity,
            self.density() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Fig. 7(e) worked example.
    pub(crate) fn fig7e_instance() -> QkpInstance {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9)
            .unwrap()
            .with_name("fig7e");
        inst.set_pair_profit(0, 1, 3);
        inst.set_pair_profit(0, 2, 7);
        inst.set_pair_profit(1, 2, 2);
        inst
    }

    #[test]
    fn construction_validation() {
        assert!(matches!(
            QkpInstance::new(vec![], vec![], 5),
            Err(CopError::EmptyInstance)
        ));
        assert!(matches!(
            QkpInstance::new(vec![1], vec![1, 2], 5),
            Err(CopError::SizeMismatch { .. })
        ));
        assert!(matches!(
            QkpInstance::new(vec![1], vec![1], 0),
            Err(CopError::ZeroCapacity)
        ));
        assert!(matches!(
            QkpInstance::new(vec![1, 2], vec![3, 0], 5),
            Err(CopError::ZeroWeight { item: 1 })
        ));
    }

    #[test]
    fn value_and_feasibility() {
        let inst = fig7e_instance();
        let x = Assignment::from_bits([true, false, true]);
        assert_eq!(inst.value(&x), 10 + 8 + 7);
        assert_eq!(inst.load(&x), 6);
        assert!(inst.is_feasible(&x));
        let all = Assignment::ones_vec(3);
        assert_eq!(inst.load(&all), 13);
        assert!(!inst.is_feasible(&all));
    }

    #[test]
    fn pair_profit_symmetry() {
        let inst = fig7e_instance();
        assert_eq!(inst.pair_profit(0, 2), inst.pair_profit(2, 0));
        assert_eq!(inst.pair_profit(1, 1), 6);
    }

    #[test]
    fn objective_matrix_negates_profits() {
        let inst = fig7e_instance();
        let q = inst.objective_matrix();
        let x = Assignment::from_bits([true, false, true]);
        assert_eq!(q.energy(&x), -(inst.value(&x) as f64));
    }

    #[test]
    fn inequality_qubo_gates_infeasible() {
        let inst = fig7e_instance();
        let iq = inst.to_inequality_qubo().unwrap();
        let all = Assignment::ones_vec(3);
        assert_eq!(iq.energy(&all), 0.0);
        let (best_x, best_e) = iq.brute_force_minimum();
        assert_eq!(inst.value(&best_x), 25);
        assert_eq!(best_e, -25.0);
    }

    #[test]
    fn dqubo_dimensions() {
        let inst = fig7e_instance();
        let d = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::OneHot)
            .unwrap();
        assert_eq!(d.dim(), 3 + 9);
        let db = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .unwrap();
        assert_eq!(db.dim(), 3 + 4);
    }

    #[test]
    fn max_profit_coefficient() {
        let inst = fig7e_instance();
        assert_eq!(inst.max_profit_coefficient(), 10);
    }

    #[test]
    fn density_of_full_instance() {
        let inst = fig7e_instance();
        assert!((inst.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_contains_name() {
        assert!(fig7e_instance().to_string().contains("fig7e"));
    }
}
