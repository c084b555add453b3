use std::fmt;

use crate::{Assignment, InequalityQubo, LinearConstraint, QuboError, QuboMatrix};

/// The multi-constraint generalization of the paper's inequality-QUBO
/// form (Sec 3.2, Eq. 6):
///
/// ```text
/// min E = ∏ₖ (Σᵢ w⁽ᵏ⁾ᵢxᵢ ≤ C⁽ᵏ⁾) · xᵀQx
/// ```
///
/// Every constraint is a logical gate, exactly like the single-filter
/// form: a configuration contributes its objective energy only when it
/// satisfies **all** `k` inequalities, otherwise the energy is 0. In
/// hardware each constraint maps onto one filter of a
/// `FilterBank` — all filters evaluate concurrently in the same
/// 4-phase read, so the bank costs one filter latency regardless of
/// `k`. This is the encoding that makes bin packing (one capacity per
/// bin) and multi-dimensional knapsacks exact on the HyCiM pipeline
/// instead of relying on an aggregate-capacity relaxation.
///
/// The single-constraint [`InequalityQubo`] is the 1-element special
/// case (see the [`From`] conversion).
///
/// # Example
///
/// ```
/// use hycim_qubo::{Assignment, LinearConstraint, MultiInequalityQubo, QuboMatrix};
///
/// # fn main() -> Result<(), hycim_qubo::QuboError> {
/// let mut q = QuboMatrix::zeros(3);
/// q.set(0, 0, -5.0);
/// q.set(1, 1, -4.0);
/// q.set(2, 2, -3.0);
/// let mq = MultiInequalityQubo::new(
///     q,
///     vec![
///         LinearConstraint::new(vec![3, 3, 0], 3)?, // items 0,1 share a budget
///         LinearConstraint::new(vec![0, 2, 2], 3)?, // items 1,2 share another
///     ],
/// )?;
/// assert_eq!(mq.energy(&Assignment::from_bits([true, false, true])), -8.0);
/// // Items 0 and 1 together blow the first budget → gated to 0.
/// assert_eq!(mq.energy(&Assignment::from_bits([true, true, false])), 0.0);
/// assert_eq!(mq.first_violation(&Assignment::from_bits([true, true, false])), Some(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiInequalityQubo {
    objective: QuboMatrix,
    constraints: Vec<LinearConstraint>,
}

impl MultiInequalityQubo {
    /// Combines an objective matrix with a list of inequality
    /// constraints over the same variables.
    ///
    /// # Errors
    ///
    /// * [`QuboError::EmptyProblem`] for zero variables or an empty
    ///   constraint list.
    /// * [`QuboError::DimensionMismatch`] if any constraint dimension
    ///   differs from the matrix dimension.
    pub fn new(
        objective: QuboMatrix,
        constraints: Vec<LinearConstraint>,
    ) -> Result<Self, QuboError> {
        if objective.dim() == 0 || constraints.is_empty() {
            return Err(QuboError::EmptyProblem);
        }
        for c in &constraints {
            if c.dim() != objective.dim() {
                return Err(QuboError::DimensionMismatch {
                    expected: objective.dim(),
                    found: c.dim(),
                });
            }
        }
        Ok(Self {
            objective,
            constraints,
        })
    }

    /// Number of variables (the paper's `n`; the search space is `2ⁿ`).
    pub fn dim(&self) -> usize {
        self.objective.dim()
    }

    /// Number of inequality constraints (the bank size `k`).
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The objective matrix `Q`.
    pub fn objective(&self) -> &QuboMatrix {
        &self.objective
    }

    /// The inequality constraints, in filter-bank order.
    pub fn constraints(&self) -> &[LinearConstraint] {
        &self.constraints
    }

    /// Per-constraint loads `Σᵢ w⁽ᵏ⁾ᵢxᵢ`, in constraint order — the
    /// quantities the SA loop tracks incrementally and feeds to the
    /// bank's fast path.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn loads(&self, x: &Assignment) -> Vec<u64> {
        self.constraints.iter().map(|c| c.load(x)).collect()
    }

    /// Whether every constraint admits the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn is_feasible(&self, x: &Assignment) -> bool {
        self.constraints.iter().all(|c| c.is_satisfied(x))
    }

    /// Index of the first violated constraint, if any (mirrors
    /// `BankDecision::first_violation` on the hardware side).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn first_violation(&self, x: &Assignment) -> Option<usize> {
        self.constraints.iter().position(|c| !c.is_satisfied(x))
    }

    /// Gated energy `E = ∏ₖ(Σw⁽ᵏ⁾ᵢxᵢ ≤ C⁽ᵏ⁾) · xᵀQx`: the objective
    /// when all constraints hold, 0 otherwise (paper Eq. 6 with a
    /// product of indicator gates).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn energy(&self, x: &Assignment) -> f64 {
        if self.is_feasible(x) {
            self.objective.energy(x)
        } else {
            0.0
        }
    }

    /// Raw objective energy `xᵀQx` without the feasibility gates —
    /// what the CiM crossbar computes once the filter bank has
    /// admitted the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn objective_energy(&self, x: &Assignment) -> f64 {
        self.objective.energy(x)
    }

    /// Exhaustively finds the minimum gated energy and its
    /// configuration. Exponential; for tests and tiny demos only.
    ///
    /// # Panics
    ///
    /// Panics if `self.dim() > 25` (would enumerate > 33M states).
    pub fn brute_force_minimum(&self) -> (Assignment, f64) {
        let n = self.dim();
        assert!(n <= 25, "brute force limited to 25 variables, got {n}");
        let mut best_x = Assignment::zeros(n);
        let mut best_e = self.energy(&best_x);
        for bits in 1u64..(1u64 << n) {
            let x = Assignment::from_bits((0..n).map(|i| bits >> i & 1 == 1));
            let e = self.energy(&x);
            if e < best_e {
                best_e = e;
                best_x = x;
            }
        }
        (best_x, best_e)
    }
}

/// A single-constraint inequality-QUBO is the 1-element bank.
impl From<InequalityQubo> for MultiInequalityQubo {
    fn from(iq: InequalityQubo) -> Self {
        let constraint = iq.constraint().clone();
        Self {
            objective: iq.objective().clone(),
            constraints: vec![constraint],
        }
    }
}

impl fmt::Display for MultiInequalityQubo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MultiInequalityQubo(n={}, k={}, (Q)MAX={:.1})",
            self.dim(),
            self.num_constraints(),
            self.objective.max_abs_element()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two overlapping budgets over 3 items with joint profits.
    fn example() -> MultiInequalityQubo {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -10.0);
        q.set(1, 1, -6.0);
        q.set(2, 2, -8.0);
        q.set(0, 2, -14.0);
        MultiInequalityQubo::new(
            q,
            vec![
                LinearConstraint::new(vec![4, 7, 2], 9).unwrap(),
                LinearConstraint::new(vec![1, 1, 1], 2).unwrap(),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let q = QuboMatrix::zeros(3);
        assert!(matches!(
            MultiInequalityQubo::new(q.clone(), vec![]),
            Err(QuboError::EmptyProblem)
        ));
        assert!(matches!(
            MultiInequalityQubo::new(
                QuboMatrix::zeros(0),
                vec![LinearConstraint::new(vec![1], 1).unwrap()]
            ),
            Err(QuboError::EmptyProblem)
        ));
        assert!(matches!(
            MultiInequalityQubo::new(q, vec![LinearConstraint::new(vec![1, 2], 3).unwrap()]),
            Err(QuboError::DimensionMismatch {
                expected: 3,
                found: 2
            })
        ));
    }

    #[test]
    fn all_gates_must_pass() {
        let mq = example();
        // Items 0 and 2: first constraint OK (6 ≤ 9), second OK (2 ≤ 2).
        let ok = Assignment::from_bits([true, false, true]);
        assert!(mq.is_feasible(&ok));
        assert_eq!(mq.energy(&ok), -32.0);
        assert_eq!(mq.first_violation(&ok), None);
        // All three items: first constraint broken (13 > 9) and the
        // cardinality constraint too (3 > 2).
        let over = Assignment::ones_vec(3);
        assert!(!mq.is_feasible(&over));
        assert_eq!(mq.energy(&over), 0.0);
        assert_eq!(mq.first_violation(&over), Some(0));
        assert!(mq.objective_energy(&over) < 0.0);
        // Items 1 and 2 pass the weight budget (9 ≤ 9) and the
        // cardinality budget (2 ≤ 2).
        let tight = Assignment::from_bits([false, true, true]);
        assert!(mq.is_feasible(&tight));
        assert_eq!(mq.energy(&tight), -14.0);
    }

    #[test]
    fn loads_report_per_constraint() {
        let mq = example();
        assert_eq!(
            mq.loads(&Assignment::from_bits([true, true, false])),
            [11, 2]
        );
        assert_eq!(mq.num_constraints(), 2);
        assert_eq!(mq.dim(), 3);
    }

    #[test]
    fn brute_force_respects_every_gate() {
        let mq = example();
        let (x, e) = mq.brute_force_minimum();
        assert!(mq.is_feasible(&x));
        assert_eq!(e, -32.0);
        assert_eq!(x, Assignment::from_bits([true, false, true]));
    }

    #[test]
    fn single_constraint_round_trips() {
        let iq = InequalityQubo::new(
            QuboMatrix::zeros(2),
            LinearConstraint::new(vec![1, 2], 2).unwrap(),
        )
        .unwrap();
        let mq = MultiInequalityQubo::from(iq.clone());
        assert_eq!(mq.num_constraints(), 1);
        assert_eq!(mq.objective(), iq.objective());
        assert_eq!(mq.constraints(), std::slice::from_ref(iq.constraint()));
    }

    #[test]
    fn single_form_agrees_with_multi_form() {
        let iq = InequalityQubo::new(
            {
                let mut q = QuboMatrix::zeros(3);
                q.set(0, 0, -3.0);
                q.set(1, 2, -5.0);
                q
            },
            LinearConstraint::new(vec![4, 7, 2], 9).unwrap(),
        )
        .unwrap();
        let mq = MultiInequalityQubo::from(iq.clone());
        for bits in 0u64..8 {
            let x = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1));
            assert_eq!(mq.energy(&x), iq.energy(&x));
            assert_eq!(mq.is_feasible(&x), iq.is_feasible(&x));
        }
    }

    #[test]
    fn display_mentions_constraint_count() {
        assert!(example().to_string().contains("k=2"));
    }
}
