use std::fmt;

use hycim_qubo::{Assignment, LinearConstraint};
use rand::Rng;

use crate::filter::array::{ArrayRead, Realize};
use crate::filter::{Fabricated, FilterConfig, FilterDecision, FilterRead, InequalityFilter};
use crate::CimError;

/// A bank of inequality filters evaluating several constraints in
/// parallel — the natural multi-constraint generalization of the
/// paper's single-filter architecture (Sec 3.3), needed for COPs like
/// bin packing where every bin contributes one `Σ sᵢx_{i,k} ≤ C`
/// inequality (paper Sec 1 lists bin packing among the motivating
/// problems).
///
/// A configuration is admitted only when **every** filter reports it
/// feasible; in hardware all filters evaluate concurrently in the same
/// 4-phase read, so the bank costs one filter latency regardless of
/// the constraint count.
///
/// # Example
///
/// ```
/// use hycim_cim::filter::{FilterBank, FilterConfig};
/// use hycim_qubo::{Assignment, LinearConstraint};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let constraints = vec![
///     LinearConstraint::new(vec![3, 0, 4], 5)?,
///     LinearConstraint::new(vec![0, 6, 2], 7)?,
/// ];
/// let bank = FilterBank::build(&constraints, &FilterConfig::default(), &mut rng)?;
/// let x = Assignment::from_bits([true, true, false]);
/// assert!(bank.classify(&x, &mut rng).is_feasible()); // 3 ≤ 5 and 6 ≤ 7
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FilterBank {
    filters: Vec<InequalityFilter>,
    constraints: Vec<LinearConstraint>,
}

/// Outcome of one bank evaluation: per-filter decisions plus the
/// aggregate verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct BankDecision {
    decisions: Vec<FilterDecision>,
}

impl BankDecision {
    /// Whether every constraint was classified feasible.
    pub fn is_feasible(&self) -> bool {
        self.decisions.iter().all(FilterDecision::is_feasible)
    }

    /// Index of the first violated constraint, if any.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_cim::filter::{FilterBank, FilterConfig};
    /// use hycim_qubo::{Assignment, LinearConstraint};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut rng = StdRng::seed_from_u64(7);
    /// // Noise-free filters so the doctest is exact at any seed.
    /// let config = FilterConfig::default()
    ///     .with_variation(hycim_fefet::VariationModel::none())
    ///     .with_comparator(hycim_cim::filter::ComparatorConfig::ideal());
    /// let bank = FilterBank::build(
    ///     &[
    ///         LinearConstraint::new(vec![3, 0, 4], 5)?,
    ///         LinearConstraint::new(vec![0, 6, 2], 7)?,
    ///     ],
    ///     &config,
    ///     &mut rng,
    /// )?;
    /// // x = 101: first constraint loaded to 7 > 5, second to 2 ≤ 7.
    /// let decision = bank.classify(&Assignment::parse_bit_string("101").unwrap(), &mut rng);
    /// assert_eq!(decision.first_violation(), Some(0));
    /// // A feasible configuration has no violation to report.
    /// let ok = bank.classify(&Assignment::parse_bit_string("100").unwrap(), &mut rng);
    /// assert_eq!(ok.first_violation(), None);
    /// # Ok(())
    /// # }
    /// ```
    pub fn first_violation(&self) -> Option<usize> {
        self.decisions.iter().position(|d| !d.is_feasible())
    }
}

impl FilterBank {
    /// Builds one filter per constraint. All constraints must share
    /// the same variable count.
    ///
    /// # Errors
    ///
    /// * [`CimError::EmptyProblem`] for an empty constraint list.
    /// * [`CimError::DimensionMismatch`] if constraint dimensions
    ///   disagree.
    /// * Per-filter mapping errors ([`CimError::WeightTooLarge`],
    ///   [`CimError::CapacityTooLarge`]).
    pub fn build<R: Rng + ?Sized>(
        constraints: &[LinearConstraint],
        config: &FilterConfig,
        rng: &mut R,
    ) -> Result<Self, CimError> {
        Ok(Self {
            filters: Fabricated::build_bank(constraints, config, rng)?
                .into_iter()
                .map(InequalityFilter::from_fabricated)
                .collect(),
            constraints: constraints.to_vec(),
        })
    }

    /// Number of constraints / filters.
    pub fn len(&self) -> usize {
        self.filters.len()
    }

    /// Whether the bank is empty (never true for a built bank).
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty()
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.constraints[0].dim()
    }

    /// The constraints encoded in the bank.
    pub fn constraints(&self) -> &[LinearConstraint] {
        &self.constraints
    }

    /// The individual filters.
    pub fn filters(&self) -> &[InequalityFilter] {
        &self.filters
    }

    /// Evaluates a configuration against every constraint.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn classify<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> BankDecision {
        BankDecision {
            decisions: self.filters.iter().map(|f| f.classify(x, rng)).collect(),
        }
    }

    /// Fast-path evaluation from precomputed per-constraint loads (the
    /// SA loop tracks each load incrementally).
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != self.len()`.
    pub fn classify_loads<R: Rng + ?Sized>(&self, loads: &[u64], rng: &mut R) -> BankDecision {
        assert_eq!(loads.len(), self.len(), "one load per constraint");
        BankDecision {
            decisions: self
                .filters
                .iter()
                .zip(loads)
                .map(|(f, &load)| f.classify_load(load, rng))
                .collect(),
        }
    }

    /// The filters' read models, in constraint order, dropping every
    /// array's cells — what [`FilterRead::build_bank`] fabricates, and
    /// what [`FilterRead::admits_all`] reads for the verdict of
    /// [`classify_loads`](Self::classify_loads).
    pub fn into_read_models(self) -> Vec<FilterRead> {
        self.filters
            .into_iter()
            .map(InequalityFilter::into_read_model)
            .collect()
    }
}

impl FilterRead {
    /// The read models of the filters [`FilterBank::build`] builds, in
    /// constraint order, fabricated without a single cell: each array
    /// is realized as its read constants, its cells' variability draws
    /// skipped. Bit for bit the bank's
    /// [`into_read_models`](FilterBank::into_read_models), leaving
    /// `rng` where that build leaves it — what a programmed chip
    /// keeps.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`FilterBank::build`].
    pub fn build_bank<R: Rng + ?Sized>(
        constraints: &[LinearConstraint],
        config: &FilterConfig,
        rng: &mut R,
    ) -> Result<Vec<Self>, CimError> {
        Ok(
            Fabricated::<ArrayRead>::build_bank(constraints, config, rng)?
                .into_iter()
                .map(|filter| filter.read)
                .collect(),
        )
    }
}

impl<A: Realize> Fabricated<A> {
    /// One filter per constraint, in constraint order — the bank's one
    /// fabrication sequence. Errors as [`FilterBank::build`].
    fn build_bank<R: Rng + ?Sized>(
        constraints: &[LinearConstraint],
        config: &FilterConfig,
        rng: &mut R,
    ) -> Result<Vec<Self>, CimError> {
        let Some(first) = constraints.first() else {
            return Err(CimError::EmptyProblem);
        };
        let dim = first.dim();
        let mut filters = Vec::with_capacity(constraints.len());
        for c in constraints {
            if c.dim() != dim {
                return Err(CimError::DimensionMismatch {
                    expected: dim,
                    found: c.dim(),
                });
            }
            filters.push(Self::build(c.weights(), c.capacity(), config, rng)?);
        }
        Ok(filters)
    }
}

impl fmt::Display for FilterBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FilterBank({} constraints, n={})",
            self.len(),
            self.dim()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn constraints() -> Vec<LinearConstraint> {
        vec![
            LinearConstraint::new(vec![3, 0, 4, 1], 5).unwrap(),
            LinearConstraint::new(vec![0, 6, 2, 2], 7).unwrap(),
        ]
    }

    #[test]
    fn build_and_classify() {
        let mut rng = StdRng::seed_from_u64(1);
        let bank = FilterBank::build(&constraints(), &FilterConfig::default(), &mut rng)
            .expect("buildable");
        assert_eq!(bank.len(), 2);
        assert_eq!(bank.dim(), 4);

        // x = 1100: loads (3, 6) → both within capacity.
        let ok = bank.classify(&Assignment::parse_bit_string("1100").unwrap(), &mut rng);
        assert!(ok.is_feasible());
        assert!(ok.first_violation().is_none());

        // x = 1010: loads (7, 2) → first constraint violated (7 > 5).
        let bad = bank.classify(&Assignment::parse_bit_string("1010").unwrap(), &mut rng);
        assert!(!bad.is_feasible());
        assert_eq!(bad.first_violation(), Some(0));
        assert_eq!(bad.decisions.len(), 2);
    }

    #[test]
    fn fast_path_agrees_with_full_path() {
        // Noise off: at the 1-unit analog margins in `constraints()` a
        // badly-offset comparator sample can legitimately misclassify
        // (cf. Fig. 8 error rates), and this test asserts the *exact*
        // equivalence of the two evaluation paths, not noise
        // robustness — so it must hold for every seed.
        let config = FilterConfig::default()
            .with_variation(hycim_fefet::VariationModel::none())
            .with_comparator(crate::filter::ComparatorConfig::ideal());
        let mut rng = StdRng::seed_from_u64(2);
        let cs = constraints();
        let bank = FilterBank::build(&cs, &config, &mut rng).unwrap();
        let reads = bank.clone().into_read_models();
        for bits in 0u32..16 {
            let x = Assignment::from_bits((0..4).map(|i| bits >> i & 1 == 1));
            let loads: Vec<u64> = cs.iter().map(|c| c.load(&x)).collect();
            let full = bank.classify(&x, &mut rng).is_feasible();
            let fast = bank.classify_loads(&loads, &mut rng).is_feasible();
            let exact = cs.iter().all(|c| c.is_satisfied(&x));
            assert_eq!(full, exact, "full path wrong for {x}");
            assert_eq!(fast, exact, "fast path wrong for {x}");
            let admitted = FilterRead::admits_all(&reads, &loads, &mut rng);
            assert_eq!(admitted, exact, "admits_all wrong for {x}");
        }

        // Noisy filters: `admits_all` returns the `classify_loads`
        // verdict and leaves the RNG stream exactly where
        // `classify_loads` does, including on loads that only one
        // filter vetoes.
        let noisy = FilterBank::build(&cs, &FilterConfig::default(), &mut rng).unwrap();
        let noisy_reads = noisy.clone().into_read_models();
        let mut verdicts = StdRng::seed_from_u64(5);
        let mut decisions = StdRng::seed_from_u64(5);
        for bits in 0u32..16 {
            let x = Assignment::from_bits((0..4).map(|i| bits >> i & 1 == 1));
            let loads: Vec<u64> = cs.iter().map(|c| c.load(&x)).collect();
            assert_eq!(
                FilterRead::admits_all(&noisy_reads, &loads, &mut verdicts),
                noisy.classify_loads(&loads, &mut decisions).is_feasible(),
                "verdicts differ for {x}"
            );
            assert_eq!(
                verdicts.random::<u64>(),
                decisions.random::<u64>(),
                "RNG streams diverged after {x}"
            );
        }
    }

    /// Fabrication law for banks of 1, 2 and 5 filters:
    /// [`FilterRead::build_bank`] returns, field for field, the bits of
    /// the cell-built bank's read models, and leaves the stream at the
    /// same word.
    #[test]
    fn cell_free_bank_reads_as_the_cell_built_one() {
        let n = 9;
        let constraint = |k: u64| {
            let weights = (0..n).map(|i| (i * 7 + k * 13) % 65).collect();
            LinearConstraint::new(weights, 1 + k * 97 % (64 * n)).unwrap()
        };
        for k in [1, 2, 5] {
            let cs: Vec<LinearConstraint> = (0..k).map(constraint).collect();
            for (name, config) in crate::filter::tests::law_configs() {
                for seed in 0..3 {
                    let mut cells = StdRng::seed_from_u64(seed);
                    let mut skipped = cells.clone();
                    let built = FilterBank::build(&cs, &config, &mut cells)
                        .unwrap()
                        .into_read_models();
                    let free = FilterRead::build_bank(&cs, &config, &mut skipped).unwrap();
                    assert_eq!(free.len(), built.len());
                    for (f, b) in free.iter().zip(&built) {
                        assert_eq!(
                            f.field_bits(),
                            b.field_bits(),
                            "k = {k}, {name}, seed {seed}"
                        );
                    }
                    let case = format!("k = {k}, {name}, seed {seed}: stream");
                    assert_eq!(skipped.next_u64(), cells.next_u64(), "{case}");
                }
            }
        }
    }

    /// [`FilterRead::build_bank`] refuses exactly the banks
    /// [`FilterBank::build`] refuses, with the same error.
    #[test]
    fn cell_free_bank_errors_as_the_cell_built_one() {
        let c = |weights: Vec<u64>, capacity| LinearConstraint::new(weights, capacity).unwrap();
        let cases = [
            (vec![], CimError::EmptyProblem),
            (
                vec![c(vec![1, 2], 3), c(vec![1, 2, 3], 3)],
                CimError::DimensionMismatch {
                    expected: 2,
                    found: 3,
                },
            ),
            (
                vec![c(vec![1, 2, 3, 4], 3), c(vec![5, 64, 65, 70], 9)],
                CimError::WeightTooLarge {
                    item: 2,
                    weight: 65,
                    limit: 64,
                },
            ),
            (
                vec![c(vec![1, 2], 3), c(vec![4, 4], 129)],
                CimError::CapacityTooLarge {
                    capacity: 129,
                    limit: 128,
                },
            ),
        ];
        let config = FilterConfig::paper();
        for (cs, expected) in cases {
            let mut rng = StdRng::seed_from_u64(3);
            let built = FilterBank::build(&cs, &config, &mut rng).unwrap_err();
            assert_eq!(built, expected);
            let free = FilterRead::build_bank(&cs, &config, &mut rng).unwrap_err();
            assert_eq!(free, expected);
        }
    }

    /// A 200-item bank whose filters span the load range: a heavy
    /// constraint whose working matchline rails at ground well before
    /// `Σw`, a paper-scale one, and a light sparse one.
    fn law_constraints() -> Vec<LinearConstraint> {
        let n = 200;
        vec![
            LinearConstraint::new(vec![64; n], 10_050).unwrap(),
            LinearConstraint::new((0..n as u64).map(|i| i % 50 + 1).collect(), 1300).unwrap(),
            LinearConstraint::new((0..n as u64).map(|i| i % 4).collect(), 40).unwrap(),
        ]
    }

    /// A stream on which every Box–Muller draw is extreme: `u1` is the
    /// smallest accepted value 2⁻⁵³ and `u2` is 0 or ½, so each sample
    /// is `±√(106·ln 2)` with a seeded random sign — the draws that
    /// test the verdict bound hardest.
    #[derive(Clone)]
    struct ExtremeDraws {
        signs: StdRng,
        next_is_u2: bool,
    }

    impl RngCore for ExtremeDraws {
        fn next_u64(&mut self) -> u64 {
            self.next_is_u2 = !self.next_is_u2;
            match (self.next_is_u2, self.signs.random::<bool>()) {
                (true, _) => 1 << 11,
                (false, true) => 0,
                (false, false) => 1 << 63,
            }
        }
    }

    /// `FilterRead::admits_all` over the bank's cell-free read models
    /// returns the `classify_loads` verdict and leaves the RNG stream
    /// where `classify_loads` leaves it: over every load in `0..=Σw` of
    /// each filter, with each filter in turn at every load in
    /// `0..=Σw+1` (the others empty or at capacity), and at every load
    /// within ±8 units of each capacity (the others empty, at capacity,
    /// or full). The two streams run in lockstep over the whole sweep,
    /// so a single skipped or extra draw shows up at the next
    /// comparison. Each read model, read as a bank of one, is held to
    /// its filter's `classify_load` the same way at load 0 and on both
    /// sides of its two load thresholds, and the thresholds are checked
    /// against the conditions they stand for at every load. Checked on
    /// a seeded stream and on [`ExtremeDraws`].
    fn check_admits_law(config: &FilterConfig, seed: u64) {
        check_thresholds(config, seed);
        let stream = StdRng::seed_from_u64(seed ^ 0x5eed);
        check_admits_law_on(config, seed, stream.clone());
        let extreme = ExtremeDraws {
            signs: stream,
            next_is_u2: false,
        };
        check_admits_law_on(config, seed, extreme);
    }

    /// The certain-admit loads are exactly those whose noise-free
    /// distance beats the largest shift at that load, and the
    /// certain-veto loads exactly those whose distance falls below
    /// minus the largest shift at the full load.
    fn check_thresholds(config: &FilterConfig, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bank = FilterBank::build(&law_constraints(), config, &mut rng).unwrap();
        for f in bank.into_read_models() {
            let extreme = [hycim_fefet::GAUSSIAN_MAX; 3];
            let widest = f.shift(f.max_load, extreme);
            for load in 0..=f.max_load {
                let d = f.distance(load);
                assert_eq!(
                    load < f.admit_upto,
                    d > f.shift(load, extreme),
                    "{f:?} at {load}"
                );
                assert_eq!(load >= f.veto_from, -d > widest, "{f:?} at {load}");
            }
        }
    }

    /// The loads at which a filter's read path changes: load 0 (no
    /// working draw) and both sides of each threshold, within `0..=Σw`.
    fn threshold_loads(f: &FilterRead) -> Vec<u64> {
        [
            0,
            f.admit_upto,
            f.admit_upto + 1,
            f.veto_from.saturating_sub(1),
            f.veto_from,
        ]
        .into_iter()
        .filter(|&l| l <= f.max_load)
        .collect()
    }

    fn check_admits_law_on<R: RngCore + Clone>(config: &FilterConfig, seed: u64, stream: R) {
        let cs = law_constraints();
        let mut rng = StdRng::seed_from_u64(seed);
        let bank = FilterBank::build(&cs, config, &mut rng).unwrap();
        let totals: Vec<u64> = cs.iter().map(|c| c.weights().iter().sum()).collect();
        let mut cases: Vec<Vec<u64>> = (0..=*totals.iter().max().unwrap())
            .map(|l| totals.iter().map(|&t| l.min(t)).collect())
            .collect();
        for (f, &total) in totals.iter().enumerate() {
            for others in [0, 1] {
                for load in 0..=total + 1 {
                    let mut loads: Vec<u64> =
                        cs.iter().map(|c| [0, c.capacity()][others]).collect();
                    loads[f] = load;
                    cases.push(loads);
                }
            }
        }
        for (f, c) in cs.iter().enumerate() {
            let near = c.capacity().saturating_sub(8)..=(c.capacity() + 8).min(totals[f]);
            for load in near {
                for others in [0, 1, 2] {
                    let mut loads: Vec<u64> = cs
                        .iter()
                        .zip(&totals)
                        .map(|(c, &t)| [0, c.capacity(), t][others])
                        .collect();
                    loads[f] = load;
                    cases.push(loads);
                }
            }
        }
        let reads = bank.clone().into_read_models();
        let mut models = stream.clone();
        let mut decisions = stream;
        for loads in &cases {
            assert_eq!(
                FilterRead::admits_all(&reads, loads, &mut models),
                bank.classify_loads(loads, &mut decisions).is_feasible(),
                "read-model verdicts differ at loads {loads:?}"
            );
            assert_eq!(
                models.next_u64(),
                decisions.next_u64(),
                "read-model RNG stream diverged after loads {loads:?}"
            );
        }
        for (f, filter) in reads.iter().zip(bank.filters()) {
            for load in threshold_loads(f) {
                assert_eq!(
                    FilterRead::admits_all(std::slice::from_ref(f), &[load], &mut models),
                    filter.classify_load(load, &mut decisions).is_feasible(),
                    "{f:?}: verdicts differ at load {load}"
                );
                assert_eq!(
                    models.next_u64(),
                    decisions.next_u64(),
                    "{f:?}: RNG streams diverged after load {load}"
                );
            }
        }
    }

    /// A bank read with one filter certainly vetoing and another in its
    /// band (drawing, possibly settling) returns the `classify_loads`
    /// verdict and leaves the stream where `classify_loads` does, with
    /// the veto before or after the band read — through the bank's
    /// read models.
    fn check_veto_short_circuit<R: RngCore + Clone>(config: &FilterConfig, stream: R) {
        let cs = law_constraints();
        let bank = FilterBank::build(&cs, config, &mut StdRng::seed_from_u64(9)).unwrap();
        let reads = bank.clone().into_read_models();
        let mut models = stream.clone();
        let mut decisions = stream;
        let mut cases = 0;
        for (v, vetoing) in reads.iter().enumerate() {
            if vetoing.veto_from > vetoing.max_load {
                continue;
            }
            for (b, banded) in reads.iter().enumerate() {
                if b == v {
                    continue;
                }
                for load in banded.admit_upto..banded.veto_from.min(banded.max_load + 1) {
                    let mut loads = vec![0; cs.len()];
                    loads[v] = vetoing.max_load;
                    loads[b] = load;
                    assert!(!FilterRead::admits_all(&reads, &loads, &mut models));
                    assert!(!bank.classify_loads(&loads, &mut decisions).is_feasible());
                    assert_eq!(models.next_u64(), decisions.next_u64(), "loads {loads:?}");
                    cases += 1;
                }
            }
        }
        assert!(cases > 0, "no filter pair has a certain veto and a band");
    }

    #[test]
    fn certain_veto_short_circuits_the_bank() {
        let heavy = FilterConfig::paper()
            .with_variation(hycim_fefet::VariationModel::paper().scaled(20.0))
            .with_comparator(crate::filter::ComparatorConfig {
                offset_sigma: 0.05e-3,
                noise_sigma: 1e-3,
            });
        for config in [FilterConfig::paper(), heavy] {
            let stream = StdRng::seed_from_u64(0x7e70);
            check_veto_short_circuit(&config, stream.clone());
            let extreme = ExtremeDraws {
                signs: stream,
                next_is_u2: false,
            };
            check_veto_short_circuit(&config, extreme);
        }
    }

    #[test]
    fn admits_equals_classify_loads_under_paper_noise() {
        for seed in 0..3 {
            check_admits_law(&FilterConfig::paper(), seed);
        }
    }

    #[test]
    fn admits_equals_classify_loads_under_ten_times_paper_noise() {
        for seed in 0..3 {
            check_admits_law(&crate::filter::tests::scaled_noise(10.0), seed);
        }
    }

    #[test]
    fn admits_equals_classify_loads_on_ideal_hardware() {
        let config = FilterConfig::paper()
            .with_variation(hycim_fefet::VariationModel::none())
            .with_comparator(crate::filter::ComparatorConfig::ideal());
        check_admits_law(&config, 0);
    }

    /// Noisy matchlines beside an ideal comparator, and ideal devices
    /// beside a noisy comparator: a read draws some of its samples but
    /// not all, so a miscounted skip shows as a diverged stream.
    #[test]
    fn admits_equals_classify_loads_with_mixed_noise_sources() {
        let noisy_arrays =
            FilterConfig::paper().with_comparator(crate::filter::ComparatorConfig::ideal());
        let noisy_comparator =
            FilterConfig::paper().with_variation(hycim_fefet::VariationModel::none());
        for seed in 0..3 {
            check_admits_law(&noisy_arrays, seed);
            check_admits_law(&noisy_comparator, seed);
        }
    }

    #[test]
    fn admits_equals_classify_loads_under_heavy_noise() {
        let config = FilterConfig::paper()
            .with_variation(hycim_fefet::VariationModel::paper().scaled(20.0))
            .with_comparator(crate::filter::ComparatorConfig {
                offset_sigma: 0.05e-3,
                noise_sigma: 1e-3,
            });
        for seed in 0..3 {
            check_admits_law(&config, seed);
        }
    }

    #[test]
    fn rejects_empty_and_mismatched() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(matches!(
            FilterBank::build(&[], &FilterConfig::default(), &mut rng),
            Err(CimError::EmptyProblem)
        ));
        let mismatched = vec![
            LinearConstraint::new(vec![1, 2], 3).unwrap(),
            LinearConstraint::new(vec![1, 2, 3], 4).unwrap(),
        ];
        assert!(matches!(
            FilterBank::build(&mismatched, &FilterConfig::default(), &mut rng),
            Err(CimError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn display_shows_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let bank = FilterBank::build(&constraints(), &FilterConfig::default(), &mut rng).unwrap();
        assert!(bank.to_string().contains("2 constraints"));
    }
}
