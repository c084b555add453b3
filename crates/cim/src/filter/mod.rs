//! The FeFET-based CiM inequality filter (paper Sec 3.3, Fig. 4–5).
//!
//! Architecture (Fig. 5(b)): a **working array** stores the decomposed
//! item weights and discharges its matchline by `ΔV_unit · Σwᵢxᵢ`; a
//! **replica array** stores a precomputed weight vector with a fixed
//! input satisfying `Σw′ᵢx′ᵢ = C`, so its matchline settles at
//! `VDD − ΔV_unit · C`; a **2-stage voltage comparator** compares the
//! two. `ML ≥ ReplicaML ⇔ Σwᵢxᵢ ≤ C` — feasible configurations are
//! forwarded to the QUBO crossbar, infeasible ones bounce back to the
//! SA logic (Fig. 3).

mod array;
mod bank;
mod cell;
mod comparator;
mod read;

use std::fmt;

use hycim_fefet::{gaussian, MultiLevelSpec, VariationModel};
use hycim_qubo::Assignment;
use rand::Rng;

pub use array::FilterArray;
pub use bank::{BankDecision, FilterBank};
pub use cell::FilterCell;
pub use comparator::{ComparatorConfig, VoltageComparator};
pub use read::FilterRead;

use crate::{CimError, Fidelity, MatchlineConfig};

/// Construction parameters for an [`InequalityFilter`].
///
/// Defaults reproduce the paper's Sec 4.1 evaluation setup: 16-row
/// arrays of 5-level cells (per-item weights up to 64), 2 V supply,
/// paper-calibrated variability.
#[derive(Debug, Clone)]
pub struct FilterConfig {
    /// Rows per array (paper: 16).
    pub rows: usize,
    /// Device specification for the cells (paper: 5-level FeFET).
    pub spec: MultiLevelSpec,
    /// Matchline electrical parameters.
    pub matchline: MatchlineConfig,
    /// Device variability model.
    pub variation: VariationModel,
    /// Comparator non-idealities.
    pub comparator: ComparatorConfig,
    /// Simulation fidelity.
    pub fidelity: Fidelity,
}

impl FilterConfig {
    /// The paper's evaluation configuration (Sec 4.1).
    pub fn paper() -> Self {
        Self {
            rows: 16,
            spec: MultiLevelSpec::paper_filter(),
            matchline: MatchlineConfig::paper(),
            variation: VariationModel::paper(),
            comparator: ComparatorConfig::paper(),
            fidelity: Fidelity::default(),
        }
    }

    /// Replaces the variability model.
    pub fn with_variation(mut self, variation: VariationModel) -> Self {
        self.variation = variation;
        self
    }

    /// Replaces the comparator model.
    pub fn with_comparator(mut self, comparator: ComparatorConfig) -> Self {
        self.comparator = comparator;
        self
    }

    /// Replaces the simulation fidelity.
    pub fn with_fidelity(mut self, fidelity: Fidelity) -> Self {
        self.fidelity = fidelity;
        self
    }

    /// Largest per-item weight the working array can store.
    fn max_item_weight(&self) -> u64 {
        self.rows as u64 * u64::from(self.spec.max_level())
    }
}

impl Default for FilterConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Outcome of one filter evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FilterDecision {
    feasible: bool,
    ml: f64,
    replica_ml: f64,
}

impl FilterDecision {
    /// Whether the configuration was classified feasible
    /// (`Σwᵢxᵢ ≤ C`) and may proceed to the QUBO crossbar.
    pub fn is_feasible(&self) -> bool {
        self.feasible
    }

    /// Working-array matchline voltage (V).
    pub fn ml(&self) -> f64 {
        self.ml
    }

    /// Working ML normalized by the replica ML — the quantity plotted
    /// in paper Fig. 8 (feasible configurations land at ≥ 1).
    pub fn normalized_ml(&self) -> f64 {
        self.ml / self.replica_ml
    }
}

/// The complete inequality filter: working array + replica array +
/// comparator (paper Fig. 5(b)).
///
/// The arrays keep their cells for the device-accurate
/// [`classify`](Self::classify), waveforms and the validation figures;
/// the fast path reads the cell-free [`FilterRead`] it holds, which
/// [`into_read_model`](Self::into_read_model) keeps alone.
#[derive(Debug, Clone)]
pub struct InequalityFilter {
    working: FilterArray,
    replica: FilterArray,
    read: FilterRead,
}

impl InequalityFilter {
    /// Builds a filter for the inequality `Σ wᵢxᵢ ≤ capacity`.
    ///
    /// The replica array is programmed with a weight vector summing to
    /// `capacity` under an all-ones input (paper Eq. 10).
    ///
    /// # Errors
    ///
    /// * [`CimError::WeightTooLarge`] if an item weight exceeds
    ///   `rows × max_level` (64 in the paper configuration).
    /// * [`CimError::CapacityTooLarge`] if the capacity exceeds what
    ///   the replica array can encode (`rows × n × max_level`).
    /// * [`CimError::EmptyProblem`] for an empty weight list.
    pub fn build<R: Rng + ?Sized>(
        weights: &[u64],
        capacity: u64,
        config: &FilterConfig,
        rng: &mut R,
    ) -> Result<Self, CimError> {
        if weights.is_empty() {
            return Err(CimError::EmptyProblem);
        }
        let n = weights.len();
        let replica_limit = config.max_item_weight() * n as u64;
        if capacity > replica_limit {
            return Err(CimError::CapacityTooLarge {
                capacity,
                limit: replica_limit,
            });
        }
        let working = FilterArray::program(weights, config, rng)?;
        // Spread the capacity across the replica's n columns.
        let replica_weights = spread_capacity(capacity, n, config.max_item_weight());
        let replica = FilterArray::program(&replica_weights, config, rng)?;
        let comparator = VoltageComparator::sample(&config.comparator, rng);
        let read = FilterRead::new(
            working.fast_read(),
            replica.fast_read(),
            comparator,
            capacity,
            weights.iter().sum(),
        );
        Ok(Self {
            working,
            replica,
            read,
        })
    }

    /// The encoded capacity `C`.
    pub fn capacity(&self) -> u64 {
        self.read.capacity()
    }

    /// The working array.
    pub fn working_array(&self) -> &FilterArray {
        &self.working
    }

    /// The replica array.
    pub fn replica_array(&self) -> &FilterArray {
        &self.replica
    }

    /// The comparator instance.
    pub fn comparator(&self) -> &VoltageComparator {
        self.read.comparator()
    }

    /// The fast-path read model alone, dropping both arrays' cells — a
    /// programmed chip keeps only this.
    pub fn into_read_model(self) -> FilterRead {
        self.read
    }

    /// Evaluates one input configuration: precharge, 4-phase staircase
    /// on both arrays, comparator decision (paper Fig. 5(f)).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the number of items.
    pub fn classify<R: Rng + ?Sized>(&self, x: &Assignment, rng: &mut R) -> FilterDecision {
        let ml = self.working.evaluate(x, rng);
        let replica_ml = self
            .replica
            .evaluate(&Assignment::ones_vec(self.replica.num_columns()), rng);
        let z = if self.comparator().noise_sigma() > 0.0 {
            gaussian(rng)
        } else {
            0.0
        };
        self.read.decide(ml, replica_ml, z)
    }

    /// Fast-path classification from a precomputed load (the SA loop
    /// tracks `Σwᵢxᵢ` incrementally in O(1) per flip); see
    /// [`FilterRead::classify_load`].
    pub fn classify_load<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> FilterDecision {
        self.read.classify_load(load, rng)
    }
}

impl fmt::Display for InequalityFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InequalityFilter({}×{} working + replica, C={})",
            self.working.num_rows(),
            self.working.num_columns(),
            self.capacity()
        )
    }
}

/// Spreads a capacity across `n` replica columns, each holding at most
/// `max_per_column` units.
fn spread_capacity(capacity: u64, n: usize, max_per_column: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(n);
    let mut remaining = capacity;
    for _ in 0..n {
        let chunk = remaining.min(max_per_column);
        out.push(chunk);
        remaining -= chunk;
    }
    debug_assert_eq!(remaining, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn build_fig5f(config: &FilterConfig, seed: u64) -> (InequalityFilter, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let filter = InequalityFilter::build(&[4, 7, 2], 9, config, &mut rng).unwrap();
        (filter, rng)
    }

    #[test]
    fn fig5f_truth_table_device_accurate() {
        // Paper Fig. 5(f): all 8 configurations of 4x₁+7x₂+2x₃ ≤ 9.
        let config = FilterConfig::default().with_fidelity(Fidelity::DeviceAccurate);
        let (filter, mut rng) = build_fig5f(&config, 11);
        for bits in 0u32..8 {
            let x = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1));
            let load = [4u64, 7, 2]
                .iter()
                .zip(x.iter())
                .filter(|(_, b)| *b)
                .map(|(w, _)| w)
                .sum::<u64>();
            let decision = filter.classify(&x, &mut rng);
            assert_eq!(
                decision.is_feasible(),
                load <= 9,
                "load {load} misclassified (ml {:.4}, replica {:.4})",
                decision.ml(),
                decision.replica_ml
            );
        }
    }

    #[test]
    fn fig5f_truth_table_fast() {
        let config = FilterConfig::default().with_fidelity(Fidelity::Fast);
        let (filter, mut rng) = build_fig5f(&config, 12);
        for bits in 0u32..8 {
            let x = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1));
            let load = [4u64, 7, 2]
                .iter()
                .zip(x.iter())
                .filter(|(_, b)| *b)
                .map(|(w, _)| w)
                .sum::<u64>();
            assert_eq!(filter.classify(&x, &mut rng).is_feasible(), load <= 9);
            assert_eq!(
                filter.classify_load(load, &mut rng).is_feasible(),
                load <= 9
            );
        }
    }

    #[test]
    fn normalized_ml_separates_classes() {
        // The Fig. 8 property: feasible configurations normalize ≥ ~1,
        // infeasible < 1.
        let config = FilterConfig::default().with_fidelity(Fidelity::DeviceAccurate);
        let (filter, mut rng) = build_fig5f(&config, 13);
        let feasible = filter.classify(&Assignment::from_bits([true, false, true]), &mut rng);
        let infeasible = filter.classify(&Assignment::from_bits([true, true, true]), &mut rng);
        assert!(feasible.normalized_ml() >= 0.999);
        assert!(infeasible.normalized_ml() < 1.0);
        assert!(feasible.normalized_ml() > infeasible.normalized_ml());
    }

    #[test]
    fn capacity_too_large_rejected() {
        let mut rng = StdRng::seed_from_u64(14);
        // 1 item → replica limit is 64.
        let err =
            InequalityFilter::build(&[4], 65, &FilterConfig::default(), &mut rng).unwrap_err();
        assert!(matches!(err, CimError::CapacityTooLarge { limit: 64, .. }));
    }

    #[test]
    fn paper_scale_16x100_filter() {
        // The Sec 4.1 array size: 16×100, weights ≤ 64, capacity up to
        // the paper's 2536.
        let mut rng = StdRng::seed_from_u64(15);
        let weights: Vec<u64> = (0..100).map(|i| (i % 50) + 1).collect();
        let filter =
            InequalityFilter::build(&weights, 1300, &FilterConfig::default(), &mut rng).unwrap();
        assert_eq!(filter.working_array().num_columns(), 100);
        assert_eq!(filter.working_array().num_rows(), 16);
        // A clearly light configuration passes, a clearly heavy one fails.
        let light = Assignment::from_bits((0..100).map(|i| i < 10));
        let heavy = Assignment::ones_vec(100);
        assert!(filter.classify(&light, &mut rng).is_feasible());
        assert!(!filter.classify(&heavy, &mut rng).is_feasible());
    }

    #[test]
    fn spread_capacity_sums() {
        let spread = spread_capacity(130, 5, 64);
        assert_eq!(spread.iter().sum::<u64>(), 130);
        assert!(spread.iter().all(|&c| c <= 64));
    }

    /// The paper configuration with its noise scaled by `factor`: cell
    /// variability and both comparator sigmas.
    pub(super) fn scaled_noise(factor: f64) -> FilterConfig {
        let paper = ComparatorConfig::paper();
        FilterConfig::paper()
            .with_variation(VariationModel::paper().scaled(factor))
            .with_comparator(ComparatorConfig {
                offset_sigma: factor * paper.offset_sigma,
                noise_sigma: factor * paper.noise_sigma,
            })
    }

    /// A filter's read model, both arrays' cells dropped, reads as the
    /// filter's fast path: over every load in `0..=Σw+1`, its
    /// `admits_all` verdict as a bank of one is the filter's
    /// `classify_load(..).is_feasible()` and its `classify_load` the
    /// same decision, and each leaves the stream where the filter's
    /// `classify_load` leaves it. The streams run in lockstep over the
    /// whole sweep. At paper noise and at 10× noise.
    #[test]
    fn read_model_reads_as_the_filter_over_every_load() {
        use rand::RngCore;
        let weights: Vec<u64> = (0..100).map(|i| (i % 50) + 1).collect();
        let total: u64 = weights.iter().sum();
        for factor in [1.0, 10.0] {
            for seed in 0..3 {
                let mut rng = StdRng::seed_from_u64(seed);
                let filter =
                    InequalityFilter::build(&weights, 1300, &scaled_noise(factor), &mut rng)
                        .unwrap();
                let read = filter.clone().into_read_model();
                let stream = StdRng::seed_from_u64(seed ^ 0x4ead);
                let mut verdicts = stream.clone();
                let mut models = stream.clone();
                let mut decisions = stream;
                for load in 0..=total + 1 {
                    let decision = filter.classify_load(load, &mut decisions);
                    assert_eq!(
                        FilterRead::admits_all(std::slice::from_ref(&read), &[load], &mut verdicts),
                        decision.is_feasible(),
                        "{factor}× noise, seed {seed}: verdicts differ at load {load}"
                    );
                    assert_eq!(
                        read.classify_load(load, &mut models),
                        decision,
                        "{factor}× noise, seed {seed}: decisions differ at load {load}"
                    );
                    let next = decisions.next_u64();
                    assert_eq!(verdicts.next_u64(), next, "stream diverged at load {load}");
                    assert_eq!(models.next_u64(), next, "stream diverged at load {load}");
                }
            }
        }
    }

    #[test]
    fn display_mentions_capacity() {
        let (filter, _) = build_fig5f(&FilterConfig::default(), 16);
        assert!(filter.to_string().contains("C=9"));
    }
}
