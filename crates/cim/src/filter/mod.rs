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

use std::fmt;

use hycim_fefet::{
    gaussian, skip_gaussian, GaussianDraw, MultiLevelSpec, VariationModel, GAUSSIAN_MAX,
};
use hycim_qubo::Assignment;
use rand::Rng;

pub use array::{decompose_weight, FilterArray};
pub use bank::{BankDecision, FilterBank};
pub use cell::FilterCell;
pub use comparator::{ComparatorConfig, VoltageComparator};

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

    /// Replaces the row count.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn with_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "need at least one row");
        self.rows = rows;
        self
    }

    /// Largest per-item weight the working array can store.
    pub fn max_item_weight(&self) -> u64 {
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

    /// Replica matchline voltage (V).
    pub fn replica_ml(&self) -> f64 {
        self.replica_ml
    }

    /// Working ML normalized by the replica ML — the quantity plotted
    /// in paper Fig. 8 (feasible configurations land at ≥ 1).
    pub fn normalized_ml(&self) -> f64 {
        self.ml / self.replica_ml
    }
}

/// The complete inequality filter: working array + replica array +
/// comparator (paper Fig. 5(b)).
#[derive(Debug, Clone)]
pub struct InequalityFilter {
    working: FilterArray,
    replica: FilterArray,
    comparator: VoltageComparator,
    capacity: u64,
    /// Built-in feasibility bias (V): the comparator latch is skewed by
    /// half a weight unit so the exact-boundary case `Σwᵢxᵢ = C`
    /// (which the paper's Fig. 5(f) counts as feasible, `9 ≤ 9`)
    /// resolves feasible; the decision threshold then sits midway
    /// between loads `C` and `C+1`.
    decision_margin: f64,
    // Per-filter constants of `admits_load`, fixed at build.
    /// Noise-free replica ML at `C` plus the comparator offset (V).
    replica_threshold: f64,
    /// Working-array ML drop per weight unit (V).
    working_unit_drop: f64,
    /// σ, in weight units, of the replica read at `C`.
    replica_sigma: f64,
    /// `replica_sigma` times the replica ML drop per weight unit (V).
    replica_spread: f64,
    /// Loads below this are admitted whatever the noise draws.
    admit_upto: u64,
    /// Loads from this up to `max_load` are vetoed whatever the noise
    /// draws.
    veto_from: u64,
    /// The working array's full load `Σwᵢ`.
    max_load: u64,
}

/// The noise samples of one fast-path read, in draw order — working
/// ML, replica ML, comparator — with `None` where the read draws none.
type ReadDraws = [Option<GaussianDraw>; 3];

/// What the draws of one fast-path read settle.
enum Read {
    /// No sample can flip the verdict: the noise-free one stands.
    Certain(bool),
    /// The verdict needs the samples' values.
    Band(ReadDraws),
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
        let decision_margin = 0.5 * config.matchline.unit_drop();
        let replica_threshold = replica.discharged(capacity).voltage() + comparator.offset();
        let working_unit_drop = working.matchline_config().unit_drop();
        let replica_sigma = replica.read_noise_units(capacity);
        let replica_spread = replica_sigma * replica.matchline_config().unit_drop();
        let max_load = weights.iter().sum();
        let mut filter = Self {
            working,
            replica,
            comparator,
            capacity,
            decision_margin,
            replica_threshold,
            working_unit_drop,
            replica_sigma,
            replica_spread,
            admit_upto: 0,
            veto_from: max_load + 1,
            max_load,
        };
        // `distance` does not increase with the load (the working ML
        // only discharges further) and the largest shift any draws can
        // cause does not decrease (σ_w grows as √load), in exact and in
        // rounded arithmetic alike, since every step is monotone. So
        // the loads whose distance beats that shift form a prefix; the
        // loads whose distance falls below minus the shift at the full
        // load form a suffix of `0..=Σw`.
        let extreme = [GAUSSIAN_MAX; 3];
        let widest = filter.shift(max_load, extreme);
        filter.admit_upto = first_failing(max_load + 1, |l| {
            filter.distance(l) > filter.shift(l, extreme)
        });
        filter.veto_from = first_failing(max_load + 1, |l| -filter.distance(l) <= widest);
        Ok(filter)
    }

    /// The encoded capacity `C`.
    pub fn capacity(&self) -> u64 {
        self.capacity
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
        &self.comparator
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
        let z = if self.comparator.noise_sigma() > 0.0 {
            gaussian(rng)
        } else {
            0.0
        };
        let feasible = self
            .comparator
            .at_least(ml + self.decision_margin, replica_ml, z);
        FilterDecision {
            feasible,
            ml,
            replica_ml,
        }
    }

    /// Fast-path classification from a precomputed load (the SA loop
    /// tracks `Σwᵢxᵢ` incrementally in O(1) per flip).
    pub fn classify_load<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> FilterDecision {
        let draws = self.draw(load, rng);
        self.settle(load, draws)
    }

    /// The verdict of [`classify_load`](Self::classify_load), leaving
    /// `rng` exactly where `classify_load` leaves it — the SA hot
    /// loop's read. The noise math runs only when a draw could flip the
    /// verdict:
    ///
    /// 1. Loads below a build-time threshold, and loads from a second
    ///    one up to `Σwᵢ`, keep their noise-free verdict under any
    ///    draws (each sample is at most [`GAUSSIAN_MAX`] in
    ///    magnitude): the draws are skipped, advancing the stream
    ///    without the math.
    /// 2. Otherwise the samples are drawn, and the noise-free verdict
    ///    stands when the decision distance exceeds the largest shift
    ///    these particular draws can cause, from
    ///    [`GaussianDraw::bound`].
    /// 3. Only otherwise is the read settled through the arithmetic of
    ///    `classify_load`.
    pub fn admits_load<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> bool {
        match self.read(load, rng) {
            Read::Certain(admitted) => admitted,
            Read::Band(draws) => self.settle(load, draws).is_feasible(),
        }
    }

    /// Draws the samples of a read at `load` and settles what they can
    /// settle without their values (steps 1 and 2 of
    /// [`admits_load`](Self::admits_load)).
    fn read<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> Read {
        if load < self.admit_upto || (self.veto_from..=self.max_load).contains(&load) {
            for noisy in self.noisy(load) {
                if noisy {
                    skip_gaussian(rng);
                }
            }
            return Read::Certain(load < self.admit_upto);
        }
        let draws = self.draw(load, rng);
        let distance = self.distance(load);
        if distance.abs() > self.shift(load, draws.map(|d| d.map_or(0.0, GaussianDraw::bound))) {
            Read::Certain(distance > 0.0)
        } else {
            Read::Band(draws)
        }
    }

    /// Which of a read's three noise sources draw a sample at `load`.
    fn noisy(&self, load: u64) -> [bool; 3] {
        [
            self.working.draws_noise(load),
            self.replica_sigma > 0.0,
            self.comparator.noise_sigma() > 0.0,
        ]
    }

    /// The samples `classify_load` draws at `load`, in its order.
    fn draw<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> ReadDraws {
        self.noisy(load)
            .map(|noisy| noisy.then(|| GaussianDraw::draw(rng)))
    }

    /// The noisy read at `load` under `draws`.
    fn settle(&self, load: u64, draws: ReadDraws) -> FilterDecision {
        let [w, r, c] = draws.map(|d| d.map_or(0.0, GaussianDraw::value));
        let ml = self.working.evaluate_fast(load, w);
        let replica_ml = self.replica.evaluate_fast(self.capacity, r);
        let feasible = self
            .comparator
            .at_least(ml + self.decision_margin, replica_ml, c);
        FilterDecision {
            feasible,
            ml,
            replica_ml,
        }
    }

    /// The noise-free decision distance (V) at `load`: positive when
    /// the noise-free comparator admits.
    fn distance(&self, load: u64) -> f64 {
        let ml = self.working.discharged(load).voltage();
        (ml + self.decision_margin) - self.replica_threshold
    }

    /// The largest shift (V) of the decision distance at `load` that
    /// samples of magnitude at most `bounds` (working ML, replica ML,
    /// comparator) can cause, rounding slack included. A sample `z`
    /// moves a matchline by at most `|z|·σ·ΔV_unit` (the rail clamps
    /// only pull it back toward the noise-free voltage) and the
    /// comparator input by `|z|·σ_cmp`.
    fn shift(&self, load: u64, [w, r, c]: [f64; 3]) -> f64 {
        w * self.working.read_noise_units(load) * self.working_unit_drop
            + r * self.replica_spread
            + c * self.comparator.noise_sigma()
            + Self::VERDICT_SLACK
    }

    /// Margin (V) added to the shifts of [`admits_load`](Self::admits_load)
    /// for floating-point rounding: the noisy comparison sums a few
    /// voltages of at most VDD, whose rounding errors are ~1e-15 V.
    const VERDICT_SLACK: f64 = 1e-9;
}

/// The first `l` in `0..end` for which `holds(l)` is false (`end` if
/// none is), where `holds` is true on a prefix of `0..end`.
fn first_failing(end: u64, holds: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (0, end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl fmt::Display for InequalityFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InequalityFilter({}×{} working + replica, C={})",
            self.working.num_rows(),
            self.working.num_columns(),
            self.capacity
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
                decision.replica_ml()
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

    #[test]
    fn display_mentions_capacity() {
        let (filter, _) = build_fig5f(&FilterConfig::default(), 16);
        assert!(filter.to_string().contains("C=9"));
    }
}
