use hycim_fefet::{skip_gaussian, GaussianDraw, GAUSSIAN_MAX};
use rand::Rng;

use crate::filter::array::ArrayRead;
use crate::filter::{FilterDecision, VoltageComparator};

/// The fast-path read model of one programmed [`InequalityFilter`]:
/// its comparator, both arrays' read constants and the build-time load
/// thresholds — plain data, no cells.
///
/// This is what the SA hot loop reads. [`InequalityFilter`] delegates
/// its [`classify_load`] here; a programmed chip fabricates only this
/// ([`build_bank`](Self::build_bank)), never the cells that only the
/// device-accurate paths ([`classify`], waveforms) need.
///
/// [`InequalityFilter`]: crate::filter::InequalityFilter
/// [`classify_load`]: crate::filter::InequalityFilter::classify_load
/// [`classify`]: crate::filter::InequalityFilter::classify
#[derive(Debug, Clone)]
pub struct FilterRead {
    working: ArrayRead,
    replica: ArrayRead,
    comparator: VoltageComparator,
    capacity: u64,
    /// Built-in feasibility bias (V): the comparator latch is skewed by
    /// half a weight unit so the exact-boundary case `Σwᵢxᵢ = C`
    /// (which the paper's Fig. 5(f) counts as feasible, `9 ≤ 9`)
    /// resolves feasible; the decision threshold then sits midway
    /// between loads `C` and `C+1`.
    decision_margin: f64,
    /// Noise-free replica ML at `C` plus the comparator offset (V).
    replica_threshold: f64,
    /// Working-array ML drop per weight unit (V).
    working_unit_drop: f64,
    /// σ, in weight units, of the replica read at `C`.
    replica_sigma: f64,
    /// `replica_sigma` times the replica ML drop per weight unit (V).
    replica_spread: f64,
    /// Loads below this are admitted whatever the noise draws.
    pub(super) admit_upto: u64,
    /// Loads from this up to `max_load` are vetoed whatever the noise
    /// draws.
    pub(super) veto_from: u64,
    /// The working array's full load `Σwᵢ`.
    pub(super) max_load: u64,
    /// The samples a read draws at load 0 and at any nonzero load (the
    /// working array draws one only at a nonzero load; the other
    /// sources do not depend on it).
    certain_draws: [u8; 2],
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

impl FilterRead {
    /// The read model of a filter whose working array reads `working`
    /// with full load `max_load`, and whose replica array reads
    /// `replica` programmed at `capacity`.
    pub(super) fn new(
        working: &ArrayRead,
        replica: &ArrayRead,
        comparator: VoltageComparator,
        capacity: u64,
        max_load: u64,
    ) -> Self {
        let replica_sigma = replica.read_noise_units(capacity);
        let mut read = Self {
            working: working.clone(),
            replica: replica.clone(),
            decision_margin: 0.5 * working.matchline_config().unit_drop(),
            replica_threshold: replica.discharged(capacity).voltage() + comparator.offset(),
            working_unit_drop: working.matchline_config().unit_drop(),
            replica_sigma,
            replica_spread: replica_sigma * replica.matchline_config().unit_drop(),
            comparator,
            capacity,
            admit_upto: 0,
            veto_from: max_load + 1,
            max_load,
            certain_draws: [0; 2],
        };
        read.certain_draws = [0, 1].map(|l| read.noisy(l).into_iter().filter(|&n| n).count() as u8);
        // `distance` does not increase with the load (the working ML
        // only discharges further) and the largest shift any draws can
        // cause does not decrease (σ_w grows as √load), in exact and in
        // rounded arithmetic alike, since every step is monotone. So
        // the loads whose distance beats that shift form a prefix; the
        // loads whose distance falls below minus the shift at the full
        // load form a suffix of `0..=Σw`.
        let extreme = [GAUSSIAN_MAX; 3];
        let widest = read.shift(max_load, extreme);
        read.admit_upto =
            first_failing(max_load + 1, |l| read.distance(l) > read.shift(l, extreme));
        read.veto_from = first_failing(max_load + 1, |l| -read.distance(l) <= widest);
        read
    }

    /// The encoded capacity `C`.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The comparator instance.
    pub(super) fn comparator(&self) -> &VoltageComparator {
        &self.comparator
    }

    /// The comparator's decision between a working ML `ml` and a
    /// replica ML `replica_ml` under the decision noise sample `z`.
    pub(super) fn decide(&self, ml: f64, replica_ml: f64, z: f64) -> FilterDecision {
        FilterDecision {
            feasible: self
                .comparator
                .at_least(ml + self.decision_margin, replica_ml, z),
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

    /// The bank verdict over `filters` at per-filter `loads`: whether
    /// every read admits, leaving `rng` exactly where reading each
    /// filter through [`classify_load`](Self::classify_load), in order,
    /// leaves it — the SA hot loop's read (a single filter is a bank of
    /// one). The noise math runs only when a draw could flip a verdict:
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
    ///
    /// Every filter draws its samples in filter order. A read those
    /// draws cannot settle is settled only after every later filter has
    /// drawn and none of the bank's reads is a veto, certain or
    /// settled: a bank with any certain veto returns `false` without
    /// computing a single noise sample.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != filters.len()`.
    pub fn admits_all<R: Rng + ?Sized>(filters: &[FilterRead], loads: &[u64], rng: &mut R) -> bool {
        assert_eq!(loads.len(), filters.len(), "one load per constraint");
        admits_from(filters, loads, false, rng)
    }

    /// Draws the samples of a read at `load` and settles what they can
    /// settle without their values (steps 1 and 2 of
    /// [`admits_all`](Self::admits_all)).
    fn read<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> Read {
        if load < self.admit_upto || (self.veto_from..=self.max_load).contains(&load) {
            for _ in 0..self.certain_draws[usize::from(load > 0)] {
                skip_gaussian(rng);
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
        self.decide(ml, replica_ml, c)
    }

    /// The noise-free decision distance (V) at `load`: positive when
    /// the noise-free comparator admits.
    pub(super) fn distance(&self, load: u64) -> f64 {
        let ml = self.working.discharged(load).voltage();
        (ml + self.decision_margin) - self.replica_threshold
    }

    /// The largest shift (V) of the decision distance at `load` that
    /// samples of magnitude at most `bounds` (working ML, replica ML,
    /// comparator) can cause, rounding slack included. A sample `z`
    /// moves a matchline by at most `|z|·σ·ΔV_unit` (the rail clamps
    /// only pull it back toward the noise-free voltage) and the
    /// comparator input by `|z|·σ_cmp`.
    pub(super) fn shift(&self, load: u64, [w, r, c]: [f64; 3]) -> f64 {
        w * self.working.read_noise_units(load) * self.working_unit_drop
            + r * self.replica_spread
            + c * self.comparator.noise_sigma()
            + Self::VERDICT_SLACK
    }

    /// Every field's bits, for the fabrication law tests: two read
    /// models are the same model exactly when these are equal.
    #[cfg(test)]
    pub(super) fn field_bits(&self) -> Vec<u64> {
        let mut bits = self.working.field_bits().to_vec();
        bits.extend(self.replica.field_bits());
        bits.extend(
            [
                self.comparator.offset(),
                self.comparator.noise_sigma(),
                self.decision_margin,
                self.replica_threshold,
                self.working_unit_drop,
                self.replica_sigma,
                self.replica_spread,
            ]
            .map(f64::to_bits),
        );
        bits.extend([
            self.capacity,
            self.admit_upto,
            self.veto_from,
            self.max_load,
        ]);
        bits.extend(self.certain_draws.map(u64::from));
        bits
    }

    /// Margin (V) added to the shifts of [`admits_all`](Self::admits_all)
    /// for floating-point rounding: the noisy comparison sums a few
    /// voltages of at most VDD, whose rounding errors are ~1e-15 V.
    const VERDICT_SLACK: f64 = 1e-9;
}

/// Reads `filters` in order and returns the bank verdict, `vetoed`
/// covering the reads before them. A read its draws cannot settle waits
/// in its own frame while the rest of the bank draws (recursively), and
/// is settled only if no read vetoes.
fn admits_from<R: Rng + ?Sized>(
    filters: &[FilterRead],
    loads: &[u64],
    mut vetoed: bool,
    rng: &mut R,
) -> bool {
    for (k, (filter, &load)) in filters.iter().zip(loads).enumerate() {
        match filter.read(load, rng) {
            Read::Certain(admitted) => vetoed |= !admitted,
            Read::Band(draws) => {
                return admits_from(&filters[k + 1..], &loads[k + 1..], vetoed, rng)
                    && filter.settle(load, draws).is_feasible();
            }
        }
    }
    !vetoed
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
