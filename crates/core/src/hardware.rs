//! Hardware-backed [`AnnealState`] implementations: the glue between
//! the SA logic and the CiM circuit models (paper Fig. 3 / Fig. 6(b)).
//!
//! The SA hot loop does not re-simulate every cell per iteration (see
//! `docs/ARCHITECTURE.md`, "The hot path"); it uses the crossbar's
//! *stored* (quantized) matrix for incremental deltas plus
//! statistically matched readout noise, and the inequality filter's
//! fast path (which still includes matchline noise, comparator offset
//! and decision noise). The device-accurate paths of `hycim-cim`
//! validate this equivalence in tests and generate the paper's
//! validation figures.
//!
//! Each backend splits into an immutable chip ([`BankChip`],
//! [`DquboChip`]), programmed once per engine, and a per-solve state
//! ([`BankHardwareState`], [`DquboHardwareState`]) that borrows it.
//! Fabrication draws only from the hardware seed's stream and a solve
//! only from its own, so one chip shared by every solve gives the bits
//! a chip rebuilt for each solve would.
//!
//! No chip builds a cell. A [`BankChip`] fabricates its filters' read
//! models and its crossbar's stored matrix directly
//! ([`FilterRead::build_bank`], [`Crossbar::program_stored`]), skipping
//! the cells' variability draws, bit for bit what the cell-built
//! `FilterBank` and `Crossbar` of `hycim-cim` would hold. Those keep
//! their cells for the device-accurate paths: the Fig. 5/8 validation
//! bins and perfbench's hardware rebuild.

use hycim_anneal::{AnnealState, FlipOutcome};
use hycim_cim::crossbar::{Crossbar, CrossbarConfig};
use hycim_cim::filter::{FilterConfig, FilterRead};
use hycim_cim::CimError;
use hycim_fefet::GaussianDraw;
use hycim_qubo::dqubo::DquboForm;
use hycim_qubo::quant::QuantizedMatrix;
use hycim_qubo::{Assignment, LinearConstraint, LocalFieldState, MultiInequalityQubo, QuboMatrix};
use rand::rngs::StdRng;

/// A crossbar readout `exact + z·σ` (the stored-matrix delta plus
/// readout noise) that takes its noise draw at probe time but computes
/// the sample only when a decision needs it.
///
/// A probe whose readout is certainly uphill — `exact − bound(z)·σ > 0`,
/// from [`GaussianDraw::bound`] — returns [`FlipOutcome::Uphill`] with
/// that floor and keeps `(exact, draw)` pending for
/// [`settle`](Self::settle). The floor is at most the settled delta in
/// rounded arithmetic too, since `bound ≥ |z|` and every rounding is
/// monotone. Either way the delta, once computed, has the bits of
/// `exact + gaussian(rng)·σ`.
#[derive(Debug, Clone)]
struct Readout {
    /// Per-readout energy noise sigma.
    sigma: f64,
    /// The exact delta and noise draw of the last deferred probe.
    pending: Option<(f64, GaussianDraw)>,
}

impl Readout {
    fn new(sigma: f64) -> Self {
        Self {
            sigma,
            pending: None,
        }
    }

    /// Reads a move whose noise-free delta is `exact`.
    fn probe(&mut self, exact: f64, rng: &mut StdRng) -> FlipOutcome {
        let draw = GaussianDraw::draw(rng);
        let floor = exact - draw.bound() * self.sigma;
        if floor > 0.0 {
            self.pending = Some((exact, draw));
            return FlipOutcome::Uphill { floor };
        }
        FlipOutcome::Feasible {
            delta: exact + draw.value() * self.sigma,
        }
    }

    /// The delta of the last probe that returned `Uphill`.
    fn settle(&mut self) -> f64 {
        let (exact, draw) = self
            .pending
            .take()
            .expect("settle() needs a probe that returned FlipOutcome::Uphill");
        exact + draw.value() * self.sigma
    }
}

/// A programmed HyCiM chip: the read models of a filter bank (one
/// inequality filter per constraint) and the CiM crossbar's stored
/// matrix and readout noise — everything a solve reads and nothing it
/// writes (paper Fig. 3).
///
/// An engine fabricates its chip once, and every solve anneals against
/// it through a [`BankHardwareState`]. Fabrication samples device
/// variability from `rng` filter by filter in constraint order, then
/// for the crossbar, so a fixed hardware seed fabricates the same
/// "chip instance". The chip never builds a cell: each filter is
/// fabricated as its [`FilterRead`] alone, each cell's variability
/// draw skipped, and the crossbar as its stored matrix, with no bit
/// planes. The per-cell arrays of `hycim-cim` (`FilterBank`,
/// `Crossbar`) serve the device-accurate validation paths, not the SA
/// loop; they hold the same read models and matrix for the same
/// stream.
#[derive(Debug, Clone)]
pub struct BankChip {
    /// Per-filter fast-path read models, in constraint order.
    filters: Vec<FilterRead>,
    /// The constraints the filters encode, in the same order.
    constraints: Vec<LinearConstraint>,
    /// The matrix the crossbar actually stores (quantized).
    matrix: QuboMatrix,
    /// Per-readout energy noise sigma.
    readout_sigma: f64,
}

impl BankChip {
    /// Programs one filter per constraint of `problem`, then the
    /// crossbar with its objective.
    ///
    /// # Errors
    ///
    /// Propagates [`CimError`] from filter-bank or crossbar
    /// construction — the hardware mapping check, with the errors the
    /// cell-built blocks return.
    ///
    /// # Panics
    ///
    /// Panics on a crossbar configuration [`Crossbar::program`] panics
    /// on (an ADC resolution outside `1..=24` bits, say).
    pub fn build(
        problem: &MultiInequalityQubo,
        filter_config: &FilterConfig,
        crossbar_config: &CrossbarConfig,
        rng: &mut StdRng,
    ) -> Result<Self, CimError> {
        let filters = FilterRead::build_bank(problem.constraints(), filter_config, rng)?;
        let (matrix, readout_sigma) =
            Crossbar::program_stored(problem.objective(), crossbar_config)?;
        Ok(Self {
            filters,
            constraints: problem.constraints().to_vec(),
            matrix,
            readout_sigma,
        })
    }
}

/// One solve's state on a [`BankChip`]: the configuration, its
/// per-constraint loads and reported energy, the pending crossbar
/// readout and the local fields — the SA bookkeeping of paper
/// Fig. 6(b).
///
/// This is the one filtered-hardware state. A single-constraint
/// problem (the paper's QKP) runs on a one-filter chip, whose filter
/// was fabricated from the same RNG stream and spends the same classify
/// draws as a lone filter would. Multi-constraint COPs (bin packing,
/// the multi-dimensional knapsack) program their *exact*
/// per-constraint form: every proposed flip is classified by all `k`
/// filters concurrently (in hardware the bank shares one 4-phase
/// matchline read, so the latency is that of a single filter) and
/// reaches the crossbar only when every filter admits it.
///
/// The SA hot loop tracks each constraint's load `Σw⁽ᵏ⁾ᵢxᵢ`
/// incrementally — O(k) per flip — and reads the filters' fast path
/// (matchline + comparator noise included) rather than re-simulating
/// every cell. Filter reads whose verdict no noise draw can flip, and
/// crossbar readouts that are certainly uphill, take their draws but
/// skip the noise math until a decision needs it
/// ([`FilterRead::admits_all`], [`FlipOutcome::Uphill`]), so every
/// solve is bit-identical to one that evaluates every draw. The chip
/// is only read, so any number of states can share it.
#[derive(Debug, Clone)]
pub struct BankHardwareState<'c> {
    chip: &'c BankChip,
    x: Assignment,
    /// Current per-constraint loads, index-aligned with the filters.
    loads: Vec<u64>,
    /// Proposed-loads buffer reused across probes (no per-iteration
    /// allocation in the hot loop).
    proposed: Vec<u64>,
    /// Energy as reported by the hardware (accumulated noisy deltas) —
    /// what the SA logic sees.
    energy: f64,
    readout: Readout,
    /// Maintained local fields over the stored matrix.
    fields: LocalFieldState,
}

impl<'c> BankHardwareState<'c> {
    /// Starts a solve on `chip` at `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` violates any constraint or has the wrong
    /// length.
    pub fn new(chip: &'c BankChip, initial: Assignment) -> Self {
        assert!(
            chip.constraints.iter().all(|c| c.is_satisfied(&initial)),
            "initial configuration must satisfy every constraint"
        );
        let loads: Vec<u64> = chip.constraints.iter().map(|c| c.load(&initial)).collect();
        Self {
            chip,
            proposed: vec![0; loads.len()],
            loads,
            energy: chip.matrix.energy(&initial),
            readout: Readout::new(chip.readout_sigma),
            fields: LocalFieldState::new(&chip.matrix, &initial),
            x: initial,
        }
    }

    /// Current per-constraint loads, in filter order.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// Fills `self.proposed` with the loads after flipping `bits`
    /// (distinct indices).
    fn propose(&mut self, bits: &[usize]) {
        for (k, c) in self.chip.constraints.iter().enumerate() {
            let row = c.weights();
            let mut load = self.loads[k] as i64;
            for &i in bits {
                let w = row[i] as i64;
                load += if self.x.get(i) { -w } else { w };
            }
            debug_assert!(load >= 0, "loads are sums of selected non-negative weights");
            self.proposed[k] = load.max(0) as u64;
        }
    }

    /// Applies a committed flip of `bits` to the load caches.
    fn apply(&mut self, bits: &[usize]) {
        for &i in bits {
            let selected = self.x.flip(i);
            for (k, c) in self.chip.constraints.iter().enumerate() {
                let w = c.weights()[i];
                if selected {
                    self.loads[k] += w;
                } else {
                    self.loads[k] -= w;
                }
            }
        }
    }

    /// Whether every filter admits `loads` (fast path: analog
    /// matchline + comparator noise per filter, read concurrently).
    fn admits(&self, loads: &[u64], rng: &mut StdRng) -> bool {
        FilterRead::admits_all(&self.chip.filters, loads, rng)
    }
}

impl AnnealState for BankHardwareState<'_> {
    fn dim(&self) -> usize {
        self.chip.matrix.dim()
    }

    fn assignment(&self) -> &Assignment {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn probe_flip(&mut self, i: usize, rng: &mut StdRng) -> FlipOutcome {
        self.propose(&[i]);
        if !self.admits(&self.proposed, rng) {
            return FlipOutcome::Infeasible;
        }
        let exact = self.fields.flip_delta(&self.x, i);
        self.readout.probe(exact, rng)
    }

    fn settle(&mut self) -> f64 {
        self.readout.settle()
    }

    fn commit_flip(&mut self, i: usize, delta: f64) {
        self.apply(&[i]);
        self.fields.commit_flip(&self.x, i);
        self.energy += delta;
    }

    fn probe_pair(&mut self, i: usize, j: usize, rng: &mut StdRng) -> FlipOutcome {
        assert_ne!(i, j, "pair flip needs two distinct bits");
        self.propose(&[i, j]);
        if !self.admits(&self.proposed, rng) {
            return FlipOutcome::Infeasible;
        }
        let exact = self
            .fields
            .pair_delta(&self.x, i, j, self.chip.matrix.get(i, j));
        self.readout.probe(exact, rng)
    }

    fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
        self.apply(&[i, j]);
        self.fields.commit_pair(&self.x, i, j);
        self.energy += delta;
    }

    fn verify_best(&mut self, rng: &mut StdRng) -> bool {
        // Paper Fig. 6(b): before the accepted configuration replaces
        // the reserved best x_o it passes the inequality evaluation
        // again. Two extra reads of the whole bank make a rare noisy
        // false-feasible admission on any filter vanishingly unlikely
        // to persist.
        (0..2).all(|_| self.admits(&self.loads, rng))
    }
}

/// The D-QUBO baseline chip: the penalty-form matrix as a (much
/// larger) crossbar stores it, no filter (paper Sec 2.1, Fig. 10).
///
/// The expanded matrix is quantized at
/// `⌈log₂(Q_ij)MAX⌉` bits (or an explicit override for ablations) but
/// not materialized as a cell array: at n ≈ 2600 and 25 bits that
/// would be hundreds of millions of cells (the very overhead Fig. 9(c)
/// charges against D-QUBO). An engine quantizes once, on its first
/// solve; every solve reads the chip through a
/// [`DquboHardwareState`].
#[derive(Debug, Clone)]
pub struct DquboChip {
    /// The stored (quantized, then dequantized) penalty matrix.
    matrix: QuboMatrix,
    /// Constant offset of the penalty expansion.
    offset: f64,
    /// Per-readout energy noise sigma.
    readout_sigma: f64,
}

impl DquboChip {
    /// Quantizes a D-QUBO form onto the crossbar. `bits` overrides the
    /// quantization width (`None` → `⌈log₂(Q_ij)MAX⌉`, the paper's
    /// setting, which is lossless for integer penalties).
    pub fn build(form: &DquboForm, bits: Option<u32>, current_sigma_rel: f64) -> Self {
        let bits = bits.unwrap_or_else(|| hycim_qubo::quant::matrix_bits(form.matrix()));
        let quant = QuantizedMatrix::quantize(form.matrix(), bits);
        let matrix = quant.dequantize();
        // Same readout model as the HyCiM crossbar: σ grows with the
        // active cell count, which for the D-QUBO matrix is large.
        let typical_active = matrix.nonzeros() * bits as usize / 2;
        Self {
            readout_sigma: current_sigma_rel * (typical_active as f64).sqrt() * quant.scale(),
            matrix,
            offset: form.offset(),
        }
    }
}

/// One solve's state on a [`DquboChip`]: every move is admissible and
/// pays a full crossbar evaluation.
#[derive(Debug, Clone)]
pub struct DquboHardwareState<'c> {
    chip: &'c DquboChip,
    x: Assignment,
    energy: f64,
    readout: Readout,
    /// Maintained local fields over the stored matrix.
    fields: LocalFieldState,
}

impl<'c> DquboHardwareState<'c> {
    /// Starts a solve on `chip` at `initial`, a configuration of the
    /// extended (items + auxiliaries) space.
    ///
    /// # Panics
    ///
    /// Panics if `initial.len()` is not the chip's dimension.
    pub fn new(chip: &'c DquboChip, initial: Assignment) -> Self {
        assert_eq!(
            initial.len(),
            chip.matrix.dim(),
            "configuration length mismatch"
        );
        Self {
            chip,
            energy: chip.matrix.energy(&initial) + chip.offset,
            readout: Readout::new(chip.readout_sigma),
            fields: LocalFieldState::new(&chip.matrix, &initial),
            x: initial,
        }
    }
}

impl AnnealState for DquboHardwareState<'_> {
    fn dim(&self) -> usize {
        self.chip.matrix.dim()
    }

    fn assignment(&self) -> &Assignment {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn probe_flip(&mut self, i: usize, rng: &mut StdRng) -> FlipOutcome {
        let exact = self.fields.flip_delta(&self.x, i);
        self.readout.probe(exact, rng)
    }

    fn settle(&mut self) -> f64 {
        self.readout.settle()
    }

    fn commit_flip(&mut self, i: usize, delta: f64) {
        self.x.flip(i);
        self.fields.commit_flip(&self.x, i);
        self.energy += delta;
    }

    fn probe_pair(&mut self, i: usize, j: usize, rng: &mut StdRng) -> FlipOutcome {
        assert_ne!(i, j, "pair flip needs two distinct bits");
        let exact = self
            .fields
            .pair_delta(&self.x, i, j, self.chip.matrix.get(i, j));
        self.readout.probe(exact, rng)
    }

    fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
        self.x.flip(i);
        self.x.flip(j);
        self.fields.commit_pair(&self.x, i, j);
        self.energy += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;
    use hycim_fefet::VariationModel;
    use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
    use rand::{Rng, SeedableRng};

    fn noiseless_filter_config() -> FilterConfig {
        FilterConfig::default()
            .with_variation(VariationModel::none())
            .with_comparator(hycim_cim::filter::ComparatorConfig::ideal())
    }

    /// A benchmark-style QKP in the single-constraint form the `hycim`
    /// engine programs: a one-filter bank.
    fn qkp_form(n: usize, density: f64, seed: u64) -> MultiInequalityQubo {
        let inst = QkpGenerator::new(n, density).generate(seed);
        MultiInequalityQubo::from(inst.to_inequality_qubo().unwrap())
    }

    #[test]
    fn hycim_state_matches_software_when_noise_free() {
        let mq = qkp_form(25, 0.5, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let cb_cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let chip = BankChip::build(&mq, &noiseless_filter_config(), &cb_cfg, &mut rng).unwrap();
        let mut hw = BankHardwareState::new(&chip, Assignment::zeros(25));
        assert_eq!(chip.filters.len(), 1);
        // Random walk: energies must track the exact objective (7-bit
        // quantization of ≤100 profits is lossless).
        for step in 0..300 {
            let i = step % 25;
            match hw.probe_flip(i, &mut rng).settled(&mut hw) {
                Some(delta) => {
                    hw.commit_flip(i, delta);
                    let expected = mq.objective_energy(hw.assignment());
                    assert!(
                        (hw.energy() - expected).abs() < 1e-6,
                        "hardware energy diverged at step {step}"
                    );
                    assert!(mq.is_feasible(hw.assignment()));
                    assert_eq!(hw.loads(), mq.loads(hw.assignment()).as_slice());
                }
                None => {
                    // Verify the veto was correct.
                    let mut probe = hw.assignment().clone();
                    probe.flip(i);
                    assert!(
                        !mq.is_feasible(&probe),
                        "ideal filter vetoed a feasible flip"
                    );
                }
            }
        }
    }

    #[test]
    fn hycim_state_rejects_infeasible_start() {
        let mq = qkp_form(10, 0.5, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let heavy = Assignment::ones_vec(10);
        assert!(!mq.is_feasible(&heavy), "all ten items overload C");
        let chip = BankChip::build(
            &mq,
            &noiseless_filter_config(),
            &CrossbarConfig::paper(),
            &mut rng,
        )
        .unwrap();
        let result = std::panic::catch_unwind(|| BankHardwareState::new(&chip, heavy));
        assert!(result.is_err());
    }

    #[test]
    fn noisy_probes_have_spread() {
        let mq = qkp_form(30, 1.0, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let chip = BankChip::build(
            &mq,
            &FilterConfig::default(),
            &CrossbarConfig::paper(),
            &mut rng,
        )
        .unwrap();
        let mut hw = BankHardwareState::new(&chip, Assignment::zeros(30));
        assert!(chip.readout_sigma > 0.0);
        let deltas: Vec<f64> = (0..50)
            .filter_map(|_| hw.probe_flip(0, &mut rng).settled(&mut hw))
            .collect();
        assert!(deltas.len() > 10);
        assert!(deltas.iter().any(|&d| (d - deltas[0]).abs() > 1e-12));
    }

    /// A 4-item, 2-bin packing in multi-inequality form.
    fn bank_problem() -> (hycim_cop::binpack::BinPacking, MultiInequalityQubo) {
        use hycim_cop::CopProblem;
        let bp = hycim_cop::binpack::BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let mq = bp.to_multi_inequality_qubo().unwrap();
        (bp, mq)
    }

    #[test]
    fn bank_state_matches_software_when_noise_free() {
        let (bp, mq) = bank_problem();
        let mut rng = StdRng::seed_from_u64(21);
        let cb_cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let chip = BankChip::build(&mq, &noiseless_filter_config(), &cb_cfg, &mut rng).unwrap();
        let mut hw = BankHardwareState::new(&chip, Assignment::zeros(mq.dim()));
        assert_eq!(chip.filters.len(), 2);
        // Random walk: energies must track the exact objective and the
        // trajectory must stay inside every bin's capacity.
        for step in 0..400 {
            let i = step % mq.dim();
            match hw.probe_flip(i, &mut rng).settled(&mut hw) {
                Some(delta) => {
                    hw.commit_flip(i, delta);
                    let expected = mq.objective_energy(hw.assignment());
                    assert!(
                        (hw.energy() - expected).abs() < 1e-6,
                        "bank energy diverged at step {step}"
                    );
                    assert!(mq.is_feasible(hw.assignment()));
                    assert_eq!(hw.loads(), mq.loads(hw.assignment()).as_slice());
                    for k in 0..bp.num_bins() {
                        assert!(bp.bin_load(hw.assignment(), k) <= bp.capacity());
                    }
                    assert!(hw.verify_best(&mut rng));
                }
                None => {
                    let mut probe = hw.assignment().clone();
                    probe.flip(i);
                    assert!(
                        !mq.is_feasible(&probe),
                        "ideal bank vetoed a feasible flip at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn bank_pair_probe_matches_sequential_arithmetic() {
        let (_, mq) = bank_problem();
        let mut rng = StdRng::seed_from_u64(22);
        let cb_cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let chip = BankChip::build(&mq, &noiseless_filter_config(), &cb_cfg, &mut rng).unwrap();
        let mut hw = BankHardwareState::new(&chip, Assignment::zeros(mq.dim()));
        // A pair flip landing inside both bins is admitted with the
        // exact cross-term delta.
        if let Some(delta) = hw.probe_pair(0, 3, &mut rng).settled(&mut hw) {
            hw.commit_pair(0, 3, delta);
            let expected = mq.objective_energy(hw.assignment());
            assert!((hw.energy() - expected).abs() < 1e-6);
            assert_eq!(hw.loads(), mq.loads(hw.assignment()).as_slice());
        } else {
            panic!("items 0 (bin 0) and 1 (bin 1) fit their bins");
        }
        // A pair flip overloading one bin is vetoed: items 1 and 2
        // into bin 0 on top of item 0 → 4 + 5 + 3 = 12 > 9.
        // Current x has vars 0 (item0→bin0) and 3 (item1→bin1) set.
        let before = hw.assignment().clone();
        assert_eq!(
            hw.probe_pair(2, 4, &mut rng),
            FlipOutcome::Infeasible,
            "overloading bin 0 must be vetoed"
        );
        assert_eq!(hw.assignment(), &before, "probe must not mutate");
    }

    #[test]
    fn bank_state_rejects_infeasible_start() {
        let (_, mq) = bank_problem();
        let mut rng = StdRng::seed_from_u64(23);
        // Everything into bin 0: violates its capacity.
        let mut heavy = Assignment::zeros(mq.dim());
        for i in 0..4 {
            heavy.set(i * 2, true);
        }
        assert!(!mq.is_feasible(&heavy));
        let chip = BankChip::build(
            &mq,
            &noiseless_filter_config(),
            &CrossbarConfig::paper(),
            &mut rng,
        )
        .unwrap();
        let result = std::panic::catch_unwind(|| BankHardwareState::new(&chip, heavy));
        assert!(result.is_err());
    }

    #[test]
    fn bank_state_handles_mkp_dimensions() {
        use hycim_cop::CopProblem;
        let mkp = hycim_cop::mkp::MkpGenerator::new(12, 3).generate(5);
        let mq = mkp.to_multi_inequality_qubo().unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let chip = BankChip::build(
            &mq,
            &noiseless_filter_config(),
            &CrossbarConfig::paper().with_variation(VariationModel::none()),
            &mut rng,
        )
        .unwrap();
        let mut hw = BankHardwareState::new(&chip, Assignment::zeros(12));
        assert_eq!(chip.filters.len(), 3);
        for step in 0..300 {
            let i = step % 12;
            if let Some(delta) = hw.probe_flip(i, &mut rng).settled(&mut hw) {
                hw.commit_flip(i, delta);
                assert!(mkp.is_feasible(hw.assignment()), "step {step} violated");
            }
        }
    }

    /// The chip's parts as the cell-built blocks of `hycim-cim` make
    /// them: a [`FilterBank`] and a [`Crossbar`], every cell programmed.
    fn cell_built(
        problem: &MultiInequalityQubo,
        filter_config: &FilterConfig,
        crossbar_config: &CrossbarConfig,
        rng: &mut StdRng,
    ) -> Result<(Vec<FilterRead>, QuboMatrix, f64), CimError> {
        use hycim_cim::filter::FilterBank;
        let bank = FilterBank::build(problem.constraints(), filter_config, rng)?;
        let crossbar = Crossbar::program(problem.objective(), crossbar_config, rng)?;
        let typical = crossbar.readout_sigma(crossbar.mapping().programmed_cells() / 2);
        Ok((
            bank.into_read_models(),
            crossbar.stored_matrix().clone(),
            typical,
        ))
    }

    /// A chip fabricated without cells holds what the cell-built blocks
    /// hold — the filters' read models (compared through their exact
    /// `Debug` text; `hycim-cim` checks them field by field), the stored
    /// matrix's bits and the readout σ — and leaves the hardware stream
    /// at the same word: on a paper-noise QKP and a 5-constraint MKP.
    #[test]
    fn cell_free_chip_holds_what_the_cell_built_blocks_hold() {
        use hycim_cop::CopProblem;
        let mkp = hycim_cop::mkp::MkpGenerator::new(20, 5).generate(3);
        let problems = [
            qkp_form(40, 0.5, 7),
            mkp.to_multi_inequality_qubo().unwrap(),
        ];
        for (p, mq) in problems.iter().enumerate() {
            for seed in 0..3 {
                let (filter, crossbar) = (FilterConfig::default(), CrossbarConfig::paper());
                let mut free = StdRng::seed_from_u64(seed);
                let mut cells = free.clone();
                let chip = BankChip::build(mq, &filter, &crossbar, &mut free).unwrap();
                let (reads, matrix, sigma) =
                    cell_built(mq, &filter, &crossbar, &mut cells).unwrap();
                assert_eq!(
                    format!("{:?}", chip.filters),
                    format!("{reads:?}"),
                    "problem {p}"
                );
                let bits = |q: &QuboMatrix| -> Vec<u64> {
                    (0..q.dim())
                        .flat_map(|i| (i..q.dim()).map(move |j| (i, j)))
                        .map(|(i, j)| q.get(i, j).to_bits())
                        .collect()
                };
                assert_eq!(bits(&chip.matrix), bits(&matrix), "problem {p}");
                assert_eq!(chip.readout_sigma.to_bits(), sigma.to_bits(), "problem {p}");
                assert_eq!(free.random::<u64>(), cells.random::<u64>(), "problem {p}");
            }
        }
    }

    /// The chip refuses what the cell-built blocks refuse, with the same
    /// error, and panics as [`Crossbar::program`] does on a bad ADC
    /// configuration. (`EmptyProblem` and `DimensionMismatch` cannot
    /// reach the chip: a [`MultiInequalityQubo`] refuses them itself;
    /// `hycim-cim` checks them on `FilterRead::build_bank`.)
    #[test]
    fn cell_free_chip_errors_as_the_cell_built_blocks() {
        let problem = |n: usize, weights: Vec<u64>, capacity| {
            let constraint = LinearConstraint::new(weights, capacity).unwrap();
            MultiInequalityQubo::new(QuboMatrix::zeros(n), vec![constraint]).unwrap()
        };
        let cases = [
            (
                problem(3, vec![1, 70, 2], 5),
                CimError::WeightTooLarge {
                    item: 1,
                    weight: 70,
                    limit: 64,
                },
            ),
            (
                problem(2, vec![1, 2], 200),
                CimError::CapacityTooLarge {
                    capacity: 200,
                    limit: 128,
                },
            ),
            (
                problem(4097, vec![1; 4097], 5),
                CimError::MatrixTooLarge {
                    dim: 4097,
                    limit: 4096,
                },
            ),
        ];
        let (filter, crossbar) = (FilterConfig::default(), CrossbarConfig::paper());
        for (mq, expected) in &cases {
            let mut rng = StdRng::seed_from_u64(1);
            let built = cell_built(mq, &filter, &crossbar, &mut rng).unwrap_err();
            assert_eq!(&built, expected);
            let chip = BankChip::build(mq, &filter, &crossbar, &mut rng).unwrap_err();
            assert_eq!(&chip, expected);
        }
        let mq = qkp_form(8, 0.5, 1);
        let bad_adc = CrossbarConfig {
            adc_bits: 0,
            ..CrossbarConfig::paper()
        };
        let message = |built: bool| {
            let payload = std::panic::catch_unwind(|| {
                let mut rng = StdRng::seed_from_u64(2);
                if built {
                    cell_built(&mq, &filter, &bad_adc, &mut rng).map(|_| ())
                } else {
                    BankChip::build(&mq, &filter, &bad_adc, &mut rng).map(|_| ())
                }
            })
            .expect_err("a bad ADC configuration panics");
            payload.downcast_ref::<&str>().map(|s| s.to_string())
        };
        assert_eq!(message(false), message(true));
        assert_eq!(
            message(false).as_deref(),
            Some("adc bits must be in 1..=24")
        );
    }

    /// Passes probes through to `inner`, counting deferred readouts and
    /// settles; with `eager`, settles every `Uphill` inside the probe
    /// and reports it as `Feasible` — a readout that evaluates every
    /// draw.
    struct Deferral<S> {
        inner: S,
        eager: bool,
        uphill: usize,
        settled: usize,
    }

    impl<S: AnnealState> Deferral<S> {
        fn new(inner: S, eager: bool) -> Self {
            Self {
                inner,
                eager,
                uphill: 0,
                settled: 0,
            }
        }

        fn pass(&mut self, outcome: FlipOutcome) -> FlipOutcome {
            if let FlipOutcome::Uphill { .. } = outcome {
                self.uphill += 1;
                if self.eager {
                    return FlipOutcome::Feasible {
                        delta: self.settle(),
                    };
                }
            }
            outcome
        }
    }

    impl<S: AnnealState> AnnealState for Deferral<S> {
        fn dim(&self) -> usize {
            self.inner.dim()
        }

        fn assignment(&self) -> &Assignment {
            self.inner.assignment()
        }

        fn energy(&self) -> f64 {
            self.inner.energy()
        }

        fn probe_flip(&mut self, i: usize, rng: &mut StdRng) -> FlipOutcome {
            let outcome = self.inner.probe_flip(i, rng);
            self.pass(outcome)
        }

        fn settle(&mut self) -> f64 {
            self.settled += 1;
            self.inner.settle()
        }

        fn commit_flip(&mut self, i: usize, delta: f64) {
            self.inner.commit_flip(i, delta);
        }

        fn probe_pair(&mut self, i: usize, j: usize, rng: &mut StdRng) -> FlipOutcome {
            let outcome = self.inner.probe_pair(i, j, rng);
            self.pass(outcome)
        }

        fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
            self.inner.commit_pair(i, j, delta);
        }

        fn verify_best(&mut self, rng: &mut StdRng) -> bool {
            self.inner.verify_best(rng)
        }
    }

    /// A solve whose uphill readouts are deferred (settled only when
    /// Metropolis needs the value) equals one that settles each inside
    /// its probe: same trace, energy bits, assignment and next draw.
    /// T₀ calibration, whose probes are all settled, is included.
    fn check_deferred_equals_eager<S: AnnealState + Clone>(state: S, sweeps: usize, seed: u64) {
        let settings = crate::HyCimConfig::default().with_sweeps(sweeps).anneal;
        let mut eager = Deferral::new(state.clone(), true);
        let mut deferred = Deferral::new(state, false);
        let mut rng_eager = StdRng::seed_from_u64(seed);
        let mut rng_deferred = StdRng::seed_from_u64(seed);
        let trace_eager = crate::run_annealing(&mut eager, &settings, &mut rng_eager);
        let trace_deferred = crate::run_annealing(&mut deferred, &settings, &mut rng_deferred);
        assert_eq!(trace_eager, trace_deferred);
        assert_eq!(eager.energy().to_bits(), deferred.energy().to_bits());
        assert_eq!(eager.assignment(), deferred.assignment());
        assert_eq!(rng_eager.random::<u64>(), rng_deferred.random::<u64>());
        assert_eq!(eager.uphill, deferred.uphill);
        assert_eq!(eager.settled, eager.uphill);
        assert!(
            deferred.settled < deferred.uphill / 2,
            "{} of {} uphill readouts settled",
            deferred.settled,
            deferred.uphill
        );
    }

    #[test]
    fn deferred_readouts_equal_eager_ones_on_the_bank_state() {
        use hycim_cop::CopProblem;
        let qkp = qkp_form(40, 0.5, 12);
        let mkp = hycim_cop::mkp::MkpGenerator::new(30, 3)
            .generate(4)
            .to_multi_inequality_qubo()
            .unwrap();
        for (mq, seed) in [(qkp, 1), (mkp, 2)] {
            let mut hw_rng = StdRng::seed_from_u64(seed);
            let chip = BankChip::build(
                &mq,
                &FilterConfig::default(),
                &CrossbarConfig::paper(),
                &mut hw_rng,
            )
            .unwrap();
            let state = BankHardwareState::new(&chip, Assignment::zeros(mq.dim()));
            check_deferred_equals_eager(state, 200, seed + 10);
        }
    }

    #[test]
    fn deferred_readouts_equal_eager_ones_on_the_dqubo_state() {
        let inst = QkpGenerator::new(12, 0.5)
            .with_capacity_range(10, 40)
            .generate(13);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .unwrap();
        let chip = DquboChip::build(&form, None, 0.02);
        let state = DquboHardwareState::new(&chip, Assignment::zeros(form.dim()));
        check_deferred_equals_eager(state, 200, 5);
    }

    #[test]
    fn dqubo_state_energy_tracks_form() {
        let inst = QkpGenerator::new(8, 0.75)
            .with_capacity_range(10, 30)
            .generate(7);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::OneHot)
            .unwrap();
        let chip = DquboChip::build(&form, None, 0.0);
        let mut state = DquboHardwareState::new(&chip, Assignment::zeros(form.dim()));
        let mut rng = StdRng::seed_from_u64(8);
        for step in 0..200 {
            let i = step % form.dim();
            if let Some(delta) = state.probe_flip(i, &mut rng).settled(&mut state) {
                state.commit_flip(i, delta);
            }
        }
        // Noise-free: tracked energy equals the exact form energy
        // (default bits are lossless for integer penalties).
        let expected = form.energy(state.assignment());
        assert!(
            (state.energy() - expected).abs() < 1e-6,
            "dqubo energy {} vs exact {expected}",
            state.energy()
        );
        assert_eq!(state.assignment().truncated(form.num_items()).len(), 8);
    }

    #[test]
    fn dqubo_pair_probe_matches_sequential_flips() {
        let inst = QkpGenerator::new(6, 1.0)
            .with_capacity_range(10, 20)
            .generate(9);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .unwrap();
        let chip = DquboChip::build(&form, None, 0.0);
        let mut state = DquboHardwareState::new(&chip, Assignment::zeros(form.dim()));
        let mut rng = StdRng::seed_from_u64(10);
        let before = state.energy();
        if let Some(delta) = state.probe_pair(0, 3, &mut rng).settled(&mut state) {
            state.commit_pair(0, 3, delta);
        }
        let expected = form.energy(state.assignment());
        assert!((state.energy() - expected).abs() < 1e-6);
        assert_ne!(state.energy(), before);
    }
}
