//! The problem-side contract of the solving service: any COP that can
//! encode itself into the paper's inequality-QUBO form (Sec 3.2) and
//! decode hardware configurations back into domain solutions.
//!
//! The paper frames HyCiM as a *general* framework: "COPs without
//! constraints or with equality constraints can be considered as
//! special cases" of the inequality filter. [`CopProblem`] makes that
//! framing executable — every problem type in this crate implements
//! it, so max-cut, TSP, coloring, bin packing, knapsack, QKP and spin
//! glasses all run end-to-end through the same engines in
//! `hycim-core` (both the filter+crossbar pipeline and the D-QUBO
//! penalty baseline).
//!
//! Conventions:
//!
//! * **Minimization.** [`objective`](CopProblem::objective) is a score
//!   where lower is better, comparable across runs of the same
//!   instance. Maximization problems (QKP, max-cut) report the negated
//!   value; pure feasibility problems (coloring, bin packing) report a
//!   violation count whose zero means "solved".
//! * **Structural decode.** [`decode`](CopProblem::decode) returns the
//!   domain solution when the bit vector has the problem's *shape*
//!   (e.g. a permutation for TSP); [`is_feasible`](CopProblem::is_feasible)
//!   may be stricter (e.g. a proper coloring, a packing within
//!   capacity).
//! * **Feasible starts.** [`initial`](CopProblem::initial) draws a
//!   configuration that satisfies the encoded inequality constraint,
//!   matching the paper's Monte-Carlo-sampled feasible initial states
//!   (Sec 4.3).
//!
//! # Example
//!
//! ```
//! use hycim_cop::maxcut::MaxCut;
//! use hycim_cop::CopProblem;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), hycim_cop::CopError> {
//! let g = MaxCut::random(8, 0.5, 1);
//! let iq = CopProblem::to_inequality_qubo(&g)?;
//! assert_eq!(iq.dim(), g.dim());
//! let mut rng = StdRng::seed_from_u64(2);
//! let x = g.initial(&mut rng);
//! let cut = g.decode(&x).expect("any partition decodes");
//! assert_eq!(g.objective(&x), -(g.cut_value(&cut) as f64));
//! # Ok(())
//! # }
//! ```

use std::fmt;

use hycim_qubo::dqubo::{AuxEncoding, DquboForm, PenaltyWeights};
use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, MultiInequalityQubo, QuboMatrix};
use rand::rngs::StdRng;
use rand::Rng;

use crate::binpack::BinPacking;
use crate::coloring::GraphColoring;
use crate::knapsack::Knapsack;
use crate::maxcut::MaxCut;
use crate::mkp::MultiKnapsack;
use crate::spinglass::SpinGlass;
use crate::tsp::Tsp;
use crate::{solvers, CopError, QkpInstance};

/// A combinatorial optimization problem that can run on the HyCiM
/// engines: encodes into the inequality-QUBO form, decodes hardware
/// configurations back into typed domain solutions, and scores them.
///
/// # Example
///
/// The encode → decode round trip on a tiny max-cut (the solve step
/// in between is the engine layer's job — see `Engine` in
/// `hycim-core`, whose `solve` produces exactly such bit vectors):
///
/// ```
/// use hycim_cop::maxcut::MaxCut;
/// use hycim_cop::CopProblem;
/// use hycim_qubo::Assignment;
///
/// let graph = MaxCut::random(6, 0.5, 1);
///
/// // A domain solution (a partition) encodes to a bit vector…
/// let partition = Assignment::from_bits([true, false, true, false, true, false]);
/// let x = graph.encode(&partition);
///
/// // …which decodes back to the same partition, scored by the
/// // negated cut value (minimization convention).
/// assert_eq!(graph.decode(&x), Some(partition.clone()));
/// assert_eq!(graph.objective(&x), -(graph.cut_value(&partition) as f64));
///
/// // The QUBO encoding agrees on dimension with the problem.
/// let iq = graph.to_inequality_qubo().expect("max-cut always encodes");
/// assert_eq!(iq.dim(), CopProblem::dim(&graph));
/// ```
pub trait CopProblem: Clone + Send + Sync + fmt::Debug {
    /// The typed domain solution this problem decodes into (a
    /// selection, a tour, a coloring, …).
    type Decoded: Clone + Send + Sync + fmt::Debug + PartialEq;

    /// Short stable kind tag (`"qkp"`, `"max-cut"`, …) for reports.
    fn kind(&self) -> &'static str;

    /// Human-readable instance name.
    fn name(&self) -> String;

    /// Number of binary variables of the QUBO encoding.
    fn dim(&self) -> usize;

    /// Encodes the problem into the paper's inequality-QUBO form
    /// `min (Σwᵢxᵢ ≤ C)·xᵀQx`. Unconstrained and equality-constrained
    /// problems use a trivially satisfied constraint (the paper's
    /// "special cases").
    ///
    /// # Errors
    ///
    /// Returns [`CopError`] when the instance cannot be encoded.
    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError>;

    /// Encodes the problem into the multi-constraint form
    /// `min ∏ₖ(Σw⁽ᵏ⁾ᵢxᵢ ≤ C⁽ᵏ⁾)·xᵀQx` driven by a hardware filter
    /// *bank* (one filter per constraint). The default wraps the
    /// single-constraint encoding as a 1-element bank; problems with
    /// genuinely multiple inequalities (bin packing, the
    /// multi-dimensional knapsack) override it with their exact
    /// per-constraint form — on this path no aggregate relaxation is
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`CopError`] when the instance cannot be encoded.
    fn to_multi_inequality_qubo(&self) -> Result<MultiInequalityQubo, CopError> {
        Ok(MultiInequalityQubo::from(self.to_inequality_qubo()?))
    }

    /// Encodes a domain solution into a configuration.
    ///
    /// # Panics
    ///
    /// Implementations may panic when `decoded` does not fit the
    /// instance (wrong length, out-of-range labels).
    fn encode(&self, decoded: &Self::Decoded) -> Assignment;

    /// Decodes a configuration into a domain solution when it has the
    /// problem's structural shape; `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn decode(&self, x: &Assignment) -> Option<Self::Decoded>;

    /// Minimization score of a configuration (lower is better;
    /// maximization problems negate). May be `f64::INFINITY` when `x`
    /// does not decode.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn objective(&self, x: &Assignment) -> f64;

    /// Full domain feasibility (may be stricter than the structural
    /// [`decode`](Self::decode) and than the encoded inequality).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    fn is_feasible(&self, x: &Assignment) -> bool {
        self.decode(x).is_some()
    }

    /// A random configuration satisfying the *encoded inequality
    /// constraints* (the filter's admission criterion — all of them,
    /// so the same start works for the single-filter pipeline and the
    /// filter-bank pipeline), used as the SA starting point.
    fn initial(&self, rng: &mut StdRng) -> Assignment;

    /// Reference objective from an exact or heuristic solver, when one
    /// is affordable for this instance (used by the success-rate
    /// criterion; `None` falls back to the best value seen in a
    /// batch).
    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        None
    }

    /// Encodes the problem into the baseline D-QUBO penalty form over
    /// `n + n_aux` variables (paper Fig. 1(b)), derived from the same
    /// inequality-QUBO encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CopError`] when either encoding fails.
    fn to_dqubo(
        &self,
        weights: PenaltyWeights,
        encoding: AuxEncoding,
    ) -> Result<DquboForm, CopError> {
        let iq = self.to_inequality_qubo()?;
        DquboForm::transform(iq.objective(), iq.constraint(), weights, encoding)
            .map_err(CopError::from)
    }
}

/// A trivially satisfied inequality (unit weights, capacity = n): the
/// encoding for unconstrained and equality-penalty problems.
fn trivial_constraint(dim: usize) -> Result<LinearConstraint, CopError> {
    LinearConstraint::new(vec![1; dim], dim as u64).map_err(CopError::from)
}

// ---------------------------------------------------------------------
// Penalty-weight derivations for the equality-penalty encodings
// ---------------------------------------------------------------------
//
// TSP and coloring enter the inequality-QUBO form through quadratic
// penalties (the paper's "equality constraints as special cases").
// The weights below are *instance-derived constants*; the ROADMAP's
// adaptive-penalty item will replace them with probed-delta
// calibration (like `calibrate_t0`), which is why each derivation is
// written out here as a named, documented function rather than a
// magic number at the use site.

/// Penalty weight of the TSP equality-constraint expansion, derived
/// from the instance's distance matrix.
///
/// Derivation: the TSP QUBO has one-city-per-step and
/// one-step-per-city one-hot expansions. Removing a visit from a
/// valid tour saves at most `2 · d_max` of tour length (the two
/// incident legs), while it violates one row *and* one column
/// constraint — a `2 × penalty` energy increase. Any
/// `penalty > d_max` therefore keeps valid tours optimal;
/// `2 · d_max` doubles that margin so crossbar quantization and
/// device noise cannot erode it.
pub fn tsp_penalty_weight(tsp: &Tsp) -> f64 {
    2.0 * tsp.max_distance()
}

/// Penalty weight of the graph-coloring QUBO.
///
/// Derivation: coloring is a pure feasibility problem — the QUBO has
/// *no* competing objective term, so any positive weight encodes the
/// one-color-per-vertex and no-monochromatic-edge constraints
/// exactly, and the weight only sets the energy gap between proper
/// and improper colorings. The fixed 4.0 keeps single-violation
/// deltas comfortably above crossbar readout noise while staying
/// small enough that quantizing the matrix to the crossbar's bit
/// width loses no structure. Unlike [`tsp_penalty_weight`] no
/// instance quantity enters the bound, but the helper takes the
/// instance so adaptive calibration can slot in without an API
/// change.
pub fn coloring_penalty_weight(_gc: &GraphColoring) -> f64 {
    4.0
}

/// Penalty weight of the exact-one-bin assignment expansion on the
/// filter-bank encoding of bin packing.
///
/// Derivation: on the bank path every bin capacity is enforced by its
/// own filter, so — like coloring — the QUBO is a pure feasibility
/// objective with no competing profit term; any positive weight
/// encodes "each item in exactly one bin" exactly, and the weight
/// only sets the energy gap per missing/duplicated assignment. The
/// fixed 4.0 keeps single-violation deltas above crossbar readout
/// noise while keeping the quantized matrix range small (the whole
/// point of the filter architecture). The helper takes the instance
/// so adaptive calibration can slot in without an API change.
pub fn bin_packing_assignment_penalty(_bp: &BinPacking) -> f64 {
    4.0
}

/// Seeded Fisher-Yates permutation of `0..n`.
fn random_permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        p.swap(i, j);
    }
    p
}

// ---------------------------------------------------------------------
// Quadratic knapsack (the paper's running example)
// ---------------------------------------------------------------------

impl CopProblem for QkpInstance {
    type Decoded = Assignment;

    fn kind(&self) -> &'static str {
        "qkp"
    }

    fn name(&self) -> String {
        if QkpInstance::name(self).is_empty() {
            format!("qkp-n{}", self.num_items())
        } else {
            QkpInstance::name(self).to_string()
        }
    }

    fn dim(&self) -> usize {
        self.num_items()
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        QkpInstance::to_inequality_qubo(self).map_err(CopError::from)
    }

    fn encode(&self, decoded: &Assignment) -> Assignment {
        assert_eq!(decoded.len(), self.num_items(), "selection length mismatch");
        decoded.clone()
    }

    fn decode(&self, x: &Assignment) -> Option<Assignment> {
        assert_eq!(x.len(), self.num_items(), "assignment length mismatch");
        Some(x.clone())
    }

    fn objective(&self, x: &Assignment) -> f64 {
        // The gated-energy convention of the paper's Eq. 6: infeasible
        // configurations score 0, worse than any profitable selection.
        if QkpInstance::is_feasible(self, x) {
            -(self.value(x) as f64)
        } else {
            0.0
        }
    }

    fn is_feasible(&self, x: &Assignment) -> bool {
        QkpInstance::is_feasible(self, x)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        solvers::random_feasible(self, rng)
    }

    fn reference_objective(&self, seed: u64) -> Option<f64> {
        let (_, best) = solvers::best_known(self, 15, seed);
        Some(-(best as f64))
    }
}

// ---------------------------------------------------------------------
// Linear 0/1 knapsack (exact DP reference)
// ---------------------------------------------------------------------

impl CopProblem for Knapsack {
    type Decoded = Assignment;

    fn kind(&self) -> &'static str {
        "knapsack"
    }

    fn name(&self) -> String {
        format!("knapsack-n{}", self.num_items())
    }

    fn dim(&self) -> usize {
        self.num_items()
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        QkpInstance::to_inequality_qubo(&self.to_qkp()).map_err(CopError::from)
    }

    fn encode(&self, decoded: &Assignment) -> Assignment {
        assert_eq!(decoded.len(), self.num_items(), "selection length mismatch");
        decoded.clone()
    }

    fn decode(&self, x: &Assignment) -> Option<Assignment> {
        assert_eq!(x.len(), self.num_items(), "assignment length mismatch");
        Some(x.clone())
    }

    fn objective(&self, x: &Assignment) -> f64 {
        if Knapsack::is_feasible(self, x) {
            -(self.value(x) as f64)
        } else {
            0.0
        }
    }

    fn is_feasible(&self, x: &Assignment) -> bool {
        Knapsack::is_feasible(self, x)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        solvers::random_feasible(&self.to_qkp(), rng)
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        // The O(n·C) DP is exact; skip it only for extreme capacities.
        if self.capacity() > 1_000_000 {
            return None;
        }
        let (_, opt) = self.solve_exact();
        Some(-(opt as f64))
    }
}

// ---------------------------------------------------------------------
// Max-Cut (unconstrained)
// ---------------------------------------------------------------------

impl CopProblem for MaxCut {
    type Decoded = Assignment;

    fn kind(&self) -> &'static str {
        "max-cut"
    }

    fn name(&self) -> String {
        format!("maxcut-n{}", self.num_nodes())
    }

    fn dim(&self) -> usize {
        self.num_nodes()
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        MaxCut::to_inequality_qubo(self).map_err(CopError::from)
    }

    fn encode(&self, decoded: &Assignment) -> Assignment {
        assert_eq!(decoded.len(), self.num_nodes(), "partition length mismatch");
        decoded.clone()
    }

    fn decode(&self, x: &Assignment) -> Option<Assignment> {
        assert_eq!(x.len(), self.num_nodes(), "partition length mismatch");
        Some(x.clone())
    }

    fn objective(&self, x: &Assignment) -> f64 {
        -(self.cut_value(x) as f64)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        Assignment::random(self.num_nodes(), rng)
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        if self.num_nodes() > 20 {
            return None;
        }
        let (_, opt) = self.brute_force().ok()?;
        Some(-(opt as f64))
    }
}

// ---------------------------------------------------------------------
// Sherrington–Kirkpatrick spin glass (unconstrained, real couplings)
// ---------------------------------------------------------------------

impl CopProblem for SpinGlass {
    type Decoded = Vec<i8>;

    fn kind(&self) -> &'static str {
        "spin-glass"
    }

    fn name(&self) -> String {
        format!("spinglass-n{}", self.num_spins())
    }

    fn dim(&self) -> usize {
        self.num_spins()
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        let (q, _offset) = self.to_ising().to_qubo().map_err(CopError::from)?;
        InequalityQubo::new(q, trivial_constraint(self.num_spins())?).map_err(CopError::from)
    }

    fn encode(&self, decoded: &Vec<i8>) -> Assignment {
        assert_eq!(
            decoded.len(),
            self.num_spins(),
            "spin vector length mismatch"
        );
        // σᵢ = 1 − 2xᵢ: spin −1 ↔ bit 1.
        Assignment::from_bits(decoded.iter().map(|&s| s < 0))
    }

    fn decode(&self, x: &Assignment) -> Option<Vec<i8>> {
        assert_eq!(x.len(), self.num_spins(), "assignment length mismatch");
        Some(x.iter().map(|b| if b { -1 } else { 1 }).collect())
    }

    fn objective(&self, x: &Assignment) -> f64 {
        let spins = self.decode(x).expect("any bit vector is a spin state");
        self.to_ising().energy(&spins)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        Assignment::random(self.num_spins(), rng)
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        if self.num_spins() > 16 {
            return None;
        }
        let (_, ground) = self.ground_state().ok()?;
        Some(ground)
    }
}

// ---------------------------------------------------------------------
// Traveling salesman (equality constraints as penalties)
// ---------------------------------------------------------------------

impl CopProblem for Tsp {
    type Decoded = Vec<usize>;

    fn kind(&self) -> &'static str {
        "tsp"
    }

    fn name(&self) -> String {
        format!("tsp-n{}", self.num_cities())
    }

    fn dim(&self) -> usize {
        Tsp::dim(self)
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        let q = self.objective_matrix(tsp_penalty_weight(self));
        InequalityQubo::new(q, trivial_constraint(Tsp::dim(self))?).map_err(CopError::from)
    }

    fn encode(&self, decoded: &Vec<usize>) -> Assignment {
        Tsp::encode(self, decoded)
    }

    fn decode(&self, x: &Assignment) -> Option<Vec<usize>> {
        assert_eq!(x.len(), Tsp::dim(self), "assignment length mismatch");
        Tsp::decode(self, x)
    }

    fn objective(&self, x: &Assignment) -> f64 {
        match Tsp::decode(self, x) {
            Some(tour) => self.tour_length(&tour).expect("decoded tours are valid"),
            None => f64::INFINITY,
        }
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        Tsp::encode(self, &random_permutation(self.num_cities(), rng))
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        self.tour_length(&self.nearest_neighbor()).ok()
    }
}

// ---------------------------------------------------------------------
// Graph coloring (equality constraints as penalties)
// ---------------------------------------------------------------------

impl CopProblem for GraphColoring {
    /// Color index per vertex.
    type Decoded = Vec<usize>;

    fn kind(&self) -> &'static str {
        "coloring"
    }

    fn name(&self) -> String {
        format!("coloring-n{}k{}", self.num_nodes(), self.num_colors())
    }

    fn dim(&self) -> usize {
        GraphColoring::dim(self)
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        let q = self.objective_matrix(coloring_penalty_weight(self));
        InequalityQubo::new(q, trivial_constraint(GraphColoring::dim(self))?)
            .map_err(CopError::from)
    }

    fn encode(&self, decoded: &Vec<usize>) -> Assignment {
        assert_eq!(
            decoded.len(),
            self.num_nodes(),
            "color vector length mismatch"
        );
        let mut x = Assignment::zeros(GraphColoring::dim(self));
        for (v, &c) in decoded.iter().enumerate() {
            x.set(self.var(v, c), true);
        }
        x
    }

    fn decode(&self, x: &Assignment) -> Option<Vec<usize>> {
        assert_eq!(
            x.len(),
            GraphColoring::dim(self),
            "assignment length mismatch"
        );
        let mut colors = Vec::with_capacity(self.num_nodes());
        for v in 0..self.num_nodes() {
            let mut assigned = None;
            for c in 0..self.num_colors() {
                if x.get(self.var(v, c)) {
                    if assigned.is_some() {
                        return None;
                    }
                    assigned = Some(c);
                }
            }
            colors.push(assigned?);
        }
        Some(colors)
    }

    fn objective(&self, x: &Assignment) -> f64 {
        assert_eq!(
            x.len(),
            GraphColoring::dim(self),
            "assignment length mismatch"
        );
        let mut violations = 0usize;
        for v in 0..self.num_nodes() {
            let count = (0..self.num_colors())
                .filter(|&c| x.get(self.var(v, c)))
                .count();
            violations += count.abs_diff(1);
        }
        let conflicts = self
            .edges()
            .iter()
            .map(|&(u, v)| {
                (0..self.num_colors())
                    .filter(|&c| x.get(self.var(u, c)) && x.get(self.var(v, c)))
                    .count()
            })
            .sum::<usize>();
        (violations + conflicts) as f64
    }

    fn is_feasible(&self, x: &Assignment) -> bool {
        self.is_proper_coloring(x)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        // One random color per vertex: structurally valid, possibly
        // improper — the annealer resolves conflicts.
        let colors: Vec<usize> = (0..self.num_nodes())
            .map(|_| rng.random_range(0..self.num_colors()))
            .collect();
        CopProblem::encode(self, &colors)
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        self.greedy_coloring().map(|_| 0.0)
    }
}

// ---------------------------------------------------------------------
// Bin packing (inequality constraints, one per bin)
// ---------------------------------------------------------------------

impl CopProblem for BinPacking {
    /// Bin index per item.
    type Decoded = Vec<usize>;

    fn kind(&self) -> &'static str {
        "bin-packing"
    }

    fn name(&self) -> String {
        format!("binpack-n{}b{}", self.num_items(), self.num_bins())
    }

    fn dim(&self) -> usize {
        BinPacking::dim(self)
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        // The single-filter pipeline encodes the *aggregate* capacity
        // Σᵢⱼ sᵢ·x_{i,k} ≤ bins·C (a necessary relaxation of the
        // per-bin bank in `bin_constraints`); per-bin balance is
        // steered by a quadratic load term in the objective. The exact
        // per-bin form is `to_multi_inequality_qubo`, driven by the
        // filter-bank pipeline (`HyCimEngine::bank` in `hycim-core`).
        let q = self.packing_objective();
        let mut weights = vec![0u64; BinPacking::dim(self)];
        for i in 0..self.num_items() {
            for k in 0..self.num_bins() {
                weights[self.var(i, k)] = self.sizes()[i];
            }
        }
        let aggregate = self.capacity() * self.num_bins() as u64;
        let constraint = LinearConstraint::new(weights, aggregate).map_err(CopError::from)?;
        InequalityQubo::new(q, constraint).map_err(CopError::from)
    }

    fn to_multi_inequality_qubo(&self) -> Result<MultiInequalityQubo, CopError> {
        // The exact encoding: one capacity inequality per bin, gated
        // in hardware by one filter each. The load-balance relaxation
        // of the single-filter path is *dropped* — the bank enforces
        // every bin's capacity directly, so the objective only has to
        // place each item in exactly one bin.
        let q = self.assignment_objective(bin_packing_assignment_penalty(self));
        MultiInequalityQubo::new(q, self.bin_constraints()).map_err(CopError::from)
    }

    fn encode(&self, decoded: &Vec<usize>) -> Assignment {
        assert_eq!(
            decoded.len(),
            self.num_items(),
            "bin vector length mismatch"
        );
        let mut x = Assignment::zeros(BinPacking::dim(self));
        for (i, &k) in decoded.iter().enumerate() {
            x.set(self.var(i, k), true);
        }
        x
    }

    fn decode(&self, x: &Assignment) -> Option<Vec<usize>> {
        assert_eq!(x.len(), BinPacking::dim(self), "assignment length mismatch");
        let mut bins = Vec::with_capacity(self.num_items());
        for i in 0..self.num_items() {
            let mut assigned = None;
            for k in 0..self.num_bins() {
                if x.get(self.var(i, k)) {
                    if assigned.is_some() {
                        return None;
                    }
                    assigned = Some(k);
                }
            }
            bins.push(assigned?);
        }
        Some(bins)
    }

    fn objective(&self, x: &Assignment) -> f64 {
        assert_eq!(x.len(), BinPacking::dim(self), "assignment length mismatch");
        let mut violations = 0u64;
        for i in 0..self.num_items() {
            let count = (0..self.num_bins())
                .filter(|&k| x.get(self.var(i, k)))
                .count() as u64;
            violations += count.abs_diff(1);
        }
        let overflow: u64 = (0..self.num_bins())
            .map(|k| self.bin_load(x, k).saturating_sub(self.capacity()))
            .sum();
        (violations + overflow) as f64
    }

    fn is_feasible(&self, x: &Assignment) -> bool {
        self.is_valid_packing(x)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        // First-fit over a shuffled item order, respecting per-bin
        // capacity (hence the aggregate filter constraint); items that
        // fit nowhere stay unassigned and cost assignment violations.
        let mut loads = vec![0u64; self.num_bins()];
        let mut x = Assignment::zeros(BinPacking::dim(self));
        for i in random_permutation(self.num_items(), rng) {
            let start = rng.random_range(0..self.num_bins());
            for step in 0..self.num_bins() {
                let k = (start + step) % self.num_bins();
                if loads[k] + self.sizes()[i] <= self.capacity() {
                    loads[k] += self.sizes()[i];
                    x.set(self.var(i, k), true);
                    break;
                }
            }
        }
        x
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        self.first_fit_decreasing().map(|_| 0.0)
    }
}

// ---------------------------------------------------------------------
// Multi-dimensional knapsack (one inequality per resource dimension)
// ---------------------------------------------------------------------

impl CopProblem for MultiKnapsack {
    type Decoded = Assignment;

    fn kind(&self) -> &'static str {
        "mkp"
    }

    fn name(&self) -> String {
        format!("mkp-n{}m{}", self.num_items(), self.num_dimensions())
    }

    fn dim(&self) -> usize {
        self.num_items()
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        // The single-filter pipeline can only hold one inequality, so
        // it runs the *aggregate relaxation* (summed weights against
        // summed capacities): every MKP-feasible selection passes, but
        // some dimension-wise violations slip through and surface as
        // infeasible solutions. The exact per-dimension form is
        // `to_multi_inequality_qubo` on the filter-bank pipeline.
        InequalityQubo::new(self.profit_objective(), self.aggregate_constraint())
            .map_err(CopError::from)
    }

    fn to_multi_inequality_qubo(&self) -> Result<MultiInequalityQubo, CopError> {
        MultiInequalityQubo::new(self.profit_objective(), self.dimension_constraints())
            .map_err(CopError::from)
    }

    fn encode(&self, decoded: &Assignment) -> Assignment {
        assert_eq!(decoded.len(), self.num_items(), "selection length mismatch");
        decoded.clone()
    }

    fn decode(&self, x: &Assignment) -> Option<Assignment> {
        assert_eq!(x.len(), self.num_items(), "assignment length mismatch");
        Some(x.clone())
    }

    fn objective(&self, x: &Assignment) -> f64 {
        // Gated like the other knapsacks (paper Eq. 6): infeasible in
        // *any* dimension scores 0, worse than any profitable
        // selection.
        if MultiKnapsack::is_feasible(self, x) {
            -(self.value(x) as f64)
        } else {
            0.0
        }
    }

    fn is_feasible(&self, x: &Assignment) -> bool {
        MultiKnapsack::is_feasible(self, x)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        // Feasible in every dimension, hence also under the aggregate
        // relaxation — one start serves both pipelines.
        self.random_feasible(rng)
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        Some(-(self.reference_value() as f64))
    }
}

// ---------------------------------------------------------------------
// Raw inequality-QUBO models (custom problems without a domain type)
// ---------------------------------------------------------------------

impl CopProblem for InequalityQubo {
    type Decoded = Assignment;

    fn kind(&self) -> &'static str {
        "inequality-qubo"
    }

    fn name(&self) -> String {
        format!("iqubo-n{}", InequalityQubo::dim(self))
    }

    fn dim(&self) -> usize {
        InequalityQubo::dim(self)
    }

    fn to_inequality_qubo(&self) -> Result<InequalityQubo, CopError> {
        Ok(self.clone())
    }

    fn encode(&self, decoded: &Assignment) -> Assignment {
        assert_eq!(
            decoded.len(),
            InequalityQubo::dim(self),
            "assignment length mismatch"
        );
        decoded.clone()
    }

    fn decode(&self, x: &Assignment) -> Option<Assignment> {
        assert_eq!(
            x.len(),
            InequalityQubo::dim(self),
            "assignment length mismatch"
        );
        Some(x.clone())
    }

    fn objective(&self, x: &Assignment) -> f64 {
        // The gated energy of the paper's Eq. 6.
        self.energy(x)
    }

    fn is_feasible(&self, x: &Assignment) -> bool {
        InequalityQubo::is_feasible(self, x)
    }

    fn initial(&self, rng: &mut StdRng) -> Assignment {
        // Shuffled greedy insertion against the constraint.
        let c = self.constraint();
        let mut x = Assignment::zeros(InequalityQubo::dim(self));
        let mut load = 0u64;
        for i in random_permutation(InequalityQubo::dim(self), rng) {
            let w = c.weights()[i];
            if load + w <= c.capacity() && rng.random_bool(0.7) {
                x.set(i, true);
                load += w;
            }
        }
        x
    }

    fn reference_objective(&self, _seed: u64) -> Option<f64> {
        if InequalityQubo::dim(self) > 20 {
            return None;
        }
        Some(self.brute_force_minimum().1)
    }
}

// ---------------------------------------------------------------------
// Helpers used by the implementations above
// ---------------------------------------------------------------------

impl MultiKnapsack {
    /// The MKP's QUBO objective: negated linear profits on the
    /// diagonal (no pair terms — the MKP is linear in the profits; the
    /// constraints carry all the structure).
    fn profit_objective(&self) -> QuboMatrix {
        let mut q = QuboMatrix::zeros(self.num_items());
        for (i, &p) in self.profits().iter().enumerate() {
            q.set(i, i, -(p as f64));
        }
        q
    }
}

impl BinPacking {
    /// QUBO objective of the single-filter encoding: the exact-one-bin
    /// assignment penalty plus a quadratic per-bin load term
    /// `Σₖ (Σᵢ sᵢ x_{i,k})²` that steers SA toward balanced (hence
    /// capacity-respecting) packings under the aggregate constraint.
    fn packing_objective(&self) -> QuboMatrix {
        // A dropped/duplicated item must never pay off: un-assigning
        // item i saves at most ~2·C·sᵢ of load penalty, so the
        // assignment penalty dominates at 4·C·s_max.
        let s_max = *self.sizes().iter().max().expect("non-empty instance");
        let assign_penalty = 4.0 * (self.capacity() * s_max) as f64;
        let mut q = self.assignment_objective(assign_penalty);
        for k in 0..self.num_bins() {
            for i in 0..self.num_items() {
                let si = self.sizes()[i] as f64;
                q.add(self.var(i, k), self.var(i, k), si * si);
                for j in (i + 1)..self.num_items() {
                    let sj = self.sizes()[j] as f64;
                    q.add(self.var(i, k), self.var(j, k), 2.0 * si * sj);
                }
            }
        }
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn qkp_round_trip_and_gated_objective() {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
        inst.set_pair_profit(0, 2, 7);
        let x = Assignment::from_bits([true, false, true]);
        let d = CopProblem::decode(&inst, &x).unwrap();
        assert_eq!(CopProblem::encode(&inst, &d), x);
        assert_eq!(CopProblem::objective(&inst, &x), -25.0);
        let over = Assignment::ones_vec(3);
        assert_eq!(CopProblem::objective(&inst, &over), 0.0);
        assert!(!CopProblem::is_feasible(&inst, &over));
    }

    #[test]
    fn initial_configurations_satisfy_the_encoded_constraint() {
        let mut r = rng(1);
        let qkp = crate::generator::QkpGenerator::new(20, 0.5).generate(1);
        let tsp = Tsp::random_euclidean(5, 10.0, 2).unwrap();
        let gc = GraphColoring::random(6, 0.4, 3, 3);
        let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let mc = MaxCut::random(8, 0.5, 4);
        let sg = SpinGlass::random_binary(6, 5).unwrap();
        macro_rules! check {
            ($p:expr) => {
                let iq = CopProblem::to_inequality_qubo(&$p).unwrap();
                for _ in 0..10 {
                    let x = $p.initial(&mut r);
                    assert!(iq.is_feasible(&x), "{} start violates filter", $p.kind());
                }
            };
        }
        check!(qkp);
        check!(tsp);
        check!(gc);
        check!(bp);
        check!(mc);
        check!(sg);
    }

    #[test]
    fn penalty_weights_follow_their_derivations() {
        let tsp = Tsp::random_euclidean(6, 10.0, 3).unwrap();
        // The documented bound: strictly more than the largest leg, so
        // dropping a visit (saving ≤ 2·d_max) can never beat the
        // 2×penalty constraint violation it causes.
        assert!(tsp_penalty_weight(&tsp) > tsp.max_distance());
        assert_eq!(tsp_penalty_weight(&tsp), 2.0 * tsp.max_distance());
        // The encoding uses exactly the derived weight.
        let iq = CopProblem::to_inequality_qubo(&tsp).unwrap();
        let direct = tsp.objective_matrix(tsp_penalty_weight(&tsp));
        let x = tsp.initial(&mut rng(7));
        assert_eq!(iq.objective().energy(&x), direct.energy(&x));

        let gc = GraphColoring::random(6, 0.4, 3, 3);
        assert!(coloring_penalty_weight(&gc) > 0.0);
        let iq = CopProblem::to_inequality_qubo(&gc).unwrap();
        // One violation costs exactly the penalty weight: a proper
        // coloring vs the same coloring with one vertex left blank.
        let proper = gc.greedy_coloring().unwrap();
        let mut blank = proper.clone();
        for c in 0..gc.num_colors() {
            blank.set(gc.var(0, c), false);
        }
        assert_eq!(
            iq.objective().energy(&blank) - iq.objective().energy(&proper),
            coloring_penalty_weight(&gc)
        );
    }

    #[test]
    fn tsp_structural_decode() {
        let tsp = Tsp::random_euclidean(4, 10.0, 1).unwrap();
        let mut r = rng(2);
        let x = tsp.initial(&mut r);
        let tour = CopProblem::decode(&tsp, &x).expect("initial is a permutation");
        assert_eq!(CopProblem::encode(&tsp, &tour), x);
        assert_eq!(
            CopProblem::objective(&tsp, &x),
            tsp.tour_length(&tour).unwrap()
        );
        assert_eq!(
            CopProblem::objective(&tsp, &Assignment::zeros(16)),
            f64::INFINITY
        );
    }

    #[test]
    fn coloring_objective_counts_violations() {
        let g = GraphColoring::new(3, vec![(0, 1), (1, 2), (0, 2)], 3).unwrap();
        let proper = g.greedy_coloring().unwrap();
        assert_eq!(CopProblem::objective(&g, &proper), 0.0);
        assert!(CopProblem::is_feasible(&g, &proper));
        // All three vertices the same color: 3 conflicting edges.
        let mono = CopProblem::encode(&g, &vec![0, 0, 0]);
        assert_eq!(CopProblem::objective(&g, &mono), 3.0);
        assert!(!CopProblem::is_feasible(&g, &mono));
        // Empty assignment: 3 missing colors, no conflicts.
        assert_eq!(CopProblem::objective(&g, &Assignment::zeros(9)), 3.0);
    }

    #[test]
    fn binpack_objective_counts_overflow() {
        let bp = BinPacking::new(vec![4, 5, 3], 9, 2).unwrap();
        let good = CopProblem::encode(&bp, &vec![0, 1, 0]);
        assert_eq!(CopProblem::objective(&bp, &good), 0.0);
        assert!(CopProblem::is_feasible(&bp, &good));
        // Everything in bin 0: load 12, 3 units over.
        let overload = CopProblem::encode(&bp, &vec![0, 0, 0]);
        assert_eq!(CopProblem::objective(&bp, &overload), 3.0);
        assert!(!CopProblem::is_feasible(&bp, &overload));
        assert_eq!(bp.reference_objective(0), Some(0.0));
    }

    #[test]
    fn binpack_packing_objective_prefers_valid_packings() {
        let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let q = bp.packing_objective();
        let valid = CopProblem::encode(&bp, &vec![0, 0, 1, 1]);
        assert!(bp.is_valid_packing(&valid));
        // Any single-item drop or duplication costs more energy.
        for i in 0..bp.dim() {
            let mut other = valid.clone();
            other.flip(i);
            assert!(
                q.energy(&other) > q.energy(&valid),
                "flip {i} did not raise energy"
            );
        }
    }

    #[test]
    fn spin_glass_energy_matches_ising() {
        let sg = SpinGlass::random_binary(8, 3).unwrap();
        let ising = sg.to_ising();
        let mut r = rng(4);
        let x = sg.initial(&mut r);
        let spins = CopProblem::decode(&sg, &x).unwrap();
        assert_eq!(CopProblem::objective(&sg, &x), ising.energy(&spins));
        assert_eq!(CopProblem::encode(&sg, &spins), x);
        // QUBO energy differs from the spin energy only by the dropped
        // constant of the σ → x substitution.
        let iq = CopProblem::to_inequality_qubo(&sg).unwrap();
        let (q2, offset) = ising.to_qubo().unwrap();
        assert_eq!(iq.objective().energy(&x) + offset, q2.energy(&x) + offset);
    }

    #[test]
    fn dqubo_default_encoding_round_trips() {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
        inst.set_pair_profit(0, 2, 7);
        let form = CopProblem::to_dqubo(&inst, PenaltyWeights::PAPER, AuxEncoding::OneHot).unwrap();
        assert_eq!(form.num_items(), 3);
        assert_eq!(form.num_aux(), 9);
    }

    #[test]
    fn raw_inequality_qubo_is_a_cop_problem() {
        let mut q = QuboMatrix::zeros(3);
        q.set(0, 0, -10.0);
        q.set(2, 2, -8.0);
        q.set(0, 2, -14.0);
        let iq = InequalityQubo::new(q, LinearConstraint::new(vec![4, 7, 2], 9).unwrap()).unwrap();
        assert_eq!(iq.reference_objective(0), Some(-32.0));
        let mut r = rng(5);
        let x = iq.initial(&mut r);
        assert!(CopProblem::is_feasible(&iq, &x));
        assert_eq!(CopProblem::objective(&iq, &x), iq.energy(&x));
    }

    #[test]
    fn multi_form_defaults_to_the_single_constraint() {
        let qkp = crate::generator::QkpGenerator::new(10, 0.5).generate(2);
        let iq = CopProblem::to_inequality_qubo(&qkp).unwrap();
        let mq = qkp.to_multi_inequality_qubo().unwrap();
        assert_eq!(mq.num_constraints(), 1);
        assert_eq!(mq, MultiInequalityQubo::from(iq));
    }

    #[test]
    fn binpack_multi_form_is_exact_per_bin() {
        let bp = BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let mq = bp.to_multi_inequality_qubo().unwrap();
        assert_eq!(mq.num_constraints(), 2);
        assert_eq!(mq.dim(), bp.dim());
        // Multi-form feasibility = per-bin capacity feasibility: the
        // overload that slips through the aggregate relaxation is
        // gated out here.
        let overload = CopProblem::encode(&bp, &vec![0, 0, 0, 1]); // bin 0: 12 > 9
        let iq = CopProblem::to_inequality_qubo(&bp).unwrap();
        assert!(iq.is_feasible(&overload), "aggregate admits the overload");
        assert!(!mq.is_feasible(&overload), "bank rejects it");
        assert_eq!(mq.first_violation(&overload), Some(0));
        // A valid packing passes every gate, and the objective
        // (assignment penalty only — no load-balance term) is at its
        // minimum there.
        let valid = CopProblem::encode(&bp, &vec![0, 0, 1, 1]);
        assert!(mq.is_feasible(&valid));
        let per_item = bin_packing_assignment_penalty(&bp);
        assert_eq!(
            mq.objective_energy(&valid),
            -per_item * bp.num_items() as f64
        );
        // Every initial start satisfies the whole bank.
        let mut r = rng(9);
        for _ in 0..10 {
            assert!(mq.is_feasible(&bp.initial(&mut r)));
        }
    }

    #[test]
    fn mkp_objective_is_gated_and_forms_agree() {
        let mkp = crate::mkp::MultiKnapsack::new(
            vec![10, 6, 8],
            vec![vec![4, 7, 2], vec![1, 2, 6]],
            vec![9, 7],
        )
        .unwrap();
        let mq = mkp.to_multi_inequality_qubo().unwrap();
        assert_eq!(mq.num_constraints(), 2);
        let ok = Assignment::from_bits([true, false, true]);
        assert_eq!(CopProblem::objective(&mkp, &ok), -18.0);
        assert_eq!(mq.energy(&ok), -18.0);
        // Dimension-0 violation (11 > 9): gated to 0 in the multi form
        // and the trait objective, but the aggregate relaxation
        // (14 ≤ 16) admits it.
        let bad = Assignment::from_bits([true, true, false]);
        assert_eq!(CopProblem::objective(&mkp, &bad), 0.0);
        assert_eq!(mq.energy(&bad), 0.0);
        assert!(!CopProblem::is_feasible(&mkp, &bad));
        let iq = CopProblem::to_inequality_qubo(&mkp).unwrap();
        assert!(iq.is_feasible(&bad));
        // Round trip + reference.
        let d = CopProblem::decode(&mkp, &ok).unwrap();
        assert_eq!(CopProblem::encode(&mkp, &d), ok);
        assert_eq!(mkp.reference_objective(0), Some(-18.0));
        // Initial starts satisfy every dimension.
        let mut r = rng(10);
        for _ in 0..10 {
            let x = mkp.initial(&mut r);
            assert!(mq.is_feasible(&x));
            assert!(iq.is_feasible(&x));
        }
    }

    #[test]
    fn reference_objectives_exist_where_promised() {
        let qkp = crate::generator::QkpGenerator::new(10, 0.5).generate(1);
        assert!(qkp.reference_objective(1).is_some());
        let ks = Knapsack::new(vec![3, 4], vec![2, 3], 5).unwrap();
        assert_eq!(ks.reference_objective(0), Some(-7.0));
        let mc = MaxCut::random(8, 0.5, 1);
        assert!(mc.reference_objective(0).is_some());
        let sg = SpinGlass::random_binary(8, 1).unwrap();
        assert!(sg.reference_objective(0).is_some());
        let big = SpinGlass::random_binary(30, 1).unwrap();
        assert!(big.reference_objective(0).is_none());
    }
}
