//! Per-operation energy model for the CiM blocks.
//!
//! The paper argues HyCiM's hardware reduction "indicates improved
//! energy efficiency" (Sec 4.2) without tabulating joules; this model
//! makes the comparison concrete so the ablation benches can report
//! energy-per-SA-iteration for both pipelines. Magnitudes follow
//! standard 28 nm CiM estimates: dynamic energy `C·V²` for matchlines,
//! per-conversion ADC energy, and per-cell read energy `I·V·t`.

use std::fmt;

use crate::MatchlineConfig;

/// Energy model constants (joules per elementary operation).
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Matchline precharge energy per evaluation: `C_ML · VDD²`.
    pub ml_precharge: f64,
    /// Energy per conducting cell per phase: `I · V_DL · t_phase`.
    pub cell_read: f64,
    /// Energy per 8-bit ADC conversion (typical 28 nm SAR: ~1 pJ).
    pub adc_conversion: f64,
    /// Energy per comparator decision.
    pub comparator_decision: f64,
    /// Digital SA-logic energy per iteration (move generation,
    /// accept/reject bookkeeping).
    pub sa_logic_iteration: f64,
}

impl EnergyModel {
    /// Defaults derived from the paper's electrical parameters.
    pub fn paper() -> Self {
        let ml = MatchlineConfig::paper();
        Self {
            ml_precharge: ml.c_ml * ml.vdd * ml.vdd,
            cell_read: ml.cell_current * 0.05 * ml.phase_time,
            adc_conversion: 1.0e-12,
            comparator_decision: 0.1e-12,
            sa_logic_iteration: 5.0e-12,
        }
    }

    /// Energy of one inequality-filter evaluation: two matchline
    /// precharges (working + replica), the conducting cell-phases on
    /// both arrays, and one comparator decision.
    ///
    /// `load` is `Σwᵢxᵢ` (conducting cell-phases on the working array)
    /// and `capacity` the replica's constant load.
    pub fn filter_eval(&self, load: u64, capacity: u64) -> f64 {
        2.0 * self.ml_precharge
            + (load + capacity) as f64 * self.cell_read
            + self.comparator_decision
    }

    /// Energy of one filter-*bank* evaluation: `k` concurrent
    /// matchline evaluations, one per constraint. Each filter pays
    /// its own working+replica precharge, its conducting cell-phases
    /// (`loadₖ + capacityₖ`), and one comparator decision — the bank
    /// shares the 4-phase read in *time* (one filter latency) but not
    /// in *energy*: every matchline still precharges and discharges.
    ///
    /// `loads` and `capacities` are index-aligned per constraint.
    ///
    /// # Panics
    ///
    /// Panics if `loads.len() != capacities.len()` or both are empty.
    pub fn bank_eval(&self, loads: &[u64], capacities: &[u64]) -> f64 {
        assert_eq!(
            loads.len(),
            capacities.len(),
            "one load per bank constraint"
        );
        assert!(!loads.is_empty(), "a bank holds at least one filter");
        loads
            .iter()
            .zip(capacities)
            .map(|(&l, &c)| self.filter_eval(l, c))
            .sum()
    }

    /// Energy of one bank-pipeline SA iteration: always a full bank
    /// evaluation (`k` matchline evaluations); the crossbar fires only
    /// when **every** filter admits the configuration — the
    /// multi-constraint generalization of
    /// [`hycim_iteration`](Self::hycim_iteration).
    pub fn bank_iteration(
        &self,
        loads: &[u64],
        capacities: &[u64],
        feasible: bool,
        active_columns: usize,
        bits: u32,
        active_cells: usize,
    ) -> f64 {
        let mut e = self.bank_eval(loads, capacities) + self.sa_logic_iteration;
        if feasible {
            e += self.crossbar_vmv(active_columns, bits, active_cells);
        }
        e
    }

    /// Energy of one crossbar QUBO computation over an `n`-dimension,
    /// `bits`-bit matrix with `active_cells` conducting cells:
    /// cell reads + one ADC conversion per active column per bit plane
    /// per sign.
    fn crossbar_vmv(&self, active_columns: usize, bits: u32, active_cells: usize) -> f64 {
        active_cells as f64 * self.cell_read
            + (active_columns as f64) * f64::from(bits) * 2.0 * self.adc_conversion
    }

    /// Energy of one HyCiM SA iteration: always a filter evaluation;
    /// the crossbar fires only for feasible configurations (paper
    /// Fig. 3 — infeasible inputs never reach the crossbar, which is
    /// where the efficiency comes from).
    pub fn hycim_iteration(
        &self,
        load: u64,
        capacity: u64,
        feasible: bool,
        active_columns: usize,
        bits: u32,
        active_cells: usize,
    ) -> f64 {
        let mut e = self.filter_eval(load, capacity) + self.sa_logic_iteration;
        if feasible {
            e += self.crossbar_vmv(active_columns, bits, active_cells);
        }
        e
    }

    /// Energy of one D-QUBO SA iteration: a full crossbar computation
    /// on the expanded `(n+C)`-dimension matrix every iteration.
    pub fn dqubo_iteration(&self, active_columns: usize, bits: u32, active_cells: usize) -> f64 {
        self.crossbar_vmv(active_columns, bits, active_cells) + self.sa_logic_iteration
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for EnergyModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EnergyModel(ML {:.2e} J, ADC {:.2e} J)",
            self.ml_precharge, self.adc_conversion
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_eval_scales_with_load() {
        let m = EnergyModel::paper();
        assert!(m.filter_eval(100, 50) > m.filter_eval(10, 50));
    }

    #[test]
    fn infeasible_hycim_iterations_skip_the_crossbar() {
        let m = EnergyModel::paper();
        let feasible = m.hycim_iteration(90, 100, true, 50, 7, 2000);
        let infeasible = m.hycim_iteration(90, 100, false, 50, 7, 2000);
        assert!(feasible > infeasible);
        let saved = feasible - infeasible;
        assert!((saved - m.crossbar_vmv(50, 7, 2000)).abs() < 1e-18);
    }

    #[test]
    fn dqubo_iteration_dwarfs_hycim_at_paper_scale() {
        // HyCiM: n=100 columns at 7 bits. D-QUBO: n≈1300 columns at
        // ~20 bits with ~50× the active cells.
        let m = EnergyModel::paper();
        let hycim = m.hycim_iteration(1250, 1300, true, 50, 7, 2500);
        let dqubo = m.dqubo_iteration(700, 20, 125_000);
        assert!(
            dqubo > 5.0 * hycim,
            "expected D-QUBO ≫ HyCiM per iteration: {dqubo:.2e} vs {hycim:.2e}"
        );
    }

    #[test]
    fn bank_eval_sums_per_constraint_filter_evals() {
        let m = EnergyModel::paper();
        let loads = [30u64, 50, 10];
        let caps = [40u64, 60, 20];
        let expected: f64 = loads
            .iter()
            .zip(&caps)
            .map(|(&l, &c)| m.filter_eval(l, c))
            .sum();
        assert!((m.bank_eval(&loads, &caps) - expected).abs() < 1e-24);
        // A 1-filter bank costs exactly one filter evaluation.
        assert_eq!(m.bank_eval(&[30], &[40]), m.filter_eval(30, 40));
        // More constraints cost proportionally more matchline energy.
        assert!(m.bank_eval(&loads, &caps) > 2.0 * m.filter_eval(50, 60) * 0.9);
    }

    #[test]
    fn infeasible_bank_iterations_skip_the_crossbar() {
        let m = EnergyModel::paper();
        let loads = [90u64, 40];
        let caps = [100u64, 50];
        let feasible = m.bank_iteration(&loads, &caps, true, 50, 7, 2000);
        let infeasible = m.bank_iteration(&loads, &caps, false, 50, 7, 2000);
        let saved = feasible - infeasible;
        assert!((saved - m.crossbar_vmv(50, 7, 2000)).abs() < 1e-18);
        // The k-filter bank pays more per iteration than one filter
        // but far less than the D-QUBO crossbar blowup.
        assert!(infeasible > m.hycim_iteration(90, 100, false, 50, 7, 2000) * 0.99);
    }

    #[test]
    #[should_panic(expected = "one load per bank constraint")]
    fn bank_eval_rejects_mismatched_lengths() {
        let _ = EnergyModel::paper().bank_eval(&[1, 2], &[3]);
    }

    #[test]
    fn precharge_matches_cv2() {
        let m = EnergyModel::paper();
        // C=100 pF, VDD=2 V → 4e-10 J.
        assert!((m.ml_precharge - 4.0e-10).abs() < 1e-18);
    }
}
