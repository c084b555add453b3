//! Hardware area model behind the paper's Fig. 9(c) comparison.
//!
//! The paper extracts wiring parasitics with DESTINY \[27\] and reports
//! *relative* hardware size savings of HyCiM (inequality filter +
//! 7-bit crossbar) over D-QUBO (16–25-bit crossbar alone) of
//! 88.06–99.96%. Relative savings are governed by cell counts and the
//! per-block peripheral overheads, which this closed-form model
//! captures at 28 nm (the paper's HKMG node).

use std::fmt;

/// Area model constants, expressed in units of F² (F = feature size)
/// so the relative comparison is node-independent.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaModel {
    /// Feature size in nanometers (paper: 28 nm HKMG).
    pub feature_nm: f64,
    /// 1FeFET1R cell footprint in F² (compact three-terminal cell).
    pub cell_f2: f64,
    /// Per-column ADC footprint in F² (8-bit SAR-class).
    pub adc_f2: f64,
    /// 2-stage voltage comparator footprint in F².
    pub comparator_f2: f64,
    /// Per-row/column driver + decoder footprint in F².
    pub driver_f2: f64,
}

impl AreaModel {
    /// Paper-node defaults at 28 nm.
    pub fn paper() -> Self {
        Self {
            feature_nm: 28.0,
            cell_f2: 40.0,
            adc_f2: 60_000.0,
            comparator_f2: 8_000.0,
            driver_f2: 400.0,
        }
    }

    /// Area of one crossbar storing an `n × n` matrix at `bits`-bit
    /// quantization (two sign planes, per-column ADCs muxed 4:1,
    /// row/column drivers), in F².
    fn crossbar_f2(&self, n: usize, bits: u32) -> f64 {
        let cells = 2.0 * (n as f64) * (n as f64) * f64::from(bits) * self.cell_f2;
        let adcs = (n as f64 / 4.0).ceil() * self.adc_f2;
        let drivers = 2.0 * (n as f64) * self.driver_f2;
        cells + adcs + drivers
    }

    /// Area of the inequality filter (working + replica `rows × n`
    /// arrays + comparator + drivers), in F².
    fn filter_f2(&self, rows: usize, n: usize) -> f64 {
        let cells = 2.0 * (rows as f64) * (n as f64) * self.cell_f2;
        let drivers = (n as f64) * self.driver_f2;
        cells + drivers + self.comparator_f2
    }

    /// Total HyCiM area: inequality filter + crossbar (paper Fig. 9(c)
    /// counts both).
    fn hycim_f2(&self, n: usize, bits: u32, filter_rows: usize) -> f64 {
        self.crossbar_f2(n, bits) + self.filter_f2(filter_rows, n)
    }
}

impl Default for AreaModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl fmt::Display for AreaModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "AreaModel({} nm, cell {} F²)",
            self.feature_nm, self.cell_f2
        )
    }
}

/// Hardware-size comparison of HyCiM vs D-QUBO for one problem
/// instance (one row of paper Fig. 9).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareComparison {
    /// HyCiM QUBO dimension (number of items).
    pub hycim_dim: usize,
    /// HyCiM crossbar bits (`⌈log₂(Q_ij)MAX⌉`).
    pub hycim_bits: u32,
    /// D-QUBO dimension (`n + C` for the one-hot encoding).
    pub dqubo_dim: usize,
    /// D-QUBO crossbar bits.
    pub dqubo_bits: u32,
    /// HyCiM total area (F²), filter included.
    pub hycim_area_f2: f64,
    /// D-QUBO crossbar area (F²).
    pub dqubo_area_f2: f64,
}

impl HardwareComparison {
    /// Builds the comparison with the paper's 16-row filter.
    pub fn compute(
        model: &AreaModel,
        hycim_dim: usize,
        hycim_bits: u32,
        dqubo_dim: usize,
        dqubo_bits: u32,
    ) -> Self {
        Self {
            hycim_dim,
            hycim_bits,
            dqubo_dim,
            dqubo_bits,
            hycim_area_f2: model.hycim_f2(hycim_dim, hycim_bits, 16),
            dqubo_area_f2: model.crossbar_f2(dqubo_dim, dqubo_bits),
        }
    }

    /// Hardware size saving `1 − area_HyCiM / area_DQUBO`, in percent
    /// (paper Fig. 9(c): 88.06–99.96%).
    pub fn saving_percent(&self) -> f64 {
        (1.0 - self.hycim_area_f2 / self.dqubo_area_f2) * 100.0
    }

    /// Quantization-bit reduction `1 − bits_HyCiM / bits_DQUBO`, in
    /// percent (paper: 56–72%).
    pub fn bit_reduction_percent(&self) -> f64 {
        (1.0 - f64::from(self.hycim_bits) / f64::from(self.dqubo_bits)) * 100.0
    }

    /// Log₂ of the search-space reduction factor
    /// `2^dqubo_dim / 2^hycim_dim` (paper: 2¹⁰⁰..2²⁵³⁶ eliminated).
    pub fn search_space_reduction_log2(&self) -> usize {
        self.dqubo_dim - self.hycim_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_band_low_end() {
        // Smallest D-QUBO case: n=200, 16 bits vs HyCiM n=100, 7 bits.
        let cmp = HardwareComparison::compute(&AreaModel::paper(), 100, 7, 200, 16);
        let s = cmp.saving_percent();
        assert!(
            (85.0..92.0).contains(&s),
            "low-end saving {s:.2}% outside paper band (≈88.06%)"
        );
        assert_eq!(cmp.search_space_reduction_log2(), 100);
    }

    #[test]
    fn paper_band_high_end() {
        // Largest D-QUBO case: n=2636, 25 bits.
        let cmp = HardwareComparison::compute(&AreaModel::paper(), 100, 7, 2636, 25);
        let s = cmp.saving_percent();
        assert!(s > 99.9, "high-end saving {s:.2}% below paper's 99.96%");
        assert_eq!(cmp.search_space_reduction_log2(), 2536);
    }

    #[test]
    fn bit_reduction_band() {
        // Paper: 56–72% quantization bit reduction.
        let low = HardwareComparison::compute(&AreaModel::paper(), 100, 7, 200, 16);
        let high = HardwareComparison::compute(&AreaModel::paper(), 100, 7, 2636, 25);
        assert!((low.bit_reduction_percent() - 56.25).abs() < 0.1);
        assert!((high.bit_reduction_percent() - 72.0).abs() < 0.1);
    }

    #[test]
    fn crossbar_area_scales_with_bits_and_dim() {
        let m = AreaModel::paper();
        // Cell area doubles with bits; ADC/driver periphery does not,
        // so the total grows by a bit less than 2×.
        assert!(m.crossbar_f2(100, 14) > 1.7 * m.crossbar_f2(100, 7));
        assert!(m.crossbar_f2(200, 7) > 3.0 * m.crossbar_f2(100, 7));
    }

    #[test]
    fn filter_is_small_relative_to_crossbar() {
        // The filter's 2×16×100 cells are tiny next to a 100²×7-bit
        // crossbar — the premise that adding the filter still saves.
        let m = AreaModel::paper();
        assert!(m.filter_f2(16, 100) < 0.1 * m.crossbar_f2(100, 7));
    }
}
