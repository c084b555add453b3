use std::fmt;

/// Electrical parameters of a matchline (paper Fig. 4(a)): supply
/// voltage, matchline capacitance, per-phase integration time and the
/// clamped cell current.
///
/// The defaults are chosen so one unit of stored weight discharges the
/// ML by a fixed `ΔV_unit = I·t / C_ML` (paper Eq. 7) of 0.2 mV, which
/// keeps the largest possible discharge of the paper's 16×100 array
/// (`Σw = 6400` units → 1.28 V) inside the 2 V supply — i.e. the ML
/// never rails, preserving the linear relationship of Eq. 8–9.
///
/// # Example
///
/// ```
/// use hycim_cim::MatchlineConfig;
///
/// let cfg = MatchlineConfig::default();
/// assert!((cfg.unit_drop() - 0.2e-3).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatchlineConfig {
    /// Precharge voltage, VDD (paper: 2 V).
    pub vdd: f64,
    /// Matchline capacitance C_ML (F).
    pub c_ml: f64,
    /// Integration time per staircase phase (s).
    pub phase_time: f64,
    /// Clamped per-cell ON current (A); 2 µA by default, matching the
    /// 1FeFET1R clamp.
    pub cell_current: f64,
}

impl MatchlineConfig {
    /// Paper-calibrated defaults (see type-level docs).
    pub fn paper() -> Self {
        Self {
            vdd: 2.0,
            // The interconnected matchlines of a 16×100 array present a
            // large aggregate capacitance; 100 pF gives
            // ΔV_unit = 2 µA · 10 ns / 100 pF = 0.2 mV.
            c_ml: 100.0e-12,
            phase_time: 10.0e-9,
            cell_current: 2.0e-6,
        }
    }

    /// Voltage drop caused by one conducting cell in one phase:
    /// `ΔV_unit = I·t / C_ML`.
    pub fn unit_drop(&self) -> f64 {
        self.cell_current * self.phase_time / self.c_ml
    }
}

impl Default for MatchlineConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// A matchline being discharged during a filter evaluation: precharge
/// to VDD, then integrate cell currents phase by phase (paper
/// Fig. 4(c)).
#[derive(Debug, Clone, PartialEq)]
pub struct Matchline {
    config: MatchlineConfig,
    voltage: f64,
}

impl Matchline {
    /// Precharges a matchline to VDD.
    pub fn precharged(config: &MatchlineConfig) -> Self {
        Self {
            config: config.clone(),
            voltage: config.vdd,
        }
    }

    /// Current matchline voltage (V), clamped to `[0, VDD]`.
    pub fn voltage(&self) -> f64 {
        self.voltage
    }

    /// Configuration in use.
    pub fn config(&self) -> &MatchlineConfig {
        &self.config
    }

    /// Integrates a total cell current `i_total` (A) for one phase,
    /// discharging the line. The voltage clamps at ground.
    pub fn integrate_phase(&mut self, i_total: f64) {
        let dv = i_total * self.config.phase_time / self.config.c_ml;
        self.voltage = (self.voltage - dv).max(0.0);
    }

    /// Applies `n` ideal unit drops at once (the fast path).
    pub fn discharge_units(&mut self, units: f64) {
        self.voltage = (self.voltage - units * self.config.unit_drop()).max(0.0);
    }
}

impl fmt::Display for Matchline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Matchline({:.4} V / VDD {:.1} V)",
            self.voltage, self.config.vdd
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_calibrated() {
        let cfg = MatchlineConfig::default();
        assert_eq!(cfg.vdd, 2.0);
        // 6400 units (full 16×100 array at max weight) stay on-scale.
        assert!(cfg.vdd / cfg.unit_drop() > 6400.0);
    }

    #[test]
    fn unit_drop_equals_integration_of_clamp_current() {
        let cfg = MatchlineConfig::default();
        let mut ml_a = Matchline::precharged(&cfg);
        let mut ml_b = Matchline::precharged(&cfg);
        ml_a.integrate_phase(cfg.cell_current); // one cell, one phase
        ml_b.discharge_units(1.0);
        assert!((ml_a.voltage() - ml_b.voltage()).abs() < 1e-15);
    }

    #[test]
    fn discharge_is_linear_in_units() {
        // The property behind paper Eq. 8: ML ∝ −Σwᵢxᵢ.
        let cfg = MatchlineConfig::default();
        let v = |units: f64| {
            let mut ml = Matchline::precharged(&cfg);
            ml.discharge_units(units);
            ml.voltage()
        };
        let d1 = v(0.0) - v(100.0);
        let d2 = v(100.0) - v(200.0);
        assert!((d1 - d2).abs() < 1e-12);
    }

    #[test]
    fn clamps_at_ground() {
        let cfg = MatchlineConfig::default();
        let mut ml = Matchline::precharged(&cfg);
        ml.discharge_units(1e9);
        assert_eq!(ml.voltage(), 0.0);
    }
}
