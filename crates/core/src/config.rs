//! Engine configurations: the HyCiM pipeline settings (Sec 4) and the
//! D-QUBO baseline settings (Sec 2.1), plus the annealing-schedule
//! parameters both share.

use hycim_cim::crossbar::CrossbarConfig;
use hycim_cim::filter::FilterConfig;
use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};

/// The annealing-schedule parameters shared by every engine: sweep
/// count, move mix, and the calibrated geometric schedule (T₀ from
/// probed deltas, T_end as a fraction of T₀). Extracted so the three
/// pipelines cannot drift apart — see
/// [`run_annealing`](crate::run_annealing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealSettings {
    /// Annealing sweeps; each sweep proposes `dim` moves (the paper's
    /// "1000 iterations", read as full-network updates).
    pub sweeps: usize,
    /// Fraction of exchange (swap) moves (the paper value 0.5, the
    /// [`Annealer`](hycim_anneal::Annealer) default).
    pub swap_probability: f64,
    /// T₀ = `t0_fraction × mean|Δ|` at the initial state.
    pub t0_fraction: f64,
    /// Final temperature as a fraction of T₀.
    pub t_end_fraction: f64,
    /// Record per-iteration energies (Fig. 7(f) traces) — off by
    /// default to keep bulk experiments lean.
    pub record_trace: bool,
}

impl AnnealSettings {
    /// The paper-calibrated schedule both engine configs start from.
    fn paper() -> Self {
        Self {
            sweeps: 1000,
            swap_probability: hycim_anneal::DEFAULT_SWAP_PROBABILITY,
            t0_fraction: 0.5,
            t_end_fraction: 0.002,
            record_trace: false,
        }
    }
}

/// Configuration of the HyCiM engine pipeline.
#[derive(Debug, Clone)]
pub struct HyCimConfig {
    /// The annealing schedule.
    pub anneal: AnnealSettings,
    /// Inequality filter hardware configuration.
    pub filter: FilterConfig,
    /// Crossbar hardware configuration.
    pub crossbar: CrossbarConfig,
}

impl HyCimConfig {
    /// The paper-calibrated defaults (Sec 4).
    fn paper() -> Self {
        Self {
            anneal: AnnealSettings::paper(),
            filter: FilterConfig::paper(),
            crossbar: CrossbarConfig::paper(),
        }
    }

    /// Overrides the sweep count.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps == 0`.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        assert!(sweeps > 0, "need at least one sweep");
        self.anneal.sweeps = sweeps;
        self
    }

    /// Enables per-iteration trace recording.
    pub fn with_trace(mut self) -> Self {
        self.anneal.record_trace = true;
        self
    }

    /// Replaces the filter configuration.
    pub fn with_filter(mut self, filter: FilterConfig) -> Self {
        self.filter = filter;
        self
    }

    /// Replaces the crossbar configuration.
    pub fn with_crossbar(mut self, crossbar: CrossbarConfig) -> Self {
        self.crossbar = crossbar;
        self
    }
}

impl Default for HyCimConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Configuration of the D-QUBO baseline pipeline (paper Fig. 1(b),
/// Sec 2.1): penalty transformation on a single large crossbar, no
/// inequality filter.
#[derive(Debug, Clone)]
pub struct DquboConfig {
    /// The annealing schedule (each sweep proposes `n + n_aux` moves).
    pub anneal: AnnealSettings,
    /// Penalty coefficients α, β (paper sets both to 2).
    pub penalty: PenaltyWeights,
    /// Auxiliary-variable encoding (paper baseline: one-hot).
    pub encoding: AuxEncoding,
    /// Crossbar quantization override; `None` → `⌈log₂(Q_ij)MAX⌉`
    /// (16–25 bits on the benchmark set, Fig. 9(a)).
    pub bits: Option<u32>,
    /// Relative device current noise feeding the readout model.
    pub current_sigma_rel: f64,
}

impl DquboConfig {
    /// The paper's baseline settings.
    fn paper() -> Self {
        Self {
            anneal: AnnealSettings::paper(),
            penalty: PenaltyWeights::PAPER,
            encoding: AuxEncoding::OneHot,
            bits: None,
            current_sigma_rel: 0.03,
        }
    }

    /// Overrides the sweep count.
    ///
    /// # Panics
    ///
    /// Panics if `sweeps == 0`.
    pub fn with_sweeps(mut self, sweeps: usize) -> Self {
        assert!(sweeps > 0, "need at least one sweep");
        self.anneal.sweeps = sweeps;
        self
    }

    /// Overrides the aux encoding (binary slack is the ablation
    /// variant).
    pub fn with_encoding(mut self, encoding: AuxEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Overrides the quantization bit width.
    pub fn with_bits(mut self, bits: u32) -> Self {
        self.bits = Some(bits);
        self
    }
}

impl Default for DquboConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_the_paper_settings() {
        let h = HyCimConfig::default();
        assert_eq!(h.anneal.sweeps, 1000);
        assert_eq!(h.anneal.swap_probability, 0.5);
        assert_eq!(h.anneal.t0_fraction, 0.5);
        assert_eq!(h.anneal.t_end_fraction, 0.002);
        assert!(!h.anneal.record_trace);
        let d = DquboConfig::default();
        assert_eq!(d.anneal.swap_probability, 0.5);
        assert_eq!(d.penalty, PenaltyWeights::PAPER);
    }

    #[test]
    fn builders_override_fields() {
        let h = HyCimConfig::default().with_sweeps(7).with_trace();
        assert_eq!(h.anneal.sweeps, 7);
        assert!(h.anneal.record_trace);
        let d = DquboConfig::default()
            .with_sweeps(9)
            .with_bits(5)
            .with_encoding(AuxEncoding::Binary);
        assert_eq!(d.anneal.sweeps, 9);
        assert_eq!(d.bits, Some(5));
        assert_eq!(d.encoding, AuxEncoding::Binary);
    }

    #[test]
    fn anneal_settings_mirror_the_configs() {
        // Both engines anneal on the same schedule; only the sweep
        // override moves it.
        let h = HyCimConfig::default().with_sweeps(123);
        let d = DquboConfig::default().with_sweeps(123);
        assert_eq!(h.anneal, d.anneal);
        assert_eq!(h.anneal.sweeps, 123);
        assert_eq!(DquboConfig::default().anneal.sweeps, 1000);
    }
}
