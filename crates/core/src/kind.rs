//! Engine-backend selection by tag: the shared vocabulary between the
//! study harness (`hycim-bench`), the wire protocol (`hycim-net`),
//! and anything else that needs to name a backend in text and build
//! it later.
//!
//! [`EngineKind::build`] is the one place the per-backend construction
//! details live (trace recording, packed paper defaults, D-QUBO
//! penalty config), so a worker process reconstructing an engine from
//! a wire job description produces *exactly* the engine a local study
//! run would — the precondition for bit-identical distributed merges.

use std::fmt;

use hycim_cop::CopProblem;

use crate::{
    DquboConfig, DquboEngine, Engine, HyCimConfig, HyCimEngine, HycimError, PackedConfig,
    PackedEngine, SoftwareEngine,
};

/// Engine backends a study column or wire job can select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EngineKind {
    /// Noise-free software reference (`SoftwareEngine`).
    Software,
    /// Filter + crossbar pipeline (`HyCimEngine::new`).
    HyCim,
    /// Multi-constraint filter bank (`HyCimEngine::bank`).
    Bank,
    /// Penalty-encoding D-QUBO baseline (`DquboEngine`).
    Dqubo,
    /// Bit-parallel 64-lane software engine (`PackedEngine`).
    Packed,
}

/// Construction knobs [`EngineKind::build`] needs beyond the problem:
/// the annealing budget, the hardware fabrication seed, and whether
/// the per-iteration energy trace is recorded (the study harness and
/// the wire protocol need it for the iters-to-best statistic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSettings {
    /// Annealing sweeps per solve (iterations = sweeps × dim).
    pub sweeps: usize,
    /// Seed fabricating the device-variability sample of the
    /// hardware-backed engines (ignored by software backends).
    pub hardware_seed: u64,
    /// Record per-iteration energies into the solution trace.
    pub record_trace: bool,
}

impl EngineSettings {
    /// Settings with trace recording on (the study/wire default).
    pub fn new(sweeps: usize, hardware_seed: u64) -> Self {
        Self {
            sweeps,
            hardware_seed,
            record_trace: true,
        }
    }
}

impl EngineKind {
    /// All engine kinds, in canonical order.
    pub const ALL: [EngineKind; 5] = [
        EngineKind::Software,
        EngineKind::HyCim,
        EngineKind::Bank,
        EngineKind::Dqubo,
        EngineKind::Packed,
    ];

    /// The recipe/JSON/wire tag of this backend.
    pub fn tag(self) -> &'static str {
        match self {
            EngineKind::Software => "software",
            EngineKind::HyCim => "hycim",
            EngineKind::Bank => "bank",
            EngineKind::Dqubo => "dqubo",
            EngineKind::Packed => "packed",
        }
    }

    /// Parses a backend tag.
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.tag() == tag)
    }

    /// Builds the boxed engine of this kind for a problem (`'static`
    /// because the boxed engine owns its clone of the problem).
    ///
    /// # Errors
    ///
    /// Returns [`HycimError::Settings`] for zero sweeps, and another
    /// [`HycimError`] when the problem cannot be encoded or mapped onto
    /// this backend (e.g. constraint weights exceeding the filter's
    /// 64-unit columns).
    pub fn build<P: CopProblem + 'static>(
        self,
        problem: &P,
        settings: &EngineSettings,
    ) -> Result<Box<dyn Engine<P>>, HycimError> {
        if settings.sweeps == 0 {
            return Err(HycimError::Settings("need at least one sweep"));
        }
        let mut config = HyCimConfig::default().with_sweeps(settings.sweeps);
        if settings.record_trace {
            config = config.with_trace();
        }
        Ok(match self {
            EngineKind::Software => Box::new(SoftwareEngine::new(problem, &config)?),
            EngineKind::HyCim => {
                Box::new(HyCimEngine::new(problem, &config, settings.hardware_seed)?)
            }
            EngineKind::Bank => {
                Box::new(HyCimEngine::bank(problem, &config, settings.hardware_seed)?)
            }
            EngineKind::Dqubo => {
                let mut dq = DquboConfig::default().with_sweeps(settings.sweeps);
                dq.anneal.record_trace = settings.record_trace;
                Box::new(DquboEngine::new(problem, &dq)?)
            }
            EngineKind::Packed => {
                // 64 bitplane lanes per solve; counts-only trace (the
                // iters-to-best proxy reads 0 on its empty energy
                // curve).
                let packed = PackedConfig::paper().with_sweeps(settings.sweeps);
                Box::new(PackedEngine::new(problem, &packed)?)
            }
        })
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::QkpInstance;

    fn fig7e() -> QkpInstance {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
        inst.set_pair_profit(0, 1, 3);
        inst.set_pair_profit(0, 2, 7);
        inst.set_pair_profit(1, 2, 2);
        inst
    }

    #[test]
    fn tags_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_tag(kind.tag()), Some(kind));
            assert_eq!(kind.to_string(), kind.tag());
        }
        assert_eq!(EngineKind::from_tag("warp"), None);
    }

    #[test]
    fn builds_every_backend_with_matching_tag() {
        let inst = fig7e();
        let settings = EngineSettings::new(20, 1);
        for kind in EngineKind::ALL {
            let engine = kind.build(&inst, &settings).unwrap();
            assert_eq!(engine.backend(), kind.tag());
            // Trace recording flows through (packed aggregates lanes
            // into a counts-only trace, so its energy curve is empty).
            let has_curve = !engine.solve(3).trace.energies().is_empty();
            assert_eq!(has_curve, kind != EngineKind::Packed, "{kind}");
        }
    }

    #[test]
    fn trace_recording_can_be_disabled() {
        let inst = fig7e();
        let mut settings = EngineSettings::new(20, 1);
        settings.record_trace = false;
        for kind in [EngineKind::Software, EngineKind::Dqubo] {
            let engine = kind.build(&inst, &settings).unwrap();
            assert!(engine.solve(3).trace.energies().is_empty(), "{kind}");
        }
    }

    #[test]
    fn zero_sweeps_is_a_typed_error_for_every_backend() {
        let settings = EngineSettings::new(0, 1);
        for kind in EngineKind::ALL {
            match kind.build(&fig7e(), &settings) {
                Err(HycimError::Settings(why)) => assert!(why.contains("sweep"), "{kind}: {why}"),
                Err(e) => panic!("{kind}: unexpected error {e}"),
                Ok(_) => panic!("{kind}: built with zero sweeps"),
            }
        }
    }

    #[test]
    fn build_surfaces_encoding_errors() {
        // Item weight 100 > filter column limit 64.
        let inst = QkpInstance::new(vec![5, 5], vec![100, 3], 50).unwrap();
        assert!(EngineKind::HyCim
            .build(&inst, &EngineSettings::new(10, 1))
            .is_err());
    }
}
