//! The benchmark's view of the solver stack: jobs (an instance on a
//! backend), engines built through `EngineKind::build` and run through
//! `BatchRunner` behind a timing wrapper, and the hardware a backend
//! fabricates for each solve, rebuilt from outside the engine so its
//! cost can be timed on its own.

use std::sync::{Arc, Mutex};

use hycim_cim::crossbar::Crossbar;
use hycim_cim::filter::{FilterBank, InequalityFilter};
use hycim_cop::{AnyProblem, CopProblem};
use hycim_core::{
    replica_seed, BatchRunner, DquboConfig, Engine, EngineKind, EngineSettings, HyCimConfig,
    Solution,
};
use hycim_net::{JobSpec, WireSolution};
use hycim_qubo::dqubo::DquboForm;
use hycim_qubo::quant::{matrix_bits, QuantizedMatrix};
use hycim_qubo::{InequalityQubo, MultiInequalityQubo, QuboMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::trace::Recorder;

/// One instance on one backend, with its seeds.
#[derive(Debug, Clone)]
pub struct Job {
    /// Instance key, e.g. `qkp-d50-n100` (shared by every backend
    /// that solves the instance).
    pub instance: String,
    /// The instance.
    pub problem: AnyProblem,
    /// Backend.
    pub kind: EngineKind,
    /// Sweeps, hardware seed and trace recording.
    pub settings: EngineSettings,
    /// Seed of the instance's reference solver.
    pub instance_seed: u64,
    /// Root of this job's solve seeds.
    pub root: u64,
}

impl Job {
    /// The solve seeds of round `round`: `replica_seed(root, round, k)`,
    /// exactly the seeds `shard_replica_column` derives for problem
    /// index `round`.
    pub fn seeds(&self, round: usize, count: usize) -> Vec<u64> {
        (0..count)
            .map(|k| replica_seed(self.root, round as u64, k as u64))
            .collect()
    }

    /// The wire spec a worker would need to solve `seeds` of this job.
    pub fn spec(&self, seeds: Vec<u64>) -> JobSpec {
        JobSpec {
            family: self.problem.family_tag().to_string(),
            problem: self.problem.to_wire(),
            engine: self.kind.tag().to_string(),
            sweeps: self.settings.sweeps as u64,
            hardware_seed: self.settings.hardware_seed,
            record_trace: self.settings.record_trace,
            seeds,
        }
    }

    /// `instance/backend`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.instance, self.kind)
    }
}

/// One solve as the benchmark sees it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The result in wire form (its equality is bitwise).
    pub wire: WireSolution,
    /// Accepted moves, from the anneal trace.
    pub accepted: u64,
    /// Proposals vetoed by the feasibility check, from the trace.
    pub vetoed: u64,
    /// Wall time of the `Engine::solve` call.
    pub secs: f64,
}

impl Outcome {
    /// Bitwise equality of the result and its trace counts.
    pub fn same_result(&self, other: &Outcome) -> bool {
        self.wire == other.wire && self.accepted == other.accepted && self.vetoed == other.vetoed
    }
}

/// A built engine, type-erased over the problem family.
pub trait Runnable: Send + Sync {
    /// Solves every seed through `runner` (results in seed order),
    /// timing each `Engine::solve` call under a `core.solve` span.
    fn run(&self, runner: &BatchRunner, seeds: &[u64], rec: &Recorder, parent: u64)
        -> Vec<Outcome>;
}

/// Dispatches over the problem families with a generic body.
macro_rules! on_problem {
    ($problem:expr, $p:ident => $body:expr) => {
        match $problem {
            AnyProblem::Qkp($p) => $body,
            AnyProblem::Knapsack($p) => $body,
            AnyProblem::MaxCut($p) => $body,
            AnyProblem::SpinGlass($p) => $body,
            AnyProblem::Tsp($p) => $body,
            AnyProblem::Coloring($p) => $body,
            AnyProblem::BinPack($p) => $body,
            AnyProblem::Mkp($p) => $body,
        }
    };
}

/// Builds a job's engine with `EngineKind::build`.
pub fn build(job: &Job) -> Result<Arc<dyn Runnable>, String> {
    on_problem!(&job.problem, p => build_typed(p, job))
}

fn build_typed<P: CopProblem + 'static>(
    problem: &P,
    job: &Job,
) -> Result<Arc<dyn Runnable>, String> {
    let engine = job
        .kind
        .build(problem, &job.settings)
        .map_err(|e| format!("{} does not build: {e}", job.label()))?;
    Ok(Arc::new(Built { engine }))
}

struct Built<P: CopProblem> {
    engine: Box<dyn Engine<P>>,
}

impl<P: CopProblem + 'static> Runnable for Built<P> {
    fn run(
        &self,
        runner: &BatchRunner,
        seeds: &[u64],
        rec: &Recorder,
        parent: u64,
    ) -> Vec<Outcome> {
        let timed = Timed {
            inner: &*self.engine,
            rec,
            parent,
            secs: Mutex::new(Vec::with_capacity(seeds.len())),
        };
        let solutions = runner.run_seeds(&timed, seeds);
        let secs = timed.secs.into_inner().expect("timing lock");
        solutions
            .iter()
            .zip(seeds)
            .map(|(s, seed)| Outcome {
                wire: WireSolution::from_solution(s),
                accepted: s.trace.accepted() as u64,
                vetoed: s.trace.rejected_infeasible() as u64,
                secs: secs
                    .iter()
                    .find(|(k, _)| k == seed)
                    .map(|&(_, t)| t)
                    .expect("every seed was timed"),
            })
            .collect()
    }
}

/// The `Engine` wrapper that times each solve.
struct Timed<'a, P: CopProblem> {
    inner: &'a dyn Engine<P>,
    rec: &'a Recorder,
    parent: u64,
    secs: Mutex<Vec<(u64, f64)>>,
}

impl<P: CopProblem> Engine<P> for Timed<'_, P> {
    fn problem(&self) -> &P {
        self.inner.problem()
    }

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn solve(&self, seed: u64) -> Solution<P> {
        let (solution, secs) = self.rec.span(
            "core.solve",
            self.inner.backend(),
            self.parent,
            seed,
            |_| self.inner.solve(seed),
        );
        self.secs.lock().expect("timing lock").push((seed, secs));
        solution
    }
}

/// The encoded form a backend programs into hardware on every solve.
pub enum Blueprint {
    /// One inequality filter plus the crossbar (`hycim`).
    Filter(InequalityQubo),
    /// A filter bank plus the crossbar (`bank`).
    Bank(MultiInequalityQubo),
    /// The penalty matrix quantized onto a crossbar (`dqubo`).
    Dqubo(DquboForm, u32),
    /// No hardware: the software backends' exact objective.
    Plain(QuboMatrix),
}

/// What [`Blueprint::fabricate`] produces.
pub struct Chip {
    /// The matrix the crossbar stores (the exact objective for
    /// software backends).
    pub matrix: QuboMatrix,
    /// The single inequality filter, for `hycim`.
    pub filter: Option<InequalityFilter>,
    /// The filter bank, for `bank`.
    pub bank: Option<FilterBank>,
}

/// Encodes a problem the way `kind` does before fabricating.
pub fn blueprint(problem: &AnyProblem, kind: EngineKind) -> Result<Blueprint, String> {
    on_problem!(problem, p => blueprint_typed(p, kind))
}

fn blueprint_typed<P: CopProblem>(p: &P, kind: EngineKind) -> Result<Blueprint, String> {
    let err = |e: hycim_cop::CopError| e.to_string();
    Ok(match kind {
        EngineKind::HyCim => Blueprint::Filter(p.to_inequality_qubo().map_err(err)?),
        EngineKind::Bank => Blueprint::Bank(p.to_multi_inequality_qubo().map_err(err)?),
        EngineKind::Dqubo => {
            let config = DquboConfig::default();
            let form = p.to_dqubo(config.penalty, config.encoding).map_err(err)?;
            let bits = config.bits.unwrap_or_else(|| matrix_bits(form.matrix()));
            Blueprint::Dqubo(form, bits)
        }
        EngineKind::Software | EngineKind::Packed => {
            Blueprint::Plain(p.to_inequality_qubo().map_err(err)?.objective().clone())
        }
    })
}

impl Blueprint {
    /// Whether solves on this backend fabricate hardware.
    pub fn has_hardware(&self) -> bool {
        !matches!(self, Blueprint::Plain(_))
    }

    /// Fabricates what one solve programs: `InequalityFilter::build`
    /// or `FilterBank::build` plus `Crossbar::program` from the
    /// engine's hardware seed, or the D-QUBO matrix quantization.
    pub fn fabricate(&self, hardware_seed: u64) -> Result<Chip, String> {
        let config = HyCimConfig::default();
        let mut rng = StdRng::seed_from_u64(hardware_seed);
        let err = |e: hycim_cim::CimError| e.to_string();
        Ok(match self {
            Blueprint::Filter(iq) => {
                let c = iq.constraint();
                let filter =
                    InequalityFilter::build(c.weights(), c.capacity(), &config.filter, &mut rng)
                        .map_err(err)?;
                let xbar =
                    Crossbar::program(iq.objective(), &config.crossbar, &mut rng).map_err(err)?;
                Chip {
                    matrix: xbar.stored_matrix().clone(),
                    filter: Some(filter),
                    bank: None,
                }
            }
            Blueprint::Bank(mq) => {
                let bank =
                    FilterBank::build(mq.constraints(), &config.filter, &mut rng).map_err(err)?;
                let xbar =
                    Crossbar::program(mq.objective(), &config.crossbar, &mut rng).map_err(err)?;
                Chip {
                    matrix: xbar.stored_matrix().clone(),
                    filter: None,
                    bank: Some(bank),
                }
            }
            Blueprint::Dqubo(form, bits) => Chip {
                matrix: QuantizedMatrix::quantize(form.matrix(), *bits).dequantize(),
                filter: None,
                bank: None,
            },
            Blueprint::Plain(m) => Chip {
                matrix: m.clone(),
                filter: None,
                bank: None,
            },
        })
    }
}
