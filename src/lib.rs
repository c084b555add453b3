//! # HyCiM — hybrid computing-in-memory QUBO solver
//!
//! A full reproduction of *HyCiM: A Hybrid Computing-in-Memory QUBO
//! Solver for General Combinatorial Optimization Problems with
//! Inequality Constraints* (Qian et al., DAC 2024) as a Rust
//! workspace. This crate is the facade: it re-exports the public API
//! of every subsystem.
//!
//! ## Layout
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`qubo`] | `hycim-qubo` | QUBO/Ising algebra, inequality-QUBO form, D-QUBO penalty transformation, quantization |
//! | [`cop`] | `hycim-cop` | The `CopProblem` trait + 8 problem types (QKP, knapsack, max-cut, TSP, coloring, bin packing, multi-dimensional knapsack, spin glass), CNAM/MKP generators & parsers, reference solvers |
//! | [`fefet`] | `hycim-fefet` | Multi-level FeFET device models, variability, 1FeFET1R cells, the staircase read pulse |
//! | [`cim`] | `hycim-cim` | Inequality filter, CiM crossbar, ADC, matchline, area & energy models |
//! | [`anneal`] | `hycim-anneal` | Simulated-annealing engine, schedules, traces, 64-lane packed sweeps |
//! | [`core`] | `hycim-core` | Generic engines (`HyCimEngine` with its single-filter and filter-bank constructors, `DquboEngine`, `SoftwareEngine`), the parallel `BatchRunner` |
//! | [`service`] | `hycim-service` | Job-service front-end: bounded-queue worker pool running job closures for concurrent callers (submit → wait → fetch, or dispose) |
//! | [`net`] | `hycim-net` | Framed-JSON wire protocol over TCP: worker servers bridging jobs onto the service pool, the shard-planning coordinator with worker health tracking / seeded retry backoff / local-fallback degradation, a deterministic fault-injection proxy, bit-identical distributed solves |
//! | [`obs`] | `hycim-obs` | Observability: dependency-free metrics registry (counters, gauges, mergeable histograms), bounded event tracer, Prometheus-style exposition, deterministic snapshot form |
//!
//! The crate-level narrative — who calls whom, and why the layers cut
//! where they do — lives in
//! [`docs/ARCHITECTURE.md`](https://github.com/hycim/hycim/blob/main/docs/ARCHITECTURE.md).
//!
//! ## Quickstart
//!
//! ```
//! use hycim::core::{Engine, HyCimConfig, HyCimEngine};
//! use hycim::cop::generator::QkpGenerator;
//!
//! # fn main() -> Result<(), hycim::core::HycimError> {
//! // A 100-item quadratic knapsack instance in the benchmark style.
//! let instance = QkpGenerator::new(100, 0.25).generate(7);
//! let solver = HyCimEngine::new(
//!     &instance,
//!     &HyCimConfig::default().with_sweeps(100),
//!     1, // hardware seed ("chip instance")
//! )?;
//! let solution = solver.solve(42);
//! assert!(solution.feasible);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hycim_anneal as anneal;
pub use hycim_cim as cim;
pub use hycim_cop as cop;
pub use hycim_core as core;
pub use hycim_fefet as fefet;
pub use hycim_net as net;
pub use hycim_obs as obs;
pub use hycim_qubo as qubo;
pub use hycim_service as service;

/// Convenient single-import surface for the most used types.
///
/// ```
/// use hycim::prelude::*;
///
/// let x = Assignment::from_bits([true, false]);
/// assert_eq!(x.ones(), 1);
/// ```
pub mod prelude {
    pub use hycim_anneal::{AnnealTrace, Annealer, GeometricSchedule, Schedule};
    pub use hycim_cim::filter::{BankDecision, FilterBank, FilterConfig, InequalityFilter};
    pub use hycim_cim::Fidelity;
    pub use hycim_cop::generator::QkpGenerator;
    pub use hycim_cop::mkp::{MkpGenerator, MultiKnapsack};
    pub use hycim_cop::{CopProblem, QkpInstance};
    pub use hycim_core::{
        BatchRunner, DquboConfig, DquboEngine, Engine, HyCimConfig, HyCimEngine, HycimError,
        SoftwareEngine, Solution,
    };
    pub use hycim_net::{
        BackoffConfig, ChaosProxy, Coordinator, FaultPlan, JobSpec, WireSolution, WorkerClient,
        WorkerServer,
    };
    pub use hycim_obs::{Counter, EventTracer, Gauge, Histogram, ObsRegistry, Snapshot};
    pub use hycim_qubo::{
        Assignment, InequalityQubo, IsingModel, LinearConstraint, LocalFieldState,
        MultiInequalityQubo, QuboMatrix,
    };
    pub use hycim_service::{DisposeOutcome, JobId, JobService, JobStatus, ServiceConfig};
}
