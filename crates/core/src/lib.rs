//! **HyCiM** — the hybrid computing-in-memory COP solving framework of
//! the paper (Fig. 3), assembled from the substrate crates.
//!
//! The pipeline for a COP with an inequality constraint (the paper's
//! running example is the quadratic knapsack problem):
//!
//! 1. Transform the COP into the **inequality-QUBO** form
//!    `min (Σwᵢxᵢ ≤ C)·xᵀQx` (Sec 3.2) — no auxiliary variables. Any
//!    [`CopProblem`](hycim_cop::CopProblem) provides this encoding;
//!    unconstrained and equality-penalty problems are the paper's
//!    "special cases" with a trivially satisfied constraint.
//! 2. Map the constraint onto the **FeFET inequality filter**
//!    (Sec 3.3) and `Q` onto the **FeFET CiM crossbar** (Sec 3.4).
//! 3. Run **simulated annealing**: each proposed configuration goes
//!    through the filter; only feasible ones reach the crossbar for a
//!    QUBO energy computation.
//!
//! The engine layer is generic over the problem:
//!
//! * [`HyCimEngine`] — the filter + crossbar pipeline above: one
//!   [`Chip`] programmed per engine, read by every solve through
//!   one [`ChipState`].
//!   [`HyCimEngine::new`] programs the single-constraint form;
//!   [`HyCimEngine::bank`] programs a filter *bank* (one filter per
//!   inequality) gating the crossbar, making bin packing bin-exact and
//!   multi-dimensional knapsacks native.
//! * [`DquboEngine`] — the baseline **D-QUBO** pipeline (Fig. 1(b)):
//!   penalty encoding on a much larger crossbar: the same [`Chip`]
//!   with no filters ([`Chip::dqubo`]).
//! * [`SoftwareEngine`] — a noise-free software reference.
//! * [`PackedEngine`] — the bit-parallel software engine: 64 replicas
//!   per solve in `u64` spin bitplanes, each lane bit-identical to a
//!   scalar run under the [`replica_seed`] contract.
//! * [`BatchRunner`] — deterministic multi-threaded multi-start
//!   evaluation over a replica × problem grid; with a metrics registry
//!   attached, [`BatchRunner::run_seeds`] (and [`BatchRunner::run`]
//!   over it) publishes per-solve counters after each fan-out.
//!
//! Every engine is generic over the problem: the paper evaluates on
//! the quadratic knapsack, and `HyCimEngine::new(&qkp, …)` infers
//! `HyCimEngine<QkpInstance>` from the instance. Success-rate scoring
//! (the paper's Fig. 10 rule) lives with the report layer in
//! `hycim-bench`.
//!
//! # Example
//!
//! ```
//! use hycim_core::{Engine, HyCimConfig, HyCimEngine};
//! use hycim_cop::QkpInstance;
//!
//! # fn main() -> Result<(), hycim_core::HycimError> {
//! // The paper's Fig. 7(e) example problem.
//! let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9)?;
//! inst.set_pair_profit(0, 1, 3);
//! inst.set_pair_profit(0, 2, 7);
//! inst.set_pair_profit(1, 2, 2);
//!
//! let solver = HyCimEngine::new(&inst, &HyCimConfig::default(), 1)?;
//! let solution = solver.solve(42);
//! assert!(solution.feasible);
//! assert_eq!(solution.value(), 25); // items 0 and 2: 10 + 8 + 7
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod calibrate;
mod config;
mod engine;
mod error;
mod hardware;
mod kind;
mod packed_engine;
pub mod shard;
mod solution;
pub mod table;

pub use batch::{default_threads, replica_seed, BatchRunner};
pub use calibrate::run_annealing;
pub use config::{AnnealSettings, DquboConfig, HyCimConfig};
pub use engine::{DquboEngine, Engine, HyCimEngine, SoftwareEngine};
pub use error::HycimError;
pub use hardware::{Chip, ChipState};
pub use kind::{EngineKind, EngineSettings};
pub use packed_engine::{PackedConfig, PackedEngine};
pub use shard::{merge_shards, Shard, ShardError, ShardPlan};
pub use solution::{objective_success, Solution};
