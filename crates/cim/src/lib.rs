//! Computing-in-memory circuit substrate for the HyCiM reproduction.
//!
//! Builds the two CiM blocks of the paper's framework (Fig. 3) on top
//! of the [`hycim_fefet`] device models:
//!
//! * [`filter`] — the **FeFET-based inequality filter** (Sec 3.3,
//!   Fig. 4–5): a working matchline array storing the decomposed item
//!   weights, a replica array encoding the capacity, and a 2-stage
//!   voltage comparator. Classifies input configurations as feasible
//!   (`Σwᵢxᵢ ≤ C`) or infeasible in one 4-phase evaluation.
//! * [`crossbar`] — the **FeFET-based CiM crossbar** (Sec 3.4,
//!   Fig. 6(a)): a bit-sliced array storing the QUBO matrix at M-bit
//!   quantization that computes `xᵀQx` via analog column currents,
//!   ADCs and shift-add accumulation.
//! * [`linearity`] — the current-vs-activated-cells measurement
//!   protocol of the fabricated 32×32 chip (Fig. 7(d)).
//! * [`area`] / [`energy`] — hardware overhead models behind the
//!   saving comparison of Fig. 9(c).
//!
//! Every analog block supports two fidelities ([`Fidelity`]):
//! `DeviceAccurate` simulates each cell's current with full device
//! variability (used by the validation figures), while `Fast` uses the
//! analytically equivalent aggregate with statistically matched noise
//! (used inside the SA hot loop — see `docs/ARCHITECTURE.md`, "The hot
//! path").
//!
//! # Example
//!
//! ```
//! use hycim_cim::filter::{FilterConfig, InequalityFilter};
//! use hycim_qubo::Assignment;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), hycim_cim::CimError> {
//! // The paper's Fig. 5(f) example: 4x₁ + 7x₂ + 2x₃ ≤ 9.
//! let mut rng = StdRng::seed_from_u64(1);
//! let filter = InequalityFilter::build(&[4, 7, 2], 9, &FilterConfig::default(), &mut rng)?;
//! let feasible = filter.classify(&Assignment::from_bits([true, false, true]), &mut rng);
//! assert!(feasible.is_feasible());
//! let infeasible = filter.classify(&Assignment::from_bits([true, true, true]), &mut rng);
//! assert!(!infeasible.is_feasible());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod crossbar;
pub mod energy;
mod error;
mod fidelity;
pub mod filter;
pub mod linearity;
mod matchline;

pub use error::CimError;
pub use fidelity::Fidelity;
pub use matchline::{Matchline, MatchlineConfig};
