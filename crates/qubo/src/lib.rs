//! QUBO algebra substrate for the HyCiM reproduction.
//!
//! This crate provides the mathematical layer the paper builds on:
//!
//! * [`Assignment`] — a binary variable configuration `x ∈ {0,1}ⁿ`.
//! * [`QuboMatrix`] — an upper-triangular QUBO matrix `Q` with energy
//!   `E(x) = xᵀQx` (paper Eq. 2) and O(n) incremental flip deltas.
//! * [`LocalFieldState`] — maintained local fields
//!   `h_i = Q_ii + Σ Q_ij·x_j` over dense coupling rows: O(1) flip
//!   and pair probes and O(n) contiguous commits, the hot-path
//!   backend of every annealing state (see [`local_field`]).
//! * [`PackedReplicaState`] — 64 replicas bit-packed into `u64` spin
//!   bitplanes per variable with per-lane maintained fields, so one
//!   CSR sweep advances all [`LANES`] replicas word-parallel (see
//!   [`packed`]); lane `k` stays bit-identical to an independent
//!   scalar [`LocalFieldState`] replica.
//! * [`IsingModel`] — the equivalent spin model (paper Eq. 1) and the
//!   exact conversions between the two forms.
//! * [`LinearConstraint`] — an inequality constraint `Σ wᵢxᵢ ≤ C`
//!   (paper Eq. 4).
//! * [`InequalityQubo`] — the paper's novel *inequality-QUBO* form
//!   `min E = (Σ wᵢxᵢ ≤ C) · xᵀQx` (paper Eq. 6, Sec 3.2).
//! * [`MultiInequalityQubo`] — the multi-constraint generalization
//!   `min E = ∏ₖ(Σ w⁽ᵏ⁾ᵢxᵢ ≤ C⁽ᵏ⁾) · xᵀQx`, one gate per filter of a
//!   hardware filter bank (bin packing, multi-dimensional knapsacks).
//! * [`dqubo`] — the conventional *D-QUBO* transformation that embeds
//!   the constraint as a quadratic penalty over auxiliary variables
//!   (paper Fig. 1(b), Sec 2.1), used as the baseline.
//! * [`quant`] — quantization analysis: largest matrix element and the
//!   crossbar bit width it implies (paper Sec 4.2, Fig. 9(a)).
//!
//! # Example
//!
//! ```
//! use hycim_qubo::{Assignment, InequalityQubo, LinearConstraint, QuboMatrix};
//!
//! # fn main() -> Result<(), hycim_qubo::QuboError> {
//! // min xᵀQx subject to 4x₀ + 7x₁ + 2x₂ ≤ 9 (the example of paper Fig. 5(f))
//! let mut q = QuboMatrix::zeros(3);
//! q.set(0, 0, -10.0);
//! q.set(1, 1, -6.0);
//! q.set(2, 2, -8.0);
//! q.set(0, 2, -14.0); // joint profit of items 0 and 2
//! let c = LinearConstraint::new(vec![4, 7, 2], 9)?;
//! let iq = InequalityQubo::new(q, c)?;
//!
//! let x = Assignment::from_bits([true, false, true]);
//! assert!(iq.constraint().is_satisfied(&x));
//! assert_eq!(iq.energy(&x), -32.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod constraint;
pub mod dqubo;
mod error;
mod inequality;
mod ising;
pub mod local_field;
mod matrix;
mod multi;
pub mod packed;
pub mod quant;
pub mod wire;

pub use assignment::Assignment;
pub use constraint::LinearConstraint;
pub use error::QuboError;
pub use inequality::InequalityQubo;
pub use ising::IsingModel;
pub use local_field::LocalFieldState;
pub use matrix::QuboMatrix;
pub use multi::MultiInequalityQubo;
pub use packed::{PackedReplicaState, LANES};
