//! The FeFET-based CiM crossbar computing QUBO energies (paper
//! Sec 3.4, Fig. 6(a)).
//!
//! The QUBO matrix is stored upper-triangular, each column as an
//! `n × M` bit-sliced subarray of 1FeFET1R cells. A QUBO computation
//! applies the input configuration to gates and drains simultaneously
//! (single-transistor multiplication, Fig. 2(c)), digitizes column
//! currents with per-column ADCs, and accumulates bit-plane codes in
//! shift-add logic.

mod adc;
mod array;
mod mapping;

pub use adc::{Adc, AdcConfig};
pub use array::{Crossbar, CrossbarConfig};
pub use mapping::CrossbarMapping;
