//! Behavioral FeFET device substrate for the HyCiM reproduction.
//!
//! The paper's circuits (Sec 2.2, Fig. 2) rest on two device
//! properties, both modeled here:
//!
//! 1. **Multi-level storage** — different write pulses program
//!    different threshold voltages, giving the multi-level I_D–V_G
//!    curves of Fig. 2(b). Modeled by [`MultiLevelSpec`] +
//!    [`FefetDevice`] with a logistic transfer characteristic; a write
//!    sets the stored level directly.
//! 2. **Single-transistor multiplication** — with a binary bit `q`
//!    stored, drain current realizes `i = x · q · y` when `x` drives
//!    the gate and `y` the drain (Fig. 2(c)): a driven cell storing 1
//!    conducts at its clamp current ([`FefetCell::is_on`]), one
//!    storing 0 does not.
//!
//! Device-to-device and cycle-to-cycle variability (the spread across
//! the 60 measured devices in Fig. 2(b)) is modeled by
//! [`VariationModel`] and propagates into every read. The 1FeFET1R
//! current clamp the paper uses to regulate ON current (Fig. 4(a,b),
//! \[24, 25\]) is modeled by [`FefetCell`]; the filter's multi-phase
//! read is the [`StaircasePulse`].
//!
//! # Example
//!
//! A cell programmed to level 3 conducts under `Vread_j` exactly when
//! `j ≤ 3` (lower read indices use higher voltages — see
//! [`MultiLevelSpec::read_voltage`]):
//!
//! ```
//! use hycim_fefet::{FefetCell, MultiLevelSpec, VariationModel};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let spec = MultiLevelSpec::paper_filter();
//! let mut rng = StdRng::seed_from_u64(1);
//! let mut cell = FefetCell::sample(&spec, &VariationModel::default(), &mut rng);
//! cell.program(3);
//! assert!(cell.is_on(spec.read_voltage(3), &mut rng));
//! assert!(cell.is_on(spec.read_voltage(1), &mut rng));
//! assert!(!cell.is_on(spec.read_voltage(4), &mut rng));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod device;
mod pulse;
mod variability;

pub use cell::FefetCell;
pub use device::{FefetDevice, MultiLevelSpec};
pub use pulse::StaircasePulse;
pub use variability::{gaussian, skip_gaussian, GaussianDraw, VariationModel, GAUSSIAN_MAX};
