use std::fmt;

/// Simulation fidelity of the analog CiM blocks.
///
/// Both fidelities share the same nominal transfer function; they
/// differ only in how non-idealities are sampled.
///
/// # Example
///
/// ```
/// use hycim_cim::Fidelity;
/// assert_eq!(Fidelity::default(), Fidelity::Fast);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Fidelity {
    /// Every cell's current is simulated individually with full device
    /// variability (threshold offsets, cycle-to-cycle shifts, current
    /// noise). Used for the validation figures (Fig. 5(f), 7(d), 8).
    DeviceAccurate,
    /// The analytically equivalent aggregate response with
    /// statistically matched Gaussian noise (σ scaled by √cells).
    /// Used inside the SA hot loop, where the paper's protocol implies
    /// billions of evaluations.
    #[default]
    Fast,
}

impl fmt::Display for Fidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fidelity::DeviceAccurate => f.write_str("device-accurate"),
            Fidelity::Fast => f.write_str("fast"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_default() {
        assert_eq!(Fidelity::Fast.to_string(), "fast");
        assert_eq!(Fidelity::DeviceAccurate.to_string(), "device-accurate");
        assert_eq!(Fidelity::default(), Fidelity::Fast);
    }
}
