use std::error::Error;
use std::fmt;

use hycim_cim::CimError;
use hycim_cop::CopError;
use hycim_qubo::QuboError;

/// Errors produced by the HyCiM framework: wraps the failures of the
/// transformation layer, the problem layer, and the CiM hardware
/// models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HycimError {
    /// Error from the QUBO/transformation layer.
    Qubo(QuboError),
    /// Error from the COP layer.
    Cop(CopError),
    /// Error from the CiM circuit models.
    Cim(CimError),
    /// An engine setting outside its domain (e.g. zero sweeps).
    Settings(&'static str),
}

impl fmt::Display for HycimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HycimError::Qubo(e) => write!(f, "qubo layer: {e}"),
            HycimError::Cop(e) => write!(f, "cop layer: {e}"),
            HycimError::Cim(e) => write!(f, "cim layer: {e}"),
            HycimError::Settings(why) => write!(f, "engine settings: {why}"),
        }
    }
}

impl Error for HycimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            HycimError::Qubo(e) => Some(e),
            HycimError::Cop(e) => Some(e),
            HycimError::Cim(e) => Some(e),
            HycimError::Settings(_) => None,
        }
    }
}

impl From<QuboError> for HycimError {
    fn from(e: QuboError) -> Self {
        HycimError::Qubo(e)
    }
}

impl From<CopError> for HycimError {
    fn from(e: CopError) -> Self {
        HycimError::Cop(e)
    }
}

impl From<CimError> for HycimError {
    fn from(e: CimError) -> Self {
        HycimError::Cim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_and_displays() {
        let e: HycimError = QuboError::EmptyProblem.into();
        assert!(e.to_string().contains("qubo layer"));
        assert!(Error::source(&e).is_some());
        let e: HycimError = CopError::ZeroCapacity.into();
        assert!(e.to_string().contains("cop layer"));
        let e: HycimError = CimError::EmptyProblem.into();
        assert!(e.to_string().contains("cim layer"));
        let e = HycimError::Settings("need at least one sweep");
        assert!(e.to_string().contains("at least one sweep"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn send_sync() {
        fn check<T: Send + Sync>() {}
        check::<HycimError>();
    }
}
