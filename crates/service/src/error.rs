//! Error types of the submit and fetch halves of the service API.

use std::error::Error;
use std::fmt;

use crate::{JobId, JobStatus};

/// Why a submission was rejected. Both cases are immediate — the
/// service never blocks a submitting caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The bounded queue already holds `capacity` waiting jobs
    /// (backpressure: retry after draining, or raise
    /// [`ServiceConfig::with_queue_capacity`](crate::ServiceConfig::with_queue_capacity)).
    QueueFull {
        /// The configured queue bound that was hit.
        capacity: usize,
    },
    /// The service is shutting down and no longer accepts jobs.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "job queue is full ({capacity} jobs waiting)")
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl Error for SubmitError {}

/// Why a [`fetch_value`](crate::JobService::fetch_value) did not
/// return a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchError {
    /// No job with this id is tracked: it was never submitted here, or
    /// it was already fetched or disposed (fetching a terminal job
    /// consumes the entry).
    Unknown(JobId),
    /// The job has not reached a terminal state yet; the payload is
    /// the status observed (`Queued` or `Running`).
    /// [`wait`](crate::JobService::wait) for it first.
    NotFinished(JobStatus),
    /// The job panicked on its worker thread; the panic message is
    /// preserved.
    Failed {
        /// The failed job.
        id: JobId,
        /// Panic payload rendered as text.
        message: String,
    },
    /// The job completed, but its value is not of the requested type
    /// (the entry is kept, so fetching with the right type still
    /// works).
    WrongType(JobId),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Unknown(id) => write!(f, "{id} is unknown (or already fetched)"),
            FetchError::NotFinished(status) => {
                write!(f, "job is not finished (status: {status})")
            }
            FetchError::Failed { id, message } => write!(f, "{id} failed: {message}"),
            FetchError::WrongType(id) => {
                write!(f, "{id} holds a value of a different type")
            }
        }
    }
}

impl Error for FetchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(
            SubmitError::QueueFull { capacity: 4 }.to_string(),
            "job queue is full (4 jobs waiting)"
        );
        assert!(SubmitError::ShuttingDown
            .to_string()
            .contains("shutting down"));
        assert!(FetchError::Unknown(JobId(3)).to_string().contains("job-3"));
        assert!(FetchError::NotFinished(JobStatus::Running)
            .to_string()
            .contains("running"));
        assert!(FetchError::Failed {
            id: JobId(1),
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(FetchError::WrongType(JobId(2))
            .to_string()
            .contains("different type"));
    }
}
