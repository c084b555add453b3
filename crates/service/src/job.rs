//! Job handles and lifecycle states.

use std::fmt;

/// Opaque handle of a submitted job, unique within one
/// [`JobService`](crate::JobService) for its whole lifetime (ids are
/// never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// Reconstructs a handle from its raw id — the deserialization
    /// entry point for protocol layers that carried the id across a
    /// wire. Presenting a fabricated id is harmless: every service
    /// endpoint treats an untracked id as unknown.
    pub fn from_raw(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw id (what [`from_raw`](Self::from_raw) inverts), for
    /// serializing the handle.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Lifecycle state of a job, as reported by
/// [`JobService::wait_timeout`](crate::JobService::wait_timeout).
///
/// The only transitions are `Queued → Running → {Done, Failed}`; once
/// a worker has picked a job up it runs to completion (a closure has
/// no safe interruption point). A queued job that is
/// [disposed](crate::JobService::dispose) leaves the table without a
/// final state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the bounded queue for a free worker.
    Queued,
    /// A worker thread is executing the job.
    Running,
    /// Finished successfully; the value is ready to
    /// [`fetch_value`](crate::JobService::fetch_value).
    Done,
    /// The job panicked on its worker; fetching returns the panic
    /// message as [`FetchError::Failed`](crate::FetchError::Failed).
    Failed,
}

impl JobStatus {
    /// Whether the job has reached a final state (`Done` or `Failed`)
    /// — i.e. waiting will never observe another transition.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobStatus::Done | JobStatus::Failed)
    }

    /// Stable text tag (also the [`Display`](fmt::Display) form) for
    /// carrying the status across a wire.
    pub fn tag(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
        }
    }

    /// Parses a [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Self> {
        [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
        ]
        .into_iter()
        .find(|s| s.tag() == tag)
    }
}

impl fmt::Display for JobStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_terminality() {
        assert!(!JobStatus::Queued.is_terminal());
        assert!(!JobStatus::Running.is_terminal());
        assert!(JobStatus::Done.is_terminal());
        assert!(JobStatus::Failed.is_terminal());
    }

    #[test]
    fn display_forms() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(JobStatus::Queued.to_string(), "queued");
        assert_eq!(JobStatus::Failed.to_string(), "failed");
    }

    #[test]
    fn tags_and_raw_ids_round_trip() {
        for s in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
        ] {
            assert_eq!(JobStatus::from_tag(s.tag()), Some(s));
        }
        assert_eq!(JobStatus::from_tag("bogus"), None);
        assert_eq!(JobId::from_raw(9).raw(), 9);
        assert_eq!(JobId::from_raw(9), JobId(9));
    }
}
