//! A bounded ring-buffer tracer for typed lifecycle events.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Default ring capacity: enough to hold a full coordinator run on
/// the bench presets without ever mattering for memory.
const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// A typed span emitted by an instrumented tier. Events carry the
/// identifiers a debugger wants (job ids, shard ranges, worker
/// indices) but no wall-clock — ordering within the ring is the
/// record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A job entered the service queue.
    JobSubmitted {
        /// Service-assigned job id.
        job: u64,
    },
    /// A worker thread picked the job up.
    JobStarted {
        /// Service-assigned job id.
        job: u64,
    },
    /// The job completed successfully.
    JobDone {
        /// Service-assigned job id.
        job: u64,
    },
    /// The job's solve panicked or errored.
    JobFailed {
        /// Service-assigned job id.
        job: u64,
    },
    /// The job was disposed of while still queued; it never ran.
    JobCancelled {
        /// Service-assigned job id.
        job: u64,
    },
    /// The coordinator sent a shard to a worker.
    ShardDispatched {
        /// First replica index of the shard (inclusive).
        start: u64,
        /// One past the last replica index.
        end: u64,
        /// Coordinator-local worker index.
        worker: u64,
    },
    /// A shard attempt failed and will be retried.
    ShardRetried {
        /// First replica index of the shard (inclusive).
        start: u64,
        /// One past the last replica index.
        end: u64,
    },
    /// A pending shard was returned to the queue because its worker
    /// was retired.
    ShardRequeued {
        /// First replica index of the shard (inclusive).
        start: u64,
        /// One past the last replica index.
        end: u64,
    },
    /// A worker connection was dropped from the rotation (into
    /// probation — a later probe may readmit it).
    WorkerRetired {
        /// Coordinator-local worker index.
        worker: u64,
    },
    /// The coordinator sent a health probe (the `stats` verb) to a
    /// worker on probation.
    WorkerProbed {
        /// Coordinator-local worker index.
        worker: u64,
    },
    /// A probed worker answered and rejoined the dispatch rotation.
    WorkerReadmitted {
        /// Coordinator-local worker index.
        worker: u64,
    },
    /// A shard was solved on the coordinator host because the worker
    /// fleet was exhausted or empty (graceful degradation).
    ShardLocalSolve {
        /// First replica index of the shard (inclusive).
        start: u64,
        /// One past the last replica index.
        end: u64,
    },
    /// An annealing solve finished a phase.
    AnnealPhase {
        /// Engine or phase label (static on every call site, so
        /// tracing allocates nothing per solve beyond the event).
        label: &'static str,
        /// Iterations spent in the phase.
        iterations: u64,
    },
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::JobSubmitted { job } => write!(f, "job {job} submitted"),
            Event::JobStarted { job } => write!(f, "job {job} started"),
            Event::JobDone { job } => write!(f, "job {job} done"),
            Event::JobFailed { job } => write!(f, "job {job} failed"),
            Event::JobCancelled { job } => write!(f, "job {job} cancelled"),
            Event::ShardDispatched { start, end, worker } => {
                write!(f, "shard [{start}, {end}) -> worker {worker}")
            }
            Event::ShardRetried { start, end } => write!(f, "shard [{start}, {end}) retried"),
            Event::ShardRequeued { start, end } => write!(f, "shard [{start}, {end}) requeued"),
            Event::WorkerRetired { worker } => write!(f, "worker {worker} retired"),
            Event::WorkerProbed { worker } => write!(f, "worker {worker} probed"),
            Event::WorkerReadmitted { worker } => write!(f, "worker {worker} readmitted"),
            Event::ShardLocalSolve { start, end } => {
                write!(f, "shard [{start}, {end}) solved locally")
            }
            Event::AnnealPhase { label, iterations } => {
                write!(f, "anneal phase {label} ({iterations} iterations)")
            }
        }
    }
}

/// A bounded ring of [`Event`]s. When full, the oldest event is
/// dropped, so the tracer never grows and never blocks progress for
/// more than a short mutex hold.
#[derive(Debug)]
pub struct EventTracer {
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
}

impl Default for EventTracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl EventTracer {
    /// A tracer holding at most `capacity` events (minimum 1).
    fn with_capacity(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&self, event: Event) {
        let mut ring = self.ring.lock().expect("event ring poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// A copy of the buffered events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("event ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Removes and returns the buffered events, oldest first.
    pub fn drain(&self) -> Vec<Event> {
        self.ring
            .lock()
            .expect("event ring poisoned")
            .drain(..)
            .collect()
    }

    /// Events buffered right now.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("event ring poisoned").len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order() {
        let tracer = EventTracer::default();
        tracer.record(Event::JobSubmitted { job: 1 });
        tracer.record(Event::JobStarted { job: 1 });
        tracer.record(Event::JobDone { job: 1 });
        assert_eq!(
            tracer.events(),
            vec![
                Event::JobSubmitted { job: 1 },
                Event::JobStarted { job: 1 },
                Event::JobDone { job: 1 },
            ]
        );
    }

    #[test]
    fn full_ring_drops_oldest() {
        let tracer = EventTracer::with_capacity(2);
        tracer.record(Event::JobSubmitted { job: 1 });
        tracer.record(Event::JobSubmitted { job: 2 });
        tracer.record(Event::JobSubmitted { job: 3 });
        assert_eq!(
            tracer.events(),
            vec![
                Event::JobSubmitted { job: 2 },
                Event::JobSubmitted { job: 3 },
            ]
        );
    }

    #[test]
    fn drain_empties_the_ring() {
        let tracer = EventTracer::default();
        tracer.record(Event::WorkerRetired { worker: 0 });
        assert_eq!(tracer.drain().len(), 1);
        assert!(tracer.is_empty());
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            Event::ShardDispatched {
                start: 0,
                end: 16,
                worker: 2
            }
            .to_string(),
            "shard [0, 16) -> worker 2"
        );
    }
}
