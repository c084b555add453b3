//! Job-service front-end for the HyCiM solver stack: run solve
//! closures for **concurrent callers** through a submit → wait →
//! fetch API.
//!
//! The engine layer (`hycim-core`) is synchronous by design —
//! [`Engine::solve`](hycim_core::Engine::solve) is a pure function of
//! its seed, which is what makes batched runs deterministic. This
//! crate adds the serving piece: a [`JobService`] owning a pool of OS
//! worker threads and a **bounded** job queue, so many callers can
//! submit jobs without blocking on each other and without unbounded
//! queue buildup. No async runtime is required: a job is a closure
//! ([`submit_with`](JobService::submit_with)), its value is erased
//! behind `Box<dyn Any>` while it waits, and wakeups use a `Condvar`.
//! The service knows closures, not problems.
//!
//! Guarantees:
//!
//! * **Bit-identical results.** A worker runs the closure exactly
//!   once and hands back its value untouched: a job running
//!   `engine.solve(seed)` fetches the same bits as the direct call.
//! * **Heterogeneous queue.** Jobs of any value type share one queue;
//!   [`fetch_value`](JobService::fetch_value) restores the typed
//!   value (a wrong type leaves it in place).
//! * **Backpressure.** The queue is bounded; submits beyond capacity
//!   fail fast with [`SubmitError::QueueFull`] instead of queueing
//!   unboundedly.
//! * **Panic isolation.** A panicking closure marks the job
//!   [`Failed`](JobStatus::Failed) without killing the pool.
//! * **Fetch-or-dispose retention.** Every unfetched terminal value is
//!   retained so fetch-after-completion works; callers that abandon a
//!   job must [`dispose`](JobService::dispose) of it (a queued job is
//!   then dropped before it runs), or the result store grows with each
//!   abandoned job.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use hycim_core::{Engine, HyCimConfig, HyCimEngine, Solution};
//! use hycim_cop::maxcut::MaxCut;
//! use hycim_service::{JobService, ServiceConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = MaxCut::random(12, 0.5, 1);
//! let engine = Arc::new(HyCimEngine::new(
//!     &graph,
//!     &HyCimConfig::default().with_sweeps(50),
//!     1,
//! )?);
//!
//! let service = JobService::start(ServiceConfig::default().with_workers(2));
//! let solver = Arc::clone(&engine);
//! let job = service.submit_with(move || solver.solve(42))?;
//! service.wait(job);
//! let solution = service.fetch_value::<Solution<MaxCut>>(job)?;
//!
//! // Bit-identical to the direct synchronous call.
//! assert_eq!(solution.assignment, engine.solve(42).assignment);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod job;
mod service;

pub use error::{FetchError, SubmitError};
pub use job::{JobId, JobStatus};
pub use service::{DisposeOutcome, JobService, ServiceConfig};
