//! Job-service front-end for the HyCiM solver stack: serve
//! [`Engine`](hycim_core::Engine) solves to **concurrent callers**
//! through a submit → poll → fetch API.
//!
//! The engine layer (`hycim-core`) is synchronous by design —
//! [`Engine::solve`](hycim_core::Engine::solve) is a pure function of
//! its seed, which is what makes batched runs deterministic. This
//! crate adds the missing serving piece from the ROADMAP: a
//! [`JobService`] owning a pool of OS worker threads and a **bounded**
//! job queue, so many callers can submit solve jobs without blocking
//! on each other and without unbounded queue buildup. No async
//! runtime is required: engines are `Send + Sync`, jobs are erased
//! into closures, and channel-style wakeups use a `Condvar`.
//!
//! Guarantees:
//!
//! * **Bit-identical results.** A job submitted with
//!   [`submit`](JobService::submit) runs `engine.solve(seed)` on a
//!   worker; the returned [`JobResult`] equals a direct call with the
//!   same seed. Batch jobs ([`submit_batch`](JobService::submit_batch))
//!   reuse [`replica_seed`](hycim_core::replica_seed), so they match
//!   [`BatchRunner`](hycim_core::BatchRunner) output for the same
//!   `(root_seed, replicas)` at any thread count.
//! * **Heterogeneous queue.** Jobs over different
//!   [`CopProblem`](hycim_cop::CopProblem) types share one queue
//!   (type-erased internally); [`fetch`](JobService::fetch) restores
//!   the typed [`JobResult<P>`].
//! * **Backpressure.** The queue is bounded; submits beyond capacity
//!   fail fast with [`SubmitError::QueueFull`] instead of queueing
//!   unboundedly.
//! * **Cancellation.** Queued jobs can be [cancelled](JobService::cancel)
//!   before a worker picks them up; a worker panic marks the job
//!   [`Failed`](JobStatus::Failed) without killing the pool.
//! * **Fetch-or-dispose retention.** Every unfetched terminal result
//!   is retained so fetch-after-completion works; callers that
//!   abandon a job must [`dispose`](JobService::dispose) of it (also
//!   the disposal path for jobs past the cancellation window), or the
//!   result store grows with each abandoned job.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use hycim_core::{Engine, HyCimConfig, HyCimEngine};
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
//! let job = service.submit(&engine, 42)?;
//! let result = service.wait_fetch::<MaxCut>(job)?;
//!
//! // Bit-identical to the direct synchronous call.
//! assert_eq!(result.solution().assignment, engine.solve(42).assignment);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod error;
mod job;
mod service;

pub use error::{FetchError, SubmitError};
pub use job::{JobId, JobResult, JobStatus};
pub use service::{DisposeOutcome, JobService, ServiceConfig};
