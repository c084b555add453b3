//! Wire protocol for distributed HyCiM solves: submit shards of a
//! replica grid to TCP workers, merge the results **bit-identically**
//! to a local run.
//!
//! The stack, bottom to top:
//!
//! * [`json`] — a hand-rolled JSON dialect (unsigned integers only;
//!   floats travel as IEEE-754 bit images in hex, problems in their
//!   canonical text form), so nothing on the wire can perturb a
//!   result. The same parser also reads the committed `BENCH_*.json`
//!   reports, whose decimal numbers it admits only there.
//! * [`frame`] — one message per line, prefix-tagged with the
//!   protocol version, byte-bounded per frame. Plain
//!   `std::net::TcpStream`, no async runtime.
//! * [`proto`] — the six verbs (`submit`, `poll`, `wait`, `fetch`,
//!   `cancel`, `stats`), the [`JobSpec`] shard description, and the
//!   [`WireSolution`] results. `wait` blocks on the worker until the
//!   job finishes or a deadline (at most [`MAX_WAIT`]) passes, so
//!   nobody polls on a timer.
//! * [`worker`] — a [`WorkerServer`] bridging the verbs onto a
//!   [`JobService`](hycim_service::JobService) pool, with
//!   per-connection job disposal (a dropped coordinator never strands
//!   jobs) and one [`ObsRegistry`](hycim_obs::ObsRegistry) per worker
//!   (frame and shard counters, scrapeable over the `stats` verb).
//! * [`client`] / [`coordinator`] — the [`WorkerClient`] connection
//!   (with read/write/connect deadlines that turn a hung or stalled
//!   peer into a typed [`NetError::Timeout`]) and the [`Coordinator`]
//!   that plans shards ([`ShardPlan`](hycim_core::ShardPlan)),
//!   dispatches them with pre-derived
//!   [`replica_seed`](hycim_core::replica_seed)s, retries failures
//!   with seeded backoff, tracks worker health (probation, probing,
//!   readmission), degrades to solving shards locally when the fleet
//!   is gone, records its dispatch/retire/readmit story in its own
//!   registry, and merges with
//!   [`merge_shards`](hycim_core::merge_shards).
//! * [`chaos`] — a deterministic fault-injection TCP proxy
//!   ([`ChaosProxy`]) driven by a seeded [`FaultPlan`]: refused
//!   connections, mid-frame drops, truncations, stalls, delays —
//!   scripted, reproducible network misbehavior for the resilience
//!   tests.
//!
//! Determinism contract: every spec carries its exact solve seeds and
//! the instance's hardware seed; workers derive nothing. A sharded
//! run over any number of workers — including retries after faults,
//! readmitted workers, and shards finished by the coordinator's local
//! fallback — merges to the byte-for-byte result of
//! [`BatchRunner`](hycim_core::BatchRunner) on one thread. Backoff
//! jitter comes from its own seeded stream, never the wall clock.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod client;
pub mod coordinator;
pub mod frame;
pub mod json;
pub(crate) mod local;
pub mod proto;
pub mod worker;

pub use chaos::{ChaosProxy, ConnFault, FaultPlan};
pub use client::{NetError, WorkerClient};
pub use coordinator::{shard_replica_column, BackoffConfig, Coordinator, ShardJob, SleepFn};
pub use frame::{FrameError, MessageReceiver, MessageSender, FRAME_PREFIX};
pub use proto::{ErrorCode, JobSpec, ProtoError, Request, Response, WireSolution};
pub use worker::{WorkerConfig, WorkerFault, WorkerHandle, WorkerServer, MAX_WAIT};
