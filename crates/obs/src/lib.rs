//! Observability substrate for the HyCiM stack: an atomic metrics
//! registry plus a bounded ring-buffer event tracer, with zero
//! dependencies (std only) so every tier — the engine hot path, the
//! job service, the wire workers, the bench harness — can afford to
//! link it.
//!
//! Three metric kinds, all lock-free to update once the handle is
//! held:
//!
//! * [`Counter`] — a monotone `AtomicU64` (events, iterations,
//!   rejections).
//! * [`Gauge`] — a settable `AtomicU64` (queue depth, live jobs).
//! * [`Histogram`] — fixed power-of-two bucket boundaries, one
//!   `AtomicU64` per bucket, **no floating-point accumulator**: a
//!   snapshot is a pure integer vector, so merging snapshots from
//!   different threads or workers is exactly associative and
//!   commutative, and the canonical rendering is bit-stable across
//!   runs. Quantiles (p50/p90/p99) are reported as the bucket edge
//!   bracketing the true quantile.
//!
//! The [`ObsRegistry`] names metrics with dot-separated paths
//! (`service.submitted`, `coord.workers_retired`). One naming rule
//! carries the determinism contract: **metrics whose name starts with
//! `timing.` hold wall-clock observations** and are rendered in a
//! separate trailing section; [`Snapshot::render_stable`] excludes
//! them, so everything it prints is a pure function of the work done
//! — byte-identical across runs, thread counts, and machines.
//!
//! Instrumentation rule for the solver tiers: recording **consumes no
//! RNG draws and never branches inside an annealing loop**. There is
//! no process-global registry: each tier publishes into the registry
//! it was handed (`BatchRunner::with_obs` in `hycim-core` reads
//! whole-solve counts off each finished solve's trace after the
//! fan-out joins), which is what keeps every bit-identity guarantee
//! intact with metrics enabled (pinned by `hycim-core`'s determinism
//! law test).
//!
//! # Example
//!
//! ```
//! use hycim_obs::ObsRegistry;
//!
//! let obs = ObsRegistry::new();
//! obs.counter("demo.events").add(3);
//! obs.histogram("demo.sizes").record(17.0);
//! obs.histogram("timing.demo.seconds").record(0.25);
//!
//! let snapshot = obs.snapshot();
//! assert_eq!(snapshot.counter("demo.events"), Some(3));
//! // The stable form never mentions wall-clock metrics.
//! assert!(!snapshot.render_stable().contains("timing."));
//! assert!(snapshot.render().contains("timing.demo.seconds"));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod metrics;
mod registry;
mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS, HISTOGRAM_SLOTS,
};
pub use registry::{ObsRegistry, Snapshot};
pub use trace::{Event, EventTracer};
