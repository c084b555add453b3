//! The protocol messages: six request verbs (`submit`, `poll`,
//! `wait`, `fetch`, `cancel`, `stats`), their responses, and the
//! typed payloads — a [`JobSpec`] describing one shard of solves, the
//! [`WireSolution`]s coming back, and a metrics
//! [`Snapshot`] for the `stats` scrape.
//!
//! Seeding contract: a spec carries its solve seeds **explicitly**
//! (the coordinator derives them with
//! [`replica_seed`](hycim_core::replica_seed) before dispatch), plus
//! the instance's hardware seed. A worker therefore has zero seed
//! derivation of its own — retrying a shard on a different worker
//! reruns byte-for-byte the same computation, which is what makes the
//! merged result independent of scheduling, retries, and worker
//! count.
//!
//! Exactness contract: every `f64` travels as the 16-hex-digit image
//! of its IEEE-754 bits ([`hycim_qubo::wire`]); problems travel in
//! their canonical [`AnyProblem`] text form. Nothing on the wire is
//! ever formatted as decimal floating point.

use std::collections::BTreeMap;
use std::fmt;

use hycim_cop::{AnyProblem, CopError};
use hycim_core::{EngineKind, EngineSettings, Solution};
use hycim_obs::{HistogramSnapshot, Snapshot};
use hycim_qubo::wire::{decode_f64, encode_f64};
use hycim_qubo::Assignment;
use hycim_service::{DisposeOutcome, JobStatus};

use crate::json::Value;

/// A message that decodes structurally but violates the protocol
/// (missing field, wrong type, unknown verb or tag).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// What was wrong.
    pub message: String,
}

impl ProtoError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl std::error::Error for ProtoError {}

impl From<String> for ProtoError {
    fn from(message: String) -> Self {
        Self { message }
    }
}

fn f64_field(v: &Value, key: &str) -> Result<f64, ProtoError> {
    let text = v.str_field(key)?;
    decode_f64(text)
        .ok_or_else(|| ProtoError::new(format!("field \"{key}\" is not a hex-encoded f64")))
}

/// One shard of work: solve `problem` on `engine` once per entry of
/// `seeds`, in order.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Family tag of [`problem`](Self::problem) (see
    /// [`AnyProblem::family_tag`]).
    pub family: String,
    /// The instance in canonical [`AnyProblem`] wire text.
    pub problem: String,
    /// Engine backend tag (see [`EngineKind::tag`]).
    pub engine: String,
    /// Annealing sweep budget per solve.
    pub sweeps: u64,
    /// Hardware-noise seed for the engine construction.
    pub hardware_seed: u64,
    /// Whether the engine records an energy trace (required for
    /// `iters_to_best`; costs memory proportional to sweeps).
    pub record_trace: bool,
    /// The exact solve seed of each replica in this shard, in shard
    /// order — pre-derived by the coordinator, never recomputed by the
    /// worker.
    pub seeds: Vec<u64>,
}

impl JobSpec {
    /// Reconstructs the problem instance from the wire text.
    ///
    /// # Errors
    ///
    /// The [`CopError`] of the canonical-form parser.
    pub fn decode_problem(&self) -> Result<AnyProblem, CopError> {
        AnyProblem::from_wire(&self.family, &self.problem)
    }

    /// Resolves the engine tag.
    ///
    /// # Errors
    ///
    /// Names the unknown tag.
    pub fn engine_kind(&self) -> Result<EngineKind, ProtoError> {
        EngineKind::from_tag(&self.engine)
            .ok_or_else(|| ProtoError::new(format!("unknown engine tag \"{}\"", self.engine)))
    }

    /// The engine settings this spec pins.
    pub fn settings(&self) -> EngineSettings {
        let mut s = EngineSettings::new(self.sweeps as usize, self.hardware_seed);
        s.record_trace = self.record_trace;
        s
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("family", Value::Str(self.family.clone())),
            ("problem", Value::Str(self.problem.clone())),
            ("engine", Value::Str(self.engine.clone())),
            ("sweeps", Value::UInt(self.sweeps)),
            ("hardware_seed", Value::UInt(self.hardware_seed)),
            ("record_trace", Value::Bool(self.record_trace)),
            (
                "seeds",
                Value::Array(self.seeds.iter().map(|&s| Value::UInt(s)).collect()),
            ),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, ProtoError> {
        let seeds = v
            .array_field("seeds")?
            .iter()
            .map(|s| {
                s.as_u64()
                    .ok_or_else(|| ProtoError::new("seeds must be unsigned integers"))
            })
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(JobSpec {
            family: v.str_field("family")?.to_string(),
            problem: v.str_field("problem")?.to_string(),
            engine: v.str_field("engine")?.to_string(),
            sweeps: v.u64_field("sweeps")?,
            hardware_seed: v.u64_field("hardware_seed")?,
            record_trace: v.bool_field("record_trace")?,
            seeds,
        })
    }
}

/// One solve result in transportable form. Equality is **bitwise** on
/// the float fields (NaN equals NaN with the same payload, `-0.0`
/// differs from `0.0`), matching the protocol's exactness contract.
#[derive(Debug, Clone)]
pub struct WireSolution {
    /// The best configuration, as a `0`/`1` bit string in the
    /// problem's own variable space.
    pub assignment: String,
    /// Domain objective (lower is better).
    pub objective: f64,
    /// Energy as reported by the (noisy) hardware model.
    pub reported_energy: f64,
    /// Domain feasibility of the assignment.
    pub feasible: bool,
    /// Annealing iterations until the best energy was first touched.
    pub iters_to_best: u64,
    /// Total annealing iterations recorded by the trace.
    pub iterations: u64,
}

impl PartialEq for WireSolution {
    fn eq(&self, other: &Self) -> bool {
        self.assignment == other.assignment
            && self.objective.to_bits() == other.objective.to_bits()
            && self.reported_energy.to_bits() == other.reported_energy.to_bits()
            && self.feasible == other.feasible
            && self.iters_to_best == other.iters_to_best
            && self.iterations == other.iterations
    }
}

impl Eq for WireSolution {}

impl WireSolution {
    /// Extracts the transportable fields of an engine solution.
    pub fn from_solution<P: hycim_cop::CopProblem>(s: &Solution<P>) -> Self {
        WireSolution {
            assignment: s.assignment.to_bit_string(),
            objective: s.objective,
            reported_energy: s.reported_energy,
            feasible: s.feasible,
            iters_to_best: s.trace.iters_to_best() as u64,
            iterations: s.trace.iterations() as u64,
        }
    }

    /// The stack's success criterion applied to the transported
    /// fields — delegates to
    /// [`objective_success`](hycim_core::objective_success), so wire
    /// and local scoring share one formula.
    pub fn objective_success(&self, reference: f64) -> bool {
        hycim_core::objective_success(self.objective, self.feasible, reference)
    }

    /// Parses the assignment bit string back into an [`Assignment`].
    ///
    /// # Errors
    ///
    /// Names the malformed string.
    pub fn decode_assignment(&self) -> Result<Assignment, ProtoError> {
        Assignment::parse_bit_string(&self.assignment)
            .ok_or_else(|| ProtoError::new(format!("malformed bit string \"{}\"", self.assignment)))
    }

    fn to_value(&self) -> Value {
        Value::object(vec![
            ("assignment", Value::Str(self.assignment.clone())),
            ("objective", Value::Str(encode_f64(self.objective))),
            (
                "reported_energy",
                Value::Str(encode_f64(self.reported_energy)),
            ),
            ("feasible", Value::Bool(self.feasible)),
            ("iters_to_best", Value::UInt(self.iters_to_best)),
            ("iterations", Value::UInt(self.iterations)),
        ])
    }

    fn from_value(v: &Value) -> Result<Self, ProtoError> {
        let assignment = v.str_field("assignment")?;
        if !assignment.bytes().all(|b| b == b'0' || b == b'1') {
            return Err(ProtoError::new("assignment must be a 0/1 bit string"));
        }
        Ok(WireSolution {
            assignment: assignment.to_string(),
            objective: f64_field(v, "objective")?,
            reported_energy: f64_field(v, "reported_energy")?,
            feasible: v.bool_field("feasible")?,
            iters_to_best: v.u64_field("iters_to_best")?,
            iterations: v.u64_field("iterations")?,
        })
    }
}

/// Encodes a metrics snapshot: three objects keyed by metric name —
/// counters and gauges as integers, histograms as bucket-count
/// arrays. Names are already sorted (`BTreeMap` iteration), so the
/// wire form is canonical.
fn snapshot_to_value(s: &Snapshot) -> Value {
    let uints = |map: &BTreeMap<String, u64>| {
        Value::Object(
            map.iter()
                .map(|(name, &v)| (name.clone(), Value::UInt(v)))
                .collect(),
        )
    };
    let histograms = Value::Object(
        s.histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    Value::Array(h.buckets.iter().map(|&c| Value::UInt(c)).collect()),
                )
            })
            .collect(),
    );
    Value::object(vec![
        ("counters", uints(&s.counters)),
        ("gauges", uints(&s.gauges)),
        ("histograms", histograms),
    ])
}

fn snapshot_from_value(v: &Value) -> Result<Snapshot, ProtoError> {
    let entries = |v: &Value, key: &str| -> Result<Vec<(String, Value)>, ProtoError> {
        match v.field(key)? {
            Value::Object(fields) => Ok(fields.clone()),
            _ => Err(ProtoError::new(format!(
                "field \"{key}\" must be an object"
            ))),
        }
    };
    let mut snapshot = Snapshot::default();
    for (name, value) in entries(v, "counters")? {
        let count = value
            .as_u64()
            .ok_or_else(|| ProtoError::new(format!("counter \"{name}\" must be an integer")))?;
        snapshot.counters.insert(name, count);
    }
    for (name, value) in entries(v, "gauges")? {
        let level = value
            .as_u64()
            .ok_or_else(|| ProtoError::new(format!("gauge \"{name}\" must be an integer")))?;
        snapshot.gauges.insert(name, level);
    }
    for (name, value) in entries(v, "histograms")? {
        let buckets = value
            .as_array()
            .ok_or_else(|| ProtoError::new(format!("histogram \"{name}\" must be an array")))?
            .iter()
            .map(|b| {
                b.as_u64().ok_or_else(|| {
                    ProtoError::new(format!("histogram \"{name}\" buckets must be integers"))
                })
            })
            .collect::<Result<Vec<u64>, _>>()?;
        snapshot
            .histograms
            .insert(name, HistogramSnapshot { buckets });
    }
    Ok(snapshot)
}

/// A request frame: one of the six verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a shard of solves; answered by
    /// [`Response::Submitted`] or [`Response::Error`].
    Submit(JobSpec),
    /// Ask a job's lifecycle status.
    Poll {
        /// The job id from [`Response::Submitted`].
        job: u64,
    },
    /// Block until the job turns terminal, for at most `timeout_ms`
    /// (the worker clamps it to [`MAX_WAIT`](crate::worker::MAX_WAIT)).
    /// A terminal job is answered exactly as [`Fetch`](Self::Fetch)
    /// would answer it, consuming the entry; a job still live when the
    /// deadline passes is answered by [`Response::Status`].
    Wait {
        /// The job id from [`Response::Submitted`].
        job: u64,
        /// How long the worker may hold the reply, in milliseconds.
        timeout_ms: u64,
    },
    /// Take a terminal job's solutions (consumes the entry).
    Fetch {
        /// The job id from [`Response::Submitted`].
        job: u64,
    },
    /// Cancel or dispose of a job at any lifecycle stage.
    Cancel {
        /// The job id from [`Response::Submitted`].
        job: u64,
    },
    /// Scrape the worker's metrics registry; answered by
    /// [`Response::Stats`]. Carries no arguments — the snapshot
    /// covers the whole worker (wire counters plus its job service).
    Stats,
}

impl Request {
    /// Encodes to a frame payload.
    pub fn to_value(&self) -> Value {
        match self {
            Request::Submit(spec) => Value::object(vec![
                ("verb", Value::Str("submit".into())),
                ("spec", spec.to_value()),
            ]),
            Request::Poll { job } => Value::object(vec![
                ("verb", Value::Str("poll".into())),
                ("job", Value::UInt(*job)),
            ]),
            Request::Wait { job, timeout_ms } => Value::object(vec![
                ("verb", Value::Str("wait".into())),
                ("job", Value::UInt(*job)),
                ("timeout_ms", Value::UInt(*timeout_ms)),
            ]),
            Request::Fetch { job } => Value::object(vec![
                ("verb", Value::Str("fetch".into())),
                ("job", Value::UInt(*job)),
            ]),
            Request::Cancel { job } => Value::object(vec![
                ("verb", Value::Str("cancel".into())),
                ("job", Value::UInt(*job)),
            ]),
            Request::Stats => Value::object(vec![("verb", Value::Str("stats".into()))]),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the violation (unknown verbs included).
    pub fn from_value(v: &Value) -> Result<Self, ProtoError> {
        match v.str_field("verb")? {
            "submit" => Ok(Request::Submit(JobSpec::from_value(v.field("spec")?)?)),
            "poll" => Ok(Request::Poll {
                job: v.u64_field("job")?,
            }),
            "wait" => Ok(Request::Wait {
                job: v.u64_field("job")?,
                timeout_ms: v.u64_field("timeout_ms")?,
            }),
            "fetch" => Ok(Request::Fetch {
                job: v.u64_field("job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: v.u64_field("job")?,
            }),
            "stats" => Ok(Request::Stats),
            other => Err(ProtoError::new(format!("unknown verb \"{other}\""))),
        }
    }
}

/// Machine-readable category of a [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed (bad spec, unparsable problem,
    /// unknown engine tag, unknown verb).
    BadRequest,
    /// The job id is not tracked (never submitted, already fetched or
    /// disposed).
    UnknownJob,
    /// A fetch arrived before the job turned terminal.
    NotFinished,
    /// The fetched job had been cancelled; its entry is now disposed.
    JobCancelled,
    /// The job's solve panicked on the worker; the message carries the
    /// panic text. Its entry is now disposed.
    JobFailed,
    /// The worker's queue is full; resubmit later or elsewhere.
    Backpressure,
    /// Anything else (the worker is shutting down, an internal
    /// invariant failed).
    Internal,
}

impl ErrorCode {
    /// All codes, for table-driven tests.
    pub const ALL: [ErrorCode; 7] = [
        ErrorCode::BadRequest,
        ErrorCode::UnknownJob,
        ErrorCode::NotFinished,
        ErrorCode::JobCancelled,
        ErrorCode::JobFailed,
        ErrorCode::Backpressure,
        ErrorCode::Internal,
    ];

    /// Stable wire tag.
    pub fn tag(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownJob => "unknown_job",
            ErrorCode::NotFinished => "not_finished",
            ErrorCode::JobCancelled => "job_cancelled",
            ErrorCode::JobFailed => "job_failed",
            ErrorCode::Backpressure => "backpressure",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a [`tag`](Self::tag).
    pub fn from_tag(tag: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.tag() == tag)
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The shard was accepted and queued.
    Submitted {
        /// Worker-local job id; scope is the worker connection's
        /// service, not global.
        job: u64,
    },
    /// The job's current lifecycle status.
    Status {
        /// The polled job.
        job: u64,
        /// Its status.
        status: JobStatus,
    },
    /// The job's solutions, in shard (seed) order.
    Solutions {
        /// The fetched job.
        job: u64,
        /// One solution per seed of the submitted spec.
        solutions: Vec<WireSolution>,
    },
    /// The outcome of a cancel.
    Cancelled {
        /// The cancelled job.
        job: u64,
        /// What the disposal found.
        outcome: DisposeOutcome,
    },
    /// The worker's metrics at scrape time. Every payload is an
    /// unsigned integer (histograms travel as raw bucket-count
    /// arrays), so the encoding is exact — no hex-float escape hatch
    /// needed, and scraped snapshots merge without drift.
    Stats {
        /// The scraped registry snapshot.
        stats: Snapshot,
    },
    /// The request failed; the verb had no effect beyond what
    /// `code` documents.
    Error {
        /// Machine-readable category.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encodes to a frame payload.
    pub fn to_value(&self) -> Value {
        match self {
            Response::Submitted { job } => Value::object(vec![
                ("reply", Value::Str("submitted".into())),
                ("job", Value::UInt(*job)),
            ]),
            Response::Status { job, status } => Value::object(vec![
                ("reply", Value::Str("status".into())),
                ("job", Value::UInt(*job)),
                ("status", Value::Str(status.tag().into())),
            ]),
            Response::Solutions { job, solutions } => Value::object(vec![
                ("reply", Value::Str("solutions".into())),
                ("job", Value::UInt(*job)),
                (
                    "solutions",
                    Value::Array(solutions.iter().map(WireSolution::to_value).collect()),
                ),
            ]),
            Response::Cancelled { job, outcome } => Value::object(vec![
                ("reply", Value::Str("cancelled".into())),
                ("job", Value::UInt(*job)),
                ("outcome", Value::Str(outcome.tag().into())),
            ]),
            Response::Stats { stats } => Value::object(vec![
                ("reply", Value::Str("stats".into())),
                ("stats", snapshot_to_value(stats)),
            ]),
            Response::Error { code, message } => Value::object(vec![
                ("reply", Value::Str("error".into())),
                ("code", Value::Str(code.tag().into())),
                ("message", Value::Str(message.clone())),
            ]),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A [`ProtoError`] naming the violation.
    pub fn from_value(v: &Value) -> Result<Self, ProtoError> {
        match v.str_field("reply")? {
            "submitted" => Ok(Response::Submitted {
                job: v.u64_field("job")?,
            }),
            "status" => {
                let tag = v.str_field("status")?;
                Ok(Response::Status {
                    job: v.u64_field("job")?,
                    status: JobStatus::from_tag(tag)
                        .ok_or_else(|| ProtoError::new(format!("unknown status tag \"{tag}\"")))?,
                })
            }
            "solutions" => {
                let solutions = v
                    .array_field("solutions")?
                    .iter()
                    .map(WireSolution::from_value)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Response::Solutions {
                    job: v.u64_field("job")?,
                    solutions,
                })
            }
            "cancelled" => {
                let tag = v.str_field("outcome")?;
                Ok(Response::Cancelled {
                    job: v.u64_field("job")?,
                    outcome: DisposeOutcome::from_tag(tag)
                        .ok_or_else(|| ProtoError::new(format!("unknown outcome tag \"{tag}\"")))?,
                })
            }
            "stats" => Ok(Response::Stats {
                stats: snapshot_from_value(v.field("stats")?)?,
            }),
            "error" => {
                let tag = v.str_field("code")?;
                Ok(Response::Error {
                    code: ErrorCode::from_tag(tag)
                        .ok_or_else(|| ProtoError::new(format!("unknown error code \"{tag}\"")))?,
                    message: v.str_field("message")?.to_string(),
                })
            }
            other => Err(ProtoError::new(format!("unknown reply \"{other}\""))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> JobSpec {
        JobSpec {
            family: "maxcut".into(),
            problem: "3 2\n0 1 1\n1 2 2\n".into(),
            engine: "hycim".into(),
            sweeps: 50,
            hardware_seed: 9,
            record_trace: true,
            seeds: vec![1, 2, 3],
        }
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Submit(sample_spec()),
            Request::Poll { job: 0 },
            Request::Wait {
                job: 4,
                timeout_ms: 250,
            },
            Request::Wait {
                job: u64::MAX,
                timeout_ms: u64::MAX,
            },
            Request::Fetch { job: u64::MAX },
            Request::Cancel { job: 7 },
            Request::Stats,
        ] {
            let v = Value::parse(&req.to_value().encode()).unwrap();
            assert_eq!(Request::from_value(&v).unwrap(), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let solution = WireSolution {
            assignment: "0110".into(),
            objective: -12.5,
            reported_energy: f64::NEG_INFINITY,
            feasible: true,
            iters_to_best: 17,
            iterations: 200,
        };
        for resp in [
            Response::Submitted { job: 3 },
            Response::Status {
                job: 3,
                status: JobStatus::Running,
            },
            Response::Solutions {
                job: 3,
                solutions: vec![solution],
            },
            Response::Cancelled {
                job: 3,
                outcome: DisposeOutcome::Deferred,
            },
            Response::Stats {
                stats: sample_snapshot(),
            },
            Response::Error {
                code: ErrorCode::Backpressure,
                message: "queue full".into(),
            },
        ] {
            let v = Value::parse(&resp.to_value().encode()).unwrap();
            assert_eq!(Response::from_value(&v).unwrap(), resp, "{resp:?}");
        }
    }

    fn sample_snapshot() -> Snapshot {
        let obs = hycim_obs::ObsRegistry::new();
        obs.counter("net.frames_in").add(12);
        obs.counter("service.jobs_done").add(3);
        obs.gauge("service.queue_depth").set(2);
        obs.histogram("batch.cell_iterations").record(640.0);
        obs.histogram("timing.service.submit_to_fetch_seconds")
            .record(0.003);
        obs.snapshot()
    }

    #[test]
    fn stats_round_trip_is_exact_including_empty_snapshots() {
        // Empty registry: three empty maps, still a valid frame.
        let empty = Response::Stats {
            stats: Snapshot::default(),
        };
        let v = Value::parse(&empty.to_value().encode()).unwrap();
        assert_eq!(Response::from_value(&v).unwrap(), empty);

        // A populated snapshot survives with every bucket intact.
        let stats = sample_snapshot();
        let v = Value::parse(
            &Response::Stats {
                stats: stats.clone(),
            }
            .to_value()
            .encode(),
        )
        .unwrap();
        match Response::from_value(&v).unwrap() {
            Response::Stats { stats: decoded } => {
                assert_eq!(decoded, stats);
                assert_eq!(decoded.counter("net.frames_in"), Some(12));
                assert_eq!(
                    decoded
                        .histogram("batch.cell_iterations")
                        .map(|h| h.count()),
                    Some(1)
                );
            }
            other => panic!("expected stats, got {other:?}"),
        }
    }

    #[test]
    fn malformed_stats_payloads_are_named() {
        let missing = Value::object(vec![("reply", Value::Str("stats".into()))]);
        assert!(Response::from_value(&missing)
            .unwrap_err()
            .message
            .contains("missing field \"stats\""));

        let bad_counter = Value::object(vec![
            ("reply", Value::Str("stats".into())),
            (
                "stats",
                Value::object(vec![
                    (
                        "counters",
                        Value::object(vec![("x", Value::Str("nope".into()))]),
                    ),
                    ("gauges", Value::object(vec![])),
                    ("histograms", Value::object(vec![])),
                ]),
            ),
        ]);
        assert!(Response::from_value(&bad_counter)
            .unwrap_err()
            .message
            .contains("counter \"x\""));
    }

    #[test]
    fn spec_helpers_resolve() {
        let spec = sample_spec();
        let problem = spec.decode_problem().unwrap();
        assert_eq!(problem.family_tag(), "maxcut");
        assert_eq!(spec.engine_kind().unwrap().tag(), "hycim");
        let settings = spec.settings();
        assert_eq!(settings.sweeps, 50);
        assert_eq!(settings.hardware_seed, 9);
        assert!(settings.record_trace);
    }

    #[test]
    fn violations_are_named() {
        let unknown_verb = Value::object(vec![("verb", Value::Str("steal".into()))]);
        assert!(Request::from_value(&unknown_verb)
            .unwrap_err()
            .message
            .contains("unknown verb \"steal\""));

        let missing = Value::object(vec![("verb", Value::Str("poll".into()))]);
        assert!(Request::from_value(&missing)
            .unwrap_err()
            .message
            .contains("missing field \"job\""));

        let no_deadline = Value::object(vec![
            ("verb", Value::Str("wait".into())),
            ("job", Value::UInt(1)),
        ]);
        assert!(Request::from_value(&no_deadline)
            .unwrap_err()
            .message
            .contains("missing field \"timeout_ms\""));

        let bad_float = Value::object(vec![
            ("assignment", Value::Str("01".into())),
            ("objective", Value::Str("not-hex".into())),
        ]);
        assert!(WireSolution::from_value(&bad_float)
            .unwrap_err()
            .message
            .contains("hex-encoded"));

        let bad_bits = Value::object(vec![("assignment", Value::Str("012".into()))]);
        assert!(WireSolution::from_value(&bad_bits)
            .unwrap_err()
            .message
            .contains("bit string"));
    }

    #[test]
    fn error_codes_round_trip() {
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::from_tag(code.tag()), Some(code));
            assert_eq!(code.to_string(), code.tag());
        }
        assert_eq!(ErrorCode::from_tag("nope"), None);
    }

    #[test]
    fn wire_solution_equality_is_bitwise() {
        let mut a = WireSolution {
            assignment: "1".into(),
            objective: 0.0,
            reported_energy: f64::NAN,
            feasible: false,
            iters_to_best: 0,
            iterations: 0,
        };
        let b = a.clone();
        assert_eq!(a, b, "NaN equals its own bits");
        a.objective = -0.0;
        assert_ne!(a, b, "-0.0 differs from 0.0 bitwise");
    }
}
