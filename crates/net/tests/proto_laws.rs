//! Protocol laws, property-tested: `decode(encode(m)) == m` for every
//! verb, every reply, every problem family, and every string — over
//! the full frame stack (JSON encode → line frame → bounded read →
//! JSON parse) — and line-numbered decode errors on trailing garbage.
//! Plus the `wait` verb's laws against a live worker: a malformed
//! `wait` is a typed error on a stream that stays synchronized, and a
//! delivered `wait` consumes the job.

use hycim_cop::binpack::BinPacking;
use hycim_cop::coloring::GraphColoring;
use hycim_cop::generator::QkpGenerator;
use hycim_cop::knapsack::Knapsack;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::mkp::MkpGenerator;
use hycim_cop::spinglass::SpinGlass;
use hycim_cop::tsp::Tsp;
use hycim_cop::{AnyProblem, CopError};
use hycim_net::json::Value;
use hycim_net::{
    ErrorCode, JobSpec, MessageReceiver, MessageSender, NetError, Request, Response, WireSolution,
    WorkerClient, WorkerConfig, WorkerServer,
};
use hycim_service::{DisposeOutcome, JobStatus};
use proptest::prelude::*;

/// One deterministic instance of every family, derived from `seed`.
fn every_family(seed: u64) -> Vec<AnyProblem> {
    let knapsack = Knapsack::new(vec![3, 5, 7], vec![2, 4, 6], 7).expect("valid knapsack");
    let binpack = BinPacking::new(vec![3, 4, 5, 6], 10, 2).expect("valid bin packing");
    vec![
        AnyProblem::from(QkpGenerator::new(6, 0.5).generate(seed)),
        AnyProblem::from(knapsack),
        AnyProblem::from(MaxCut::random(7, 0.5, seed)),
        AnyProblem::from(SpinGlass::random_binary(5, seed).expect("n >= 2")),
        AnyProblem::from(Tsp::random_euclidean(4, 10.0, seed).expect("n >= 3")),
        AnyProblem::from(GraphColoring::random(5, 0.4, 3, seed)),
        AnyProblem::from(binpack),
        AnyProblem::from(MkpGenerator::new(5, 2).generate(seed)),
    ]
}

/// Pushes a message through the real frame stack and back.
fn round_trip(value: &Value) -> Value {
    let mut wire = Vec::new();
    MessageSender::new(&mut wire).send(value).expect("send");
    MessageReceiver::new(wire.as_slice())
        .recv()
        .expect("recv")
        .expect("one frame")
}

fn arb_solution() -> impl Strategy<Value = WireSolution> {
    (
        proptest::collection::vec(any::<bool>(), 1..24),
        any::<u64>(),
        any::<u64>(),
        any::<bool>(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(
            |(bits, obj_bits, energy_bits, feasible, iters_to_best, iterations)| WireSolution {
                assignment: bits.iter().map(|&b| if b { '1' } else { '0' }).collect(),
                // From raw bits, so infinities and NaN payloads are
                // generated and must survive.
                objective: f64::from_bits(obj_bits),
                reported_energy: f64::from_bits(energy_bits),
                feasible,
                iters_to_best,
                iterations,
            },
        )
}

/// Maps one draw onto a character class the JSON writer treats
/// differently: printable ASCII, control characters, the escaped
/// punctuation, and two-, three- and four-byte UTF-8.
fn pick_char(code: u32) -> char {
    let n = code / 6;
    let scalar = match code % 6 {
        0 => 0x20 + n % 0x5f,
        1 => n % 0x20,
        2 => [u32::from('"'), u32::from('\\'), u32::from('/')][(n % 3) as usize],
        3 => 0x80 + n % (0x800 - 0x80),
        4 => 0x800 + n % (0x1_0000 - 0x800),
        _ => 0x1_0000 + n % (0x11_0000 - 0x1_0000),
    };
    // Surrogates are the only unrepresentable draws.
    char::from_u32(scalar).unwrap_or('\u{fffd}')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `parse ∘ encode = id` on arbitrary strings, with multi-byte
    /// UTF-8 next to escapes and control characters, bare and through
    /// the frame stack.
    #[test]
    fn strings_round_trip(codes in proptest::collection::vec(any::<u32>(), 0..64)) {
        let value = Value::Str(codes.into_iter().map(pick_char).collect());
        let text = value.encode();
        prop_assert_eq!(Value::parse(&text).expect("encoded strings parse"), value.clone());
        prop_assert_eq!(round_trip(&value), value);
    }

    /// Submit round-trips for every problem family, with the instance
    /// reconstructing to its exact canonical form.
    #[test]
    fn submit_round_trips_every_family(
        seed in any::<u64>(),
        sweeps in 1u64..10_000,
        hardware_seed in any::<u64>(),
        record_trace in any::<bool>(),
        seeds in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        for problem in every_family(seed) {
            let spec = JobSpec {
                family: problem.family_tag().to_string(),
                problem: problem.to_wire(),
                engine: "hycim".to_string(),
                sweeps,
                hardware_seed,
                record_trace,
                seeds: seeds.clone(),
            };
            let request = Request::Submit(spec.clone());
            let decoded = Request::from_value(&round_trip(&request.to_value()))
                .expect("valid frame decodes");
            prop_assert_eq!(&decoded, &request);
            // The carried instance reconstructs and re-encodes to the
            // same canonical text (the bit-exactness contract).
            let rebuilt = spec.decode_problem().expect("canonical text parses");
            prop_assert_eq!(rebuilt.to_wire(), spec.problem);
        }
    }

    /// The id-carrying verbs round-trip for any id.
    #[test]
    fn id_verbs_round_trip(job in any::<u64>(), timeout_ms in any::<u64>()) {
        for request in [
            Request::Wait { job, timeout_ms },
            Request::Cancel { job },
        ] {
            let decoded = Request::from_value(&round_trip(&request.to_value()))
                .expect("valid frame decodes");
            prop_assert_eq!(decoded, request);
        }
    }

    /// Every reply kind round-trips, including solutions with
    /// arbitrary IEEE-754 bit patterns (NaN payloads, infinities,
    /// negative zero).
    #[test]
    fn responses_round_trip(
        job in any::<u64>(),
        solutions in proptest::collection::vec(arb_solution(), 0..5),
        message_bytes in proptest::collection::vec(32u8..127, 0..40),
    ) {
        let message: String = message_bytes.iter().map(|&b| b as char).collect();
        let mut responses = vec![
            Response::Submitted { job },
            Response::Solutions { job, solutions },
        ];
        for status in [
            JobStatus::Queued,
            JobStatus::Running,
            JobStatus::Done,
            JobStatus::Failed,
        ] {
            responses.push(Response::Status { job, status });
        }
        for outcome in [
            DisposeOutcome::Unknown,
            DisposeOutcome::Cancelled,
            DisposeOutcome::Deferred,
            DisposeOutcome::Discarded,
        ] {
            responses.push(Response::Cancelled { job, outcome });
        }
        for code in hycim_net::ErrorCode::ALL {
            responses.push(Response::Error { code, message: message.clone() });
        }
        for response in responses {
            let decoded = Response::from_value(&round_trip(&response.to_value()))
                .expect("valid frame decodes");
            prop_assert_eq!(decoded, response);
        }
    }

    /// Trailing garbage after a canonical problem payload fails with
    /// the exact line number of the garbage, for every family.
    #[test]
    fn trailing_garbage_is_rejected_with_its_line(seed in any::<u64>()) {
        for problem in every_family(seed) {
            let clean = problem.to_wire();
            let garbage_line = clean.lines().count() + 1;
            let spec = JobSpec {
                family: problem.family_tag().to_string(),
                problem: format!("{clean}trailing garbage\n"),
                engine: "hycim".to_string(),
                sweeps: 10,
                hardware_seed: 0,
                record_trace: true,
                seeds: vec![1],
            };
            match spec.decode_problem() {
                Err(CopError::ParseFailure { line, .. }) => {
                    prop_assert_eq!(
                        line, garbage_line,
                        "{}: garbage line is named", problem.family_tag()
                    );
                }
                other => prop_assert!(
                    false,
                    "{}: expected ParseFailure, got {:?}",
                    problem.family_tag(),
                    other
                ),
            }
        }
    }

    /// A frame with trailing bytes after the JSON document is
    /// rejected at the frame layer (the offset names the garbage).
    #[test]
    fn trailing_frame_garbage_is_rejected(job in any::<u64>()) {
        let mut wire = Vec::new();
        MessageSender::new(&mut wire)
            .send(&Request::Cancel { job }.to_value())
            .expect("send");
        // Splice garbage between the document and the newline.
        let split = wire.len() - 1;
        wire.splice(split..split, b" {}".iter().copied());
        match MessageReceiver::new(wire.as_slice()).recv() {
            Err(hycim_net::FrameError::Json(e)) => {
                prop_assert!(e.message.contains("trailing input"), "{}", e);
            }
            other => prop_assert!(false, "expected a Json frame error, got {other:?}"),
        }
    }
}

fn wait_test_spec() -> JobSpec {
    let problem = AnyProblem::from(MaxCut::random(8, 0.5, 3));
    JobSpec {
        family: problem.family_tag().to_string(),
        problem: problem.to_wire(),
        engine: "software".to_string(),
        sweeps: 20,
        hardware_seed: 1,
        record_trace: false,
        seeds: vec![1, 2],
    }
}

fn expect_remote(result: Result<Option<Vec<WireSolution>>, NetError>, want: ErrorCode) {
    match result {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, want),
        other => panic!("expected a remote {want} error, got {other:?}"),
    }
}

#[test]
fn wait_without_a_deadline_is_a_bad_request_on_a_synchronized_stream() {
    let worker = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
        .expect("bind loopback")
        .spawn();
    let stream = std::net::TcpStream::connect(worker.addr()).expect("connect");
    let mut receiver = MessageReceiver::new(std::io::BufReader::new(
        stream.try_clone().expect("clone for reading"),
    ));
    let mut sender = MessageSender::new(&stream);
    let mut reply = |value: &Value| {
        sender.send(value).expect("send");
        let frame = receiver.recv().expect("frame").expect("a reply");
        Response::from_value(&frame).expect("worker speaks the protocol")
    };

    let no_deadline = Value::object(vec![
        ("verb", Value::Str("wait".into())),
        ("job", Value::UInt(0)),
    ]);
    match reply(&no_deadline) {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("timeout_ms"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    // Still synchronized: the next frame gets its own answer.
    let well_formed = Request::Wait {
        job: 0,
        timeout_ms: 0,
    };
    match reply(&well_formed.to_value()) {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown_job, got {other:?}"),
    }
    worker.stop();
}

#[test]
fn wait_on_unknown_or_consumed_jobs_is_unknown_job() {
    let worker = WorkerServer::bind("127.0.0.1:0", WorkerConfig::new())
        .expect("bind loopback")
        .spawn();
    let mut client = WorkerClient::connect(worker.addr()).expect("connect");
    expect_remote(
        client.wait(12_345, std::time::Duration::from_millis(5)),
        ErrorCode::UnknownJob,
    );

    let job = client.submit(&wait_test_spec()).expect("submit");
    let delivered = loop {
        if let Some(solutions) = client
            .wait(job, std::time::Duration::from_secs(1))
            .expect("wait")
        {
            break solutions;
        }
    };
    assert_eq!(delivered.len(), 2);
    // The delivered wait consumed the entry.
    expect_remote(
        client.wait(job, std::time::Duration::from_secs(1)),
        ErrorCode::UnknownJob,
    );
    assert_eq!(worker.live_jobs(), 0);
    worker.stop();
}
