//! End-to-end and per-layer benchmark of the HyCiM solver stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ineq-filter --seed 1 --seconds 30 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with
//! tracing off. With `--trace 1` it measures the same phase untraced,
//! then again with spans recorded at every layer boundary (each for
//! half of `--seconds`), checks that
//! both phases produced bit-identical results, and reports the
//! per-layer metrics and the tracing overhead. End-to-end timings are
//! stated at the reference host's speed (see `host`). The last line of
//! standard output is one JSON object; the lines before it are the
//! human-readable report. See `perfbench/README.md`.

mod engines;
mod host;
mod layers;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use layers::{per_layer, Ctx, Metric};
use trace::{median, nearest_rank, Recorder};
use workloads::{
    compare_phases, local_cells, plan, quality, quality_set, run_phase, setup, verify, Phase,
    Workload, RESOLVES,
};

const USAGE: &str = "usage: perfbench --workload <ineq-filter|fleet-gate> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

/// Percentiles above the median are reported only from this many
/// samples up.
const P90_MIN_SAMPLES: usize = 100;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, not {value}")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Puts every thread's allocations in glibc's main malloc arena. By
/// default each `BatchRunner` thread is handed an arena of its own or
/// one a finished thread left behind, and which of these happens moves
/// the peak resident set by about 20%; with one arena it repeats.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` in glibc's `malloc.h`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before this process starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

fn main() -> ExitCode {
    single_malloc_arena();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Median over rounds of each round's throughput.
fn solves_per_s(phase: &Phase) -> f64 {
    median(&phase.round_rates())
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<24} {:>14.4} {:<9} ({})",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn run(args: &Args) -> Result<(), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = plan(args.workload, args.seed, threads);
    let fleet = args.workload == Workload::FleetGate;
    // A traced run splits its time between the untraced and the traced
    // phase, so that both modes measure for `--seconds` in all.
    let phases = if args.trace { 2.0 } else { 1.0 };
    let seconds = args.seconds as f64 / phases;
    println!(
        "perfbench {}: seed {}, {seconds} s per phase, {} threads, {} jobs, trace {}",
        args.workload.name(),
        args.seed,
        threads,
        plan.jobs.len(),
        u8::from(args.trace)
    );

    let rec = Recorder::new(args.trace);
    let off = Recorder::off();
    let setup = setup(&plan, &rec, 0)?;

    let (phase, setups) = run_phase(&plan, &setup, seconds, &off)?;
    let setup_times: Vec<_> = std::iter::once(setup.time).chain(setups).collect();
    let setup_scaled: Vec<f64> = setup_times.iter().map(|t| t.total / t.slowness).collect();
    let setup_wall: Vec<f64> = setup_times.iter().map(|t| t.total).collect();
    let local = if fleet {
        local_cells(&plan, &setup, &off)
    } else {
        Vec::new()
    };
    let mut attempted = phase.attempted();
    let mut failed = count(&verify(&plan, &setup, &phase, &local, RESOLVES));
    let q = quality(&plan, &quality_set(&phase, &local));

    let latencies = phase.latencies();
    let op = if fleet { "cells" } else { "solves" };
    let p90 = if latencies.len() >= P90_MIN_SAMPLES {
        format!(
            "{:.4} ms (n={})",
            nearest_rank(&latencies, 90.0) * 1e3,
            latencies.len()
        )
    } else {
        format!("not reported: n={} < {P90_MIN_SAMPLES}", latencies.len())
    };
    let mut end_to_end = vec![
        Metric {
            name: "solves_per_s".into(),
            unit: "solves/s",
            value: solves_per_s(&phase),
            note: format!(
                "median of {} rounds at reference speed; {} solves in {:.3} s \
                 wall clock overall; host slowness {:.3}",
                phase.round_rates().len(),
                phase.solves(),
                phase.wall(),
                median(&phase.slowness())
            ),
        },
        Metric {
            name: "latency_ms_p50".into(),
            unit: "ms",
            value: nearest_rank(&latencies, 50.0) * 1e3,
            note: format!("n={} {op} at reference speed; p90 {p90}", latencies.len()),
        },
        Metric {
            name: "setup_s".into(),
            unit: "s",
            value: median(&setup_scaled),
            note: format!(
                "median of {} set-ups at reference speed, one before each round; \
                 wall clock {:.6} s",
                setup_scaled.len(),
                median(&setup_wall)
            ),
        },
        Metric {
            name: "success_rate".into(),
            unit: "fraction",
            value: q.successes as f64 / q.solves as f64,
            note: format!("n={} solves", q.solves),
        },
        Metric {
            name: "feasible_rate".into(),
            unit: "fraction",
            value: q.feasible as f64 / q.solves as f64,
            note: format!("n={} solves", q.solves),
        },
    ];

    let mut report = Vec::new();
    let json_metrics = if args.trace {
        let (traced, traced_setups) = run_phase(&plan, &setup, seconds, &rec)?;
        let traced_local = if fleet {
            local_cells(&plan, &setup, &rec)
        } else {
            Vec::new()
        };
        // A traced operation fails if it differs from the untraced run
        // or fails the same checks.
        let (differ, compared) = compare_phases(&phase, &traced);
        let unverified = verify(&plan, &setup, &traced, &traced_local, 0);
        let mismatched = count(&differ);
        attempted += traced.attempted();
        failed += differ
            .iter()
            .zip(&unverified)
            .filter(|(d, v)| **d || **v)
            .count();
        let traced_q = quality(&plan, &quality_set(&traced, &traced_local));
        let (layer_metrics, replays) = per_layer(&Ctx {
            plan: &plan,
            setup: &setup,
            setups: &traced_setups,
            phase: &traced,
            local: &traced_local,
            quality: &traced_q,
            rec: &rec,
            seed: args.seed,
        })?;
        attempted += replays.attempted;
        failed += replays.failed;
        let untraced = solves_per_s(&phase);
        let with_spans = solves_per_s(&traced);
        report.push(format!(
            "tracing overhead: {:.4} solves/s untraced vs {:.4} traced ({:+.2}%); \
             {compared} {op} compared bitwise, {mismatched} differ; \
             {} replayed operations, {} failed",
            untraced,
            with_spans,
            (untraced - with_spans) / untraced * 100.0,
            replays.attempted,
            replays.failed
        ));
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!(
                "trace-{}-seed{}.jsonl",
                args.workload.name(),
                args.seed
            ));
        rec.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        report.push(format!("{} spans written to {}", rec.len(), path.display()));
        layer_metrics
    } else {
        end_to_end.push(Metric {
            name: "peak_rss_mib".into(),
            unit: "MiB",
            value: peak_rss_mib()?,
            note: "VmHWM of this process".into(),
        });
        Vec::new()
    };

    print_metrics("end-to-end (tracing off):", &end_to_end);
    println!(
        "  {:<24} {:>14.4} {:<9} ({failed} failed / {attempted} attempted)",
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "fraction"
    );
    for line in &report {
        println!("{line}");
    }
    let reported = if args.trace {
        print_metrics("per-layer (traced run):", &json_metrics);
        &json_metrics
    } else {
        &end_to_end
    };

    let mut json = String::new();
    for m in reported {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite", m.name));
        }
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}",
        failed == 0 && attempted > 0
    );
    Ok(())
}

/// Number of set flags.
fn count(flags: &[bool]) -> usize {
    flags.iter().filter(|&&f| f).count()
}
