//! Host speed, measured during the run by a kernel of this package's
//! own.
//!
//! The reference host is shared. Its speed moves between a slow and a
//! fast state about 1.5× apart, and a state lasts for minutes, so ten
//! runs of one workload often straddle a change of state; no statistic
//! over one run removes that. Before each timed stretch the benchmark
//! therefore times a fixed kernel on as many threads as the stretch
//! uses, and states the stretch's timings at the reference host's
//! speed. No code under test runs in the kernel: a change to the
//! solver moves the scaled timings, while a change of host state moves
//! the kernel and the timings together.

use std::f64::consts::TAU;
use std::hint::black_box;
use std::time::Instant;

use crate::trace::median;

/// Steps in one pass of the kernel.
const STEPS: u32 = 10_000;
/// Passes timed per thread in one sample. The median is kept, so that
/// a pass an interrupt lands in does not count.
const PASSES: u64 = 7;
/// Seconds per pass on the reference host. It sets only the scale:
/// at this speed, scaled timings equal wall time.
const REFERENCE_PASS_SECS: f64 = 0.6e-3;

/// One pass: a xoshiro256++ generator feeding Box–Muller draws, an
/// `exp`, a data-dependent branch and a small table of fields, which
/// is the instruction mix of a noisy filter probe and a Metropolis
/// test, all within L1.
fn pass(seed: u64) -> f64 {
    let mut s = [
        seed ^ 0x9E37_79B9_7F4A_7C15,
        0xBF58_476D_1CE4_E5B9,
        0x94D0_49BB_1331_11EB,
        0x2545_F491_4F6C_DD1D,
    ];
    let mut next = move || {
        let r = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        r
    };
    let unit = |r: u64| (r >> 11) as f64 / (1u64 << 53) as f64;
    let mut fields = [0.0f64; 128];
    let mut accepted = 0u32;
    for _ in 0..STEPS {
        let (a, b, c) = (next(), next(), next());
        let gauss = (-2.0 * unit(a).max(f64::MIN_POSITIVE).ln()).sqrt() * (TAU * unit(b)).cos();
        let i = (c >> 57) as usize;
        let delta = fields[i] + gauss;
        if delta < 0.0 || unit(c) < (-delta).exp() {
            fields[i] -= 0.5 * delta;
            accepted += 1;
        }
    }
    fields.iter().sum::<f64>() + f64::from(accepted)
}

/// Median seconds per kernel pass on the calling thread.
fn pass_secs(seed: u64) -> f64 {
    let secs: Vec<f64> = (0..PASSES)
        .map(|p| {
            let start = Instant::now();
            black_box(pass(black_box(seed * PASSES + p)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

/// How many times slower than the reference host this host runs now,
/// with `threads` threads busy at once: the kernel's seconds per pass,
/// averaged over the threads, over [`REFERENCE_PASS_SECS`]. A timing
/// divided by it is stated at the reference host's speed.
pub fn slowness(threads: usize) -> f64 {
    let secs: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|k| s.spawn(move || pass_secs(k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel thread panicked"))
            .collect()
    });
    secs.iter().sum::<f64>() / secs.len() as f64 / REFERENCE_PASS_SECS
}
