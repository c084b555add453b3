//! Benchmark harness for the HyCiM reproduction: shared utilities for
//! the figure/table regeneration binaries and the criterion benches
//! (see `docs/ARCHITECTURE.md`, "Evaluation layer").
//!
//! The crate has four parts:
//!
//! * **Report binaries** (`src/bin/fig5_filter_waveforms.rs` …
//!   `table1_summary.rs`, `fig_bank.rs`, `ablation_report.rs`,
//!   `energy_report.rs`) — each regenerates one figure or table of the
//!   paper as text output. All accept `--key value` flags parsed by
//!   [`Args`]; defaults are shape-preserving reductions of the
//!   paper's cluster-scale protocol (e.g. `fig10_success` defaults to
//!   5 Monte-Carlo initial states instead of 1000).
//! * **Criterion benches** (`benches/solver_benches.rs`,
//!   `ablation_benches.rs`, `batch_benches.rs`, `hotpath_benches.rs`,
//!   `packed_benches.rs`) — throughput of the hot paths (filter
//!   evaluation, crossbar VMV, SA iterations, COP→QUBO
//!   transformations) and of the ablation variants.
//! * **The study subsystem** ([`recipe`], [`study`], [`stats`],
//!   [`hotpath`]) — declarative [`StudyRecipe`]s expanded by the
//!   [`StudyRunner`] into the replica × problem × engine grid (each
//!   replica column solved on this host or sharded over wire
//!   workers), ranked per engine, and emitted as the committed
//!   `BENCH_study.json` (`study_report` bin, and `shard_demo` for the
//!   sharded run), plus the `BENCH_hotpath.json` throughput rows
//!   (`hotpath_report` bin). The one artifact check is that
//!   `BENCH_study.json` reproduces byte for byte: the `study`
//!   integration test pins it in `cargo test`.
//! * **This library** — the tiny dependency-free CLI parser,
//!   reporting helpers, and `BENCH_*.json` readers ([`check`]) the
//!   binaries share, so each binary stays a self-contained experiment
//!   script.
//!
//! Run everything from the workspace root:
//!
//! ```text
//! cargo run --release -p hycim-bench --bin fig10_success -- --sweeps 1000
//! cargo run --release -p hycim-bench --bin study_report -- --preset default
//! cargo bench -p hycim-bench --bench solver_benches
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod hotpath;
pub mod recipe;
pub mod stats;
pub mod study;

pub use check::{
    read_hotpath, read_study, ReportMeta, HOTPATH_REPLICA_ROW_KEYS, HOTPATH_ROW_KEYS,
    HOTPATH_SCHEMA, STUDY_SCHEMA,
};
pub use recipe::{EngineKind, Family, FamilySpec, RecipeError, StudyRecipe};
pub use stats::{
    fold_reference, rank_cells, rank_engines, CellSummary, EngineRanking, ProblemSummary,
    SuccessTally,
};
pub use study::{render_metrics_summary, render_study_json, StudyResult, StudyRunner};

use std::collections::HashMap;
use std::env;

/// Minimal `--key value` / `--flag` argument parser for the bench
/// binaries (keeps the harness free of CLI dependencies).
///
/// # Example
///
/// ```
/// use hycim_bench::Args;
/// let args = Args::parse_from(["--instances", "8", "--full"].iter().map(|s| s.to_string()));
/// assert_eq!(args.get_usize("instances", 40), 8);
/// assert!(args.has_flag("full"));
/// assert_eq!(args.get_usize("initials", 20), 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the process's command-line arguments.
    pub fn parse() -> Self {
        Self::parse_from(env::args().skip(1))
    }

    /// Parses from an explicit iterator (testable).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                continue;
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(key.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Self { values, flags }
    }

    /// Integer option with default.
    pub fn get_usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// u64 option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects an integer"))
            })
            .unwrap_or(default)
    }

    /// Float option with default.
    pub fn get_f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} expects a number"))
            })
            .unwrap_or(default)
    }

    /// String option with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Comma-separated integer list option with default
    /// (`--sizes 64,256,512`).
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Vec<usize> {
        match self.values.get(key) {
            None => default.to_vec(),
            Some(v) => v
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("--{key} expects comma-separated integers"))
                })
                .collect(),
        }
    }

    /// Whether a bare flag was passed.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Minimum and maximum of a slice.
pub fn min_max(xs: &[f64]) -> (f64, f64) {
    xs.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

// The `--threads` default of every report binary is the stack-wide
// thread-count knob (`HYCIM_THREADS`, else available parallelism).
pub use hycim_core::default_threads;

/// Renders a sparkline-style ASCII bar for quick terminal plots.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let filled = ((value / max) * width as f64)
        .round()
        .clamp(0.0, width as f64) as usize;
    "#".repeat(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_values_and_flags() {
        let args = Args::parse_from(
            ["--a", "3", "--flag", "--b", "2.5"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.get_usize("a", 0), 3);
        assert!((args.get_f64("b", 0.0) - 2.5).abs() < 1e-12);
        assert!(args.has_flag("flag"));
        assert!(!args.has_flag("absent"));
        assert_eq!(args.get_u64("absent", 9), 9);
        assert_eq!(args.get_usize("absent", 20), 20);
    }

    #[test]
    fn stats() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((mean(&xs) - 2.5).abs() < 1e-12);
        assert_eq!(min_max(&xs), (1.0, 4.0));
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn string_and_list_args() {
        let args = Args::parse_from(
            ["--out", "x.json", "--sizes", "64,256"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(args.get_str("out", "d.json"), "x.json");
        assert_eq!(args.get_str("missing", "d.json"), "d.json");
        assert_eq!(args.get_usize_list("sizes", &[1]), vec![64, 256]);
        assert_eq!(args.get_usize_list("absent", &[1, 2]), vec![1, 2]);
    }

    #[test]
    fn bar_rendering() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10), "##########");
    }
}
