//! Regenerates paper Table 1: the QUBO solver summary. Literature
//! rows are cited constants from the paper; the "This work" success
//! rate is **measured** by running the HyCiM pipeline on the benchmark
//! set (a reduced Fig. 10 protocol; tune with the same flags) through
//! the deterministic parallel `BatchRunner`.
//!
//! ```text
//! cargo run --release -p hycim-bench --bin table1_summary
//! ```

use hycim_bench::{default_threads, Args, SuccessTally};
use hycim_cop::generator::benchmark_set;
use hycim_cop::QkpInstance;
use hycim_core::table::{literature_rows, render_table, this_work_row};
use hycim_core::{BatchRunner, HyCimConfig, HyCimEngine};

fn main() {
    let args = Args::parse();
    let per_density = args.get_usize("per-density", 5);
    let initials = args.get_usize("initials", 3);
    let sweeps = args.get_usize("sweeps", 1000);
    let items = args.get_usize("items", 100);
    let threads = args.get_usize("threads", default_threads());
    let seed = args.get_u64("seed", 1);

    let instances = benchmark_set(items, per_density);
    eprintln!(
        "measuring 'This work' success rate on {} instances x {initials} initials \
         ({threads} threads)…",
        instances.len()
    );
    let config = HyCimConfig::default().with_sweeps(sweeps);
    let engines: Vec<HyCimEngine<QkpInstance>> = instances
        .iter()
        .enumerate()
        .map(|(idx, inst)| {
            HyCimEngine::new(inst, &config, seed + idx as u64).expect("mappable benchmark instance")
        })
        .collect();
    let runner = BatchRunner::new().with_threads(threads);
    let tally = SuccessTally::measure(&engines, initials, seed, &runner);

    let mut rows = literature_rows();
    rows.push(this_work_row(tally.success_rate()));
    println!("== Table 1: summary of QUBO solvers ==");
    println!("{}", render_table(&rows));
    println!(
        "(literature rows cited from the paper; 'This work' measured here — paper value 98.54%)"
    );
}
