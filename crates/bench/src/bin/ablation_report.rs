//! Quality ablations for the model's design choices
//! — reports *success rates* (not timing; no harness times the
//! variants) under each variation, with every (instance × initial)
//! grid fanned out by the deterministic parallel `BatchRunner`:
//!
//! * crossbar quantization bits (4..10 for HyCiM),
//! * comparator noise (ideal / paper / pessimistic),
//! * swap-move fraction (0 / 0.25 / 0.5),
//! * D-QUBO auxiliary encoding (one-hot vs binary slack),
//! * SA schedule (geometric vs linear end-behavior via t_end).
//!
//! ```text
//! cargo run --release -p hycim-bench --bin ablation_report
//! ```

use hycim_bench::{default_threads, Args, SuccessTally};
use hycim_cim::crossbar::CrossbarConfig;
use hycim_cim::filter::{ComparatorConfig, FilterConfig};
use hycim_cop::generator::benchmark_set;
use hycim_cop::QkpInstance;
use hycim_core::{BatchRunner, DquboConfig, DquboEngine, HyCimConfig, HyCimEngine};
use hycim_qubo::dqubo::AuxEncoding;

fn hycim_rate(
    instances: &[QkpInstance],
    config: &HyCimConfig,
    initials: usize,
    seed: u64,
    runner: &BatchRunner,
) -> f64 {
    let engines: Vec<HyCimEngine<QkpInstance>> = instances
        .iter()
        .enumerate()
        .map(|(idx, inst)| HyCimEngine::new(inst, config, seed + idx as u64).expect("mappable"))
        .collect();
    SuccessTally::measure(&engines, initials, seed, runner).success_rate()
}

fn main() {
    let args = Args::parse();
    let per_density = args.get_usize("per-density", 3); // 12 instances
    let initials = args.get_usize("initials", 3);
    let sweeps = args.get_usize("sweeps", 500);
    let threads = args.get_usize("threads", default_threads());
    let seed = args.get_u64("seed", 1);

    let instances = benchmark_set(100, per_density);
    let runner = BatchRunner::new().with_threads(threads);
    println!(
        "ablation protocol: {} instances x {initials} initials, {sweeps} sweeps\n",
        instances.len()
    );

    // ---- crossbar quantization bits ----------------------------------
    println!("== crossbar quantization bits (paper uses 7) ==");
    for bits in [3u32, 4, 5, 7, 10] {
        let config = HyCimConfig::default()
            .with_sweeps(sweeps)
            .with_crossbar(CrossbarConfig::paper().with_bits(bits));
        println!(
            "  {bits:>2} bits: success {:.1}%",
            hycim_rate(&instances, &config, initials, seed, &runner)
        );
    }

    // ---- comparator noise ---------------------------------------------
    println!("\n== comparator noise ==");
    let variants = [
        ("ideal      ", ComparatorConfig::ideal()),
        ("paper      ", ComparatorConfig::paper()),
        (
            "pessimistic",
            ComparatorConfig {
                offset_sigma: 0.3e-3,
                noise_sigma: 0.15e-3,
            },
        ),
    ];
    for (name, cmp) in variants {
        let config = HyCimConfig::default()
            .with_sweeps(sweeps)
            .with_filter(FilterConfig::paper().with_comparator(cmp));
        println!(
            "  {name}: success {:.1}%",
            hycim_rate(&instances, &config, initials, seed, &runner)
        );
    }

    // ---- swap-move fraction --------------------------------------------
    println!("\n== exchange-move fraction (0 = pure single flips) ==");
    for swap in [0.0, 0.25, 0.5] {
        let mut config = HyCimConfig::default().with_sweeps(sweeps);
        config.anneal.swap_probability = swap;
        println!(
            "  swap {swap:>4}: success {:.1}%",
            hycim_rate(&instances, &config, initials, seed, &runner)
        );
    }

    // ---- D-QUBO encoding -------------------------------------------------
    println!("\n== D-QUBO auxiliary encoding (baseline side) ==");
    for (name, enc, dsweeps) in [
        ("one-hot (paper)", AuxEncoding::OneHot, 100),
        ("binary slack   ", AuxEncoding::Binary, 300),
    ] {
        let config = DquboConfig::default()
            .with_sweeps(dsweeps)
            .with_encoding(enc);
        let engines: Vec<DquboEngine<QkpInstance>> = instances
            .iter()
            .map(|inst| DquboEngine::new(inst, &config).expect("transformable"))
            .collect();
        let tally = SuccessTally::measure(&engines, initials, seed, &runner);
        println!(
            "  {name}: success {:.1}%, infeasible finals {:.1}%",
            tally.success_rate(),
            tally.infeasible_rate()
        );
    }

    // ---- schedule end temperature ---------------------------------------
    println!("\n== final temperature fraction (t_end / t0) ==");
    for t_end in [0.05, 0.01, 0.002, 0.0005] {
        let mut config = HyCimConfig::default().with_sweeps(sweeps);
        config.anneal.t_end_fraction = t_end;
        println!(
            "  t_end {t_end:>7}: success {:.1}%",
            hycim_rate(&instances, &config, initials, seed, &runner)
        );
    }
}
