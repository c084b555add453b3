//! Regenerates paper Fig. 10: normalized QKP values and success rates
//! of HyCiM vs the D-QUBO baseline over the benchmark set, with the
//! instance × initial-state grid fanned out by the deterministic
//! parallel `BatchRunner` (results are bit-identical for any
//! `--threads` value).
//!
//! Paper protocol: 40 instances × 1000 Monte-Carlo initial states ×
//! 100 SA runs × 1000 iterations. That is a cluster-scale run; the
//! defaults here are a shape-preserving reduction (40 instances ×
//! 5 initials × 1 run, D-QUBO at 300 sweeps) — scale up with:
//!
//! ```text
//! cargo run --release -p hycim-bench --bin fig10_success -- \
//!     --per-density 10 --initials 20 --sweeps 1000 --dqubo-sweeps 1000
//! ```
//!
//! Paper result: HyCiM 98.54% average success rate, D-QUBO 10.75%.

use std::time::Instant;

use hycim_bench::{default_threads, mean, Args, SuccessTally};
use hycim_cop::generator::benchmark_set;
use hycim_cop::QkpInstance;
use hycim_core::{BatchRunner, DquboConfig, DquboEngine, HyCimConfig, HyCimEngine};

fn main() {
    let args = Args::parse();
    let per_density = args.get_usize("per-density", 10);
    let initials = args.get_usize("initials", 5);
    let sweeps = args.get_usize("sweeps", 1000);
    let dqubo_sweeps = args.get_usize("dqubo-sweeps", 300);
    let skip_dqubo = args.has_flag("skip-dqubo");
    let threads = args.get_usize("threads", default_threads());
    let seed = args.get_u64("seed", 1);

    let instances = benchmark_set(100, per_density);
    let runner = BatchRunner::new().with_threads(threads);
    println!(
        "Fig 10 protocol: {} instances x {initials} initials, HyCiM {sweeps} sweeps, \
         D-QUBO {dqubo_sweeps} sweeps, {threads} threads",
        instances.len()
    );

    // ---- HyCiM ------------------------------------------------------
    let t = Instant::now();
    let hycim_cfg = HyCimConfig::default().with_sweeps(sweeps);
    let hycim_engines: Vec<HyCimEngine<QkpInstance>> = instances
        .iter()
        .enumerate()
        .map(|(idx, inst)| {
            HyCimEngine::new(inst, &hycim_cfg, seed + idx as u64)
                .expect("benchmark instances map onto the hardware")
        })
        .collect();
    let hycim = SuccessTally::measure(&hycim_engines, initials, seed, &runner);
    println!("\n== HyCiM ({:.1}s) ==", t.elapsed().as_secs_f64());
    print_report(&hycim);

    if skip_dqubo {
        println!("\n(D-QUBO skipped via --skip-dqubo)");
        return;
    }

    // ---- D-QUBO baseline ---------------------------------------------
    let t = Instant::now();
    let dqubo_cfg = DquboConfig::default().with_sweeps(dqubo_sweeps);
    let dqubo_engines: Vec<DquboEngine<QkpInstance>> = instances
        .iter()
        .map(|inst| DquboEngine::new(inst, &dqubo_cfg).expect("transformable"))
        .collect();
    let dqubo = SuccessTally::measure(&dqubo_engines, initials, seed, &runner);
    println!(
        "\n== D-QUBO baseline ({:.1}s) ==",
        t.elapsed().as_secs_f64()
    );
    print_report(&dqubo);

    println!("\n== headline comparison ==");
    println!(
        "HyCiM  average success rate: {:>6.2}%   (paper: 98.54%)",
        hycim.success_rate()
    );
    println!(
        "D-QUBO average success rate: {:>6.2}%   (paper: 10.75%)",
        dqubo.success_rate()
    );
    println!(
        "D-QUBO runs ending infeasible: {:.1}% (the paper's \"trapped in \
         infeasible input configuration\")",
        dqubo.infeasible_rate()
    );
}

fn print_report(report: &SuccessTally) {
    let values = &report.normalized;
    println!(
        "normalized QKP values: mean {:.3}, min {:.3}",
        mean(values),
        values.iter().fold(f64::INFINITY, |a, &b| a.min(b))
    );
    // Histogram of normalized values (the Fig. 10 scatter condensed).
    let mut bins = [0usize; 11];
    for &v in values {
        let b = (v.clamp(0.0, 1.0) * 10.0).floor() as usize;
        bins[b.min(10)] += 1;
    }
    for (i, &count) in bins.iter().enumerate() {
        if count > 0 {
            println!(
                "  [{:.1}-{:.1}) {:>5} {}",
                i as f64 / 10.0,
                (i + 1) as f64 / 10.0,
                count,
                hycim_bench::bar(count as f64, values.len() as f64, 40)
            );
        }
    }
    println!("average success rate: {:.2}%", report.success_rate());
}
