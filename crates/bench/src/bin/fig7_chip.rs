//! Regenerates paper Fig. 7(d) and Fig. 7(f): the fabricated 32×32
//! chip's current linearity and the energy evolution of the worked QKP
//! example over 9 independent "measurements".
//!
//! ```text
//! cargo run --release -p hycim-bench --bin fig7_chip
//! ```

use hycim_bench::{bar, Args};
use hycim_cim::linearity::measure_linearity;
use hycim_cop::QkpInstance;
use hycim_core::{Engine, HyCimConfig, HyCimEngine};
use hycim_fefet::VariationModel;

fn main() {
    let args = Args::parse();
    let measurements = args.get_usize("measurements", 9);
    let seed = args.get_u64("seed", 42);

    // ---- Fig. 7(d): current vs activated cells on a 32×32 chip ------
    println!("== Fig 7(d): 32x32 chip current linearity ({measurements} measurements) ==");
    let sweep = measure_linearity(32, 32, 32, measurements, &VariationModel::paper(), seed);
    println!("{:>6} {:>12} {:>10}", "cells", "mean I (uA)", "std (uA)");
    for (i, &k) in sweep.counts.iter().enumerate() {
        if k % 4 == 0 {
            println!(
                "{:>6} {:>12.2} {:>10.3}  {}",
                k,
                sweep.mean_current[i] * 1e6,
                sweep.std_current[i] * 1e6,
                bar(sweep.mean_current[i] * 1e6, 70.0, 32)
            );
        }
    }
    println!(
        "slope: {:.3} uA/cell, R^2 = {:.6}  (paper: ~2 uA/cell, visually linear)",
        sweep.slope() * 1e6,
        sweep.r_squared()
    );

    // ---- Fig. 7(e,f): the worked QKP example on the chip ------------
    println!("\n== Fig 7(e,f): QKP example energy evolution, {measurements} measurements ==");
    let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9)
        .expect("example instance")
        .with_name("fig7e");
    inst.set_pair_profit(0, 1, 3);
    inst.set_pair_profit(0, 2, 7);
    inst.set_pair_profit(1, 2, 2);
    println!("Q (negated profits) with constraint 4x1+7x2+2x3 <= 9; optimum E = -25");

    let config = HyCimConfig::default().with_sweeps(5).with_trace();
    let mut found = 0;
    for m in 0..measurements {
        // Each measurement erases and reprograms the chip (fresh
        // hardware seed), then runs SA (paper protocol).
        let solver = HyCimEngine::new(&inst, &config, seed + m as u64).expect("mappable example");
        let solution = solver.solve(seed + 100 + m as u64);
        let energies = solution.trace.energies();
        // Subsample the trace to ~15 points like the figure.
        let step = (energies.len() / 15).max(1);
        let series: Vec<String> = energies
            .iter()
            .step_by(step)
            .map(|e| format!("{e:>6.1}"))
            .collect();
        let optimal = solution.value() == 25;
        if optimal {
            found += 1;
        }
        println!(
            "run {m}: E trace {} -> best {:>6.1} {}",
            series.join(" "),
            solution.reported_energy,
            if optimal { "(optimal found)" } else { "" }
        );
    }
    println!(
        "\noptimal solution found in {found}/{measurements} measurements \
         (paper Fig. 7(f): all 9 converge)"
    );
}
