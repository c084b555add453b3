//! Energy-efficiency comparison backing the paper's Sec 4.2 claim that
//! the hardware reduction "indicates improved energy efficiency":
//! estimates per-SA-iteration and per-solve energy for HyCiM vs the
//! D-QUBO baseline using the `hycim-cim` energy model and *measured*
//! run statistics (infeasible fraction, active cell counts), with the
//! measurement runs fanned out by the parallel `BatchRunner`.
//!
//! ```text
//! cargo run --release -p hycim-bench --bin energy_report
//! ```

use hycim_bench::{default_threads, Args};
use hycim_cim::energy::EnergyModel;
use hycim_cop::generator::benchmark_set;
use hycim_cop::{CopProblem, QkpInstance};
use hycim_core::{BatchRunner, HyCimConfig, HyCimEngine};
use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
use hycim_qubo::quant::matrix_bits;

fn main() {
    let args = Args::parse();
    let per_density = args.get_usize("per-density", 2);
    let sweeps = args.get_usize("sweeps", 200);
    let threads = args.get_usize("threads", default_threads());
    let seed = args.get_u64("seed", 1);

    let model = EnergyModel::paper();
    let instances = benchmark_set(100, per_density);
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>12} {:>8}",
        "instance", "infeas%", "HyCiM J/it", "DQUBO J/it", "ratio", "note"
    );

    // Measure the infeasible-proposal fraction from real runs, one
    // replica per instance, all instances in parallel.
    let config = HyCimConfig::default().with_sweeps(sweeps);
    let engines: Vec<HyCimEngine<QkpInstance>> = instances
        .iter()
        .enumerate()
        .map(|(idx, inst)| HyCimEngine::new(inst, &config, seed + idx as u64).expect("mappable"))
        .collect();
    let grid = BatchRunner::new()
        .with_threads(threads)
        .run_grid(&engines, 1, seed);

    let mut ratios = Vec::new();
    for (inst, solutions) in instances.iter().zip(&grid) {
        let solution = &solutions[0];
        let infeasible_frac = solution.trace.infeasible_fraction();

        // HyCiM per-iteration energy: filter always; crossbar only on
        // the feasible fraction. Typical active columns ≈ selected
        // items; active cells ≈ selected² · density · bits / 2.
        let n_sel = solution.assignment.ones().max(1);
        let density = inst.density();
        let h_cells = (n_sel * n_sel) as f64 * density * 7.0 / 2.0;
        let load = inst.load(&solution.assignment);
        let e_feasible =
            model.hycim_iteration(load, inst.capacity(), true, n_sel, 7, h_cells as usize);
        let e_infeasible = model.hycim_iteration(
            inst.capacity() + 10,
            inst.capacity(),
            false,
            n_sel,
            7,
            h_cells as usize,
        );
        let e_hycim = infeasible_frac * e_infeasible + (1.0 - infeasible_frac) * e_feasible;

        // D-QUBO per-iteration: full crossbar on the (n+C)-dimension
        // matrix, every iteration.
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::OneHot)
            .expect("transformable");
        let d_dim = form.dim();
        let d_bits = matrix_bits(form.matrix());
        // Half the variables active on average; the y-block is dense.
        let d_cells = (d_dim * d_dim) as f64 / 4.0 * f64::from(d_bits) / 2.0;
        let e_dqubo = model.dqubo_iteration(d_dim / 2, d_bits, d_cells as usize);

        let ratio = e_dqubo / e_hycim;
        ratios.push(ratio);
        println!(
            "{:<16} {:>9.1}% {:>12.3e} {:>12.3e} {:>11.0}x {:>8}",
            CopProblem::name(inst),
            infeasible_frac * 100.0,
            e_hycim,
            e_dqubo,
            ratio,
            format!("C={}", inst.capacity())
        );
    }
    println!(
        "\nD-QUBO spends {:.0}x..{:.0}x more energy per SA iteration than HyCiM \
         (driven by the n² · bits cell count of Fig. 9)",
        ratios.iter().fold(f64::INFINITY, |a, &b| a.min(b)),
        ratios.iter().fold(0.0f64, |a, &b| a.max(b)),
    );
}
