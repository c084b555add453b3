//! Quickstart: solve one quadratic knapsack instance end to end with
//! the HyCiM pipeline and compare against the D-QUBO baseline.
//!
//! Run with: `cargo run --release --example quickstart`

use hycim::cop::generator::QkpGenerator;
use hycim::cop::solvers;
use hycim::core::{DquboConfig, DquboEngine, Engine, HyCimConfig, HyCimEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A benchmark-style 100-item QKP instance (profits ≤ 100 with 25%
    // density, weights ≤ 50, capacity in the paper's range).
    let instance = QkpGenerator::new(100, 0.25).generate(7);
    println!("instance: {instance}");

    // Reference value from greedy + local search restarts.
    let (_, best_known) = solvers::best_known(&instance, 15, 7);
    println!("best-known value: {best_known}");

    // --- HyCiM: inequality-QUBO + filter + crossbar + SA -------------
    let hycim = HyCimEngine::new(&instance, &HyCimConfig::default(), 1)?;
    let solution = hycim.solve(42);
    println!(
        "HyCiM:  value {} ({:.1}% of best known), feasible: {}, \
         {} proposals filtered as infeasible",
        solution.value(),
        100.0 * solution.normalized_value(best_known),
        solution.feasible,
        solution.trace.rejected_infeasible(),
    );

    // --- D-QUBO baseline: penalty encoding, no filter ----------------
    let dqubo = DquboEngine::new(&instance, &DquboConfig::default().with_sweeps(100))?;
    let baseline = dqubo.solve(42);
    println!(
        "D-QUBO: value {} ({:.1}% of best known), feasible: {}, \
         search space 2^{} instead of 2^100",
        baseline.value(),
        100.0 * baseline.normalized_value(best_known),
        baseline.feasible,
        dqubo.form().dim(),
    );

    Ok(())
}
