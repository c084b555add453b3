//! The filter-bank pipeline end-to-end: a multi-dimensional knapsack
//! solved on `HyCimEngine::bank` (one FeFET inequality filter per
//! resource dimension) next to the `SoftwareEngine` running the
//! aggregate single-constraint relaxation.
//!
//! The bank gates every dimension in hardware, so each of its
//! solutions is feasible in *all* dimensions; the relaxation only
//! enforces the summed budget and can land dimension-infeasible —
//! exactly the gap the `fig_bank` report quantifies.
//!
//! Run with: `cargo run --release --example bank_demo`

use hycim::cop::mkp::MkpGenerator;
use hycim::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16-item, 3-dimension MKP (weight / volume / power budgets).
    let mkp = MkpGenerator::new(16, 3).with_tightness(0.4).generate(7);
    let reference = mkp.reference_value();
    println!(
        "MKP: {} items, {} resource dimensions, capacities {:?}",
        mkp.num_items(),
        mkp.num_dimensions(),
        mkp.capacities()
    );
    println!("reference (exhaustive) value: {reference}");

    let multi = mkp.to_multi_inequality_qubo()?;
    println!("bank encoding: {multi}");

    let config = HyCimConfig::default().with_sweeps(300);
    let bank = HyCimEngine::bank(&mkp, &config, 1)?;
    let software = SoftwareEngine::new(&mkp, &config)?;

    println!(
        "\n{:<10} {:>8} {:>10} {:>16}",
        "backend", "value", "feasible", "per-dim loads"
    );
    for seed in 0..5u64 {
        let b = bank.solve(seed);
        let s = software.solve(seed);
        for (tag, sol) in [("bank", &b), ("software", &s)] {
            let loads: Vec<u64> = (0..mkp.num_dimensions())
                .map(|d| mkp.load(&sol.assignment, d))
                .collect();
            println!(
                "{tag:<10} {:>8} {:>10} {:>16}",
                sol.value(),
                sol.feasible,
                format!("{loads:?}")
            );
        }

        // The bank's admission criterion is the full constraint set:
        // every solution it returns is feasible in every dimension.
        assert!(
            multi.is_feasible(&b.assignment),
            "bank solution violates a dimension at seed {seed}"
        );
        assert!(b.feasible, "bank solutions are domain-feasible");
        // And never better than the exhaustive reference.
        assert!(
            b.value() <= reference,
            "bank value {} exceeds the exact optimum {reference}",
            b.value()
        );
    }

    // Determinism: the same seed reproduces bit-identically.
    assert_eq!(bank.solve(3).assignment, bank.solve(3).assignment);
    println!("\nall bank solutions feasible in every dimension ✓");
    Ok(())
}
