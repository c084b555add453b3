//! Aggregate-relaxation vs exact filter-bank comparison: the report
//! behind the bank pipeline (the multi-constraint extension of the
//! paper's single-filter architecture).
//!
//! For bin packing and the multi-dimensional knapsack, the
//! single-filter pipeline can only gate an *aggregate* capacity
//! (summed over bins/dimensions) — a necessary relaxation that lets
//! per-constraint violations through. The filter bank programs one
//! filter per constraint and gates them all concurrently, making both
//! problems exact in hardware. This report measures, per instance:
//!
//! * the domain-feasibility rate of returned solutions,
//! * the mean objective (violations for bin packing, negated profit
//!   for the MKP),
//! * the modeled matchline energy per SA iteration for one filter vs
//!   the k-filter bank ([`EnergyModel::bank_eval`]), plus the full
//!   iteration energy at the measured infeasible-proposal rate
//!   ([`EnergyModel::bank_iteration`]) — the energy cost of
//!   exactness.
//!
//! ```text
//! cargo run --release -p hycim-bench --bin fig_bank
//! cargo run --release -p hycim-bench --bin fig_bank -- --instances 2 --replicas 3 --sweeps 100
//! ```

use hycim_bench::{default_threads, mean, Args};
use hycim_cim::energy::EnergyModel;
use hycim_cop::binpack::BinPacking;
use hycim_cop::mkp::MkpGenerator;
use hycim_cop::CopProblem;
use hycim_core::{BatchRunner, HyCimConfig, HyCimEngine, Solution};

/// Feasibility rate, mean objective, and mean value over a replica row.
fn summarize<P: CopProblem>(solutions: &[Solution<P>]) -> (f64, f64) {
    let feasible = solutions.iter().filter(|s| s.feasible).count() as f64;
    let objectives: Vec<f64> = solutions.iter().map(|s| s.objective).collect();
    (feasible / solutions.len() as f64, mean(&objectives))
}

fn main() {
    let args = Args::parse();
    let instances = args.get_usize("instances", 4);
    let items = args.get_usize("items", 8);
    let bins = args.get_usize("bins", 3);
    let dims = args.get_usize("dims", 3);
    let replicas = args.get_usize("replicas", 8);
    let sweeps = args.get_usize("sweeps", 300);
    let threads = args.get_usize("threads", default_threads());
    let seed = args.get_u64("seed", 1);

    let model = EnergyModel::paper();
    let config = HyCimConfig::default().with_sweeps(sweeps);
    let runner = BatchRunner::new().with_threads(threads);

    println!("=== bin packing: aggregate relaxation vs per-bin filter bank ===");
    println!(
        "{:<18} {:<10} {:>9} {:>10} {:>12} {:>12} {:>9}",
        "instance", "backend", "feas%", "mean obj", "ML J/iter", "J/iter", "filters"
    );
    let mut agg_feas = Vec::new();
    let mut bank_feas = Vec::new();
    for idx in 0..instances {
        let bp = BinPacking::random(items, bins, seed + idx as u64);
        let name = CopProblem::name(&bp);
        let hw_seed = seed + idx as u64;

        let aggregate = HyCimEngine::new(&bp, &config, hw_seed).expect("mappable");
        let bank = HyCimEngine::bank(&bp, &config, hw_seed).expect("mappable");
        let agg_row = runner.run(&aggregate, replicas, seed);
        let bank_row = runner.run(&bank, replicas, seed);

        // Energy per SA iteration at a representative load (the first
        // replica's best): the matchline-only column isolates the
        // k-filter cost (one filter on the aggregate vs one per bin);
        // the full column weighs crossbar firings by the measured
        // infeasible-proposal rate, active cells ≈ half the programmed
        // coefficients at 7-bit quantization.
        let iq = CopProblem::to_inequality_qubo(&bp).expect("encodable");
        let mq = bp.to_multi_inequality_qubo().expect("encodable");
        let caps: Vec<u64> = mq.constraints().iter().map(|c| c.capacity()).collect();
        let (e_ml_agg, e_it_agg) = {
            let s = &agg_row[0];
            let (load, cap) = (
                iq.constraint().load(&s.assignment),
                iq.constraint().capacity(),
            );
            let (cols, cells) = (
                s.assignment.ones().max(1),
                iq.objective().nonzeros() * 7 / 2,
            );
            let infeas = s.trace.infeasible_fraction();
            (
                model.filter_eval(load, cap),
                infeas * model.hycim_iteration(load, cap, false, cols, 7, cells)
                    + (1.0 - infeas) * model.hycim_iteration(load, cap, true, cols, 7, cells),
            )
        };
        let (e_ml_bank, e_it_bank) = {
            let s = &bank_row[0];
            let loads = mq.loads(&s.assignment);
            let (cols, cells) = (
                s.assignment.ones().max(1),
                mq.objective().nonzeros() * 7 / 2,
            );
            let infeas = s.trace.infeasible_fraction();
            (
                model.bank_eval(&loads, &caps),
                infeas * model.bank_iteration(&loads, &caps, false, cols, 7, cells)
                    + (1.0 - infeas) * model.bank_iteration(&loads, &caps, true, cols, 7, cells),
            )
        };

        for (tag, row, e_ml, e_it, k) in [
            ("aggregate", &agg_row, e_ml_agg, e_it_agg, 1usize),
            (
                "bank",
                &bank_row,
                e_ml_bank,
                e_it_bank,
                mq.num_constraints(),
            ),
        ] {
            let (feas, obj) = summarize(row);
            println!(
                "{name:<18} {tag:<10} {:>8.0}% {obj:>10.2} {e_ml:>12.3e} {e_it:>12.3e} {k:>9}",
                feas * 100.0
            );
            if tag == "aggregate" {
                agg_feas.push(feas);
            } else {
                bank_feas.push(feas);
                // Bank solutions are bin-exact by construction.
                for s in row.iter() {
                    assert!(
                        mq.is_feasible(&s.assignment),
                        "bank returned a per-bin violation on {name}"
                    );
                }
            }
        }
    }

    let mut mkp_agg_feas = Vec::new();
    let mut mkp_bank_feas = Vec::new();
    println!("\n=== MKP: aggregate relaxation vs per-dimension filter bank ===");
    println!(
        "{:<18} {:<10} {:>9} {:>10} {:>10} {:>12} {:>12}",
        "instance", "backend", "feas%", "mean obj", "reference", "ML J/iter", "J/iter"
    );
    for idx in 0..instances {
        let mkp = MkpGenerator::new(items + 4, dims).generate(seed + 100 + idx as u64);
        let name = CopProblem::name(&mkp);
        let hw_seed = seed + idx as u64;
        let reference = mkp.reference_objective(seed).expect("always some");

        let aggregate = HyCimEngine::new(&mkp, &config, hw_seed).expect("mappable");
        let bank = HyCimEngine::bank(&mkp, &config, hw_seed).expect("mappable");
        let agg_row = runner.run(&aggregate, replicas, seed);
        let bank_row = runner.run(&bank, replicas, seed);

        let iq = CopProblem::to_inequality_qubo(&mkp).expect("encodable");
        let mq = mkp.to_multi_inequality_qubo().expect("encodable");
        let caps: Vec<u64> = mq.constraints().iter().map(|c| c.capacity()).collect();
        let cells = iq.objective().nonzeros() * 7 / 2;
        let (e_ml_agg, e_it_agg) = {
            let s = &agg_row[0];
            let (load, cap) = (
                iq.constraint().load(&s.assignment),
                iq.constraint().capacity(),
            );
            let cols = s.assignment.ones().max(1);
            let infeas = s.trace.infeasible_fraction();
            (
                model.filter_eval(load, cap),
                infeas * model.hycim_iteration(load, cap, false, cols, 7, cells)
                    + (1.0 - infeas) * model.hycim_iteration(load, cap, true, cols, 7, cells),
            )
        };
        let (e_ml_bank, e_it_bank) = {
            let s = &bank_row[0];
            let loads = mq.loads(&s.assignment);
            let cols = s.assignment.ones().max(1);
            let infeas = s.trace.infeasible_fraction();
            (
                model.bank_eval(&loads, &caps),
                infeas * model.bank_iteration(&loads, &caps, false, cols, 7, cells)
                    + (1.0 - infeas) * model.bank_iteration(&loads, &caps, true, cols, 7, cells),
            )
        };

        for (tag, row, e_ml, e_it) in [
            ("aggregate", &agg_row, e_ml_agg, e_it_agg),
            ("bank", &bank_row, e_ml_bank, e_it_bank),
        ] {
            let (feas, obj) = summarize(row);
            println!(
                "{name:<18} {tag:<10} {:>8.0}% {obj:>10.2} {reference:>10.2} {e_ml:>12.3e} {e_it:>12.3e}",
                feas * 100.0
            );
            if tag == "aggregate" {
                mkp_agg_feas.push(feas);
            } else {
                mkp_bank_feas.push(feas);
                for s in row.iter() {
                    assert!(
                        mq.is_feasible(&s.assignment),
                        "bank returned a dimension violation on {name}"
                    );
                }
            }
        }
    }

    println!(
        "\nsummary: domain feasibility aggregate → bank: bin packing {:.0}% → {:.0}%, \
         MKP {:.0}% → {:.0}% (the bank is exact by construction); \
         exactness costs k× matchline energy per SA iteration",
        mean(&agg_feas) * 100.0,
        mean(&bank_feas) * 100.0,
        mean(&mkp_agg_feas) * 100.0,
        mean(&mkp_bank_feas) * 100.0,
    );
}
