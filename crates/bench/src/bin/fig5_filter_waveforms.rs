//! Regenerates paper Fig. 4(c) + Fig. 5(f): filter-cell transients and
//! the worked inequality `4x₁ + 7x₂ + 2x₃ ≤ 9` evaluated over all 2³
//! input configurations.
//!
//! ```text
//! cargo run --release -p hycim-bench --bin fig5_filter_waveforms
//! ```

use hycim_bench::Args;
use hycim_cim::filter::{FilterConfig, InequalityFilter};
use hycim_cim::Fidelity;
use hycim_fefet::{MultiLevelSpec, StaircasePulse};
use hycim_qubo::Assignment;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 11);
    let mut rng = StdRng::seed_from_u64(seed);

    // ---- Fig. 4(c): single-cell transients for every stored weight --
    println!("== Fig 4(c): filter-cell ML waveforms per stored weight ==");
    let config = FilterConfig::default().with_fidelity(Fidelity::DeviceAccurate);
    let spec = MultiLevelSpec::paper_filter();
    let stair = StaircasePulse::for_spec(&spec);
    println!(
        "staircase phases (V): {}",
        stair
            .iter()
            .map(|v| format!("{v:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    for w in 0..=4u64 {
        let array = hycim_cim::filter::FilterArray::program(&[w], &config, &mut rng)
            .expect("single-cell array");
        let trace = array.waveform(&Assignment::ones_vec(1), &mut rng);
        println!(
            "w={w}: ML {} (total drop {:.2} units)",
            trace
                .iter()
                .map(|v| format!("{v:.4}"))
                .collect::<Vec<_>>()
                .join(" -> "),
            (trace[0] - trace[trace.len() - 1]) / array.matchline_config().unit_drop()
        );
    }

    // ---- Fig. 5(f): the worked 3-item inequality ---------------------
    println!("\n== Fig 5(f): inequality 4x1 + 7x2 + 2x3 <= 9 over all inputs ==");
    let filter = InequalityFilter::build(&[4, 7, 2], 9, &config, &mut rng).expect("example filter");
    let replica_ml = filter
        .replica_array()
        .waveform(&Assignment::ones_vec(3), &mut rng);
    println!(
        "replica ML: {:.4} V (encodes C = 9)",
        replica_ml[replica_ml.len() - 1]
    );
    println!(
        "{:<6} {:>4} {:>10} {:>12}  verdict",
        "x", "load", "ML (V)", "norm. ML"
    );
    let mut correct = 0;
    for bits in 0u32..8 {
        let x = Assignment::from_bits((0..3).map(|i| bits >> i & 1 == 1));
        let load: u64 = [4u64, 7, 2]
            .iter()
            .zip(x.iter())
            .filter(|(_, b)| *b)
            .map(|(w, _)| w)
            .sum();
        let d = filter.classify(&x, &mut rng);
        let ok = d.is_feasible() == (load <= 9);
        if ok {
            correct += 1;
        }
        println!(
            "{:<6} {:>4} {:>10.4} {:>12.6}  {}{}",
            x.to_bit_string(),
            load,
            d.ml(),
            d.normalized_ml(),
            if d.is_feasible() {
                "feasible"
            } else {
                "infeasible"
            },
            if ok { "" } else { "  <-- MISCLASSIFIED" }
        );
    }
    println!("\n{correct}/8 configurations classified correctly (paper: 6 feasible, 2 filtered)");
}
