//! Budget-constrained project portfolio selection — a realistic QKP
//! application of the kind the paper's introduction motivates
//! (resource allocation): pick projects under a budget, where pairs of
//! projects have synergy profits.
//!
//! Run with: `cargo run --release --example portfolio`

use hycim::cop::{solvers, QkpInstance};
use hycim::core::{BatchRunner, HyCimConfig, HyCimEngine};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 12 candidate projects: standalone payoff and cost (in $100k).
    let names = [
        "datacenter-upgrade",
        "edge-rollout",
        "ml-pipeline",
        "mobile-app",
        "api-gateway",
        "security-audit",
        "iot-fleet",
        "data-lake",
        "billing-rework",
        "cdn-expansion",
        "devops-platform",
        "analytics-suite",
    ];
    let payoffs = vec![40, 30, 55, 22, 18, 25, 35, 50, 20, 28, 32, 45];
    let costs = vec![24, 15, 30, 10, 8, 12, 20, 28, 9, 14, 16, 25];
    let budget = 90;

    let mut portfolio = QkpInstance::new(payoffs, costs, budget)?.with_name("portfolio");
    // Synergies: projects that amplify each other when funded together.
    for (a, b, synergy) in [
        (2, 7, 25),  // ml-pipeline + data-lake
        (2, 11, 20), // ml-pipeline + analytics-suite
        (7, 11, 18), // data-lake + analytics-suite
        (0, 9, 12),  // datacenter-upgrade + cdn-expansion
        (1, 6, 15),  // edge-rollout + iot-fleet
        (4, 8, 8),   // api-gateway + billing-rework
        (5, 10, 10), // security-audit + devops-platform
    ] {
        portfolio.set_pair_profit(a, b, synergy);
    }

    println!("portfolio selection: 12 projects, budget ${budget}00k");

    // Ground truth for a problem this small.
    let (exact_x, exact_value) = solvers::exhaustive(&portfolio)?;

    // HyCiM pipeline.
    let solver = HyCimEngine::new(&portfolio, &HyCimConfig::default().with_sweeps(300), 1)?;
    // A handful of annealing runs from different Monte-Carlo starts
    // (the paper's protocol), fanned out over worker threads by the
    // deterministic BatchRunner; keep the best.
    let solution = BatchRunner::new()
        .run(&solver, 5, 1)
        .into_iter()
        .max_by_key(|s| s.value())
        .expect("at least one run");

    println!(
        "exhaustive optimum: value {exact_value}, cost {}",
        portfolio.load(&exact_x)
    );
    println!(
        "HyCiM solution:     value {}, cost {}, optimal: {}",
        solution.value(),
        portfolio.load(&solution.assignment),
        solution.value() == exact_value
    );
    println!("funded projects:");
    for i in solution.assignment.support() {
        println!("  - {}", names[i]);
    }
    Ok(())
}
