//! SA hot-path throughput measurement: dense O(n) row-scan deltas vs
//! the maintained local-field backend, shared by the `hotpath_report`
//! bin (which sweeps the full family × size matrix) and the
//! `bench_gate` bin (which re-times a single small probe cell for the
//! throughput-drift warning).

use std::time::Instant;

use hycim_anneal::{
    run_replica_scalar, AnnealState, AnnealTrace, Annealer, GeometricSchedule, PackedSoftwareState,
    PenaltyState, SoftwareState,
};
use hycim_cop::generator::QkpGenerator;
use hycim_cop::maxcut::MaxCut;
use hycim_cop::spinglass::SpinGlass;
use hycim_cop::CopProblem;
use hycim_core::{replica_seed, PackedConfig, PackedEngine};
use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
use hycim_qubo::{Assignment, InequalityQubo, QuboMatrix, LANES};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::check::{ReportMeta, HOTPATH_SCHEMA};

/// One (family, n) cell of the hotpath report.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathRow {
    /// Problem family tag (`"maxcut"`, `"spinglass"`, `"qkp"`,
    /// `"qkp-dqubo"`).
    pub family: &'static str,
    /// Anneal-state backend (`"software"` or `"penalty"`).
    pub state: &'static str,
    /// Encoded dimension.
    pub n: usize,
    /// Nonzeros of the encoded matrix.
    pub nnz: usize,
    /// Average off-diagonal degree.
    pub avg_degree: f64,
    /// Iterations per timed run.
    pub iterations: usize,
    /// Dense-delta backend throughput, iterations/second.
    pub dense_ips: f64,
    /// Local-field backend throughput, iterations/second.
    pub local_ips: f64,
    /// Whether both backends produced bit-identical trajectories.
    pub bit_identical: bool,
}

impl HotpathRow {
    /// Local-field speedup over the dense backend.
    pub fn speedup(&self) -> f64 {
        self.local_ips / self.dense_ips
    }
}

fn degree_stats(q: &QuboMatrix) -> (usize, f64) {
    let nnz = q.nonzeros();
    let off_diag = q.iter_nonzero().filter(|&(i, j, _)| i != j).count();
    let avg_degree = 2.0 * off_diag as f64 / q.dim().max(1) as f64;
    (nnz, avg_degree)
}

/// Times `annealer.run` on a fresh state from `make`, returning
/// (iterations/sec, final trace). One untimed warmup run absorbs
/// first-touch effects.
fn time_run<S: AnnealState>(
    annealer: &Annealer<GeometricSchedule>,
    seed: u64,
    make: impl Fn() -> S,
) -> (f64, AnnealTrace) {
    let mut warm = make();
    let mut rng = StdRng::seed_from_u64(seed);
    let _ = annealer.run(&mut warm, &mut rng);

    let mut state = make();
    let mut rng = StdRng::seed_from_u64(seed);
    let start = Instant::now();
    let trace = annealer.run(&mut state, &mut rng);
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);
    (annealer.iterations() as f64 / elapsed, trace)
}

/// Times one inequality-QUBO encoding on both software delta backends.
pub fn software_row(
    family: &'static str,
    iq: &InequalityQubo,
    iters_per_var: usize,
    seed: u64,
) -> HotpathRow {
    let n = iq.dim();
    let iterations = (iters_per_var * n).max(1);
    let annealer = Annealer::new(GeometricSchedule::new(50.0, 0.999), iterations).without_trace();
    let (dense_ips, dense_trace) = time_run(&annealer, seed, || {
        SoftwareState::new(iq, Assignment::zeros(n)).with_dense_deltas()
    });
    let (local_ips, local_trace) = time_run(&annealer, seed, || {
        SoftwareState::new(iq, Assignment::zeros(n))
    });
    let (nnz, avg_degree) = degree_stats(iq.objective());
    HotpathRow {
        family,
        state: "software",
        n,
        nnz,
        avg_degree,
        iterations,
        dense_ips,
        local_ips,
        bit_identical: dense_trace == local_trace,
    }
}

/// Times the D-QUBO penalty encoding of a generated QKP instance on
/// both delta backends.
pub fn penalty_row(n_items: usize, iters_per_var: usize, seed: u64) -> HotpathRow {
    let inst = QkpGenerator::new(n_items, 0.25).generate(seed);
    let form = inst
        .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
        .expect("QKP transforms");
    let n = form.dim();
    let iterations = (iters_per_var * n).max(1);
    let annealer = Annealer::new(GeometricSchedule::new(50.0, 0.999), iterations).without_trace();
    let (dense_ips, dense_trace) = time_run(&annealer, seed, || {
        PenaltyState::new(&form, Assignment::zeros(n)).with_dense_deltas()
    });
    let (local_ips, local_trace) = time_run(&annealer, seed, || {
        PenaltyState::new(&form, Assignment::zeros(n))
    });
    let (nnz, avg_degree) = degree_stats(form.matrix());
    HotpathRow {
        family: "qkp-dqubo",
        state: "penalty",
        n,
        nnz,
        avg_degree,
        iterations,
        dense_ips,
        local_ips,
        bit_identical: dense_trace == local_trace,
    }
}

/// One (family, n) replica-throughput cell: the bit-parallel packed
/// engine (64 replicas per pass) against one production scalar
/// annealing replica on the same encoding.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaRow {
    /// Problem family tag (`"maxcut"`, `"spinglass"`, `"qkp"`).
    pub family: &'static str,
    /// Encoded dimension.
    pub n: usize,
    /// Nonzeros of the encoded matrix.
    pub nnz: usize,
    /// Average off-diagonal degree.
    pub avg_degree: f64,
    /// Replicas advanced per packed pass ([`LANES`]).
    pub lanes: usize,
    /// Sweeps per replica in the timed runs.
    pub sweeps: usize,
    /// Production scalar path (local-field [`Annealer`] run):
    /// replica-iterations/second of one replica.
    pub scalar_ips: f64,
    /// Packed engine: replica-iterations/second summed over all 64
    /// lanes (`lanes × n × sweeps / wall`).
    pub packed_ips: f64,
    /// Whether every packed lane reproduced its scalar sweep-reference
    /// twin bit-for-bit under the `replica_seed` stream contract.
    pub bit_identical: bool,
}

impl ReplicaRow {
    /// Packed replica-throughput speedup over one scalar replica.
    pub fn speedup(&self) -> f64 {
        self.packed_ips / self.scalar_ips
    }
}

/// Times one inequality-QUBO encoding on the packed 64-lane engine vs
/// the production scalar annealing path, and verifies all 64 lanes
/// against their scalar sweep-reference twins.
pub fn replica_row(
    family: &'static str,
    iq: &InequalityQubo,
    sweeps: usize,
    seed: u64,
) -> ReplicaRow {
    let n = iq.dim();
    let config = PackedConfig::paper().with_sweeps(sweeps);
    let engine = PackedEngine::new(iq, &config).expect("raw inequality QUBO encodes");

    // Packed side: one untimed warmup absorbs first-touch effects;
    // the fastest of three timed runs is the least-interference
    // estimate (both sides are timed the same way).
    let _ = engine.lane_outcomes(seed);
    let mut packed = None;
    let mut best_elapsed = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let outcome = engine.lane_outcomes(seed);
        let elapsed = start.elapsed().as_secs_f64().max(1e-9);
        best_elapsed = best_elapsed.min(elapsed);
        packed = Some(outcome);
    }
    let packed = packed.expect("three timed runs");
    let packed_ips = (LANES * n * sweeps) as f64 / best_elapsed;

    // Scalar baseline: the production per-replica annealing loop on
    // maintained local fields (the same path `run_annealing` drives),
    // doing one replica's worth of iterations.
    let iterations = (n * sweeps).max(1);
    let annealer = Annealer::new(GeometricSchedule::new(50.0, 0.999), iterations).without_trace();
    let scalar_ips = (0..3)
        .map(|_| {
            let (ips, _) = time_run(&annealer, seed, || {
                SoftwareState::new(iq, Assignment::zeros(n))
            });
            ips
        })
        .fold(0.0f64, f64::max);

    // Bit-identity audit: replay every lane as an independent scalar
    // sweep-reference replica on its `replica_seed` stream.
    let mut streams: Vec<StdRng> = (0..LANES as u64)
        .map(|k| StdRng::seed_from_u64(replica_seed(seed, 0, k)))
        .collect();
    let initials: Vec<Assignment> = streams
        .iter_mut()
        .map(|rng| CopProblem::initial(iq, rng))
        .collect();
    let state = PackedSoftwareState::new(iq, &initials);
    let schedule = engine.schedule_for(&state);
    let bit_identical = streams.iter_mut().enumerate().all(|(k, rng)| {
        let scalar = run_replica_scalar(iq, initials[k].clone(), sweeps, &schedule, rng);
        scalar.best_energy.to_bits() == packed.best_energies[k].to_bits()
            && scalar.best_assignment == packed.best_assignments[k]
            && scalar.final_energy.to_bits() == packed.final_energies[k].to_bits()
    });

    let (nnz, avg_degree) = degree_stats(iq.objective());
    ReplicaRow {
        family,
        n,
        nnz,
        avg_degree,
        lanes: LANES,
        sweeps,
        scalar_ips,
        packed_ips,
        bit_identical,
    }
}

/// Builds the replica-throughput row for one named family at size `n`,
/// with the same instance-generation parameters as [`family_row`] (so
/// the gate's drift probe re-measures exactly what `hotpath_report`
/// committed).
///
/// # Panics
///
/// Panics on an unknown family tag.
pub fn replica_family_row(
    family: &str,
    n: usize,
    sweeps: usize,
    seed: u64,
    maxcut_density: f64,
    qkp_density: f64,
) -> ReplicaRow {
    match family {
        "maxcut" => {
            let g = MaxCut::random(n, maxcut_density, seed.wrapping_add(n as u64));
            let iq = CopProblem::to_inequality_qubo(&g).expect("max-cut encodes");
            replica_row("maxcut", &iq, sweeps, seed)
        }
        "spinglass" => {
            let sg =
                SpinGlass::random_binary(n.max(2), seed.wrapping_add(n as u64)).expect("n >= 2");
            let iq = CopProblem::to_inequality_qubo(&sg).expect("spin glass encodes");
            replica_row("spinglass", &iq, sweeps, seed)
        }
        "qkp" => {
            let inst = QkpGenerator::new(n, qkp_density).generate(seed);
            let iq = inst.to_inequality_qubo().expect("QKP encodes");
            replica_row("qkp", &iq, sweeps, seed)
        }
        other => panic!("unknown replica family {other:?}"),
    }
}

/// Builds the row for one named family at size `n`, with the same
/// generation parameters for every caller (so the gate's drift probe
/// re-measures exactly what `hotpath_report` committed).
///
/// # Panics
///
/// Panics on an unknown family tag.
pub fn family_row(
    family: &str,
    n: usize,
    iters_per_var: usize,
    seed: u64,
    maxcut_density: f64,
    qkp_density: f64,
) -> HotpathRow {
    match family {
        "maxcut" => {
            let g = MaxCut::random(n, maxcut_density, seed.wrapping_add(n as u64));
            let iq = CopProblem::to_inequality_qubo(&g).expect("max-cut encodes");
            software_row("maxcut", &iq, iters_per_var, seed)
        }
        "spinglass" => {
            let sg =
                SpinGlass::random_binary(n.max(2), seed.wrapping_add(n as u64)).expect("n >= 2");
            let iq = CopProblem::to_inequality_qubo(&sg).expect("spin glass encodes");
            software_row("spinglass", &iq, iters_per_var, seed)
        }
        "qkp" => {
            let inst = QkpGenerator::new(n, qkp_density).generate(seed);
            let iq = inst.to_inequality_qubo().expect("QKP encodes");
            software_row("qkp", &iq, iters_per_var, seed)
        }
        "qkp-dqubo" => penalty_row(n, iters_per_var, seed),
        other => panic!("unknown family {other:?}"),
    }
}

/// Renders the `BENCH_hotpath.json` (schema v3) document: the
/// dense-vs-local `rows` plus the packed-vs-scalar `replica_rows`.
pub fn render_hotpath_json(
    rows: &[HotpathRow],
    replica_rows: &[ReplicaRow],
    iters_per_var: usize,
    meta: &ReportMeta,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{HOTPATH_SCHEMA}\",\n"));
    out.push_str("  \"bin\": \"hotpath_report\",\n");
    out.push_str(&format!("  {},\n", meta.render()));
    out.push_str("  \"units\": \"iterations_per_second\",\n");
    out.push_str(&format!("  \"iters_per_var\": {iters_per_var},\n"));
    out.push_str("  \"rows\": [\n");
    for (k, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"family\": \"{}\", \"state\": \"{}\", \"n\": {}, \"nnz\": {}, \
             \"avg_degree\": {:.2}, \"iterations\": {}, \"dense_iters_per_sec\": {:.1}, \
             \"local_iters_per_sec\": {:.1}, \"speedup\": {:.2}, \"bit_identical\": {} }}{}\n",
            r.family,
            r.state,
            r.n,
            r.nnz,
            r.avg_degree,
            r.iterations,
            r.dense_ips,
            r.local_ips,
            r.speedup(),
            r.bit_identical,
            if k + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"replica_rows\": [\n");
    for (k, r) in replica_rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"lanes\": {}, \"family\": \"{}\", \"n\": {}, \"nnz\": {}, \
             \"avg_degree\": {:.2}, \"sweeps\": {}, \"scalar_iters_per_sec\": {:.1}, \
             \"packed_iters_per_sec\": {:.1}, \"replica_speedup\": {:.2}, \
             \"bit_identical\": {} }}{}\n",
            r.lanes,
            r.family,
            r.n,
            r.nnz,
            r.avg_degree,
            r.sweeps,
            r.scalar_ips,
            r.packed_ips,
            r.speedup(),
            r.bit_identical,
            if k + 1 < replica_rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::read_hotpath;

    #[test]
    fn family_rows_time_and_stay_bit_identical() {
        for family in ["maxcut", "spinglass", "qkp", "qkp-dqubo"] {
            let row = family_row(family, 24, 4, 1, 0.3, 0.25);
            assert!(row.dense_ips > 0.0 && row.local_ips > 0.0, "{family}");
            assert!(row.bit_identical, "{family} trajectories diverged");
        }
    }

    #[test]
    fn replica_rows_time_and_stay_bit_identical() {
        for family in ["maxcut", "spinglass", "qkp"] {
            let row = replica_family_row(family, 20, 8, 1, 0.3, 0.25);
            assert_eq!(row.lanes, LANES, "{family}");
            assert!(row.scalar_ips > 0.0 && row.packed_ips > 0.0, "{family}");
            assert!(
                row.bit_identical,
                "{family}: packed lanes diverged from scalar replica_seed twins"
            );
        }
    }

    #[test]
    fn rendered_v3_report_validates_and_extracts_both_row_kinds() {
        let rows = vec![family_row("maxcut", 16, 3, 1, 0.3, 0.25)];
        let replica_rows = vec![replica_family_row("maxcut", 16, 4, 1, 0.3, 0.25)];
        let doc = render_hotpath_json(&rows, &replica_rows, 3, &ReportMeta::unknown());
        let read = read_hotpath(&doc).expect("v3 document reads");
        let extracted = read.rows;
        assert_eq!(extracted.len(), 1);
        assert_eq!(extracted[0].0, "maxcut");
        assert_eq!(extracted[0].1, 16);
        let replicas = read.replica_rows;
        assert_eq!(replicas.len(), 1);
        assert_eq!(replicas[0].0, "maxcut");
        assert_eq!(replicas[0].2, 4, "sweeps round-trip through the document");
        assert!(replicas[0].3 > 0.0);
    }
}
