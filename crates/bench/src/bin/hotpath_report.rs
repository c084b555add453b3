//! SA hot-path throughput report: annealing iterations/second on
//! maintained local fields across problem families and sizes, plus
//! the bit-parallel replica throughput of the packed 64-lane engine vs
//! one production scalar replica.
//!
//! Each scalar (family, n) cell times one annealing run on the
//! local-field state the engines use. The replica rows advance 64
//! replicas per pass over the coupling structure (`u64` spin
//! bitplanes, lane-major maintained fields), and every lane is
//! verified bit-identical to an independent scalar sweep-reference
//! replica on its `replica_seed` RNG stream (asserted per cell), so
//! the replica speedup is pure hot path, not an algorithmic change.
//!
//! Emits `BENCH_hotpath.json` (override with `--out`), the repo's
//! perf-trajectory artifact, schema `hycim-hotpath/v4` with a `meta`
//! provenance block (`HYCIM_GIT_DESCRIBE` / `SOURCE_DATE_EPOCH`
//! environment variables, `"unknown"` when unset), and validates its
//! shape before exiting. The measurement and rendering logic lives in
//! [`hycim_bench::hotpath`].
//!
//! ```text
//! cargo run --release -p hycim-bench --bin hotpath_report -- \
//!     --sizes 64,256,512 --iters-per-var 60 \
//!     --replica-sizes 64,256,512 --replica-sweeps 240
//! ```

use hycim_bench::hotpath::{family_row, render_hotpath_json, replica_family_row};
use hycim_bench::{bar, read_hotpath, Args, ReportMeta};

fn main() {
    let args = Args::parse();
    let sizes = args.get_usize_list("sizes", &[64, 256, 512]);
    let iters_per_var = args.get_usize("iters-per-var", 60);
    let maxcut_density = args.get_f64("maxcut-density", 0.05);
    let qkp_density = args.get_f64("qkp-density", 0.25);
    let seed = args.get_u64("seed", 1);
    let out_path = args.get_str("out", "BENCH_hotpath.json");
    let families = args.get_str("families", "maxcut,spinglass,qkp,qkp-dqubo");
    let replica_sizes = args.get_usize_list("replica-sizes", &[64, 256, 512]);
    let replica_sweeps = args.get_usize("replica-sweeps", 240);
    let replica_families = args.get_str("replica-families", "maxcut,spinglass");

    println!("SA hot-path throughput on maintained local fields");
    println!("sizes {sizes:?}, {iters_per_var} iterations/variable, families [{families}]\n");
    println!(
        "{:<11} {:>6} {:>9} {:>7} {:>13}",
        "family", "n", "nnz", "deg", "local it/s"
    );

    let mut rows = Vec::new();
    for &n in &sizes {
        for family in families.split(',').map(str::trim) {
            let row = family_row(family, n, iters_per_var, seed, maxcut_density, qkp_density);
            println!(
                "{:<11} {:>6} {:>9} {:>7.1} {:>13.0}",
                row.family, row.n, row.nnz, row.avg_degree, row.local_ips,
            );
            rows.push(row);
        }
    }

    println!("\nbit-parallel replicas: packed 64-lane engine vs one scalar replica");
    println!(
        "sizes {replica_sizes:?}, {replica_sweeps} sweeps/replica, families [{replica_families}]\n"
    );
    println!(
        "{:<11} {:>6} {:>6} {:>13} {:>13} {:>8}",
        "family", "n", "lanes", "scalar it/s", "packed it/s", "speedup"
    );

    let mut replica_rows = Vec::new();
    for &n in &replica_sizes {
        for family in replica_families.split(',').map(str::trim) {
            let row =
                replica_family_row(family, n, replica_sweeps, seed, maxcut_density, qkp_density);
            println!(
                "{:<11} {:>6} {:>6} {:>13.0} {:>13.0} {:>7.1}x  {}",
                row.family,
                row.n,
                row.lanes,
                row.scalar_ips,
                row.packed_ips,
                row.speedup(),
                bar(row.speedup().min(40.0), 40.0, 24),
            );
            assert!(
                row.bit_identical,
                "{} n={}: packed lanes diverged from their scalar replica_seed twins",
                row.family, row.n
            );
            replica_rows.push(row);
        }
    }

    let doc = render_hotpath_json(&rows, &replica_rows, iters_per_var, &ReportMeta::from_env());
    read_hotpath(&doc).expect("emitted report must be well-formed");
    std::fs::write(&out_path, &doc).expect("writable output path");
    println!(
        "\nwrote {out_path} ({} rows + {} replica rows, shape validated)",
        rows.len(),
        replica_rows.len()
    );

    let best_replica = replica_rows
        .iter()
        .filter(|r| r.n >= 256)
        .map(|r| r.speedup())
        .fold(0.0f64, f64::max);
    if best_replica > 0.0 {
        println!("max packed replica speedup at n >= 256: {best_replica:.1}x");
    }
}
