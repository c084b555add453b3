//! End-to-end tests of the study harness: the committed
//! `BENCH_study.json` reproduces byte for byte, the emitted artifact
//! is bit-identical across thread counts, and a sub-recipe reproduces
//! its superset's cells.

use hycim_bench::{read_study, render_study_json, ReportMeta, StudyRecipe, StudyRunner};
use hycim_core::BatchRunner;

/// The one artifact check: the default preset renders the committed
/// `BENCH_study.json` byte for byte. Any change to a solve, a seed, a
/// score or the layout fails here; regenerate the artifact with
/// `cargo run --release -p hycim-bench --bin study_report` when the
/// change is intended.
#[test]
fn default_preset_reproduces_the_committed_study_artifact() {
    let recipe = StudyRecipe::preset("default").expect("default preset");
    let result = StudyRunner::Local(BatchRunner::new()).run(&recipe).unwrap();
    let doc = render_study_json(&result, &ReportMeta::unknown());
    let committed = include_str!("../../../BENCH_study.json");
    let first_diff = doc.lines().zip(committed.lines()).position(|(a, b)| a != b);
    assert!(
        doc == committed,
        "the default preset no longer reproduces the committed BENCH_study.json \
         (first differing line: {:?})",
        first_diff.map(|i| i + 1)
    );
}

/// The rendered study document is bit-identical across `--threads 1`
/// and `--threads 4`.
#[test]
fn study_json_is_bit_identical_across_thread_counts() {
    let recipe = StudyRecipe::preset("micro").expect("micro preset");
    let meta = ReportMeta::unknown();
    let serial = StudyRunner::Local(BatchRunner::new().with_threads(1))
        .run(&recipe)
        .unwrap();
    let doc1 = render_study_json(&serial, &meta);
    read_study(&doc1).expect("serial document reads");
    let parallel = StudyRunner::Local(BatchRunner::new().with_threads(4))
        .run(&recipe)
        .unwrap();
    let doc4 = render_study_json(&parallel, &meta);
    assert_eq!(doc1, doc4, "thread count leaked into the artifact");
    // The deterministic summaries agree too (telemetry may differ).
    assert_eq!(serial.problems, parallel.problems);
    assert_eq!(serial.rankings, parallel.rankings);
}

/// Instance-keyed seeding: a sub-recipe reproduces the superset
/// recipe's cells exactly, so the `gate` preset's cells are the
/// committed full-study cells.
#[test]
fn sub_recipe_cells_match_superset_cells_bitwise() {
    let small = StudyRecipe::parse(
        "study small\nseed 11\nreplicas 2\nsweeps 40\nengines software,hycim\n\
         problem qkp sizes=8 density=50\n",
    )
    .unwrap();
    let big = StudyRecipe::parse(
        "study big\nseed 11\nreplicas 2\nsweeps 40\nengines software,hycim\n\
         problem qkp sizes=8,12 density=50\nproblem maxcut sizes=6 density=50\n",
    )
    .unwrap();
    let small_run = StudyRunner::Local(BatchRunner::new().with_threads(2))
        .run(&small)
        .unwrap();
    let big_run = StudyRunner::Local(BatchRunner::new().with_threads(3))
        .run(&big)
        .unwrap();
    let small_p = &small_run.problems[0];
    let big_p = big_run
        .problems
        .iter()
        .find(|p| p.problem == small_p.problem)
        .expect("shared instance present in superset");
    assert_eq!(small_p, big_p, "sub-recipe cell diverged from superset");
}
