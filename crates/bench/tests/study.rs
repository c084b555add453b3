//! End-to-end tests of the study harness: thread-count bit-identity
//! of the emitted artifact, sub-recipe cell reproducibility (the
//! property the regression gate is built on), and the gate's
//! committed-vs-fresh diff on real runs.

use hycim_bench::gate::{diff_study_cells, GateTolerances};
use hycim_bench::{read_study, render_study_json, ReportMeta, StudyRecipe, StudyRunner};

/// The acceptance criterion: the rendered study document is
/// bit-identical across `--threads 1` and `--threads 4`.
#[test]
fn study_json_is_bit_identical_across_thread_counts() {
    let recipe = StudyRecipe::preset("micro").expect("micro preset");
    let meta = ReportMeta::unknown();
    let serial = StudyRunner::new().with_threads(1).run(&recipe).unwrap();
    let doc1 = render_study_json(&serial, &meta);
    read_study(&doc1).expect("serial document reads");
    let parallel = StudyRunner::new().with_threads(4).run(&recipe).unwrap();
    let doc4 = render_study_json(&parallel, &meta);
    assert_eq!(doc1, doc4, "thread count leaked into the artifact");
    // The deterministic summaries agree too (telemetry may differ).
    assert_eq!(serial.problems, parallel.problems);
    assert_eq!(serial.rankings, parallel.rankings);
}

/// Instance-keyed seeding: a sub-recipe reproduces the superset
/// recipe's cells exactly — the invariant that lets the tiny gate
/// recipe diff against the committed full-study artifact.
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
    let small_run = StudyRunner::new().with_threads(2).run(&small).unwrap();
    let big_run = StudyRunner::new().with_threads(3).run(&big).unwrap();
    let small_p = &small_run.problems[0];
    let big_p = big_run
        .problems
        .iter()
        .find(|p| p.problem == small_p.problem)
        .expect("shared instance present in superset");
    assert_eq!(small_p, big_p, "sub-recipe cell diverged from superset");
}

/// The gate's end-to-end flow on a real run: committed == fresh
/// passes; a doctored committed document fails.
#[test]
fn gate_diff_passes_on_own_output_and_fails_on_doctored() {
    let recipe = StudyRecipe::preset("micro").unwrap();
    let result = StudyRunner::new().with_threads(2).run(&recipe).unwrap();
    let committed = render_study_json(&result, &ReportMeta::unknown());
    let tol = GateTolerances::default();

    let cells = read_study(&committed).unwrap();
    let report = diff_study_cells(&cells, &result.fresh_cells(), &tol);
    assert!(report.passed(), "self-diff failed: {:?}", report.failures);
    assert!(report.warnings.is_empty(), "{:?}", report.warnings);

    // Doctor the committed best objective of the first cell to a
    // value no honest run can reach: the fresh run now looks like a
    // quality regression and the gate must fail.
    let marker = "\"best_objective\": ";
    let start = committed.find(marker).expect("cells carry objectives") + marker.len();
    let end = start + committed[start..].find(',').expect("more fields follow");
    let doctored = format!("{}-999999.0000{}", &committed[..start], &committed[end..]);
    let doctored_cells = read_study(&doctored).expect("doctored document still well-formed");
    let report = diff_study_cells(&doctored_cells, &result.fresh_cells(), &tol);
    assert!(!report.passed(), "doctored committed file must fail");
    assert!(
        report.failures[0].contains("worsened"),
        "{:?}",
        report.failures
    );
}

/// The gate preset must stay a strict subset of the default preset —
/// same knobs, instance keys drawn from the default's set — or the
/// committed BENCH_study.json stops covering the gate's cells.
#[test]
fn gate_preset_cells_are_covered_by_default_preset() {
    let gate = StudyRecipe::preset("gate").unwrap();
    let default = StudyRecipe::preset("default").unwrap();
    assert_eq!(
        (gate.seed, gate.replicas, gate.sweeps, &gate.engines),
        (
            default.seed,
            default.replicas,
            default.sweeps,
            &default.engines
        )
    );
    let default_keys: Vec<String> = default
        .instances()
        .into_iter()
        .map(|(_, _, key)| key)
        .collect();
    for (_, _, key) in gate.instances() {
        assert!(default_keys.contains(&key), "{key} not in default preset");
    }
}
