//! Reading back the committed `BENCH_study.json` artifact, plus the
//! provenance `meta` block the study report stamps.
//!
//! The artifact is written by string formatting (its layout is part
//! of the committed bytes) and read back through the protocol's JSON
//! parser in its report mode, [`Value::parse_report`]: schema tag,
//! `meta` strings, per-row required keys, and range checks on the
//! rates and objectives. This is a shape validator only; that the
//! committed `BENCH_study.json` reproduces byte for byte is pinned by
//! the `study` integration test. `study_report` re-reads its own
//! output through [`read_study`] before writing, so CI smoke runs fail
//! loudly on a malformed report.

use std::env;

use hycim_net::json::Value;

/// Schema tag of `BENCH_study.json`.
pub const STUDY_SCHEMA: &str = "hycim-study/v1";

/// Keys every cell of a study report must carry.
const STUDY_CELL_KEYS: [&str; 7] = [
    "engine",
    "success_rate",
    "feasible_rate",
    "best_objective",
    "mean_objective",
    "mean_iters_to_best",
    "iterations",
];

/// Keys every ranking row of a study report must carry.
const STUDY_RANKING_KEYS: [&str; 7] = [
    "rank",
    "engine",
    "problems",
    "mean_success_rate",
    "borda",
    "best_count",
    "worst_count",
];

/// Provenance block stamped into every emitted report.
///
/// Populated from the environment so artifact generation stays
/// deterministic and process-spawn-free: `HYCIM_GIT_DESCRIBE` carries
/// the `git describe` string and `SOURCE_DATE_EPOCH` the timestamp;
/// both default to `"unknown"` (the committed artifact is generated
/// with neither set, keeping it bit-reproducible).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportMeta {
    /// Generation timestamp (`SOURCE_DATE_EPOCH` or `"unknown"`).
    pub generated: String,
    /// Git describe string (`HYCIM_GIT_DESCRIBE` or `"unknown"`).
    pub git: String,
}

impl ReportMeta {
    /// Reads the provenance environment variables.
    pub fn from_env() -> Self {
        let var = |key| {
            env::var(key)
                .ok()
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Self {
            generated: var("SOURCE_DATE_EPOCH"),
            git: var("HYCIM_GIT_DESCRIBE"),
        }
    }

    /// The fully-unknown meta (what committed artifacts carry).
    pub fn unknown() -> Self {
        Self {
            generated: "unknown".into(),
            git: "unknown".into(),
        }
    }

    /// Renders the one-line `"meta": { ... }` JSON fragment (no
    /// trailing comma or newline).
    pub fn render(&self) -> String {
        let json = |s: &str| Value::Str(s.to_string()).encode();
        format!(
            "\"meta\": {{ \"generated\": {}, \"git\": {} }}",
            json(&self.generated),
            json(&self.git)
        )
    }
}

/// Parses a report and checks its schema tag and `meta` strings.
fn read_report(doc: &str, schema: &str) -> Result<Value, String> {
    let report = Value::parse_report(doc).map_err(|e| e.to_string())?;
    let tag = report.str_field("schema")?;
    if tag != schema {
        return Err(format!("schema tag {tag:?}, expected {schema:?}"));
    }
    let meta = report.field("meta")?;
    for key in ["generated", "git"] {
        meta.str_field(key).map_err(|e| format!("meta: {e}"))?;
    }
    Ok(report)
}

/// Checks every row with `check`, naming the first row that fails.
fn each(
    rows: &[Value],
    label: &str,
    check: impl Fn(&Value) -> Result<(), String>,
) -> Result<(), String> {
    rows.iter()
        .enumerate()
        .try_for_each(|(idx, row)| check(row).map_err(|e| format!("{label} {idx}: {e}")))
}

fn has_keys(row: &Value, keys: &[&str]) -> Result<(), String> {
    keys.iter().try_for_each(|key| row.field(key).map(drop))
}

fn rate(row: &Value, key: &str) -> Result<(), String> {
    let rate = row.number_field(key)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("{key} = {rate} not in [0, 1]"));
    }
    Ok(())
}

/// A number the writer records as `null` when it is not finite.
fn objective(row: &Value, key: &str) -> Result<(), String> {
    match row.field(key)? {
        Value::Null => Ok(()),
        _ => row.number_field(key).map(drop),
    }
}

/// Validates a `BENCH_study.json` document: the [`STUDY_SCHEMA`] tag,
/// the `meta` block, the recipe keys, at least one problem with at
/// least one cell, at least one ranking, every problem, cell and
/// ranking carrying its required keys, rates confined to `[0, 1]`,
/// and objectives that are numbers or `null`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn read_study(doc: &str) -> Result<(), String> {
    let report = read_report(doc, STUDY_SCHEMA)?;
    has_keys(&report, &["study", "seed", "replicas", "sweeps", "engines"])?;
    let problems = report.array_field("problems")?;
    if problems.is_empty() {
        return Err("no problems found".into());
    }
    each(problems, "problem", |p| {
        has_keys(p, &["family", "n", "dim", "reference"])?;
        let problem = p.str_field("problem")?;
        let cells = p.array_field("cells")?;
        if cells.is_empty() {
            return Err(format!("{problem} has no cells"));
        }
        each(cells, "cell", |cell| {
            has_keys(cell, &STUDY_CELL_KEYS)?;
            cell.str_field("engine")?;
            rate(cell, "success_rate")?;
            rate(cell, "feasible_rate")?;
            objective(cell, "best_objective")?;
            objective(cell, "mean_objective")
        })
    })?;
    let rankings = report.array_field("rankings")?;
    if rankings.is_empty() {
        return Err("no rankings found".into());
    }
    each(rankings, "ranking", |row| {
        has_keys(row, &STUDY_RANKING_KEYS)?;
        rate(row, "mean_success_rate")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study_doc(cell: &str) -> String {
        format!(
            "{{\n  \"schema\": \"{STUDY_SCHEMA}\",\n  {},\n  \"study\": \"t\", \"seed\": 1, \
             \"replicas\": 2, \"sweeps\": 10,\n  \"engines\": [\"software\"],\n  \"problems\": [\n    \
             {{ \"problem\": \"qkp-d50-n10\", \"family\": \"qkp\", \"n\": 10, \"dim\": 10, \
             \"reference\": -5.0, \"cells\": [\n{cell}    ] }}\n  ],\n  \"rankings\": [\n    \
             {{ \"rank\": 1, \"engine\": \"software\", \"problems\": 1, \
             \"mean_success_rate\": 1.0000, \"borda\": 0, \"best_count\": 1, \"worst_count\": 1 }}\n  \
             ]\n}}\n",
            ReportMeta::unknown().render()
        )
    }

    const GOOD_CELL: &str = "      { \"engine\": \"software\", \"success_rate\": 1.0000, \
         \"feasible_rate\": 1.0000, \"best_objective\": -5.0000, \"mean_objective\": null, \
         \"mean_iters_to_best\": 42.0, \"iterations\": 200 }\n";

    #[test]
    fn study_validator_accepts_wellformed() {
        // GOOD_CELL records its mean objective as `null`.
        read_study(&study_doc(GOOD_CELL)).expect("valid study document");
    }

    #[test]
    fn committed_artifacts_validate() {
        read_study(include_str!("../../../BENCH_study.json")).expect("BENCH_study.json");
    }

    #[test]
    fn study_validator_rejects_malformed() {
        assert!(read_study("{}").is_err(), "missing schema");
        let doc = study_doc(GOOD_CELL);
        let no_meta = doc.replace("\"meta\"", "\"nope\"");
        assert!(read_study(&no_meta).unwrap_err().contains("meta"));
        let bad_rate = doc.replace("\"success_rate\": 1.0000", "\"success_rate\": 1.5");
        assert!(read_study(&bad_rate).unwrap_err().contains("not in [0, 1]"));
        let text_objective = doc.replace("\"mean_objective\": null", "\"mean_objective\": \"x\"");
        assert!(read_study(&text_objective)
            .unwrap_err()
            .contains("mean_objective"));
        let missing_key = doc.replace("\"feasible_rate\"", "\"f_rate\"");
        assert!(read_study(&missing_key)
            .unwrap_err()
            .contains("feasible_rate"));
        let no_rankings = doc.replace("\"rank\":", "\"r\":");
        assert!(read_study(&no_rankings)
            .unwrap_err()
            .contains("missing field \"rank\""));
        let unbalanced = format!("{doc}{{");
        assert!(read_study(&unbalanced)
            .unwrap_err()
            .contains("trailing input"));
    }

    #[test]
    fn malformed_study_artifacts_are_rejected_and_compact_ones_read() {
        let doc = study_doc(GOOD_CELL);
        let rate = "\"success_rate\": 1.0000, ";
        let tag = format!("\"schema\": \"{STUDY_SCHEMA}\"");
        for (bad, needle) in [
            (
                doc.replacen(rate, "\"success_rate\": 1.0000 ", 1),
                "expected ',' or '}'",
            ),
            (
                doc.replacen(rate, &format!("{rate}\"success_rate\": 7.5, "), 1),
                "duplicate key \"success_rate\"",
            ),
            (format!("{doc}garbage"), "trailing input"),
            (
                doc.replacen(&tag, &format!("\"schema\": \"old\", \"x\": {{ {tag} }}"), 1),
                "schema tag \"old\"",
            ),
        ] {
            let err = read_study(&bad).unwrap_err();
            assert!(err.contains(needle), "{err} (wanted {needle:?})");
        }
        let compact = doc.replace("{ \"", "{\"").replace("\": ", "\":");
        assert_ne!(compact, doc);
        read_study(&compact).expect("compact document reads");
    }

    #[test]
    fn meta_from_env_falls_back_to_unknown() {
        // The test environment does not set the provenance variables.
        if std::env::var("SOURCE_DATE_EPOCH").is_err()
            && std::env::var("HYCIM_GIT_DESCRIBE").is_err()
        {
            assert_eq!(ReportMeta::from_env(), ReportMeta::unknown());
        }
        let rendered = ReportMeta::unknown().render();
        assert!(rendered.starts_with("\"meta\": {"));
        assert!(rendered.contains("\"generated\": \"unknown\""));
        // Provenance strings are escaped, so any value reads back.
        let quoted = ReportMeta {
            generated: "say \"hi\"".into(),
            git: "v1-2-g\\x\n".into(),
        };
        let doc = study_doc(GOOD_CELL).replace(&rendered, &quoted.render());
        read_study(&doc).expect("escaped provenance reads");
        let meta = Value::parse_report(&doc).unwrap().field("meta").cloned();
        assert_eq!(meta.unwrap().str_field("generated"), Ok("say \"hi\""));
    }
}
