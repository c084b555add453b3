//! Reading back the committed `BENCH_*.json` artifacts, plus the
//! provenance `meta` block both report bins stamp.
//!
//! The artifacts are written by string formatting (their layout is
//! part of the committed bytes) and read back through the protocol's
//! JSON parser in its report mode, [`Value::parse_report`]: schema
//! tag, `meta` strings, per-row required keys, and range checks on the
//! numbers the gate later compares. Both `hotpath_report` and
//! `study_report` re-read their own output through these readers
//! before writing, so CI smoke runs fail loudly on a malformed report.

use std::env;

use hycim_net::json::Value;

/// Schema tag of `BENCH_hotpath.json`: scalar local-field `rows`, a
/// `meta` provenance block, and the `replica_rows` packed-vs-scalar
/// throughput block. Earlier tags are rejected.
pub const HOTPATH_SCHEMA: &str = "hycim-hotpath/v3";

/// Schema tag of `BENCH_study.json`.
pub const STUDY_SCHEMA: &str = "hycim-study/v1";

/// Keys every row of a hotpath report must carry.
pub const HOTPATH_ROW_KEYS: [&str; 9] = [
    "family",
    "state",
    "n",
    "nnz",
    "avg_degree",
    "iterations",
    "dense_iters_per_sec",
    "local_iters_per_sec",
    "speedup",
];

/// Keys every replica row of a v3 hotpath report must carry.
pub const HOTPATH_REPLICA_ROW_KEYS: [&str; 9] = [
    "lanes",
    "family",
    "n",
    "nnz",
    "avg_degree",
    "sweeps",
    "scalar_iters_per_sec",
    "packed_iters_per_sec",
    "replica_speedup",
];

/// Keys every cell of a study report must carry.
pub const STUDY_CELL_KEYS: [&str; 7] = [
    "engine",
    "success_rate",
    "feasible_rate",
    "best_objective",
    "mean_objective",
    "mean_iters_to_best",
    "iterations",
];

/// Keys every ranking row of a study report must carry.
pub const STUDY_RANKING_KEYS: [&str; 7] = [
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
/// both default to `"unknown"` (the committed artifacts are generated
/// with neither set, keeping them bit-reproducible).
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

/// One (problem, engine) cell read from a committed study document —
/// the quantities the regression gate compares.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedCell {
    /// Canonical instance key.
    pub problem: String,
    /// Engine backend tag.
    pub engine: String,
    /// Committed success rate in `[0, 1]`.
    pub success_rate: f64,
    /// Committed best objective (`None` when recorded as `null`).
    pub best_objective: Option<f64>,
    /// Committed mean objective (`None` when recorded as `null`).
    pub mean_objective: Option<f64>,
}

/// The throughput rows of a committed hotpath document — the
/// committed side of the gate's drift probes.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedHotpath {
    /// `(family, n, local_iters_per_sec)` of every scalar row.
    pub rows: Vec<(String, usize, f64)>,
    /// `(family, n, sweeps, packed_iters_per_sec)` of every replica
    /// row. The probe replays the row's own `sweeps`: throughput is
    /// sweep-count dependent (longer runs amortize setup and spend
    /// more time in the draw-free cold tail).
    pub replica_rows: Vec<(String, usize, usize, f64)>,
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

/// Reads every row with `read`, naming the first row that fails.
fn each<T>(
    rows: &[Value],
    label: &str,
    read: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    rows.iter()
        .enumerate()
        .map(|(idx, row)| read(row).map_err(|e| format!("{label} {idx}: {e}")))
        .collect()
}

fn has_keys(row: &Value, keys: &[&str]) -> Result<(), String> {
    keys.iter().try_for_each(|key| row.field(key).map(drop))
}

fn rate(row: &Value, key: &str) -> Result<f64, String> {
    let rate = row.number_field(key)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("{key} = {rate} not in [0, 1]"));
    }
    Ok(rate)
}

fn positive(row: &Value, key: &str) -> Result<f64, String> {
    let x = row.number_field(key)?;
    if x <= 0.0 {
        return Err(format!("{key} = {x} is not positive"));
    }
    Ok(x)
}

/// A number the writer records as `null` when it is not finite.
fn objective(row: &Value, key: &str) -> Result<Option<f64>, String> {
    match row.field(key)? {
        Value::Null => Ok(None),
        _ => row.number_field(key).map(Some),
    }
}

/// Reads a `BENCH_hotpath.json` document: the [`HOTPATH_SCHEMA`] tag,
/// the `meta` provenance block, at least one row, a `replica_rows`
/// array, every row and replica row carrying every required key, and
/// strictly positive finite throughput numbers.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn read_hotpath(doc: &str) -> Result<CommittedHotpath, String> {
    let report = read_report(doc, HOTPATH_SCHEMA)?;
    let rows = report.array_field("rows")?;
    if rows.is_empty() {
        return Err("no rows found".into());
    }
    let rows = each(rows, "row", |row| {
        has_keys(row, &HOTPATH_ROW_KEYS)?;
        positive(row, "dense_iters_per_sec")?;
        positive(row, "speedup")?;
        Ok((
            row.str_field("family")?.to_string(),
            row.u64_field("n")? as usize,
            positive(row, "local_iters_per_sec")?,
        ))
    })?;
    let replica_rows = each(report.array_field("replica_rows")?, "replica row", |row| {
        has_keys(row, &HOTPATH_REPLICA_ROW_KEYS)?;
        positive(row, "scalar_iters_per_sec")?;
        positive(row, "replica_speedup")?;
        Ok((
            row.str_field("family")?.to_string(),
            row.u64_field("n")? as usize,
            row.u64_field("sweeps")? as usize,
            positive(row, "packed_iters_per_sec")?,
        ))
    })?;
    Ok(CommittedHotpath { rows, replica_rows })
}

/// Reads a `BENCH_study.json` document into its (problem, engine)
/// cells: the [`STUDY_SCHEMA`] tag, the `meta` block, the recipe keys,
/// at least one problem with at least one cell, at least one ranking,
/// every problem, cell and ranking carrying its required keys, rates
/// confined to `[0, 1]`, and objectives that are numbers or `null`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn read_study(doc: &str) -> Result<Vec<CommittedCell>, String> {
    let report = read_report(doc, STUDY_SCHEMA)?;
    has_keys(&report, &["study", "seed", "replicas", "sweeps", "engines"])?;
    let problems = report.array_field("problems")?;
    if problems.is_empty() {
        return Err("no problems found".into());
    }
    let cells = each(problems, "problem", |p| {
        has_keys(p, &["family", "n", "dim", "reference"])?;
        let problem = p.str_field("problem")?;
        let cells = each(p.array_field("cells")?, "cell", |cell| {
            has_keys(cell, &STUDY_CELL_KEYS)?;
            rate(cell, "feasible_rate")?;
            Ok(CommittedCell {
                problem: problem.to_string(),
                engine: cell.str_field("engine")?.to_string(),
                success_rate: rate(cell, "success_rate")?,
                best_objective: objective(cell, "best_objective")?,
                mean_objective: objective(cell, "mean_objective")?,
            })
        })?;
        if cells.is_empty() {
            return Err(format!("{problem} has no cells"));
        }
        Ok(cells)
    })?;
    let rankings = report.array_field("rankings")?;
    if rankings.is_empty() {
        return Err("no rankings found".into());
    }
    each(rankings, "ranking", |row| {
        has_keys(row, &STUDY_RANKING_KEYS)?;
        rate(row, "mean_success_rate")
    })?;
    Ok(cells.concat())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hotpath_doc(schema: &str, meta: &str, rows: &str) -> String {
        format!("{{\n  \"schema\": \"{schema}\",\n{meta}  \"rows\": [\n{rows}  ]\n}}\n")
    }

    const GOOD_ROW: &str = "    { \"family\": \"maxcut\", \"state\": \"software\", \"n\": 256, \
         \"nnz\": 10, \"avg_degree\": 2.0, \"iterations\": 100, \"dense_iters_per_sec\": 1e6, \
         \"local_iters_per_sec\": 9e6, \"speedup\": 9.0, \"bit_identical\": true }\n";

    const GOOD_REPLICA_ROW: &str = "    { \"lanes\": 64, \"family\": \"maxcut\", \"n\": 256, \
         \"nnz\": 10, \"avg_degree\": 2.0, \"sweeps\": 60, \"scalar_iters_per_sec\": 8e6, \
         \"packed_iters_per_sec\": 1.2e8, \"replica_speedup\": 15.0, \"bit_identical\": true }\n";

    fn v3_doc(rows: &str, replica_rows: &str) -> String {
        format!(
            "{{\n  \"schema\": \"{HOTPATH_SCHEMA}\",\n  {},\n  \"rows\": [\n{rows}  ],\n  \
             \"replica_rows\": [\n{replica_rows}  ]\n}}\n",
            ReportMeta::unknown().render()
        )
    }

    #[test]
    fn hotpath_validator_accepts_v3_and_rejects_v2_and_v1() {
        let meta = format!("  {},\n", ReportMeta::unknown().render());
        read_hotpath(&v3_doc(GOOD_ROW, GOOD_REPLICA_ROW)).expect("v3");
        // The superseded tags fail on the tag itself, even when the
        // rest of the document is well-formed.
        let v2 = hotpath_doc("hycim-hotpath/v2", &meta, GOOD_ROW);
        let v1 = hotpath_doc("hycim-hotpath/v1", "", GOOD_ROW);
        for old in [v2, v1] {
            assert!(read_hotpath(&old).unwrap_err().contains("schema tag"));
        }
    }

    #[test]
    fn hotpath_validator_rejects_malformed() {
        assert!(read_hotpath("[]").is_err());
        assert!(read_hotpath("{}").is_err(), "missing schema");
        let v3_no_meta = hotpath_doc(HOTPATH_SCHEMA, "", GOOD_ROW);
        assert!(
            read_hotpath(&v3_no_meta).unwrap_err().contains("meta"),
            "v3 requires meta"
        );
        let no_rows = v3_doc("", GOOD_REPLICA_ROW);
        assert!(read_hotpath(&no_rows).is_err(), "no rows");
        let bad = GOOD_ROW.replace("\"speedup\": 9.0", "\"speedup\": -3.0");
        assert!(read_hotpath(&v3_doc(&bad, "")).is_err(), "negative speedup");
    }

    #[test]
    fn v3_validator_checks_the_replica_block() {
        // v3 without any replica_rows key is rejected...
        let meta = format!("  {},\n", ReportMeta::unknown().render());
        let missing = hotpath_doc(HOTPATH_SCHEMA, &meta, GOOD_ROW);
        assert!(read_hotpath(&missing).unwrap_err().contains("replica_rows"));
        // ...a present-but-empty block is fine...
        read_hotpath(&v3_doc(GOOD_ROW, "")).expect("empty replica block");
        // ...and malformed replica rows are named.
        let bad_key = GOOD_REPLICA_ROW.replace("\"sweeps\"", "\"swps\"");
        assert!(read_hotpath(&v3_doc(GOOD_ROW, &bad_key))
            .unwrap_err()
            .contains("sweeps"));
        let bad_ips = GOOD_REPLICA_ROW.replace(
            "\"packed_iters_per_sec\": 1.2e8",
            "\"packed_iters_per_sec\": 0.0",
        );
        assert!(read_hotpath(&v3_doc(GOOD_ROW, &bad_ips))
            .unwrap_err()
            .contains("not positive"));
    }

    #[test]
    fn replica_rows_extract_and_tolerate_their_absence() {
        let read = read_hotpath(&v3_doc(GOOD_ROW, GOOD_REPLICA_ROW)).expect("extracts");
        assert_eq!(
            read.replica_rows,
            vec![("maxcut".to_string(), 256, 60, 1.2e8)]
        );
        // An empty replica block reads as an empty list.
        let empty = read_hotpath(&v3_doc(GOOD_ROW, "")).expect("tolerated");
        assert_eq!(empty.replica_rows, vec![]);
    }

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
        read_study(&study_doc(GOOD_CELL)).expect("valid study document");
    }

    #[test]
    fn study_validator_rejects_malformed() {
        assert!(read_study("{}").is_err(), "missing schema");
        let doc = study_doc(GOOD_CELL);
        let no_meta = doc.replace("\"meta\"", "\"nope\"");
        assert!(read_study(&no_meta).unwrap_err().contains("meta"));
        let bad_rate = doc.replace("\"success_rate\": 1.0000", "\"success_rate\": 1.5");
        assert!(read_study(&bad_rate).unwrap_err().contains("not in [0, 1]"));
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
        assert_eq!(read_study(&compact), read_study(&doc));
    }

    #[test]
    fn committed_cells_extract_with_null_objectives() {
        let cells = read_study(&study_doc(GOOD_CELL)).expect("extracts");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].problem, "qkp-d50-n10");
        assert_eq!(cells[0].engine, "software");
        assert_eq!(cells[0].success_rate, 1.0);
        assert_eq!(cells[0].best_objective, Some(-5.0));
        assert_eq!(cells[0].mean_objective, None);
    }

    #[test]
    fn hotpath_rows_extract() {
        let doc = v3_doc(GOOD_ROW, GOOD_REPLICA_ROW);
        let rows = read_hotpath(&doc).expect("extracts").rows;
        assert_eq!(rows, vec![("maxcut".to_string(), 256, 9e6)]);
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
        assert_eq!(read_study(&doc), read_study(&study_doc(GOOD_CELL)));
        let meta = Value::parse_report(&doc).unwrap().field("meta").cloned();
        assert_eq!(meta.unwrap().str_field("generated"), Ok("say \"hi\""));
    }
}
