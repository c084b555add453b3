//! Shape validation of the committed `BENCH_*.json` artifacts plus
//! the provenance `meta` block both report bins stamp.
//!
//! The harness deliberately has no JSON dependency; the artifacts are
//! emitted by string formatting and validated here by string checks —
//! schema tag, balanced delimiters, per-row required keys, and range
//! checks on the numbers the gate later compares. Both `hotpath_report`
//! and `study_report` re-read their own output through these
//! validators before writing, so CI smoke runs fail loudly on a
//! malformed report.

use std::env;

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
        let clean = |v: Result<String, env::VarError>| {
            v.ok()
                .map(|s| {
                    s.chars()
                        .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
                        .collect::<String>()
                })
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        };
        Self {
            generated: clean(env::var("SOURCE_DATE_EPOCH")),
            git: clean(env::var("HYCIM_GIT_DESCRIBE")),
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
        format!(
            "\"meta\": {{ \"generated\": \"{}\", \"git\": \"{}\" }}",
            self.generated, self.git
        )
    }
}

/// One (problem, engine) cell extracted from a committed study
/// document — the quantities the regression gate compares.
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

fn structural_checks(doc: &str) -> Result<(), String> {
    if !doc.trim_start().starts_with('{') {
        return Err("document does not start with an object".into());
    }
    for (open, close, label) in [('{', '}', "braces"), ('[', ']', "brackets")] {
        let opens = doc.matches(open).count();
        let closes = doc.matches(close).count();
        if opens != closes {
            return Err(format!(
                "unbalanced {label}: {opens} open vs {closes} close"
            ));
        }
    }
    Ok(())
}

fn schema_check(doc: &str, tag: &str) -> Result<(), String> {
    if doc.contains(&format!("\"schema\": \"{tag}\"")) {
        Ok(())
    } else {
        Err(format!("missing schema tag (expected {tag:?})"))
    }
}

fn meta_check(doc: &str) -> Result<(), String> {
    let block = doc
        .split("\"meta\": {")
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .ok_or("missing \"meta\" block")?;
    for key in ["generated", "git"] {
        if !block.contains(&format!("\"{key}\": \"")) {
            return Err(format!("meta block missing key {key:?}"));
        }
    }
    Ok(())
}

/// Splits out every row fragment starting with `marker` (e.g.
/// `{ "family":`), each truncated at its first `}` — sufficient for
/// flat rows.
fn rows<'a>(doc: &'a str, marker: &str) -> Vec<&'a str> {
    doc.split(marker)
        .skip(1)
        .map(|r| r.split('}').next().unwrap_or(""))
        .collect()
}

/// Extracts the raw token following `"key": ` in a fragment.
fn raw_field<'a>(fragment: &'a str, key: &str) -> Result<&'a str, String> {
    fragment
        .split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|rest| rest.split([',', ' ', '\n', '}', ']']).next())
        .ok_or_else(|| format!("cannot locate {key:?}"))
}

/// Extracts a required finite number.
fn number_field(fragment: &str, key: &str) -> Result<f64, String> {
    let raw = raw_field(fragment, key)?;
    let parsed: f64 = raw
        .parse()
        .map_err(|_| format!("{key} = {raw:?} is not a number"))?;
    if !parsed.is_finite() {
        return Err(format!("{key} = {parsed} is not finite"));
    }
    Ok(parsed)
}

/// Extracts a number that may be recorded as `null` (non-finite
/// values are rendered that way).
fn nullable_number_field(fragment: &str, key: &str) -> Result<Option<f64>, String> {
    let raw = raw_field(fragment, key)?;
    if raw == "null" {
        return Ok(None);
    }
    let parsed: f64 = raw
        .parse()
        .map_err(|_| format!("{key} = {raw:?} is not a number or null"))?;
    Ok(Some(parsed))
}

/// Extracts a quoted string value.
fn string_field(fragment: &str, key: &str) -> Result<String, String> {
    fragment
        .split(&format!("\"{key}\": \""))
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .map(str::to_string)
        .ok_or_else(|| format!("cannot locate string {key:?}"))
}

fn rate_field(fragment: &str, key: &str, label: &str) -> Result<f64, String> {
    let rate = number_field(fragment, key).map_err(|e| format!("{label}: {e}"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("{label}: {key} = {rate} not in [0, 1]"));
    }
    Ok(rate)
}

/// Validates the shape of an emitted `BENCH_hotpath.json` document:
/// the [`HOTPATH_SCHEMA`] tag, the `meta` provenance block, balanced
/// braces/brackets, at least one row, a `replica_rows` block, every
/// row and replica row carrying every required key, and strictly
/// positive finite throughput numbers.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_hotpath_json(doc: &str) -> Result<(), String> {
    structural_checks(doc)?;
    schema_check(doc, HOTPATH_SCHEMA)?;
    meta_check(doc)?;
    let rows_found = rows(doc, "{ \"family\":");
    if rows_found.is_empty() {
        return Err("no rows found".into());
    }
    for (idx, row) in rows_found.iter().enumerate() {
        let row = format!("\"family\":{row}");
        for key in HOTPATH_ROW_KEYS {
            if !row.contains(&format!("\"{key}\":")) {
                return Err(format!("row {idx} missing key {key:?}"));
            }
        }
        for key in ["dense_iters_per_sec", "local_iters_per_sec", "speedup"] {
            let parsed = number_field(&row, key).map_err(|e| format!("row {idx}: {e}"))?;
            if parsed <= 0.0 {
                return Err(format!("row {idx}: {key} = {parsed} is not positive"));
            }
        }
    }
    if !doc.contains("\"replica_rows\":") {
        return Err("document missing \"replica_rows\" block".into());
    }
    for (idx, row) in rows(doc, "{ \"lanes\":").iter().enumerate() {
        let row = format!("\"lanes\":{row}");
        for key in HOTPATH_REPLICA_ROW_KEYS {
            if !row.contains(&format!("\"{key}\":")) {
                return Err(format!("replica row {idx} missing key {key:?}"));
            }
        }
        for key in [
            "scalar_iters_per_sec",
            "packed_iters_per_sec",
            "replica_speedup",
        ] {
            let parsed = number_field(&row, key).map_err(|e| format!("replica row {idx}: {e}"))?;
            if parsed <= 0.0 {
                return Err(format!(
                    "replica row {idx}: {key} = {parsed} is not positive"
                ));
            }
        }
    }
    Ok(())
}

/// Validates the shape of an emitted `BENCH_study.json` document:
/// schema tag, required `meta` block, balanced delimiters, at least
/// one problem with at least one cell, every cell and ranking row
/// carrying its required keys, and rates confined to `[0, 1]`.
///
/// # Errors
///
/// Returns a human-readable description of the first violation.
pub fn validate_study_json(doc: &str) -> Result<(), String> {
    structural_checks(doc)?;
    schema_check(doc, STUDY_SCHEMA)?;
    meta_check(doc)?;
    for key in ["study", "seed", "replicas", "sweeps", "engines"] {
        if !doc.contains(&format!("\"{key}\":")) {
            return Err(format!("missing top-level key {key:?}"));
        }
    }
    let problems = rows(doc, "{ \"problem\":");
    if problems.is_empty() {
        return Err("no problems found".into());
    }
    for (idx, header) in problems.iter().enumerate() {
        let header = format!("\"problem\":{header}");
        for key in ["problem", "family", "n", "dim", "reference", "cells"] {
            if !header.contains(&format!("\"{key}\":")) {
                return Err(format!("problem {idx} missing key {key:?}"));
            }
        }
    }
    let cells = rows(doc, "{ \"engine\":");
    if cells.len() < problems.len() {
        return Err(format!(
            "{} problems but only {} cells",
            problems.len(),
            cells.len()
        ));
    }
    for (idx, cell) in cells.iter().enumerate() {
        let cell = format!("\"engine\":{cell}");
        let label = format!("cell {idx}");
        for key in STUDY_CELL_KEYS {
            if !cell.contains(&format!("\"{key}\":")) {
                return Err(format!("{label} missing key {key:?}"));
            }
        }
        rate_field(&cell, "success_rate", &label)?;
        rate_field(&cell, "feasible_rate", &label)?;
        nullable_number_field(&cell, "best_objective").map_err(|e| format!("{label}: {e}"))?;
        nullable_number_field(&cell, "mean_objective").map_err(|e| format!("{label}: {e}"))?;
    }
    let rankings = rows(doc, "{ \"rank\":");
    if rankings.is_empty() {
        return Err("no rankings found".into());
    }
    for (idx, row) in rankings.iter().enumerate() {
        let row = format!("\"rank\":{row}");
        let label = format!("ranking {idx}");
        for key in STUDY_RANKING_KEYS {
            if !row.contains(&format!("\"{key}\":")) {
                return Err(format!("{label} missing key {key:?}"));
            }
        }
        rate_field(&row, "mean_success_rate", &label)?;
    }
    Ok(())
}

/// Extracts every (problem, engine) cell of a study document — the
/// committed side of the gate's comparison. Call
/// [`validate_study_json`] first; this assumes a well-formed document.
///
/// # Errors
///
/// Returns a description of the first cell that cannot be extracted.
pub fn parse_study_cells(doc: &str) -> Result<Vec<CommittedCell>, String> {
    let mut cells = Vec::new();
    for block in doc.split("{ \"problem\":").skip(1) {
        let header = format!("\"problem\":{}", block.split('}').next().unwrap_or(""));
        let problem = string_field(&header, "problem")?;
        // The block runs until the next problem marker, so its cell
        // rows are exactly this problem's.
        for fragment in rows(block, "{ \"engine\":") {
            let fragment = format!("\"engine\":{fragment}");
            cells.push(CommittedCell {
                problem: problem.clone(),
                engine: string_field(&fragment, "engine")?,
                success_rate: rate_field(&fragment, "success_rate", &problem)?,
                best_objective: nullable_number_field(&fragment, "best_objective")
                    .map_err(|e| format!("{problem}: {e}"))?,
                mean_objective: nullable_number_field(&fragment, "mean_objective")
                    .map_err(|e| format!("{problem}: {e}"))?,
            });
        }
    }
    if cells.is_empty() {
        return Err("document contains no cells".into());
    }
    Ok(cells)
}

/// Extracts `(family, n, local_iters_per_sec)` from every row of a
/// hotpath document — the committed side of the throughput-drift
/// check.
///
/// # Errors
///
/// Returns a description of the first row that cannot be extracted.
pub fn parse_hotpath_rows(doc: &str) -> Result<Vec<(String, usize, f64)>, String> {
    let mut out = Vec::new();
    for fragment in rows(doc, "{ \"family\":") {
        let fragment = format!("\"family\":{fragment}");
        let family = string_field(&fragment, "family")?;
        let n = number_field(&fragment, "n")? as usize;
        let ips = number_field(&fragment, "local_iters_per_sec")?;
        out.push((family, n, ips));
    }
    if out.is_empty() {
        return Err("document contains no rows".into());
    }
    Ok(out)
}

/// Extracts `(family, n, sweeps, packed_iters_per_sec)` from every
/// replica row of a hotpath document — the committed side of the
/// replica-throughput drift check. The `sweeps` field lets the drift
/// probe replay the committed row's own run length (throughput is
/// sweep-count dependent: longer runs amortize setup and spend more
/// time in the draw-free cold tail). A document without replica rows
/// yields an empty list (nothing to drift against).
///
/// # Errors
///
/// Returns a description of the first replica row that cannot be
/// extracted.
pub fn parse_replica_rows(doc: &str) -> Result<Vec<(String, usize, usize, f64)>, String> {
    let mut out = Vec::new();
    for fragment in rows(doc, "{ \"lanes\":") {
        let fragment = format!("\"lanes\":{fragment}");
        let family = string_field(&fragment, "family")?;
        let n = number_field(&fragment, "n")? as usize;
        let sweeps = number_field(&fragment, "sweeps")? as usize;
        let ips = number_field(&fragment, "packed_iters_per_sec")?;
        out.push((family, n, sweeps, ips));
    }
    Ok(out)
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
        validate_hotpath_json(&v3_doc(GOOD_ROW, GOOD_REPLICA_ROW)).expect("v3");
        // The superseded tags fail on the tag itself, even when the
        // rest of the document is well-formed.
        let v2 = hotpath_doc("hycim-hotpath/v2", &meta, GOOD_ROW);
        let v1 = hotpath_doc("hycim-hotpath/v1", "", GOOD_ROW);
        for old in [v2, v1] {
            assert!(validate_hotpath_json(&old)
                .unwrap_err()
                .contains("schema tag"));
        }
    }

    #[test]
    fn hotpath_validator_rejects_malformed() {
        assert!(validate_hotpath_json("[]").is_err());
        assert!(validate_hotpath_json("{}").is_err(), "missing schema");
        let v3_no_meta = hotpath_doc(HOTPATH_SCHEMA, "", GOOD_ROW);
        assert!(
            validate_hotpath_json(&v3_no_meta)
                .unwrap_err()
                .contains("meta"),
            "v3 requires meta"
        );
        let no_rows = v3_doc("", GOOD_REPLICA_ROW);
        assert!(validate_hotpath_json(&no_rows).is_err(), "no rows");
        let bad = GOOD_ROW.replace("\"speedup\": 9.0", "\"speedup\": -3.0");
        assert!(
            validate_hotpath_json(&v3_doc(&bad, "")).is_err(),
            "negative speedup"
        );
    }

    #[test]
    fn v3_validator_checks_the_replica_block() {
        // v3 without any replica_rows key is rejected...
        let meta = format!("  {},\n", ReportMeta::unknown().render());
        let missing = hotpath_doc(HOTPATH_SCHEMA, &meta, GOOD_ROW);
        assert!(validate_hotpath_json(&missing)
            .unwrap_err()
            .contains("replica_rows"));
        // ...a present-but-empty block is fine...
        validate_hotpath_json(&v3_doc(GOOD_ROW, "")).expect("empty replica block");
        // ...and malformed replica rows are named.
        let bad_key = GOOD_REPLICA_ROW.replace("\"sweeps\"", "\"swps\"");
        assert!(validate_hotpath_json(&v3_doc(GOOD_ROW, &bad_key))
            .unwrap_err()
            .contains("sweeps"));
        let bad_ips = GOOD_REPLICA_ROW.replace(
            "\"packed_iters_per_sec\": 1.2e8",
            "\"packed_iters_per_sec\": 0.0",
        );
        assert!(validate_hotpath_json(&v3_doc(GOOD_ROW, &bad_ips))
            .unwrap_err()
            .contains("not positive"));
    }

    #[test]
    fn replica_rows_extract_and_tolerate_their_absence() {
        let rows = parse_replica_rows(&v3_doc(GOOD_ROW, GOOD_REPLICA_ROW)).expect("extracts");
        assert_eq!(rows, vec![("maxcut".to_string(), 256, 60, 1.2e8)]);
        // Pre-v3 documents have no replica rows — the parser returns
        // an empty list rather than an error.
        let v1 = hotpath_doc("hycim-hotpath/v1", "", GOOD_ROW);
        assert_eq!(parse_replica_rows(&v1).expect("tolerated"), vec![]);
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
        validate_study_json(&study_doc(GOOD_CELL)).expect("valid study document");
    }

    #[test]
    fn study_validator_rejects_malformed() {
        assert!(validate_study_json("{}").is_err(), "missing schema");
        let doc = study_doc(GOOD_CELL);
        let no_meta = doc.replace("\"meta\"", "\"nope\"");
        assert!(validate_study_json(&no_meta).unwrap_err().contains("meta"));
        let bad_rate = doc.replace("\"success_rate\": 1.0000", "\"success_rate\": 1.5");
        assert!(validate_study_json(&bad_rate)
            .unwrap_err()
            .contains("not in [0, 1]"));
        let missing_key = doc.replace("\"feasible_rate\"", "\"f_rate\"");
        assert!(validate_study_json(&missing_key)
            .unwrap_err()
            .contains("feasible_rate"));
        let no_rankings = doc.replace("\"rank\":", "\"r\":");
        assert!(validate_study_json(&no_rankings)
            .unwrap_err()
            .contains("rankings"));
        let unbalanced = format!("{doc}{{");
        assert!(validate_study_json(&unbalanced)
            .unwrap_err()
            .contains("unbalanced"));
    }

    #[test]
    fn committed_cells_extract_with_null_objectives() {
        let cells = parse_study_cells(&study_doc(GOOD_CELL)).expect("extracts");
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
        let rows = parse_hotpath_rows(&doc).expect("extracts");
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
    }
}
