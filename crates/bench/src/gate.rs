//! The BENCH regression gate: diffs a fresh gate-recipe run against
//! the committed `BENCH_study.json` within tolerance bands, and
//! re-times a small hotpath probe against `BENCH_hotpath.json`.
//!
//! Tolerance policy (see ARCHITECTURE.md "The study harness"):
//!
//! * **Quality regressions fail.** A cell's success rate dropping more
//!   than `success_drop` below the committed value, or its best/mean
//!   objective worsening by more than `objective_rel` of the committed
//!   magnitude, is a hard failure — as is a fresh cell missing from
//!   the committed document, or a finite committed objective turning
//!   non-finite.
//! * **Improvements warn.** A cell clearly beating its committed
//!   values means the artifact is stale; the gate asks for a
//!   regeneration instead of failing.
//! * **Throughput drifts warn.** Wall-clock depends on the machine, so
//!   the hotpath probe only warns when local throughput falls below
//!   `throughput_ratio` × the committed iterations/second. The same
//!   warn-only policy covers the v3 replica rows
//!   ([`replica_throughput_drift`]): packed replica throughput drifting
//!   below the ratio is advisory. The one replica check that *does*
//!   fail is bit-identity — a packed lane diverging from its scalar
//!   `replica_seed` twin is a correctness break, not machine noise.

use crate::check::{CommittedCell, CommittedHotpath};
use crate::hotpath::{family_row, replica_family_row};
use crate::stats::CellSummary;

/// Tolerance bands of the gate comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct GateTolerances {
    /// Maximum tolerated absolute success-rate drop per cell.
    pub success_drop: f64,
    /// Maximum tolerated relative objective worsening per cell
    /// (fraction of `max(|committed|, 1)`).
    pub objective_rel: f64,
    /// Throughput warning threshold: warn when fresh iterations/sec
    /// fall below this fraction of the committed value.
    pub throughput_ratio: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        Self {
            success_drop: 0.10,
            objective_rel: 0.05,
            throughput_ratio: 0.40,
        }
    }
}

/// Outcome of a gate comparison: hard failures (exit nonzero) and
/// advisory warnings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Quality regressions and structural mismatches.
    pub failures: Vec<String>,
    /// Stale-artifact and throughput-drift advisories.
    pub warnings: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes (warnings allowed).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Merges another report's findings into this one.
    pub fn merge(&mut self, other: GateReport) {
        self.failures.extend(other.failures);
        self.warnings.extend(other.warnings);
    }
}

/// A worsening beyond tolerance of a minimized objective, scaled to
/// the committed magnitude.
fn worsened(fresh: f64, committed: f64, rel: f64) -> bool {
    fresh > committed + rel * committed.abs().max(1.0)
}

/// Diffs fresh study cells against the committed cells.
///
/// Every fresh cell must find its committed counterpart by (problem
/// key, engine tag) — instance-keyed seeding makes the pairs directly
/// comparable even when the committed document came from a superset
/// recipe. Committed cells with no fresh counterpart are ignored
/// (the gate recipe is a subset by design).
pub fn diff_study_cells(
    committed: &[CommittedCell],
    fresh: &[(String, CellSummary)],
    tol: &GateTolerances,
) -> GateReport {
    let mut report = GateReport::default();
    if fresh.is_empty() {
        report.failures.push("fresh run produced no cells".into());
        return report;
    }
    for (problem, cell) in fresh {
        let label = format!("{problem}/{}", cell.engine);
        let Some(base) = committed
            .iter()
            .find(|c| &c.problem == problem && c.engine == cell.engine)
        else {
            report.failures.push(format!(
                "{label}: no committed cell — regenerate BENCH_study.json \
                 (cargo run --release -p hycim-bench --bin study_report)"
            ));
            continue;
        };
        if cell.success_rate < base.success_rate - tol.success_drop {
            report.failures.push(format!(
                "{label}: success rate {:.4} fell below committed {:.4} (tolerance {:.2})",
                cell.success_rate, base.success_rate, tol.success_drop
            ));
        } else if cell.success_rate > base.success_rate + tol.success_drop {
            report.warnings.push(format!(
                "{label}: success rate improved {:.4} -> {:.4}; regenerate BENCH_study.json",
                base.success_rate, cell.success_rate
            ));
        }
        for (what, fresh_v, base_v) in [
            ("best objective", cell.best_objective, base.best_objective),
            ("mean objective", cell.mean_objective, base.mean_objective),
        ] {
            match base_v {
                None => {} // committed null: nothing to regress against
                Some(base_v) if !fresh_v.is_finite() => {
                    report.failures.push(format!(
                        "{label}: {what} turned non-finite (committed {base_v:.4})"
                    ));
                }
                Some(base_v) if worsened(fresh_v, base_v, tol.objective_rel) => {
                    report.failures.push(format!(
                        "{label}: {what} worsened {base_v:.4} -> {fresh_v:.4} \
                         (tolerance {:.0}%)",
                        100.0 * tol.objective_rel
                    ));
                }
                Some(base_v) if worsened(base_v, fresh_v, tol.objective_rel) => {
                    report.warnings.push(format!(
                        "{label}: {what} improved {base_v:.4} -> {fresh_v:.4}; \
                         regenerate BENCH_study.json"
                    ));
                }
                Some(_) => {}
            }
        }
    }
    report
}

/// Re-times one small hotpath cell per committed probe family and
/// warns when local throughput drifted below the tolerance ratio.
/// Probe cells use the same generation parameters as the
/// `hotpath_report` defaults, at the smallest committed size, so the
/// comparison is like-for-like.
pub fn throughput_drift(committed: &CommittedHotpath, tol: &GateTolerances) -> GateReport {
    let mut report = GateReport::default();
    for family in ["maxcut", "spinglass"] {
        let Some((_, n, committed_ips)) = committed
            .rows
            .iter()
            .filter(|(f, _, _)| f == family)
            .min_by_key(|(_, n, _)| *n)
            .cloned()
        else {
            continue;
        };
        let fresh = family_row(family, n, 60, 1, 0.05, 0.25);
        if fresh.local_ips < tol.throughput_ratio * committed_ips {
            report.warnings.push(format!(
                "{family} n={n}: local throughput {:.0} it/s below {:.0}% of committed {:.0} \
                 (machine-dependent; advisory only)",
                fresh.local_ips,
                100.0 * tol.throughput_ratio,
                committed_ips
            ));
        }
    }
    report
}

/// Re-times one small packed-vs-scalar replica cell per committed
/// replica-row family and warns when the packed replica throughput
/// drifted below the tolerance ratio. **Warn-only by design**: replica
/// throughput is as machine-dependent as the scalar hotpath numbers,
/// so like [`throughput_drift`] its drift never contributes a
/// failure.
pub fn replica_throughput_drift(committed: &CommittedHotpath, tol: &GateTolerances) -> GateReport {
    let mut report = GateReport::default();
    for family in ["maxcut", "spinglass"] {
        let Some((_, n, sweeps, committed_ips)) = committed
            .replica_rows
            .iter()
            .filter(|(f, _, _, _)| f == family)
            .min_by_key(|(_, n, _, _)| *n)
            .cloned()
        else {
            continue;
        };
        // Replay the committed row's own sweep count: packed
        // throughput rises with run length (setup amortization, the
        // draw-free cold tail), so a shorter probe would chronically
        // under-read the committed number.
        let fresh = replica_family_row(family, n, sweeps, 1, 0.05, 0.25);
        if fresh.packed_ips < tol.throughput_ratio * committed_ips {
            report.warnings.push(format!(
                "{family} n={n}: packed replica throughput {:.0} it/s below {:.0}% of \
                 committed {:.0} (machine-dependent; advisory only)",
                fresh.packed_ips,
                100.0 * tol.throughput_ratio,
                committed_ips
            ));
        }
        if !fresh.bit_identical {
            report.failures.push(format!(
                "{family} n={n}: packed lanes diverged from their scalar replica_seed twins"
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(problem: &str, engine: &str, success: f64, best: f64, mean: f64) -> CommittedCell {
        CommittedCell {
            problem: problem.into(),
            engine: engine.into(),
            success_rate: success,
            best_objective: Some(best),
            mean_objective: Some(mean),
        }
    }

    fn fresh(
        problem: &str,
        engine: &str,
        success: f64,
        best: f64,
        mean: f64,
    ) -> (String, CellSummary) {
        (
            problem.into(),
            CellSummary {
                engine: engine.into(),
                success_rate: success,
                feasible_rate: 1.0,
                best_objective: best,
                mean_objective: mean,
                mean_iters_to_best: 1.0,
                iterations: 10,
            },
        )
    }

    #[test]
    fn identical_cells_pass_cleanly() {
        let base = vec![committed("p", "hycim", 0.8, -10.0, -9.0)];
        let run = vec![fresh("p", "hycim", 0.8, -10.0, -9.0)];
        let report = diff_study_cells(&base, &run, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn doctored_success_rate_fails_the_gate() {
        // The committed file claims a success rate the fresh run can't
        // reach (the CI doctoring scenario: sed inflating a committed
        // 0.6 to 1.0 makes the honest 0.6 look like a regression).
        let base = vec![committed("p", "dqubo", 1.0, -10.0, -9.0)];
        let run = vec![fresh("p", "dqubo", 0.6, -10.0, -9.0)];
        let report = diff_study_cells(&base, &run, &GateTolerances::default());
        assert!(!report.passed());
        assert!(report.failures[0].contains("success rate"));
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let base = vec![committed("p", "hycim", 0.9, -10.0, -9.5)];
        let run = vec![fresh("p", "hycim", 0.85, -9.8, -9.4)];
        let report = diff_study_cells(&base, &run, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
    }

    #[test]
    fn objective_worsening_beyond_tolerance_fails() {
        let base = vec![committed("p", "bank", 1.0, -100.0, -95.0)];
        let run = vec![fresh("p", "bank", 1.0, -90.0, -85.0)];
        let report = diff_study_cells(&base, &run, &GateTolerances::default());
        assert_eq!(report.failures.len(), 2, "{:?}", report.failures);
        assert!(report.failures[0].contains("best objective worsened"));
    }

    #[test]
    fn improvements_warn_to_regenerate() {
        let base = vec![committed("p", "hycim", 0.5, -90.0, -85.0)];
        let run = vec![fresh("p", "hycim", 0.9, -100.0, -95.0)];
        let report = diff_study_cells(&base, &run, &GateTolerances::default());
        assert!(report.passed());
        assert_eq!(report.warnings.len(), 3, "{:?}", report.warnings);
        assert!(report.warnings.iter().all(|w| w.contains("regenerate")));
    }

    #[test]
    fn missing_committed_cell_fails() {
        let report = diff_study_cells(
            &[],
            &[fresh("p", "hycim", 1.0, -1.0, -1.0)],
            &GateTolerances::default(),
        );
        assert!(!report.passed());
        assert!(report.failures[0].contains("no committed cell"));
    }

    #[test]
    fn non_finite_fresh_objective_fails_against_finite_committed() {
        let base = vec![committed("p", "dqubo", 0.0, -5.0, -5.0)];
        let run = vec![fresh("p", "dqubo", 0.0, f64::INFINITY, f64::INFINITY)];
        let report = diff_study_cells(&base, &run, &GateTolerances::default());
        assert_eq!(report.failures.len(), 2);
        assert!(report.failures[0].contains("non-finite"));
        // But a committed null tolerates anything.
        let base_null = vec![CommittedCell {
            best_objective: None,
            mean_objective: None,
            ..base[0].clone()
        }];
        assert!(diff_study_cells(&base_null, &run, &GateTolerances::default()).passed());
    }

    fn replica_ips(ips: f64) -> CommittedHotpath {
        CommittedHotpath {
            rows: vec![],
            replica_rows: vec![("maxcut".into(), 16, 30, ips)],
        }
    }

    #[test]
    fn doctored_replica_throughput_warns_but_never_fails() {
        // The CI doctoring scenario: a committed packed throughput
        // inflated far beyond what any machine reaches. The drift is
        // advisory — warnings, zero failures.
        let doctored = replica_ips(1e15);
        let report = replica_throughput_drift(&doctored, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert_eq!(report.warnings.len(), 1, "{:?}", report.warnings);
        assert!(report.warnings[0].contains("packed replica throughput"));
        assert!(report.warnings[0].contains("advisory only"));
    }

    #[test]
    fn honest_replica_throughput_passes_silently() {
        // A committed value low enough that any machine beats it.
        let honest = replica_ips(1.0);
        let report = replica_throughput_drift(&honest, &GateTolerances::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn merge_concatenates_findings() {
        let mut a = GateReport {
            failures: vec!["f1".into()],
            warnings: vec![],
        };
        a.merge(GateReport {
            failures: vec!["f2".into()],
            warnings: vec!["w1".into()],
        });
        assert_eq!(a.failures.len(), 2);
        assert_eq!(a.warnings.len(), 1);
        assert!(!a.passed());
    }
}
