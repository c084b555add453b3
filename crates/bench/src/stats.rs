//! Study statistics: the one reference fold every success score goes
//! through, the Fig. 10 success tally of the QKP report bins,
//! per-(problem, engine) cell summaries and the kurobako-style
//! cross-problem engine rankings (success rates, Borda points,
//! best/worst counts) the `study_report` bin emits.

use hycim_cop::CopProblem;
use hycim_core::{objective_success, BatchRunner, Engine};

use crate::mean;

/// The reference objective (minimization convention) runs are scored
/// against: the problem's exact/heuristic `reference` folded with the
/// best feasible `(objective, feasible)` run — the runs may beat the
/// heuristic. Infeasible runs never lower it; with no reference and
/// no feasible run it is `+inf`, so nothing scores as a success.
pub fn fold_reference(reference: Option<f64>, runs: impl IntoIterator<Item = (f64, bool)>) -> f64 {
    let best_seen = runs
        .into_iter()
        .filter(|&(_, feasible)| feasible)
        .map(|(objective, _)| objective)
        .fold(f64::INFINITY, f64::min);
    reference.unwrap_or(f64::INFINITY).min(best_seen)
}

/// The paper's Fig. 10 tally over a set of instances: every run's
/// normalized value, and how many runs succeeded (feasible and within
/// 5% of the reference) or ended infeasible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SuccessTally {
    /// Normalized value of every run (1 = matched the reference), in
    /// instance order then replica order — the full Fig. 10 scatter.
    pub normalized: Vec<f64>,
    /// Runs within 5% of their instance reference and feasible.
    pub successes: usize,
    /// Runs that ended infeasible (D-QUBO trapping).
    pub infeasible: usize,
}

impl SuccessTally {
    /// Runs the Fig. 10 protocol over `engines` (one per instance):
    /// `replicas` starts each through [`BatchRunner::run_grid`], then
    /// instance `idx` is scored against [`fold_reference`] of its
    /// problem reference at seed `seed + idx` and that engine's own
    /// runs. Scoring re-runs the reference heuristic per instance, so
    /// it runs on the runner's threads too. Deterministic in `seed`
    /// for any thread count.
    pub fn measure<P, E>(engines: &[E], replicas: usize, seed: u64, runner: &BatchRunner) -> Self
    where
        P: CopProblem,
        E: Engine<P>,
    {
        let grid = runner.run_grid(engines, replicas, seed);
        let scored = runner.map_indexed(engines.len(), |idx| {
            let runs = &grid[idx];
            let reference = fold_reference(
                engines[idx]
                    .problem()
                    .reference_objective(seed + idx as u64),
                runs.iter().map(|s| (s.objective, s.feasible)),
            );
            runs.iter()
                .map(|s| {
                    let success = s.objective_success(reference);
                    (s.normalized_objective(reference), success, s.feasible)
                })
                .collect::<Vec<_>>()
        });
        let runs = scored.concat();
        Self {
            normalized: runs.iter().map(|r| r.0).collect(),
            successes: runs.iter().filter(|r| r.1).count(),
            infeasible: runs.iter().filter(|r| !r.2).count(),
        }
    }

    /// Success rate over all runs, in percent (the paper's headline
    /// 98.54% / 10.75%); 0 for an empty tally.
    pub fn success_rate(&self) -> f64 {
        self.percent(self.successes)
    }

    /// Share of runs ending infeasible, in percent.
    pub fn infeasible_rate(&self) -> f64 {
        self.percent(self.infeasible)
    }

    fn percent(&self, count: usize) -> f64 {
        if self.normalized.is_empty() {
            return 0.0;
        }
        100.0 * count as f64 / self.normalized.len() as f64
    }
}

/// Aggregate of one (problem, engine) cell: `replicas` solves scored
/// against the problem's reference objective. Every field except
/// means-of-wall-clock (deliberately absent) is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSummary {
    /// Engine backend tag (`"software"`, `"hycim"`, `"bank"`,
    /// `"dqubo"`).
    pub engine: String,
    /// Fraction of replicas within 5% of the reference and feasible
    /// (the paper's success criterion), in `[0, 1]`.
    pub success_rate: f64,
    /// Fraction of replicas ending feasible, in `[0, 1]`.
    pub feasible_rate: f64,
    /// Best (minimum) objective over the replicas; `+inf` when no
    /// replica produced a finite objective.
    pub best_objective: f64,
    /// Mean objective over the replicas (non-finite when any replica
    /// ended at `+inf`; rendered as `null` in JSON).
    pub mean_objective: f64,
    /// Mean annealing iterations until each replica first reached its
    /// best energy — the deterministic stand-in for time-to-target.
    pub mean_iters_to_best: f64,
    /// Total annealing iterations the cell executed.
    pub iterations: u64,
}

/// All engines' summaries on one problem instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSummary {
    /// Canonical instance key (`"qkp-d50-n14"`, …).
    pub problem: String,
    /// Family tag (`"qkp"`, `"maxcut"`, …).
    pub family: String,
    /// Instance size parameter (items / vertices / cities).
    pub n: usize,
    /// Encoded QUBO dimension.
    pub dim: usize,
    /// Reference objective the cells are scored against (problem
    /// reference folded with the best feasible solve of any engine on
    /// this problem).
    pub reference: f64,
    /// One summary per engine, in recipe engine order.
    pub cells: Vec<CellSummary>,
}

/// Cross-problem aggregate of one engine: the ranking row.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRanking {
    /// Engine backend tag.
    pub engine: String,
    /// Problems this engine was ranked on.
    pub problems: usize,
    /// Mean per-problem success rate, in `[0, 1]`.
    pub mean_success_rate: f64,
    /// Borda points: on each problem an engine ranked `r` of `k`
    /// engines scores `k − r` points; summed over problems.
    pub borda: usize,
    /// Problems where this engine ranked first (ties share first).
    pub best_count: usize,
    /// Problems where this engine ranked last (ties share last; when
    /// every engine ties, all are both best and worst).
    pub worst_count: usize,
}

/// Competition ranks (1-based) of the cells on one problem. A cell
/// outranks another by higher success rate, then lower best objective,
/// then lower mean objective; full ties share a rank.
pub fn rank_cells(cells: &[CellSummary]) -> Vec<usize> {
    fn beats(a: &CellSummary, b: &CellSummary) -> bool {
        if a.success_rate != b.success_rate {
            return a.success_rate > b.success_rate;
        }
        match a.best_objective.total_cmp(&b.best_objective) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => {
                a.mean_objective.total_cmp(&b.mean_objective) == std::cmp::Ordering::Less
            }
        }
    }
    cells
        .iter()
        .map(|c| 1 + cells.iter().filter(|o| beats(o, c)).count())
        .collect()
}

/// Folds per-problem summaries into one ranking row per engine,
/// ordered best-first (Borda, then best-count, then mean success rate,
/// then engine tag — all deterministic).
pub fn rank_engines(problems: &[ProblemSummary]) -> Vec<EngineRanking> {
    let mut order: Vec<String> = Vec::new();
    for p in problems {
        for c in &p.cells {
            if !order.contains(&c.engine) {
                order.push(c.engine.clone());
            }
        }
    }
    let mut rankings: Vec<EngineRanking> = order
        .into_iter()
        .map(|engine| EngineRanking {
            engine,
            problems: 0,
            mean_success_rate: 0.0,
            borda: 0,
            best_count: 0,
            worst_count: 0,
        })
        .collect();
    for p in problems {
        let ranks = rank_cells(&p.cells);
        let k = p.cells.len();
        let last = ranks.iter().copied().max().unwrap_or(1);
        for (cell, rank) in p.cells.iter().zip(&ranks) {
            let row = rankings
                .iter_mut()
                .find(|r| r.engine == cell.engine)
                .expect("engine registered above");
            row.problems += 1;
            row.mean_success_rate += cell.success_rate;
            row.borda += k - rank;
            if *rank == 1 {
                row.best_count += 1;
            }
            if *rank == last {
                row.worst_count += 1;
            }
        }
    }
    for row in &mut rankings {
        if row.problems > 0 {
            row.mean_success_rate /= row.problems as f64;
        }
    }
    rankings.sort_by(|a, b| {
        b.borda
            .cmp(&a.borda)
            .then(b.best_count.cmp(&a.best_count))
            .then(b.mean_success_rate.total_cmp(&a.mean_success_rate))
            .then(a.engine.cmp(&b.engine))
    });
    rankings
}

/// One replica's scoring inputs: `(objective, feasible,
/// iters_to_best, iterations)`.
pub type RunScore = (f64, bool, usize, usize);

/// Builds one cell summary from per-replica scores, counting a
/// success by [`objective_success`] against the folded `reference`.
///
/// `runs` is in replica order (so the means are order-stable and
/// bit-identical across thread counts).
pub fn summarize_cell(engine: &str, reference: f64, runs: &[RunScore]) -> CellSummary {
    let replicas = runs.len().max(1) as f64;
    let objectives: Vec<f64> = runs.iter().map(|r| r.0).collect();
    let successes = runs
        .iter()
        .filter(|r| objective_success(r.0, r.1, reference))
        .count();
    CellSummary {
        engine: engine.to_string(),
        success_rate: successes as f64 / replicas,
        feasible_rate: runs.iter().filter(|r| r.1).count() as f64 / replicas,
        best_objective: objectives.iter().copied().fold(f64::INFINITY, f64::min),
        mean_objective: mean(&objectives),
        mean_iters_to_best: mean(&runs.iter().map(|r| r.2 as f64).collect::<Vec<_>>()),
        iterations: runs.iter().map(|r| r.3 as u64).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;
    use hycim_cop::maxcut::MaxCut;
    use hycim_core::{DquboConfig, DquboEngine, HyCimConfig, HyCimEngine};

    #[test]
    fn fold_reference_takes_the_best_feasible_run() {
        let runs = [(-90.0, true), (-120.0, false), (-95.0, true)];
        // A feasible run beats the heuristic; the better infeasible
        // run never counts.
        assert_eq!(fold_reference(Some(-92.0), runs), -95.0);
        assert_eq!(fold_reference(Some(-100.0), runs), -100.0);
        // No reference: the best feasible run is the reference.
        assert_eq!(fold_reference(None, runs), -95.0);
        // No reference and nothing feasible: nothing can succeed.
        assert_eq!(
            fold_reference(None, [(-120.0, false), (-7.0, false)]),
            f64::INFINITY
        );
        assert_eq!(fold_reference(Some(3.0), []), 3.0);
    }

    #[test]
    fn success_tally_aggregate_rates() {
        // Two instances of two runs each, flattened in instance
        // order: 3 of 4 runs succeed, 1 ends infeasible.
        let tally = SuccessTally {
            normalized: vec![1.0, 0.5, 1.0, 1.0],
            successes: 3,
            infeasible: 1,
        };
        assert!((tally.success_rate() - 75.0).abs() < 1e-12);
        assert!((tally.infeasible_rate() - 25.0).abs() < 1e-12);
        assert_eq!(tally.normalized.len(), 4);
        assert_eq!(SuccessTally::default().success_rate(), 0.0);
    }

    #[test]
    fn success_tally_flattens_in_instance_order() {
        let config = HyCimConfig::default().with_sweeps(40);
        let engines: Vec<_> = (0..3)
            .map(|seed| {
                let inst = QkpGenerator::new(12, 0.5).generate(seed);
                HyCimEngine::new(&inst, &config, seed).unwrap()
            })
            .collect();
        let runner = BatchRunner::new().with_threads(2);
        let tally = SuccessTally::measure(&engines, 2, 4, &runner);
        let grid = BatchRunner::serial().run_grid(&engines, 2, 4);
        let mut expected = Vec::new();
        for (idx, runs) in grid.iter().enumerate() {
            let reference = fold_reference(
                engines[idx].problem().reference_objective(4 + idx as u64),
                runs.iter().map(|s| (s.objective, s.feasible)),
            );
            expected.extend(runs.iter().map(|s| s.normalized_objective(reference)));
        }
        assert_eq!(tally.normalized, expected);
    }

    #[test]
    fn hycim_tally_on_small_set() {
        let inst = QkpGenerator::new(25, 0.5).generate(1);
        // A positive best-known value: the QKP reference is a profit.
        assert!(inst.reference_objective(1).unwrap() < 0.0);
        let engine = HyCimEngine::new(&inst, &HyCimConfig::default().with_sweeps(150), 1).unwrap();
        assert_eq!(engine.backend(), "hycim");
        let tally = SuccessTally::measure(&[engine], 5, 1, &BatchRunner::serial());
        assert_eq!(tally.normalized.len(), 5);
        assert!(
            tally.success_rate() >= 80.0,
            "rate {}",
            tally.success_rate()
        );
        assert_eq!(tally.infeasible, 0);
    }

    #[test]
    fn dqubo_tally_stays_normalized() {
        let inst = QkpGenerator::new(25, 0.5).generate(2);
        let engine = DquboEngine::new(&inst, &DquboConfig::default().with_sweeps(50)).unwrap();
        let tally = SuccessTally::measure(&[engine], 5, 2, &BatchRunner::serial());
        assert_eq!(tally.normalized.len(), 5);
        // All values within [0, ~1].
        assert!(tally.normalized.iter().all(|&v| (0.0..=1.001).contains(&v)));
    }

    #[test]
    fn generic_tally_runs_maxcut() {
        let graph = MaxCut::random(14, 0.5, 3);
        let engine = HyCimEngine::new(&graph, &HyCimConfig::default().with_sweeps(200), 3).unwrap();
        let runner = BatchRunner::new().with_threads(2);
        let tally = SuccessTally::measure(&[engine], 4, 3, &runner);
        assert_eq!(tally.normalized.len(), 4);
        assert!(
            tally.success_rate() > 0.0,
            "no run reached 95% of the cut reference"
        );
    }

    fn cell(engine: &str, success: f64, best: f64, mean_obj: f64) -> CellSummary {
        CellSummary {
            engine: engine.into(),
            success_rate: success,
            feasible_rate: 1.0,
            best_objective: best,
            mean_objective: mean_obj,
            mean_iters_to_best: 10.0,
            iterations: 100,
        }
    }

    fn problem(name: &str, cells: Vec<CellSummary>) -> ProblemSummary {
        ProblemSummary {
            problem: name.into(),
            family: "qkp".into(),
            n: 10,
            dim: 10,
            reference: -1.0,
            cells,
        }
    }

    /// The hand-computed 3-engine × 3-problem fixture: every rank,
    /// Borda point, and best/worst count derived on paper first.
    #[test]
    fn hand_computed_three_by_three_table() {
        let problems = vec![
            // P1: A wins on success; B and C tie on success, B's best
            // objective breaks the tie.
            problem(
                "p1",
                vec![
                    cell("software", 1.0, -10.0, -9.0),
                    cell("hycim", 0.5, -10.0, -9.0),
                    cell("bank", 0.5, -9.0, -9.0),
                ],
            ),
            // P2: all succeed; best objective orders B first, then the
            // mean objective splits A from C.
            problem(
                "p2",
                vec![
                    cell("software", 1.0, -5.0, -5.0),
                    cell("hycim", 1.0, -6.0, -5.0),
                    cell("bank", 1.0, -5.0, -4.0),
                ],
            ),
            // P3: C alone succeeds sometimes; A and B tie fully and
            // share both rank 2 and "worst".
            problem(
                "p3",
                vec![
                    cell("software", 0.0, -1.0, -1.0),
                    cell("hycim", 0.0, -1.0, -1.0),
                    cell("bank", 0.2, -1.0, -1.0),
                ],
            ),
        ];

        assert_eq!(rank_cells(&problems[0].cells), vec![1, 2, 3]);
        assert_eq!(rank_cells(&problems[1].cells), vec![2, 1, 3]);
        assert_eq!(rank_cells(&problems[2].cells), vec![2, 2, 1]);

        let rankings = rank_engines(&problems);
        assert_eq!(rankings.len(), 3);
        // Borda = k − competition rank, so P3's shared rank 2 pays
        // 1 point to each tied engine:
        // software: Borda 2+1+1 = 4, best P1, worst P3(shared).
        // hycim:    Borda 1+2+1 = 4, best P2, worst P3(shared).
        // bank:     Borda 0+0+2 = 2, best P3, worst P1 and P2.
        // Borda ties between software and hycim break on best-count
        // (tied at 1) then mean success (2/3 vs 1/2).
        let by_name = |tag: &str| rankings.iter().find(|r| r.engine == tag).unwrap();
        let (sw, hy, bk) = (by_name("software"), by_name("hycim"), by_name("bank"));
        assert_eq!((sw.borda, sw.best_count, sw.worst_count), (4, 1, 1));
        assert_eq!((hy.borda, hy.best_count, hy.worst_count), (4, 1, 1));
        assert_eq!((bk.borda, bk.best_count, bk.worst_count), (2, 1, 2));
        assert!((sw.mean_success_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((hy.mean_success_rate - 0.5).abs() < 1e-12);
        assert!((bk.mean_success_rate - 1.7 / 3.0).abs() < 1e-12);
        let order: Vec<&str> = rankings.iter().map(|r| r.engine.as_str()).collect();
        assert_eq!(order, vec!["software", "hycim", "bank"]);
        assert!(rankings.iter().all(|r| r.problems == 3));
    }

    #[test]
    fn full_tie_makes_everyone_best_and_worst() {
        let p = problem(
            "tied",
            vec![cell("a", 1.0, -2.0, -2.0), cell("b", 1.0, -2.0, -2.0)],
        );
        assert_eq!(rank_cells(&p.cells), vec![1, 1]);
        let rankings = rank_engines(&[p]);
        for r in &rankings {
            assert_eq!((r.borda, r.best_count, r.worst_count), (1, 1, 1));
        }
    }

    #[test]
    fn infinite_objectives_rank_last() {
        let cells = vec![
            cell("finite", 0.0, -3.0, -3.0),
            cell("stuck", 0.0, f64::INFINITY, f64::INFINITY),
        ];
        assert_eq!(rank_cells(&cells), vec![1, 2]);
    }

    #[test]
    fn summarize_cell_aggregates_in_replica_order() {
        // Against reference -10, only the first replica is within 5%.
        let scores = [
            (-10.0, true, 40, 100),
            (-8.0, true, 90, 100),
            (f64::INFINITY, false, 0, 100),
        ];
        let c = summarize_cell("hycim", -10.0, &scores);
        assert!((c.success_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.feasible_rate - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.best_objective, -10.0);
        assert!(c.mean_objective.is_infinite());
        assert!((c.mean_iters_to_best - 130.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.iterations, 300);
    }
}
