//! Local execution of a shard spec: the one solve path both sides of
//! the wire share.
//!
//! A [`JobSpec`] carries everything a solve
//! needs — the problem in canonical wire text, the engine tag, the
//! settings, and every pre-derived replica seed — so "run this shard"
//! is a pure function of the spec. Workers call [`solve_any`] on their
//! pool threads; the [`Coordinator`](crate::coordinator::Coordinator)
//! calls the same function for graceful degradation when the fleet is
//! exhausted, and a local study column calls it on its own
//! [`BatchRunner`]. Because every path reduces to
//! [`BatchRunner::run_seeds`] over the same seeds, a shard solved
//! locally is byte-for-byte the shard a worker would have returned.

use hycim_core::{BatchRunner, EngineKind, EngineSettings};

use hycim_cop::{AnyProblem, CopProblem};

use crate::proto::{JobSpec, WireSolution};

/// Solves `problem` on a `kind` engine once per seed, in seed order,
/// on `runner`'s threads — the one place a type-erased problem becomes
/// an engine (built on the calling thread, so trait objects never
/// cross threads). The solutions are bit-identical for any runner
/// thread count.
///
/// # Errors
///
/// A message when the engine refuses the instance (an encoding
/// limit).
pub fn solve_any(
    runner: &BatchRunner,
    problem: &AnyProblem,
    kind: EngineKind,
    settings: &EngineSettings,
    seeds: &[u64],
) -> Result<Vec<WireSolution>, String> {
    match problem {
        AnyProblem::Qkp(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::Knapsack(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::MaxCut(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::SpinGlass(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::Tsp(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::Coloring(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::BinPack(p) => solve_typed(runner, p, kind, settings, seeds),
        AnyProblem::Mkp(p) => solve_typed(runner, p, kind, settings, seeds),
    }
}

fn solve_typed<P: CopProblem + 'static>(
    runner: &BatchRunner,
    problem: &P,
    kind: EngineKind,
    settings: &EngineSettings,
    seeds: &[u64],
) -> Result<Vec<WireSolution>, String> {
    let engine = kind.build(problem, settings).map_err(|e| e.to_string())?;
    Ok(runner
        .run_seeds(&engine, seeds)
        .iter()
        .map(WireSolution::from_solution)
        .collect())
}

/// Runs a whole spec on the local host: decode, build, solve every
/// seed serially — the coordinator's graceful-degradation path.
///
/// # Errors
///
/// A message naming what refused the spec: an unknown engine tag, a
/// problem that does not parse, or an engine that rejects the
/// instance. These are exactly the failures a worker would have
/// reported, so a spec no worker could run does not silently
/// "succeed" locally either.
pub(crate) fn solve_spec(spec: &JobSpec) -> Result<Vec<WireSolution>, String> {
    let kind = spec.engine_kind().map_err(|e| e.to_string())?;
    let problem = spec
        .decode_problem()
        .map_err(|e| format!("problem does not parse: {e}"))?;
    solve_any(
        &BatchRunner::serial(),
        &problem,
        kind,
        &spec.settings(),
        &spec.seeds,
    )
}
