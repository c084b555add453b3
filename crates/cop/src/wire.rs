//! Wire serialization for problem instances — the payload format of
//! the `hycim-net` job protocol.
//!
//! A coordinator ships *fully materialized* instances (never generator
//! specs), so a worker reconstructs exactly the instance the
//! coordinator holds without replaying any RNG: [`AnyProblem`] wraps
//! one instance of any of the eight problem families behind a stable
//! `family tag + canonical text` encoding with
//! `from_wire(tag, to_wire()) == original` as the contract (pinned by
//! round-trip proptests in `tests/properties.rs`).
//!
//! Design rules, chosen for bit-identical distributed merges:
//!
//! * **Canonical text only.** Each family has exactly one serialized
//!   form; [`AnyProblem::from_wire`] rejects non-canonical input
//!   (trailing garbage, reflowed whitespace) with a line-numbered
//!   [`CopError::ParseFailure`] rather than normalizing it.
//! * **Exact floats.** `f64` payloads (TSP distances, spin-glass
//!   couplings) travel as IEEE-754 bit patterns via
//!   [`hycim_qubo::wire::encode_f64`], so a reconstructed instance is
//!   `==` the original down to the sign of zero.
//! * **Existing formats are reused.** QKP rides the CNAM text format
//!   ([`parser::write_qkp`]) and MKP the OR-Library-style layout
//!   ([`parser::write_mkp`]); the other six families get minimal
//!   line-oriented layouts in the same spirit.

use hycim_qubo::wire::{decode_f64, encode_f64};

use crate::binpack::BinPacking;
use crate::coloring::GraphColoring;
use crate::knapsack::Knapsack;
use crate::maxcut::MaxCut;
use crate::mkp::MultiKnapsack;
use crate::parser;
use crate::spinglass::SpinGlass;
use crate::tsp::Tsp;
use crate::{CopError, CopProblem, QkpInstance};

/// One instance of any of the eight problem families, ready to cross
/// the wire.
///
/// # Example
///
/// ```
/// use hycim_cop::maxcut::MaxCut;
/// use hycim_cop::wire::AnyProblem;
///
/// let p = AnyProblem::from(MaxCut::random(8, 0.5, 1));
/// let back = AnyProblem::from_wire(p.family_tag(), &p.to_wire()).unwrap();
/// assert_eq!(back, p);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum AnyProblem {
    /// Quadratic knapsack (CNAM text payload).
    Qkp(QkpInstance),
    /// Linear 0/1 knapsack.
    Knapsack(Knapsack),
    /// Max-cut.
    MaxCut(MaxCut),
    /// Sherrington–Kirkpatrick spin glass (explicit couplings).
    SpinGlass(SpinGlass),
    /// Travelling salesperson (full distance matrix).
    Tsp(Tsp),
    /// Graph coloring.
    Coloring(GraphColoring),
    /// Bin packing.
    BinPack(BinPacking),
    /// Multi-dimensional knapsack (OR-Library-style payload).
    Mkp(MultiKnapsack),
}

impl AnyProblem {
    /// Stable family tag carried next to the payload on the wire.
    pub fn family_tag(&self) -> &'static str {
        match self {
            AnyProblem::Qkp(_) => "qkp",
            AnyProblem::Knapsack(_) => "knapsack",
            AnyProblem::MaxCut(_) => "maxcut",
            AnyProblem::SpinGlass(_) => "spinglass",
            AnyProblem::Tsp(_) => "tsp",
            AnyProblem::Coloring(_) => "coloring",
            AnyProblem::BinPack(_) => "binpack",
            AnyProblem::Mkp(_) => "mkp",
        }
    }

    /// Number of binary variables of the QUBO encoding.
    pub fn dim(&self) -> usize {
        match self {
            AnyProblem::Qkp(p) => CopProblem::dim(p),
            AnyProblem::Knapsack(p) => CopProblem::dim(p),
            AnyProblem::MaxCut(p) => CopProblem::dim(p),
            AnyProblem::SpinGlass(p) => CopProblem::dim(p),
            AnyProblem::Tsp(p) => CopProblem::dim(p),
            AnyProblem::Coloring(p) => CopProblem::dim(p),
            AnyProblem::BinPack(p) => CopProblem::dim(p),
            AnyProblem::Mkp(p) => CopProblem::dim(p),
        }
    }

    /// Reference objective from the family's exact or heuristic
    /// solver, when affordable (see
    /// [`CopProblem::reference_objective`]) — so consumers holding an
    /// instance type-erased for transport can still score against the
    /// same reference a typed run would use.
    pub fn reference_objective(&self, seed: u64) -> Option<f64> {
        match self {
            AnyProblem::Qkp(p) => p.reference_objective(seed),
            AnyProblem::Knapsack(p) => p.reference_objective(seed),
            AnyProblem::MaxCut(p) => p.reference_objective(seed),
            AnyProblem::SpinGlass(p) => p.reference_objective(seed),
            AnyProblem::Tsp(p) => p.reference_objective(seed),
            AnyProblem::Coloring(p) => p.reference_objective(seed),
            AnyProblem::BinPack(p) => p.reference_objective(seed),
            AnyProblem::Mkp(p) => p.reference_objective(seed),
        }
    }

    /// Human-readable instance name (family tag + dimensions for
    /// families without an intrinsic name).
    pub fn name(&self) -> String {
        match self {
            AnyProblem::Qkp(p) => CopProblem::name(p),
            AnyProblem::Knapsack(p) => CopProblem::name(p),
            AnyProblem::MaxCut(p) => CopProblem::name(p),
            AnyProblem::SpinGlass(p) => CopProblem::name(p),
            AnyProblem::Tsp(p) => CopProblem::name(p),
            AnyProblem::Coloring(p) => CopProblem::name(p),
            AnyProblem::BinPack(p) => CopProblem::name(p),
            AnyProblem::Mkp(p) => CopProblem::name(p),
        }
    }

    /// Canonical text payload for this instance.
    pub fn to_wire(&self) -> String {
        match self {
            AnyProblem::Qkp(p) => parser::write_qkp(p),
            AnyProblem::Mkp(p) => parser::write_mkp(p),
            AnyProblem::Knapsack(p) => {
                let mut out = format!("{} {}\n", p.num_items(), p.capacity());
                out.push_str(&join_u64(p.profits()));
                out.push('\n');
                out.push_str(&join_u64(p.weights()));
                out.push('\n');
                out
            }
            AnyProblem::MaxCut(p) => {
                let mut out = format!("{} {}\n", p.num_nodes(), p.edges().len());
                for &(u, v, w) in p.edges() {
                    out.push_str(&format!("{u} {v} {w}\n"));
                }
                out
            }
            AnyProblem::SpinGlass(p) => {
                let mut out = format!("{}\n", p.num_spins());
                out.push_str(&join_f64(p.couplings()));
                out.push('\n');
                out
            }
            AnyProblem::Tsp(p) => {
                let n = p.num_cities();
                let mut out = format!("{n}\n");
                for a in 0..n {
                    let row: Vec<String> = (0..n).map(|b| encode_f64(p.distance(a, b))).collect();
                    out.push_str(&row.join(" "));
                    out.push('\n');
                }
                out
            }
            AnyProblem::Coloring(p) => {
                let mut out = format!("{} {} {}\n", p.num_nodes(), p.num_colors(), p.edges().len());
                for &(u, v) in p.edges() {
                    out.push_str(&format!("{u} {v}\n"));
                }
                out
            }
            AnyProblem::BinPack(p) => {
                let mut out = format!("{} {} {}\n", p.num_items(), p.num_bins(), p.capacity());
                out.push_str(&join_u64(p.sizes()));
                out.push('\n');
                out
            }
        }
    }

    /// Reconstructs an instance from its family tag and canonical
    /// payload.
    ///
    /// # Errors
    ///
    /// Returns [`CopError::ParseFailure`] naming the offending 1-based
    /// payload line on an unknown tag, malformed or non-canonical
    /// text, or trailing garbage; instance-validation failures (e.g. a
    /// coupling-count mismatch) propagate unchanged.
    pub fn from_wire(tag: &str, text: &str) -> Result<Self, CopError> {
        let parsed = match tag {
            "qkp" => AnyProblem::Qkp(parser::parse_qkp(text)?),
            "mkp" => AnyProblem::Mkp(parser::parse_mkp(text)?),
            "knapsack" => {
                let mut cur = Cursor::new(text);
                let (n, capacity) = cur.pair("item count", "capacity")?;
                let profits = cur.u64_row(n as usize, "profit")?;
                let weights = cur.u64_row(n as usize, "weight")?;
                cur.finish()?;
                AnyProblem::Knapsack(Knapsack::new(profits, weights, capacity)?)
            }
            "maxcut" => {
                let mut cur = Cursor::new(text);
                let (nodes, m) = cur.pair("node count", "edge count")?;
                let edges = (0..m)
                    .map(|_| cur.edge_weighted())
                    .collect::<Result<Vec<_>, _>>()?;
                cur.finish()?;
                AnyProblem::MaxCut(MaxCut::new(nodes as usize, edges)?)
            }
            "spinglass" => {
                let mut cur = Cursor::new(text);
                let n = cur.single("spin count")? as usize;
                let pairs = n
                    .checked_mul(n.saturating_sub(1))
                    .ok_or_else(|| oversized(n, "spin"))?
                    / 2;
                let couplings = cur.f64_row(pairs, "coupling")?;
                cur.finish()?;
                AnyProblem::SpinGlass(SpinGlass::from_couplings(n, couplings)?)
            }
            "tsp" => {
                let mut cur = Cursor::new(text);
                let n = cur.single("city count")? as usize;
                n.checked_mul(n).ok_or_else(|| oversized(n, "city"))?;
                // Grows with the rows the payload supplies, never with
                // the header's count alone.
                let mut dist = Vec::new();
                for _ in 0..n {
                    dist.extend(cur.f64_row(n, "distance")?);
                }
                cur.finish()?;
                AnyProblem::Tsp(Tsp::new(n, dist)?)
            }
            "coloring" => {
                let mut cur = Cursor::new(text);
                let (nodes, colors, m) = cur.triple("node count", "color count", "edge count")?;
                let edges = (0..m)
                    .map(|_| cur.edge_unweighted())
                    .collect::<Result<Vec<_>, _>>()?;
                cur.finish()?;
                AnyProblem::Coloring(GraphColoring::new(nodes as usize, edges, colors as usize)?)
            }
            "binpack" => {
                let mut cur = Cursor::new(text);
                let (items, bins, capacity) = cur.triple("item count", "bin count", "capacity")?;
                let sizes = cur.u64_row(items as usize, "size")?;
                cur.finish()?;
                AnyProblem::BinPack(BinPacking::new(sizes, capacity, bins as usize)?)
            }
            other => {
                return Err(CopError::ParseFailure {
                    line: 0,
                    reason: format!("unknown problem family tag {other:?}"),
                })
            }
        };
        // The two delegated parsers (QKP, MKP) are whitespace-flexible
        // and don't track where they stopped; enforce canonical form —
        // and thereby reject trailing garbage — by re-serializing.
        if matches!(parsed, AnyProblem::Qkp(_) | AnyProblem::Mkp(_)) && parsed.to_wire() != text {
            return Err(CopError::ParseFailure {
                line: first_divergent_line(&parsed.to_wire(), text),
                reason: format!("non-canonical {tag} payload (reflowed or trailing text)"),
            });
        }
        Ok(parsed)
    }
}

/// The error for a header count whose derived size overflows `usize`
/// (the header is always payload line 1).
fn oversized(n: usize, what: &str) -> CopError {
    CopError::ParseFailure {
        line: 1,
        reason: format!("{what} count {n} is too large"),
    }
}

/// 1-based line where two texts first differ (for non-canonical
/// payload diagnostics).
fn first_divergent_line(canonical: &str, actual: &str) -> usize {
    let mut a = canonical.lines();
    let mut b = actual.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (a.next(), b.next()) {
            (Some(x), Some(y)) if x == y => continue,
            (None, None) => return line.saturating_sub(1).max(1),
            _ => return line,
        }
    }
}

fn join_u64(xs: &[u64]) -> String {
    xs.iter().map(u64::to_string).collect::<Vec<_>>().join(" ")
}

fn join_f64(xs: &[f64]) -> String {
    xs.iter()
        .map(|&v| encode_f64(v))
        .collect::<Vec<_>>()
        .join(" ")
}

impl From<QkpInstance> for AnyProblem {
    fn from(p: QkpInstance) -> Self {
        AnyProblem::Qkp(p)
    }
}
impl From<Knapsack> for AnyProblem {
    fn from(p: Knapsack) -> Self {
        AnyProblem::Knapsack(p)
    }
}
impl From<MaxCut> for AnyProblem {
    fn from(p: MaxCut) -> Self {
        AnyProblem::MaxCut(p)
    }
}
impl From<SpinGlass> for AnyProblem {
    fn from(p: SpinGlass) -> Self {
        AnyProblem::SpinGlass(p)
    }
}
impl From<Tsp> for AnyProblem {
    fn from(p: Tsp) -> Self {
        AnyProblem::Tsp(p)
    }
}
impl From<GraphColoring> for AnyProblem {
    fn from(p: GraphColoring) -> Self {
        AnyProblem::Coloring(p)
    }
}
impl From<BinPacking> for AnyProblem {
    fn from(p: BinPacking) -> Self {
        AnyProblem::BinPack(p)
    }
}
impl From<MultiKnapsack> for AnyProblem {
    fn from(p: MultiKnapsack) -> Self {
        AnyProblem::Mkp(p)
    }
}

/// Strict line-oriented reader over a canonical payload: every line
/// must hold exactly the expected tokens, and [`finish`](Self::finish)
/// rejects anything left over — trailing garbage is a line-numbered
/// error, never silently ignored.
struct Cursor<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Self {
            lines: text.lines().enumerate(),
        }
    }

    fn fail(line: usize, reason: String) -> CopError {
        CopError::ParseFailure { line, reason }
    }

    /// Next line's 1-based number and tokens; empty lines are errors
    /// (canonical payloads have none).
    fn row(&mut self, what: &str) -> Result<(usize, Vec<&'a str>), CopError> {
        match self.lines.next() {
            Some((idx, line)) => {
                let toks: Vec<&str> = line.split_whitespace().collect();
                if toks.is_empty() {
                    return Err(Self::fail(idx + 1, format!("blank line, expected {what}")));
                }
                Ok((idx + 1, toks))
            }
            None => Err(Self::fail(
                0,
                format!("unexpected end of payload, expected {what}"),
            )),
        }
    }

    fn fixed_row(&mut self, count: usize, what: &str) -> Result<(usize, Vec<&'a str>), CopError> {
        let (line, toks) = self.row(what)?;
        if toks.len() != count {
            return Err(Self::fail(
                line,
                format!("expected {count} {what} tokens, found {}", toks.len()),
            ));
        }
        Ok((line, toks))
    }

    fn parse_u64(line: usize, tok: &str, what: &str) -> Result<u64, CopError> {
        tok.parse::<u64>()
            .map_err(|_| Self::fail(line, format!("invalid {what} value {tok:?}")))
    }

    fn single(&mut self, what: &str) -> Result<u64, CopError> {
        let (line, toks) = self.fixed_row(1, what)?;
        Self::parse_u64(line, toks[0], what)
    }

    fn pair(&mut self, a: &str, b: &str) -> Result<(u64, u64), CopError> {
        let (line, toks) = self.fixed_row(2, "header")?;
        Ok((
            Self::parse_u64(line, toks[0], a)?,
            Self::parse_u64(line, toks[1], b)?,
        ))
    }

    fn triple(&mut self, a: &str, b: &str, c: &str) -> Result<(u64, u64, u64), CopError> {
        let (line, toks) = self.fixed_row(3, "header")?;
        Ok((
            Self::parse_u64(line, toks[0], a)?,
            Self::parse_u64(line, toks[1], b)?,
            Self::parse_u64(line, toks[2], c)?,
        ))
    }

    fn u64_row(&mut self, count: usize, what: &str) -> Result<Vec<u64>, CopError> {
        let (line, toks) = self.fixed_row(count, what)?;
        toks.iter()
            .map(|tok| Self::parse_u64(line, tok, what))
            .collect()
    }

    fn f64_row(&mut self, count: usize, what: &str) -> Result<Vec<f64>, CopError> {
        let (line, toks) = self.fixed_row(count, what)?;
        toks.iter()
            .map(|tok| {
                decode_f64(tok)
                    .ok_or_else(|| Self::fail(line, format!("invalid {what} bit-pattern {tok:?}")))
            })
            .collect()
    }

    fn edge_weighted(&mut self) -> Result<(usize, usize, u64), CopError> {
        let (line, toks) = self.fixed_row(3, "edge")?;
        Ok((
            Self::parse_u64(line, toks[0], "edge endpoint")? as usize,
            Self::parse_u64(line, toks[1], "edge endpoint")? as usize,
            Self::parse_u64(line, toks[2], "edge weight")?,
        ))
    }

    fn edge_unweighted(&mut self) -> Result<(usize, usize), CopError> {
        let (line, toks) = self.fixed_row(2, "edge")?;
        Ok((
            Self::parse_u64(line, toks[0], "edge endpoint")? as usize,
            Self::parse_u64(line, toks[1], "edge endpoint")? as usize,
        ))
    }

    /// Rejects any content after the payload (line-numbered).
    fn finish(&mut self) -> Result<(), CopError> {
        if let Some((idx, line)) = self.lines.next() {
            if !line.trim().is_empty() {
                return Err(Self::fail(
                    idx + 1,
                    format!("trailing garbage after payload: {:?}", line.trim()),
                ));
            }
            // Only a final empty fragment from a trailing newline is
            // tolerated; anything beyond it is garbage too.
            if let Some((idx2, l2)) = self.lines.next() {
                return Err(Self::fail(
                    idx2 + 1,
                    format!("trailing garbage after payload: {:?}", l2.trim()),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::QkpGenerator;
    use crate::mkp::MkpGenerator;
    use crate::solvers;

    fn samples() -> Vec<AnyProblem> {
        let _ = solvers::greedy; // keep the import graph honest
        vec![
            AnyProblem::from(QkpGenerator::new(8, 0.5).generate(1)),
            AnyProblem::from(Knapsack::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap()),
            AnyProblem::from(MaxCut::random(9, 0.4, 2)),
            AnyProblem::from(SpinGlass::random_gaussian(7, 3).unwrap()),
            AnyProblem::from(Tsp::random_euclidean(5, 10.0, 4).unwrap()),
            AnyProblem::from(GraphColoring::random(6, 0.5, 3, 5)),
            AnyProblem::from(BinPacking::new(vec![3, 5, 2, 4], 7, 3).unwrap()),
            AnyProblem::from(MkpGenerator::new(8, 2).generate(6)),
        ]
    }

    #[test]
    fn every_family_round_trips() {
        for p in samples() {
            let back = AnyProblem::from_wire(p.family_tag(), &p.to_wire())
                .unwrap_or_else(|e| panic!("{}: {e}", p.family_tag()));
            assert_eq!(back, p, "{} round trip", p.family_tag());
            assert!(p.dim() > 0);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn family_tags_are_stable_and_complete() {
        let tags: Vec<&str> = samples().iter().map(|p| p.family_tag()).collect();
        assert_eq!(
            tags,
            [
                "qkp",
                "knapsack",
                "maxcut",
                "spinglass",
                "tsp",
                "coloring",
                "binpack",
                "mkp"
            ]
        );
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let err = AnyProblem::from_wire("sudoku", "1\n").unwrap_err();
        assert!(matches!(err, CopError::ParseFailure { line: 0, .. }));
    }

    #[test]
    fn trailing_garbage_reports_its_line() {
        for p in samples() {
            let doctored = format!("{}junk\n", p.to_wire());
            let expect_line = doctored.lines().count();
            match AnyProblem::from_wire(p.family_tag(), &doctored) {
                Err(CopError::ParseFailure { line, reason }) => {
                    assert_eq!(
                        line,
                        expect_line,
                        "{}: wrong line in {reason:?}",
                        p.family_tag()
                    );
                }
                other => panic!("{}: expected parse failure, got {other:?}", p.family_tag()),
            }
        }
    }

    #[test]
    fn truncated_payloads_are_rejected() {
        for p in samples() {
            let full = p.to_wire();
            let cut = &full[..full.len() / 2];
            assert!(
                AnyProblem::from_wire(p.family_tag(), cut).is_err(),
                "{}: truncated payload accepted",
                p.family_tag()
            );
        }
    }

    #[test]
    fn hostile_header_counts_are_parse_failures() {
        for (tag, text) in [
            ("tsp", "4000000000\n"),
            ("tsp", "18446744073709551615\n"),
            ("spinglass", "6074001001\n"),
            ("spinglass", "18446744073709551615\n"),
        ] {
            assert!(
                matches!(
                    AnyProblem::from_wire(tag, text),
                    Err(CopError::ParseFailure { .. })
                ),
                "{tag} {text:?}"
            );
        }
    }

    #[test]
    fn exact_floats_survive_the_wire() {
        let tsp = Tsp::random_euclidean(6, 1.0, 9).unwrap();
        let p = AnyProblem::from(tsp.clone());
        match AnyProblem::from_wire("tsp", &p.to_wire()).unwrap() {
            AnyProblem::Tsp(back) => {
                for a in 0..6 {
                    for b in 0..6 {
                        assert_eq!(back.distance(a, b).to_bits(), tsp.distance(a, b).to_bits());
                    }
                }
            }
            other => panic!("wrong variant {other:?}"),
        }
    }
}
