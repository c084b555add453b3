//! Declarative study recipes: the problem-family × size × engine grid
//! a benchmark study runs, as a small line-based text format with a
//! hand-rolled parser (the harness stays dependency-free).
//!
//! # Grammar
//!
//! One directive per line; `#` starts a comment; blank lines ignored.
//!
//! ```text
//! study <name>                      # required, once
//! seed <u64>                        # required, once
//! replicas <count>                  # required, once
//! sweeps <count>                    # required, once
//! engines <tag>[,<tag>...]          # required, once; software|hycim|bank|dqubo
//! problem <family> sizes=<n>[,<n>...] [param=value ...]   # one or more
//! ```
//!
//! Families and their parameters: `qkp density=<pct>`,
//! `maxcut density=<pct>`, `coloring colors=<k>`, `binpack bins=<k>`,
//! `mkp dims=<k>`, and parameter-free `knapsack`, `spinglass`, `tsp`.
//! Omitted parameters take family defaults, so
//! `parse(format(r)) == r` holds for every valid recipe (the
//! round-trip law the property suite pins).
//!
//! Seeding is **instance-keyed, not positional**: every instance's
//! seeds derive from its instance key (the JSON `problem` field, e.g.
//! `qkp-d25-n10`) and the study seed, so a sub-recipe (the `gate`
//! preset) reproduces the exact cells of a superset recipe
//! bit-identically.

use std::fmt;

use hycim_core::replica_seed;
// The backend vocabulary moved to `hycim-core` (the wire protocol
// needs it without depending on the harness); re-exported here so
// recipe users keep one import path.
pub use hycim_core::EngineKind;

/// A problem family plus its family-specific parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Quadratic knapsack (`density` = pair-profit density percent).
    Qkp {
        /// Pair-profit density in percent (1–100).
        density_pct: u32,
    },
    /// Linear 0/1 knapsack.
    Knapsack,
    /// Max-cut (`density` = edge density percent).
    MaxCut {
        /// Edge density in percent (1–100).
        density_pct: u32,
    },
    /// ±1-coupling spin glass.
    SpinGlass,
    /// Euclidean travelling salesman (size = cities; dim = n²).
    Tsp,
    /// Graph coloring (`colors` = palette size).
    Coloring {
        /// Number of available colors (≥ 2).
        colors: u32,
    },
    /// Bin packing (`bins` = bin count).
    BinPack {
        /// Number of bins (≥ 1).
        bins: u32,
    },
    /// Multi-dimensional knapsack (`dims` = constraint dimensions).
    Mkp {
        /// Number of knapsack constraint dimensions (≥ 1).
        dims: u32,
    },
}

impl Family {
    /// The recipe/JSON tag of this family.
    pub fn tag(&self) -> &'static str {
        match self {
            Family::Qkp { .. } => "qkp",
            Family::Knapsack => "knapsack",
            Family::MaxCut { .. } => "maxcut",
            Family::SpinGlass => "spinglass",
            Family::Tsp => "tsp",
            Family::Coloring { .. } => "coloring",
            Family::BinPack { .. } => "binpack",
            Family::Mkp { .. } => "mkp",
        }
    }

    /// Canonical `param=value` suffix (empty for parameter-free
    /// families).
    fn params(&self) -> String {
        match self {
            Family::Qkp { density_pct } | Family::MaxCut { density_pct } => {
                format!(" density={density_pct}")
            }
            Family::Coloring { colors } => format!(" colors={colors}"),
            Family::BinPack { bins } => format!(" bins={bins}"),
            Family::Mkp { dims } => format!(" dims={dims}"),
            Family::Knapsack | Family::SpinGlass | Family::Tsp => String::new(),
        }
    }
}

/// One `problem` line of a recipe: a family swept over sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySpec {
    /// The family and its parameters.
    pub family: Family,
    /// Instance sizes to generate (items / vertices / spins / cities).
    pub sizes: Vec<usize>,
}

impl FamilySpec {
    /// Canonical, position-independent key of one (family, params, n)
    /// instance — the JSON `problem` field and the root of all seed
    /// derivation, so the same instance key always means the same
    /// instance and the same solve seeds in any recipe.
    fn instance_key(&self, n: usize) -> String {
        match self.family {
            Family::Qkp { density_pct } => format!("qkp-d{density_pct}-n{n}"),
            Family::Knapsack => format!("knapsack-n{n}"),
            Family::MaxCut { density_pct } => format!("maxcut-d{density_pct}-n{n}"),
            Family::SpinGlass => format!("spinglass-n{n}"),
            Family::Tsp => format!("tsp-n{n}"),
            Family::Coloring { colors } => format!("coloring-c{colors}-n{n}"),
            Family::BinPack { bins } => format!("binpack-b{bins}-n{n}"),
            Family::Mkp { dims } => format!("mkp-m{dims}-n{n}"),
        }
    }
}

/// A parse or validation error, pointing at the offending line
/// (1-based; line 0 = a document-level problem such as a missing
/// directive).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecipeError {
    /// 1-based line number, or 0 for document-level errors.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for RecipeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "recipe: {}", self.msg)
        } else {
            write!(f, "recipe line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for RecipeError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, RecipeError> {
    Err(RecipeError {
        line,
        msg: msg.into(),
    })
}

/// A declarative benchmark study: the full replica × problem × engine
/// grid plus its iteration budget and seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyRecipe {
    /// Study name (one `[a-z0-9_-]+` token).
    pub name: String,
    /// Study root seed every instance/solve seed derives from.
    pub seed: u64,
    /// Monte-Carlo replicas per (problem, engine) cell.
    pub replicas: usize,
    /// Annealing sweeps per solve (iterations = sweeps × dim).
    pub sweeps: usize,
    /// Engine columns, in recipe order (no duplicates).
    pub engines: Vec<EngineKind>,
    /// Problem rows, in recipe order.
    pub problems: Vec<FamilySpec>,
}

impl StudyRecipe {
    /// Built-in preset names, canonical order.
    pub const PRESETS: [&'static str; 3] = ["micro", "gate", "default"];

    /// Looks up a built-in preset recipe.
    ///
    /// * `"micro"` — seconds-scale smoke matrix for CI and the
    ///   determinism tests (three backends, four tiny problems).
    /// * `"gate"` — every backend on five small problems, the matrix
    ///   the sharded-study pins run: a strict subset of `"default"`
    ///   (same seed/replicas/sweeps/engines), so its cells are
    ///   bit-identical to the committed `BENCH_study.json`.
    /// * `"default"` — the full committed study: all four backends
    ///   over eight problem families.
    pub fn preset(name: &str) -> Option<StudyRecipe> {
        let text = match name {
            "micro" => {
                "study micro\nseed 3\nreplicas 3\nsweeps 60\n\
                 engines software,hycim,bank\n\
                 problem qkp sizes=10 density=50\n\
                 problem maxcut sizes=8 density=50\n\
                 problem binpack sizes=5 bins=2\n\
                 problem mkp sizes=6 dims=2\n"
            }
            "gate" => {
                "study gate\nseed 7\nreplicas 6\nsweeps 200\n\
                 engines software,hycim,bank,dqubo\n\
                 problem qkp sizes=14 density=50\n\
                 problem maxcut sizes=12 density=50\n\
                 problem spinglass sizes=10\n\
                 problem binpack sizes=6 bins=2\n\
                 problem mkp sizes=8 dims=2\n"
            }
            "default" => {
                "study default\nseed 7\nreplicas 6\nsweeps 200\n\
                 engines software,hycim,bank,dqubo\n\
                 problem qkp sizes=14,20 density=50\n\
                 problem knapsack sizes=16\n\
                 problem maxcut sizes=12,20 density=50\n\
                 problem spinglass sizes=10,14\n\
                 problem tsp sizes=5\n\
                 problem coloring sizes=8 colors=3\n\
                 problem binpack sizes=6,8 bins=2\n\
                 problem mkp sizes=8,12 dims=2\n"
            }
            _ => return None,
        };
        Some(Self::parse(text).expect("presets are valid recipes"))
    }

    /// Parses the line-based recipe format. Errors carry the 1-based
    /// line number of the first violation.
    ///
    /// # Errors
    ///
    /// Returns a [`RecipeError`] on the first malformed, duplicate,
    /// unknown, or out-of-range directive, or on missing required
    /// directives (line 0).
    pub fn parse(text: &str) -> Result<StudyRecipe, RecipeError> {
        let mut name: Option<String> = None;
        let mut seed: Option<u64> = None;
        let mut replicas: Option<usize> = None;
        let mut sweeps: Option<usize> = None;
        let mut engines: Option<Vec<EngineKind>> = None;
        let mut problems: Vec<FamilySpec> = Vec::new();

        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            match directive {
                "study" => {
                    if name.is_some() {
                        return err(lineno, "duplicate 'study' directive");
                    }
                    if rest.is_empty() || !rest.chars().all(is_name_char) {
                        return err(
                            lineno,
                            format!("study name {rest:?} must be one [a-z0-9_-]+ token"),
                        );
                    }
                    name = Some(rest.to_string());
                }
                "seed" => {
                    if seed.is_some() {
                        return err(lineno, "duplicate 'seed' directive");
                    }
                    seed = Some(parse_num::<u64>(lineno, "seed", rest)?);
                }
                "replicas" => {
                    if replicas.is_some() {
                        return err(lineno, "duplicate 'replicas' directive");
                    }
                    let n = parse_num::<usize>(lineno, "replicas", rest)?;
                    if n == 0 {
                        return err(lineno, "replicas must be at least 1");
                    }
                    replicas = Some(n);
                }
                "sweeps" => {
                    if sweeps.is_some() {
                        return err(lineno, "duplicate 'sweeps' directive");
                    }
                    let n = parse_num::<usize>(lineno, "sweeps", rest)?;
                    if n == 0 {
                        return err(lineno, "sweeps must be at least 1");
                    }
                    sweeps = Some(n);
                }
                "engines" => {
                    if engines.is_some() {
                        return err(lineno, "duplicate 'engines' directive");
                    }
                    let mut list = Vec::new();
                    for tag in rest.split(',').map(str::trim) {
                        let Some(kind) = EngineKind::from_tag(tag) else {
                            return err(
                                lineno,
                                format!(
                                    "unknown engine {tag:?} (expected one of \
                                     software, hycim, bank, dqubo, packed)"
                                ),
                            );
                        };
                        if list.contains(&kind) {
                            return err(lineno, format!("engine {tag:?} listed twice"));
                        }
                        list.push(kind);
                    }
                    engines = Some(list);
                }
                "problem" => problems.push(parse_problem(lineno, rest)?),
                other => {
                    return err(
                        lineno,
                        format!(
                            "unknown directive {other:?} (expected study, seed, \
                             replicas, sweeps, engines, or problem)"
                        ),
                    )
                }
            }
        }

        let Some(name) = name else {
            return err(0, "missing 'study' directive");
        };
        let Some(seed) = seed else {
            return err(0, "missing 'seed' directive");
        };
        let Some(replicas) = replicas else {
            return err(0, "missing 'replicas' directive");
        };
        let Some(sweeps) = sweeps else {
            return err(0, "missing 'sweeps' directive");
        };
        let Some(engines) = engines else {
            return err(0, "missing 'engines' directive");
        };
        if problems.is_empty() {
            return err(0, "recipe lists no 'problem' lines");
        }
        Ok(StudyRecipe {
            name,
            seed,
            replicas,
            sweeps,
            engines,
            problems,
        })
    }

    /// All (spec, size) instances of the recipe with their canonical
    /// keys, in recipe order.
    pub fn instances(&self) -> Vec<(FamilySpec, usize, String)> {
        self.problems
            .iter()
            .flat_map(|spec| {
                spec.sizes
                    .iter()
                    .map(|&n| (spec.clone(), n, spec.instance_key(n)))
            })
            .collect()
    }

    /// Seed the instance *generator* uses for one instance key:
    /// derived from the study seed and the key only, never from the
    /// instance's position in the recipe.
    pub fn instance_seed(&self, key: &str) -> u64 {
        replica_seed(self.seed ^ fnv1a(key), 0, 0)
    }

    /// Root seed of one instance's solve batch (fed to
    /// `BatchRunner::run`, which derives per-replica seeds).
    pub fn solve_seed(&self, key: &str) -> u64 {
        replica_seed(self.seed ^ fnv1a(key), 1, 0)
    }

    /// Seed used to fabricate the hardware (device-variability sample)
    /// for one instance's HyCiM/bank engines.
    pub fn hardware_seed(&self, key: &str) -> u64 {
        replica_seed(self.seed ^ fnv1a(key), 2, 0)
    }
}

impl fmt::Display for StudyRecipe {
    /// The canonical rendering `parse` inverts: directives in fixed
    /// order, family parameters always spelled out.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "study {}", self.name)?;
        writeln!(f, "seed {}", self.seed)?;
        writeln!(f, "replicas {}", self.replicas)?;
        writeln!(f, "sweeps {}", self.sweeps)?;
        let tags: Vec<&str> = self.engines.iter().map(|e| e.tag()).collect();
        writeln!(f, "engines {}", tags.join(","))?;
        for spec in &self.problems {
            let sizes: Vec<String> = spec.sizes.iter().map(|n| n.to_string()).collect();
            writeln!(
                f,
                "problem {} sizes={}{}",
                spec.family.tag(),
                sizes.join(","),
                spec.family.params()
            )?;
        }
        Ok(())
    }
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_'
}

fn parse_num<T: std::str::FromStr>(line: usize, what: &str, s: &str) -> Result<T, RecipeError> {
    s.parse().map_err(|_| RecipeError {
        line,
        msg: format!("{what} expects an integer, got {s:?}"),
    })
}

/// FNV-1a over the instance key: a stable, dependency-free string
/// hash (the derived value is then mixed through `replica_seed`).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn parse_problem(lineno: usize, rest: &str) -> Result<FamilySpec, RecipeError> {
    let mut tokens = rest.split_whitespace();
    let Some(family_tag) = tokens.next() else {
        return err(lineno, "problem line names no family");
    };
    let mut sizes: Option<Vec<usize>> = None;
    let mut density: Option<u32> = None;
    let mut colors: Option<u32> = None;
    let mut bins: Option<u32> = None;
    let mut dims: Option<u32> = None;
    for token in tokens {
        let Some((key, value)) = token.split_once('=') else {
            return err(lineno, format!("expected key=value, got {token:?}"));
        };
        match key {
            "sizes" => {
                if sizes.is_some() {
                    return err(lineno, "duplicate sizes parameter");
                }
                let mut list = Vec::new();
                for part in value.split(',') {
                    list.push(parse_num::<usize>(lineno, "sizes", part)?);
                }
                sizes = Some(list);
            }
            "density" => set_param(lineno, "density", &mut density, value)?,
            "colors" => set_param(lineno, "colors", &mut colors, value)?,
            "bins" => set_param(lineno, "bins", &mut bins, value)?,
            "dims" => set_param(lineno, "dims", &mut dims, value)?,
            other => return err(lineno, format!("unknown parameter {other:?}")),
        }
    }

    // Family defaults, then reject parameters foreign to the family.
    let family = match family_tag {
        "qkp" => Family::Qkp {
            density_pct: density.take().unwrap_or(50),
        },
        "knapsack" => Family::Knapsack,
        "maxcut" => Family::MaxCut {
            density_pct: density.take().unwrap_or(50),
        },
        "spinglass" => Family::SpinGlass,
        "tsp" => Family::Tsp,
        "coloring" => Family::Coloring {
            colors: colors.take().unwrap_or(3),
        },
        "binpack" => Family::BinPack {
            bins: bins.take().unwrap_or(2),
        },
        "mkp" => Family::Mkp {
            dims: dims.take().unwrap_or(2),
        },
        other => return err(lineno, format!("unknown problem family {other:?}")),
    };
    for (param, present) in [
        ("density", density.is_some()),
        ("colors", colors.is_some()),
        ("bins", bins.is_some()),
        ("dims", dims.is_some()),
    ] {
        if present {
            return err(
                lineno,
                format!("parameter {param:?} does not apply to family {family_tag:?}"),
            );
        }
    }

    let Some(sizes) = sizes else {
        return err(lineno, "problem line missing sizes=");
    };
    if sizes.is_empty() {
        return err(lineno, "sizes= lists no sizes");
    }
    let min_n = match family {
        Family::Tsp => 3,
        _ => 2,
    };
    for &n in &sizes {
        if n < min_n || n > 4096 {
            return err(
                lineno,
                format!("size {n} out of range for {family_tag} (min {min_n}, max 4096)"),
            );
        }
    }
    match family {
        Family::Qkp { density_pct } | Family::MaxCut { density_pct }
            if !(1..=100).contains(&density_pct) =>
        {
            return err(lineno, format!("density {density_pct} not in 1..=100"));
        }
        Family::Coloring { colors } if !(2..=16).contains(&colors) => {
            return err(lineno, format!("colors {colors} not in 2..=16"));
        }
        Family::BinPack { bins } if !(1..=16).contains(&bins) => {
            return err(lineno, format!("bins {bins} not in 1..=16"));
        }
        Family::Mkp { dims } if !(1..=8).contains(&dims) => {
            return err(lineno, format!("dims {dims} not in 1..=8"));
        }
        _ => {}
    }
    Ok(FamilySpec { family, sizes })
}

fn set_param(
    lineno: usize,
    what: &str,
    slot: &mut Option<u32>,
    value: &str,
) -> Result<(), RecipeError> {
    if slot.is_some() {
        return err(lineno, format!("duplicate {what} parameter"));
    }
    *slot = Some(parse_num::<u32>(lineno, what, value)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_parse_and_round_trip() {
        for name in StudyRecipe::PRESETS {
            let recipe = StudyRecipe::preset(name).expect("preset exists");
            assert_eq!(recipe.name, name);
            let rendered = recipe.to_string();
            let reparsed = StudyRecipe::parse(&rendered).expect("canonical form parses");
            assert_eq!(recipe, reparsed, "{name} round-trips");
            // Idempotent formatting.
            assert_eq!(rendered, reparsed.to_string());
        }
        assert!(StudyRecipe::preset("nope").is_none());
    }

    #[test]
    fn gate_is_a_subset_of_default() {
        let gate = StudyRecipe::preset("gate").unwrap();
        let default = StudyRecipe::preset("default").unwrap();
        // Identical study-level knobs: the seeds feeding every cell.
        assert_eq!(gate.seed, default.seed);
        assert_eq!(gate.replicas, default.replicas);
        assert_eq!(gate.sweeps, default.sweeps);
        assert_eq!(gate.engines, default.engines);
        let default_keys: Vec<String> =
            default.instances().into_iter().map(|(_, _, k)| k).collect();
        for (_, _, key) in gate.instances() {
            assert!(default_keys.contains(&key), "{key} missing from default");
            // Instance-keyed seeding: identical derived seeds.
            assert_eq!(gate.instance_seed(&key), default.instance_seed(&key));
            assert_eq!(gate.solve_seed(&key), default.solve_seed(&key));
            assert_eq!(gate.hardware_seed(&key), default.hardware_seed(&key));
        }
        assert!(gate.instances().len() < default_keys.len());
    }

    #[test]
    fn default_preset_covers_at_least_four_families() {
        let recipe = StudyRecipe::preset("default").unwrap();
        let mut tags: Vec<&str> = recipe.problems.iter().map(|p| p.family.tag()).collect();
        tags.dedup();
        assert!(tags.len() >= 4, "only {} families", tags.len());
        assert_eq!(recipe.engines.len(), 4, "all backends ranked");
    }

    #[test]
    fn defaults_fill_in_but_canonical_form_is_explicit() {
        let recipe = StudyRecipe::parse(
            "study t\nseed 1\nreplicas 2\nsweeps 10\nengines software\n\
             problem qkp sizes=5\n",
        )
        .unwrap();
        assert_eq!(
            recipe.problems[0].family,
            Family::Qkp { density_pct: 50 },
            "density defaults to 50"
        );
        assert!(recipe
            .to_string()
            .contains("problem qkp sizes=5 density=50"));
    }

    #[test]
    fn comments_blank_lines_and_order_are_tolerated() {
        let recipe = StudyRecipe::parse(
            "# a comment\n\nproblem tsp sizes=4\nengines hycim,software\n\
             sweeps 10\nreplicas 2\nseed 1\nstudy out-of-order\n",
        )
        .unwrap();
        assert_eq!(recipe.name, "out-of-order");
        assert_eq!(
            recipe.engines,
            vec![EngineKind::HyCim, EngineKind::Software]
        );
    }

    #[test]
    fn malformed_lines_report_their_line_number() {
        let cases: [(&str, usize, &str); 10] = [
            ("study a\nstudy b\n", 2, "duplicate 'study'"),
            ("study a\nseed x\n", 2, "expects an integer"),
            ("study a\nengines warp\n", 2, "unknown engine"),
            ("study a\nengines hycim,hycim\n", 2, "listed twice"),
            ("bogus 3\n", 1, "unknown directive"),
            ("problem qkp\n", 1, "missing sizes="),
            ("problem qkp sizes=1\n", 1, "out of range"),
            ("problem qkp sizes=5 colors=3\n", 1, "does not apply"),
            ("problem warp sizes=5\n", 1, "unknown problem family"),
            ("replicas 0\n", 1, "at least 1"),
        ];
        for (text, line, needle) in cases {
            let e = StudyRecipe::parse(text).expect_err(text);
            assert_eq!(e.line, line, "{text:?} -> {e}");
            assert!(e.msg.contains(needle), "{text:?} -> {e}");
        }
        // Missing directives are document-level (line 0).
        let e = StudyRecipe::parse("study a\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.to_string().starts_with("recipe: missing"));
    }

    #[test]
    fn instance_keys_are_param_qualified_and_seeds_stable() {
        let spec = FamilySpec {
            family: Family::Qkp { density_pct: 25 },
            sizes: vec![10],
        };
        assert_eq!(spec.instance_key(10), "qkp-d25-n10");
        let recipe = StudyRecipe::parse(
            "study s\nseed 9\nreplicas 1\nsweeps 1\nengines software\n\
             problem qkp sizes=10 density=25\n",
        )
        .unwrap();
        // Distinct roles draw distinct seeds from the same key.
        let key = "qkp-d25-n10";
        let seeds = [
            recipe.instance_seed(key),
            recipe.solve_seed(key),
            recipe.hardware_seed(key),
        ];
        assert_ne!(seeds[0], seeds[1]);
        assert_ne!(seeds[1], seeds[2]);
        // And different keys draw different seeds.
        assert_ne!(recipe.instance_seed("qkp-d25-n12"), seeds[0]);
    }
}
