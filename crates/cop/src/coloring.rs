//! Graph coloring — the equality-constrained COP of Table 1 reference
//! \[3\] (the authors' own FeFET CiM annealer solves 21-node graph
//! coloring). Equality constraints (`exactly one color per node`) are
//! native to QUBO penalties, so no inequality filter is needed; this
//! module demonstrates the stack on that problem family.

use hycim_qubo::{Assignment, QuboMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::CopError;

/// A graph-coloring instance: color `nodes` vertices with `colors`
/// colors such that no edge is monochromatic.
///
/// Variables: `x_{v,c}` = "vertex v gets color c", at index
/// `v·colors + c`.
///
/// # Example
///
/// ```
/// use hycim_cop::coloring::GraphColoring;
/// use hycim_qubo::Assignment;
///
/// # fn main() -> Result<(), hycim_cop::CopError> {
/// // A triangle is 3-colorable.
/// let g = GraphColoring::new(3, vec![(0, 1), (1, 2), (0, 2)], 3)?;
/// let x = Assignment::parse_bit_string("100010001").unwrap();
/// assert!(g.is_proper_coloring(&x));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphColoring {
    nodes: usize,
    edges: Vec<(usize, usize)>,
    colors: usize,
}

impl GraphColoring {
    /// Creates an instance.
    ///
    /// # Errors
    ///
    /// * [`CopError::EmptyInstance`] for zero nodes or zero colors.
    /// * [`CopError::SizeMismatch`] for an out-of-range or self-loop
    ///   edge.
    pub fn new(nodes: usize, edges: Vec<(usize, usize)>, colors: usize) -> Result<Self, CopError> {
        if nodes == 0 || colors == 0 {
            return Err(CopError::EmptyInstance);
        }
        let mut canon = std::collections::BTreeSet::new();
        for (u, v) in edges {
            if u >= nodes || v >= nodes || u == v {
                return Err(CopError::SizeMismatch {
                    profits: u.max(v),
                    weights: nodes,
                });
            }
            canon.insert((u.min(v), u.max(v)));
        }
        Ok(Self {
            nodes,
            edges: canon.into_iter().collect(),
            colors,
        })
    }

    /// Random graph with edge probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, `colors == 0`, or `p` outside `(0, 1]`.
    pub fn random(nodes: usize, p: f64, colors: usize, seed: u64) -> Self {
        assert!(nodes > 0 && colors > 0, "need nodes and colors");
        assert!(p > 0.0 && p <= 1.0, "edge probability must be in (0, 1]");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..nodes {
            for v in (u + 1)..nodes {
                if rng.random_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        Self::new(nodes, edges, colors).expect("generated edges are valid")
    }

    /// Number of vertices.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// Number of available colors.
    pub fn num_colors(&self) -> usize {
        self.colors
    }

    /// Canonical edge list.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Number of QUBO variables: `nodes × colors`.
    pub fn dim(&self) -> usize {
        self.nodes * self.colors
    }

    /// Index of variable `x_{v,c}`.
    ///
    /// # Panics
    ///
    /// Panics if `v` or `c` is out of range.
    pub fn var(&self, v: usize, c: usize) -> usize {
        assert!(v < self.nodes && c < self.colors, "index out of range");
        v * self.colors + c
    }

    /// The D-QUBO-style penalty objective (this problem's constraints
    /// are equalities, which QUBO handles natively — paper Sec 2.1):
    /// `penalty · [Σᵥ (1 − Σ꜀ x_{v,c})² + Σ_{(u,v)∈E} Σ꜀ x_{u,c}x_{v,c}]`.
    /// Minimum 0 ⇔ proper coloring (up to the dropped constant).
    pub fn objective_matrix(&self, penalty: f64) -> QuboMatrix {
        let mut q = QuboMatrix::zeros(self.dim());
        // One-color-per-node equality penalties.
        for v in 0..self.nodes {
            for c in 0..self.colors {
                let idx = self.var(v, c);
                q.add(idx, idx, -penalty);
                for c2 in (c + 1)..self.colors {
                    q.add(idx, self.var(v, c2), 2.0 * penalty);
                }
            }
        }
        // Edge conflicts.
        for &(u, v) in &self.edges {
            for c in 0..self.colors {
                q.add(self.var(u, c), self.var(v, c), penalty);
            }
        }
        q
    }

    /// Whether `x` assigns exactly one color per node with no
    /// monochromatic edge.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn is_proper_coloring(&self, x: &Assignment) -> bool {
        assert_eq!(x.len(), self.dim(), "assignment length mismatch");
        for v in 0..self.nodes {
            let count = (0..self.colors).filter(|&c| x.get(self.var(v, c))).count();
            if count != 1 {
                return false;
            }
        }
        self.edges.iter().all(|&(u, v)| {
            (0..self.colors).all(|c| !(x.get(self.var(u, c)) && x.get(self.var(v, c))))
        })
    }

    /// Greedy coloring (largest-degree-first); returns an assignment
    /// if the graph is greedily colorable with the available palette.
    pub fn greedy_coloring(&self) -> Option<Assignment> {
        let mut degree = vec![0usize; self.nodes];
        for &(u, v) in &self.edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut order: Vec<usize> = (0..self.nodes).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(degree[v]));
        let mut color_of = vec![usize::MAX; self.nodes];
        for v in order {
            let mut used = vec![false; self.colors];
            for &(a, b) in &self.edges {
                let other = if a == v {
                    b
                } else if b == v {
                    a
                } else {
                    continue;
                };
                if color_of[other] != usize::MAX {
                    used[color_of[other]] = true;
                }
            }
            color_of[v] = (0..self.colors).find(|&c| !used[c])?;
        }
        let mut x = Assignment::zeros(self.dim());
        for (v, &c) in color_of.iter().enumerate() {
            x.set(self.var(v, c), true);
        }
        Some(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangle_three_coloring() {
        let g = GraphColoring::new(3, vec![(0, 1), (1, 2), (0, 2)], 3).unwrap();
        let x = g.greedy_coloring().expect("3-colorable");
        assert!(g.is_proper_coloring(&x));
        let q = g.objective_matrix(5.0);
        // The dropped constant is `penalty · nodes`, so a proper
        // coloring sits at exactly `−penalty · nodes`.
        assert_eq!(q.energy(&x), -5.0 * 3.0);
    }

    #[test]
    fn triangle_not_two_colorable() {
        let g = GraphColoring::new(3, vec![(0, 1), (1, 2), (0, 2)], 2).unwrap();
        assert!(g.greedy_coloring().is_none());
        // Exhaustive check: no proper 2-coloring exists.
        for bits in 0u32..(1 << 6) {
            let x = Assignment::from_bits((0..6).map(|i| bits >> i & 1 == 1));
            assert!(!g.is_proper_coloring(&x));
        }
    }

    #[test]
    fn improper_colorings_cost_more() {
        let g = GraphColoring::new(3, vec![(0, 1), (1, 2), (0, 2)], 3).unwrap();
        let q = g.objective_matrix(5.0);
        let proper = g.greedy_coloring().unwrap();
        let floor = q.energy(&proper);
        for bits in 0u32..(1 << 9) {
            let x = Assignment::from_bits((0..9).map(|i| bits >> i & 1 == 1));
            assert!(q.energy(&x) >= floor - 1e-9, "{x} beats a proper coloring");
            if !g.is_proper_coloring(&x) {
                assert!(q.energy(&x) > floor - 1e-9);
            }
        }
    }

    #[test]
    fn paper_scale_21_nodes() {
        // Table 1 [3]: 21-node graph coloring on a FeFET annealer.
        // Greedy needs up to maxdeg+1 colors; 6 suffices at this density.
        let g = GraphColoring::random(21, 0.25, 6, 7);
        let x = g.greedy_coloring().expect("sparse graph 6-colorable");
        assert!(g.is_proper_coloring(&x));
        assert_eq!(g.dim(), 21 * 6);
    }

    #[test]
    fn validation() {
        assert!(GraphColoring::new(0, vec![], 3).is_err());
        assert!(GraphColoring::new(3, vec![], 0).is_err());
        assert!(GraphColoring::new(2, vec![(0, 0)], 2).is_err());
        assert!(GraphColoring::new(2, vec![(0, 5)], 2).is_err());
    }

    #[test]
    fn sa_finds_proper_coloring() {
        let g = GraphColoring::random(12, 0.35, 4, 3);
        let q = g.objective_matrix(4.0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut x = Assignment::zeros(g.dim());
        let mut e = q.energy(&x);
        let mut best = (x.clone(), e);
        for iter in 0..30_000 {
            let t = 3.0 * (1.0 - iter as f64 / 30_000.0) + 0.01;
            let i = rng.random_range(0..g.dim());
            let d = q.flip_delta(&x, i);
            if d <= 0.0 || rng.random::<f64>() < (-d / t).exp() {
                x.flip(i);
                e += d;
                if e < best.1 {
                    best = (x.clone(), e);
                }
            }
        }
        assert!(
            g.is_proper_coloring(&best.0),
            "SA failed to find a proper coloring (E = {})",
            best.1
        );
    }
}
