//! Local-field incremental energy engine.
//!
//! The SA loop probes one move per iteration; with a dense
//! [`QuboMatrix::flip_delta`] every probe pays an O(n) row scan even on
//! structurally sparse problems (max-cut, spin glass, coloring). The
//! standard annealer optimization — maintained *local fields* — turns
//! the probe into an O(1) lookup:
//!
//! > `h_i = Q_ii + Σ_{j≠i} Q_ij·x_j`, so the energy change of flipping
//! > bit `i` is `+h_i` (0→1) or `−h_i` (1→0).
//!
//! [`LocalFieldState`] precomputes CSR-style per-variable neighbor
//! lists from the matrix once, then keeps every `h_i` current with an
//! O(deg(i)) neighbor update per *committed* flip. Probes (the hot
//! path — most SA proposals are rejected or vetoed) never touch the
//! matrix at all.
//!
//! # Float drift and the periodic refresh
//!
//! The fields are maintained by adding and subtracting coefficients,
//! so for non-integer matrices they can drift from the exact sums by
//! accumulated rounding (≈ machine epsilon per commit). To bound the
//! drift, the state recomputes every field from scratch once per
//! [`refresh_interval`](LocalFieldState::with_refresh_interval)
//! commits (an O(nnz) pass, amortized to noise). For matrices whose
//! coefficients and partial sums are exactly representable — every
//! integer-valued problem family in `hycim-cop` — the incremental
//! fields are *bit-identical* to the dense row scans of
//! [`QuboMatrix::flip_delta`] at all times, so a tracked energy equals
//! the exact `xᵀQx` of the final configuration.

use crate::{Assignment, QuboMatrix};

/// CSR-style symmetric neighbor lists of a QUBO matrix: the diagonal
/// plus, per row, the off-diagonal structural nonzeros in ascending
/// column order. Built once from the triangular matrix and shared by
/// [`LocalFieldState`] (one replica) and
/// [`PackedReplicaState`](crate::PackedReplicaState) (64 bit-packed
/// replicas), so both walk *exactly* the same couplings in the same
/// order — the property the packed-vs-scalar bit-identity laws rest
/// on.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrNeighbors {
    /// Diagonal (linear) coefficients `Q_ii`.
    pub diag: Vec<f64>,
    /// Row offsets into `idx`/`val`; length `n + 1`.
    pub offsets: Vec<usize>,
    /// Column indices of each row's off-diagonal nonzeros, ascending.
    pub idx: Vec<usize>,
    /// Coupling `Q_ij` for the matching entry of `idx`.
    pub val: Vec<f64>,
}

impl CsrNeighbors {
    /// Builds the neighbor lists from the triangular matrix. O(n + nnz).
    pub fn build(q: &QuboMatrix) -> Self {
        let n = q.dim();
        let mut diag = vec![0.0; n];
        let mut degree = vec![0usize; n];
        for (i, j, _) in q.iter_nonzero() {
            if i == j {
                continue;
            }
            degree[i] += 1;
            degree[j] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        for d in &degree {
            offsets.push(offsets.last().unwrap() + d);
        }
        let nnz = *offsets.last().unwrap();
        let mut idx = vec![0usize; nnz];
        let mut val = vec![0.0; nnz];
        let mut fill = offsets.clone();
        for (i, j, v) in q.iter_nonzero() {
            if i == j {
                diag[i] = v;
                continue;
            }
            // `iter_nonzero` walks (i, j) row-major with i <= j, so each
            // row's entries land in ascending column order: columns
            // below the row index arrive first (from their own rows),
            // columns above afterwards.
            idx[fill[i]] = j;
            val[fill[i]] = v;
            fill[i] += 1;
            idx[fill[j]] = i;
            val[fill[j]] = v;
            fill[j] += 1;
        }
        debug_assert!((0..n).all(|i| idx[offsets[i]..offsets[i + 1]]
            .windows(2)
            .all(|w| w[0] < w[1])));
        Self {
            diag,
            offsets,
            idx,
            val,
        }
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.diag.len()
    }
}

/// Default number of committed flips between full field recomputes.
///
/// Each refresh is O(nnz); at the default interval the amortized cost
/// per commit is negligible while worst-case drift stays below
/// `interval · ε · max|Q_ij|` (≈ 1e-10 for coefficient scale 100).
pub const DEFAULT_REFRESH_INTERVAL: usize = 8192;

/// Maintained local fields over a QUBO matrix: O(1) flip deltas, O(1)
/// pair deltas (given the coupling), O(deg(i)) commits.
///
/// The state does not own the configuration; callers pass their
/// `Assignment` so existing state structs keep their layout. The
/// contract is:
///
/// 1. build with the *current* configuration ([`LocalFieldState::new`]),
/// 2. read deltas with [`flip_delta`](Self::flip_delta) /
///    [`pair_delta`](Self::pair_delta) *before* mutating the
///    configuration,
/// 3. after flipping bit(s) in the configuration, notify with
///    [`commit_flip`](Self::commit_flip) /
///    [`commit_pair`](Self::commit_pair) (passing the *post-flip*
///    configuration).
///
/// # Example
///
/// ```
/// use hycim_qubo::{Assignment, LocalFieldState, QuboMatrix};
///
/// let mut q = QuboMatrix::zeros(3);
/// q.set(0, 0, -4.0);
/// q.set(0, 2, 6.0);
/// let mut x = Assignment::zeros(3);
/// let mut lf = LocalFieldState::new(&q, &x);
///
/// assert_eq!(lf.flip_delta(&x, 0), -4.0);     // O(1) probe
/// x.flip(0);
/// lf.commit_flip(&x, 0);                      // O(deg(0)) update
/// assert_eq!(lf.flip_delta(&x, 2), 6.0);      // feels bit 0 via h₂
/// assert_eq!(lf.flip_delta(&x, 0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LocalFieldState {
    n: usize,
    /// Diagonal (linear) coefficients `Q_ii`.
    diag: Vec<f64>,
    /// CSR row offsets into `neighbor_idx`/`neighbor_val`; length `n+1`.
    offsets: Vec<usize>,
    /// Column indices of the structural off-diagonal nonzeros of each
    /// row, ascending.
    neighbor_idx: Vec<usize>,
    /// Coupling `Q_ij` for the matching entry of `neighbor_idx`.
    neighbor_val: Vec<f64>,
    /// Maintained fields `h_i = Q_ii + Σ_{j≠i} Q_ij·x_j`.
    fields: Vec<f64>,
    /// Commits since the last full recompute.
    commits: usize,
    /// Commits between full recomputes; `0` disables refreshing.
    refresh_interval: usize,
}

impl LocalFieldState {
    /// Builds the neighbor lists and initial fields for configuration
    /// `x`. O(n + nnz).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != q.dim()`.
    pub fn new(q: &QuboMatrix, x: &Assignment) -> Self {
        assert_eq!(
            x.len(),
            q.dim(),
            "assignment length {} does not match dim {}",
            x.len(),
            q.dim()
        );
        let n = q.dim();
        let csr = CsrNeighbors::build(q);
        let mut state = Self {
            n,
            diag: csr.diag,
            offsets: csr.offsets,
            neighbor_idx: csr.idx,
            neighbor_val: csr.val,
            fields: vec![0.0; n],
            commits: 0,
            refresh_interval: DEFAULT_REFRESH_INTERVAL,
        };
        state.refresh(x);
        state
    }

    /// Sets the number of commits between full field recomputes
    /// (`0` = never refresh). See the module docs for the drift bound.
    pub fn with_refresh_interval(mut self, interval: usize) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The maintained field `h_i = Q_ii + Σ_{j≠i} Q_ij·x_j`.
    pub fn field(&self, i: usize) -> f64 {
        self.fields[i]
    }

    /// Commits since the last full recompute (diagnostic).
    pub fn commits_since_refresh(&self) -> usize {
        self.commits
    }

    /// Energy change of flipping bit `i` — an O(1) lookup: `+h_i` for a
    /// 0→1 flip, `−h_i` for 1→0.
    pub fn flip_delta(&self, x: &Assignment, i: usize) -> f64 {
        if x.get(i) {
            -self.fields[i]
        } else {
            self.fields[i]
        }
    }

    /// Energy change of flipping bits `i` and `j` together:
    /// `Δᵢ + Δⱼ + q_ij·dᵢ·dⱼ` with `d = +1` for 0→1 and `−1`
    /// otherwise. The caller passes the cross coupling `q_ij` from its
    /// stored matrix ([`QuboMatrix::get`], O(1)).
    ///
    /// # Panics
    ///
    /// Panics if `i == j`.
    pub fn pair_delta(&self, x: &Assignment, i: usize, j: usize, q_ij: f64) -> f64 {
        assert_ne!(i, j, "pair delta needs two distinct bits");
        let di = if x.get(i) { -1.0 } else { 1.0 };
        let dj = if x.get(j) { -1.0 } else { 1.0 };
        self.flip_delta(x, i) + self.flip_delta(x, j) + q_ij * di * dj
    }

    /// Applies a committed flip of bit `i` to the fields. `x` must be
    /// the configuration *after* the flip. O(deg(i)).
    pub fn commit_flip(&mut self, x: &Assignment, i: usize) {
        self.apply(x, i);
        self.note_commit(x);
    }

    /// Applies a committed pair flip of bits `i` and `j`. `x` must be
    /// the configuration *after* both flips. O(deg(i) + deg(j)); the
    /// cross-coupling cancels because `h` never includes a variable's
    /// own value.
    pub fn commit_pair(&mut self, x: &Assignment, i: usize, j: usize) {
        self.apply(x, i);
        self.apply(x, j);
        self.note_commit(x);
    }

    /// Recomputes every field from scratch — O(n + nnz). Called
    /// automatically every `refresh_interval` commits.
    fn refresh(&mut self, x: &Assignment) {
        for i in 0..self.n {
            let mut h = self.diag[i];
            for k in self.offsets[i]..self.offsets[i + 1] {
                if x.get(self.neighbor_idx[k]) {
                    h += self.neighbor_val[k];
                }
            }
            self.fields[i] = h;
        }
        self.commits = 0;
    }

    fn apply(&mut self, x: &Assignment, i: usize) {
        let sign = if x.get(i) { 1.0 } else { -1.0 };
        for k in self.offsets[i]..self.offsets[i + 1] {
            self.fields[self.neighbor_idx[k]] += sign * self.neighbor_val[k];
        }
    }

    fn note_commit(&mut self, x: &Assignment) {
        self.commits += 1;
        if self.refresh_interval > 0 && self.commits >= self.refresh_interval {
            self.refresh(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_sparse_qubo(n: usize, density: f64, seed: u64) -> QuboMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = QuboMatrix::zeros(n);
        for i in 0..n {
            q.set(i, i, rng.random_range(-10.0..10.0));
            for j in (i + 1)..n {
                if rng.random_bool(density) {
                    q.set(i, j, rng.random_range(-10.0..10.0));
                }
            }
        }
        q
    }

    #[test]
    fn fields_match_dense_deltas_on_build() {
        let q = random_sparse_qubo(20, 0.3, 1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let x = Assignment::random(20, &mut rng);
            let lf = LocalFieldState::new(&q, &x);
            for i in 0..20 {
                assert!(
                    (lf.flip_delta(&x, i) - q.flip_delta(&x, i)).abs() < 1e-9,
                    "field mismatch at {i}"
                );
            }
        }
    }

    #[test]
    fn commits_track_a_random_walk() {
        let q = random_sparse_qubo(16, 0.4, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let mut x = Assignment::random(16, &mut rng);
        let mut lf = LocalFieldState::new(&q, &x);
        let mut energy = q.energy(&x);
        for step in 0..500 {
            let i = rng.random_range(0..16);
            let delta = lf.flip_delta(&x, i);
            assert!(
                (delta - q.flip_delta(&x, i)).abs() < 1e-9,
                "probe diverged at step {step}"
            );
            x.flip(i);
            lf.commit_flip(&x, i);
            energy += delta;
            assert!(
                (energy - q.energy(&x)).abs() < 1e-8,
                "energy diverged at step {step}"
            );
        }
    }

    #[test]
    fn pair_deltas_match_sequential_flips() {
        let q = random_sparse_qubo(12, 0.5, 5);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let mut x = Assignment::random(12, &mut rng);
            let i = rng.random_range(0..12);
            let j = (i + 1 + rng.random_range(0..11usize)) % 12;
            let mut lf = LocalFieldState::new(&q, &x);
            let before = q.energy(&x);
            let delta = lf.pair_delta(&x, i, j, q.get(i, j));
            x.flip(i);
            x.flip(j);
            lf.commit_pair(&x, i, j);
            let after = q.energy(&x);
            assert!(
                (after - before - delta).abs() < 1e-9,
                "pair delta mismatch for ({i}, {j})"
            );
            // Fields stay consistent after the pair commit.
            for k in 0..12 {
                assert!((lf.flip_delta(&x, k) - q.flip_delta(&x, k)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn refresh_interval_triggers_and_resyncs() {
        let q = random_sparse_qubo(8, 0.6, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let mut x = Assignment::zeros(8);
        let mut lf = LocalFieldState::new(&q, &x).with_refresh_interval(4);
        for step in 0..20 {
            let i = rng.random_range(0..8);
            x.flip(i);
            lf.commit_flip(&x, i);
            assert!(
                lf.commits_since_refresh() < 4,
                "refresh did not fire by step {step}"
            );
        }
        // After a refresh the fields are the exact sums.
        for i in 0..8 {
            assert!((lf.flip_delta(&x, i) - q.flip_delta(&x, i)).abs() < 1e-12);
        }
    }

    #[test]
    fn degrees_count_structural_neighbors() {
        let mut q = QuboMatrix::zeros(4);
        q.set(0, 1, 1.0);
        q.set(0, 3, 2.0);
        q.set(2, 2, 5.0); // diagonal only — no neighbors
        let lf = LocalFieldState::new(&q, &Assignment::zeros(4));
        // Off-diagonal nonzeros per row: the commit cost.
        let degree = |i: usize| lf.offsets[i + 1] - lf.offsets[i];
        assert_eq!(degree(0), 2);
        assert_eq!(degree(1), 1);
        assert_eq!(degree(2), 0);
        assert_eq!(degree(3), 1);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_delta_rejects_equal_bits() {
        let q = QuboMatrix::zeros(3);
        let x = Assignment::zeros(3);
        let lf = LocalFieldState::new(&q, &x);
        let _ = lf.pair_delta(&x, 1, 1, 0.0);
    }
}
