//! Local-field incremental energy engine.
//!
//! The SA loop probes one move per iteration; with a dense
//! [`QuboMatrix::flip_delta`] every probe pays an O(n) row scan. The
//! standard annealer optimization — maintained *local fields* — turns
//! the probe into an O(1) lookup:
//!
//! > `h_i = Q_ii + Σ_{j≠i} Q_ij·x_j`, so the energy change of flipping
//! > bit `i` is `+h_i` (0→1) or `−h_i` (1→0).
//!
//! [`LocalFieldState`] copies the matrix once into dense symmetric
//! coupling rows, then keeps every `h_i` current with one contiguous
//! O(n) pass over row `i` per *committed* flip (the loop
//! auto-vectorizes). Probes (the hot path — most SA proposals are
//! rejected or vetoed) read one field, and a pair probe also reads
//! one coupling from the rows; neither touches the matrix.
//!
//! The rows cost `n²` f64 per state: half of what neighbor lists take
//! on a dense matrix (an index and a value per directed entry), and at
//! most twice the triangular matrix itself on any matrix.
//!
//! # Float drift and the periodic refresh
//!
//! The fields are maintained by adding and subtracting coefficients,
//! so for non-integer matrices they can drift from the exact sums by
//! accumulated rounding (≈ machine epsilon per commit). To bound the
//! drift, the state recomputes every field from scratch once per
//! [`refresh_interval`](LocalFieldState::with_refresh_interval)
//! commits (an O(n²) pass, amortized to noise). For matrices whose
//! coefficients and partial sums are exactly representable — every
//! integer-valued problem family in `hycim-cop` — the incremental
//! fields are *bit-identical* to the dense row scans of
//! [`QuboMatrix::flip_delta`] at all times, so a tracked energy equals
//! the exact `xᵀQx` of the final configuration.
//!
//! # Zero couplings add nothing
//!
//! A commit adds or subtracts the whole row, structural zeros
//! included, and a refresh sums every selected column. Each field gets
//! exactly the float ops a walk over the nonzero couplings alone would
//! make, in the same ascending column order, because a zero term is a
//! no-op on any field that is not `−0.0` — and no field ever is: a
//! zero diagonal is stored as `+0.0`, and an IEEE sum of nonzero terms
//! that cancels rounds to `+0.0`.

use crate::{Assignment, QuboMatrix};

/// CSR-style symmetric neighbor lists of a QUBO matrix: the diagonal
/// plus, per row, the off-diagonal structural nonzeros in ascending
/// column order. [`PackedReplicaState`](crate::PackedReplicaState)
/// walks them for its 64 bit-packed replicas. Its lanes stay
/// bit-identical to scalar [`LocalFieldState`] replicas, which walk
/// dense rows instead: per field, both walks add the same nonzero
/// couplings in the same order, and the zeros the dense walk also adds
/// are no-ops (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CsrNeighbors {
    /// Diagonal (linear) coefficients `Q_ii`.
    pub(crate) diag: Vec<f64>,
    /// Row offsets into `idx`/`val`; length `n + 1`.
    pub(crate) offsets: Vec<usize>,
    /// Column indices of each row's off-diagonal nonzeros, ascending.
    pub(crate) idx: Vec<usize>,
    /// Coupling `Q_ij` for the matching entry of `idx`.
    pub(crate) val: Vec<f64>,
}

impl CsrNeighbors {
    /// Builds the neighbor lists from the triangular matrix. O(n + nnz).
    pub(crate) fn build(q: &QuboMatrix) -> Self {
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
    pub(crate) fn dim(&self) -> usize {
        self.diag.len()
    }
}

/// Default number of committed flips between full field recomputes.
///
/// Each refresh is O(n²); at the default interval the amortized cost
/// per commit is negligible while worst-case drift stays below
/// `interval · ε · max|Q_ij|` (≈ 1e-10 for coefficient scale 100).
pub const DEFAULT_REFRESH_INTERVAL: usize = 8192;

/// Length `n·n` of the dense coupling rows of dimension `n`.
///
/// # Panics
///
/// Panics, naming the dimension, if `n·n` overflows `usize`.
fn dense_len(n: usize) -> usize {
    n.checked_mul(n)
        .unwrap_or_else(|| panic!("dense coupling rows of dimension {n} overflow usize"))
}

/// Maintained local fields over a QUBO matrix: O(1) flip and pair
/// deltas, O(n) contiguous commits.
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
/// lf.commit_flip(&x, 0);                      // O(n) row update
/// assert_eq!(lf.flip_delta(&x, 2), 6.0);      // feels bit 0 via h₂
/// assert_eq!(lf.flip_delta(&x, 0), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LocalFieldState {
    n: usize,
    /// Diagonal (linear) coefficients `Q_ii`, a zero stored as `+0.0`.
    diag: Vec<f64>,
    /// Dense symmetric off-diagonal couplings, row-major:
    /// `couplings[i·n + j]` holds the bits of [`QuboMatrix::get`]`(i, j)`
    /// for `i ≠ j`, and `+0.0` on the diagonal.
    couplings: Vec<f64>,
    /// Maintained fields `h_i = Q_ii + Σ_{j≠i} Q_ij·x_j`.
    fields: Vec<f64>,
    /// Commits since the last full recompute.
    commits: usize,
    /// Commits between full recomputes; `0` disables refreshing.
    refresh_interval: usize,
}

impl LocalFieldState {
    /// Copies the matrix into dense coupling rows and builds the
    /// initial fields for configuration `x`. O(n²).
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
        let mut diag = vec![0.0; n];
        let mut couplings = vec![0.0; dense_len(n)];
        for i in 0..n {
            let (d, upper) = q.upper_row(i).split_first().expect("row i holds Q_ii");
            // `-0.0 == 0.0`: a negative zero diagonal is stored as `+0.0`.
            diag[i] = if *d == 0.0 { 0.0 } else { *d };
            couplings[i * n + i + 1..(i + 1) * n].copy_from_slice(upper);
            for (j, &v) in (i + 1..n).zip(upper) {
                couplings[j * n + i] = v;
            }
        }
        let mut state = Self {
            n,
            diag,
            couplings,
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

    /// The coupling `Q_ij` for `i ≠ j`, bit for bit what
    /// [`QuboMatrix::get`] returns; `+0.0` for `i == j`. O(1).
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        self.couplings[i * self.n..(i + 1) * self.n][j]
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
    /// `Δᵢ + Δⱼ + Q_ij·dᵢ·dⱼ` with `d = +1` for 0→1 and `−1`
    /// otherwise. O(1): the cross coupling is read from the rows.
    ///
    /// # Panics
    ///
    /// Panics if `i == j`.
    pub fn pair_delta(&self, x: &Assignment, i: usize, j: usize) -> f64 {
        assert_ne!(i, j, "pair delta needs two distinct bits");
        let di = if x.get(i) { -1.0 } else { 1.0 };
        let dj = if x.get(j) { -1.0 } else { 1.0 };
        self.flip_delta(x, i) + self.flip_delta(x, j) + self.coupling(i, j) * di * dj
    }

    /// Applies a committed flip of bit `i` to the fields. `x` must be
    /// the configuration *after* the flip. O(n).
    pub fn commit_flip(&mut self, x: &Assignment, i: usize) {
        self.apply(x, i);
        self.note_commit(x);
    }

    /// Applies a committed pair flip of bits `i` and `j`. `x` must be
    /// the configuration *after* both flips. O(n); the cross-coupling
    /// cancels because `h` never includes a variable's own value.
    pub fn commit_pair(&mut self, x: &Assignment, i: usize, j: usize) {
        self.apply(x, i);
        self.apply(x, j);
        self.note_commit(x);
    }

    /// Recomputes every field from scratch, summing each row's selected
    /// columns in ascending order — O(n²). Called automatically every
    /// `refresh_interval` commits.
    fn refresh(&mut self, x: &Assignment) {
        let n = self.n;
        for (i, h) in self.fields.iter_mut().enumerate() {
            let row = &self.couplings[i * n..(i + 1) * n];
            *h = (0..n)
                .filter(|&j| x.get(j))
                .fold(self.diag[i], |h, j| h + row[j]);
        }
        self.commits = 0;
    }

    fn apply(&mut self, x: &Assignment, i: usize) {
        let row = &self.couplings[i * self.n..(i + 1) * self.n];
        if x.get(i) {
            for (h, &v) in self.fields.iter_mut().zip(row) {
                *h += v;
            }
        } else {
            for (h, &v) in self.fields.iter_mut().zip(row) {
                *h -= v;
            }
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
            let delta = lf.pair_delta(&x, i, j);
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

    /// The local-field walk as it was over [`CsrNeighbors`]: the fields
    /// a dense-row state must reproduce bit for bit.
    struct CsrOracle {
        csr: CsrNeighbors,
        fields: Vec<f64>,
        commits: usize,
        refresh_interval: usize,
    }

    impl CsrOracle {
        fn new(q: &QuboMatrix, x: &Assignment, refresh_interval: usize) -> Self {
            let csr = CsrNeighbors::build(q);
            let mut oracle = Self {
                fields: vec![0.0; csr.dim()],
                csr,
                commits: 0,
                refresh_interval,
            };
            oracle.refresh(x);
            oracle
        }

        fn refresh(&mut self, x: &Assignment) {
            let c = &self.csr;
            for i in 0..c.dim() {
                let mut h = c.diag[i];
                for k in c.offsets[i]..c.offsets[i + 1] {
                    if x.get(c.idx[k]) {
                        h += c.val[k];
                    }
                }
                self.fields[i] = h;
            }
            self.commits = 0;
        }

        fn commit(&mut self, x: &Assignment, bits: &[usize]) {
            for &i in bits {
                let sign = if x.get(i) { 1.0 } else { -1.0 };
                let c = &self.csr;
                for k in c.offsets[i]..c.offsets[i + 1] {
                    self.fields[c.idx[k]] += sign * c.val[k];
                }
            }
            self.commits += 1;
            if self.commits >= self.refresh_interval {
                self.refresh(x);
            }
        }

        fn flip_delta(&self, x: &Assignment, i: usize) -> f64 {
            if x.get(i) {
                -self.fields[i]
            } else {
                self.fields[i]
            }
        }
    }

    /// A matrix whose entries are drawn from signed zeros, small
    /// integers (so sums cancel to exactly zero) and non-integers (so
    /// sums round).
    fn signed_zero_qubo(n: usize, rng: &mut StdRng) -> QuboMatrix {
        let mut q = QuboMatrix::zeros(n);
        for i in 0..n {
            for j in i..n {
                let v = match rng.random_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f64::from(rng.random_range(-3i32..=3)),
                    _ => rng.random_range(-10.0..10.0),
                };
                q.set(i, j, v);
            }
        }
        // Every case holds both signed zeros on and off the diagonal.
        q.set(0, 0, -0.0);
        q.set(n - 1, n - 1, 0.0);
        q.set(0, n - 1, -0.0);
        q.set(0, 1, 0.0);
        q
    }

    #[test]
    fn dense_rows_walk_the_csr_fields_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(31);
        let bits = |v: &[f64]| v.iter().map(|h| h.to_bits()).collect::<Vec<_>>();
        let mut zero_fields = 0;
        for case in 0..40 {
            let n = rng.random_range(2..=12);
            let q = signed_zero_qubo(n, &mut rng);
            let mut x = Assignment::random(n, &mut rng);
            let mut lf = LocalFieldState::new(&q, &x).with_refresh_interval(7);
            let mut oracle = CsrOracle::new(&q, &x, 7);
            for i in 0..n {
                for j in (0..n).filter(|&j| j != i) {
                    assert_eq!(lf.coupling(i, j).to_bits(), q.get(i, j).to_bits());
                }
            }
            for step in 0..300 {
                let i = rng.random_range(0..n);
                if rng.random_bool(0.4) {
                    let j = (i + 1 + rng.random_range(0..n - 1)) % n;
                    let di = if x.get(i) { -1.0 } else { 1.0 };
                    let dj = if x.get(j) { -1.0 } else { 1.0 };
                    let old =
                        oracle.flip_delta(&x, i) + oracle.flip_delta(&x, j) + q.get(i, j) * di * dj;
                    assert_eq!(lf.pair_delta(&x, i, j).to_bits(), old.to_bits());
                    x.flip(i);
                    x.flip(j);
                    lf.commit_pair(&x, i, j);
                    oracle.commit(&x, &[i, j]);
                } else {
                    x.flip(i);
                    lf.commit_flip(&x, i);
                    oracle.commit(&x, &[i]);
                }
                let fields: Vec<f64> = (0..n).map(|k| lf.field(k)).collect();
                assert_eq!(
                    bits(&fields),
                    bits(&oracle.fields),
                    "case {case} step {step}"
                );
                assert!(
                    fields.iter().all(|h| h.to_bits() != (-0.0f64).to_bits()),
                    "case {case} step {step}: a field is -0.0"
                );
                zero_fields += fields.iter().filter(|&&h| h == 0.0).count();
            }
        }
        // The walks pass through fields that are exactly zero: the case
        // in which only `+0.0` keeps the zero couplings no-ops.
        assert!(zero_fields > 0);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "dense coupling rows of dimension 4294967296 overflow usize")]
    fn dense_rows_refuse_a_size_that_overflows() {
        let _ = dense_len(1 << 32);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn pair_delta_rejects_equal_bits() {
        let q = QuboMatrix::zeros(3);
        let x = Assignment::zeros(3);
        let lf = LocalFieldState::new(&q, &x);
        let _ = lf.pair_delta(&x, 1, 1);
    }
}
