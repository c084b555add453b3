//! Bit-parallel 64-replica local fields: `u64` spin bitplanes with
//! per-lane maintained fields.
//!
//! A replica grid (every `BatchRunner` study cell, every service job)
//! runs the *same* CSR sweep 64 times over independent spin
//! configurations. [`PackedReplicaState`] packs those 64 replicas into
//! one state: variable `i`'s spins across all replicas live in the 64
//! bits of `planes[i]` (bit `k` = lane `k`), and the maintained local
//! fields `h_i = Q_ii + Σ Q_ij·x_j` live lane-major in
//! `fields[i·64 + k]`. One neighbor walk of row `i` then serves all 64
//! lanes: a commit takes a 64-bit mask of accepting lanes, toggles the
//! plane word with one XOR, and updates neighbor fields only for the
//! set lanes — O(deg(i) · popcount(mask)) instead of 64 separate
//! O(deg(i)) walks, with the CSR row loaded once.
//!
//! # Bit-identity contract
//!
//! Lane `k` of a packed state is *bit-identical* to an independent
//! scalar [`LocalFieldState`](crate::LocalFieldState) replica at all
//! times, because every float op matches one-for-one:
//!
//! * per field, both add the same nonzero couplings in the same
//!   ascending column order: the packed state walks `CsrNeighbors`
//!   lists, the scalar state its dense coupling rows, whose zero
//!   entries are no-ops (see [`local_field`](crate::local_field));
//! * a masked commit applies `+v` to lanes turning on and `-v` to
//!   lanes turning off — IEEE-identical to the scalar
//!   `field += sign·v` update;
//! * each lane keeps its *own* commit counter, so the periodic
//!   anti-drift refresh fires for lane `k` exactly when it would for
//!   the scalar replica `k` (same
//!   [`DEFAULT_REFRESH_INTERVAL`],
//!   same recompute order).
//!
//! The lane extraction/insertion round-trip and field-equality laws
//! are pinned by proptests in `tests/properties.rs`; the run-level
//! packed-vs-64-scalar law lives in `hycim-core`.

use crate::local_field::{CsrNeighbors, DEFAULT_REFRESH_INTERVAL};
use crate::{Assignment, QuboMatrix};

/// Number of replica lanes in a packed state — the bits of a `u64`.
pub const LANES: usize = 64;

/// 64 replicas' spins as `u64` bitplanes per variable, with maintained
/// per-replica local fields over shared CSR neighbor lists.
///
/// # Example
///
/// ```
/// use hycim_qubo::{Assignment, PackedReplicaState, QuboMatrix, LANES};
///
/// let mut q = QuboMatrix::zeros(2);
/// q.set(0, 0, -4.0);
/// q.set(0, 1, 6.0);
/// let initials = vec![Assignment::zeros(2); LANES];
/// let mut ps = PackedReplicaState::new(&q, &initials);
///
/// assert_eq!(ps.flip_delta(0, 17), -4.0);   // lane 17 probes bit 0
/// ps.commit_masked(0, 1 << 17);             // only lane 17 flips
/// assert!(ps.lane_assignment(17).get(0));
/// assert_eq!(ps.flip_delta(1, 17), 6.0);    // lane 17 feels the coupling
/// assert_eq!(ps.flip_delta(1, 16), 0.0);    // lane 16 untouched
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PackedReplicaState {
    csr: CsrNeighbors,
    /// `planes[i]` bit `k` = lane `k`'s value of variable `i`.
    planes: Vec<u64>,
    /// Maintained fields, lane-major: `fields[i * LANES + k]`.
    fields: Vec<f64>,
    /// Per-lane commits since that lane's last full recompute.
    commits: [usize; LANES],
    /// Commits between per-lane recomputes; `0` disables refreshing.
    refresh_interval: usize,
}

impl PackedReplicaState {
    /// Builds the packed state from exactly [`LANES`] initial
    /// configurations (lane `k` starts at `initials[k]`).
    /// O(n + LANES·nnz).
    ///
    /// # Panics
    ///
    /// Panics if `initials.len() != LANES` or any configuration's
    /// length differs from `q.dim()`.
    pub fn new(q: &QuboMatrix, initials: &[Assignment]) -> Self {
        assert_eq!(
            initials.len(),
            LANES,
            "packed state needs exactly {LANES} initial configurations, got {}",
            initials.len()
        );
        let n = q.dim();
        let mut planes = vec![0u64; n];
        for (k, x) in initials.iter().enumerate() {
            assert_eq!(
                x.len(),
                n,
                "lane {k} assignment length {} does not match dim {n}",
                x.len()
            );
            for (i, plane) in planes.iter_mut().enumerate() {
                if x.get(i) {
                    *plane |= 1u64 << k;
                }
            }
        }
        let csr = CsrNeighbors::build(q);
        let mut state = Self {
            csr,
            planes,
            fields: vec![0.0; n * LANES],
            commits: [0; LANES],
            refresh_interval: DEFAULT_REFRESH_INTERVAL,
        };
        state.refresh_all();
        state
    }

    /// Sets the number of commits between per-lane field recomputes
    /// (`0` = never refresh). Scalar equivalence holds when the scalar
    /// replicas use the same interval.
    pub fn with_refresh_interval(mut self, interval: usize) -> Self {
        self.refresh_interval = interval;
        self
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.csr.dim()
    }

    /// The bitplane of variable `i`: bit `k` is lane `k`'s value.
    pub fn plane(&self, i: usize) -> u64 {
        self.planes[i]
    }

    /// All bitplanes (one word per variable) — lane snapshots for
    /// best-so-far tracking copy single bit columns out of this.
    pub fn planes(&self) -> &[u64] {
        &self.planes
    }

    /// Lane `k`'s value of variable `i`.
    fn spin(&self, i: usize, k: usize) -> bool {
        (self.planes[i] >> k) & 1 == 1
    }

    /// Lane `k`'s maintained field `h_i`.
    pub fn field(&self, i: usize, k: usize) -> f64 {
        self.fields[i * LANES + k]
    }

    /// All 64 lanes' fields of variable `i` (lane `k` at index `k`).
    pub fn fields_row(&self, i: usize) -> &[f64] {
        &self.fields[i * LANES..(i + 1) * LANES]
    }

    /// Lane `k`'s energy change of flipping bit `i`: `+h_i` for a 0→1
    /// flip, `−h_i` for 1→0 — the same O(1) probe as the scalar
    /// [`LocalFieldState::flip_delta`](crate::LocalFieldState::flip_delta).
    pub fn flip_delta(&self, i: usize, k: usize) -> f64 {
        if self.spin(i, k) {
            -self.field(i, k)
        } else {
            self.field(i, k)
        }
    }

    /// Lane `k`'s commits since its last full recompute (diagnostic).
    pub fn commits_since_refresh(&self, k: usize) -> usize {
        self.commits[k]
    }

    /// Lane `k`'s objective energy `xᵀQx`, recomputed from the CSR
    /// structure in O(n + nnz) — *bit-identical* to
    /// [`QuboMatrix::energy`] on the lane's configuration. The walk
    /// visits the same `(i, j)` terms in the same ascending order as
    /// the dense triangular scan; the terms it skips are structural
    /// zeros, whose `+0.0`/`−0.0` contributions cannot move any
    /// partial sum (no partial sum is ever `−0.0`: the accumulator
    /// starts at `+0.0` and IEEE exact cancellation rounds to `+0.0`).
    pub fn lane_energy(&self, k: usize) -> f64 {
        let mut e = 0.0;
        for i in 0..self.dim() {
            if (self.planes[i] >> k) & 1 != 1 {
                continue;
            }
            e += self.csr.diag[i];
            for t in self.csr.offsets[i]..self.csr.offsets[i + 1] {
                let j = self.csr.idx[t];
                if j > i && (self.planes[j] >> k) & 1 == 1 {
                    e += self.csr.val[t];
                }
            }
        }
        e
    }

    /// Extracts lane `k`'s configuration as an [`Assignment`]. O(n).
    pub fn lane_assignment(&self, k: usize) -> Assignment {
        Assignment::from_bits((0..self.dim()).map(|i| self.spin(i, k)))
    }

    /// Overwrites lane `k` with configuration `x` and recomputes its
    /// fields from scratch (resetting its commit counter), leaving
    /// every other lane untouched. O(n + nnz).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the state's dimension.
    pub fn set_lane_assignment(&mut self, k: usize, x: &Assignment) {
        assert_eq!(
            x.len(),
            self.dim(),
            "assignment length {} does not match dim {}",
            x.len(),
            self.dim()
        );
        let bit = 1u64 << k;
        for (i, plane) in self.planes.iter_mut().enumerate() {
            if x.get(i) {
                *plane |= bit;
            } else {
                *plane &= !bit;
            }
        }
        self.refresh_lane(k);
    }

    /// Commits a flip of bit `i` in every lane whose bit is set in
    /// `mask`: one XOR toggles the plane word, then each neighbor
    /// field is updated only for the accepting lanes —
    /// O(deg(i) · popcount(mask)) float ops. Lanes turning `i` on get
    /// `+Q_ij`, lanes turning it off get `−Q_ij`, in ascending CSR
    /// order per lane (bit-identical to the scalar commit). Per-lane
    /// commit counters advance and may trigger that lane's anti-drift
    /// refresh.
    pub fn commit_masked(&mut self, i: usize, mask: u64) {
        if mask == 0 {
            return;
        }
        let new_word = self.planes[i] ^ mask;
        self.planes[i] = new_word;
        let set_mask = new_word & mask; // lanes where x_i turned on
        let clear_mask = !new_word & mask; // lanes where x_i turned off
        for e in self.csr.offsets[i]..self.csr.offsets[i + 1] {
            let base = self.csr.idx[e] * LANES;
            let v = self.csr.val[e];
            let mut m = set_mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                self.fields[base + k] += v;
                m &= m - 1;
            }
            let mut m = clear_mask;
            while m != 0 {
                let k = m.trailing_zeros() as usize;
                self.fields[base + k] -= v;
                m &= m - 1;
            }
        }
        let mut m = mask;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            self.commits[k] += 1;
            if self.refresh_interval > 0 && self.commits[k] >= self.refresh_interval {
                self.refresh_lane(k);
            }
            m &= m - 1;
        }
    }

    /// Recomputes lane `k`'s fields from scratch, in the same CSR
    /// order as the scalar
    /// [`LocalFieldState::refresh`](crate::LocalFieldState::refresh),
    /// and zeroes its commit counter. O(n + nnz).
    fn refresh_lane(&mut self, k: usize) {
        for i in 0..self.dim() {
            let mut h = self.csr.diag[i];
            for e in self.csr.offsets[i]..self.csr.offsets[i + 1] {
                if (self.planes[self.csr.idx[e]] >> k) & 1 == 1 {
                    h += self.csr.val[e];
                }
            }
            self.fields[i * LANES + k] = h;
        }
        self.commits[k] = 0;
    }

    /// Recomputes every lane's fields from scratch. O(LANES·(n + nnz)).
    fn refresh_all(&mut self) {
        for k in 0..LANES {
            self.refresh_lane(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalFieldState;
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

    fn random_initials(n: usize, seed: u64) -> Vec<Assignment> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..LANES)
            .map(|_| Assignment::random(n, &mut rng))
            .collect()
    }

    #[test]
    fn lanes_round_trip_initial_configurations() {
        let q = random_sparse_qubo(13, 0.4, 1);
        let initials = random_initials(13, 2);
        let ps = PackedReplicaState::new(&q, &initials);
        for (k, x) in initials.iter().enumerate() {
            assert_eq!(&ps.lane_assignment(k), x, "lane {k}");
        }
    }

    #[test]
    fn initial_fields_match_scalar_replicas_exactly() {
        let q = random_sparse_qubo(17, 0.3, 3);
        let initials = random_initials(17, 4);
        let ps = PackedReplicaState::new(&q, &initials);
        for (k, x) in initials.iter().enumerate() {
            let lf = LocalFieldState::new(&q, x);
            for i in 0..17 {
                assert_eq!(ps.field(i, k), lf.field(i), "lane {k} field {i}");
                assert_eq!(
                    ps.flip_delta(i, k),
                    lf.flip_delta(x, i),
                    "lane {k} delta {i}"
                );
            }
        }
    }

    #[test]
    fn masked_commits_track_64_scalar_walks_bit_identically() {
        let q = random_sparse_qubo(11, 0.5, 5);
        let initials = random_initials(11, 6);
        let mut ps = PackedReplicaState::new(&q, &initials).with_refresh_interval(7);
        let mut scalars: Vec<(Assignment, LocalFieldState)> = initials
            .iter()
            .map(|x| {
                (
                    x.clone(),
                    LocalFieldState::new(&q, x).with_refresh_interval(7),
                )
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(7);
        for step in 0..300 {
            let i = rng.random_range(0..11);
            let mask: u64 = rng.random();
            ps.commit_masked(i, mask);
            for (k, (x, lf)) in scalars.iter_mut().enumerate() {
                if (mask >> k) & 1 == 1 {
                    x.flip(i);
                    lf.commit_flip(x, i);
                }
                assert_eq!(
                    ps.lane_assignment(k),
                    *x,
                    "lane {k} configuration diverged at step {step}"
                );
                for v in 0..11 {
                    assert_eq!(
                        ps.field(v, k).to_bits(),
                        lf.field(v).to_bits(),
                        "lane {k} field {v} diverged at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn lane_energy_matches_the_dense_triangular_scan_bitwise() {
        for seed in 0..5 {
            let q = random_sparse_qubo(23, 0.3, seed);
            let initials = random_initials(23, seed + 100);
            let ps = PackedReplicaState::new(&q, &initials);
            for (k, x) in initials.iter().enumerate() {
                assert_eq!(
                    ps.lane_energy(k).to_bits(),
                    q.energy(x).to_bits(),
                    "seed {seed} lane {k} energy diverged from QuboMatrix::energy"
                );
            }
        }
    }

    #[test]
    fn set_lane_assignment_rewrites_one_lane_only() {
        let q = random_sparse_qubo(9, 0.5, 8);
        let initials = random_initials(9, 9);
        let mut ps = PackedReplicaState::new(&q, &initials);
        let replacement = Assignment::ones_vec(9);
        ps.set_lane_assignment(31, &replacement);
        assert_eq!(ps.lane_assignment(31), replacement);
        assert_eq!(ps.commits_since_refresh(31), 0);
        let lf = LocalFieldState::new(&q, &replacement);
        for i in 0..9 {
            assert_eq!(ps.field(i, 31).to_bits(), lf.field(i).to_bits());
        }
        for (k, x) in initials.iter().enumerate() {
            if k != 31 {
                assert_eq!(&ps.lane_assignment(k), x, "lane {k} was disturbed");
            }
        }
    }

    #[test]
    fn per_lane_refresh_counters_fire_independently() {
        let q = random_sparse_qubo(6, 0.6, 10);
        let initials = vec![Assignment::zeros(6); LANES];
        let mut ps = PackedReplicaState::new(&q, &initials).with_refresh_interval(3);
        // Lane 0 commits twice, lane 1 commits three times (refreshes).
        ps.commit_masked(0, 0b11);
        ps.commit_masked(1, 0b10);
        ps.commit_masked(2, 0b11);
        assert_eq!(ps.commits_since_refresh(0), 2);
        assert_eq!(
            ps.commits_since_refresh(1),
            0,
            "lane 1 should have refreshed"
        );
    }

    #[test]
    #[should_panic(expected = "exactly 64")]
    fn rejects_wrong_lane_count() {
        let q = QuboMatrix::zeros(3);
        let _ = PackedReplicaState::new(&q, &[Assignment::zeros(3)]);
    }

    #[test]
    fn commit_with_empty_mask_is_a_no_op() {
        let q = random_sparse_qubo(5, 0.5, 11);
        let initials = random_initials(5, 12);
        let mut ps = PackedReplicaState::new(&q, &initials);
        let before = ps.clone();
        ps.commit_masked(2, 0);
        assert_eq!(ps, before);
    }
}
