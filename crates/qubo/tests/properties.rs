//! Property-based tests for the QUBO algebra invariants.

use hycim_qubo::dqubo::{AuxEncoding, DquboForm, PenaltyWeights};
use hycim_qubo::quant::QuantizedMatrix;
use hycim_qubo::{Assignment, InequalityQubo, IsingModel, LinearConstraint, QuboMatrix};
use proptest::prelude::*;

fn arb_qubo(max_n: usize) -> impl Strategy<Value = QuboMatrix> {
    (1..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-100.0..100.0f64, n * (n + 1) / 2).prop_map(move |vals| {
            let mut q = QuboMatrix::zeros(n);
            let mut it = vals.into_iter();
            for i in 0..n {
                for j in i..n {
                    q.set(i, j, it.next().unwrap());
                }
            }
            q
        })
    })
}

fn arb_assignment(n: usize) -> impl Strategy<Value = Assignment> {
    proptest::collection::vec(any::<bool>(), n).prop_map(Assignment::from_bits)
}

fn arb_constraint(n: usize) -> impl Strategy<Value = LinearConstraint> {
    (proptest::collection::vec(1u64..20, n), 1u64..40)
        .prop_map(|(w, c)| LinearConstraint::new(w, c).expect("valid constraint"))
}

proptest! {
    /// QUBO → Ising conversion is exact for every configuration.
    #[test]
    fn qubo_ising_energy_agreement(q in arb_qubo(10), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let ising = IsingModel::from_qubo(&q);
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Assignment::random(q.dim(), &mut rng);
        prop_assert!((q.energy(&x) - ising.energy_of_assignment(&x)).abs() < 1e-6);
    }

    /// Ising → QUBO → energy roundtrip is exact up to the offset.
    #[test]
    fn ising_roundtrip(q in arb_qubo(8), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let ising = IsingModel::from_qubo(&q);
        let (q2, constant) = ising.to_qubo().expect("nonempty");
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Assignment::random(q.dim(), &mut rng);
        prop_assert!((q.energy(&x) - (q2.energy(&x) + constant)).abs() < 1e-6);
    }

    /// Incremental flip delta always matches a full recompute.
    #[test]
    fn flip_delta_consistency(q in arb_qubo(12), seed in any::<u64>(), pick in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::random(q.dim(), &mut rng);
        let i = (pick as usize) % q.dim();
        let before = q.energy(&x);
        let delta = q.flip_delta(&x, i);
        x.flip(i);
        prop_assert!((q.energy(&x) - before - delta).abs() < 1e-6);
    }

    /// Energy is invariant under the (i,j)/(j,i) fold: building from
    /// transposed triplets gives the same energies.
    #[test]
    fn triplet_fold_symmetry(q in arb_qubo(8), seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let transposed: Vec<_> = q.iter_nonzero().map(|(i, j, v)| (j, i, v)).collect();
        let q2 = QuboMatrix::from_triplets(q.dim(), transposed).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Assignment::random(q.dim(), &mut rng);
        prop_assert!((q.energy(&x) - q2.energy(&x)).abs() < 1e-9);
    }

    /// The inequality-QUBO gate: feasible energies equal the raw
    /// objective, infeasible energies are exactly zero.
    #[test]
    fn inequality_gate((q, c, x) in (1usize..10).prop_flat_map(|n| {
        (arb_qubo_fixed(n), arb_constraint(n), arb_assignment(n))
    })) {
        let iq = InequalityQubo::new(q.clone(), c.clone()).expect("dims match");
        if c.is_satisfied(&x) {
            prop_assert_eq!(iq.energy(&x), q.energy(&x));
        } else {
            prop_assert_eq!(iq.energy(&x), 0.0);
        }
    }

    /// D-QUBO one-hot: lifting any *feasible nonempty* configuration
    /// yields zero penalty; lifting any infeasible one cannot.
    #[test]
    fn dqubo_lift_penalty((q, c, x) in (1usize..7).prop_flat_map(|n| {
        (arb_qubo_fixed(n), arb_constraint(n), arb_assignment(n))
    })) {
        let d = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot)
            .expect("dims match");
        let z = d.lift(&x);
        let p = d.penalty(&z, &q);
        let load = c.load(&x);
        if load >= 1 && load <= c.capacity() {
            prop_assert!(p.abs() < 1e-6, "feasible lift penalty {p}");
        } else {
            prop_assert!(p > 0.0, "infeasible/empty lift penalty {p}");
        }
    }

    /// Binary-slack D-QUBO dimension is logarithmic in C while one-hot
    /// is linear — and both penalize the same infeasible configurations.
    #[test]
    fn dqubo_encodings_agree_on_feasibility((q, c, x) in (1usize..6).prop_flat_map(|n| {
        (arb_qubo_fixed(n), arb_constraint(n), arb_assignment(n))
    })) {
        let one_hot = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::OneHot)
            .expect("one-hot");
        let binary = DquboForm::transform(&q, &c, PenaltyWeights::PAPER, AuxEncoding::Binary)
            .expect("binary");
        prop_assert!(binary.num_aux() <= one_hot.num_aux());
        let pb = binary.penalty(&binary.lift(&x), &q);
        if c.is_satisfied(&x) {
            prop_assert!(pb.abs() < 1e-6);
        } else {
            prop_assert!(pb > 0.0);
        }
    }

    /// Quantization error of every coefficient stays within half a level.
    #[test]
    fn quantization_error_bound(q in arb_qubo(8), bits in 2u32..12) {
        let quant = QuantizedMatrix::quantize(&q, bits);
        let back = quant.dequantize();
        for (i, j, v) in q.iter_nonzero() {
            prop_assert!((back.get(i, j) - v).abs() <= quant.max_error() + 1e-9);
        }
    }

    /// Feasible fraction from DP matches exhaustive enumeration.
    #[test]
    fn feasible_fraction_matches_enumeration(c in (1usize..10).prop_flat_map(arb_constraint)) {
        let n = c.dim();
        let mut feasible = 0u64;
        for bits in 0u64..(1 << n) {
            let x = Assignment::from_bits((0..n).map(|i| bits >> i & 1 == 1));
            if c.is_satisfied(&x) {
                feasible += 1;
            }
        }
        let expected = feasible as f64 / (1u64 << n) as f64;
        prop_assert!((c.feasible_fraction() - expected).abs() < 1e-9);
    }
}

fn arb_qubo_fixed(n: usize) -> impl Strategy<Value = QuboMatrix> {
    proptest::collection::vec(-100.0..100.0f64, n * (n + 1) / 2).prop_map(move |vals| {
        let mut q = QuboMatrix::zeros(n);
        let mut it = vals.into_iter();
        for i in 0..n {
            for j in i..n {
                q.set(i, j, it.next().unwrap());
            }
        }
        q
    })
}

// ---------------------------------------------------------------------
// Local-field incremental energy laws
// ---------------------------------------------------------------------

proptest! {
    /// A random sequence of probe/commit single- and pair-flip
    /// operations on [`LocalFieldState`] matches the dense
    /// `QuboMatrix::flip_delta` probe *and* a full `energy()`
    /// recompute within 1e-9 at every step.
    #[test]
    fn local_field_ops_match_dense(
        q in arb_qubo(14),
        seed in any::<u64>(),
        steps in 1usize..150,
    ) {
        use hycim_qubo::LocalFieldState;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = q.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::random(n, &mut rng);
        let mut lf = LocalFieldState::new(&q, &x);
        let mut energy = q.energy(&x);
        for _ in 0..steps {
            let i = rng.random_range(0..n);
            if n > 1 && rng.random_bool(0.3) {
                let j = (i + 1 + rng.random_range(0..n - 1)) % n;
                let delta = lf.pair_delta(&x, i, j);
                let dense = q.flip_delta(&x, i) + q.flip_delta(&x, j)
                    + q.get(i, j)
                        * if x.get(i) { -1.0 } else { 1.0 }
                        * if x.get(j) { -1.0 } else { 1.0 };
                prop_assert!((delta - dense).abs() < 1e-9, "pair probe diverged");
                if rng.random_bool(0.7) {
                    x.flip(i);
                    x.flip(j);
                    lf.commit_pair(&x, i, j);
                    energy += delta;
                }
            } else {
                let delta = lf.flip_delta(&x, i);
                prop_assert!((delta - q.flip_delta(&x, i)).abs() < 1e-9, "probe diverged");
                if rng.random_bool(0.7) {
                    x.flip(i);
                    lf.commit_flip(&x, i);
                    energy += delta;
                }
            }
            prop_assert!((energy - q.energy(&x)).abs() < 1e-8, "tracked energy diverged");
        }
    }

    /// The periodic refresh bounds float drift: after an arbitrarily
    /// long committed walk with a small refresh interval, every
    /// maintained field is within 1e-9 of the exact sum.
    #[test]
    fn local_field_refresh_bounds_drift(
        q in arb_qubo(10),
        seed in any::<u64>(),
        walk in 50usize..400,
    ) {
        use hycim_qubo::LocalFieldState;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let n = q.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::random(n, &mut rng);
        let mut lf = LocalFieldState::new(&q, &x).with_refresh_interval(16);
        for _ in 0..walk {
            let i = rng.random_range(0..n);
            x.flip(i);
            lf.commit_flip(&x, i);
        }
        // The interval guarantees at most 15 un-refreshed commits of
        // drift; with |Q| <= 100 that is far inside 1e-9.
        prop_assert!(lf.commits_since_refresh() < 16);
        for i in 0..n {
            prop_assert!(
                (lf.flip_delta(&x, i) - q.flip_delta(&x, i)).abs() < 1e-9,
                "field {i} drifted past the refresh bound"
            );
        }
    }

    /// The cached popcount stays consistent with the bits through any
    /// interleaving of set/flip/extend/truncate operations.
    #[test]
    fn ones_cache_matches_bits(
        seed in any::<u64>(),
        n in 1usize..40,
        ops in proptest::collection::vec((any::<u8>(), any::<usize>()), 1..80),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Assignment::random(n, &mut rng);
        for (op, raw) in ops {
            if x.is_empty() {
                break;
            }
            let i = raw % x.len();
            match op % 5 {
                0 => x.set(i, true),
                1 => x.set(i, false),
                2 => {
                    x.flip(i);
                }
                3 => x = x.extended(1),
                _ => x = x.truncated(x.len() - (x.len() > 1) as usize),
            }
            prop_assert_eq!(x.ones(), x.support().len(), "ones cache diverged");
        }
    }
}

proptest! {
    /// Bitplane lane extraction inverts construction, and inserting a
    /// fresh configuration into one lane round-trips without
    /// disturbing any other lane.
    #[test]
    fn packed_lane_extraction_insertion_round_trips(
        q in arb_qubo(12),
        seed in any::<u64>(),
        lane in 0usize..hycim_qubo::LANES,
    ) {
        use hycim_qubo::{PackedReplicaState, LANES};
        use rand::{rngs::StdRng, SeedableRng};
        let n = q.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let initials: Vec<Assignment> =
            (0..LANES).map(|_| Assignment::random(n, &mut rng)).collect();
        let mut ps = PackedReplicaState::new(&q, &initials);
        for (k, x) in initials.iter().enumerate() {
            prop_assert_eq!(&ps.lane_assignment(k), x, "extraction lane {}", k);
        }
        let replacement = Assignment::random(n, &mut rng);
        ps.set_lane_assignment(lane, &replacement);
        prop_assert_eq!(&ps.lane_assignment(lane), &replacement);
        for (k, x) in initials.iter().enumerate() {
            if k != lane {
                prop_assert_eq!(&ps.lane_assignment(k), x, "insertion disturbed lane {}", k);
            }
        }
    }

    /// After any sequence of masked commits, every packed lane's
    /// maintained fields are bit-identical to an independent scalar
    /// `LocalFieldState` replica fed the same flips — including the
    /// per-lane anti-drift refresh schedule.
    #[test]
    fn packed_fields_bit_identical_to_scalar_replicas(
        q in arb_qubo(10),
        seed in any::<u64>(),
        commits in proptest::collection::vec((any::<usize>(), any::<u64>()), 1..60),
        interval in 0usize..6,
    ) {
        use hycim_qubo::{LocalFieldState, PackedReplicaState, LANES};
        use rand::{rngs::StdRng, SeedableRng};
        let n = q.dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let initials: Vec<Assignment> =
            (0..LANES).map(|_| Assignment::random(n, &mut rng)).collect();
        let mut ps = PackedReplicaState::new(&q, &initials).with_refresh_interval(interval);
        let mut scalars: Vec<(Assignment, LocalFieldState)> = initials
            .iter()
            .map(|x| (x.clone(), LocalFieldState::new(&q, x).with_refresh_interval(interval)))
            .collect();
        for (raw_i, mask) in commits {
            let i = raw_i % n;
            ps.commit_masked(i, mask);
            for (k, (x, lf)) in scalars.iter_mut().enumerate() {
                if (mask >> k) & 1 == 1 {
                    x.flip(i);
                    lf.commit_flip(x, i);
                }
            }
        }
        for (k, (x, lf)) in scalars.iter().enumerate() {
            prop_assert_eq!(&ps.lane_assignment(k), x, "lane {} configuration", k);
            for i in 0..n {
                prop_assert_eq!(
                    ps.field(i, k).to_bits(),
                    lf.field(i).to_bits(),
                    "lane {} field {}", k, i
                );
            }
        }
    }
}
