//! Reference QKP solvers used to establish the "optimal QKP value" of
//! the paper's success criterion (Sec 4.3: success = reaching ≥ 95% of
//! the optimum).
//!
//! Exact optima for 100-item QKP are out of reach, so — as is standard
//! for this benchmark family — [`best_known`] combines a greedy
//! construction with randomized local search restarts and returns the
//! best value found. Exhaustive search is provided for small instances
//! and used to validate the heuristics in tests.

use hycim_qubo::Assignment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{CopError, QkpInstance};

/// Exhaustive optimum for small instances.
///
/// # Errors
///
/// Returns [`CopError::TooLarge`] for more than 25 items.
///
/// # Example
///
/// ```
/// use hycim_cop::{solvers, QkpInstance};
///
/// # fn main() -> Result<(), hycim_cop::CopError> {
/// let inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9)?;
/// let (x, value) = solvers::exhaustive(&inst)?;
/// assert_eq!(value, 18);
/// assert!(inst.is_feasible(&x));
/// # Ok(())
/// # }
/// ```
pub fn exhaustive(inst: &QkpInstance) -> Result<(Assignment, u64), CopError> {
    let n = inst.num_items();
    const LIMIT: usize = 25;
    if n > LIMIT {
        return Err(CopError::TooLarge {
            items: n,
            limit: LIMIT,
        });
    }
    let mut best_x = Assignment::zeros(n);
    let mut best_v = 0u64;
    for bits in 0u64..(1 << n) {
        let x = Assignment::from_bits((0..n).map(|i| bits >> i & 1 == 1));
        if inst.is_feasible(&x) {
            let v = inst.value(&x);
            if v > best_v {
                best_v = v;
                best_x = x;
            }
        }
    }
    Ok((best_x, best_v))
}

/// Greedy construction: repeatedly inserts the fitting item with the
/// best marginal profit density (marginal profit including pair
/// profits with already-selected items, divided by weight).
pub fn greedy(inst: &QkpInstance) -> Assignment {
    let n = inst.num_items();
    let mut x = Assignment::zeros(n);
    let mut load = 0u64;
    let mut remaining: Vec<usize> = (0..n).collect();
    loop {
        let mut best: Option<(usize, f64)> = None;
        for (pos, &i) in remaining.iter().enumerate() {
            if load + inst.weights()[i] > inst.capacity() {
                continue;
            }
            let marginal = marginal_profit(inst, &x, i);
            let density = marginal as f64 / inst.weights()[i] as f64;
            if best.map(|(_, d)| density > d).unwrap_or(true) {
                best = Some((pos, density));
            }
        }
        match best {
            Some((pos, _)) => {
                let i = remaining.swap_remove(pos);
                x.set(i, true);
                load += inst.weights()[i];
            }
            None => break,
        }
    }
    x
}

/// Profit gained by adding item `i` to the current selection.
fn marginal_profit(inst: &QkpInstance, x: &Assignment, i: usize) -> u64 {
    let mut gain = inst.item_profits()[i];
    for j in 0..inst.num_items() {
        if j != i && x.get(j) {
            gain += inst.pair_profit(i, j);
        }
    }
    gain
}

/// First-improvement local search over single flips and 1-in/1-out
/// swaps, maintaining feasibility. Returns the improved selection.
///
/// # Panics
///
/// Panics if `start.len() != inst.num_items()` or `start` is
/// infeasible.
pub fn local_search(inst: &QkpInstance, start: &Assignment) -> Assignment {
    assert!(
        inst.is_feasible(start),
        "local search needs a feasible start"
    );
    let n = inst.num_items();
    let mut x = start.clone();
    let mut value = inst.value(&x);
    let mut improved = true;
    while improved {
        improved = false;
        // Single-bit flips.
        for i in 0..n {
            let mut cand = x.clone();
            cand.flip(i);
            if inst.is_feasible(&cand) {
                let v = inst.value(&cand);
                if v > value {
                    x = cand;
                    value = v;
                    improved = true;
                }
            }
        }
        // Swap one selected item out, one unselected in.
        let selected: Vec<usize> = x.support();
        let unselected: Vec<usize> = (0..n).filter(|&i| !x.get(i)).collect();
        'swaps: for &out in &selected {
            for &inn in &unselected {
                let mut cand = x.clone();
                cand.set(out, false);
                cand.set(inn, true);
                if inst.is_feasible(&cand) {
                    let v = inst.value(&cand);
                    if v > value {
                        x = cand;
                        value = v;
                        improved = true;
                        break 'swaps;
                    }
                }
            }
        }
    }
    x
}

/// Best-known value for an instance: greedy + local search, plus
/// `restarts` randomized-start local searches. Deterministic in
/// `seed`.
///
/// This stands in for the "true optimal value" of the paper's success
/// criterion.
pub fn best_known(inst: &QkpInstance, restarts: usize, seed: u64) -> (Assignment, u64) {
    let mut best_x = local_search(inst, &greedy(inst));
    let mut best_v = inst.value(&best_x);
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..restarts {
        let start = random_feasible(inst, &mut rng);
        let x = local_search(inst, &start);
        let v = inst.value(&x);
        if v > best_v {
            best_v = v;
            best_x = x;
        }
    }
    (best_x, best_v)
}

/// Draws a random feasible selection by shuffling items and inserting
/// while they fit.
pub fn random_feasible<R: Rng + ?Sized>(inst: &QkpInstance, rng: &mut R) -> Assignment {
    let n = inst.num_items();
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher-Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
    }
    let mut x = Assignment::zeros(n);
    let mut load = 0u64;
    for i in order {
        if load + inst.weights()[i] <= inst.capacity() && rng.random_bool(0.8) {
            x.set(i, true);
            load += inst.weights()[i];
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::QkpGenerator;

    fn fig7e() -> QkpInstance {
        let mut inst = QkpInstance::new(vec![10, 6, 8], vec![4, 7, 2], 9).unwrap();
        inst.set_pair_profit(0, 1, 3);
        inst.set_pair_profit(0, 2, 7);
        inst.set_pair_profit(1, 2, 2);
        inst
    }

    #[test]
    fn exhaustive_fig7e() {
        let (x, v) = exhaustive(&fig7e()).unwrap();
        assert_eq!(v, 25);
        assert_eq!(x, Assignment::from_bits([true, false, true]));
    }

    #[test]
    fn exhaustive_rejects_large() {
        let inst = QkpGenerator::new(30, 0.5).generate(1);
        assert!(matches!(
            exhaustive(&inst),
            Err(CopError::TooLarge { items: 30, .. })
        ));
    }

    #[test]
    fn greedy_is_feasible_and_reasonable() {
        for seed in 0..10 {
            let inst = QkpGenerator::new(15, 0.5).generate(seed);
            let g = greedy(&inst);
            assert!(inst.is_feasible(&g), "greedy infeasible at seed {seed}");
            let (_, opt) = exhaustive(&inst).unwrap();
            let gv = inst.value(&g);
            assert!(
                gv as f64 >= 0.5 * opt as f64,
                "greedy {gv} below half of optimum {opt} at seed {seed}"
            );
        }
    }

    #[test]
    fn local_search_never_worsens() {
        for seed in 0..10 {
            let inst = QkpGenerator::new(15, 0.75).generate(seed);
            let g = greedy(&inst);
            let improved = local_search(&inst, &g);
            assert!(inst.is_feasible(&improved));
            assert!(inst.value(&improved) >= inst.value(&g));
        }
    }

    #[test]
    fn best_known_matches_exhaustive_on_small_instances() {
        for seed in 0..8 {
            let inst = QkpGenerator::new(12, 0.5).generate(seed);
            let (_, opt) = exhaustive(&inst).unwrap();
            let (bx, bv) = best_known(&inst, 20, seed);
            assert!(inst.is_feasible(&bx));
            assert!(
                bv as f64 >= 0.95 * opt as f64,
                "best known {bv} below 95% of {opt} at seed {seed}"
            );
        }
    }

    #[test]
    fn random_feasible_respects_capacity() {
        let inst = QkpGenerator::new(40, 0.5).generate(3);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let x = random_feasible(&inst, &mut rng);
            assert!(inst.is_feasible(&x));
        }
    }
}
