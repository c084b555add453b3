use std::fmt;
use std::ops::Index;

use rand::Rng;

/// A binary variable configuration `x ∈ {0,1}ⁿ`.
///
/// This is the "input variable configuration" the paper's SA logic
/// generates each iteration (Sec 3.1) and the inequality filter
/// classifies (Sec 3.3).
///
/// # Example
///
/// ```
/// use hycim_qubo::Assignment;
///
/// let mut x = Assignment::zeros(4);
/// x.set(1, true);
/// x.set(3, true);
/// assert_eq!(x.ones(), 2);
/// assert_eq!(x.to_bit_string(), "0101");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Assignment {
    bits: Vec<bool>,
    /// Cached population count, maintained by every mutator so
    /// [`ones`](Assignment::ones) is O(1) — the SA exchange-move
    /// proposer reads it once per iteration.
    ones: usize,
}

impl Assignment {
    /// Creates an all-zero configuration of `n` variables.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// let x = Assignment::zeros(3);
    /// assert_eq!(x.ones(), 0);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Self {
            bits: vec![false; n],
            ones: 0,
        }
    }

    /// Creates an all-one configuration of `n` variables.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// assert_eq!(Assignment::ones_vec(3).ones(), 3);
    /// ```
    pub fn ones_vec(n: usize) -> Self {
        Self {
            bits: vec![true; n],
            ones: n,
        }
    }

    /// Builds a configuration from an iterator of bits.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// let x = Assignment::from_bits([true, false, true]);
    /// assert_eq!(x.len(), 3);
    /// ```
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let ones = popcount(&bits);
        Self { bits, ones }
    }

    /// Parses a configuration from a string of `'0'`/`'1'` characters.
    ///
    /// Returns `None` if any character is not `'0'` or `'1'`.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// let x = Assignment::parse_bit_string("0110").unwrap();
    /// assert_eq!(x.ones(), 2);
    /// assert!(Assignment::parse_bit_string("01x0").is_none());
    /// ```
    pub fn parse_bit_string(s: &str) -> Option<Self> {
        s.chars()
            .map(|c| match c {
                '0' => Some(false),
                '1' => Some(true),
                _ => None,
            })
            .collect::<Option<Vec<bool>>>()
            .map(Self::from)
    }

    /// Draws a uniformly random configuration of `n` variables.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// use rand::{rngs::StdRng, SeedableRng};
    /// let mut rng = StdRng::seed_from_u64(7);
    /// let x = Assignment::random(10, &mut rng);
    /// assert_eq!(x.len(), 10);
    /// ```
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        Self::from_bits((0..n).map(|_| rng.random_bool(0.5)))
    }

    /// Draws a random configuration where each bit is 1 with
    /// probability `density`.
    ///
    /// This is the Monte-Carlo sampler used to generate the 800 filter
    /// validation cases (paper Sec 4.1) and initial SA states (Sec 4.3).
    ///
    /// # Panics
    ///
    /// Panics if `density` is not within `0.0..=1.0`.
    pub fn random_with_density<R: Rng + ?Sized>(n: usize, density: f64, rng: &mut R) -> Self {
        assert!(
            (0.0..=1.0).contains(&density),
            "density must be in [0, 1], got {density}"
        );
        Self::from_bits((0..n).map(|_| rng.random_bool(density)))
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the configuration has zero variables.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Value of variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> bool {
        self.bits[i]
    }

    /// Sets variable `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn set(&mut self, i: usize, value: bool) {
        if self.bits[i] != value {
            self.ones = if value { self.ones + 1 } else { self.ones - 1 };
            self.bits[i] = value;
        }
    }

    /// Flips variable `i`, returning its new value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// let mut x = Assignment::zeros(2);
    /// assert!(x.flip(0));
    /// assert!(!x.flip(0));
    /// ```
    pub fn flip(&mut self, i: usize) -> bool {
        self.bits[i] = !self.bits[i];
        self.ones = if self.bits[i] {
            self.ones + 1
        } else {
            self.ones - 1
        };
        self.bits[i]
    }

    /// Number of variables set to 1 (the Hamming weight) — O(1), the
    /// count is maintained incrementally by every mutator.
    pub fn ones(&self) -> usize {
        debug_assert_eq!(self.ones, popcount(&self.bits), "ones cache diverged");
        self.ones
    }

    /// Iterates over the bit values.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, bool>> {
        self.bits.iter().copied()
    }

    /// Indices of variables set to 1, in ascending order.
    ///
    /// # Example
    ///
    /// ```
    /// use hycim_qubo::Assignment;
    /// let x = Assignment::from_bits([true, false, true]);
    /// assert_eq!(x.support(), vec![0, 2]);
    /// ```
    pub fn support(&self) -> Vec<usize> {
        self.bits
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| b.then_some(i))
            .collect()
    }

    /// View of the underlying bit slice.
    pub fn as_slice(&self) -> &[bool] {
        &self.bits
    }

    /// Renders the configuration as a string of `'0'`/`'1'`.
    pub fn to_bit_string(&self) -> String {
        self.bits
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// Returns a copy extended with extra zero variables.
    ///
    /// Used when lifting an n-variable configuration into an (n+C)-variable
    /// D-QUBO search space.
    pub fn extended(&self, extra: usize) -> Assignment {
        let mut bits = self.bits.clone();
        bits.extend(std::iter::repeat(false).take(extra));
        Assignment {
            bits,
            ones: self.ones,
        }
    }

    /// Returns the first `n` variables as a new configuration.
    ///
    /// # Panics
    ///
    /// Panics if `n > self.len()`.
    pub fn truncated(&self, n: usize) -> Assignment {
        assert!(n <= self.len(), "cannot truncate {} to {n}", self.len());
        let bits = self.bits[..n].to_vec();
        let ones = popcount(&bits);
        Assignment { bits, ones }
    }
}

fn popcount(bits: &[bool]) -> usize {
    bits.iter().filter(|&&b| b).count()
}

impl Index<usize> for Assignment {
    type Output = bool;

    fn index(&self, i: usize) -> &bool {
        &self.bits[i]
    }
}

impl FromIterator<bool> for Assignment {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

impl Extend<bool> for Assignment {
    fn extend<I: IntoIterator<Item = bool>>(&mut self, iter: I) {
        let before = self.bits.len();
        self.bits.extend(iter);
        self.ones += popcount(&self.bits[before..]);
    }
}

impl From<Vec<bool>> for Assignment {
    fn from(bits: Vec<bool>) -> Self {
        let ones = popcount(&bits);
        Self { bits, ones }
    }
}

impl fmt::Display for Assignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_bit_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_ones() {
        let z = Assignment::zeros(5);
        assert_eq!(z.ones(), 0);
        assert_eq!(z.len(), 5);
        let o = Assignment::ones_vec(5);
        assert_eq!(o.ones(), 5);
    }

    #[test]
    fn flip_roundtrip() {
        let mut x = Assignment::zeros(3);
        assert!(x.flip(1));
        assert!(x.get(1));
        assert!(!x.flip(1));
        assert_eq!(x, Assignment::zeros(3));
    }

    #[test]
    fn bit_string_roundtrip() {
        let x = Assignment::parse_bit_string("10110").unwrap();
        assert_eq!(x.to_bit_string(), "10110");
        assert_eq!(x.support(), vec![0, 2, 3]);
        assert_eq!(format!("{x}"), "10110");
    }

    #[test]
    fn parse_rejects_non_binary() {
        assert!(Assignment::parse_bit_string("012").is_none());
    }

    #[test]
    fn random_is_seed_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        assert_eq!(
            Assignment::random(64, &mut a),
            Assignment::random(64, &mut b)
        );
    }

    #[test]
    fn density_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(Assignment::random_with_density(20, 0.0, &mut rng).ones(), 0);
        assert_eq!(
            Assignment::random_with_density(20, 1.0, &mut rng).ones(),
            20
        );
    }

    #[test]
    #[should_panic(expected = "density")]
    fn density_out_of_range_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = Assignment::random_with_density(4, 1.5, &mut rng);
    }

    #[test]
    fn extend_and_truncate() {
        let x = Assignment::from_bits([true, false]);
        let y = x.extended(3);
        assert_eq!(y.len(), 5);
        assert_eq!(y.ones(), 1);
        assert_eq!(y.truncated(2), x);
    }

    #[test]
    fn collect_from_iterator() {
        let x: Assignment = [true, true, false].into_iter().collect();
        assert_eq!(x.ones(), 2);
        let mut y = Assignment::zeros(1);
        y.extend([true, false]);
        assert_eq!(y.len(), 3);
    }
}
