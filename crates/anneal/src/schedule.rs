use std::fmt;

/// An annealing temperature schedule: temperature as a function of the
/// iteration index.
///
/// # Example
///
/// ```
/// use hycim_anneal::{GeometricSchedule, Schedule};
///
/// let s = GeometricSchedule::new(10.0, 0.5);
/// assert_eq!(s.temperature(0, 100), 10.0);
/// assert_eq!(s.temperature(2, 100), 2.5);
/// ```
pub trait Schedule {
    /// Temperature at iteration `iter` of `total` iterations. Must be
    /// non-negative, and a pure function of its arguments: the
    /// [`Annealer`](crate::Annealer) reads it only for uphill
    /// Metropolis tests, so a schedule cannot count on being called
    /// once per iteration, or in order.
    fn temperature(&self, iter: usize, total: usize) -> f64;
}

/// Geometric cooling `T_k = T₀ · αᵏ` — the standard hardware-annealer
/// schedule.
///
/// The repeated squares `α^(2^j)` are cached at construction, so a
/// [`temperature`](Schedule::temperature) read multiplies one cached
/// square per set bit of `k` instead of running `powi`'s squaring
/// loop. The product is taken in `powi`'s own order (increasing bit
/// order, starting from `1.0`), so every result has the same bits as
/// `T₀ · α.powi(k as i32)`. The products over the low eight bits are
/// tabulated too, so a read starts from `low[k & 255]` and multiplies
/// only the squares of `k`'s higher set bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometricSchedule {
    t0: f64,
    alpha: f64,
    /// `squares[j] = α^(2^j)`, built by repeated squaring; covers every
    /// iteration index up to `i32::MAX`.
    squares: [f64; 31],
    /// `low[b]` = the product, in increasing bit order from `1.0`, of
    /// `squares[j]` over the set bits `j` of `b`.
    low: [f64; 256],
}

impl GeometricSchedule {
    /// Creates a geometric schedule.
    ///
    /// # Panics
    ///
    /// Panics if `t0 <= 0` or `alpha` is outside `(0, 1]`.
    pub fn new(t0: f64, alpha: f64) -> Self {
        assert!(
            t0 > 0.0 && t0.is_finite(),
            "initial temperature must be positive"
        );
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self::with_squares(t0, alpha)
    }

    /// A schedule tuned for QKP profit scales: starts near the largest
    /// profit coefficient and decays to ~1% of it over `total`
    /// iterations.
    pub fn for_energy_scale(scale: f64, total: usize) -> Self {
        let t0 = scale.max(1.0);
        // α such that t0·α^total = 0.01·t0.
        let alpha = (0.01f64).powf(1.0 / total.max(1) as f64);
        Self::with_squares(t0, alpha)
    }

    fn with_squares(t0: f64, alpha: f64) -> Self {
        let mut squares = [alpha; 31];
        for j in 1..squares.len() {
            squares[j] = squares[j - 1] * squares[j - 1];
        }
        // Adding the highest bit last keeps the increasing bit order.
        let mut low = [1.0; 256];
        for b in 1..low.len() {
            let top = b.ilog2() as usize;
            low[b] = low[b ^ (1 << top)] * squares[top];
        }
        Self {
            t0,
            alpha,
            squares,
            low,
        }
    }

    /// Initial temperature.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Cooling factor per iteration.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }
}

impl Schedule for GeometricSchedule {
    fn temperature(&self, iter: usize, _total: usize) -> f64 {
        if iter > i32::MAX as usize {
            return self.t0 * self.alpha.powi(iter as i32);
        }
        let mut r = self.low[iter & 0xff];
        let mut k = iter & !0xff;
        while k != 0 {
            r *= self.squares[k.trailing_zeros() as usize];
            k &= k - 1;
        }
        self.t0 * r
    }
}

impl fmt::Display for GeometricSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "geometric(T₀={}, α={})", self.t0, self.alpha)
    }
}

/// Constant temperature (Metropolis sampling without cooling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSchedule {
    t: f64,
}

impl ConstantSchedule {
    /// Creates a constant schedule. A temperature of zero is allowed
    /// and yields pure greedy descent.
    ///
    /// # Panics
    ///
    /// Panics if `t < 0` or `t` is not finite.
    pub fn new(t: f64) -> Self {
        assert!(
            t >= 0.0 && t.is_finite(),
            "temperature must be non-negative"
        );
        Self { t }
    }
}

impl Schedule for ConstantSchedule {
    fn temperature(&self, _iter: usize, _total: usize) -> f64 {
        self.t
    }
}

impl fmt::Display for ConstantSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constant(T={})", self.t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_decays() {
        let s = GeometricSchedule::new(100.0, 0.9);
        assert!(s.temperature(10, 0) < s.temperature(5, 0));
        assert!(s.temperature(1000, 0) > 0.0);
    }

    /// `s.temperature(k, _)` has the bits of the `powi` form it
    /// replaces. `black_box` keeps the reference a runtime `powi` call.
    fn assert_powi_bits(s: &GeometricSchedule, k: usize) {
        use std::hint::black_box;
        let expected = s.t0() * black_box(s.alpha()).powi(black_box(k as i32));
        assert_eq!(
            s.temperature(k, 0).to_bits(),
            expected.to_bits(),
            "{s} at k = {k}"
        );
    }

    fn edge_indices() -> Vec<usize> {
        let mut ks = vec![0, 1, i32::MAX as usize];
        for j in 1..31 {
            ks.extend([(1 << j) - 1, 1 << j, (1 << j) + 1]);
        }
        if let Some(k) = (i32::MAX as usize).checked_add(1) {
            ks.push(k);
        }
        ks
    }

    #[test]
    fn cached_squares_reproduce_powi_over_whole_schedules() {
        for fraction in [0.002f64, 0.01, 0.05] {
            for iterations in [1usize, 100, 2_600, 100_000, 2_600_000] {
                let alpha = fraction.powf(1.0 / iterations as f64);
                let s = GeometricSchedule::new(137.5, alpha);
                for k in 0..=iterations {
                    assert_powi_bits(&s, k);
                }
                for k in edge_indices() {
                    assert_powi_bits(&s, k);
                }
            }
        }
        let s = GeometricSchedule::for_energy_scale(100.0, 2_600);
        for k in 0..=2_600 {
            assert_powi_bits(&s, k);
        }
    }

    #[test]
    fn cached_squares_reproduce_powi_through_underflow() {
        // α = 1 never cools; 0.5 walks through the subnormals; the tiny
        // values underflow within the first few squares.
        for alpha in [1.0, 0.5, 1e-160, f64::MIN_POSITIVE, 5e-324] {
            let s = GeometricSchedule::new(3.0, alpha);
            for k in (0..1_200).chain(edge_indices()) {
                assert_powi_bits(&s, k);
            }
        }
    }

    #[test]
    fn for_energy_scale_hits_one_percent() {
        let s = GeometricSchedule::for_energy_scale(100.0, 1000);
        let end = s.temperature(1000, 1000);
        assert!((end - 1.0).abs() < 0.01, "end temperature {end}");
    }

    #[test]
    fn constant_is_constant() {
        let s = ConstantSchedule::new(3.0);
        assert_eq!(s.temperature(0, 10), s.temperature(9, 10));
    }

    #[test]
    fn zero_constant_allowed() {
        assert_eq!(ConstantSchedule::new(0.0).temperature(5, 10), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn geometric_validates_alpha() {
        let _ = GeometricSchedule::new(1.0, 1.5);
    }

    #[test]
    fn display() {
        assert!(GeometricSchedule::new(1.0, 0.5)
            .to_string()
            .contains("geometric"));
        assert!(ConstantSchedule::new(1.0).to_string().contains("constant"));
    }
}
