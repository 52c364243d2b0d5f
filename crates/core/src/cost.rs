//! Pointwise cost functions for the DTW dynamic program.
//!
//! Every DP kernel in this crate is generic over a [`CostFn`], so exact DTW,
//! constrained DTW and FastDTW can be compared under *identical* local costs —
//! the paper stresses that its head-to-head comparisons keep "the same
//! language, the same hardware, the same task", and the same local cost is
//! part of that.
//!
//! The default throughout the crate is [`SquaredCost`], matching the
//! recurrence in the paper (`(X[i] - Y[j])^2 + min{...}`) and the UCR-suite
//! convention. [`AbsoluteCost`] (Manhattan) matches the original FastDTW
//! reference implementation by Salvador & Chan, whose published code used
//! `|x - y|`.

/// A local (pointwise) cost between two sample values.
///
/// Implementations must be cheap — this is the innermost call of every DP —
/// and must return values `≥ +0.0`, never `−0.0` or NaN for finite inputs,
/// finite short of overflow, so that accumulated costs remain ordered and
/// the DP's cell minimum returns `f64::min`'s bits without its NaN
/// handling. `f64::INFINITY` stands in for cells outside the search
/// window; a cost that overflows to it ([`SquaredCost`] at
/// `|a − b| ≳ 1.34e154`) makes the distance `+∞`, and every kernel still
/// returns a path inside its window. Every cost takes the same kernel
/// routes.
pub trait CostFn: Copy {
    /// The cost of aligning sample value `a` with sample value `b`.
    fn cost(&self, a: f64, b: f64) -> f64;

    /// Transforms a final accumulated cost into the reported distance.
    ///
    /// The identity by default. [`SquaredCost`] keeps the identity too (the
    /// UCR archive reports squared DTW); callers who want a rooted distance
    /// use [`Rooted`].
    #[inline]
    fn finish(&self, accumulated: f64) -> f64 {
        accumulated
    }
}

/// Squared difference: `(a - b)^2`. The crate-wide default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SquaredCost;

impl CostFn for SquaredCost {
    #[inline(always)]
    fn cost(&self, a: f64, b: f64) -> f64 {
        let d = a - b;
        d * d
    }
}

/// Absolute difference: `|a - b|`, as used by the original FastDTW release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbsoluteCost;

impl CostFn for AbsoluteCost {
    #[inline(always)]
    fn cost(&self, a: f64, b: f64) -> f64 {
        (a - b).abs()
    }
}

/// Wraps another cost so the *reported* distance is the square root of the
/// accumulated cost (a true metric-style distance when the inner cost is
/// [`SquaredCost`]).
///
/// The paper's Table 2 values (e.g. `0.020`, `6.822`) are of this rooted
/// form; `repro table2` uses `Rooted(SquaredCost)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rooted<C: CostFn>(pub C);

impl<C: CostFn> CostFn for Rooted<C> {
    #[inline(always)]
    fn cost(&self, a: f64, b: f64) -> f64 {
        self.0.cost(a, b)
    }

    #[inline]
    fn finish(&self, accumulated: f64) -> f64 {
        accumulated.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn squared_cost_is_square_of_difference() {
        assert_eq!(SquaredCost.cost(3.0, 1.0), 4.0);
        assert_eq!(SquaredCost.cost(1.0, 3.0), 4.0);
        assert_eq!(SquaredCost.cost(-2.0, 2.0), 16.0);
    }

    #[test]
    fn absolute_cost_is_magnitude_of_difference() {
        assert_eq!(AbsoluteCost.cost(3.0, 1.0), 2.0);
        assert_eq!(AbsoluteCost.cost(1.0, 3.0), 2.0);
        assert_eq!(AbsoluteCost.cost(-2.0, 2.0), 4.0);
    }

    #[test]
    fn costs_are_zero_on_identical_values() {
        for v in [-1.5, 0.0, 2.25, 1e6] {
            assert_eq!(SquaredCost.cost(v, v), 0.0);
            assert_eq!(AbsoluteCost.cost(v, v), 0.0);
        }
        // Signed zeros must cost `+0.0` exactly: a `−0.0` compares equal
        // to `0.0` above but would break the DP minimum's contract.
        for (a, b) in [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)] {
            assert_eq!(SquaredCost.cost(a, b).to_bits(), 0, "squared ({a}, {b})");
            assert_eq!(AbsoluteCost.cost(a, b).to_bits(), 0, "absolute ({a}, {b})");
            assert_eq!(
                Rooted(SquaredCost).cost(a, b).to_bits(),
                0,
                "rooted ({a}, {b})"
            );
        }
    }

    #[test]
    fn default_finish_is_identity() {
        assert_eq!(SquaredCost.finish(42.0), 42.0);
        assert_eq!(AbsoluteCost.finish(42.0), 42.0);
    }

    #[test]
    fn rooted_finish_takes_square_root_but_keeps_local_cost() {
        let c = Rooted(SquaredCost);
        assert_eq!(c.cost(3.0, 1.0), 4.0);
        assert_eq!(c.finish(9.0), 3.0);
    }
}
