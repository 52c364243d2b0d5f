//! LB_Kim: constant-time-ish lower bounds from boundary points.
//!
//! Any warping path must align the first points of both series and the last
//! points of both series, so their pointwise costs always contribute. The
//! hierarchy variant adds the second and third points from each end with
//! the cheapest admissible alignment, as in the UCR suite — still O(1), but
//! noticeably tighter on z-normalized data.
//!
//! Both bounds read at most six points of each series, its [`Corners`]; the
//! tier arithmetic lives once, in [`lb_kim_corners`], so a caller that
//! derives the points on the fly (the subsequence search z-normalizes only
//! the window's corners) gets the slice wrappers' bits.

use crate::dtw::sweep::cell_min;
use crate::error::{check_nonempty, Error, Result};

#[inline(always)]
fn d(a: f64, b: f64) -> f64 {
    let v = a - b;
    v * v
}

/// The smallest of `terms`, by [`cell_min`].
#[inline(always)]
fn min_of<const N: usize>(terms: [f64; N]) -> f64 {
    let mut min = terms[0];
    for &t in &terms[1..] {
        min = cell_min(min, t);
    }
    min
}

/// The forced first-with-first cost, plus last-with-last unless both
/// series are single points (then the two alignments are one).
#[inline(always)]
fn fl(x0: f64, y0: f64, x_last: f64, y_last: f64, single: bool) -> f64 {
    let mut lb = d(x0, y0);
    if !single {
        lb += d(x_last, y_last);
    }
    lb
}

/// The points of a series LB_Kim reads: its first three and its last
/// three, `[s₀, s₁, s₂, s₋₃, s₋₂, s₋₁]` (negative indices count from the
/// end). A series shorter than six points takes only [`lb_kim_fl`]'s
/// first and last point, each copied into its half.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corners {
    len: usize,
    v: [f64; 6],
}

impl Corners {
    /// Reads the corners of a `len`-point series, value `i` being `at(i)`.
    /// `len` must be at least 1: `at(len - 1)` is read.
    #[inline(always)]
    pub fn read(len: usize, at: impl Fn(usize) -> f64) -> Corners {
        let v = if len < 6 {
            let (first, last) = (at(0), at(len - 1));
            [first, first, first, last, last, last]
        } else {
            [at(0), at(1), at(2), at(len - 3), at(len - 2), at(len - 1)]
        };
        Corners { len, v }
    }

    /// [`Corners::read`] of a slice.
    fn of(s: &[f64]) -> Corners {
        Corners::read(s.len(), |i| s[i])
    }

    /// Fails with [`Error::NonFiniteInput`] at the series index of the
    /// first non-finite corner of a series of at least six points.
    fn check_finite(&self, which: &'static str) -> Result<()> {
        match self.v.iter().position(|v| !v.is_finite()) {
            None => Ok(()),
            Some(k) => Err(Error::NonFiniteInput {
                which,
                index: if k < 3 { k } else { self.len + k - 6 },
            }),
        }
    }
}

/// LB_Kim from two series' [`Corners`]: the hierarchy when both series
/// have at least six points, [`lb_kim_fl`] otherwise. This is the one
/// copy of the tier arithmetic; it returns as soon as a tier's running
/// bound reaches `bsf`.
///
/// The corners must be finite. Every term is then a squared difference,
/// `≥ +0.0` and never `−0.0` or NaN, so the compare-select `cell_min`
/// returns `f64::min`'s bits without its NaN fix-up.
#[inline(always)]
pub fn lb_kim_corners(x: &Corners, y: &Corners, bsf: f64) -> f64 {
    let (a, b) = (&x.v, &y.v);
    if x.len < 6 || y.len < 6 {
        return fl(a[0], b[0], a[5], b[5], x.len == 1 && y.len == 1);
    }
    // Tier 1: the corners are forced alignments.
    let mut lb = d(a[0], b[0]) + d(a[5], b[5]);
    if lb >= bsf {
        return lb;
    }

    // Tier 2 (front): the second point of either series must align to one
    // of {(x1,y0), (x0,y1), (x1,y1)}; charging the min is admissible.
    lb += min_of([d(a[1], b[0]), d(a[0], b[1]), d(a[1], b[1])]);
    if lb >= bsf {
        return lb;
    }

    // Tier 2 (back).
    lb += min_of([d(a[4], b[5]), d(a[5], b[4]), d(a[4], b[4])]);
    if lb >= bsf {
        return lb;
    }

    // Tier 3 (front): third points; the admissible alignments for position
    // 2 involve indices ≤ 2 on both sides beyond those already charged.
    lb += min_of([
        d(a[2], b[0]),
        d(a[2], b[1]),
        d(a[2], b[2]),
        d(a[1], b[2]),
        d(a[0], b[2]),
    ]);
    if lb >= bsf {
        return lb;
    }

    // Tier 3 (back).
    lb + min_of([
        d(a[3], b[5]),
        d(a[3], b[4]),
        d(a[3], b[3]),
        d(a[4], b[3]),
        d(a[5], b[3]),
    ])
}

/// The simplest LB_Kim: cost of aligning first-with-first plus
/// last-with-last. Fails with [`Error::NonFiniteInput`] if one of the
/// (at most four) points it reads is not finite.
pub fn lb_kim_fl(x: &[f64], y: &[f64]) -> Result<f64> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    let ends = |s: &[f64], which| {
        let last = s.len() - 1;
        match [0, last].into_iter().find(|&i| !s[i].is_finite()) {
            Some(index) => Err(Error::NonFiniteInput { which, index }),
            None => Ok((s[0], s[last])),
        }
    };
    let (x0, x_last) = ends(x, "x")?;
    let (y0, y_last) = ends(y, "y")?;
    Ok(fl(x0, y0, x_last, y_last, x.len() == 1 && y.len() == 1))
}

/// The UCR-suite hierarchical LB_Kim: boundary points plus the cheapest
/// admissible alignment of the second and third points from each end, with
/// early exit against `bsf`.
///
/// Returns a valid lower bound in all cases; once the running bound exceeds
/// `bsf` it returns immediately (the partial sum is itself a lower bound).
/// Requires series of length ≥ 6 to apply the deeper tiers; shorter series
/// fall back to [`lb_kim_fl`]. Only the (at most twelve) points the bound
/// reads are checked, so the check is O(1): a non-finite one fails with
/// [`Error::NonFiniteInput`].
pub fn lb_kim_hierarchy(x: &[f64], y: &[f64], bsf: f64) -> Result<f64> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    if x.len() < 6 || y.len() < 6 {
        return lb_kim_fl(x, y);
    }
    let (cx, cy) = (Corners::of(x), Corners::of(y));
    cx.check_finite("x")?;
    cy.check_finite("y")?;
    Ok(lb_kim_corners(&cx, &cy, bsf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SquaredCost;
    use crate::dtw::full::dtw_distance;

    fn rand_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn fl_bound_is_corner_costs() {
        let x = [1.0, 5.0, 2.0];
        let y = [0.0, 9.0, 4.0];
        // (1-0)^2 + (2-4)^2 = 1 + 4.
        assert_eq!(lb_kim_fl(&x, &y).unwrap(), 5.0);
    }

    #[test]
    fn fl_singletons() {
        assert_eq!(lb_kim_fl(&[2.0], &[5.0]).unwrap(), 9.0);
    }

    #[test]
    fn both_bounds_never_exceed_full_dtw() {
        for seed in 0..30 {
            let x = rand_series(seed, 40);
            let y = rand_series(seed + 1000, 40);
            let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
            let fl = lb_kim_fl(&x, &y).unwrap();
            let h = lb_kim_hierarchy(&x, &y, f64::INFINITY).unwrap();
            assert!(
                fl <= exact + 1e-12,
                "seed {seed}: LB_Kim_FL {fl} > DTW {exact}"
            );
            assert!(
                h <= exact + 1e-12,
                "seed {seed}: LB_Kim_hier {h} > DTW {exact}"
            );
        }
    }

    #[test]
    fn hierarchy_at_least_as_tight_as_fl() {
        for seed in 0..20 {
            let x = rand_series(seed, 25);
            let y = rand_series(seed + 77, 25);
            let fl = lb_kim_fl(&x, &y).unwrap();
            let h = lb_kim_hierarchy(&x, &y, f64::INFINITY).unwrap();
            assert!(h >= fl - 1e-12);
        }
    }

    #[test]
    fn hierarchy_early_exit_returns_partial_bound() {
        let x = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let y = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0];
        // Corners alone contribute 200; with bsf = 1 the early exit fires.
        let lb = lb_kim_hierarchy(&x, &y, 1.0).unwrap();
        assert!(lb >= 200.0 - 1e-12);
        let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
        assert!(lb <= exact + 1e-12);
    }

    #[test]
    fn short_series_fall_back_to_fl() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.5, 1.5, 2.5];
        assert_eq!(
            lb_kim_hierarchy(&x, &y, f64::INFINITY).unwrap(),
            lb_kim_fl(&x, &y).unwrap()
        );
    }

    /// The tiers as they were written before the shared corner function:
    /// `f64::min` chains over slice reads.
    fn hierarchy_with_f64_min(x: &[f64], y: &[f64], bsf: f64) -> f64 {
        let (n, m) = (x.len(), y.len());
        let mut lb = d(x[0], y[0]) + d(x[n - 1], y[m - 1]);
        if lb >= bsf {
            return lb;
        }
        lb += d(x[1], y[0]).min(d(x[0], y[1])).min(d(x[1], y[1]));
        if lb >= bsf {
            return lb;
        }
        lb += d(x[n - 2], y[m - 1])
            .min(d(x[n - 1], y[m - 2]))
            .min(d(x[n - 2], y[m - 2]));
        if lb >= bsf {
            return lb;
        }
        lb += d(x[2], y[0])
            .min(d(x[2], y[1]))
            .min(d(x[2], y[2]))
            .min(d(x[1], y[2]))
            .min(d(x[0], y[2]));
        if lb >= bsf {
            return lb;
        }
        lb + d(x[n - 3], y[m - 1])
            .min(d(x[n - 3], y[m - 2]))
            .min(d(x[n - 3], y[m - 3]))
            .min(d(x[n - 2], y[m - 3]))
            .min(d(x[n - 1], y[m - 3]))
    }

    #[test]
    fn corner_tiers_keep_the_f64_min_bits() {
        for seed in 0..40 {
            let (n, m) = (6 + seed as usize % 7, 6 + seed as usize % 5);
            let x = rand_series(seed, n);
            // Repeated values make ties, and ±0.0 differences, common.
            let y: Vec<f64> = rand_series(seed + 500, m)
                .iter()
                .map(|v| (v * 2.0).round() / 2.0)
                .collect();
            let full = hierarchy_with_f64_min(&x, &y, f64::INFINITY);
            for bsf in [f64::INFINITY, full, full * 0.5, 0.0] {
                let want = hierarchy_with_f64_min(&x, &y, bsf);
                let got = lb_kim_hierarchy(&x, &y, bsf).unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} bsf {bsf}");
                let lazy = lb_kim_corners(
                    &Corners::read(n, |i| x[i]),
                    &Corners::read(m, |j| y[j]),
                    bsf,
                );
                assert_eq!(lazy.to_bits(), want.to_bits(), "seed {seed} bsf {bsf}");
            }
        }
        // Below six points the corners give the first/last bound.
        for (n, m) in [(1, 1), (1, 4), (5, 9), (2, 2)] {
            let (x, y) = (rand_series(n as u64, n), rand_series(m as u64 + 9, m));
            let fl = lb_kim_fl(&x, &y).unwrap();
            let lazy = lb_kim_corners(
                &Corners::read(n, |i| x[i]),
                &Corners::read(m, |j| y[j]),
                0.0,
            );
            assert_eq!(lazy.to_bits(), fl.to_bits(), "{n} x {m}");
        }
    }

    #[test]
    fn rejects_a_non_finite_point_it_reads_and_only_those() {
        let n = 9;
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for index in 0..n {
                let mut x = rand_series(1, n);
                x[index] = bad;
                let y = rand_series(2, n);
                let read = index < 3 || index >= n - 3;
                let h = lb_kim_hierarchy(&x, &y, f64::INFINITY);
                let swapped = lb_kim_hierarchy(&y, &x, f64::INFINITY);
                if read {
                    assert_eq!(h, Err(Error::NonFiniteInput { which: "x", index }));
                    assert_eq!(swapped, Err(Error::NonFiniteInput { which: "y", index }));
                } else {
                    assert!(h.unwrap().is_finite() && swapped.unwrap().is_finite());
                }
                // The first/last bound reads indices 0 and n - 1 only.
                let fl = lb_kim_fl(&x, &y);
                if index == 0 || index == n - 1 {
                    assert_eq!(fl, Err(Error::NonFiniteInput { which: "x", index }));
                } else {
                    assert!(fl.is_ok());
                }
            }
        }
        // Short series take the first/last fallback, with its check.
        assert_eq!(
            lb_kim_hierarchy(&[0.0, 1.0, f64::NAN], &[1.0; 8], f64::INFINITY),
            Err(Error::NonFiniteInput {
                which: "x",
                index: 2
            })
        );
    }

    #[test]
    fn zero_for_identical_series() {
        let x = rand_series(3, 30);
        assert_eq!(lb_kim_hierarchy(&x, &x, f64::INFINITY).unwrap(), 0.0);
    }
}
