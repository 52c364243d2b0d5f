//! Sakoe–Chiba constrained DTW: `cDTW_w`, the paper's protagonist.
//!
//! `w` follows the paper's convention of a *percentage of the series
//! length*; [`percent_to_band`] converts it to a cell radius. `cDTW_0` is
//! the (squared) Euclidean distance and `cDTW_100` is full DTW — identities
//! the test suite pins down.
//!
//! The kernel itself is the shared windowed DP over a band window, so exact
//! and approximate algorithms run literally the same inner loop; only the
//! set of admissible cells differs. For repeated comparisons at a fixed
//! shape, [`BandedDtw`] caches the window and scratch buffers.

use crate::cost::CostFn;
use crate::error::{Error, Result};
use crate::path::WarpingPath;
use crate::window::SearchWindow;
use tsdtw_obs::{Meter, NoMeter};

use super::kernel::Kernel;
use super::windowed::{windowed_distance_metered_kernel, windowed_with_path, DtwBuffer};

/// Converts the paper's percentage form of the warping constraint into a
/// band radius in cells: `⌈w/100 · n⌉`.
///
/// `n` should be the (common) series length; for unequal lengths use the
/// **longer** one, which keeps the constraint conservative — this is the
/// convention [`BandedDtw::with_percent`] applies (`n.max(m)`), so a given
/// `w` admits at least the cells it would admit for two series of the
/// longer length. Callers converting `w` themselves must use the same
/// length or their band radius will disagree with the evaluator's.
pub fn percent_to_band(n: usize, w_percent: f64) -> Result<usize> {
    if !(0.0..=100.0).contains(&w_percent) || !w_percent.is_finite() {
        return Err(Error::InvalidParameter {
            name: "w",
            reason: format!("warping window must be in [0, 100] percent, got {w_percent}"),
        });
    }
    Ok((w_percent / 100.0 * n as f64).ceil() as usize)
}

/// Rejects band radii so large that the band window arithmetic
/// (`column + band`) would overflow `usize` — otherwise
/// [`SearchWindow::sakoe_chiba`] wraps in release builds and produces a
/// silently wrong (far too narrow) window. Radii beyond the matrix are
/// still fine — they just mean "unconstrained" — so the check only trips
/// on nonsensical `i64`-scale values.
pub(crate) fn check_band(n: usize, m: usize, band: usize) -> Result<()> {
    if band.checked_add(n.max(m)).is_none() {
        return Err(Error::InvalidParameter {
            name: "band",
            reason: format!("band radius {band} overflows for series of length {n} and {m}"),
        });
    }
    Ok(())
}

/// `cDTW_w` distance with the band given as a cell radius.
pub fn cdtw_distance<C: CostFn>(x: &[f64], y: &[f64], band: usize, cost: C) -> Result<f64> {
    cdtw_distance_metered(x, y, band, cost, &mut NoMeter)
}

/// [`cdtw_distance`] with an explicit kernel route.
pub fn cdtw_distance_kernel<C: CostFn>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
    kernel: Kernel,
) -> Result<f64> {
    let mut buf = DtwBuffer::new();
    cdtw_distance_metered_with_buf_kernel(x, y, band, cost, &mut buf, &mut NoMeter, kernel)
}

/// [`cdtw_distance`] with work accounting: the meter receives the band
/// area as window cells, every filled cell, and the scratch footprint.
pub fn cdtw_distance_metered<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
    meter: &mut M,
) -> Result<f64> {
    let mut buf = DtwBuffer::new();
    cdtw_distance_metered_with_buf_kernel(x, y, band, cost, &mut buf, meter, Kernel::Auto)
}

/// [`cdtw_distance_metered`] reusing caller-provided scratch space — the
/// allocation-free form repeated-evaluation loops (1-NN, all-pairs) use
/// when they cannot keep a [`BandedDtw`] because shapes vary.
pub fn cdtw_distance_metered_with_buf<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
    buf: &mut DtwBuffer,
    meter: &mut M,
) -> Result<f64> {
    cdtw_distance_metered_with_buf_kernel(x, y, band, cost, buf, meter, Kernel::Auto)
}

/// [`cdtw_distance_metered_with_buf`] with an explicit kernel route.
pub fn cdtw_distance_metered_with_buf_kernel<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
    buf: &mut DtwBuffer,
    meter: &mut M,
    kernel: Kernel,
) -> Result<f64> {
    if x.is_empty() {
        return Err(Error::EmptyInput { which: "x" });
    }
    if y.is_empty() {
        return Err(Error::EmptyInput { which: "y" });
    }
    check_band(x.len(), y.len(), band)?;
    let _span = tsdtw_obs::span("cdtw");
    // The buffer memoizes the window, so a warmed same-shape loop (1-NN,
    // all-pairs) runs this entry point without touching the heap.
    let window = buf.take_sakoe_chiba(x.len(), y.len(), band);
    let r = windowed_distance_metered_kernel(x, y, &window, cost, buf, meter, kernel);
    buf.cache_window(band, window);
    r
}

/// `cDTW_w` distance and optimal constrained warping path.
pub fn cdtw_with_path<C: CostFn>(
    x: &[f64],
    y: &[f64],
    band: usize,
    cost: C,
) -> Result<(f64, WarpingPath)> {
    if x.is_empty() {
        return Err(Error::EmptyInput { which: "x" });
    }
    if y.is_empty() {
        return Err(Error::EmptyInput { which: "y" });
    }
    check_band(x.len(), y.len(), band)?;
    let window = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
    windowed_with_path(x, y, &window, cost)
}

/// A reusable `cDTW_w` evaluator for repeated comparisons of series of a
/// fixed shape: the band window is built once and the DP scratch space is
/// recycled across calls.
///
/// This is what the all-pairs (Fig. 1, Fig. 4) and 1-NN workloads use; it
/// removes every per-call allocation from the exact algorithm, the same
/// courtesy the FastDTW implementation gets from its own recursion-level
/// buffer reuse.
#[derive(Debug, Clone)]
pub struct BandedDtw {
    window: SearchWindow,
    buf: DtwBuffer,
    n: usize,
    m: usize,
}

impl BandedDtw {
    /// Prepares an evaluator for series of lengths `n` (first argument) and
    /// `m` (second argument) with a band radius of `band` cells.
    pub fn new(n: usize, m: usize, band: usize) -> Result<Self> {
        if n == 0 {
            return Err(Error::EmptyInput { which: "x" });
        }
        if m == 0 {
            return Err(Error::EmptyInput { which: "y" });
        }
        check_band(n, m, band)?;
        Ok(BandedDtw {
            window: SearchWindow::sakoe_chiba(n, m, band),
            buf: DtwBuffer::new(),
            n,
            m,
        })
    }

    /// Prepares an evaluator from the paper's percentage form of `w`.
    ///
    /// For unequal lengths the radius is `⌈w/100 · max(n, m)⌉` — the
    /// percentage is taken of the **longer** series, the conservative
    /// convention documented on [`percent_to_band`]. A caller converting
    /// with the shorter length would build a narrower band than this
    /// evaluator and disagree with it on unequal-length pairs.
    pub fn with_percent(n: usize, m: usize, w_percent: f64) -> Result<Self> {
        let band = percent_to_band(n.max(m), w_percent)?;
        Self::new(n, m, band)
    }

    /// The number of DP cells each call will fill — the direct driver of
    /// `cDTW`'s running time.
    pub fn cell_count(&self) -> usize {
        self.window.cell_count()
    }

    /// Computes the constrained distance. Series lengths must match the
    /// shape given at construction.
    pub fn distance<C: CostFn>(&mut self, x: &[f64], y: &[f64], cost: C) -> Result<f64> {
        self.distance_metered(x, y, cost, &mut NoMeter)
    }

    /// [`BandedDtw::distance`] with work accounting.
    pub fn distance_metered<C: CostFn, M: Meter>(
        &mut self,
        x: &[f64],
        y: &[f64],
        cost: C,
        meter: &mut M,
    ) -> Result<f64> {
        self.distance_metered_kernel(x, y, cost, meter, Kernel::Auto)
    }

    /// [`BandedDtw::distance_metered`] with an explicit kernel route.
    pub fn distance_metered_kernel<C: CostFn, M: Meter>(
        &mut self,
        x: &[f64],
        y: &[f64],
        cost: C,
        meter: &mut M,
        kernel: Kernel,
    ) -> Result<f64> {
        if x.len() != self.n || y.len() != self.m {
            return Err(Error::InvalidWindow {
                reason: format!(
                    "evaluator built for {}x{} but series are {}x{}",
                    self.n,
                    self.m,
                    x.len(),
                    y.len()
                ),
            });
        }
        windowed_distance_metered_kernel(x, y, &self.window, cost, &mut self.buf, meter, kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SquaredCost;
    use crate::dtw::full::dtw_distance;

    #[test]
    fn percent_zero_is_band_zero() {
        assert_eq!(percent_to_band(100, 0.0).unwrap(), 0);
    }

    #[test]
    fn percent_hundred_is_full_length() {
        assert_eq!(percent_to_band(450, 100.0).unwrap(), 450);
    }

    #[test]
    fn percent_rounds_up() {
        assert_eq!(percent_to_band(945, 4.0).unwrap(), 38); // 37.8 -> 38
    }

    #[test]
    fn percent_rejects_out_of_range() {
        assert!(percent_to_band(10, -1.0).is_err());
        assert!(percent_to_band(10, 101.0).is_err());
        assert!(percent_to_band(10, f64::NAN).is_err());
    }

    #[test]
    fn full_band_equals_full_dtw() {
        let x = [0.0, 3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0];
        let y = [2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0];
        let full = dtw_distance(&x, &y, SquaredCost).unwrap();
        let banded = cdtw_distance(&x, &y, x.len(), SquaredCost).unwrap();
        assert!((full - banded).abs() < 1e-12);
    }

    #[test]
    fn monotone_nonincreasing_in_band() {
        let x = [0.0, 2.0, 5.0, 3.0, 1.0, 4.0, 2.0, 0.0, 1.0, 3.0];
        let y = [1.0, 0.0, 2.0, 5.0, 3.0, 1.0, 4.0, 2.0, 0.0, 1.0];
        let mut last = f64::INFINITY;
        for band in 0..=10 {
            let d = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
            assert!(d <= last + 1e-12, "band {band}: {d} > previous {last}");
            last = d;
        }
    }

    #[test]
    fn band_zero_is_squared_euclidean() {
        // For equal lengths the band-0 window is exactly the diagonal, so
        // cDTW_0 must equal the squared Euclidean distance — the identity
        // the paper states in Section 2.
        let x = [0.0, 1.0, 2.0, 3.0, 4.0];
        let y = [0.5, 1.5, 2.5, 3.8, 4.5];
        let d = cdtw_distance(&x, &y, 0, SquaredCost).unwrap();
        let e: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!((d - e).abs() < 1e-12);
    }

    #[test]
    fn path_respects_band() {
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3 + 1.0).sin()).collect();
        let band = 4;
        let (_, path) = cdtw_with_path(&x, &y, band, SquaredCost).unwrap();
        assert!(path.max_diagonal_deviation() <= band);
    }

    #[test]
    fn evaluator_matches_one_shot_function() {
        let x = [0.0, 1.0, 4.0, 2.0, 1.0, 0.0];
        let y = [1.0, 0.0, 1.0, 4.0, 2.0, 1.0];
        let mut eval = BandedDtw::new(6, 6, 2).unwrap();
        let a = eval.distance(&x, &y, SquaredCost).unwrap();
        let b = cdtw_distance(&x, &y, 2, SquaredCost).unwrap();
        assert_eq!(a, b);
        // Second call reuses buffers and still agrees.
        let c = eval.distance(&x, &y, SquaredCost).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn metered_cdtw_counts_band_area() {
        use tsdtw_obs::WorkMeter;
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).sin()).collect();
        let y: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).cos()).collect();
        for band in [0, 2, 7, 40] {
            let mut meter = WorkMeter::new();
            let d = cdtw_distance_metered(&x, &y, band, SquaredCost, &mut meter).unwrap();
            assert_eq!(d, cdtw_distance(&x, &y, band, SquaredCost).unwrap());
            let area = SearchWindow::sakoe_chiba(40, 40, band).cell_count() as u64;
            assert_eq!(meter.window_cells, area, "band {band}");
            assert_eq!(meter.cells, area, "band {band}");
        }
    }

    #[test]
    fn evaluator_metered_matches_unmetered() {
        use tsdtw_obs::WorkMeter;
        let x = [0.0, 1.0, 4.0, 2.0, 1.0, 0.0];
        let y = [1.0, 0.0, 1.0, 4.0, 2.0, 1.0];
        let mut eval = BandedDtw::new(6, 6, 2).unwrap();
        let plain = eval.distance(&x, &y, SquaredCost).unwrap();
        let mut meter = WorkMeter::new();
        let metered = eval
            .distance_metered(&x, &y, SquaredCost, &mut meter)
            .unwrap();
        assert_eq!(plain, metered);
        assert_eq!(meter.cells, eval.cell_count() as u64);
    }

    #[test]
    fn evaluator_rejects_wrong_shape() {
        let mut eval = BandedDtw::new(4, 4, 1).unwrap();
        assert!(eval.distance(&[0.0; 5], &[0.0; 4], SquaredCost).is_err());
    }

    #[test]
    fn with_percent_uses_the_longer_length() {
        // The documented convention: for unequal lengths the percentage is
        // taken of max(n, m). Pin it by comparing the evaluator against the
        // radius-based API with an explicitly converted band.
        let x: Vec<f64> = (0..30).map(|i| (i as f64 * 0.4).sin()).collect();
        let y: Vec<f64> = (0..12).map(|i| (i as f64 * 0.4).cos()).collect();
        let w = 10.0;
        let band_long = percent_to_band(30, w).unwrap();
        let band_short = percent_to_band(12, w).unwrap();
        assert_ne!(band_long, band_short, "test needs the lengths to differ");
        let mut eval = BandedDtw::with_percent(30, 12, w).unwrap();
        let via_eval = eval.distance(&x, &y, SquaredCost).unwrap();
        let via_long = cdtw_distance(&x, &y, band_long, SquaredCost).unwrap();
        assert_eq!(via_eval.to_bits(), via_long.to_bits());
        // The wrong (shorter-length) conversion yields a narrower band and
        // here a different distance — the disagreement the doc warns about.
        let via_short = cdtw_distance(&x, &y, band_short, SquaredCost).unwrap();
        assert!(via_short >= via_long);
    }

    #[test]
    fn oversized_band_is_rejected_not_saturated() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0];
        for band in [usize::MAX, usize::MAX - 1, usize::MAX - 2] {
            assert!(
                cdtw_distance(&x, &y, band, SquaredCost).is_err(),
                "band {band}"
            );
            assert!(cdtw_with_path(&x, &y, band, SquaredCost).is_err());
            assert!(BandedDtw::new(3, 2, band).is_err());
        }
        // A merely over-wide band (larger than the matrix but no overflow)
        // still works and equals full DTW.
        let d = cdtw_distance(&x, &y, 1000, SquaredCost).unwrap();
        let full = dtw_distance(&x, &y, SquaredCost).unwrap();
        assert!((d - full).abs() < 1e-12);
    }

    #[test]
    fn unequal_lengths_supported() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let y = [0.0, 2.0, 4.0, 6.0];
        for band in 0..=8 {
            let d = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
            assert!(d.is_finite());
        }
    }
}
