//! Unconstrained ("Full") DTW — `cDTW_100` in the paper's notation.
//!
//! Both variants run the windowed kernel over the full window. The
//! distance takes [`Kernel::Auto`]'s route like every other windowed
//! call, so once the shorter series is [`WAVEFRONT_MIN_WIDTH`] points
//! long the paper's Fig. 6 crossover experiment times the wavefront
//! against FastDTW; below that it runs the row sweep.
//!
//! [`WAVEFRONT_MIN_WIDTH`]: super::kernel::WAVEFRONT_MIN_WIDTH

use crate::cost::CostFn;
use crate::error::{check_finite, check_nonempty, Result};
use crate::path::WarpingPath;
use crate::window::SearchWindow;
use tsdtw_obs::NoMeter;

use super::kernel::Kernel;
use super::windowed::{windowed_distance_metered_kernel, DtwBuffer};

/// Exact unconstrained DTW distance between `x` and `y`.
///
/// Time `O(n·m)`, memory `O(n + m)`: the window's row bounds plus the
/// kernel's rolling rows (or diagonals), which hold `min(n, m)` cells
/// because the longer series indexes the rows. With a symmetric local
/// cost (every built-in one) that transposition cannot change the
/// result's bits, since the cell minimum is exact.
pub fn dtw_distance<C: CostFn>(x: &[f64], y: &[f64], cost: C) -> Result<f64> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    check_finite("x", x)?;
    check_finite("y", y)?;
    let _span = tsdtw_obs::span("dtw_full");
    let (rows, cols) = if x.len() >= y.len() { (x, y) } else { (y, x) };
    let window = SearchWindow::full(rows.len(), cols.len());
    windowed_distance_metered_kernel(
        rows,
        cols,
        &window,
        cost,
        &mut DtwBuffer::new(),
        &mut NoMeter,
        Kernel::Auto,
    )
}

/// Exact unconstrained DTW distance *and* an optimal warping path.
///
/// Time and memory `O(n·m)`: one traceback byte per cell.
pub fn dtw_with_path<C: CostFn>(x: &[f64], y: &[f64], cost: C) -> Result<(f64, WarpingPath)> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    let window = SearchWindow::full(x.len(), y.len());
    super::windowed::windowed_with_path(x, y, &window, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{Rooted, SquaredCost};

    #[test]
    fn zero_on_identical_series() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw_distance(&x, &x, SquaredCost).unwrap(), 0.0);
    }

    #[test]
    fn singleton_pair_is_pointwise_cost() {
        assert_eq!(dtw_distance(&[3.0], &[1.0], SquaredCost).unwrap(), 4.0);
    }

    #[test]
    fn singleton_against_constant_series_is_sum() {
        // One point must align to every point of the other series.
        let d = dtw_distance(&[0.0], &[1.0, 1.0, 1.0], SquaredCost).unwrap();
        assert_eq!(d, 3.0);
    }

    #[test]
    fn symmetric_in_arguments() {
        let x = [0.0, 1.0, 5.0, 2.0, 0.0, 3.0];
        let y = [1.0, 4.0, 2.0, 2.0, 1.0];
        let a = dtw_distance(&x, &y, SquaredCost).unwrap();
        let b = dtw_distance(&y, &x, SquaredCost).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn shifted_spike_aligns_perfectly() {
        // DTW's canonical win over Euclidean: a time-shifted feature.
        let x = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0];
        let y = [0.0, 0.0, 0.0, 0.0, 5.0, 0.0];
        let d = dtw_distance(&x, &y, SquaredCost).unwrap();
        assert_eq!(d, 0.0);
        let sq_euclid: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        assert_eq!(sq_euclid, 50.0);
    }

    #[test]
    fn never_exceeds_squared_euclidean() {
        // The lock-step (diagonal) path is always admissible, so DTW is a
        // lower envelope of squared Euclidean for equal lengths.
        let x = [0.3, -1.2, 2.2, 0.9, -0.4, 1.1, 1.8, -2.0];
        let y = [0.1, -0.9, 1.7, 1.3, -1.0, 0.6, 2.2, -1.5];
        let d = dtw_distance(&x, &y, SquaredCost).unwrap();
        let e: f64 = x.iter().zip(&y).map(|(a, b)| (a - b) * (a - b)).sum();
        assert!(d <= e + 1e-12);
    }

    #[test]
    fn path_variant_matches_distance_variant() {
        let x = [0.0, 2.0, 4.0, 4.0, 1.0];
        let y = [0.0, 0.0, 2.0, 4.0, 1.0, 1.0];
        let d = dtw_distance(&x, &y, SquaredCost).unwrap();
        let (dp, path) = dtw_with_path(&x, &y, SquaredCost).unwrap();
        assert!((d - dp).abs() < 1e-12);
        assert_eq!(path.replay_cost(&x, &y, SquaredCost).unwrap(), dp);
    }

    #[test]
    fn rooted_cost_reports_square_root() {
        let x = [0.0, 3.0];
        let y = [0.0, 0.0];
        let raw = dtw_distance(&x, &y, SquaredCost).unwrap();
        let rooted = dtw_distance(&x, &y, Rooted(SquaredCost)).unwrap();
        assert!((rooted - raw.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn orientation_of_rolling_rows_does_not_change_result() {
        // Internal optimization puts the shorter series on columns; verify
        // both orientations produce the same distance.
        let x = [0.0, 1.0, 0.5, 2.0, 1.0, 0.0, 1.5];
        let y = [0.5, 1.5, 0.0];
        let a = dtw_distance(&x, &y, SquaredCost).unwrap();
        let b = dtw_distance(&y, &x, SquaredCost).unwrap();
        assert!((a - b).abs() < 1e-12);
    }
}
