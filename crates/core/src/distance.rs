//! Top-level convenience API: the distances most users need, with the
//! crate-default squared cost and percentage-form warping constraints.
//!
//! These free functions mirror the paper's notation: [`dtw`] is Full DTW
//! (`cDTW_100`), [`cdtw`] is `cDTW_w` with `w` as a percentage of the
//! series length, [`fastdtw`] is `FastDTW_r`.

use crate::cost::SquaredCost;
use crate::dtw::banded::{cdtw_distance, percent_to_band};
use crate::dtw::full::dtw_distance;
use crate::error::{Error, Result};
use crate::fastdtw::fastdtw_distance;

/// Full (unconstrained) DTW with squared local cost — the paper's
/// `cDTW_100`.
///
/// ```
/// // A time-shifted spike costs nothing under unconstrained warping
/// // (the shared boundary samples absorb the shift on both sides).
/// let x = [0.0, 5.0, 0.0, 0.0, 0.0];
/// let y = [0.0, 0.0, 0.0, 5.0, 0.0];
/// assert_eq!(tsdtw_core::dtw(&x, &y).unwrap(), 0.0);
/// ```
pub fn dtw(x: &[f64], y: &[f64]) -> Result<f64> {
    dtw_distance(x, y, SquaredCost)
}

/// Constrained DTW with the warping window `w_percent` given as a
/// percentage of the (longer) series length — the paper's `cDTW_w`.
///
/// ```
/// let x = [0.0, 1.0, 2.0, 1.0];
/// let y = [0.0, 0.0, 1.0, 2.0];
/// // w = 0 is the squared Euclidean distance; w = 100 is full DTW.
/// assert_eq!(
///     tsdtw_core::cdtw(&x, &y, 0.0).unwrap(),
///     tsdtw_core::sq_euclidean(&x, &y).unwrap()
/// );
/// assert_eq!(
///     tsdtw_core::cdtw(&x, &y, 100.0).unwrap(),
///     tsdtw_core::dtw(&x, &y).unwrap()
/// );
/// ```
pub fn cdtw(x: &[f64], y: &[f64], w_percent: f64) -> Result<f64> {
    let band = percent_to_band(x.len().max(y.len()), w_percent)?;
    cdtw_distance(x, y, band, SquaredCost)
}

/// FastDTW with the given radius — the paper's `FastDTW_r` (the tuned
/// implementation; see [`crate::fastdtw::reference`] for the canonical
/// one).
///
/// ```
/// let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
/// let y: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2 + 0.5).sin()).collect();
/// let exact = tsdtw_core::dtw(&x, &y).unwrap();
/// let approx = tsdtw_core::fastdtw(&x, &y, 4).unwrap();
/// // FastDTW evaluates one admissible path, so it upper-bounds the optimum.
/// assert!(approx >= exact);
/// ```
pub fn fastdtw(x: &[f64], y: &[f64], radius: usize) -> Result<f64> {
    fastdtw_distance(x, y, radius, SquaredCost)
}

/// Squared Euclidean distance (the paper's `cDTW_0`). Requires equal
/// lengths.
pub fn sq_euclidean(x: &[f64], y: &[f64]) -> Result<f64> {
    if x.is_empty() {
        return Err(Error::EmptyInput { which: "x" });
    }
    if x.len() != y.len() {
        return Err(Error::LengthMismatch {
            x_len: x.len(),
            y_len: y.len(),
        });
    }
    Ok(x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum())
}

/// Euclidean distance (root of [`sq_euclidean`]).
pub fn euclidean(x: &[f64], y: &[f64]) -> Result<f64> {
    sq_euclidean(x, y).map(f64::sqrt)
}

#[cfg(test)]
mod tests {
    use super::*;

    const X: [f64; 8] = [0.0, 1.0, 3.0, 2.0, 0.0, -1.0, 0.0, 1.0];
    const Y: [f64; 8] = [0.0, 0.0, 1.0, 3.0, 2.0, 0.0, -1.0, 0.0];

    #[test]
    fn plain_calls_leave_the_span_table_empty() {
        // No test in this crate arms the span probes, so every kernel's
        // span stays idle: nothing reaches the thread's table.
        dtw(&X, &Y).unwrap();
        cdtw(&X, &Y, 25.0).unwrap();
        fastdtw(&X, &Y, 1).unwrap();
        assert!(tsdtw_obs::take_spans().is_empty());
    }

    #[test]
    fn cdtw_at_zero_percent_is_sq_euclidean() {
        let a = cdtw(&X, &Y, 0.0).unwrap();
        let b = sq_euclidean(&X, &Y).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn cdtw_at_hundred_percent_is_full_dtw() {
        let a = cdtw(&X, &Y, 100.0).unwrap();
        let b = dtw(&X, &Y).unwrap();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn ordering_dtw_le_cdtw_le_euclidean() {
        let full = dtw(&X, &Y).unwrap();
        let banded = cdtw(&X, &Y, 25.0).unwrap();
        let e = sq_euclidean(&X, &Y).unwrap();
        assert!(full <= banded + 1e-12);
        assert!(banded <= e + 1e-12);
    }

    #[test]
    fn fastdtw_upper_bounds_dtw() {
        let full = dtw(&X, &Y).unwrap();
        for r in 0..4 {
            assert!(fastdtw(&X, &Y, r).unwrap() >= full - 1e-12);
        }
    }

    #[test]
    fn euclidean_is_root_of_squared() {
        let e = euclidean(&X, &Y).unwrap();
        let s = sq_euclidean(&X, &Y).unwrap();
        assert!((e * e - s).abs() < 1e-9);
    }

    #[test]
    fn euclidean_rejects_unequal_lengths() {
        assert!(sq_euclidean(&X, &Y[..7]).is_err());
        assert!(euclidean(&[], &[]).is_err());
    }
}
