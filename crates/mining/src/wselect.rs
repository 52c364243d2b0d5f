//! Brute-force search for the optimal warping window — the procedure
//! behind the paper's Fig. 2a.
//!
//! The UCR archive's published "optimal w" values (the paper's proxy for
//! each domain's natural warping `W`) were computed by evaluating
//! leave-one-out 1-NN accuracy at every window in a grid and keeping the
//! best, ties broken toward the *smaller* window. [`optimal_window`] is
//! that procedure.

use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_core::error::{Error, Result};

use crate::dataset_views::LabeledView;
use crate::knn::loocv_error_cdtw_fast_par;
use crate::par::ParConfig;

/// Outcome of an optimal-window search.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSearch {
    /// The winning window, in percent of series length.
    pub best_w_percent: f64,
    /// LOOCV error at the winner.
    pub best_error: f64,
    /// `(w_percent, error)` for every grid point, in grid order.
    pub profile: Vec<(f64, f64)>,
}

/// Evaluates LOOCV 1-NN error at every window of `w_grid` (percent) and
/// returns the best (ties → smaller w, the archive convention):
/// [`optimal_window_par`] at one worker.
pub fn optimal_window(view: &LabeledView<'_>, w_grid: &[f64]) -> Result<WindowSearch> {
    optimal_window_par(view, w_grid, &ParConfig::serial())
}

/// [`optimal_window`] on the deterministic parallel executor.
///
/// The grid is walked serially (each point's LOOCV is the expensive part)
/// and each grid point's leave-one-out queries fan out across workers via
/// [`loocv_error_cdtw_fast_par`]. Every per-query cascade is
/// self-contained, so each grid point's error — and therefore the winner
/// and the full profile — is bitwise identical at any
/// `(n_threads, chunk)`.
pub fn optimal_window_par(
    view: &LabeledView<'_>,
    w_grid: &[f64],
    cfg: &ParConfig,
) -> Result<WindowSearch> {
    if w_grid.is_empty() {
        return Err(Error::EmptyInput { which: "w_grid" });
    }
    let n = view.series[0].len();
    let mut profile = Vec::with_capacity(w_grid.len());
    let mut best_w = f64::NAN;
    let mut best_err = f64::INFINITY;
    for &w in w_grid {
        let band = percent_to_band(n, w)?;
        let err = loocv_error_cdtw_fast_par(view, band, cfg)?;
        profile.push((w, err));
        // Strict improvement only: ties keep the earlier (smaller) window.
        if err < best_err {
            best_err = err;
            best_w = w;
        }
    }
    Ok(WindowSearch {
        best_w_percent: best_w,
        best_error: best_err,
        profile,
    })
}

/// The standard archive grid: integer percentages `0..=max_w`.
pub fn integer_grid(max_w: usize) -> Vec<f64> {
    (0..=max_w).map(|w| w as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classes that need a little warping: same shape, jittered phase.
    /// Euclidean confuses them; a small window separates them; a huge
    /// window lets the fast class mimic the slow one.
    fn warped_classes(shift: f64) -> (Vec<Vec<f64>>, Vec<usize>) {
        let n = 80;
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for k in 0..8 {
            // Deterministic per-exemplar phase jitter within ±shift samples.
            let jit = ((k * 37 % 11) as f64 / 11.0 - 0.5) * 2.0 * shift;
            series.push(
                (0..n)
                    .map(|i| {
                        ((i as f64 + jit) * 0.25).sin() + 0.25 * ((i as f64 + jit) * 0.8).sin()
                    })
                    .collect(),
            );
            labels.push(0);
            series.push(
                (0..n)
                    .map(|i| {
                        ((i as f64 + jit) * 0.25).sin() - 0.25 * ((i as f64 + jit) * 0.8).sin()
                    })
                    .collect(),
            );
            labels.push(1);
        }
        (series, labels)
    }

    #[test]
    fn finds_a_window_and_full_profile() {
        let (series, labels) = warped_classes(6.0);
        let view = LabeledView::new(&series, &labels).unwrap();
        let grid = integer_grid(20);
        let res = optimal_window(&view, &grid).unwrap();
        assert_eq!(res.profile.len(), 21);
        assert!(res.best_error <= res.profile[0].1, "best must beat w=0");
        assert!((0.0..=20.0).contains(&res.best_w_percent));
    }

    #[test]
    fn ties_break_toward_smaller_window() {
        // Perfectly separable data: every window gives zero error, so the
        // search must return the first grid point.
        let n = 40;
        let series: Vec<Vec<f64>> = (0..8)
            .map(|k| {
                (0..n)
                    .map(|i| if k % 2 == 0 { i as f64 } else { -(i as f64) })
                    .collect()
            })
            .collect();
        let labels: Vec<usize> = (0..8).map(|k| k % 2).collect();
        let view = LabeledView::new(&series, &labels).unwrap();
        let res = optimal_window(&view, &integer_grid(10)).unwrap();
        assert_eq!(res.best_w_percent, 0.0);
        assert_eq!(res.best_error, 0.0);
    }

    #[test]
    fn grid_helper_is_inclusive() {
        let g = integer_grid(5);
        assert_eq!(g, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn rejects_empty_grid() {
        let (series, labels) = warped_classes(2.0);
        let view = LabeledView::new(&series, &labels).unwrap();
        assert!(optimal_window(&view, &[]).is_err());
        let cfg = ParConfig::new(2).unwrap();
        assert!(optimal_window_par(&view, &[], &cfg).is_err());
    }

    #[test]
    fn par_window_search_is_bitwise_serial() {
        let (series, labels) = warped_classes(6.0);
        let view = LabeledView::new(&series, &labels).unwrap();
        let grid = integer_grid(12);
        let serial = optimal_window(&view, &grid).unwrap();
        // Reference profile: the brute-force LOOCV loop at every window
        // (the cascade returns the same neighbors).
        for &(w, err) in &serial.profile {
            let band = percent_to_band(series[0].len(), w).unwrap();
            let brute = crate::knn::loocv_error(&view, crate::knn::DistanceSpec::CdtwBand(band));
            assert_eq!(err.to_bits(), brute.unwrap().to_bits(), "w = {w}");
        }
        for threads in [1usize, 3, 7] {
            let cfg = ParConfig::with_chunk(threads, 4).unwrap();
            let par = optimal_window_par(&view, &grid, &cfg).unwrap();
            assert_eq!(par, serial, "{threads} threads");
        }
    }
}
