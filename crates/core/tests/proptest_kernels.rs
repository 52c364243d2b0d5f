//! Property-based tests over the core DP kernels and their supporting
//! machinery (proptest). These hammer the invariants that the paper's
//! argument rests on: exactness identities, bound soundness, window
//! algebra, and the equivalence of every kernel specialization.

use proptest::prelude::*;
use tsdtw_core::cost::{AbsoluteCost, SquaredCost};
use tsdtw_core::dtw::banded::{cdtw_distance, cdtw_with_path, percent_to_band, BandedDtw};
use tsdtw_core::dtw::early_abandon::{cdtw_distance_ea, EaOutcome};
use tsdtw_core::dtw::full::{dtw_distance, dtw_with_path};
use tsdtw_core::dtw::windowed::windowed_distance;
use tsdtw_core::envelope::Envelope;
use tsdtw_core::lower_bounds::improved::lb_improved;
use tsdtw_core::lower_bounds::keogh::{lb_keogh, lb_keogh_with_contrib, suffix_sums};
use tsdtw_core::lower_bounds::kim::lb_kim_hierarchy;
use tsdtw_core::lower_bounds::yi::lb_yi_symmetric;
use tsdtw_core::path::WarpingPath;
use tsdtw_core::window::SearchWindow;

fn series(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0f64..50.0, 1..max_len)
}

fn equal_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (1..max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(-50.0f64..50.0, n..=n),
            prop::collection::vec(-50.0f64..50.0, n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The textbook O(n·m) reference DP agrees with the rolling-row kernel.
    #[test]
    fn full_dtw_matches_naive_reference(x in series(24), y in series(24)) {
        let n = x.len();
        let m = y.len();
        let mut d = vec![vec![f64::INFINITY; m + 1]; n + 1];
        d[0][0] = 0.0;
        for i in 1..=n {
            for j in 1..=m {
                let c = (x[i - 1] - y[j - 1]).powi(2);
                d[i][j] = c + d[i - 1][j - 1].min(d[i - 1][j]).min(d[i][j - 1]);
            }
        }
        let fast = dtw_distance(&x, &y, SquaredCost).unwrap();
        prop_assert!((fast - d[n][m]).abs() < 1e-6 * (1.0 + d[n][m].abs()));
    }

    /// The windowed kernel with a full window equals the specialized
    /// full-DTW kernel.
    #[test]
    fn windowed_full_equals_specialized((x, y) in equal_pair(40)) {
        let w = SearchWindow::full(x.len(), y.len());
        let a = windowed_distance(&x, &y, &w, SquaredCost).unwrap();
        let b = dtw_distance(&x, &y, SquaredCost).unwrap();
        prop_assert!((a - b).abs() < 1e-9);
    }

    /// The reusable evaluator equals the one-shot function, repeatedly.
    #[test]
    fn banded_evaluator_is_stateless_across_calls(
        (x, y) in equal_pair(32),
        band in 0usize..8,
    ) {
        let mut eval = BandedDtw::new(x.len(), y.len(), band).unwrap();
        let one = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
        for _ in 0..3 {
            prop_assert_eq!(eval.distance(&x, &y, SquaredCost).unwrap(), one);
        }
    }

    /// percent_to_band is monotone and hits both endpoints.
    #[test]
    fn percent_to_band_monotone(n in 1usize..3000) {
        let mut last = 0;
        for w in [0.0, 1.0, 5.0, 20.0, 50.0, 100.0] {
            let b = percent_to_band(n, w).unwrap();
            prop_assert!(b >= last);
            last = b;
        }
        prop_assert_eq!(percent_to_band(n, 0.0).unwrap(), 0);
        prop_assert_eq!(percent_to_band(n, 100.0).unwrap(), n);
    }

    /// Early abandoning with the genuine LB_Keogh cumulative bound never
    /// abandons a within-threshold computation (the cb regression).
    #[test]
    fn early_abandon_with_real_cb_is_sound((x, y) in equal_pair(48), band in 0usize..6) {
        let env = Envelope::new(&x, band).unwrap();
        let mut contrib = Vec::new();
        lb_keogh_with_contrib(&y, &env, &mut contrib).unwrap();
        let cb = suffix_sums(&contrib);
        let exact = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
        let out =
            cdtw_distance_ea(&x, &y, band, exact + 1e-9, Some(&cb), SquaredCost).unwrap();
        prop_assert_eq!(out.distance(), Some(exact));
    }

    /// Abandonment, when it happens, is always justified.
    #[test]
    fn early_abandon_never_lies((x, y) in equal_pair(40), band in 0usize..6, frac in 0.1f64..1.5) {
        let exact = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
        let threshold = exact * frac;
        match cdtw_distance_ea(&x, &y, band, threshold, None, SquaredCost).unwrap() {
            EaOutcome::Exact(d) => prop_assert!((d - exact).abs() < 1e-9),
            EaOutcome::Abandoned { .. } => prop_assert!(exact > threshold),
        }
    }

    /// Every lower bound is below the constrained distance it bounds.
    #[test]
    fn all_bounds_below_cdtw((x, y) in equal_pair(40), band in 0usize..8) {
        let exact = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
        let env = Envelope::new(&x, band).unwrap();
        prop_assert!(lb_keogh(&y, &env).unwrap() <= exact + 1e-9);
        prop_assert!(lb_improved(&x, &y, &env, band).unwrap() <= exact + 1e-9);
        prop_assert!(lb_kim_hierarchy(&x, &y, f64::INFINITY).unwrap() <= exact + 1e-9);
        // LB_Yi bounds full DTW, which is below cDTW.
        prop_assert!(lb_yi_symmetric(&x, &y).unwrap() <= exact + 1e-9);
    }

    /// Paths from every with-path kernel replay to their distance.
    #[test]
    fn paths_replay((x, y) in equal_pair(32), band in 0usize..8) {
        let (d1, p1) = dtw_with_path(&x, &y, SquaredCost).unwrap();
        prop_assert!((p1.replay_cost(&x, &y, SquaredCost).unwrap() - d1).abs() < 1e-9);
        let (d2, p2) = cdtw_with_path(&x, &y, band, SquaredCost).unwrap();
        prop_assert!((p2.replay_cost(&x, &y, SquaredCost).unwrap() - d2).abs() < 1e-9);
        prop_assert!(p2.max_diagonal_deviation() <= band);
    }

    /// Absolute-cost DTW obeys the same band monotonicity as squared.
    #[test]
    fn absolute_cost_band_monotone((x, y) in equal_pair(32)) {
        let mut last = f64::INFINITY;
        for band in [0usize, 2, 4, 32] {
            let d = cdtw_distance(&x, &y, band, AbsoluteCost).unwrap();
            prop_assert!(d <= last + 1e-9);
            last = d;
        }
    }

    /// Sakoe–Chiba windows are always valid and grow with the band.
    #[test]
    fn band_windows_valid_and_monotone(n in 1usize..80, m in 1usize..80) {
        let mut last = 0;
        for band in [0usize, 1, 3, 10, 100] {
            let w = SearchWindow::sakoe_chiba(n, m, band);
            prop_assert!(w.validate().is_ok());
            prop_assert!(w.cell_count() >= last);
            last = w.cell_count();
        }
    }

    /// Dilation only grows windows, preserves validity, and equals the
    /// Chebyshev union of `2r + 1` rows bound for bound — on Sakoe–Chiba
    /// bands of unequal lengths, Itakura parallelograms and FastDTW
    /// projections of random low-resolution paths (both dilated directly
    /// and as `from_low_res_path` dilates them internally).
    #[test]
    fn dilation_grows(
        n in 2usize..40,
        m in 1usize..40,
        band in 0usize..5,
        r in 0usize..12,
        slope_tenths in 11u32..40,
        steps in prop::collection::vec(0u8..3, 80),
    ) {
        let low = low_res_path(n.div_ceil(2), m.div_ceil(2), &steps);
        let projected = SearchWindow::from_low_res_path(&low, n, m, 0);
        let windows = [
            SearchWindow::sakoe_chiba(n, m, band),
            SearchWindow::itakura(n, m, slope_tenths as f64 / 10.0).unwrap(),
            projected.clone(),
        ];
        for w in &windows {
            let d = w.dilate(r);
            prop_assert_eq!(bounds(&d), chebyshev_union(w, r), "{:?} dilated by {}", w, r);
            prop_assert!(d.validate().is_ok());
            prop_assert!(d.cell_count() >= w.cell_count());
            for i in 0..n {
                let (lo, hi) = w.row_bounds(i);
                for j in lo..=hi {
                    prop_assert!(d.contains(i, j));
                }
            }
        }
        // The projection of a low-resolution path at its matching
        // resolution is already a valid window, so the corner fix and
        // connectivity repair after the internal dilation change nothing.
        let internal = SearchWindow::from_low_res_path(&low, n, m, r);
        prop_assert_eq!(bounds(&internal), chebyshev_union(&projected, r));
    }
}

/// Every row's `(lo, hi)`.
fn bounds(w: &SearchWindow) -> Vec<(usize, usize)> {
    (0..w.n_rows()).map(|i| w.row_bounds(i)).collect()
}

/// Dilation by definition: row `i` spans the union of rows
/// `i − r ..= i + r`, widened by `r` columns each way and clamped to the
/// matrix. Makes no assumption about the bounds' monotonicity.
fn chebyshev_union(w: &SearchWindow, r: usize) -> Vec<(usize, usize)> {
    let n = w.n_rows();
    (0..n)
        .map(|i| {
            let rows = i.saturating_sub(r)..=(i + r).min(n - 1);
            let lo = rows.clone().map(|k| w.row_bounds(k).0).min().unwrap();
            let hi = rows.map(|k| w.row_bounds(k).1).max().unwrap();
            (lo.saturating_sub(r), (hi + r).min(w.n_cols() - 1))
        })
        .collect()
}

/// A monotone staircase path over an `a × b` grid from `(0, 0)` to
/// `(a − 1, b − 1)`, taking diagonal / down / right steps as `steps`
/// dictates (0 / 1 / 2) until an edge forces the direction.
fn low_res_path(a: usize, b: usize, steps: &[u8]) -> WarpingPath {
    let (mut i, mut j) = (0, 0);
    let mut cells = vec![(0, 0)];
    let mut choices = steps.iter().cycle();
    while (i, j) != (a - 1, b - 1) {
        if i == a - 1 {
            j += 1;
        } else if j == b - 1 {
            i += 1;
        } else {
            match choices.next().unwrap() {
                0 => {
                    i += 1;
                    j += 1;
                }
                1 => i += 1,
                _ => j += 1,
            }
        }
        cells.push((i, j));
    }
    WarpingPath::new(cells).unwrap()
}
