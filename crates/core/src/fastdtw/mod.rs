//! FastDTW — a faithful Rust implementation of Salvador & Chan's multilevel
//! approximation (Intelligent Data Analysis, 2007).
//!
//! The algorithm:
//!
//! 1. **Base case.** If either series has at most `radius + 2` points, solve
//!    exactly with full DTW.
//! 2. **Coarsen.** Halve both series by pairwise averaging
//!    ([`paa::halve`](crate::paa::halve)).
//! 3. **Recurse** to obtain a low-resolution warping path.
//! 4. **Project & refine.** Expand every low-resolution path cell onto its
//!    2×2 block at the current resolution, dilate the region by `radius`
//!    cells, and run windowed DTW inside that region.
//!
//! Per level the window holds `O(N·(4r + 4))` cells and the level sizes form
//! a geometric series, so total work is **linear in `N`** — exactly as the
//! original paper advertises. Wu & Keogh's point, which this crate's
//! benchmark suite reproduces, is about the *constant factor* and the
//! comparison target: for every realistic `N` and natural warping width the
//! exact banded `cDTW_w` fills fewer cells than FastDTW's multilevel
//! cascade, and is exact.
//!
//! ## Two implementations, one algorithm
//!
//! This module hosts the **tuned** implementation: it shares its inner DP
//! loop with the exact kernels (see [`windowed`](crate::dtw::windowed)),
//! reuses buffers, stores its window as per-row ranges, and performs no
//! per-cell allocation — FastDTW done as well as we know how. Each level
//! pays for its cells: the path sweep picks the traceback step without a
//! branch and writes it through the row's slice of the direction plane,
//! and [`SearchWindow::dilate`] reads two bounds per row (O(n), not
//! O(n·r)). A path cell still costs about 1.7× a distance cell (the
//! measurement is in the row sweep's notes, `dtw/sweep.rs`, and
//! DESIGN.md §5). Only the coarser levels need a path; the distance entries
//! ([`fastdtw_distance`], [`fastdtw_distance_metered`]) solve the finest
//! level with the distance-only kernel, as `cDTW_w` does. What remains
//! beyond `cDTW_w`'s cost is FastDTW's extra cells, each coarser-level
//! one at the path sweep's price, which is the comparison the paper
//! makes.
//!
//! The [`reference`](mod@reference) submodule is a faithful transliteration of the
//! *canonical* implementation (Salvador & Chan's reference, as consumed by
//! the community through the `fastdtw` package): explicit cell-list
//! windows, a hash-map DP table, full-enumeration base cases. The paper's
//! timing results are results about that artifact, and the benchmark suite
//! therefore measures it by default, reporting the tuned variant alongside
//! as an extension (see EXPERIMENTS.md for what changes and what doesn't).

pub mod reference;

pub use reference::{fastdtw_ref_distance, fastdtw_ref_metered, fastdtw_ref_with_path};

use crate::cost::CostFn;
use crate::dtw::windowed::{windowed_distance_metered, windowed_with_path_metered, DtwBuffer};
use crate::error::{check_finite, check_nonempty, Error, Result};
use crate::paa::halve;
use crate::path::WarpingPath;
use crate::window::SearchWindow;
use tsdtw_obs::{FastDtwLevel, Meter, NoMeter, SpanGuard};

/// Upper bound on recursion depth: each level halves the series, so 64
/// levels cover any address space. Used only for a defensive assertion.
const MAX_LEVELS: u32 = 64;

/// Statistics describing the work one FastDTW invocation performed.
///
/// The paper's argument is ultimately about DP cells touched; exposing the
/// counter lets the benchmark harness report cells as a hardware-independent
/// work measure alongside wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FastDtwStats {
    /// Number of resolution levels, including the exact base case.
    pub levels: u32,
    /// Total DP cells filled across all levels.
    pub cells: u64,
}

/// FastDTW distance with the given `radius`.
///
/// The coarser levels recover their paths, which the next level's window
/// is built from; the finest level computes the distance only. See
/// [`fastdtw_distance_metered`].
pub fn fastdtw_distance<C: CostFn>(x: &[f64], y: &[f64], radius: usize, cost: C) -> Result<f64> {
    fastdtw_distance_metered(x, y, radius, cost, &mut NoMeter)
}

/// [`fastdtw_distance`] with per-level work accounting.
///
/// Runs the same recursion as [`fastdtw_metered`] and records the same
/// `cells`, `window_cells` and [`FastDtwLevel`] list, and returns the
/// same distance bits. Only the finest level's solve differs: it takes
/// the distance-only windowed kernel, where
/// [`Kernel::Auto`](crate::Kernel::Auto) picks the route, so it fills no
/// direction plane and walks no traceback, and its `dp_peak_bytes` is at
/// most the path call's.
pub fn fastdtw_distance_metered<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    radius: usize,
    cost: C,
    meter: &mut M,
) -> Result<f64> {
    check_pair(x, y)?;
    let _span = tsdtw_obs::span("fastdtw");
    let mut stats = FastDtwStats::default();
    let (window, _level) = level_window(x, y, radius, cost, &mut stats, 0, meter)?;
    windowed_distance_metered(x, y, &window, cost, &mut DtwBuffer::new(), meter)
}

/// FastDTW distance and the (approximate) warping path it commits to.
pub fn fastdtw_with_path<C: CostFn>(
    x: &[f64],
    y: &[f64],
    radius: usize,
    cost: C,
) -> Result<(f64, WarpingPath)> {
    let (d, p, _) = fastdtw_with_stats(x, y, radius, cost)?;
    Ok((d, p))
}

/// FastDTW distance, path, and work statistics.
pub fn fastdtw_with_stats<C: CostFn>(
    x: &[f64],
    y: &[f64],
    radius: usize,
    cost: C,
) -> Result<(f64, WarpingPath, FastDtwStats)> {
    fastdtw_metered(x, y, radius, cost, &mut NoMeter)
}

/// FastDTW distance, path, and work statistics, with full per-level work
/// accounting.
///
/// Beyond the aggregate [`FastDtwStats`], the meter receives one
/// [`FastDtwLevel`] per resolution (coarsest first) splitting each
/// level's window into cells the low-resolution path *projects* onto
/// versus cells the radius dilation *expands* into — the decomposition
/// the paper's Section 3 uses to compare FastDTW's total touched cells
/// against the single band of `cDTW_w`.
pub fn fastdtw_metered<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    radius: usize,
    cost: C,
    meter: &mut M,
) -> Result<(f64, WarpingPath, FastDtwStats)> {
    check_pair(x, y)?;
    let _span = tsdtw_obs::span("fastdtw");
    let mut stats = FastDtwStats::default();
    let (d, p) = recurse(x, y, radius, cost, &mut stats, 0, meter)?;
    Ok((d, p, stats))
}

fn check_pair(x: &[f64], y: &[f64]) -> Result<()> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    check_finite("x", x)?;
    check_finite("y", y)
}

/// Solves one level with its path, which the next finer level projects.
fn recurse<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    radius: usize,
    cost: C,
    stats: &mut FastDtwStats,
    depth: u32,
    meter: &mut M,
) -> Result<(f64, WarpingPath)> {
    let (window, _level) = level_window(x, y, radius, cost, stats, depth, meter)?;
    windowed_with_path_metered(x, y, &window, cost, meter)
}

/// One level's search window, counted into `stats` and recorded on
/// `meter`: the full matrix at the base case, otherwise the coarser
/// level's path (solved by [`recurse`]) projected up and dilated by
/// `radius`. The returned span is the level's; the caller solves the
/// window while holding it.
fn level_window<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    radius: usize,
    cost: C,
    stats: &mut FastDtwStats,
    depth: u32,
    meter: &mut M,
) -> Result<(SearchWindow, SpanGuard)> {
    assert!(depth < MAX_LEVELS, "FastDTW recursion failed to converge");
    stats.levels += 1;

    // Salvador & Chan: below this size the exact computation is cheaper
    // than further recursion, and the window expansion needs at least this
    // much room. Saturating, so a radius past the series lengths takes the
    // exact base case.
    let min_size = radius.saturating_add(2);
    if x.len() <= min_size || y.len() <= min_size {
        let nm = (x.len() * y.len()) as u64;
        stats.cells += nm;
        if meter.enabled() {
            meter.fastdtw_level(FastDtwLevel {
                len_x: x.len(),
                len_y: y.len(),
                window_cells: nm,
                projected_cells: nm,
                expanded_cells: 0,
                base_case: true,
            });
        }
        let span = tsdtw_obs::span("fastdtw_base");
        return Ok((SearchWindow::full(x.len(), y.len()), span));
    }

    let shrunk_x = halve(x);
    let shrunk_y = halve(y);
    let (_, low_res_path) = recurse(&shrunk_x, &shrunk_y, radius, cost, stats, depth + 1, meter)?;

    let span = tsdtw_obs::span("fastdtw_level");
    let window = {
        let _expand = tsdtw_obs::span("fastdtw_expand");
        SearchWindow::from_low_res_path(&low_res_path, x.len(), y.len(), radius)
    };
    let window_cells = window.cell_count() as u64;
    stats.cells += window_cells;
    if meter.enabled() {
        // Rebuild the projection-only window (radius 0) to split this
        // level's cells into projected vs radius-expanded — extra work
        // that exists only under an enabled meter.
        let projected =
            SearchWindow::from_low_res_path(&low_res_path, x.len(), y.len(), 0).cell_count() as u64;
        meter.fastdtw_level(FastDtwLevel {
            len_x: x.len(),
            len_y: y.len(),
            window_cells,
            projected_cells: projected,
            expanded_cells: window_cells - projected,
            base_case: false,
        });
    }
    Ok((window, span))
}

/// The approximation error measure proposed in the original FastDTW paper:
/// `(approx - exact) / exact`, as a fraction (multiply by 100 for percent).
///
/// Returns an error if `exact` is negative, or if `exact` is zero while the
/// approximation is not (the error is unbounded there — the original paper
/// sidesteps this case; we surface it).
pub fn approximation_error(approx: f64, exact: f64) -> Result<f64> {
    if exact < 0.0 || !exact.is_finite() || !approx.is_finite() {
        return Err(Error::InvalidParameter {
            name: "exact",
            reason: "distances must be finite and non-negative".into(),
        });
    }
    if exact == 0.0 {
        if approx == 0.0 {
            return Ok(0.0);
        }
        return Err(Error::InvalidParameter {
            name: "exact",
            reason: "approximation error is unbounded when the exact distance is zero".into(),
        });
    }
    Ok((approx - exact) / exact)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SquaredCost;
    use crate::dtw::full::dtw_distance;

    fn rand_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut v = 0.0;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v += ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                v
            })
            .collect()
    }

    #[test]
    fn base_case_is_exact() {
        // Series short enough to hit the base case directly.
        let x = [0.0, 1.0, 2.0, 1.0];
        let y = [0.0, 0.0, 1.0, 2.0];
        let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
        let approx = fastdtw_distance(&x, &y, 5, SquaredCost).unwrap();
        assert_eq!(exact, approx);
    }

    #[test]
    fn never_below_exact_dtw() {
        // FastDTW evaluates one admissible path, so it upper-bounds the
        // optimum.
        for seed in 0..10 {
            let x = rand_series(seed, 120);
            let y = rand_series(seed + 50, 120);
            let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
            for radius in [0, 1, 3, 10] {
                let approx = fastdtw_distance(&x, &y, radius, SquaredCost).unwrap();
                assert!(
                    approx >= exact - 1e-9,
                    "seed {seed} radius {radius}: approx {approx} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn huge_radius_equals_exact_dtw() {
        let x = rand_series(1, 60);
        let y = rand_series(2, 60);
        let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
        // radius >= len-2 forces the exact base case, and `radius + 2`
        // saturates rather than wrapping near usize::MAX.
        for radius in [60, usize::MAX - 1, usize::MAX] {
            let approx = fastdtw_distance(&x, &y, radius, SquaredCost).unwrap();
            assert!((exact - approx).abs() < 1e-9, "radius {radius}");
        }
    }

    #[test]
    fn larger_radius_never_hurts_much() {
        // Monotone improvement is not guaranteed in general, but on smooth
        // random walks the approximation must not blow up with radius.
        let x = rand_series(7, 200);
        let y = rand_series(8, 200);
        let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
        let a1 = fastdtw_distance(&x, &y, 1, SquaredCost).unwrap();
        let a20 = fastdtw_distance(&x, &y, 20, SquaredCost).unwrap();
        assert!(a20 <= a1 + exact.max(1.0)); // sanity envelope
        assert!(a20 >= exact - 1e-9);
    }

    #[test]
    fn path_is_valid_and_replays_to_distance() {
        let x = rand_series(3, 97); // odd length exercises the tail handling
        let y = rand_series(4, 131);
        let (d, p) = fastdtw_with_path(&x, &y, 2, SquaredCost).unwrap();
        assert!(p.validate_for(x.len(), y.len()).is_ok());
        let replay = p.replay_cost(&x, &y, SquaredCost).unwrap();
        assert!((replay - d).abs() < 1e-9);
    }

    #[test]
    fn identical_series_give_zero() {
        let x = rand_series(5, 150);
        let d = fastdtw_distance(&x, &x, 1, SquaredCost).unwrap();
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn stats_report_linear_cell_growth() {
        // Cells should grow roughly linearly in N for fixed radius —
        // the defining property of FastDTW.
        let radius = 4;
        let (_, _, s1) = fastdtw_with_stats(
            &rand_series(1, 500),
            &rand_series(2, 500),
            radius,
            SquaredCost,
        )
        .unwrap();
        let (_, _, s2) = fastdtw_with_stats(
            &rand_series(3, 1000),
            &rand_series(4, 1000),
            radius,
            SquaredCost,
        )
        .unwrap();
        let ratio = s2.cells as f64 / s1.cells as f64;
        assert!(
            (1.5..3.0).contains(&ratio),
            "cells should scale ~2x when N doubles, got {ratio} ({} -> {})",
            s1.cells,
            s2.cells
        );
        assert!(s2.levels > 1);
    }

    #[test]
    fn metered_levels_decompose_the_cell_total() {
        use tsdtw_obs::WorkMeter;
        let x = rand_series(21, 700);
        let y = rand_series(22, 700);
        let radius = 3;
        let mut meter = WorkMeter::new();
        let (d, _, stats) = fastdtw_metered(&x, &y, radius, SquaredCost, &mut meter).unwrap();
        let (d0, _, stats0) = fastdtw_with_stats(&x, &y, radius, SquaredCost).unwrap();
        assert_eq!(d, d0);
        assert_eq!(stats, stats0);
        // The per-level decomposition must account for every counted cell.
        assert_eq!(meter.levels.len() as u32, stats.levels);
        assert_eq!(meter.fastdtw_total_window_cells(), stats.cells);
        assert_eq!(meter.window_cells, stats.cells);
        assert_eq!(meter.cells, stats.cells);
        for l in &meter.levels {
            assert_eq!(l.projected_cells + l.expanded_cells, l.window_cells);
            if !l.base_case {
                assert!(l.expanded_cells > 0, "radius > 0 must expand the window");
            }
        }
        // Exactly one base case, and it comes first (coarsest level).
        assert_eq!(meter.levels.iter().filter(|l| l.base_case).count(), 1);
        assert!(meter.levels[0].base_case);

        // The distance-only entry runs the same levels and only skips
        // the finest level's direction plane.
        let mut dist_meter = WorkMeter::new();
        let dd = fastdtw_distance_metered(&x, &y, radius, SquaredCost, &mut dist_meter).unwrap();
        assert_eq!(dd.to_bits(), d.to_bits());
        assert_eq!(dist_meter.cells, meter.cells);
        assert_eq!(dist_meter.window_cells, meter.window_cells);
        assert_eq!(dist_meter.levels, meter.levels);
        assert!(dist_meter.dp_peak_bytes <= meter.dp_peak_bytes);
    }

    #[test]
    fn radius_zero_is_legal() {
        let x = rand_series(11, 64);
        let y = rand_series(12, 64);
        let d = fastdtw_distance(&x, &y, 0, SquaredCost).unwrap();
        let exact = dtw_distance(&x, &y, SquaredCost).unwrap();
        assert!(d >= exact - 1e-9);
    }

    #[test]
    fn unequal_and_tiny_lengths() {
        for (n, m) in [(1, 1), (1, 9), (9, 1), (2, 3), (5, 64), (64, 5)] {
            let x = rand_series(n as u64, n);
            let y = rand_series(m as u64 + 99, m);
            let (d, p) = fastdtw_with_path(&x, &y, 1, SquaredCost).unwrap();
            assert!(d.is_finite(), "{n}x{m}");
            assert!(p.validate_for(n, m).is_ok(), "{n}x{m}");
        }
    }

    #[test]
    fn approximation_error_matches_original_papers_metric() {
        assert_eq!(approximation_error(2.0, 1.0).unwrap(), 1.0);
        assert_eq!(approximation_error(1.0, 1.0).unwrap(), 0.0);
        // The paper's Table 2 example: 31.24 vs 0.020 -> 156,100 %.
        let e = approximation_error(31.24, 0.020).unwrap();
        assert!((e * 100.0 - 156_100.0).abs() < 1.0);
        assert!(approximation_error(1.0, 0.0).is_err());
        assert_eq!(approximation_error(0.0, 0.0).unwrap(), 0.0);
    }

    #[test]
    fn rejects_empty_inputs() {
        assert!(fastdtw_distance(&[], &[1.0], 1, SquaredCost).is_err());
        assert!(fastdtw_distance(&[1.0], &[], 1, SquaredCost).is_err());
    }

    #[test]
    fn coarsening_huge_finite_input_stays_finite() {
        // Adjacent samples whose sum exceeds f64::MAX must still coarsen
        // to a finite mean, or every coarser level would see ∞.
        let x = [1.7e308; 64];
        assert_eq!(dtw_distance(&x, &x, SquaredCost), Ok(0.0));
        assert_eq!(fastdtw_distance(&x, &x, 1, SquaredCost), Ok(0.0));
        assert_eq!(fastdtw_ref_distance(&x, &x, 1, SquaredCost), Ok(0.0));
    }

    #[test]
    fn overflowing_costs_give_infinity_and_valid_paths() {
        // |x − y| = 2e155 squares past f64::MAX, and every path starts
        // at such a cell: the path kernels must choose their steps by
        // window membership, not by value.
        let constant = ([1e155; 16].to_vec(), [-1e155; 8].to_vec());
        let alternating: Vec<f64> = (0..16)
            .map(|i| if i % 2 == 0 { 1e155 } else { -1e155 })
            .collect();
        let flipped: Vec<f64> = alternating.iter().map(|v| -v).collect();
        for (x, y) in [constant, (alternating, flipped)] {
            let checks = [
                fastdtw_with_path(&x, &y, 1, SquaredCost),
                fastdtw_ref_with_path(&x, &y, 1, SquaredCost),
                crate::dtw::full::dtw_with_path(&x, &y, SquaredCost),
                crate::dtw::banded::cdtw_with_path(&x, &y, 2, SquaredCost),
                crate::dtw::banded::cdtw_with_path(&x, &y, 16, SquaredCost),
            ];
            for (k, got) in checks.into_iter().enumerate() {
                let (d, path) = got.unwrap();
                assert_eq!(d, f64::INFINITY, "check {k}");
                path.validate_for(x.len(), y.len()).unwrap();
            }
            assert_eq!(dtw_distance(&x, &y, SquaredCost), Ok(f64::INFINITY));
            let cdtw = crate::dtw::banded::cdtw_distance(&x, &y, 2, SquaredCost);
            assert_eq!(cdtw, Ok(f64::INFINITY));
        }
    }
}
