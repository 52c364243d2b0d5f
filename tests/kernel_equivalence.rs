//! Differential test layer for the tiered DP row sweep (DESIGN.md §11).
//!
//! The segmented kernel — branch-free interior, guarded prefix/suffix —
//! must be **bitwise** equal to the generic guarded kernel on every
//! window shape the stack produces, and both must match a naive
//! full-matrix reference DP:
//!
//! * distances compare by `to_bits()` — not approximate equality;
//! * warping paths compare exactly (`WarpingPath` is `Eq`), across tiers
//!   and against the naive DP's own traceback, which prefers the
//!   diagonal, then up, then left (`<=` throughout). The Sakoe–Chiba,
//!   full-matrix, Itakura and FastDTW properties also run on tie-heavy
//!   integer series in −2..=2, where that tie-break decides the path;
//! * work accounting compares by full [`WorkMeter`] equality — counters
//!   are recorded from window bounds alone, so no tier may change them.
//!
//! Window shapes covered: Sakoe–Chiba bands (square and staircase,
//! radius 0 up), Itakura parallelograms, FastDTW projected windows
//! (exercised through the real multi-level recursion), and the full
//! matrix. Costs cover both monomorphized fast paths (`SquaredCost`,
//! `AbsoluteCost`), the `Rooted` wrapper (which changes only `finish`),
//! and a cost that does not opt in, which `Auto` must route generically. The early-abandoning kernel with an infinite
//! threshold must equal the plain kernel bitwise in both tiers.
//!
//! The throughput tiers extend the same contract:
//!
//! * the **wavefront** tier (anti-diagonal evaluation) runs through
//!   every window family above and must match the row sweep bitwise,
//!   with an identical `WorkMeter`. `Kernel::Auto` takes it for opted-in
//!   costs once a window is [`WAVEFRONT_MIN_WIDTH`] cells wide, so the
//!   crossover test pins Auto against Generic on windows one cell
//!   narrower than, exactly at, and one cell wider than the crossover in
//!   every family — including full windows with `n > m`, where the
//!   longest diagonal is as long as the widest row;
//! * the **batched** tier (one query against up to [`LANES`] same-length
//!   candidates in struct-of-lanes layout) must match the scalar banded
//!   kernel per lane — distances bitwise, early-abandon outcomes and
//!   abandonment rows identical, and the summed scan `WorkMeter` equal
//!   except for the two `batch.*` counters that exist only on the
//!   batched path. The lane-remainder grid pins scan sizes whose final
//!   group holds `LANES`, `1`, and `LANES − 1` live lanes, and the
//!   mining k-NN scan (which takes the batched route under
//!   `Kernel::Auto`) must produce one meter regardless of worker count.

use proptest::prelude::*;
use tsdtw::core::cost::{AbsoluteCost, CostFn, Rooted, SquaredCost};
use tsdtw::core::dtw::banded::{
    cdtw_distance_kernel, cdtw_distance_metered_with_buf_kernel, cdtw_with_path_kernel,
};
use tsdtw::core::dtw::batch::{
    cdtw_batch_distances_metered, cdtw_batch_ea_metered, BatchBuffer, LANES,
};
use tsdtw::core::dtw::early_abandon::{cdtw_distance_ea_metered_kernel, EaOutcome};
use tsdtw::core::dtw::full::dtw_distance_kernel;
use tsdtw::core::dtw::kernel::WAVEFRONT_MIN_WIDTH;
use tsdtw::core::dtw::windowed::{
    windowed_distance_metered_kernel, windowed_with_path_kernel, DtwBuffer,
};
use tsdtw::core::fastdtw::fastdtw_metered_kernel;
use tsdtw::core::paa::halve;
use tsdtw::core::{Kernel, SearchWindow, WarpingPath};
use tsdtw_obs::{NoMeter, WorkMeter};

fn bits(x: f64) -> u64 {
    x.to_bits()
}

/// Naive full-matrix reference: materializes the whole `n × m` grid,
/// fills only admissible cells, reads inadmissible neighbors as `+∞`,
/// and uses the exact expression the kernels use
/// (`cost + diag.min(up).min(left)`), so equality is bitwise. Returns the
/// accumulated (unfinished) grid; inadmissible cells stay `+∞`.
fn naive_matrix<C: CostFn>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) -> Vec<Vec<f64>> {
    let n = x.len();
    let m = y.len();
    let mut dp = vec![vec![f64::INFINITY; m]; n];
    let admissible = |i: usize, j: usize| {
        let (lo, hi) = w.row_bounds(i);
        (lo..=hi).contains(&j)
    };
    for i in 0..n {
        let (lo, hi) = w.row_bounds(i);
        for j in lo..=hi {
            let c = cost.cost(x[i], y[j]);
            if i == 0 && j == 0 {
                dp[i][j] = c;
                continue;
            }
            let up = if i > 0 && admissible(i - 1, j) {
                dp[i - 1][j]
            } else {
                f64::INFINITY
            };
            let diag = if i > 0 && j > 0 && admissible(i - 1, j - 1) {
                dp[i - 1][j - 1]
            } else {
                f64::INFINITY
            };
            let left = if j > 0 && admissible(i, j - 1) {
                dp[i][j - 1]
            } else {
                f64::INFINITY
            };
            dp[i][j] = c + diag.min(up).min(left);
        }
    }
    dp
}

/// The naive reference distance over `w`.
fn naive_windowed<C: CostFn>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) -> f64 {
    cost.finish(naive_matrix(x, y, w, cost)[x.len() - 1][y.len() - 1])
}

/// `naive_windowed`'s full-matrix DP plus a traceback from `(n-1, m-1)`
/// that prefers the diagonal, then the vertical step, then the horizontal
/// one, comparing with `<=`: the tie-break every path tier documents.
/// Returns the finished distance and the path cells in forward order.
fn naive_windowed_path<C: CostFn>(
    x: &[f64],
    y: &[f64],
    w: &SearchWindow,
    cost: C,
) -> (f64, Vec<(usize, usize)>) {
    let dp = naive_matrix(x, y, w, cost);
    let (mut i, mut j) = (x.len() - 1, y.len() - 1);
    let dist = cost.finish(dp[i][j]);
    let mut cells = vec![(i, j)];
    while (i, j) != (0, 0) {
        let diag = if i > 0 && j > 0 {
            dp[i - 1][j - 1]
        } else {
            f64::INFINITY
        };
        let up = if i > 0 { dp[i - 1][j] } else { f64::INFINITY };
        let left = if j > 0 { dp[i][j - 1] } else { f64::INFINITY };
        if diag <= up && diag <= left {
            i -= 1;
            j -= 1;
        } else if up <= left {
            i -= 1;
        } else {
            j -= 1;
        }
        cells.push((i, j));
    }
    cells.reverse();
    (dist, cells)
}

/// FastDTW rebuilt from its public layers (`paa::halve`,
/// `SearchWindow::from_low_res_path`) with [`naive_windowed_path`] solving
/// every level, so each level's tie-break is checked against the oracle
/// rather than only across tiers (which share it).
fn naive_fastdtw(x: &[f64], y: &[f64], radius: usize) -> (f64, Vec<(usize, usize)>) {
    let window = if x.len() <= radius + 2 || y.len() <= radius + 2 {
        SearchWindow::full(x.len(), y.len())
    } else {
        let (_, low) = naive_fastdtw(&halve(x), &halve(y), radius);
        let low = WarpingPath::new(low).unwrap();
        SearchWindow::from_low_res_path(&low, x.len(), y.len(), radius)
    };
    naive_windowed_path(x, y, &window, SquaredCost)
}

/// Integer-valued series in −2..=2. Accumulated costs are then small
/// integers, so neighbor ties, where only the tie-break decides the
/// path, are common rather than measure-zero.
fn tie_heavy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-2i32..3).prop_map(f64::from), len)
}

/// Runs one window through both tiers and the naive reference with a
/// given cost; asserts bitwise distance equality and meter equality.
fn assert_window_tiers_match<C: CostFn + Copy>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) {
    let mut buf = DtwBuffer::new();
    let mut m_gen = WorkMeter::new();
    let d_gen =
        windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut m_gen, Kernel::Generic)
            .unwrap();
    let mut m_seg = WorkMeter::new();
    let d_seg =
        windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut m_seg, Kernel::Segmented)
            .unwrap();
    let mut m_auto = WorkMeter::new();
    let d_auto =
        windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut m_auto, Kernel::Auto)
            .unwrap();
    let mut m_wav = WorkMeter::new();
    let d_wav =
        windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut m_wav, Kernel::Wavefront)
            .unwrap();
    prop_assert_eq!(bits(d_gen), bits(d_seg), "generic vs segmented");
    prop_assert_eq!(bits(d_gen), bits(d_auto), "generic vs auto");
    prop_assert_eq!(bits(d_gen), bits(d_wav), "generic vs wavefront");
    let (d_naive, p_naive) = naive_windowed_path(x, y, w, cost);
    prop_assert_eq!(bits(d_gen), bits(d_naive), "vs naive");
    prop_assert_eq!(&m_gen, &m_seg, "meters must be tier-invariant");
    prop_assert_eq!(&m_gen, &m_auto);
    prop_assert_eq!(&m_gen, &m_wav, "wavefront meters must match the sweep");

    for kernel in [Kernel::Generic, Kernel::Segmented, Kernel::Auto] {
        let (pd, p) = windowed_with_path_kernel(x, y, w, cost, kernel).unwrap();
        prop_assert_eq!(bits(pd), bits(d_naive), "{:?} path-kernel distance", kernel);
        prop_assert_eq!(p.cells(), &p_naive[..], "{:?} path vs naive", kernel);
    }
}

/// Runs `ys` against `x` through the batched kernel in scan order
/// (groups of [`LANES`]) and through the scalar generic kernel; asserts
/// per-lane bitwise distance equality, exact `batch.*` group accounting,
/// and scan-meter equality modulo those two counters — the only ones
/// that exist solely on the batched path.
fn assert_batch_matches_scalar(x: &[f64], ys: &[Vec<f64>], band: usize) {
    let refs: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
    let mut buf = DtwBuffer::new();
    let mut m_scalar = WorkMeter::new();
    let scalar: Vec<f64> = refs
        .iter()
        .map(|y| {
            cdtw_distance_metered_with_buf_kernel(
                x,
                y,
                band,
                SquaredCost,
                &mut buf,
                &mut m_scalar,
                Kernel::Generic,
            )
            .unwrap()
        })
        .collect();
    let mut bbuf = BatchBuffer::new();
    let mut m_batch = WorkMeter::new();
    let mut batched = vec![0.0f64; refs.len()];
    for (group, out) in refs.chunks(LANES).zip(batched.chunks_mut(LANES)) {
        cdtw_batch_distances_metered(x, group, band, SquaredCost, out, &mut bbuf, &mut m_batch)
            .unwrap();
    }
    for (l, (a, b)) in scalar.iter().zip(&batched).enumerate() {
        assert_eq!(bits(*a), bits(*b), "lane {l}");
    }
    assert_eq!(m_batch.batch_groups, refs.len().div_ceil(LANES) as u64);
    assert_eq!(m_batch.batch_lanes, refs.len() as u64);
    let mut sans = m_batch.clone();
    sans.batch_groups = 0;
    sans.batch_lanes = 0;
    assert_eq!(sans, m_scalar, "scan meters must agree modulo batch.*");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sakoe–Chiba bands on equal and unequal lengths (the staircase
    /// diagonal), radii from 0 (pure diagonal) to wider than the matrix.
    #[test]
    fn sakoe_chiba_bands_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..28),
        y in prop::collection::vec(-10.0f64..10.0, 1..28),
        band in 0usize..10,
        xt in tie_heavy(1..28),
        yt in tie_heavy(1..28),
    ) {
        for (x, y) in [(&x, &y), (&xt, &yt)] {
            let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
            assert_window_tiers_match(x, y, &w, SquaredCost);
            assert_window_tiers_match(x, y, &w, AbsoluteCost);
            // Rooted inherits the inner cost's opt-in and changes only
            // `finish`, which every tier must apply identically.
            assert_window_tiers_match(x, y, &w, Rooted(SquaredCost));
        }
    }

    /// The full matrix is the widest window; the shared [`dtw_distance_kernel`]
    /// entry point must agree with the windowed kernels and naive DP.
    #[test]
    fn full_matrix_is_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..20),
        y in prop::collection::vec(-10.0f64..10.0, 1..20),
        xt in tie_heavy(1..20),
        yt in tie_heavy(1..20),
    ) {
        for (x, y) in [(&x, &y), (&xt, &yt)] {
            let w = SearchWindow::full(x.len(), y.len());
            assert_window_tiers_match(x, y, &w, SquaredCost);
            let d_gen = dtw_distance_kernel(x, y, SquaredCost, Kernel::Generic).unwrap();
            let d_seg = dtw_distance_kernel(x, y, SquaredCost, Kernel::Segmented).unwrap();
            let d_wav = dtw_distance_kernel(x, y, SquaredCost, Kernel::Wavefront).unwrap();
            prop_assert_eq!(bits(d_gen), bits(d_seg));
            prop_assert_eq!(bits(d_gen), bits(d_wav));
            prop_assert_eq!(bits(d_gen), bits(naive_windowed(x, y, &w, SquaredCost)));
        }
    }

    /// Itakura parallelograms have rows whose interiors shrink to nothing
    /// near the corners — the degenerate-segment fallback path.
    #[test]
    fn itakura_windows_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 2..24),
        y in prop::collection::vec(-10.0f64..10.0, 2..24),
        slope_tenths in 12u32..40,
        xt in tie_heavy(2..24),
        yt in tie_heavy(2..24),
    ) {
        let slope = slope_tenths as f64 / 10.0;
        for (x, y) in [(&x, &y), (&xt, &yt)] {
            let w = SearchWindow::itakura(x.len(), y.len(), slope).unwrap();
            assert_window_tiers_match(x, y, &w, SquaredCost);
            assert_window_tiers_match(x, y, &w, AbsoluteCost);
        }
    }

    /// FastDTW's projected-and-dilated windows, exercised through the
    /// real multi-level recursion: distance, path, and the full meter —
    /// including the order-sensitive per-level window list — must be
    /// identical across tiers, and distance and path must equal the
    /// naive per-level oracle's.
    #[test]
    fn fastdtw_projected_windows_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..48),
        y in prop::collection::vec(-10.0f64..10.0, 1..48),
        radius in 0usize..4,
        xt in tie_heavy(1..48),
        yt in tie_heavy(1..48),
    ) {
        for (x, y) in [(&x, &y), (&xt, &yt)] {
            let (d_naive, p_naive) = naive_fastdtw(x, y, radius);
            let mut m_gen = WorkMeter::new();
            let (d_gen, p_gen, s_gen) =
                fastdtw_metered_kernel(x, y, radius, SquaredCost, &mut m_gen, Kernel::Generic)
                    .unwrap();
            for kernel in [Kernel::Segmented, Kernel::Auto] {
                let mut m = WorkMeter::new();
                let (d, p, s) =
                    fastdtw_metered_kernel(x, y, radius, SquaredCost, &mut m, kernel).unwrap();
                prop_assert_eq!(bits(d_gen), bits(d), "{:?}", kernel);
                prop_assert_eq!(&p_gen, &p, "{:?}", kernel);
                prop_assert_eq!(s_gen.levels, s.levels);
                prop_assert_eq!(&m_gen, &m, "{:?}", kernel);
            }
            prop_assert_eq!(bits(d_gen), bits(d_naive), "vs the naive oracle");
            prop_assert_eq!(p_gen.cells(), &p_naive[..], "path vs the naive oracle");
        }
    }

    /// cdtw distance and path entry points (band in cells) across tiers.
    #[test]
    fn cdtw_entry_points_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..24),
        y in prop::collection::vec(-10.0f64..10.0, 1..24),
        band in 0usize..8,
    ) {
        let d_gen = cdtw_distance_kernel(&x, &y, band, SquaredCost, Kernel::Generic).unwrap();
        let d_seg = cdtw_distance_kernel(&x, &y, band, SquaredCost, Kernel::Segmented).unwrap();
        let d_wav = cdtw_distance_kernel(&x, &y, band, SquaredCost, Kernel::Wavefront).unwrap();
        prop_assert_eq!(bits(d_gen), bits(d_seg));
        prop_assert_eq!(bits(d_gen), bits(d_wav));
        let (pd_gen, p_gen) =
            cdtw_with_path_kernel(&x, &y, band, SquaredCost, Kernel::Generic).unwrap();
        let (pd_seg, p_seg) =
            cdtw_with_path_kernel(&x, &y, band, SquaredCost, Kernel::Segmented).unwrap();
        prop_assert_eq!(bits(pd_gen), bits(pd_seg));
        prop_assert_eq!(bits(pd_gen), bits(d_gen));
        prop_assert_eq!(p_gen, p_seg);
    }

    /// Early abandoning with an infinite threshold never abandons, so it
    /// must equal the plain kernel bitwise — in both tiers, with
    /// tier-invariant EA counters.
    #[test]
    fn ea_with_infinite_threshold_equals_plain(
        x in prop::collection::vec(-10.0f64..10.0, 1..24),
        y in prop::collection::vec(-10.0f64..10.0, 1..24),
        band in 0usize..8,
    ) {
        let plain = cdtw_distance_kernel(&x, &y, band, SquaredCost, Kernel::Generic).unwrap();
        let mut m_gen = WorkMeter::new();
        let ea_gen = cdtw_distance_ea_metered_kernel(
            &x, &y, band, f64::INFINITY, None, SquaredCost, &mut m_gen, Kernel::Generic,
        )
        .unwrap();
        let mut m_seg = WorkMeter::new();
        let ea_seg = cdtw_distance_ea_metered_kernel(
            &x, &y, band, f64::INFINITY, None, SquaredCost, &mut m_seg, Kernel::Segmented,
        )
        .unwrap();
        let (EaOutcome::Exact(d_gen), EaOutcome::Exact(d_seg)) = (ea_gen, ea_seg) else {
            panic!("infinite threshold must never abandon: {ea_gen:?} vs {ea_seg:?}");
        };
        prop_assert_eq!(bits(d_gen), bits(d_seg), "EA tiers");
        prop_assert_eq!(bits(d_gen), bits(plain), "EA vs plain kernel");
        prop_assert_eq!(&m_gen, &m_seg, "EA counters must be tier-invariant");
    }

    /// Early abandoning with a *finite* threshold: whatever the outcome
    /// (exact or abandoned at some row), it is identical across tiers —
    /// the per-row minimum folds in the same order in both.
    #[test]
    fn ea_abandonment_row_is_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 2..24),
        y in prop::collection::vec(-10.0f64..10.0, 2..24),
        band in 0usize..6,
        threshold in 0.0f64..200.0,
    ) {
        let mut m_gen = WorkMeter::new();
        let ea_gen = cdtw_distance_ea_metered_kernel(
            &x, &y, band, threshold, None, SquaredCost, &mut m_gen, Kernel::Generic,
        )
        .unwrap();
        let mut m_seg = WorkMeter::new();
        let ea_seg = cdtw_distance_ea_metered_kernel(
            &x, &y, band, threshold, None, SquaredCost, &mut m_seg, Kernel::Segmented,
        )
        .unwrap();
        match (ea_gen, ea_seg) {
            (EaOutcome::Exact(a), EaOutcome::Exact(b)) => prop_assert_eq!(bits(a), bits(b)),
            (EaOutcome::Abandoned { rows_filled: a }, EaOutcome::Abandoned { rows_filled: b }) => {
                prop_assert_eq!(a, b, "abandonment row must be tier-invariant");
            }
            (a, b) => panic!("tiers disagree on the outcome kind: {a:?} vs {b:?}"),
        }
        prop_assert_eq!(&m_gen, &m_seg);
    }

    /// Every lane of the batched kernel equals the scalar banded kernel
    /// on that pair — bitwise — over random query lengths, band widths,
    /// and batch occupancies from one lane to the full [`LANES`].
    #[test]
    fn batched_lanes_are_bitwise_equal_to_the_scalar_kernel(
        x in prop::collection::vec(-10.0f64..10.0, 4..32),
        ys in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 19), 1..9),
        band in 0usize..12,
    ) {
        assert_batch_matches_scalar(&x, &ys, band);
    }

    /// The batched early-abandoning kernel: per-lane outcome kind,
    /// exact-distance bits, and abandonment rows must equal the scalar
    /// EA kernel with the same per-lane thresholds, and the scan meters
    /// must agree modulo the `batch.*` counters.
    #[test]
    fn batched_ea_outcomes_and_abandonment_rows_match_the_scalar_kernel(
        x in prop::collection::vec(-10.0f64..10.0, 4..28),
        ys in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 17), 1..9),
        band in 0usize..8,
        threshold in 0.0f64..300.0,
    ) {
        let refs: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
        // Spread the thresholds so lanes abandon at different rows (or
        // not at all) within one batched call.
        let thresholds: Vec<f64> =
            (0..refs.len()).map(|l| threshold * (0.25 + 0.37 * l as f64)).collect();
        let mut bbuf = BatchBuffer::new();
        let mut m_batch = WorkMeter::new();
        let outcomes = cdtw_batch_ea_metered(
            &x, &refs, band, &thresholds, None, SquaredCost, &mut bbuf, &mut m_batch,
        )
        .unwrap();
        let mut m_scalar = WorkMeter::new();
        for (l, y) in refs.iter().enumerate() {
            let scalar = cdtw_distance_ea_metered_kernel(
                &x, y, band, thresholds[l], None, SquaredCost, &mut m_scalar, Kernel::Generic,
            )
            .unwrap();
            match (outcomes[l], scalar) {
                (EaOutcome::Exact(a), EaOutcome::Exact(b)) => {
                    assert_eq!(bits(a), bits(b), "lane {l}");
                }
                (
                    EaOutcome::Abandoned { rows_filled: a },
                    EaOutcome::Abandoned { rows_filled: b },
                ) => assert_eq!(a, b, "abandonment row of lane {l}"),
                (a, b) => panic!("lane {l} outcome kinds disagree: {a:?} vs {b:?}"),
            }
        }
        let mut sans = m_batch.clone();
        sans.batch_groups = 0;
        sans.batch_lanes = 0;
        prop_assert_eq!(&sans, &m_scalar, "EA meters modulo batch.*");
    }
}

/// Projected windows straight from a low-resolution path (the shape
/// FastDTW feeds the kernel), without going through the recursion:
/// dilate produces ragged rows whose interior segments start and end
/// mid-row on both sides.
#[test]
fn projected_and_dilated_window_shapes_match() {
    let x: Vec<f64> = (0..31).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
    let y: Vec<f64> = (0..29).map(|i| (i as f64 * 0.41).cos() * 3.0).collect();
    let low =
        WarpingPath::new(vec![(0, 0), (1, 1), (2, 1), (3, 2), (4, 3), (5, 4), (6, 5)]).unwrap();
    for radius in 0..4 {
        let w = SearchWindow::from_low_res_path(&low, x.len(), y.len(), radius);
        let d_gen = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            SquaredCost,
            &mut DtwBuffer::new(),
            &mut NoMeter,
            Kernel::Generic,
        )
        .unwrap();
        let d_seg = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            SquaredCost,
            &mut DtwBuffer::new(),
            &mut NoMeter,
            Kernel::Segmented,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_seg), "radius {radius}");
        let d_wav = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            SquaredCost,
            &mut DtwBuffer::new(),
            &mut NoMeter,
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_wav), "radius {radius} wavefront");
        assert_eq!(bits(d_gen), bits(naive_windowed(&x, &y, &w, SquaredCost)));
        let dilated = w.dilate(radius + 1);
        let d_gen = windowed_distance_metered_kernel(
            &x,
            &y,
            &dilated,
            SquaredCost,
            &mut DtwBuffer::new(),
            &mut NoMeter,
            Kernel::Generic,
        )
        .unwrap();
        let d_seg = windowed_distance_metered_kernel(
            &x,
            &y,
            &dilated,
            SquaredCost,
            &mut DtwBuffer::new(),
            &mut NoMeter,
            Kernel::Segmented,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_seg), "dilated radius {radius}");
        let d_wav = windowed_distance_metered_kernel(
            &x,
            &y,
            &dilated,
            SquaredCost,
            &mut DtwBuffer::new(),
            &mut NoMeter,
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(
            bits(d_gen),
            bits(d_wav),
            "dilated radius {radius} wavefront"
        );
        assert_eq!(
            bits(d_gen),
            bits(naive_windowed(&x, &y, &dilated, SquaredCost))
        );
    }
}

/// A cost that does not opt in via `CostFn::SEGMENTED_FAST`, so `Auto`
/// must keep it on the row sweep at every width.
#[derive(Clone, Copy)]
struct OptedOutSquared;

impl CostFn for OptedOutSquared {
    fn cost(&self, a: f64, b: f64) -> f64 {
        SquaredCost.cost(a, b)
    }
}

/// Whether `Auto` takes the wavefront route on `w`. Only that route
/// touches the diagonal buffers, whose `3 · (width + 2)` slots plus the
/// reversed `y` outgrow the sweep's two `width`-slot rows, so a fresh
/// buffer's capacity after one call reveals the route.
fn auto_takes_wavefront<C: CostFn>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) -> bool {
    let mut buf = DtwBuffer::new();
    windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut NoMeter, Kernel::Auto).unwrap();
    buf.capacity_bytes() >= (3 * (w.max_row_width() + 2) + y.len()) * std::mem::size_of::<f64>()
}

/// Auto against Generic around the wavefront crossover: for each window
/// family, windows of width `WAVEFRONT_MIN_WIDTH - 1`, `WAVEFRONT_MIN_WIDTH`
/// and `WAVEFRONT_MIN_WIDTH + 1` must agree bitwise with identical meters,
/// and Auto must route exactly the ones at or above the crossover (for an
/// opted-in cost) to the wavefront.
#[test]
fn auto_matches_generic_around_the_wavefront_crossover() {
    let c = WAVEFRONT_MIN_WIDTH;
    let targets = [c - 1, c, c + 1];
    let series = |n: usize, phase: f64| -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + phase) * 0.21).sin() * 3.0 + (i as f64 * 0.043).cos())
            .collect()
    };

    // Candidate windows per family, sized from the crossover; each family
    // must hit every target width.
    let mut families: Vec<(&str, Vec<SearchWindow>)> = Vec::new();
    let mut bands = Vec::new();
    for (n, m) in [(c + 47, c + 47), (c + 57, c + 42), (c + 37, c + 64)] {
        for band in c / 2 - 20..c / 2 + 8 {
            bands.push(SearchWindow::sakoe_chiba(n, m, band));
        }
    }
    families.push(("sakoe-chiba", bands));
    let mut itakura = Vec::new();
    for (n, m) in [(2 * c, 2 * c), (2 * c + 24, 2 * c), (2 * c, 2 * c + 40)] {
        for hundredths in 110u32..600 {
            itakura.push(SearchWindow::itakura(n, m, hundredths as f64 / 100.0).unwrap());
        }
    }
    families.push(("itakura", itakura));
    let mut projected = Vec::new();
    let h = c / 2;
    for (a, b) in [
        (h + 20, h + 20),
        (h + 16, h + 22),
        (h + 15, h + 27),
        (h + 24, h + 22),
        // b = h saturates the widest rows at the odd width 2h + 1 = c.
        (h + 20, h),
    ] {
        // A straight-line staircase over the a × b half-resolution grid.
        let steps = a.max(b);
        let low = WarpingPath::new(
            (0..steps)
                .map(|k| (k * (a - 1) / (steps - 1), k * (b - 1) / (steps - 1)))
                .collect(),
        )
        .unwrap();
        for (n, m) in [(2 * a, 2 * b), (2 * a - 1, 2 * b + 1)] {
            for radius in 0..c / 4 + 8 {
                projected.push(SearchWindow::from_low_res_path(&low, n, m, radius));
            }
        }
    }
    families.push(("fastdtw-projected", projected));
    // Full windows with n > m: the longest diagonal holds min(n, m) = m
    // cells, exactly the widest row.
    families.push((
        "full n>m",
        targets
            .iter()
            .map(|&t| SearchWindow::full(t + 17, t))
            .collect(),
    ));

    for (family, windows) in families {
        let mut seen = [false; 3];
        for w in &windows {
            let width = w.max_row_width();
            let Some(slot) = targets.iter().position(|&t| t == width) else {
                continue;
            };
            seen[slot] = true;
            let x = series(w.n_rows(), 0.0);
            let y = series(w.n_cols(), 1.7);
            // Auto vs Generic (and every other tier): bitwise distances,
            // equal meters.
            assert_window_tiers_match(&x, &y, w, SquaredCost);
            assert_window_tiers_match(&x, &y, w, AbsoluteCost);
            assert_window_tiers_match(&x, &y, w, OptedOutSquared);
            let on_wavefront = width >= c;
            assert_eq!(
                auto_takes_wavefront(&x, &y, w, SquaredCost),
                on_wavefront,
                "{family}: width {width} took the wrong route"
            );
            assert_eq!(auto_takes_wavefront(&x, &y, w, AbsoluteCost), on_wavefront);
            assert!(
                !auto_takes_wavefront(&x, &y, w, OptedOutSquared),
                "{family}: an opted-out cost must stay on the row sweep"
            );
        }
        assert_eq!(seen, [true; 3], "{family} must cover widths {targets:?}");
    }
}

/// One deterministic case wide enough that the 4-wide unrolled interior,
/// its scalar remainder, and both guarded edges all execute.
#[test]
fn wide_band_exercises_the_unrolled_interior() {
    let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.05).sin() * 5.0).collect();
    let y: Vec<f64> = (0..200)
        .map(|i| (i as f64 * 0.05 + 0.3).sin() * 5.0)
        .collect();
    for band in [0usize, 1, 2, 3, 5, 17, 50, 199] {
        let mut buf = DtwBuffer::new();
        let mut m_gen = WorkMeter::new();
        let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
        let d_gen = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            SquaredCost,
            &mut buf,
            &mut m_gen,
            Kernel::Generic,
        )
        .unwrap();
        let mut m_seg = WorkMeter::new();
        let d_seg = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            SquaredCost,
            &mut buf,
            &mut m_seg,
            Kernel::Segmented,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_seg), "band {band}");
        assert_eq!(m_gen, m_seg, "band {band}");
        let mut m_wav = WorkMeter::new();
        let d_wav = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            SquaredCost,
            &mut buf,
            &mut m_wav,
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_wav), "band {band} wavefront");
        assert_eq!(m_gen, m_wav, "band {band} wavefront");
    }
}

/// The buffered cdtw entry point used by the mining hot loops.
#[test]
fn buffered_cdtw_is_tier_invariant_across_reuse() {
    let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).sin()).collect();
    let y: Vec<f64> = (0..60).map(|i| (i as f64 * 0.2).cos()).collect();
    // One buffer reused across differently-sized calls, as the k-NN scan
    // does: stale capacity must never leak into the result.
    let mut buf = DtwBuffer::new();
    for band in [40usize, 2, 11, 0, 25] {
        let mut m_gen = WorkMeter::new();
        let d_gen = cdtw_distance_metered_with_buf_kernel(
            &x,
            &y,
            band,
            SquaredCost,
            &mut buf,
            &mut m_gen,
            Kernel::Generic,
        )
        .unwrap();
        let mut m_seg = WorkMeter::new();
        let d_seg = cdtw_distance_metered_with_buf_kernel(
            &x,
            &y,
            band,
            SquaredCost,
            &mut buf,
            &mut m_seg,
            Kernel::Segmented,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_seg), "band {band}");
        assert_eq!(m_gen, m_seg, "band {band}");
        let mut m_wav = WorkMeter::new();
        let d_wav = cdtw_distance_metered_with_buf_kernel(
            &x,
            &y,
            band,
            SquaredCost,
            &mut buf,
            &mut m_wav,
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(bits(d_gen), bits(d_wav), "band {band} wavefront");
        assert_eq!(m_gen, m_wav, "band {band} wavefront");
    }
}

/// Scan sizes whose final batch group holds exactly [`LANES`], `1`, and
/// `LANES − 1` live lanes — the remainder occupancies the group loop and
/// the padding-lane replication must keep invisible.
#[test]
fn lane_remainder_grid_is_bitwise_equal_across_group_occupancies() {
    let x: Vec<f64> = (0..33).map(|i| (i as f64 * 0.19).sin() * 3.0).collect();
    for count in [2 * LANES, LANES + 1, 2 * LANES - 1] {
        let ys: Vec<Vec<f64>> = (0..count)
            .map(|s| {
                (0..27)
                    .map(|i| ((2 * i + s) as f64 * 0.11).cos() * 3.0)
                    .collect()
            })
            .collect();
        assert_batch_matches_scalar(&x, &ys, 6);
    }
}

/// The mining k-NN scan routes same-length candidate sets through the
/// batched kernel under the default `Kernel::Auto`; the neighbor list
/// and the whole `WorkMeter` — including the `batch.*` group accounting
/// — must be identical at every worker count.
#[test]
fn mining_batched_scan_meters_are_thread_count_invariant() {
    use tsdtw::mining::knn::knn_brute_force_metered;
    use tsdtw::mining::{knn_brute_force_par, DistanceSpec, LabeledView, ParConfig};
    let series: Vec<Vec<f64>> = (0..21)
        .map(|s| {
            (0..40)
                .map(|i| ((i + 3 * s) as f64 * 0.17).sin() * 4.0)
                .collect()
        })
        .collect();
    let labels: Vec<usize> = (0..21).map(|s| s % 3).collect();
    let view = LabeledView::new(&series, &labels).unwrap();
    let query: Vec<f64> = (0..40).map(|i| (i as f64 * 0.23).cos() * 4.0).collect();
    let spec = DistanceSpec::CdtwBand(5);
    let mut serial = WorkMeter::new();
    let base = knn_brute_force_metered(&view, &query, spec, 3, usize::MAX, &mut serial).unwrap();
    assert_eq!(
        serial.batch_groups,
        21u64.div_ceil(LANES as u64),
        "the scan must take the batched route"
    );
    assert_eq!(serial.batch_lanes, 21);
    for threads in [1usize, 2, 4, 7] {
        let cfg = ParConfig::new(threads).unwrap();
        let mut par = WorkMeter::new();
        let got = knn_brute_force_par(&view, &query, spec, 3, usize::MAX, &cfg, &mut par).unwrap();
        assert_eq!(par, serial, "threads {threads}");
        assert_eq!(got.len(), base.len());
        for (a, b) in base.iter().zip(&got) {
            assert_eq!(a.index, b.index, "threads {threads}");
            assert_eq!(bits(a.distance), bits(b.distance), "threads {threads}");
        }
    }
}
