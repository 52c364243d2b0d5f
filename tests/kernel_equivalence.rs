//! Differential test layer for the DP row sweep (DESIGN.md §11) and the
//! evaluation orders `Kernel::Auto` routes to.
//!
//! Every route must be **bitwise** equal to a naive full-matrix
//! reference DP on every window shape the stack produces:
//!
//! * distances compare by `to_bits()` — not approximate equality;
//! * warping paths compare exactly against the naive DP's own
//!   traceback, which prefers the diagonal, then up, then left (`<=`
//!   throughout) among the neighbors inside the window. The
//!   Sakoe–Chiba, full-matrix, Itakura and FastDTW properties also run
//!   on tie-heavy integer series in −2..=2, where that tie-break decides
//!   the path;
//! * work accounting compares by full [`WorkMeter`] equality between
//!   routes — counters are recorded from window bounds alone, so no
//!   route may change them.
//!
//! The same properties run on **adversarial** series as well: ±1e155,
//! whose squared difference with almost anything overflows to `+∞`;
//! subnormals, whose products underflow to zero; and ±0.0, mixed with
//! ordinary values. On them every route must return the oracle's bits,
//! `+∞` included, and every path must stay inside its window. One
//! deterministic Case B-shaped pair (N = 600, band 200, every 7th sample
//! hostile) takes the same contract onto the wavefront's long diagonals.
//! The full-matrix property also runs on **piecewise-constant** series (at
//! most 4 runs over 40–120 points), the run-compressible input class,
//! through both full-window distance entry points.
//!
//! Window shapes covered: Sakoe–Chiba bands (square and staircase,
//! radius 0 up), Itakura parallelograms, FastDTW projected windows
//! (exercised through the real multi-level recursion), and the full
//! matrix. Costs cover `SquaredCost`, `AbsoluteCost`, the `Rooted`
//! wrapper (which changes only `finish`), and a plain user cost, which
//! takes the same routes as the built-in ones. The early-abandoning
//! kernel must match a naive oracle: the first row whose minimum plus
//! the suffix bound exceeds the threshold.
//!
//! The throughput routes extend the same contract:
//!
//! * the **wavefront** (anti-diagonal evaluation) runs through every
//!   window family above and must match the oracle bitwise, with a
//!   `WorkMeter` identical to the row sweep's. `Kernel::Auto` takes it
//!   once a window is [`WAVEFRONT_MIN_WIDTH`] cells wide, so the
//!   crossover test pins Auto against the oracle on windows one cell
//!   narrower than, exactly at, and one cell wider than the crossover in
//!   every family — including full windows with `n > m`, where the
//!   longest diagonal is as long as the widest row;
//! * the **batched** kernel (one query against up to [`LANES`]
//!   same-length candidates in struct-of-lanes layout) must match the
//!   oracle per lane, distances bitwise, and the summed scan
//!   `WorkMeter` must equal the scalar row sweep's except for the two
//!   `batch.*` counters that exist only on the batched path. The
//!   lane-remainder grid pins scan sizes whose final group holds
//!   `LANES`, `1`, and `LANES − 1` live lanes, and the mining k-NN scan
//!   (which takes the batched route) must produce one meter regardless
//!   of worker count.
//!
//! The envelope bounds that gate the exact scans hold to the same
//! contract: LB_Keogh's entry points, LB_Improved and LB_Yi charge one
//! compare-select term, and each must return the bits of the textbook
//! `if / else if / else` term written here, on adversarial inputs and on
//! a hand-built envelope whose `lower` exceeds its `upper`.

mod common;

use common::adversarial;
use proptest::prelude::*;
use tsdtw::core::cost::{AbsoluteCost, CostFn, Rooted, SquaredCost};
use tsdtw::core::dtw::banded::{
    cdtw_distance, cdtw_distance_kernel, cdtw_distance_metered_with_buf_kernel, cdtw_with_path,
};
use tsdtw::core::dtw::batch::{cdtw_batch_distances_metered, BatchBuffer, LANES};
use tsdtw::core::dtw::early_abandon::{cdtw_distance_ea_metered, EaOutcome};
use tsdtw::core::dtw::full::dtw_distance;
use tsdtw::core::dtw::kernel::WAVEFRONT_MIN_WIDTH;
use tsdtw::core::dtw::windowed::{windowed_distance_metered_kernel, windowed_with_path, DtwBuffer};
use tsdtw::core::envelope::Envelope;
use tsdtw::core::fastdtw::{fastdtw_distance_metered, fastdtw_metered, fastdtw_ref_with_path};
use tsdtw::core::lower_bounds::keogh::{
    lb_keogh, lb_keogh_ea, lb_keogh_reordered, lb_keogh_reordered_by, lb_keogh_with_contrib,
    sort_indices_by_magnitude,
};
use tsdtw::core::lower_bounds::{lb_improved, lb_yi};
use tsdtw::core::paa::halve;
use tsdtw::core::{Kernel, SearchWindow, WarpingPath};
use tsdtw_obs::WorkMeter;

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
    for i in 0..n {
        let (lo, hi) = w.row_bounds(i);
        for j in lo..=hi {
            let c = cost.cost(x[i], y[j]);
            if i == 0 && j == 0 {
                dp[i][j] = c;
                continue;
            }
            let [diag, up, left] = in_window_neighbors(w, i, j).map(|nb| match nb {
                Some((a, b)) => dp[a][b],
                None => f64::INFINITY,
            });
            dp[i][j] = c + diag.min(up).min(left);
        }
    }
    dp
}

/// The diagonal, up and left neighbors of `(i, j)`, each `None` when it
/// lies outside `w` (or outside the matrix).
fn in_window_neighbors(w: &SearchWindow, i: usize, j: usize) -> [Option<(usize, usize)>; 3] {
    let inside = |a: usize, b: usize| {
        let (lo, hi) = w.row_bounds(a);
        (lo..=hi).contains(&b).then_some((a, b))
    };
    [
        (i > 0 && j > 0).then(|| inside(i - 1, j - 1)).flatten(),
        (i > 0).then(|| inside(i - 1, j)).flatten(),
        (j > 0).then(|| inside(i, j - 1)).flatten(),
    ]
}

/// The naive reference distance over `w`.
fn naive_windowed<C: CostFn>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) -> f64 {
    cost.finish(naive_matrix(x, y, w, cost)[x.len() - 1][y.len() - 1])
}

/// `naive_windowed`'s full-matrix DP plus a traceback from `(n-1, m-1)`
/// that prefers the diagonal, then the vertical step, then the horizontal
/// one, comparing with `<=` among the neighbors inside the window: the
/// tie-break every path kernel documents. Only in-window neighbors
/// compete, since an overflowed in-window `+∞` ties the `+∞` an
/// out-of-window neighbor reads as. Returns the finished distance and
/// the path cells in forward order.
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
        let [diag, up, left] = in_window_neighbors(w, i, j);
        let value = |nb: Option<(usize, usize)>| nb.map(|(a, b)| dp[a][b]);
        // `a` beats `b` when it is in the window and `b` is not, or both
        // are and `a <= b`.
        let beats = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(a), Some(b)) => a <= b,
            (a, _) => a.is_some(),
        };
        let (d, u, l) = (value(diag), value(up), value(left));
        (i, j) = if beats(d, u) && beats(d, l) {
            diag
        } else if beats(u, l) {
            up
        } else {
            left
        }
        .expect("a reachable cell has an in-window neighbor");
        cells.push((i, j));
    }
    cells.reverse();
    (dist, cells)
}

/// FastDTW rebuilt from its public layers (`paa::halve`,
/// `SearchWindow::from_low_res_path`) with [`naive_windowed_path`] solving
/// every level, so each level's tie-break is checked against the oracle.
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

/// The naive early-abandoning oracle over a Sakoe–Chiba band: the first
/// row whose [`naive_matrix`] minimum plus the suffix bound
/// `cb[row + band + 1]` (0 past the end, or without `cb`) exceeds
/// `threshold` abandons with that row counted; otherwise the exact
/// distance.
fn naive_ea(x: &[f64], y: &[f64], band: usize, threshold: f64, cb: Option<&[f64]>) -> EaOutcome {
    let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
    let dp = naive_matrix(x, y, &w, SquaredCost);
    for (i, row) in dp.iter().enumerate() {
        let row_min = row.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        let suffix = cb.and_then(|cb| cb.get(i + band + 1)).copied();
        if row_min + suffix.unwrap_or(0.0) > threshold {
            return EaOutcome::Abandoned { rows_filled: i + 1 };
        }
    }
    EaOutcome::Exact(dp[x.len() - 1][y.len() - 1])
}

/// Asserts two early-abandon outcomes agree: same kind, same distance
/// bits or the same abandonment row.
fn assert_same_outcome(got: EaOutcome, want: EaOutcome, what: &str) {
    match (got, want) {
        (EaOutcome::Exact(a), EaOutcome::Exact(b)) => assert_eq!(bits(a), bits(b), "{what}"),
        (EaOutcome::Abandoned { rows_filled: a }, EaOutcome::Abandoned { rows_filled: b }) => {
            assert_eq!(a, b, "{what}: abandonment row")
        }
        (a, b) => panic!("{what}: outcome kinds disagree: {a:?} vs the oracle's {b:?}"),
    }
}

/// Integer-valued series in −2..=2. Accumulated costs are then small
/// integers, so neighbor ties, where only the tie-break decides the
/// path, are common rather than measure-zero.
fn tie_heavy(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-2i32..3).prop_map(f64::from), len)
}

/// Piecewise-constant series: 40–120 points in at most 4 runs, each run
/// holding a float level in −10..10, so a pair has at most one run per
/// 10 points. On such run-compressible pairs a run-length kernel is the
/// tempting shortcut, and one that rounds differently from the row sweep
/// fails here.
fn piecewise() -> impl Strategy<Value = Vec<f64>> {
    let runs = prop::collection::vec((-10.0f64..10.0, 0.0f64..1.0), 1..5);
    (40usize..121, runs).prop_map(|(n, mut runs)| {
        // Each run starts at its fraction of the series; the earliest
        // also covers the points before its start.
        runs.sort_by(|a, b| a.1.total_cmp(&b.1));
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                runs.iter().rev().find(|r| r.1 <= t).unwrap_or(&runs[0]).0
            })
            .collect()
    })
}

/// A cost written the way a user would: no hints, just the arithmetic.
/// It must take `Auto`'s routes exactly like the built-in costs.
#[derive(Clone, Copy)]
struct UserSquared;

impl CostFn for UserSquared {
    fn cost(&self, a: f64, b: f64) -> f64 {
        (a - b) * (a - b)
    }
}

/// Runs one window through every route and the naive reference with a
/// given cost; asserts bitwise distance equality with the oracle, meter
/// equality between routes, and the oracle's path from the path kernel.
fn assert_window_tiers_match<C: CostFn + Copy>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) {
    let (d_naive, p_naive) = naive_windowed_path(x, y, w, cost);
    let mut buf = DtwBuffer::new();
    let mut m_seg = WorkMeter::new();
    for kernel in [Kernel::Segmented, Kernel::Auto, Kernel::Wavefront] {
        let mut m = WorkMeter::new();
        let d = windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut m, kernel).unwrap();
        prop_assert_eq!(bits(d), bits(d_naive), "{:?} vs naive", kernel);
        if kernel == Kernel::Segmented {
            m_seg = m;
        } else {
            prop_assert_eq!(&m, &m_seg, "{:?} meters must match the row sweep", kernel);
        }
    }
    let (pd, p) = windowed_with_path(x, y, w, cost).unwrap();
    prop_assert_eq!(bits(pd), bits(d_naive), "path-kernel distance");
    prop_assert_eq!(p.cells(), &p_naive[..], "path vs naive");
}

/// Runs `ys` against `x` through the batched kernel in scan order
/// (groups of [`LANES`]) and through the scalar row sweep; asserts
/// per-lane bitwise distance equality with the naive oracle, exact
/// `batch.*` group accounting, and scan-meter equality modulo those two
/// counters — the only ones that exist solely on the batched path.
fn assert_batch_matches_scalar(x: &[f64], ys: &[Vec<f64>], band: usize) {
    let refs: Vec<&[f64]> = ys.iter().map(|y| y.as_slice()).collect();
    let mut buf = DtwBuffer::new();
    let mut m_scalar = WorkMeter::new();
    for y in &refs {
        let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
        let d = cdtw_distance_metered_with_buf_kernel(
            x,
            y,
            band,
            SquaredCost,
            &mut buf,
            &mut m_scalar,
            Kernel::Segmented,
        )
        .unwrap();
        assert_eq!(bits(d), bits(naive_windowed(x, y, &w, SquaredCost)));
    }
    let mut bbuf = BatchBuffer::new();
    let mut m_batch = WorkMeter::new();
    let mut batched = vec![0.0f64; refs.len()];
    for (group, out) in refs.chunks(LANES).zip(batched.chunks_mut(LANES)) {
        cdtw_batch_distances_metered(x, group, band, SquaredCost, out, &mut bbuf, &mut m_batch)
            .unwrap();
    }
    for (l, (y, b)) in refs.iter().zip(&batched).enumerate() {
        let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
        let want = naive_windowed(x, y, &w, SquaredCost);
        assert_eq!(bits(*b), bits(want), "lane {l}");
    }
    assert_eq!(m_batch.batch_groups, refs.len().div_ceil(LANES) as u64);
    assert_eq!(m_batch.batch_lanes, refs.len() as u64);
    let mut sans = m_batch.clone();
    sans.batch_groups = 0;
    sans.batch_lanes = 0;
    assert_eq!(sans, m_scalar, "scan meters must agree modulo batch.*");
}

/// The textbook envelope term, branch for branch: above `upper` first,
/// then below `lower`, else inside.
fn branchy_excursion(c: f64, upper: f64, lower: f64) -> f64 {
    if c > upper {
        (c - upper) * (c - upper)
    } else if c < lower {
        (lower - c) * (lower - c)
    } else {
        0.0
    }
}

/// The branchy term's visit stream along `order`, `(index, term bits)`,
/// up to and including the index whose running sum reaches `bsf`, and
/// that sum: what the reordered early-abandoning pass must see and
/// return.
fn branchy_pass(c: &[f64], env: &Envelope, order: &[usize], bsf: f64) -> (Vec<(usize, u64)>, f64) {
    let mut seen = Vec::new();
    let mut acc = 0.0;
    for &i in order {
        let e = branchy_excursion(c[i], env.upper[i], env.lower[i]);
        seen.push((i, bits(e)));
        acc += e;
        if acc >= bsf {
            break;
        }
    }
    (seen, acc)
}

/// Runs candidate `c` against envelope `env` through every LB_Keogh
/// entry point at threshold `bsf` (and at `+∞`); each must return the
/// branchy term's bits, and the reordered pass must visit its stream.
fn assert_keogh_family_matches_branchy(c: &[f64], env: &Envelope, order: &[usize], bsf: f64) {
    let in_order: Vec<usize> = (0..c.len()).collect();
    let terms: Vec<u64> = (0..c.len())
        .map(|i| bits(branchy_excursion(c[i], env.upper[i], env.lower[i])))
        .collect();
    let (_, full) = branchy_pass(c, env, &in_order, f64::INFINITY);
    assert_eq!(bits(lb_keogh(c, env).unwrap()), bits(full), "lb_keogh");
    let mut contrib = Vec::new();
    let sum = lb_keogh_with_contrib(c, env, &mut contrib).unwrap();
    assert_eq!(bits(sum), bits(full), "lb_keogh_with_contrib");
    assert_eq!(
        contrib.iter().map(|&e| bits(e)).collect::<Vec<_>>(),
        terms,
        "contributions"
    );
    for t in [bsf, f64::INFINITY] {
        let (_, want) = branchy_pass(c, env, &in_order, t);
        let got = lb_keogh_ea(c, env, t).unwrap();
        assert_eq!(bits(got), bits(want), "lb_keogh_ea at {t}");
        let (stream, want) = branchy_pass(c, env, order, t);
        let got = lb_keogh_reordered(c, env, order, t).unwrap();
        assert_eq!(bits(got), bits(want), "lb_keogh_reordered at {t}");
        let mut seen = Vec::new();
        let got = lb_keogh_reordered_by(env, order, t, |i| c[i], |i, e| seen.push((i, bits(e))));
        assert_eq!(bits(got), bits(want), "lb_keogh_reordered_by at {t}");
        assert_eq!(seen, stream, "visit stream at {t}");
    }
}

/// LB_Improved built from the branchy term: pass one on `q`'s envelope,
/// pass two on the envelope of `c` projected onto it.
fn branchy_improved(q: &[f64], c: &[f64], env: &Envelope, band: usize) -> f64 {
    let in_order: Vec<usize> = (0..c.len()).collect();
    let (_, first) = branchy_pass(c, env, &in_order, f64::INFINITY);
    let h: Vec<f64> = (0..c.len())
        .map(|i| c[i].clamp(env.lower[i], env.upper[i]))
        .collect();
    let h_env = Envelope::new(&h, band).unwrap();
    let (_, second) = branchy_pass(q, &h_env, &in_order, f64::INFINITY);
    first + second
}

/// LB_Yi built from the branchy term against the query's range.
fn branchy_yi(q: &[f64], c: &[f64]) -> f64 {
    let qmax = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let qmin = q.iter().cloned().fold(f64::INFINITY, f64::min);
    let mut acc = 0.0;
    for &v in c {
        acc += branchy_excursion(v, qmax, qmin);
    }
    acc
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
        (xa, ya) in (adversarial(1..28), adversarial(1..28)),
    ) {
        for (x, y) in [(&x, &y), (&xt, &yt), (&xa, &ya)] {
            let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
            assert_window_tiers_match(x, y, &w, SquaredCost);
            assert_window_tiers_match(x, y, &w, AbsoluteCost);
            // Rooted changes only `finish`, which every route must apply
            // identically.
            assert_window_tiers_match(x, y, &w, Rooted(SquaredCost));
        }
    }

    /// The full matrix is the widest window; both full-window distance
    /// entry points, [`dtw_distance`] and [`cdtw_distance`] at a
    /// matrix-covering band, must agree with the windowed kernels and
    /// naive DP.
    #[test]
    fn full_matrix_is_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..20),
        y in prop::collection::vec(-10.0f64..10.0, 1..20),
        xt in tie_heavy(1..20),
        yt in tie_heavy(1..20),
        (xa, ya) in (adversarial(1..20), adversarial(1..20)),
        (xp, yp) in (piecewise(), piecewise()),
    ) {
        for (x, y) in [(&x, &y), (&xt, &yt), (&xa, &ya), (&xp, &yp)] {
            let w = SearchWindow::full(x.len(), y.len());
            assert_window_tiers_match(x, y, &w, SquaredCost);
            let naive = bits(naive_windowed(x, y, &w, SquaredCost));
            let d = dtw_distance(x, y, SquaredCost).unwrap();
            prop_assert_eq!(bits(d), naive, "dtw_distance");
            let band = x.len().max(y.len());
            let d = cdtw_distance(x, y, band, SquaredCost).unwrap();
            prop_assert_eq!(bits(d), naive, "cdtw_distance at band {}", band);
        }
    }

    /// Itakura parallelograms have rows whose interiors shrink to nothing
    /// near the corners — the degenerate-row fallback path.
    #[test]
    fn itakura_windows_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 2..24),
        y in prop::collection::vec(-10.0f64..10.0, 2..24),
        slope_tenths in 12u32..40,
        xt in tie_heavy(2..24),
        yt in tie_heavy(2..24),
        (xa, ya) in (adversarial(2..24), adversarial(2..24)),
    ) {
        let slope = slope_tenths as f64 / 10.0;
        for (x, y) in [(&x, &y), (&xt, &yt), (&xa, &ya)] {
            let w = SearchWindow::itakura(x.len(), y.len(), slope).unwrap();
            assert_window_tiers_match(x, y, &w, SquaredCost);
            assert_window_tiers_match(x, y, &w, AbsoluteCost);
        }
    }

    /// FastDTW's projected-and-dilated windows, exercised through the
    /// real multi-level recursion: distance and path must equal the naive
    /// per-level oracle's, and the per-level meter must account for every
    /// cell the stats count. The distance-only entry, which solves the
    /// finest level without a path, must return the oracle's bits and the
    /// path call's cells, window cells and level list, within its DP
    /// scratch peak. The reference implementation must return a valid path
    /// on the same inputs.
    #[test]
    fn fastdtw_projected_windows_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..48),
        y in prop::collection::vec(-10.0f64..10.0, 1..48),
        radius in 0usize..4,
        xt in tie_heavy(1..48),
        yt in tie_heavy(1..48),
        (xa, ya) in (adversarial(1..48), adversarial(1..48)),
    ) {
        for (x, y) in [(&x, &y), (&xt, &yt), (&xa, &ya)] {
            let (d_naive, p_naive) = naive_fastdtw(x, y, radius);
            let mut m = WorkMeter::new();
            let (d, p, s) = fastdtw_metered(x, y, radius, SquaredCost, &mut m).unwrap();
            prop_assert_eq!(bits(d), bits(d_naive), "vs the naive oracle");
            prop_assert_eq!(p.cells(), &p_naive[..], "path vs the naive oracle");
            prop_assert_eq!(m.cells, s.cells, "meter vs stats");
            prop_assert_eq!(m.levels.len(), s.levels as usize);
            let mut md = WorkMeter::new();
            let dd = fastdtw_distance_metered(x, y, radius, SquaredCost, &mut md).unwrap();
            prop_assert_eq!(bits(dd), bits(d_naive), "distance-only vs the naive oracle");
            prop_assert_eq!(md.cells, m.cells);
            prop_assert_eq!(md.window_cells, m.window_cells);
            prop_assert_eq!(&md.levels, &m.levels);
            prop_assert!(md.dp_peak_bytes <= m.dp_peak_bytes);
            let (_, p_ref) = fastdtw_ref_with_path(x, y, radius, SquaredCost).unwrap();
            prop_assert!(p_ref.validate_for(x.len(), y.len()).is_ok());
        }
    }

    /// cdtw distance and path entry points (band in cells) on every route.
    #[test]
    fn cdtw_entry_points_are_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 1..24),
        y in prop::collection::vec(-10.0f64..10.0, 1..24),
        band in 0usize..8,
    ) {
        let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
        let (d_naive, p_naive) = naive_windowed_path(&x, &y, &w, SquaredCost);
        for kernel in [Kernel::Segmented, Kernel::Auto, Kernel::Wavefront] {
            let d = cdtw_distance_kernel(&x, &y, band, SquaredCost, kernel).unwrap();
            prop_assert_eq!(bits(d), bits(d_naive), "{:?}", kernel);
        }
        let (pd, p) = cdtw_with_path(&x, &y, band, SquaredCost).unwrap();
        prop_assert_eq!(bits(pd), bits(d_naive));
        prop_assert_eq!(p.cells(), &p_naive[..]);
    }

    /// Early abandoning with an infinite threshold never abandons, so it
    /// must equal the plain kernel and the oracle bitwise, having filled
    /// every row and every band cell.
    #[test]
    fn ea_with_infinite_threshold_equals_plain(
        x in prop::collection::vec(-10.0f64..10.0, 1..24),
        y in prop::collection::vec(-10.0f64..10.0, 1..24),
        band in 0usize..8,
        (xa, ya) in (adversarial(1..24), adversarial(1..24)),
    ) {
        for (x, y) in [(&x, &y), (&xa, &ya)] {
            let plain = cdtw_distance_kernel(x, y, band, SquaredCost, Kernel::Auto).unwrap();
            let mut m = WorkMeter::new();
            let ea = cdtw_distance_ea_metered(
                x, y, band, f64::INFINITY, None, SquaredCost, &mut m,
            )
            .unwrap();
            let EaOutcome::Exact(d) = ea else {
                panic!("infinite threshold must never abandon: {ea:?}");
            };
            prop_assert_eq!(bits(d), bits(plain), "EA vs plain kernel");
            let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
            prop_assert_eq!(bits(d), bits(naive_windowed(x, y, &w, SquaredCost)));
            prop_assert_eq!(m.cells, m.window_cells);
            prop_assert_eq!(m.ea_rows_filled, x.len() as u64);
        }
    }

    /// Early abandoning with a *finite* threshold, with and without a
    /// suffix bound: whatever the outcome (exact or abandoned at some
    /// row), it is the naive oracle's, and the meter counts exactly the
    /// rows filled.
    #[test]
    fn ea_abandonment_row_is_tier_invariant(
        x in prop::collection::vec(-10.0f64..10.0, 2..24),
        y in prop::collection::vec(-10.0f64..10.0, 2..24),
        band in 0usize..6,
        threshold in 0.0f64..200.0,
        (xa, ya) in (adversarial(2..24), adversarial(2..24)),
    ) {
        for (x, y) in [(&x, &y), (&xa, &ya)] {
            // Any non-negative array is a legal input; the kernel trusts
            // it as a bound, the oracle applies it the same way.
            let cb: Vec<f64> = (0..y.len()).map(|k| (y.len() - k) as f64 * 2.5).collect();
            for cb in [None, Some(cb.as_slice())] {
                let mut m = WorkMeter::new();
                let got = cdtw_distance_ea_metered(x, y, band, threshold, cb, SquaredCost, &mut m)
                    .unwrap();
                assert_same_outcome(got, naive_ea(x, y, band, threshold, cb), "EA");
                let rows = match got {
                    EaOutcome::Abandoned { rows_filled } => rows_filled,
                    EaOutcome::Exact(_) => x.len(),
                };
                prop_assert_eq!(m.ea_rows_filled, rows as u64);
            }
        }
    }

    /// Every lane of the batched kernel equals the oracle on that pair —
    /// bitwise — over random query lengths, band widths, and batch
    /// occupancies from one lane to the full [`LANES`]. Each case also
    /// runs an equal-length query, the k-NN scans' shape, where a row
    /// past the band's first rows is one interior segment plus a
    /// one-cell suffix; bands reach max(n, m) + 2, past the band that
    /// covers the matrix, which the `FullDtw` scan route uses; and
    /// tie-heavy series make the neighbor minimum tie often.
    #[test]
    fn batched_lanes_are_bitwise_equal_to_the_scalar_kernel(
        x in prop::collection::vec(-10.0f64..10.0, 4..32),
        xe in prop::collection::vec(-10.0f64..10.0, 19),
        ys in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 19), 1..9),
        band in 0usize..34,
        (xa, ysa) in (adversarial(4..32), prop::collection::vec(adversarial(19..20), 1..9)),
        (xt, yst) in (tie_heavy(4..32), prop::collection::vec(tie_heavy(19..20), 1..9)),
    ) {
        assert_batch_matches_scalar(&x, &ys, band);
        assert_batch_matches_scalar(&xe, &ys, band);
        assert_batch_matches_scalar(&xa, &ysa, band);
        assert_batch_matches_scalar(&xt, &yst, band);
    }

    /// Every envelope bound charges one compare-select term; on
    /// adversarial queries and candidates (±1e155 make `+∞` terms,
    /// subnormals, ±0.0), at bands 0, 1, 3 and the whole series, each
    /// entry point must return the branchy term's bits, and the
    /// reordered pass must visit its stream, at a finite and an
    /// infinite threshold.
    #[test]
    fn envelope_bounds_equal_the_branchy_term(
        (q, c) in (adversarial(1..40), adversarial(40..41)),
        bsf in 0.0f64..200.0,
    ) {
        let c = &c[..q.len()];
        let order = sort_indices_by_magnitude(&q);
        for band in [0, 1, 3, q.len()] {
            let env = Envelope::new(&q, band).unwrap();
            assert_keogh_family_matches_branchy(c, &env, &order, bsf);
            let got = lb_improved(&q, c, &env, band).unwrap();
            prop_assert_eq!(bits(got), bits(branchy_improved(&q, c, &env, band)), "band {}", band);
        }
        prop_assert_eq!(bits(lb_yi(&q, c).unwrap()), bits(branchy_yi(&q, c)), "lb_yi");
        prop_assert_eq!(bits(lb_yi(c, &q).unwrap()), bits(branchy_yi(c, &q)), "lb_yi reversed");
    }
}

/// `Envelope`'s fields are public, so an envelope can hold `lower >
/// upper`. Where a point lies above `upper` and below `lower` at once,
/// the term charges its excursion above `upper`, as the branchy form
/// does; a term that tests `lower` first charges the other.
#[test]
fn envelope_bounds_charge_above_first_on_a_crossed_envelope() {
    let env = Envelope {
        upper: vec![-1.0, 2.0, 0.5, -3.0, 1.0, 4.0],
        lower: vec![3.0, -2.0, 2.5, 1.0, -1.0, 3.0],
    };
    // Indices 0, 2 and 3 are crossed, with c between the two bounds and
    // unequal differences: the above-first term charges 1, 0.25 and 9
    // there, where a below-first one would charge 9, 2.25 and 1.
    let c = [0.0, 3.0, 1.0, 0.0, -0.5, 4.5];
    let order = [3, 0, 5, 2, 1, 4];
    for bsf in [0.5, 5.0, 10.0] {
        assert_keogh_family_matches_branchy(&c, &env, &order, bsf);
    }
    let mut contrib = Vec::new();
    lb_keogh_with_contrib(&c, &env, &mut contrib).unwrap();
    assert_eq!(contrib, [1.0, 1.0, 0.25, 9.0, 0.0, 0.25]);
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
        assert_window_tiers_match(&x, &y, &w, SquaredCost);
        assert_window_tiers_match(&x, &y, &w.dilate(radius + 1), SquaredCost);
    }
}

/// Whether `Auto` takes the wavefront route on `w`. Only that route
/// touches the diagonal buffers, whose `3 · (width + 2)` slots plus the
/// reversed `y` outgrow the sweep's two `width`-slot rows, so a fresh
/// buffer's capacity after one call reveals the route.
fn auto_takes_wavefront<C: CostFn>(x: &[f64], y: &[f64], w: &SearchWindow, cost: C) -> bool {
    let mut buf = DtwBuffer::new();
    windowed_distance_metered_kernel(x, y, w, cost, &mut buf, &mut WorkMeter::new(), Kernel::Auto)
        .unwrap();
    buf.capacity_bytes() >= (3 * (w.max_row_width() + 2) + y.len()) * std::mem::size_of::<f64>()
}

/// Auto against the oracle around the wavefront crossover: for each
/// window family, windows of width `WAVEFRONT_MIN_WIDTH - 1`,
/// `WAVEFRONT_MIN_WIDTH` and `WAVEFRONT_MIN_WIDTH + 1` must match the
/// oracle bitwise with identical meters on every route, and Auto must
/// route exactly the ones at or above the crossover to the wavefront —
/// for a plain user cost just as for the built-in ones.
#[test]
fn auto_matches_the_oracle_around_the_wavefront_crossover() {
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
            // Every route vs the oracle: bitwise distances, equal meters.
            assert_window_tiers_match(&x, &y, w, SquaredCost);
            assert_window_tiers_match(&x, &y, w, AbsoluteCost);
            assert_window_tiers_match(&x, &y, w, UserSquared);
            let on_wavefront = width >= c;
            assert_eq!(
                auto_takes_wavefront(&x, &y, w, SquaredCost),
                on_wavefront,
                "{family}: width {width} took the wrong route"
            );
            assert_eq!(auto_takes_wavefront(&x, &y, w, AbsoluteCost), on_wavefront);
            assert_eq!(
                auto_takes_wavefront(&x, &y, w, UserSquared),
                on_wavefront,
                "{family}: a user cost must take Auto's routes"
            );
            if family == "full n>m" {
                // dtw_distance keeps the longer series on the rows, so
                // both argument orders reach this window's route.
                let naive = bits(naive_windowed(&x, &y, w, SquaredCost));
                let d = dtw_distance(&x, &y, SquaredCost).unwrap();
                assert_eq!(bits(d), naive, "dtw_distance n > m at width {width}");
                let d = dtw_distance(&y, &x, SquaredCost).unwrap();
                assert_eq!(bits(d), naive, "dtw_distance n < m at width {width}");
            }
        }
        assert_eq!(seen, [true; 3], "{family} must cover widths {targets:?}");
    }
}

/// One deterministic case wide enough that the 4-wide unrolled interior,
/// its scalar remainder, and both guarded edges all execute; then a Case
/// B-shaped adversarial pair that `Auto` sends through the wavefront's
/// packed cell loop on diagonals up to 401 cells long.
#[test]
fn wide_band_exercises_the_unrolled_interior() {
    let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.05).sin() * 5.0).collect();
    let y: Vec<f64> = (0..200)
        .map(|i| (i as f64 * 0.05 + 0.3).sin() * 5.0)
        .collect();
    for band in [0usize, 1, 2, 3, 5, 17, 50, 199] {
        let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
        assert_window_tiers_match(&x, &y, &w, SquaredCost);
    }

    // N = 600, band 200, with every 7th sample of both series hostile:
    // ±1e155 overflow the cost to `+∞` against every ordinary sample, the
    // subnormals underflow, and −0.0 meets its own sign. Hostile samples
    // share indices across the pair, so the distance stays finite while
    // `+∞` operands fill the diagonals.
    const HOSTILE: [f64; 5] = [1e155, -1e155, 4.9e-324, -4.9e-324, -0.0];
    let hostile = |warp: f64| -> Vec<f64> {
        (0..600)
            .map(|i| match i % 7 {
                0 => HOSTILE[i / 7 % HOSTILE.len()],
                _ => ((i as f64 + warp * (i as f64 * 0.01).sin()) * 0.031).sin() * 4.0,
            })
            .collect()
    };
    let (xb, yb) = (hostile(0.0), hostile(40.0));
    let w = SearchWindow::sakoe_chiba(xb.len(), yb.len(), 200);
    assert!(auto_takes_wavefront(&xb, &yb, &w, SquaredCost));
    assert!(naive_windowed(&xb, &yb, &w, SquaredCost).is_finite());
    assert_window_tiers_match(&xb, &yb, &w, SquaredCost);
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
        let w = SearchWindow::sakoe_chiba(x.len(), y.len(), band);
        let naive = naive_windowed(&x, &y, &w, SquaredCost);
        let mut m_seg = WorkMeter::new();
        for kernel in [Kernel::Segmented, Kernel::Wavefront, Kernel::Auto] {
            let mut m = WorkMeter::new();
            let d = cdtw_distance_metered_with_buf_kernel(
                &x,
                &y,
                band,
                SquaredCost,
                &mut buf,
                &mut m,
                kernel,
            )
            .unwrap();
            assert_eq!(bits(d), bits(naive), "band {band} {kernel:?}");
            if kernel == Kernel::Segmented {
                m_seg = m;
            } else {
                assert_eq!(m, m_seg, "band {band} {kernel:?}");
            }
        }
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

/// The mining 1-NN scan routes same-length candidate sets through the
/// batched kernel, and `evaluate_split_par` runs one such scan per query
/// on the executor; the error rate and the whole `WorkMeter` — including
/// the `batch.*` group accounting — must equal a plain loop of the scans
/// at every worker count.
#[test]
fn mining_batched_scan_meters_are_thread_count_invariant() {
    use tsdtw::mining::knn::nn_brute_force_metered;
    use tsdtw::mining::{evaluate_split_par, DistanceSpec, LabeledView, ParConfig};
    let wave = |n: usize, k: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|s| {
                (0..40)
                    .map(|i| ((i + k * s) as f64 * 0.17).sin() * 4.0)
                    .collect()
            })
            .collect()
    };
    let series = wave(21, 3);
    let labels: Vec<usize> = (0..21).map(|s| s % 3).collect();
    let train = LabeledView::new(&series, &labels).unwrap();
    let queries = wave(5, 7);
    let truth: Vec<usize> = (0..5).map(|q| q % 3).collect();
    let test = LabeledView::new(&queries, &truth).unwrap();
    let spec = DistanceSpec::CdtwBand(5);
    let mut serial = WorkMeter::new();
    let mut misses = 0usize;
    for (q, &t) in queries.iter().zip(&truth) {
        let nn = nn_brute_force_metered(&train, q, spec, usize::MAX, &mut serial).unwrap();
        misses += usize::from(nn.label != t);
    }
    let base = misses as f64 / queries.len() as f64;
    assert_eq!(
        serial.batch_groups,
        5 * 21u64.div_ceil(LANES as u64),
        "every scan must take the batched route"
    );
    assert_eq!(serial.batch_lanes, 5 * 21);
    for threads in [1usize, 2, 4, 7] {
        // One query per chunk, so every worker runs scans.
        let cfg = ParConfig::with_chunk(threads, 1).unwrap();
        let mut par = WorkMeter::new();
        let got = evaluate_split_par(&train, &test, spec, &cfg, &mut par).unwrap();
        assert_eq!(par, serial, "threads {threads}");
        assert_eq!(bits(got), bits(base), "threads {threads}");
    }
}
