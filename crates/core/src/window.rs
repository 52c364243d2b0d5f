//! Search windows: per-row column ranges restricting the DTW dynamic program.
//!
//! A [`SearchWindow`] describes, for each row `i` of the `n × m` accumulated
//! cost matrix, an inclusive column interval `[lo(i), hi(i)]` of cells the DP
//! may visit. Three families of windows appear in this crate:
//!
//! * the **full** window (every cell) — unconstrained DTW;
//! * the **Sakoe–Chiba band** of radius `w` cells around the (scaled)
//!   diagonal — exact constrained `cDTW_w`;
//! * the **projected** window FastDTW builds by upsampling a low-resolution
//!   warping path and dilating it by the radius `r`.
//!
//! Windows are stored as two flat `Vec<usize>` bound arrays rather than a set
//! of cells: every window used by DTW is row-convex (each row is a contiguous
//! interval), which keeps the DP cache-friendly and the storage `O(n)`.

use crate::error::{Error, Result};
use crate::path::WarpingPath;

/// Per-row inclusive column bounds for a restricted DTW computation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchWindow {
    /// Number of columns of the underlying matrix (length of series `y`).
    n_cols: usize,
    /// `lo[i]` — first admissible column in row `i`.
    lo: Vec<usize>,
    /// `hi[i]` — last admissible column in row `i` (inclusive).
    hi: Vec<usize>,
    /// Cached `max_i (hi[i] - lo[i] + 1)` — the scratch-row width every DP
    /// kernel needs; repeated-use evaluators (`BandedDtw`, 1-NN loops) would
    /// otherwise re-scan all rows on every call.
    max_width: usize,
    /// Cached total admissible-cell count.
    n_cells: usize,
}

impl SearchWindow {
    /// Builds a window from already-validated bounds, computing the cached
    /// aggregates. Every construction site funnels through here (or through
    /// [`SearchWindow::recache`] after in-place mutation) so the caches can
    /// never go stale.
    fn assemble(n_cols: usize, lo: Vec<usize>, hi: Vec<usize>) -> Self {
        let mut w = SearchWindow {
            n_cols,
            lo,
            hi,
            max_width: 0,
            n_cells: 0,
        };
        w.recache();
        w
    }

    /// Recomputes the cached row-width maximum and cell count from the
    /// current bounds.
    fn recache(&mut self) {
        let mut max_width = 0usize;
        let mut n_cells = 0usize;
        for (&l, &h) in self.lo.iter().zip(&self.hi) {
            // `saturating_sub` keeps the cache well-defined even on bounds
            // that `validate` will subsequently reject (empty rows).
            let width = (h + 1).saturating_sub(l);
            max_width = max_width.max(width);
            n_cells += width;
        }
        self.max_width = max_width;
        self.n_cells = n_cells;
    }
    /// Builds a window from explicit per-row inclusive bounds.
    ///
    /// Returns [`Error::InvalidWindow`] if any row is empty (`lo > hi`), any
    /// bound exceeds the matrix, or the rows are not connected enough for a
    /// monotone path from `(0,0)` to `(n-1, m-1)` to exist (see
    /// [`SearchWindow::validate`]).
    pub fn from_bounds(n_cols: usize, lo: Vec<usize>, hi: Vec<usize>) -> Result<Self> {
        if lo.len() != hi.len() {
            return Err(Error::InvalidWindow {
                reason: format!("lo has {} rows but hi has {}", lo.len(), hi.len()),
            });
        }
        let w = SearchWindow::assemble(n_cols, lo, hi);
        w.validate()?;
        Ok(w)
    }

    /// The full (unconstrained) window over an `n_rows × n_cols` matrix.
    pub fn full(n_rows: usize, n_cols: usize) -> Self {
        SearchWindow::assemble(
            n_cols,
            vec![0; n_rows],
            vec![n_cols.saturating_sub(1); n_rows],
        )
    }

    /// A Sakoe–Chiba band of radius `band` cells around the (staircase)
    /// diagonal of an `n_rows × n_cols` matrix.
    ///
    /// For equal lengths this is exactly the textbook `|i - j| ≤ band`
    /// constraint — no hidden slack, which matters for the soundness of
    /// LB_Keogh with a matching envelope radius. For unequal lengths the
    /// band dilates the integer staircase of the line from `(0,0)` to
    /// `(n-1, m-1)`, which is connected by construction, so even `band = 0`
    /// admits a monotone path.
    pub fn sakoe_chiba(n_rows: usize, n_cols: usize, band: usize) -> Self {
        assert!(n_rows > 0 && n_cols > 0, "band window over empty matrix");
        let mut lo = Vec::with_capacity(n_rows);
        let mut hi = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            // Columns of the diagonal staircase in row i:
            // [⌊i·m/n⌋, ⌊((i+1)·m − 1)/n⌋], which tiles the matrix row by
            // row and degenerates to {i} when n == m.
            let j0 = (i * n_cols) / n_rows;
            let j1 = ((i + 1) * n_cols - 1) / n_rows;
            lo.push(j0.saturating_sub(band));
            hi.push((j1 + band).min(n_cols - 1));
        }
        let w = SearchWindow::assemble(n_cols, lo, hi);
        debug_assert!(
            w.validate().is_ok(),
            "staircase band must be valid: {:?}",
            w.validate()
        );
        w
    }

    /// An Itakura-parallelogram-style window over an `n_rows × n_cols`
    /// matrix: the admissible region is bounded by lines of slope
    /// `max_slope` and `1/max_slope` through both corners, the classic
    /// alternative to the Sakoe–Chiba band (`max_slope > 1`; 2.0 is the
    /// traditional choice).
    ///
    /// Near the corners the parallelogram pinches to the diagonal, so it
    /// forbids the path from spending long runs in one series — a
    /// different inductive bias from the band, exposed for the constraint
    /// ablation.
    pub fn itakura(n_rows: usize, n_cols: usize, max_slope: f64) -> Result<Self> {
        if !max_slope.is_finite() || max_slope <= 1.0 {
            return Err(Error::InvalidWindow {
                reason: format!("Itakura slope must be finite and > 1, got {max_slope}"),
            });
        }
        assert!(n_rows > 0 && n_cols > 0, "Itakura window over empty matrix");
        // Degenerate shapes: a single row or column admits only one
        // possible (full) window.
        if n_rows == 1 || n_cols == 1 {
            return Ok(SearchWindow::full(n_rows, n_cols));
        }
        let n = (n_rows - 1) as f64;
        let m = (n_cols - 1) as f64;
        let s = max_slope;
        let mut lo = Vec::with_capacity(n_rows);
        let mut hi = Vec::with_capacity(n_rows);
        for i in 0..n_rows {
            let x = i as f64;
            // Lower boundary: at least slope 1/s from the start AND within
            // slope s of the end; upper: within slope s of the start AND
            // at least 1/s from the end.
            let low = (x / s).max(m - s * (n - x));
            let high = (s * x).min(m - (n - x) / s);
            let l = low.ceil().clamp(0.0, m) as usize;
            let h = high.floor().clamp(0.0, m) as usize;
            lo.push(l.min(h));
            hi.push(h.max(l));
        }
        lo[0] = 0;
        hi[n_rows - 1] = n_cols - 1;
        let mut w = SearchWindow::assemble(n_cols, lo, hi);
        w.repair_connectivity();
        Ok(w)
    }

    /// Builds the FastDTW search window: takes a warping path computed at
    /// half resolution, projects every path cell onto its 2×2 block at this
    /// resolution, dilates the result by `radius` (Chebyshev distance), and
    /// repairs connectivity.
    ///
    /// `n_rows × n_cols` are the dimensions at the *current* (finer)
    /// resolution. Odd lengths are handled by clamping projected blocks.
    pub fn from_low_res_path(
        low_res_path: &WarpingPath,
        n_rows: usize,
        n_cols: usize,
        radius: usize,
    ) -> Self {
        assert!(n_rows > 0 && n_cols > 0, "projection onto empty matrix");
        let mut lo = vec![usize::MAX; n_rows];
        let mut hi = vec![0usize; n_rows];
        let max_r = n_rows - 1;
        let max_c = n_cols - 1;
        for &(i, j) in low_res_path.cells() {
            // Each low-resolution cell (i, j) covers the 2×2 block
            // {2i, 2i+1} × {2j, 2j+1} at the finer resolution.
            let r0 = (2 * i).min(max_r);
            let r1 = (2 * i + 1).min(max_r);
            let c0 = (2 * j).min(max_c);
            let c1 = (2 * j + 1).min(max_c);
            for r in r0..=r1 {
                lo[r] = lo[r].min(c0);
                hi[r] = hi[r].max(c1);
            }
        }
        // Rows not touched by the projection (possible with odd lengths at
        // the boundary) inherit their neighbor's range before dilation.
        for r in 0..n_rows {
            if lo[r] == usize::MAX {
                let (pl, ph) = if r > 0 && lo[r - 1] != usize::MAX {
                    (lo[r - 1], hi[r - 1])
                } else {
                    (0, 0)
                };
                lo[r] = pl;
                hi[r] = ph;
            }
        }
        let mut w = SearchWindow::assemble(n_cols, lo, hi);
        if radius > 0 {
            w = w.dilate(radius);
        }
        w.lo[0] = 0;
        w.hi[n_rows - 1] = max_c;
        w.repair_connectivity();
        w
    }

    /// Returns a copy of this window dilated by `radius` in Chebyshev
    /// distance: a cell is admissible in the result iff some admissible cell
    /// of `self` lies within `radius` rows *and* `radius` columns of it.
    ///
    /// O(n): with non-decreasing bounds the union of rows `i − radius ..=
    /// i + radius` spans `lo[i − radius] ..= hi[i + radius]` (clamped to the
    /// matrix), so each row reads two bounds instead of scanning
    /// `2·radius + 1` rows. Every window meets that precondition: the public
    /// constructors build monotone bounds or validate or repair them, and
    /// the projection of a monotone path inside
    /// [`from_low_res_path`](Self::from_low_res_path) is monotone before
    /// its repair.
    pub fn dilate(&self, radius: usize) -> Self {
        debug_assert!(
            self.lo.windows(2).all(|p| p[0] <= p[1]) && self.hi.windows(2).all(|p| p[0] <= p[1]),
            "dilate needs non-decreasing bounds"
        );
        let n_rows = self.lo.len();
        let lo = (0..n_rows)
            .map(|i| self.lo[i.saturating_sub(radius)].saturating_sub(radius))
            .collect();
        let hi = (0..n_rows)
            .map(|i| {
                let hi = self.hi[i.saturating_add(radius).min(n_rows - 1)];
                hi.saturating_add(radius).min(self.n_cols - 1)
            })
            .collect();
        SearchWindow::assemble(self.n_cols, lo, hi)
    }

    /// Forces the window to admit at least one monotone staircase path from
    /// `(0,0)` to `(n-1, m-1)` by enforcing three properties:
    /// monotone non-decreasing `lo`, monotone non-decreasing `hi`, and
    /// row-to-row overlap `lo[i+1] ≤ hi[i] + 1`.
    ///
    /// These adjustments only ever *grow* rows, so every previously
    /// admissible cell stays admissible (the approximation can only improve).
    fn repair_connectivity(&mut self) {
        let n_rows = self.lo.len();
        if n_rows == 0 {
            return;
        }
        // Monotone hi (forward): a path can never move left.
        for i in 1..n_rows {
            if self.hi[i] < self.hi[i - 1] {
                self.hi[i] = self.hi[i - 1];
            }
        }
        // Monotone lo (backward): growing lo would *shrink* a row, so grow
        // the earlier row's lo bound downward instead.
        for i in (1..n_rows).rev() {
            if self.lo[i - 1] > self.lo[i] {
                self.lo[i - 1] = self.lo[i];
            }
        }
        // Overlap: row i+1 must start no later than one past row i's end.
        for i in 1..n_rows {
            if self.lo[i] > self.hi[i - 1] + 1 {
                // Grow the previous row's end rather than this row's start,
                // to preserve monotonicity already established.
                let need = self.lo[i] - 1;
                for k in (0..i).rev() {
                    if self.hi[k] >= need {
                        break;
                    }
                    self.hi[k] = need.min(self.n_cols - 1);
                }
            }
        }
        // Re-establish monotone hi after the overlap pass.
        for i in 1..n_rows {
            if self.hi[i] < self.hi[i - 1] {
                self.hi[i] = self.hi[i - 1];
            }
        }
        self.recache();
        debug_assert!(self.validate().is_ok(), "repair_connectivity failed");
    }

    /// Checks the structural invariants required by the windowed DP:
    /// every row non-empty and in-bounds, `lo`/`hi` monotone non-decreasing,
    /// rows overlapping (`lo[i] ≤ hi[i-1] + 1`), `(0,0)` and `(n-1, m-1)`
    /// admissible.
    pub fn validate(&self) -> Result<()> {
        let n_rows = self.lo.len();
        if n_rows == 0 {
            return Err(Error::InvalidWindow {
                reason: "window has no rows".into(),
            });
        }
        if self.n_cols == 0 {
            return Err(Error::InvalidWindow {
                reason: "window has no columns".into(),
            });
        }
        for i in 0..n_rows {
            if self.lo[i] > self.hi[i] {
                return Err(Error::InvalidWindow {
                    reason: format!("row {i} is empty: lo={} > hi={}", self.lo[i], self.hi[i]),
                });
            }
            if self.hi[i] >= self.n_cols {
                return Err(Error::InvalidWindow {
                    reason: format!(
                        "row {i} ends at {} but matrix has {} columns",
                        self.hi[i], self.n_cols
                    ),
                });
            }
            if i > 0 {
                if self.lo[i] < self.lo[i - 1] || self.hi[i] < self.hi[i - 1] {
                    return Err(Error::InvalidWindow {
                        reason: format!("bounds not monotone at row {i}"),
                    });
                }
                if self.lo[i] > self.hi[i - 1] + 1 {
                    return Err(Error::InvalidWindow {
                        reason: format!(
                            "gap between rows {} and {i}: lo={} > prev hi + 1 = {}",
                            i - 1,
                            self.lo[i],
                            self.hi[i - 1] + 1
                        ),
                    });
                }
            }
        }
        if self.lo[0] != 0 {
            return Err(Error::InvalidWindow {
                reason: "cell (0,0) not admissible".into(),
            });
        }
        if self.hi[n_rows - 1] != self.n_cols - 1 {
            return Err(Error::InvalidWindow {
                reason: "end cell (n-1, m-1) not admissible".into(),
            });
        }
        Ok(())
    }

    /// Number of rows of the window (length of series `x`).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.lo.len()
    }

    /// Number of columns of the underlying matrix (length of series `y`).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// The inclusive column interval admissible in row `i`.
    #[inline]
    pub fn row_bounds(&self, i: usize) -> (usize, usize) {
        (self.lo[i], self.hi[i])
    }

    /// Whether cell `(i, j)` is admissible.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        i < self.lo.len() && j >= self.lo[i] && j <= self.hi[i]
    }

    /// The widest row of the window, `max_i (hi[i] - lo[i] + 1)` — the
    /// scratch-row length the rolling-row DP kernels allocate.
    ///
    /// Cached at construction; O(1).
    #[inline]
    pub fn max_row_width(&self) -> usize {
        self.max_width
    }

    /// Total number of admissible cells — the work the DP will do.
    ///
    /// This is the quantity the paper's Fig. 1/Fig. 4 comparisons ultimately
    /// trade on: FastDTW's window has `O(N·r)` cells *per level*, while
    /// `cDTW_w`'s band has `O(N·w)` cells once.
    ///
    /// Cached at construction; O(1).
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.n_cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::WarpingPath;

    #[test]
    fn full_window_covers_everything() {
        let w = SearchWindow::full(4, 6);
        assert_eq!(w.n_rows(), 4);
        assert_eq!(w.n_cols(), 6);
        assert_eq!(w.cell_count(), 24);
        assert!(w.validate().is_ok());
        assert!(w.contains(0, 0));
        assert!(w.contains(3, 5));
        assert!(!w.contains(4, 0));
    }

    #[test]
    fn sakoe_chiba_square_band_zero_is_diagonalish() {
        let w = SearchWindow::sakoe_chiba(5, 5, 0);
        assert!(w.validate().is_ok());
        // Radius 0 with the slope allowance admits the diagonal plus
        // immediate neighbors; the diagonal itself must be admissible.
        for i in 0..5 {
            assert!(w.contains(i, i), "diagonal cell ({i},{i}) missing");
        }
    }

    #[test]
    fn sakoe_chiba_band_limits_deviation() {
        let band = 2;
        let n = 20;
        let w = SearchWindow::sakoe_chiba(n, n, band);
        assert!(w.validate().is_ok());
        for i in 0..n {
            let (lo, hi) = w.row_bounds(i);
            // Equal lengths: the band is exactly |i - j| <= band.
            assert!(i as isize - lo as isize <= band as isize);
            assert!(hi as isize - i as isize <= band as isize);
        }
    }

    #[test]
    fn sakoe_chiba_full_band_equals_full_window() {
        let w = SearchWindow::sakoe_chiba(8, 8, 8);
        assert_eq!(w.cell_count(), 64);
    }

    #[test]
    fn sakoe_chiba_handles_rectangular_matrices() {
        for (n, m) in [(5, 13), (13, 5), (1, 9), (9, 1), (2, 3)] {
            let w = SearchWindow::sakoe_chiba(n, m, 0);
            assert!(
                w.validate().is_ok(),
                "invalid band for {n}x{m}: {:?}",
                w.validate()
            );
        }
    }

    #[test]
    fn from_bounds_rejects_empty_row() {
        let r = SearchWindow::from_bounds(5, vec![0, 3], vec![4, 2]);
        assert!(matches!(r, Err(Error::InvalidWindow { .. })));
    }

    #[test]
    fn from_bounds_rejects_gap() {
        // Row 1 starts at column 4 but row 0 ends at column 1: unreachable.
        let r = SearchWindow::from_bounds(6, vec![0, 4], vec![1, 5]);
        assert!(matches!(r, Err(Error::InvalidWindow { .. })));
    }

    #[test]
    fn from_bounds_accepts_staircase() {
        let w = SearchWindow::from_bounds(4, vec![0, 0, 1, 2], vec![1, 2, 3, 3]).unwrap();
        assert_eq!(w.cell_count(), 2 + 3 + 3 + 2);
    }

    #[test]
    fn dilate_grows_symmetrically_and_clips() {
        let w = SearchWindow::from_bounds(5, vec![0, 1, 2, 2], vec![1, 2, 3, 4]).unwrap();
        let d = w.dilate(1);
        // Row 0 picks up row 1's range expanded by 1 column.
        assert_eq!(d.row_bounds(0), (0, 3));
        // Interior rows widen by one column each way plus vertical union.
        assert_eq!(d.row_bounds(1), (0, 4));
        // Every original cell stays admissible.
        for i in 0..4 {
            let (lo, hi) = w.row_bounds(i);
            for j in lo..=hi {
                assert!(d.contains(i, j));
            }
        }
        // A radius near usize::MAX saturates to the full window.
        for radius in [usize::MAX - 1, usize::MAX] {
            let d = w.dilate(radius);
            for i in 0..4 {
                assert_eq!(d.row_bounds(i), (0, 4), "radius {radius} row {i}");
            }
        }
    }

    #[test]
    fn projection_of_diagonal_path_covers_fine_diagonal() {
        // Low-res 4x4 diagonal path projected to 8x8.
        let p = WarpingPath::new(vec![(0, 0), (1, 1), (2, 2), (3, 3)]).unwrap();
        let w = SearchWindow::from_low_res_path(&p, 8, 8, 0);
        assert!(w.validate().is_ok());
        for i in 0..8 {
            assert!(w.contains(i, i), "fine diagonal cell ({i},{i}) missing");
        }
    }

    #[test]
    fn projection_handles_odd_fine_lengths() {
        let p = WarpingPath::new(vec![(0, 0), (1, 1), (2, 2)]).unwrap();
        for (n, m) in [(7, 7), (7, 6), (6, 7), (5, 7)] {
            let w = SearchWindow::from_low_res_path(&p, n, m, 1);
            assert!(w.validate().is_ok(), "{n}x{m}: {:?}", w.validate());
        }
    }

    #[test]
    fn projection_radius_grows_cell_count() {
        let p = WarpingPath::new(vec![(0, 0), (1, 1), (2, 2), (3, 3)]).unwrap();
        let w0 = SearchWindow::from_low_res_path(&p, 8, 8, 0);
        let w2 = SearchWindow::from_low_res_path(&p, 8, 8, 2);
        assert!(w2.cell_count() > w0.cell_count());
        // Radius dilation preserves admissibility of the core cells.
        for i in 0..8 {
            let (lo, hi) = w0.row_bounds(i);
            for j in lo..=hi {
                assert!(w2.contains(i, j));
            }
        }
    }

    #[test]
    fn itakura_is_valid_and_pinches_at_corners() {
        let w = SearchWindow::itakura(40, 40, 2.0).unwrap();
        assert!(w.validate().is_ok());
        // Middle row is wide, corner rows are narrow.
        let (lo_mid, hi_mid) = w.row_bounds(20);
        let (lo_edge, hi_edge) = w.row_bounds(2);
        assert!(hi_mid - lo_mid > hi_edge - lo_edge);
        // Diagonal always admissible.
        for i in 0..40 {
            assert!(w.contains(i, i), "diagonal cell {i}");
        }
        // Strictly smaller than the full matrix.
        assert!(w.cell_count() < 40 * 40);
    }

    #[test]
    fn itakura_rejects_bad_slopes() {
        assert!(SearchWindow::itakura(10, 10, 1.0).is_err());
        assert!(SearchWindow::itakura(10, 10, 0.5).is_err());
        assert!(SearchWindow::itakura(10, 10, f64::NAN).is_err());
    }

    #[test]
    fn itakura_handles_rectangles_and_tiny_inputs() {
        for (n, m) in [(1usize, 1usize), (1, 8), (8, 1), (5, 9), (9, 5)] {
            let w = SearchWindow::itakura(n, m, 2.0).unwrap();
            assert!(w.validate().is_ok(), "{n}x{m}: {:?}", w.validate());
        }
    }

    #[test]
    fn cached_aggregates_match_recomputation() {
        let p = WarpingPath::new(vec![(0, 0), (1, 1), (2, 1), (3, 2)]).unwrap();
        let windows = vec![
            SearchWindow::full(4, 6),
            SearchWindow::sakoe_chiba(9, 5, 2),
            SearchWindow::sakoe_chiba(5, 13, 0),
            SearchWindow::itakura(12, 17, 2.0).unwrap(),
            SearchWindow::from_bounds(4, vec![0, 0, 1, 2], vec![1, 2, 3, 3]).unwrap(),
            SearchWindow::from_low_res_path(&p, 8, 5, 1),
            SearchWindow::sakoe_chiba(9, 9, 1).dilate(2),
        ];
        for w in windows {
            let mut max_width = 0;
            let mut cells = 0;
            for i in 0..w.n_rows() {
                let (lo, hi) = w.row_bounds(i);
                max_width = max_width.max(hi - lo + 1);
                cells += hi - lo + 1;
            }
            assert_eq!(w.max_row_width(), max_width, "{w:?}");
            assert_eq!(w.cell_count(), cells, "{w:?}");
        }
    }

    #[test]
    fn cell_count_of_band_is_much_less_than_full() {
        let band = SearchWindow::sakoe_chiba(100, 100, 5);
        let full = SearchWindow::full(100, 100);
        assert!(band.cell_count() < full.cell_count() / 4);
    }
}
