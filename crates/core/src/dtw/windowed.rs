//! DTW restricted to an arbitrary [`SearchWindow`].
//!
//! This is the workhorse kernel of the crate: full DTW is the full window,
//! `cDTW_w` is the Sakoe–Chiba band window, and FastDTW's per-level
//! refinement is the projected-path window. Keeping one kernel guarantees
//! the paper's "same task, same code" comparison discipline — the exact and
//! approximate algorithms literally share their inner loop.
//!
//! The distance-only variant uses rolling two-row storage (`O(max row
//! width)` memory), or — on windows at least
//! [`WAVEFRONT_MIN_WIDTH`](super::kernel::WAVEFRONT_MIN_WIDTH) cells wide —
//! three rolling anti-diagonals of the same order plus a reversed `y`
//! (the private `wavefront` module); the path variant additionally
//! records one traceback byte per admissible cell.
//!
//! Both kernels exist in `*_metered` form, generic over
//! [`Meter`]: the meter records evaluated cells,
//! admissible window cells, and peak scratch bytes. The plain entry
//! points delegate with [`NoMeter`], whose inlined
//! empty methods leave the un-instrumented code unchanged (the
//! `meter_ablation` bench group in `tsdtw-bench` guards this).
//!
//! Rows are filled by the row sweep in the private `sweep` module. The
//! distance `*_kernel` variants take an explicit [`Kernel`] route, the
//! plain forms pass [`Kernel::Auto`]. Routes are bitwise-equal, so which
//! one runs is observable only in wall-clock time.

// The DP kernels below index both series and both rolling rows by the
// column variable `j`; iterator-chain rewrites obscure the recurrence.
#![allow(clippy::needless_range_loop)]

use crate::cost::CostFn;
use crate::error::{check_finite, check_nonempty, Error, Result};
use crate::matrix::WindowedDirections;
use crate::path::{Direction, WarpingPath};
use crate::window::SearchWindow;
use tsdtw_obs::{Meter, NoMeter};

use super::kernel::Kernel;
use super::sweep;

/// Validates the series pair against the window dimensions.
fn check_inputs(x: &[f64], y: &[f64], window: &SearchWindow) -> Result<()> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    check_finite("x", x)?;
    check_finite("y", y)?;
    if window.n_rows() != x.len() || window.n_cols() != y.len() {
        return Err(Error::InvalidWindow {
            reason: format!(
                "window is {}x{} but series are {}x{}",
                window.n_rows(),
                window.n_cols(),
                x.len(),
                y.len()
            ),
        });
    }
    window.validate()
}

/// Reusable scratch buffers for the rolling-row DP.
///
/// Allocation-free repeated calls matter in the all-pairs and 1-NN
/// workloads (hundreds of thousands of DTW invocations); create one buffer
/// per worker thread and pass it to [`windowed_distance_with_buf`].
///
/// Besides the two DP rows the buffer memoizes the last Sakoe–Chiba
/// [`SearchWindow`] built through it, so the band entry points
/// ([`cdtw_distance_metered_with_buf`](super::banded::cdtw_distance_metered_with_buf)
/// and the early-abandoning variants) stop allocating entirely once
/// warmed on a fixed `(n, m, band)` shape — the contract
/// `tests/alloc_discipline.rs` enforces with the counting allocator.
#[derive(Debug, Default, Clone)]
pub struct DtwBuffer {
    pub(crate) prev: Vec<f64>,
    pub(crate) cur: Vec<f64>,
    /// Wavefront rolling diagonals (`d-2`, `d-1`, `d`), length
    /// `max_row_width + 2`; empty unless a call has run in wavefront
    /// order through this buffer (`Kernel::wavefront`). See
    /// [`super::wavefront`].
    pub(crate) wf_prev2: Vec<f64>,
    pub(crate) wf_prev: Vec<f64>,
    pub(crate) wf_cur: Vec<f64>,
    /// Reversed copy of `y` so the wavefront cell loop reads all its
    /// streams with a forward stride.
    pub(crate) yrev: Vec<f64>,
    /// `(band, window)` of the last band built through this buffer.
    cached_window: Option<(usize, SearchWindow)>,
}

impl DtwBuffer {
    /// Creates an empty buffer; rows are grown on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of scratch currently reserved by the DP rows (plus the
    /// wavefront's diagonal buffers, if a call has run in that order). After a
    /// warm-up call this bounds the steady-state working set of every
    /// subsequent same-shape call (the `alloc_discipline` suite checks
    /// it against allocator-observed traffic).
    pub fn capacity_bytes(&self) -> usize {
        (self.prev.capacity()
            + self.cur.capacity()
            + self.wf_prev2.capacity()
            + self.wf_prev.capacity()
            + self.wf_cur.capacity()
            + self.yrev.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Takes a Sakoe–Chiba window for an `n × m` matrix with the given
    /// band radius out of the buffer, reusing the memoized one when the
    /// shape matches (no allocation) and building it fresh otherwise.
    /// Return it with [`cache_window`](Self::cache_window) after use.
    pub fn take_sakoe_chiba(&mut self, n: usize, m: usize, band: usize) -> SearchWindow {
        match self.cached_window.take() {
            Some((b, w)) if b == band && w.n_rows() == n && w.n_cols() == m => w,
            _ => SearchWindow::sakoe_chiba(n, m, band),
        }
    }

    /// Memoizes `window` (built with band radius `band`) for the next
    /// [`take_sakoe_chiba`](Self::take_sakoe_chiba) of the same shape.
    pub fn cache_window(&mut self, band: usize, window: SearchWindow) {
        self.cached_window = Some((band, window));
    }

    /// Clears both DP rows and sizes them to exactly `width` slots of
    /// `+∞` — allocation-free once capacity has grown past `width`.
    pub(crate) fn reset_rows(&mut self, width: usize) {
        self.prev.clear();
        self.prev.resize(width, f64::INFINITY);
        self.cur.clear();
        self.cur.resize(width, f64::INFINITY);
    }
}

/// DTW distance over `window`, allocating its own scratch space.
pub fn windowed_distance<C: CostFn>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
) -> Result<f64> {
    let mut buf = DtwBuffer::new();
    windowed_distance_with_buf(x, y, window, cost, &mut buf)
}

/// [`windowed_distance`] with an explicit kernel route.
pub fn windowed_distance_kernel<C: CostFn>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
    kernel: Kernel,
) -> Result<f64> {
    let mut buf = DtwBuffer::new();
    windowed_distance_metered_kernel(x, y, window, cost, &mut buf, &mut NoMeter, kernel)
}

/// DTW distance over `window`, reusing caller-provided scratch space.
pub fn windowed_distance_with_buf<C: CostFn>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
    buf: &mut DtwBuffer,
) -> Result<f64> {
    windowed_distance_metered(x, y, window, cost, buf, &mut NoMeter)
}

/// [`windowed_distance_with_buf`] with work accounting: evaluated cells,
/// admissible window cells, and peak scratch bytes are recorded on
/// `meter`. (For this kernel evaluated equals admissible — every
/// in-window cell is filled; the early-abandoning kernel is where the
/// two diverge.)
pub fn windowed_distance_metered<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
    buf: &mut DtwBuffer,
    meter: &mut M,
) -> Result<f64> {
    windowed_distance_metered_kernel(x, y, window, cost, buf, meter, Kernel::Auto)
}

/// [`windowed_distance_metered`] with an explicit kernel route. All meter
/// counters are recorded from the window bounds alone, so they are
/// identical on every route.
pub fn windowed_distance_metered_kernel<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
    buf: &mut DtwBuffer,
    meter: &mut M,
    kernel: Kernel,
) -> Result<f64> {
    check_inputs(x, y, window)?;
    let _span = tsdtw_obs::span("dtw_windowed");
    let width = window.max_row_width();
    if kernel.wavefront(width) {
        // Anti-diagonal evaluation; bitwise-equal and meter-identical to
        // the row sweep below (module docs carry the proof). `Auto` routes
        // here once the window is wide enough for the lanes to win.
        return super::wavefront::wavefront_distance(x, y, window, cost, buf, meter);
    }
    let n = x.len();

    buf.reset_rows(width);
    meter.dp_buffer_bytes(2 * width as u64 * std::mem::size_of::<f64>() as u64);

    // Row 0: plain prefix sums along the admissible interval (lo must be 0).
    let (lo0, hi0) = window.row_bounds(0);
    debug_assert_eq!(lo0, 0);
    let x0 = x[0];
    let mut acc = 0.0;
    for (k, j) in (lo0..=hi0).enumerate() {
        acc += cost.cost(x0, y[j]);
        buf.prev[k] = acc;
    }
    meter.window_cells((hi0 - lo0 + 1) as u64);
    meter.cells((hi0 - lo0 + 1) as u64);
    let mut plo = lo0;
    let mut phi = hi0;

    for (i, &xi) in x.iter().enumerate().skip(1) {
        let (lo, hi) = window.row_bounds(i);
        meter.window_cells((hi - lo + 1) as u64);
        meter.cells((hi - lo + 1) as u64);
        sweep::distance_row(xi, y, lo, hi, plo, phi, &buf.prev, &mut buf.cur, cost);
        std::mem::swap(&mut buf.prev, &mut buf.cur);
        plo = lo;
        phi = hi;
    }

    let (lo_last, hi_last) = window.row_bounds(n - 1);
    debug_assert_eq!(hi_last, y.len() - 1);
    Ok(cost.finish(buf.prev[hi_last - lo_last]))
}

/// DTW distance *and* optimal warping path over `window`.
///
/// Records one direction byte per admissible cell (ties broken in favour of
/// the diagonal, then the vertical step, matching the classic presentation)
/// and walks it back from `(n-1, m-1)`.
pub fn windowed_with_path<C: CostFn>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
) -> Result<(f64, WarpingPath)> {
    windowed_with_path_metered(x, y, window, cost, &mut NoMeter)
}

/// [`windowed_with_path`] with work accounting. The peak-buffer figure
/// includes the traceback byte per admissible cell on top of the two
/// rolling rows. Path recovery always runs the row sweep.
pub fn windowed_with_path_metered<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
    meter: &mut M,
) -> Result<(f64, WarpingPath)> {
    check_inputs(x, y, window)?;
    let _span = tsdtw_obs::span("dtw_windowed");
    let n = x.len();
    let m = y.len();

    let mut dirs = WindowedDirections::for_window(window);
    let mut buf = DtwBuffer::new();
    let total_cells = window.cell_count() as u64;
    let width = window.max_row_width();
    buf.prev.resize(width, f64::INFINITY);
    buf.cur.resize(width, f64::INFINITY);
    meter.window_cells(total_cells);
    meter.cells(total_cells);
    meter.dp_buffer_bytes(2 * width as u64 * std::mem::size_of::<f64>() as u64 + total_cells);

    let (lo0, hi0) = window.row_bounds(0);
    let x0 = x[0];
    let mut acc = 0.0;
    for (k, j) in (lo0..=hi0).enumerate() {
        acc += cost.cost(x0, y[j]);
        buf.prev[k] = acc;
        dirs.set(
            0,
            j,
            if j == 0 {
                Direction::Diagonal
            } else {
                Direction::Left
            },
        );
    }
    let mut plo = lo0;
    let mut phi = hi0;

    for (i, &xi) in x.iter().enumerate().skip(1) {
        let (lo, hi) = window.row_bounds(i);
        sweep::path_row(
            xi,
            y,
            lo,
            hi,
            plo,
            phi,
            &buf.prev,
            &mut buf.cur,
            dirs.row_mut(i),
            cost,
        );
        std::mem::swap(&mut buf.prev, &mut buf.cur);
        plo = lo;
        phi = hi;
    }

    let (lo_last, _) = window.row_bounds(n - 1);
    let dist = cost.finish(buf.prev[m - 1 - lo_last]);
    let cells = dirs.traceback((n - 1, m - 1));
    let path = WarpingPath::new(cells).expect("DP traceback produces valid paths");
    Ok((dist, path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AbsoluteCost, SquaredCost};

    /// Textbook O(n·m) reference DP, kept deliberately naive.
    fn reference_dtw(x: &[f64], y: &[f64]) -> f64 {
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
        d[n][m]
    }

    #[test]
    fn matches_reference_on_small_examples() {
        let cases: &[(&[f64], &[f64])] = &[
            (&[0.0], &[0.0]),
            (&[0.0], &[5.0]),
            (&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]),
            (&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]),
            (
                &[0.0, 1.0, 2.0, 3.0, 2.0, 1.0],
                &[0.0, 0.0, 1.0, 2.0, 3.0, 2.0],
            ),
            (&[1.0, 1.0, 1.0, 10.0], &[1.0, 10.0]),
        ];
        for (x, y) in cases {
            let w = SearchWindow::full(x.len(), y.len());
            let got = windowed_distance(x, y, &w, SquaredCost).unwrap();
            let want = reference_dtw(x, y);
            assert!(
                (got - want).abs() < 1e-12,
                "x={x:?} y={y:?}: got {got}, want {want}"
            );
        }
    }

    #[test]
    fn identical_series_have_zero_distance() {
        let x = [0.5, 1.5, -2.0, 3.25, 0.0];
        let w = SearchWindow::full(5, 5);
        assert_eq!(windowed_distance(&x, &x, &w, SquaredCost).unwrap(), 0.0);
    }

    #[test]
    fn rejects_empty_series() {
        let w = SearchWindow::full(1, 1);
        assert!(windowed_distance(&[], &[0.0], &w, SquaredCost).is_err());
        assert!(windowed_distance(&[0.0], &[], &w, SquaredCost).is_err());
    }

    #[test]
    fn rejects_nan_input() {
        let w = SearchWindow::full(2, 2);
        assert!(windowed_distance(&[0.0, f64::NAN], &[0.0, 1.0], &w, SquaredCost).is_err());
    }

    #[test]
    fn rejects_mismatched_window() {
        let w = SearchWindow::full(3, 3);
        let r = windowed_distance(&[0.0, 1.0], &[0.0, 1.0, 2.0], &w, SquaredCost);
        assert!(matches!(r, Err(Error::InvalidWindow { .. })));
    }

    #[test]
    fn path_variant_agrees_with_distance_variant() {
        let x = [0.0, 1.0, 3.0, 2.0, 0.0, -1.0];
        let y = [0.0, 0.5, 1.0, 3.5, 2.0, 0.0];
        let w = SearchWindow::full(x.len(), y.len());
        let d = windowed_distance(&x, &y, &w, SquaredCost).unwrap();
        let (dp, path) = windowed_with_path(&x, &y, &w, SquaredCost).unwrap();
        assert!((d - dp).abs() < 1e-12);
        assert!(path.validate_for(x.len(), y.len()).is_ok());
        // The path's replayed cost must equal the reported distance.
        let replay = path.replay_cost(&x, &y, SquaredCost).unwrap();
        assert!((replay - d).abs() < 1e-12);
    }

    #[test]
    fn narrow_window_never_beats_full_window() {
        let x = [0.0, 2.0, 4.0, 1.0, 0.0, 3.0, 5.0, 2.0];
        let y = [1.0, 0.0, 2.0, 4.0, 1.0, 0.0, 3.0, 5.0];
        let full = SearchWindow::full(8, 8);
        let d_full = windowed_distance(&x, &y, &full, SquaredCost).unwrap();
        for band in 0..8 {
            let w = SearchWindow::sakoe_chiba(8, 8, band);
            let d = windowed_distance(&x, &y, &w, SquaredCost).unwrap();
            assert!(d >= d_full - 1e-12, "band {band}: {d} < full {d_full}");
        }
    }

    #[test]
    fn absolute_cost_supported() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 2.0, 2.0];
        let w = SearchWindow::full(3, 3);
        // Optimal: (0,0)=0, then warp 1 against 2 region: |1-2| = 1 best case.
        let d = windowed_distance(&x, &y, &w, AbsoluteCost).unwrap();
        assert_eq!(d, 1.0);
    }

    #[test]
    fn buffer_reuse_gives_identical_results() {
        let x = [0.0, 1.0, 2.0, 1.5];
        let y = [0.5, 1.0, 2.5, 1.0];
        let w = SearchWindow::full(4, 4);
        let mut buf = DtwBuffer::new();
        let a = windowed_distance_with_buf(&x, &y, &w, SquaredCost, &mut buf).unwrap();
        let b = windowed_distance_with_buf(&x, &y, &w, SquaredCost, &mut buf).unwrap();
        let c = windowed_distance(&x, &y, &w, SquaredCost).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn meter_counts_exact_window_area() {
        use tsdtw_obs::WorkMeter;
        let x = [0.0, 1.0, 2.0, 1.5, 0.5];
        let y = [0.5, 1.0, 2.5, 1.0, 0.0];
        let w = SearchWindow::sakoe_chiba(5, 5, 1);
        let mut buf = DtwBuffer::new();
        let mut meter = WorkMeter::new();
        let d = windowed_distance_metered(&x, &y, &w, SquaredCost, &mut buf, &mut meter).unwrap();
        assert_eq!(d, windowed_distance(&x, &y, &w, SquaredCost).unwrap());
        assert_eq!(meter.window_cells, w.cell_count() as u64);
        assert_eq!(meter.cells, meter.window_cells);
        assert!(meter.dp_peak_bytes > 0);

        let mut pmeter = WorkMeter::new();
        let (dp, _) = windowed_with_path_metered(&x, &y, &w, SquaredCost, &mut pmeter).unwrap();
        assert_eq!(dp, d);
        assert_eq!(pmeter.cells, w.cell_count() as u64);
    }

    #[test]
    fn rectangular_series_supported() {
        let x = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [0.0, 2.5, 5.0];
        let w = SearchWindow::full(6, 3);
        let (d, path) = windowed_with_path(&x, &y, &w, SquaredCost).unwrap();
        assert!(d.is_finite());
        assert!(path.validate_for(6, 3).is_ok());
    }
}
