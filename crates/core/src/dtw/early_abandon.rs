//! Early-abandoning constrained DTW.
//!
//! When DTW is evaluated repeatedly against a best-so-far threshold (nearest
//! neighbor search, 1-NN classification), the DP can stop as soon as *every*
//! cell of the current row already exceeds the threshold: accumulated costs
//! only grow, so no completion of the alignment can beat the incumbent.
//!
//! Combined with the cascading lower bounds of
//! [`lower_bounds`](crate::lower_bounds), this is the machinery the paper
//! credits (citing Rakthanmanon et al., KDD 2012) with accelerating exact
//! `cDTW` by "a further two to five orders of magnitude" over the plain
//! head-to-head comparisons of its figures — and it is only available to the
//! *exact* algorithm, not to FastDTW.
//!
//! The kernel optionally consumes a *cumulative bound* array `cb`, where
//! `cb[k]` lower-bounds the cost that the **candidate suffix** `y[k..]`
//! must still pay under any banded alignment (LB_Keogh's per-column
//! excursions, suffix-summed). After filling row `i`, every column beyond
//! the band limit `i + band` is still unvisited, so the abandon test is
//! `min(row i) + cb[i + band + 1] > threshold` — exactly the UCR-suite
//! formulation. (Using a tighter index would double-count columns already
//! paid inside the band and abandon unsoundly.) The caller obtains `cb`
//! from [`lb_keogh_with_contrib`](crate::lower_bounds::keogh) +
//! [`suffix_sums`](crate::lower_bounds::keogh).

use crate::cost::CostFn;
use crate::error::{check_finite, check_nonempty, Error, Result};
use crate::window::SearchWindow;
use tsdtw_obs::{Meter, NoMeter};

use super::banded::check_band;
use super::kernel::Kernel;
use super::sweep;
use super::windowed::DtwBuffer;

/// Outcome of an early-abandoning DTW evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EaOutcome {
    /// The computation ran to completion; the exact distance is attached
    /// (it may still exceed the threshold — the caller decides).
    Exact(f64),
    /// The computation proved, after filling `rows_filled` rows, that the
    /// distance must exceed the threshold, and stopped.
    Abandoned {
        /// Number of DP rows filled before the proof fired.
        rows_filled: usize,
    },
}

impl EaOutcome {
    /// The exact distance, if the computation completed.
    pub fn distance(self) -> Option<f64> {
        match self {
            EaOutcome::Exact(d) => Some(d),
            EaOutcome::Abandoned { .. } => None,
        }
    }
}

/// `cDTW_band` between `x` and `y`, abandoning as soon as the result is
/// provably greater than `threshold`.
///
/// `threshold` and the optional cumulative bound `cb` are in the
/// *accumulated cost* domain (i.e. pre-[`CostFn::finish`]); with the default
/// [`SquaredCost`](crate::cost::SquaredCost) that is the squared-distance
/// domain, matching UCR-suite practice. If `cb` is provided it must have
/// length `x.len()` and satisfy the suffix lower-bound property.
pub fn cdtw_distance_ea<C: CostFn>(
    x: &[f64],
    y: &[f64],
    band: usize,
    threshold: f64,
    cb: Option<&[f64]>,
    cost: C,
) -> Result<EaOutcome> {
    cdtw_distance_ea_metered(x, y, band, threshold, cb, cost, &mut NoMeter)
}

/// [`cdtw_distance_ea`] with work accounting: the meter receives the
/// full band area as window cells, the cells actually filled before any
/// abandonment as evaluated cells (this is where the two counters
/// diverge), and the rows filled vs total via
/// [`Meter::ea_rows`].
pub fn cdtw_distance_ea_metered<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    band: usize,
    threshold: f64,
    cb: Option<&[f64]>,
    cost: C,
    meter: &mut M,
) -> Result<EaOutcome> {
    let mut buf = DtwBuffer::new();
    cdtw_distance_ea_metered_buf_kernel(
        x,
        y,
        band,
        threshold,
        cb,
        cost,
        &mut buf,
        meter,
        Kernel::Auto,
    )
}

/// [`cdtw_distance_ea_metered`] reusing caller-provided scratch:
/// the DP rows *and* the memoized band window both live in `buf`, so a
/// warmed scan loop over a fixed `(n, m, band)` shape (the UCR
/// subsequence search) evaluates candidates without touching the heap —
/// the contract `tests/alloc_discipline.rs` gates. Counters are
/// identical to the unbuffered form.
///
/// Early abandoning has one route, the row sweep, so `_kernel` changes
/// nothing; it is taken so scan loops pass the same [`Kernel`] they pass
/// the distance entry points.
#[allow(clippy::too_many_arguments)]
pub fn cdtw_distance_ea_metered_buf_kernel<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    band: usize,
    threshold: f64,
    cb: Option<&[f64]>,
    cost: C,
    buf: &mut DtwBuffer,
    meter: &mut M,
    _kernel: Kernel,
) -> Result<EaOutcome> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    check_finite("x", x)?;
    check_finite("y", y)?;
    check_band(x.len(), y.len(), band)?;
    if let Some(cb) = cb {
        if cb.len() != y.len() {
            return Err(Error::InvalidParameter {
                name: "cb",
                reason: format!(
                    "cumulative bound has {} entries for a candidate of {} columns",
                    cb.len(),
                    y.len()
                ),
            });
        }
    }
    let _span = tsdtw_obs::span("dtw_ea");
    let window = buf.take_sakoe_chiba(x.len(), y.len(), band);
    let r = ea_core(x, y, band, threshold, cb, cost, &window, buf, meter);
    buf.cache_window(band, window);
    r
}

/// The abandon-or-complete DP sweep over a prepared window. `buf` holds
/// only the two scratch rows here (the window was taken out of it).
#[allow(clippy::too_many_arguments)]
fn ea_core<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    band: usize,
    threshold: f64,
    cb: Option<&[f64]>,
    cost: C,
    window: &SearchWindow,
    buf: &mut DtwBuffer,
    meter: &mut M,
) -> Result<EaOutcome> {
    let n = x.len();
    let band_area = window.cell_count() as u64;
    let width = window.max_row_width();
    buf.reset_rows(width);
    meter.window_cells(band_area);
    meter.dp_buffer_bytes(2 * width as u64 * std::mem::size_of::<f64>() as u64);

    let (lo0, hi0) = window.row_bounds(0);
    let x0 = x[0];
    let mut acc = 0.0;
    let mut row_min = f64::INFINITY;
    for (k, j) in (lo0..=hi0).enumerate() {
        acc += cost.cost(x0, y[j]);
        buf.prev[k] = acc;
        row_min = sweep::cell_min(row_min, acc);
    }
    meter.cells((hi0 - lo0 + 1) as u64);
    let suffix_bound = |cb: Option<&[f64]>, row: usize| {
        cb.map_or(0.0, |cb| {
            let k = row + band + 1;
            if k < cb.len() {
                cb[k]
            } else {
                0.0
            }
        })
    };
    if row_min + suffix_bound(cb, 0) > threshold {
        meter.ea_rows(1, n as u64);
        return Ok(EaOutcome::Abandoned { rows_filled: 1 });
    }
    let mut plo = lo0;
    let mut phi = hi0;

    for (i, &xi) in x.iter().enumerate().skip(1) {
        let (lo, hi) = window.row_bounds(i);
        meter.cells((hi - lo + 1) as u64);
        row_min = sweep::min_row(xi, y, lo, hi, plo, phi, &buf.prev, &mut buf.cur, cost);
        if row_min + suffix_bound(cb, i) > threshold {
            meter.ea_rows((i + 1) as u64, n as u64);
            return Ok(EaOutcome::Abandoned { rows_filled: i + 1 });
        }
        std::mem::swap(&mut buf.prev, &mut buf.cur);
        plo = lo;
        phi = hi;
    }

    meter.ea_rows(n as u64, n as u64);
    let (lo_last, _) = window.row_bounds(n - 1);
    Ok(EaOutcome::Exact(
        cost.finish(buf.prev[y.len() - 1 - lo_last]),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SquaredCost;
    use crate::dtw::banded::cdtw_distance;

    fn rand_series(seed: u64, n: usize) -> Vec<f64> {
        // Tiny deterministic LCG so tests do not need a rand dependency here.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn infinite_threshold_reproduces_exact_distance() {
        let x = rand_series(1, 50);
        let y = rand_series(2, 50);
        for band in [0, 3, 10, 50] {
            let exact = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
            let ea = cdtw_distance_ea(&x, &y, band, f64::INFINITY, None, SquaredCost).unwrap();
            assert_eq!(ea.distance(), Some(exact));
        }
    }

    #[test]
    fn tiny_threshold_abandons_early() {
        let x = rand_series(3, 200);
        let y: Vec<f64> = rand_series(4, 200).iter().map(|v| v + 10.0).collect();
        let ea = cdtw_distance_ea(&x, &y, 10, 1.0, None, SquaredCost).unwrap();
        match ea {
            EaOutcome::Abandoned { rows_filled } => {
                assert!(
                    rows_filled < 10,
                    "should abandon almost immediately, took {rows_filled} rows"
                );
            }
            EaOutcome::Exact(d) => panic!("expected abandonment, got exact {d}"),
        }
    }

    #[test]
    fn threshold_just_above_distance_completes() {
        let x = rand_series(5, 80);
        let y = rand_series(6, 80);
        let exact = cdtw_distance(&x, &y, 8, SquaredCost).unwrap();
        let ea = cdtw_distance_ea(&x, &y, 8, exact * 1.001, None, SquaredCost).unwrap();
        assert_eq!(ea.distance(), Some(exact));
    }

    #[test]
    fn abandonment_is_sound() {
        // Whenever the kernel abandons, the true distance really does exceed
        // the threshold.
        for seed in 0..20 {
            let x = rand_series(seed, 60);
            let y = rand_series(seed + 100, 60);
            let exact = cdtw_distance(&x, &y, 6, SquaredCost).unwrap();
            let threshold = exact * 0.5;
            match cdtw_distance_ea(&x, &y, 6, threshold, None, SquaredCost).unwrap() {
                EaOutcome::Abandoned { .. } => assert!(exact > threshold),
                EaOutcome::Exact(d) => assert!((d - exact).abs() < 1e-12),
            }
        }
    }

    #[test]
    fn cumulative_bound_accelerates_abandonment() {
        let x = rand_series(7, 300);
        let y: Vec<f64> = rand_series(8, 300).iter().map(|v| v + 2.0).collect();
        let exact = cdtw_distance(&x, &y, 15, SquaredCost).unwrap();
        let threshold = exact * 0.25;
        // A legitimate (if crude) suffix bound: each remaining row costs at
        // least 0. A stronger synthetic bound for the test: each row of the
        // shifted series contributes at least 1.0.
        let cb: Vec<f64> = (0..x.len()).rev().map(|k| k as f64 * 1.0).collect();
        let no_cb = cdtw_distance_ea(&x, &y, 15, threshold, None, SquaredCost).unwrap();
        let with_cb = cdtw_distance_ea(&x, &y, 15, threshold, Some(&cb), SquaredCost).unwrap();
        let rows = |o: EaOutcome| match o {
            EaOutcome::Abandoned { rows_filled } => rows_filled,
            EaOutcome::Exact(_) => usize::MAX,
        };
        assert!(rows(with_cb) <= rows(no_cb));
    }

    #[test]
    fn real_lb_keogh_cb_is_sound() {
        // Regression test for the cb indexing bug: with the genuine
        // LB_Keogh cumulative bound, abandonment must never fire when the
        // true distance is within the threshold.
        use crate::envelope::Envelope;
        use crate::lower_bounds::keogh::{lb_keogh_with_contrib, suffix_sums};
        for seed in 0..40 {
            let x = rand_series(seed, 70);
            let y = rand_series(seed + 1000, 70);
            let band = 4;
            let env = Envelope::new(&x, band).unwrap();
            let mut contrib = Vec::new();
            lb_keogh_with_contrib(&y, &env, &mut contrib).unwrap();
            let cb = suffix_sums(&contrib);
            let exact = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
            // Threshold exactly at the true distance: must NOT abandon.
            let out =
                cdtw_distance_ea(&x, &y, band, exact + 1e-12, Some(&cb), SquaredCost).unwrap();
            assert_eq!(out.distance(), Some(exact), "seed {seed}");
            // Threshold below: abandoning is allowed, completing must
            // still return the exact value.
            match cdtw_distance_ea(&x, &y, band, exact * 0.9, Some(&cb), SquaredCost).unwrap() {
                EaOutcome::Exact(d) => assert!((d - exact).abs() < 1e-12),
                EaOutcome::Abandoned { .. } => assert!(exact > exact * 0.9),
            }
        }
    }

    #[test]
    fn metered_ea_counts_fewer_cells_when_abandoning() {
        use tsdtw_obs::WorkMeter;
        let x = rand_series(3, 200);
        let y: Vec<f64> = rand_series(4, 200).iter().map(|v| v + 10.0).collect();

        let mut full = WorkMeter::new();
        let out = cdtw_distance_ea_metered(&x, &y, 10, f64::INFINITY, None, SquaredCost, &mut full)
            .unwrap();
        assert!(out.distance().is_some());
        assert_eq!(
            full.cells, full.window_cells,
            "no abandon: whole band filled"
        );
        assert_eq!(full.ea_rows_filled, 200);
        assert_eq!(full.ea_rows_total, 200);

        let mut cut = WorkMeter::new();
        let out = cdtw_distance_ea_metered(&x, &y, 10, 1.0, None, SquaredCost, &mut cut).unwrap();
        assert!(matches!(out, EaOutcome::Abandoned { .. }));
        assert!(cut.cells < cut.window_cells, "abandon leaves band unfilled");
        assert!(cut.ea_rows_filled < cut.ea_rows_total);
        assert_eq!(cut.window_cells, full.window_cells);
    }

    #[test]
    fn rejects_bad_cb_length() {
        let x = [0.0, 1.0, 2.0];
        let y = [0.0, 1.0, 2.0];
        let cb = [0.0; 2];
        assert!(cdtw_distance_ea(&x, &y, 1, 10.0, Some(&cb), SquaredCost).is_err());
    }
}
