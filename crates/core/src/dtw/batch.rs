//! Query-batched banded DTW: one query against up to [`LANES`]
//! same-length candidates in struct-of-lanes layout.
//!
//! The mining scans (1-NN / k-NN brute force, LOOCV, the all-pairs
//! matrix) all have the same shape: one series compared against many
//! independent candidates. The scalar kernel is latency-bound — every
//! interior cell waits on the three-way min of the cell to its left —
//! so its throughput is capped by the dependence chain, not by ALU
//! width. Running [`LANES`] *independent* DPs in lockstep breaks that
//! cap: each lane carries its own chain, the per-cell loop over lanes
//! has no cross-lane dependency, and the compiler autovectorizes the
//! `[f64; LANES]` arithmetic (no unstable features).
//!
//! **Row split.** Each row is split against the previous one exactly as
//! the scalar row sweep (`sweep::distance_row`, DESIGN.md §11) splits
//! it, at `seg_lo = max(lo, plo + 1)` and `seg_hi = min(hi, phi)`. The
//! prefix `[lo, seg_lo)` and the suffix `(seg_hi, hi]` run the guarded
//! rule once per column for all lanes; the interior `[seg_lo, seg_hi]`,
//! where `up` and `diag` are admissible by construction, reads four
//! slices taken once per row and carries `left` in registers, with no
//! per-column guard. Degenerate rows (`seg_lo > seg_hi`) run the
//! guarded rule over the whole row, out of line.
//!
//! **Bitwise equality.** Lane `l` executes exactly the scalar banded
//! recurrence of `(x, ys[l])`: the same Sakoe–Chiba window (shared —
//! all candidates have equal length), the same guarded `+∞`
//! substitutions, the same `cost + neighbor_min(diag, up, left)`
//! expression, and the same row-0 prefix sum. Every minimum is the
//! crate-private `sweep::cell_min`, whose doc shows it returns
//! `f64::min`'s bits on this domain. Interleaving independent scalar
//! computations does not change any of their intermediate values, so
//! every lane's distance is bitwise equal to
//! [`cdtw_distance`](super::banded::cdtw_distance) on that pair —
//! `tests/kernel_equivalence.rs` locks this per lane.
//!
//! **Metering.** Counters are recorded *per active lane* with the same
//! values the scalar entry points fold (window area, filled cells,
//! two-logical-rows scratch), so a batched scan's `WorkMeter` equals
//! the scalar scan's except for the two `batch.*` counters
//! ([`Meter::batch_group`]) that exist only on this path. Padding
//! lanes (when fewer than [`LANES`] candidates remain) replicate lane 0
//! and are never metered or reported.

use std::ops::Range;

use crate::cost::CostFn;
use crate::error::{check_finite, check_nonempty, Error, Result};
use crate::window::SearchWindow;
use tsdtw_obs::{Meter, NoMeter};

use super::banded::check_band;
use super::sweep::neighbor_min;

/// Number of candidate lanes per batched call. Eight f64 lanes match
/// the widest vector unit this crate targets and keep the struct-of-
/// lanes rows cache-resident for the band widths the experiments use.
pub const LANES: usize = 8;

/// Reusable scratch for the batched kernel: two struct-of-lanes DP
/// rows, the lane-transposed candidate block, and the memoized band
/// window (same contract as
/// [`DtwBuffer`](super::windowed::DtwBuffer) — a warmed fixed-shape
/// scan loop runs allocation-free).
#[derive(Debug, Default, Clone)]
pub struct BatchBuffer {
    prev: Vec<[f64; LANES]>,
    cur: Vec<[f64; LANES]>,
    /// `yt[j][l]` = candidate `l`'s column `j`.
    yt: Vec<[f64; LANES]>,
    cached_window: Option<(usize, SearchWindow)>,
}

impl BatchBuffer {
    /// Creates an empty buffer; scratch grows on demand.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes of scratch currently reserved.
    pub fn capacity_bytes(&self) -> usize {
        (self.prev.capacity() + self.cur.capacity() + self.yt.capacity())
            * std::mem::size_of::<[f64; LANES]>()
    }

    fn take_window(&mut self, n: usize, m: usize, band: usize) -> SearchWindow {
        match self.cached_window.take() {
            Some((b, w)) if b == band && w.n_rows() == n && w.n_cols() == m => w,
            _ => SearchWindow::sakoe_chiba(n, m, band),
        }
    }

    /// Transposes `ys` into lane-major layout; padding lanes replicate
    /// the first candidate (computed but never metered or reported).
    fn load(&mut self, ys: &[&[f64]]) {
        let m = ys[0].len();
        self.yt.clear();
        self.yt.resize(m, [0.0; LANES]);
        for l in 0..LANES {
            let y = ys.get(l).copied().unwrap_or(ys[0]);
            for (j, &v) in y.iter().enumerate() {
                self.yt[j][l] = v;
            }
        }
    }

    fn reset_rows(&mut self, width: usize) {
        self.prev.clear();
        self.prev.resize(width, [f64::INFINITY; LANES]);
        self.cur.clear();
        self.cur.resize(width, [f64::INFINITY; LANES]);
    }
}

/// Validates a batched call; returns the common candidate length.
fn check_batch(x: &[f64], ys: &[&[f64]], band: usize) -> Result<usize> {
    check_nonempty("x", x)?;
    check_finite("x", x)?;
    if ys.is_empty() || ys.len() > LANES {
        return Err(Error::InvalidParameter {
            name: "ys",
            reason: format!("batch holds 1..={LANES} candidates, got {}", ys.len()),
        });
    }
    let m = ys[0].len();
    for y in ys {
        check_nonempty("y", y)?;
        check_finite("y", y)?;
        if y.len() != m {
            return Err(Error::InvalidParameter {
                name: "ys",
                reason: format!(
                    "batched candidates must share one length, got {} and {}",
                    m,
                    y.len()
                ),
            });
        }
    }
    check_band(x.len(), m, band)?;
    Ok(m)
}

/// `cDTW_band` of `x` against every candidate in `ys` (all of one
/// length), written to `out` in candidate order. Each `out[l]` is
/// bitwise equal to `cdtw_distance(x, ys[l], band, cost)`.
pub fn cdtw_batch_distances<C: CostFn>(
    x: &[f64],
    ys: &[&[f64]],
    band: usize,
    cost: C,
    out: &mut [f64],
) -> Result<()> {
    let mut buf = BatchBuffer::new();
    cdtw_batch_distances_metered(x, ys, band, cost, out, &mut buf, &mut NoMeter)
}

/// [`cdtw_batch_distances`] with reusable scratch and work accounting.
/// Per-lane counters match the scalar entry point; one
/// [`Meter::batch_group`] records the group on top.
pub fn cdtw_batch_distances_metered<C: CostFn, M: Meter>(
    x: &[f64],
    ys: &[&[f64]],
    band: usize,
    cost: C,
    out: &mut [f64],
    buf: &mut BatchBuffer,
    meter: &mut M,
) -> Result<()> {
    let m = check_batch(x, ys, band)?;
    let active = ys.len();
    if out.len() != active {
        return Err(Error::InvalidParameter {
            name: "out",
            reason: format!("{} slots for {} candidates", out.len(), active),
        });
    }
    let _span = tsdtw_obs::span("dtw_batch");
    let n = x.len();
    let window = buf.take_window(n, m, band);

    let width = window.max_row_width();
    let area = window.cell_count() as u64;
    meter.batch_group(active as u64);
    for _ in 0..active {
        meter.window_cells(area);
        meter.cells(area);
        meter.dp_buffer_bytes(2 * width as u64 * std::mem::size_of::<f64>() as u64);
    }

    buf.load(ys);
    buf.reset_rows(width);

    // Row 0: per-lane prefix sums, identical to the scalar row-0 loop.
    let (lo0, hi0) = window.row_bounds(0);
    debug_assert_eq!(lo0, 0);
    let x0 = x[0];
    let mut acc = [0.0f64; LANES];
    for (k, j) in (lo0..=hi0).enumerate() {
        let yj = buf.yt[j];
        for l in 0..LANES {
            acc[l] += cost.cost(x0, yj[l]);
        }
        buf.prev[k] = acc;
    }
    let mut plo = lo0;
    let mut phi = hi0;

    for (i, &xi) in x.iter().enumerate().skip(1) {
        let (lo, hi) = window.row_bounds(i);
        batch_row(xi, &buf.yt, lo, hi, plo, phi, &buf.prev, &mut buf.cur, cost);
        std::mem::swap(&mut buf.prev, &mut buf.cur);
        plo = lo;
        phi = hi;
    }

    let (lo_last, hi_last) = window.row_bounds(n - 1);
    debug_assert_eq!(hi_last, m - 1);
    for (l, slot) in out.iter_mut().enumerate() {
        *slot = cost.finish(buf.prev[hi_last - lo_last][l]);
    }
    buf.cached_window = Some((band, window));
    Ok(())
}

/// The `+∞` stand-in for an out-of-window neighbor, in every lane.
const INF_ROW: [f64; LANES] = [f64::INFINITY; LANES];

/// Fills columns `js` of one row with the guarded rule, lane-wide: the
/// scalar sweep's guards, evaluated once per column for all lanes.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn batch_cells<C: CostFn>(
    xi: f64,
    yt: &[[f64; LANES]],
    js: Range<usize>,
    lo: usize,
    plo: usize,
    phi: usize,
    prev: &[[f64; LANES]],
    cur: &mut [[f64; LANES]],
    cost: C,
) {
    for j in js {
        let up = if j >= plo && j <= phi {
            prev[j - plo]
        } else {
            INF_ROW
        };
        let diag = if j > plo && j - 1 <= phi {
            prev[j - 1 - plo]
        } else {
            INF_ROW
        };
        let left = if j > lo { cur[j - 1 - lo] } else { INF_ROW };
        let yj = yt[j];
        let mut v = [0.0f64; LANES];
        for l in 0..LANES {
            v[l] = cost.cost(xi, yj[l]) + neighbor_min(diag[l], up[l], left[l]);
        }
        cur[j - lo] = v;
    }
}

/// A degenerate row, guarded column by column. Kept out of line like
/// the scalar sweep's degenerate rows, so it does not grow the hot row
/// body.
#[allow(clippy::too_many_arguments)]
#[cold]
#[inline(never)]
fn batch_row_degenerate<C: CostFn>(
    xi: f64,
    yt: &[[f64; LANES]],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[[f64; LANES]],
    cur: &mut [[f64; LANES]],
    cost: C,
) {
    batch_cells(xi, yt, lo..hi + 1, lo, plo, phi, prev, cur, cost);
}

/// One DP row across all lanes, split like the scalar
/// `sweep::distance_row`: guarded prefix, branch-free interior, guarded
/// suffix.
#[allow(clippy::too_many_arguments)]
#[inline]
fn batch_row<C: CostFn>(
    xi: f64,
    yt: &[[f64; LANES]],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[[f64; LANES]],
    cur: &mut [[f64; LANES]],
    cost: C,
) {
    let seg_lo = lo.max(plo + 1);
    let seg_hi = hi.min(phi);
    if seg_lo > seg_hi {
        return batch_row_degenerate(xi, yt, lo, hi, plo, phi, prev, cur, cost);
    }
    batch_cells(xi, yt, lo..seg_lo, lo, plo, phi, prev, cur, cost);
    // Interior invariant (the scalar sweep's): for j ∈ [seg_lo, seg_hi]
    // both `up` (prev[j]) and `diag` (prev[j-1]) are admissible and
    // stored, and `left` is the cell written one step earlier, seeded
    // from the prefix (or ∞ at the row start).
    let len = seg_hi - seg_lo + 1;
    let mut left = if seg_lo > lo {
        cur[seg_lo - 1 - lo]
    } else {
        INF_ROW
    };
    let up_s = &prev[seg_lo - plo..seg_lo - plo + len];
    let diag_s = &prev[seg_lo - 1 - plo..seg_lo - 1 - plo + len];
    let y_s = &yt[seg_lo..seg_lo + len];
    let out = &mut cur[seg_lo - lo..seg_lo - lo + len];
    for (((o, yj), up), diag) in out.iter_mut().zip(y_s).zip(up_s).zip(diag_s) {
        let mut v = [0.0f64; LANES];
        for l in 0..LANES {
            v[l] = cost.cost(xi, yj[l]) + neighbor_min(diag[l], up[l], left[l]);
        }
        *o = v;
        left = v;
    }
    batch_cells(xi, yt, seg_hi + 1..hi + 1, lo, plo, phi, prev, cur, cost);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AbsoluteCost, SquaredCost};
    use crate::dtw::banded::cdtw_distance;
    use tsdtw_obs::WorkMeter;

    fn series(n: usize, seed: u64) -> Vec<f64> {
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

    /// Meter with the `batch.*` counters cleared, for comparison against
    /// scalar scans (which cannot record them).
    fn sans_batch(mut m: WorkMeter) -> WorkMeter {
        m.batch_groups = 0;
        m.batch_lanes = 0;
        m
    }

    #[test]
    fn every_lane_is_bitwise_equal_to_the_scalar_kernel() {
        let x = series(40, 1);
        let cands: Vec<Vec<f64>> = (0..LANES as u64).map(|s| series(40, 10 + s)).collect();
        for band in [0usize, 1, 4, 13, 40] {
            for group in 1..=LANES {
                let ys: Vec<&[f64]> = cands[..group].iter().map(|c| c.as_slice()).collect();
                let mut out = vec![0.0; group];
                cdtw_batch_distances(&x, &ys, band, SquaredCost, &mut out).unwrap();
                for (l, y) in ys.iter().enumerate() {
                    let scalar = cdtw_distance(&x, y, band, SquaredCost).unwrap();
                    assert_eq!(
                        out[l].to_bits(),
                        scalar.to_bits(),
                        "band {band} group {group} lane {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn unequal_query_and_candidate_lengths_supported() {
        let x = series(31, 2);
        let cands: Vec<Vec<f64>> = (0..5u64).map(|s| series(17, 20 + s)).collect();
        let ys: Vec<&[f64]> = cands.iter().map(|c| c.as_slice()).collect();
        for band in [16usize, 20, 31] {
            let mut out = vec![0.0; ys.len()];
            cdtw_batch_distances(&x, &ys, band, AbsoluteCost, &mut out).unwrap();
            for (l, y) in ys.iter().enumerate() {
                let scalar = cdtw_distance(&x, y, band, AbsoluteCost).unwrap();
                assert_eq!(out[l].to_bits(), scalar.to_bits(), "band {band} lane {l}");
            }
        }
    }

    #[test]
    fn meters_match_the_scalar_scan_except_batch_counters() {
        let x = series(24, 3);
        let cands: Vec<Vec<f64>> = (0..6u64).map(|s| series(24, 30 + s)).collect();
        let ys: Vec<&[f64]> = cands.iter().map(|c| c.as_slice()).collect();
        let band = 5;

        let mut scalar = WorkMeter::new();
        for y in &cands {
            crate::dtw::banded::cdtw_distance_metered(&x, y, band, SquaredCost, &mut scalar)
                .unwrap();
        }
        let mut batched = WorkMeter::new();
        let mut out = vec![0.0; ys.len()];
        let mut buf = BatchBuffer::new();
        cdtw_batch_distances_metered(&x, &ys, band, SquaredCost, &mut out, &mut buf, &mut batched)
            .unwrap();
        assert_eq!(batched.batch_groups, 1);
        assert_eq!(batched.batch_lanes, 6);
        assert_eq!(sans_batch(batched), scalar, "padding lanes must not meter");
    }

    #[test]
    fn warmed_buffer_reuse_is_identical() {
        let x = series(20, 4);
        let cands: Vec<Vec<f64>> = (0..4u64).map(|s| series(20, 40 + s)).collect();
        let ys: Vec<&[f64]> = cands.iter().map(|c| c.as_slice()).collect();
        let mut buf = BatchBuffer::new();
        let mut a = vec![0.0; 4];
        let mut b = vec![0.0; 4];
        cdtw_batch_distances_metered(&x, &ys, 3, SquaredCost, &mut a, &mut buf, &mut NoMeter)
            .unwrap();
        cdtw_batch_distances_metered(&x, &ys, 3, SquaredCost, &mut b, &mut buf, &mut NoMeter)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_batches_are_rejected() {
        let x = series(10, 7);
        let a = series(10, 8);
        let b = series(9, 9);
        let mut out = vec![0.0; 2];
        // Mixed candidate lengths.
        assert!(cdtw_batch_distances(&x, &[&a, &b], 3, SquaredCost, &mut out).is_err());
        // Empty and oversized groups.
        assert!(cdtw_batch_distances(&x, &[], 3, SquaredCost, &mut []).is_err());
        let too_many: Vec<&[f64]> = (0..LANES + 1).map(|_| a.as_slice()).collect();
        let mut big = vec![0.0; LANES + 1];
        assert!(cdtw_batch_distances(&x, &too_many, 3, SquaredCost, &mut big).is_err());
        // Output length mismatch.
        let mut short = vec![0.0; 1];
        assert!(cdtw_batch_distances(&x, &[&a, &a], 3, SquaredCost, &mut short).is_err());
    }
}
