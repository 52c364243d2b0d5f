//! The tiered row sweep shared by every DP kernel.
//!
//! A "row sweep" fills row `i` of the accumulated-cost matrix given the
//! previous row: for each admissible column `j ∈ [lo, hi]`,
//!
//! ```text
//! cur[j] = cost(x[i], y[j]) + min(diag, up, left)
//!     up   = prev[j]      if plo ≤ j ≤ phi      else ∞
//!     diag = prev[j - 1]  if plo < j ≤ phi + 1  else ∞
//!     left = cur[j - 1]   if j > lo             else ∞
//! ```
//!
//! where `[plo, phi]` is the previous row's admissible interval and both
//! rolling rows are stored relative to their own `lo`. Each sweep comes in
//! two tiers (selected by the caller per
//! [`Kernel`](super::kernel::Kernel)):
//!
//! * `*_generic` — the guarded loop above, correct for any window shape;
//! * `*_segmented` — splits the row at `seg_lo = max(lo, plo + 1)` and
//!   `seg_hi = min(hi, phi)`. Inside `[seg_lo, seg_hi]` both `up` and
//!   `diag` are admissible *by construction* (the segmentation invariant),
//!   so the interior loop carries `left` in a register and runs with no
//!   per-cell overlap checks; the prefix `[lo, seg_lo)` and suffix
//!   `(seg_hi, hi]` keep the guarded logic. Degenerate rows
//!   (`seg_lo > seg_hi`) fall back to the generic sweep wholesale.
//!
//! Three sweeps share this shape: distance-only, min-tracking (the
//! early-abandon test value) and path. The path sweep, which FastDTW runs
//! at every level, also records one traceback byte per cell into the
//! row's slice of the direction plane. Its tie-break `pick` takes the
//! minimum as `diag.min(up).min(left)`, like the other two, and derives
//! the direction from the same comparisons without a branch, so a path
//! cell costs about what a distance cell costs plus the byte store.
//!
//! **Bitwise-equality contract.** The segmented tier performs the same
//! per-cell operations in the same order as the generic tier: the interior
//! merely substitutes the guard results that are statically known
//! (`up`/`diag` in-range, `left` = previously written value or the `∞`
//! carried past `lo`). The recurrence domain contains no NaN (inputs are
//! validated finite, costs are finite and non-negative) and no `-0.0`
//! (accumulated costs are sums of non-negative terms), so `f64::min` and
//! `+` are deterministic pure functions of their operand values and the two
//! tiers agree bit for bit on every window shape. `tests/kernel_equivalence.rs`
//! enforces this differentially; the meters are recorded by the callers
//! (per row, from the window bounds alone), so all `WorkMeter` counters
//! are tier-invariant by construction.

use crate::cost::CostFn;

/// The guarded three-neighbor minimum at column `j` (see module docs).
#[inline(always)]
fn guarded_best(j: usize, lo: usize, plo: usize, phi: usize, prev: &[f64], cur: &[f64]) -> f64 {
    let up = if j >= plo && j <= phi {
        prev[j - plo]
    } else {
        f64::INFINITY
    };
    let diag = if j > plo && j - 1 <= phi {
        prev[j - 1 - plo]
    } else {
        f64::INFINITY
    };
    let left = if j > lo {
        cur[j - 1 - lo]
    } else {
        f64::INFINITY
    };
    diag.min(up).min(left)
}

/// The guarded `(diag, up, left)` neighbors of column `j`, for the path
/// rows' tie-break: the same guards as [`guarded_best`], which the
/// distance and min sweeps use to fold the minimum directly.
#[inline(always)]
fn guarded_neighbors(
    j: usize,
    lo: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &[f64],
) -> (f64, f64, f64) {
    let up = if j >= plo && j <= phi {
        prev[j - plo]
    } else {
        f64::INFINITY
    };
    let diag = if j > plo && j - 1 <= phi {
        prev[j - 1 - plo]
    } else {
        f64::INFINITY
    };
    let left = if j > lo {
        cur[j - 1 - lo]
    } else {
        f64::INFINITY
    };
    (diag, up, left)
}

/// Fills one distance row with the guarded per-cell loop.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn distance_row_generic<C: CostFn>(
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) {
    for j in lo..=hi {
        let best = guarded_best(j, lo, plo, phi, prev, cur);
        debug_assert!(
            best.is_finite(),
            "unreachable cell (col {j}) in validated window"
        );
        cur[j - lo] = cost.cost(xi, y[j]) + best;
    }
}

/// Fills one distance row with the three-segment sweep: guarded prefix,
/// branch-free 4-wide-unrolled interior, guarded suffix.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn distance_row_segmented<C: CostFn>(
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) {
    let seg_lo = lo.max(plo + 1);
    let seg_hi = hi.min(phi);
    if seg_lo > seg_hi {
        // No interior (window narrower than 1 cell of overlap, or sliding
        // faster than one column per row): the guarded loop handles it.
        return distance_row_generic(xi, y, lo, hi, plo, phi, prev, cur, cost);
    }
    for j in lo..seg_lo {
        let best = guarded_best(j, lo, plo, phi, prev, cur);
        debug_assert!(best.is_finite());
        cur[j - lo] = cost.cost(xi, y[j]) + best;
    }
    let len = seg_hi - seg_lo + 1;
    // Interior invariant: for j ∈ [seg_lo, seg_hi], j ≥ plo + 1 makes both
    // `up` (prev[j]) and `diag` (prev[j-1]) admissible, and j ≤ phi keeps
    // them in the previous row's storage. `left` is the running value — the
    // cell written one step earlier, seeded from the prefix (or ∞ at the
    // row start), exactly what the guarded loop would have read.
    let mut left = if seg_lo > lo {
        cur[seg_lo - 1 - lo]
    } else {
        f64::INFINITY
    };
    let up_s = &prev[seg_lo - plo..seg_lo - plo + len];
    let diag_s = &prev[seg_lo - 1 - plo..seg_lo - 1 - plo + len];
    let y_s = &y[seg_lo..seg_lo + len];
    let out = &mut cur[seg_lo - lo..seg_lo - lo + len];
    let mut k = 0;
    while k + 4 <= len {
        let v0 = cost.cost(xi, y_s[k]) + diag_s[k].min(up_s[k]).min(left);
        let v1 = cost.cost(xi, y_s[k + 1]) + diag_s[k + 1].min(up_s[k + 1]).min(v0);
        let v2 = cost.cost(xi, y_s[k + 2]) + diag_s[k + 2].min(up_s[k + 2]).min(v1);
        let v3 = cost.cost(xi, y_s[k + 3]) + diag_s[k + 3].min(up_s[k + 3]).min(v2);
        out[k] = v0;
        out[k + 1] = v1;
        out[k + 2] = v2;
        out[k + 3] = v3;
        left = v3;
        k += 4;
    }
    while k < len {
        let v = cost.cost(xi, y_s[k]) + diag_s[k].min(up_s[k]).min(left);
        out[k] = v;
        left = v;
        k += 1;
    }
    for j in seg_hi + 1..=hi {
        let best = guarded_best(j, lo, plo, phi, prev, cur);
        debug_assert!(best.is_finite());
        cur[j - lo] = cost.cost(xi, y[j]) + best;
    }
}

/// Tier dispatch for the distance sweep. `segmented` is resolved once per
/// call by the kernel entry point (`kernel.segmented::<C>()`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn distance_row<C: CostFn>(
    segmented: bool,
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) {
    if segmented {
        distance_row_segmented(xi, y, lo, hi, plo, phi, prev, cur, cost);
    } else {
        distance_row_generic(xi, y, lo, hi, plo, phi, prev, cur, cost);
    }
}

/// Fills one row and returns its minimum (the early-abandon test value),
/// guarded tier.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn min_row_generic<C: CostFn>(
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) -> f64 {
    let mut row_min = f64::INFINITY;
    for j in lo..=hi {
        let v = cost.cost(xi, y[j]) + guarded_best(j, lo, plo, phi, prev, cur);
        cur[j - lo] = v;
        row_min = row_min.min(v);
    }
    row_min
}

/// Fills one row and returns its minimum, segmented tier. The running
/// minimum folds left-to-right exactly as the generic tier does, so the
/// abandonment decision (and therefore the `ea_*`/`cells` counters) cannot
/// differ between tiers.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn min_row_segmented<C: CostFn>(
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) -> f64 {
    let seg_lo = lo.max(plo + 1);
    let seg_hi = hi.min(phi);
    if seg_lo > seg_hi {
        return min_row_generic(xi, y, lo, hi, plo, phi, prev, cur, cost);
    }
    let mut row_min = f64::INFINITY;
    for j in lo..seg_lo {
        let v = cost.cost(xi, y[j]) + guarded_best(j, lo, plo, phi, prev, cur);
        cur[j - lo] = v;
        row_min = row_min.min(v);
    }
    let len = seg_hi - seg_lo + 1;
    let mut left = if seg_lo > lo {
        cur[seg_lo - 1 - lo]
    } else {
        f64::INFINITY
    };
    let up_s = &prev[seg_lo - plo..seg_lo - plo + len];
    let diag_s = &prev[seg_lo - 1 - plo..seg_lo - 1 - plo + len];
    let y_s = &y[seg_lo..seg_lo + len];
    let out = &mut cur[seg_lo - lo..seg_lo - lo + len];
    for k in 0..len {
        let v = cost.cost(xi, y_s[k]) + diag_s[k].min(up_s[k]).min(left);
        out[k] = v;
        row_min = row_min.min(v);
        left = v;
    }
    for j in seg_hi + 1..=hi {
        let v = cost.cost(xi, y[j]) + guarded_best(j, lo, plo, phi, prev, cur);
        cur[j - lo] = v;
        row_min = row_min.min(v);
    }
    row_min
}

/// Tier dispatch for the min-tracking sweep.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn min_row<C: CostFn>(
    segmented: bool,
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) -> f64 {
    if segmented {
        min_row_segmented(xi, y, lo, hi, plo, phi, prev, cur, cost)
    } else {
        min_row_generic(xi, y, lo, hi, plo, phi, prev, cur, cost)
    }
}

/// The tie-break shared by both path tiers: diagonal first, then the
/// vertical step, matching the classic presentation. Returns the
/// neighbor minimum and the chosen step as its
/// [`Direction`](crate::path::Direction) byte.
///
/// The minimum is `diag.min(up).min(left)`, the expression the distance
/// sweep uses. The step is Diagonal if `diag <= up && diag <= left`, else
/// Up if `up <= left`, else Left, computed from those comparisons as
/// data rather than control flow: which neighbor wins changes from cell
/// to cell with the data, so a branching choice mispredicts often.
#[inline(always)]
fn pick(diag: f64, up: f64, left: f64) -> (f64, u8) {
    let on_diag = (diag <= up) & (diag <= left);
    let off_diag = u8::from(!on_diag);
    // `left < up` is `!(up <= left)`: the recurrence domain holds no NaN.
    let left_wins = u8::from(left < up);
    // Diagonal = 0, Up = 1, Left = 2.
    let dir = off_diag + (off_diag & left_wins);
    (diag.min(up).min(left), dir)
}

/// Fills one row and records traceback directions, guarded tier. `dirs`
/// is the row's slice of the
/// [`WindowedDirections`](crate::matrix::WindowedDirections) plane.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn path_row_generic<C: CostFn>(
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    dirs: &mut [u8],
    cost: C,
) {
    for j in lo..=hi {
        let (diag, up, left) = guarded_neighbors(j, lo, plo, phi, prev, cur);
        let (best, dir) = pick(diag, up, left);
        debug_assert!(
            best.is_finite(),
            "unreachable cell (col {j}) in validated window"
        );
        cur[j - lo] = cost.cost(xi, y[j]) + best;
        dirs[j - lo] = dir;
    }
}

/// Fills one row and records traceback directions, segmented tier. The
/// interior applies [`pick`] to the same (diag, up, left) values the
/// guarded tier would compute, so both the costs *and* the recorded
/// directions — hence the traced path — are identical. Like
/// [`distance_row_segmented`], it slices `prev`, `y`, `cur` and the
/// direction row once, so the interior indexes five equal-length slices.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn path_row_segmented<C: CostFn>(
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    dirs: &mut [u8],
    cost: C,
) {
    let seg_lo = lo.max(plo + 1);
    let seg_hi = hi.min(phi);
    if seg_lo > seg_hi {
        return path_row_generic(xi, y, lo, hi, plo, phi, prev, cur, dirs, cost);
    }
    for j in lo..seg_lo {
        let (diag, up, left) = guarded_neighbors(j, lo, plo, phi, prev, cur);
        let (best, dir) = pick(diag, up, left);
        debug_assert!(best.is_finite());
        cur[j - lo] = cost.cost(xi, y[j]) + best;
        dirs[j - lo] = dir;
    }
    let len = seg_hi - seg_lo + 1;
    let mut left = if seg_lo > lo {
        cur[seg_lo - 1 - lo]
    } else {
        f64::INFINITY
    };
    let up_s = &prev[seg_lo - plo..seg_lo - plo + len];
    let diag_s = &prev[seg_lo - 1 - plo..seg_lo - 1 - plo + len];
    let y_s = &y[seg_lo..seg_lo + len];
    let out = &mut cur[seg_lo - lo..seg_lo - lo + len];
    let dir_s = &mut dirs[seg_lo - lo..seg_lo - lo + len];
    for k in 0..len {
        let (best, dir) = pick(diag_s[k], up_s[k], left);
        let v = cost.cost(xi, y_s[k]) + best;
        out[k] = v;
        dir_s[k] = dir;
        left = v;
    }
    for j in seg_hi + 1..=hi {
        let (diag, up, left) = guarded_neighbors(j, lo, plo, phi, prev, cur);
        let (best, dir) = pick(diag, up, left);
        debug_assert!(best.is_finite());
        cur[j - lo] = cost.cost(xi, y[j]) + best;
        dirs[j - lo] = dir;
    }
}

/// Tier dispatch for the path sweep.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn path_row<C: CostFn>(
    segmented: bool,
    xi: f64,
    y: &[f64],
    lo: usize,
    hi: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    dirs: &mut [u8],
    cost: C,
) {
    if segmented {
        path_row_segmented(xi, y, lo, hi, plo, phi, prev, cur, dirs, cost);
    } else {
        path_row_generic(xi, y, lo, hi, plo, phi, prev, cur, dirs, cost);
    }
}
