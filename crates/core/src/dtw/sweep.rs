//! The DP row sweep shared by every DP kernel.
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
//! rolling rows are stored relative to their own `lo`. Each sweep splits
//! the row at `seg_lo = max(lo, plo + 1)` and `seg_hi = min(hi, phi)`.
//! Inside `[seg_lo, seg_hi]` both `up` and `diag` are admissible *by
//! construction* (the segmentation invariant), so the interior loop
//! carries `left` in a register and runs with no per-cell overlap checks;
//! the prefix `[lo, seg_lo)` and suffix `(seg_hi, hi]` keep the guards
//! above. Degenerate rows (`seg_lo > seg_hi`: a window narrower than one
//! cell of overlap, or sliding faster than one column per row) run the
//! guarded rule over the whole row, in a function kept out of line so it
//! does not bloat the hot row bodies.
//!
//! Three sweeps share this shape: distance-only, min-tracking (the
//! early-abandon test value) and path. The path sweep, which FastDTW runs
//! at every level, also records one traceback byte per cell into the
//! row's slice of the direction plane. Its tie-break takes the minimum
//! with [`neighbor_min`], like the other two, and derives the direction
//! from the same comparisons without a branch. A path cell still costs
//! about 1.7× a distance cell, not a distance cell plus the byte store:
//! timing the sweep loops alone on FastDTW's finest-level windows of the
//! benchmark's shapes (shared 2-vCPU Xeon, best of 9), the path sweep
//! ran 3.09 ns/cell against the distance sweep's 1.73 at N = 128 (width
//! 58), and 2.98 against 1.78 at N = 24,000 (width 96).
//!
//! **Cost overflow.** The guards stand in `∞` for an out-of-window
//! neighbor. A finite input pair whose cost overflows (`|x − y| ≳
//! 1.34e154` under [`SquaredCost`](crate::cost::SquaredCost)) makes
//! in-window cells `∞` as well, and then a guard's `∞` ties the minimum.
//! The value is still right (the minimum of the in-window neighbors is
//! `∞` too), but the traceback step must not leave the window, so a
//! guarded cell picks its step only among in-window neighbors, keeping
//! the diagonal → up → left order on `<=`. Interior cells need no such
//! care: their diagonal is always in the window and wins every tie it is
//! part of, and `up` beats an out-of-window `left` at the row start.
//!
//! **Bitwise contract.** Every cell performs exactly the textbook
//! guarded DP's operations, `cost + diag.min(up).min(left)` on the same
//! operand values: the interior merely substitutes the guard results
//! that are statically known. Every DP-cell minimum the kernels take
//! (this sweep, the wavefront, the batched lanes and the early-abandon
//! folds) is [`cell_min`], whose doc shows that on the recurrence domain
//! it returns `f64::min`'s bits; with `+`, it is a deterministic pure
//! function of its operand values, so the sweep agrees bit for bit with
//! the full-matrix `f64::min` oracle in `tests/kernel_equivalence.rs`,
//! distances, paths and `∞` included. The meters are recorded by the
//! callers (per row, from the window bounds alone).

use std::ops::Range;

use crate::cost::CostFn;

/// The smaller of two recurrence values: `if b < a { b } else { a }`.
///
/// On the recurrence domain this returns exactly `a.min(b)`'s bits, in
/// one `minsd`/`minpd` on x86-64, where `f64::min` adds a four-instruction
/// NaN fix-up (`cmpunordsd`, `andpd`, `andnpd`, `orpd`) that lands on the
/// row sweep's loop-carried `left` chain and in every vector lane.
///
/// The domain holds no NaN and no `−0.0`. Each operand is a guard's `+∞`,
/// a cost, or a sum of costs. Inputs are validated finite, and for finite
/// inputs every [`CostFn`] returns a value `≥ +0.0` that is never `−0.0`
/// or NaN (`+∞` on overflow). A sum of such terms is `≥ +0.0` as well
/// (`+0.0 + +0.0` is `+0.0`), and it is never NaN, because no term is
/// `−∞`. Without NaN, `b < a` takes the strictly smaller operand, as
/// `f64::min` does. When `a == b` the two have the same bits, since only
/// `+0.0` and `−0.0` compare equal with different bits, so returning `a`
/// returns `f64::min`'s answer too.
#[inline(always)]
pub(crate) fn cell_min(a: f64, b: f64) -> f64 {
    if b < a {
        b
    } else {
        a
    }
}

/// The recurrence's `min(diag, up, left)`, folded in the textbook order
/// `diag.min(up).min(left)` with [`cell_min`].
#[inline(always)]
pub(crate) fn neighbor_min(diag: f64, up: f64, left: f64) -> f64 {
    cell_min(cell_min(diag, up), left)
}

/// The three neighbors of column `j` under the row guards (module
/// docs): each neighbor's value, `+∞` outside the window, and whether
/// its cell lies inside the window.
#[derive(Clone, Copy)]
struct Guarded {
    diag: f64,
    up: f64,
    left: f64,
    in_diag: bool,
    in_up: bool,
    in_left: bool,
}

impl Guarded {
    #[inline(always)]
    fn at(j: usize, lo: usize, plo: usize, phi: usize, prev: &[f64], cur: &[f64]) -> Self {
        let in_up = j >= plo && j <= phi;
        let in_diag = j > plo && j - 1 <= phi;
        let in_left = j > lo;
        debug_assert!(
            in_diag || in_up || in_left,
            "unreachable cell (col {j}) in validated window"
        );
        Guarded {
            diag: if in_diag {
                prev[j - 1 - plo]
            } else {
                f64::INFINITY
            },
            up: if in_up { prev[j - plo] } else { f64::INFINITY },
            left: if in_left {
                cur[j - 1 - lo]
            } else {
                f64::INFINITY
            },
            in_diag,
            in_up,
            in_left,
        }
    }

    /// The neighbor minimum, the expression the interior uses.
    #[inline(always)]
    fn best(self) -> f64 {
        neighbor_min(self.diag, self.up, self.left)
    }

    /// [`pick`] restricted to in-window neighbors: a neighbor outside the
    /// window never wins, even when an overflowed in-window cost ties
    /// its guard's `∞`. On finite cells this is exactly [`pick`], since
    /// a guard's `∞` then loses every comparison it takes part in.
    #[inline(always)]
    fn pick(self) -> (f64, u8) {
        let on_diag = self.in_diag
            & (!self.in_up | (self.diag <= self.up))
            & (!self.in_left | (self.diag <= self.left));
        let up_wins = self.in_up & (!self.in_left | (self.up <= self.left));
        (self.best(), step(on_diag, !up_wins))
    }
}

/// The traceback byte for a step: Diagonal = 0, Up = 1, Left = 2.
#[inline(always)]
fn step(on_diag: bool, left_wins: bool) -> u8 {
    let off_diag = u8::from(!on_diag);
    off_diag + (off_diag & u8::from(left_wins))
}

/// The interior tie-break: diagonal first, then the vertical step,
/// matching the classic presentation. Returns the neighbor minimum and
/// the chosen step as its [`Direction`](crate::path::Direction) byte.
///
/// The minimum is [`neighbor_min`], the expression the distance sweep
/// uses. The step is Diagonal if `diag <= up && diag <= left`, else
/// Up if `up <= left`, else Left, computed from those comparisons as
/// data rather than control flow: which neighbor wins changes from cell
/// to cell with the data, so a branching choice mispredicts often.
#[inline(always)]
fn pick(diag: f64, up: f64, left: f64) -> (f64, u8) {
    let on_diag = (diag <= up) & (diag <= left);
    // `left < up` is `!(up <= left)`: the recurrence domain holds no NaN.
    (neighbor_min(diag, up, left), step(on_diag, left < up))
}

/// Fills distance-row columns `js` with the guarded rule.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn distance_cells<C: CostFn>(
    xi: f64,
    y: &[f64],
    js: Range<usize>,
    lo: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
) {
    for j in js {
        let best = Guarded::at(j, lo, plo, phi, prev, cur).best();
        cur[j - lo] = cost.cost(xi, y[j]) + best;
    }
}

/// A degenerate distance row, guarded cell by cell. Kept out of line:
/// inlined, it would grow every row body it sits in.
#[allow(clippy::too_many_arguments)]
#[cold]
#[inline(never)]
fn distance_row_degenerate<C: CostFn>(
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
    distance_cells(xi, y, lo..hi + 1, lo, plo, phi, prev, cur, cost);
}

/// Fills one distance row: guarded prefix, branch-free 4-wide-unrolled
/// interior, guarded suffix.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn distance_row<C: CostFn>(
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
        return distance_row_degenerate(xi, y, lo, hi, plo, phi, prev, cur, cost);
    }
    distance_cells(xi, y, lo..seg_lo, lo, plo, phi, prev, cur, cost);
    let len = seg_hi - seg_lo + 1;
    // Interior invariant: for j ∈ [seg_lo, seg_hi], j ≥ plo + 1 makes both
    // `up` (prev[j]) and `diag` (prev[j-1]) admissible, and j ≤ phi keeps
    // them in the previous row's storage. `left` is the running value — the
    // cell written one step earlier, seeded from the prefix (or ∞ at the
    // row start), exactly what the guarded rule would have read.
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
        let v0 = cost.cost(xi, y_s[k]) + neighbor_min(diag_s[k], up_s[k], left);
        let v1 = cost.cost(xi, y_s[k + 1]) + neighbor_min(diag_s[k + 1], up_s[k + 1], v0);
        let v2 = cost.cost(xi, y_s[k + 2]) + neighbor_min(diag_s[k + 2], up_s[k + 2], v1);
        let v3 = cost.cost(xi, y_s[k + 3]) + neighbor_min(diag_s[k + 3], up_s[k + 3], v2);
        out[k] = v0;
        out[k + 1] = v1;
        out[k + 2] = v2;
        out[k + 3] = v3;
        left = v3;
        k += 4;
    }
    while k < len {
        let v = cost.cost(xi, y_s[k]) + neighbor_min(diag_s[k], up_s[k], left);
        out[k] = v;
        left = v;
        k += 1;
    }
    distance_cells(xi, y, seg_hi + 1..hi + 1, lo, plo, phi, prev, cur, cost);
}

/// Fills min-row columns `js` with the guarded rule, folding each value
/// into `row_min` left to right.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn min_cells<C: CostFn>(
    xi: f64,
    y: &[f64],
    js: Range<usize>,
    lo: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    cost: C,
    mut row_min: f64,
) -> f64 {
    for j in js {
        let v = cost.cost(xi, y[j]) + Guarded::at(j, lo, plo, phi, prev, cur).best();
        cur[j - lo] = v;
        row_min = cell_min(row_min, v);
    }
    row_min
}

/// A degenerate min row, guarded cell by cell; out of line like
/// [`distance_row_degenerate`].
#[allow(clippy::too_many_arguments)]
#[cold]
#[inline(never)]
fn min_row_degenerate<C: CostFn>(
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
    min_cells(
        xi,
        y,
        lo..hi + 1,
        lo,
        plo,
        phi,
        prev,
        cur,
        cost,
        f64::INFINITY,
    )
}

/// Fills one row and returns its minimum (the early-abandon test value).
/// The running minimum folds left to right across prefix, interior and
/// suffix, so the abandonment row is a function of the cell values alone.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn min_row<C: CostFn>(
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
        return min_row_degenerate(xi, y, lo, hi, plo, phi, prev, cur, cost);
    }
    let mut row_min = min_cells(
        xi,
        y,
        lo..seg_lo,
        lo,
        plo,
        phi,
        prev,
        cur,
        cost,
        f64::INFINITY,
    );
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
        let v = cost.cost(xi, y_s[k]) + neighbor_min(diag_s[k], up_s[k], left);
        out[k] = v;
        row_min = cell_min(row_min, v);
        left = v;
    }
    min_cells(
        xi,
        y,
        seg_hi + 1..hi + 1,
        lo,
        plo,
        phi,
        prev,
        cur,
        cost,
        row_min,
    )
}

/// Fills path-row columns `js` with the guarded rule and its in-window
/// step choice ([`Guarded::pick`]).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn path_cells<C: CostFn>(
    xi: f64,
    y: &[f64],
    js: Range<usize>,
    lo: usize,
    plo: usize,
    phi: usize,
    prev: &[f64],
    cur: &mut [f64],
    dirs: &mut [u8],
    cost: C,
) {
    for j in js {
        let (best, dir) = Guarded::at(j, lo, plo, phi, prev, cur).pick();
        cur[j - lo] = cost.cost(xi, y[j]) + best;
        dirs[j - lo] = dir;
    }
}

/// A degenerate path row, guarded cell by cell; out of line like
/// [`distance_row_degenerate`].
#[allow(clippy::too_many_arguments)]
#[cold]
#[inline(never)]
fn path_row_degenerate<C: CostFn>(
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
    path_cells(xi, y, lo..hi + 1, lo, plo, phi, prev, cur, dirs, cost);
}

/// Fills one row and records traceback directions. `dirs` is the row's
/// slice of the [`WindowedDirections`](crate::matrix::WindowedDirections)
/// plane. Like [`distance_row`], it slices `prev`, `y`, `cur` and the
/// direction row once, so the interior indexes five equal-length slices.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn path_row<C: CostFn>(
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
        return path_row_degenerate(xi, y, lo, hi, plo, phi, prev, cur, dirs, cost);
    }
    path_cells(xi, y, lo..seg_lo, lo, plo, phi, prev, cur, dirs, cost);
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
    path_cells(
        xi,
        y,
        seg_hi + 1..hi + 1,
        lo,
        plo,
        phi,
        prev,
        cur,
        dirs,
        cost,
    );
}

#[cfg(test)]
mod tests {
    use super::cell_min;

    #[test]
    fn cell_min_returns_f64_min_bits_on_the_recurrence_domain() {
        // Zero, subnormals, ordinary and huge finite values, and the
        // guards' `+∞`: every sign the domain admits.
        const DOMAIN: [f64; 7] = [0.0, 4.9e-324, 1e-310, 1.0, 1e154, f64::MAX, f64::INFINITY];
        for a in DOMAIN {
            for b in DOMAIN {
                assert_eq!(
                    cell_min(a, b).to_bits(),
                    a.min(b).to_bits(),
                    "cell_min({a:e}, {b:e})"
                );
            }
        }
    }
}
