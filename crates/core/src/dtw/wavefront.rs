//! Anti-diagonal ("wavefront") evaluation of the windowed DP.
//!
//! The row sweep (DESIGN.md §11) walks cells in row-major order, which
//! chains every interior cell on its *left* neighbor — a loop-carried
//! dependency that caps the scalar sweep at one fused min-add per cycle.
//! Walking the same recurrence in anti-diagonal order removes the chain:
//! every cell on diagonal `d = i + j` depends only on diagonals `d-1`
//! (its `up` and `left` predecessors) and `d-2` (its `diag`
//! predecessor), so all cells of one diagonal are mutually independent.
//! The inner loop is one indexed loop over six slices cut to the
//! diagonal's length, which LLVM's loop vectorizer packs: in the default
//! x86-64 build, two cells per SSE2 instruction (`subpd`, `mulpd`, two
//! `minpd`, `addpd`) and a one-cell scalar remainder — no unstable
//! features, no target-specific intrinsics. Keep that shape: a
//! fixed-width `[f64; 8]` block compiled to six scalar cells and one
//! packed pair (DESIGN.md §16 has the check).
//!
//! **Bitwise equality.** Each cell computes exactly the row sweep's
//! expression, `cost(xᵢ, yⱼ) + neighbor_min(diag, up, left)`, from the
//! same three predecessor *values* (out-of-window predecessors read `+∞`
//! here exactly where the sweep's guards substitute `+∞`). IEEE-754
//! addition and [`cell_min`](super::sweep::cell_min) are deterministic
//! functions of their operand values on this domain (the helper's doc
//! has the proof), and the row-0 prefix sum `acc + cost` reappears here
//! as `cost + left` (addition is commutative bitwise on this domain — no
//! NaNs survive validation and costs are `≥ +0.0`, so the `-0.0` corner
//! cannot arise). Distances are therefore bitwise equal to the row sweep
//! on every window shape, `+∞` from an overflowing cost included — the
//! contract `tests/kernel_equivalence.rs` locks.
//!
//! **Geometry.** With validated windows (`lo`/`hi` monotone
//! non-decreasing, `lo[i] ≤ hi[i-1] + 1`), both `f(i) = i + lo[i]` and
//! `g(i) = i + hi[i]` are strictly increasing, so the admissible rows of
//! diagonal `d` form one contiguous interval `[b_d, a_d]` with
//! `b_d = min{i : g(i) ≥ d}` and `a_d = max{i : f(i) ≤ d}`. Both ends
//! are monotone in `d` and advance by at most one per diagonal, so two
//! cursors track them in O(1) amortized. A diagonal can be empty
//! (`b_d = a_d + 1`; e.g. the odd diagonals of a width-1 band), but
//! never two in a row — the connectivity constraint bounds the gap
//! between consecutive row intervals at one diagonal.
//!
//! **Storage.** Three rolling buffers hold diagonals `d`, `d-1` and
//! `d-2`, each in `max_row_width + 2` slots: row `i` of diagonal `d`
//! sits at index `i - b_d + 1`, and indices `0` and `cnt + 1` (with
//! `cnt = a_d - b_d + 1`) hold `+∞` sentinels. A diagonal never has more
//! cells than the widest row — row `a_d` spans `[d - a_d, d - b_d]`
//! because `hi` is monotone — so the scratch is O(band width), not
//! O(series length). Relative to cell `(i, d-i)` at index `k = i - b_d`,
//! the `up` and `left` predecessors sit on diagonal `d-1` at `k + s₁`
//! and `k + s₁ + 1` with `s₁ = b_d - b_{d-1} ∈ {0, 1}`, and `diag` on
//! `d-2` at `k + s₂` with `s₂ = b_d - b_{d-2} ∈ {0, 1, 2}`. Because the
//! cursors advance at most one row per diagonal (`b_d ≥ b_{d-1}`,
//! `a_d ≤ a_{d-1} + 1`), every such read lands either on a cell written
//! for that diagonal or on one of its two sentinels — and a sentinel
//! read is always a genuinely out-of-window predecessor, so `+∞` is the
//! correct value. `y` is consulted once per diagonal as `y[d - i]`, a
//! backwards stride; the kernel reverses it once into scratch so the
//! cell loop reads all five streams (x, reversed-y, up, left, diag)
//! forward.

use crate::cost::CostFn;
use crate::error::Result;
use crate::window::SearchWindow;
use tsdtw_obs::Meter;

use super::sweep::neighbor_min;
use super::windowed::DtwBuffer;

/// Windowed DTW distance in wavefront order. Inputs are already
/// validated by the caller ([`windowed_distance_metered_kernel`]
/// dispatches here after `check_inputs`).
///
/// Meter counters are recorded from the window bounds alone — the same
/// per-row `window_cells`/`cells` and the same two-logical-rows
/// `dp_buffer_bytes` figure as the row sweep — so `WorkMeter` state is
/// byte-identical across tiers.
///
/// [`windowed_distance_metered_kernel`]: super::windowed::windowed_distance_metered_kernel
pub(crate) fn wavefront_distance<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    window: &SearchWindow,
    cost: C,
    buf: &mut DtwBuffer,
    meter: &mut M,
) -> Result<f64> {
    // Nested under the dispatcher's `dtw_windowed` span so sampled
    // profiles can split wavefront self-time from the row sweep's —
    // without this frame the two tiers are indistinguishable in a
    // flame view.
    let _span = tsdtw_obs::span("dtw_wavefront");
    let n = x.len();
    let m = y.len();

    // Tier-invariant metering: identical values to the row sweep's
    // per-row calls, folded in the same (order-insensitive) hooks.
    let width = window.max_row_width();
    meter.dp_buffer_bytes(2 * width as u64 * std::mem::size_of::<f64>() as u64);
    for i in 0..n {
        let (lo, hi) = window.row_bounds(i);
        meter.window_cells((hi - lo + 1) as u64);
        meter.cells((hi - lo + 1) as u64);
    }

    // Every diagonal fits in `width` cells plus its two sentinels.
    let slots = width + 2;
    for diagonal in [&mut buf.wf_prev2, &mut buf.wf_prev, &mut buf.wf_cur] {
        diagonal.clear();
        diagonal.resize(slots, f64::INFINITY);
    }
    buf.yrev.clear();
    buf.yrev.extend(y.iter().rev());

    // Diagonal 0 is the corner cell alone: the sweep computes it as
    // `acc = 0.0 + cost`, bitwise the bare cost on this domain. Its
    // sentinels at 0 and 2 are already `+∞`.
    buf.wf_cur[1] = cost.cost(x[0], y[0]);
    rotate(buf);

    // First rows b_{d-1} and b_{d-2} of the two previous diagonals. The
    // buffer standing in for diagonal -1 is all `+∞`, so its base only
    // has to keep the reads in range; 0 does.
    let mut base1 = 0usize;
    let mut base2 = 0usize;
    // Cursors over the admissible row interval [imin, imax] = [b_d, a_d].
    let mut imin = 0usize;
    let mut imax = 0usize;
    for d in 1..=(n + m - 2) {
        // Advance b_d: smallest row whose interval still reaches d.
        while imin + window.row_bounds(imin).1 < d {
            imin += 1;
            debug_assert!(imin < n, "g(n-1) = n+m-2 bounds every diagonal");
        }
        // Advance a_d: largest row whose interval has started by d.
        while imax + 1 < n && (imax + 1) + window.row_bounds(imax + 1).0 <= d {
            imax += 1;
        }
        let s1 = imin - base1;
        let s2 = imin - base2;

        if imin <= imax {
            let cnt = imax - imin + 1;
            debug_assert!(cnt <= width, "a diagonal never outgrows the widest row");
            // y[d - i] for i in [imin, imax] is yrev[i + m - 1 - d],
            // a forward slice (imin ≥ d - m + 1 by admissibility).
            let yoff = imin + m - 1 - d;
            let xs = &x[imin..imin + cnt];
            let yr = &buf.yrev[yoff..yoff + cnt];
            // Predecessors of (i, d-i) at index k = i - imin: up = (i-1, j)
            // and left = (i, j-1) on diagonal d-1 at k + s1 and k + s1 + 1;
            // diag = (i-1, j-1) on d-2 at k + s2.
            let up_s = &buf.wf_prev[s1..s1 + cnt];
            let left_s = &buf.wf_prev[s1 + 1..s1 + 1 + cnt];
            let diag_s = &buf.wf_prev2[s2..s2 + cnt];
            let out = &mut buf.wf_cur[1..1 + cnt];

            // Every cell is independent and every slice is `cnt` long, so
            // the bounds checks fold away and the loop vectorizer packs
            // the body, with a one-cell scalar remainder.
            for k in 0..cnt {
                out[k] = cost.cost(xs[k], yr[k]) + neighbor_min(diag_s[k], up_s[k], left_s[k]);
            }
        }

        // Sentinels bracketing the written cells at 0 and cnt + 1 (for
        // an empty diagonal, imin = imax + 1 and they are 0 and 1).
        // Reads on diagonals d+1 and d+2 stay within [0, cnt + 1] of
        // this buffer by cursor monotonicity, so nothing stale escapes.
        buf.wf_cur[0] = f64::INFINITY;
        buf.wf_cur[imax + 2 - imin] = f64::INFINITY;
        rotate(buf);
        base2 = base1;
        base1 = imin;
    }

    // After the final rotation the last diagonal — the bottom-right cell
    // (n-1, m-1) alone — sits in wf_prev at index 1.
    Ok(cost.finish(buf.wf_prev[1]))
}

/// `(prev2, prev, cur) ← (prev, cur, prev2)` — the retired `prev2`
/// buffer is recycled as the next diagonal's output.
#[inline]
fn rotate(buf: &mut DtwBuffer) {
    std::mem::swap(&mut buf.wf_prev2, &mut buf.wf_prev);
    std::mem::swap(&mut buf.wf_prev, &mut buf.wf_cur);
}

#[cfg(test)]
mod tests {
    use crate::cost::{AbsoluteCost, Rooted, SquaredCost};
    use crate::dtw::windowed::{windowed_distance_metered_kernel, DtwBuffer};
    use crate::window::SearchWindow;
    use crate::Kernel;
    use tsdtw_obs::WorkMeter;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64 + seed as f64 * 0.7) * 0.37).sin() * 3.0)
            .collect()
    }

    fn assert_wavefront_matches(x: &[f64], y: &[f64], w: &SearchWindow) {
        let mut buf = DtwBuffer::new();
        let mut m_seg = WorkMeter::new();
        let d_seg = windowed_distance_metered_kernel(x, y, w, SquaredCost, &mut buf, &mut m_seg, {
            Kernel::Segmented
        })
        .unwrap();
        let mut m_wf = WorkMeter::new();
        let d_wf = windowed_distance_metered_kernel(
            x,
            y,
            w,
            SquaredCost,
            &mut buf,
            &mut m_wf,
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(
            d_wf.to_bits(),
            d_seg.to_bits(),
            "{}x{} window",
            w.n_rows(),
            w.n_cols()
        );
        assert_eq!(m_wf, m_seg, "meters must be tier-invariant");
    }

    #[test]
    fn matches_row_sweep_on_bands_including_empty_diagonals() {
        // band 0 on equal lengths makes every odd diagonal empty — the
        // sentinel scheme's hardest shape.
        for n in [1usize, 2, 3, 7, 16, 33] {
            let x = series(n, 1);
            let y = series(n, 2);
            for band in [0usize, 1, 2, 5, n] {
                let w = SearchWindow::sakoe_chiba(n, n, band);
                assert_wavefront_matches(&x, &y, &w);
            }
        }
    }

    #[test]
    fn matches_row_sweep_on_rectangular_and_degenerate_shapes() {
        for (n, m) in [(1usize, 9usize), (9, 1), (5, 13), (13, 5), (24, 25)] {
            let x = series(n, 3);
            let y = series(m, 4);
            for band in [0usize, 2, 7, n.max(m)] {
                let w = SearchWindow::sakoe_chiba(n, m, band);
                assert_wavefront_matches(&x, &y, &w);
            }
        }
    }

    #[test]
    fn packed_body_and_remainder_cover_every_diagonal_length() {
        // A full n × m window's diagonals hold every count from 1 to
        // min(n, m) cells: the 1-, 2- and 3-cell shapes run the one-cell
        // remainder alone, one packed pair, and a pair plus the
        // remainder; the squares run odd and even counts up to 65.
        let thin = [(1usize, 1usize), (2, 2), (3, 3), (40, 1), (2, 41), (40, 3)];
        let squares = [4usize, 5, 16, 17, 32, 33, 64, 65].map(|n| (n, n));
        for (n, m) in thin.into_iter().chain(squares) {
            let x = series(n, 5);
            let y = series(m, 6);
            assert_wavefront_matches(&x, &y, &SearchWindow::full(n, m));
        }
    }

    #[test]
    fn other_costs_match_too() {
        let x = series(19, 7);
        let y = series(19, 8);
        let w = SearchWindow::sakoe_chiba(19, 19, 4);
        let mut buf = DtwBuffer::new();
        let d_seg = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            AbsoluteCost,
            &mut buf,
            &mut WorkMeter::new(),
            Kernel::Segmented,
        )
        .unwrap();
        let d_wf = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            AbsoluteCost,
            &mut buf,
            &mut WorkMeter::new(),
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(d_wf.to_bits(), d_seg.to_bits());
        let r_seg = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            Rooted(SquaredCost),
            &mut buf,
            &mut WorkMeter::new(),
            Kernel::Segmented,
        )
        .unwrap();
        let r_wf = windowed_distance_metered_kernel(
            &x,
            &y,
            &w,
            Rooted(SquaredCost),
            &mut buf,
            &mut WorkMeter::new(),
            Kernel::Wavefront,
        )
        .unwrap();
        assert_eq!(r_wf.to_bits(), r_seg.to_bits());
    }
}
