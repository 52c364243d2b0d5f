//! Run-length-encoded series and the exact RLE-DTW block kernel.
//!
//! The paper's core claim is that *exact* DTW, engineered to exploit
//! structure, beats its approximation. One such structure is run
//! compressibility: smart-meter state traces, dishwasher power demand
//! and similar workloads are piecewise constant, so a series of `N`
//! points collapses to `k ≪ N` runs. Froese, Jain, Rymar and Weller
//! (arXiv:1903.03003) show exact DTW can then be computed over the
//! `k × l` grid of *run pairs* instead of the `N × M` grid of points;
//! Golan, Mozes and Weimann (arXiv:2302.06252) sharpen the bound
//! further. This module implements the block decomposition:
//!
//! * [`RleSeries`] — lossless run-length encoding ([`RleSeries::encode`]
//!   merges on **bitwise** equality, so decode restores every input bit,
//!   `±0.0` and all) plus an epsilon-quantized lossy variant
//!   ([`RleSeries::encode_quantized`]).
//! * [`rle_dtw_distance`] / [`rle_dtw_distance_metered`] — exact DTW
//!   over two encoded series. Every cell inside the run-pair block
//!   `(i, j)` has the same local cost `c = cost(xᵢ, yⱼ)`, so the dense
//!   recurrence restricted to the block is a shortest-path problem whose
//!   optimum from any boundary entry is `entry + c · steps`, with
//!   `steps = max(Δrow, Δcol)` (the cheapest monotone staircase takes
//!   the diagonal as long as it can). The kernel therefore only
//!   computes each block's *bottom row and right column* — `O(p + q)`
//!   work per block via sliding-window and prefix/suffix minima instead
//!   of `O(p · q)` — for a total of `O(l·N + k·M)` against the dense
//!   kernels' `Θ(N·M)`.
//!
//! ## Exactness contract
//!
//! The block recurrence is algebraically identical to the dense DP: a
//! monotone function (`x ↦ fl(x + c)`) commutes with `min`, so the
//! dense value at a block boundary is the minimum over entries of a
//! chain of rounded additions. The kernel computes each candidate as
//! `entry + c · steps` in two rounded operations. Whenever the run
//! values (and therefore the per-block costs and their partial sums)
//! are exactly representable — integers, dyadic rationals such as
//! multiples of `0.25`, any values a quantizer emits from a small grid,
//! with magnitudes small enough that sums stay below `2^53` — both
//! computations are exact and the RLE distance is **bitwise identical**
//! to [`full`](crate::dtw::full) / [`banded`](crate::dtw::banded) DTW
//! (`tests/rle_equivalence.rs` is the differential proof, run across
//! the PR 4 kernel-equivalence case grid). On arbitrary float run
//! values the two rounding schedules may differ in the last few ulps;
//! the suite bounds that at ≤ 1e-12 relative.
//!
//! ## Auto dispatch
//!
//! [`Kernel::Auto`](crate::dtw::kernel::Kernel) consults
//! [`auto_picks_rle`]: when both series are available at a full
//! (unconstrained) window and the combined compression ratio
//! `(k + l) / (N + M)` is at most [`AUTO_THRESHOLD`], the RLE kernel
//! runs; otherwise the row sweep does. The threshold is measured,
//! not guessed: the `rle` repro experiment sweeps the compression ratio
//! and the crossover against the banded sweep sits near `runs/points ≈
//! 0.1` (see DESIGN.md §15). `Kernel::Rle` forces the block kernel at
//! the same entry points regardless of ratio.

use std::collections::VecDeque;

use tsdtw_obs::Meter;

use crate::cost::CostFn;
use crate::error::{check_finite, check_nonempty, Error, Result};

/// One run: `len` consecutive samples of the identical `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Run {
    /// The sample value every point of the run carries.
    pub value: f64,
    /// How many consecutive points the run covers (always ≥ 1).
    pub len: usize,
}

/// A run-length-encoded series: the sequence of [`Run`]s plus the
/// decoded length. Constructed only through [`encode`](Self::encode) /
/// [`encode_quantized`](Self::encode_quantized), which validate
/// finiteness, so every stored value is finite by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RleSeries {
    runs: Vec<Run>,
    len: usize,
}

/// Compression ratio (`runs / points`) at or below which
/// [`Kernel::Auto`](crate::dtw::kernel::Kernel) routes a full-window
/// distance through the RLE block kernel. Inclusive: a ratio exactly at
/// the threshold picks RLE deterministically.
///
/// The value is the measured crossover of the `rle` repro experiment
/// (compression-ratio sweep, DESIGN.md §15): at 10 % runs/points the
/// block kernel's boundary-cell work roughly matches a 10 %-band sweep,
/// and below it the block kernel wins linearly in `1/ratio`.
pub const AUTO_THRESHOLD: f64 = 0.1;

impl RleSeries {
    /// Losslessly encodes a dense series.
    ///
    /// Adjacent samples join the same run only when they are equal
    /// **bitwise** (`to_bits()`), so `decode` restores the input
    /// exactly — in particular `+0.0` and `-0.0` start separate runs
    /// even though they compare `==` numerically. Rejects empty input
    /// and non-finite values with the same errors the dense kernels
    /// use.
    pub fn encode(xs: &[f64]) -> Result<RleSeries> {
        check_nonempty("series", xs)?;
        check_finite("series", xs)?;
        let mut runs: Vec<Run> = Vec::new();
        for &x in xs {
            match runs.last_mut() {
                Some(run) if run.value.to_bits() == x.to_bits() => run.len += 1,
                _ => runs.push(Run { value: x, len: 1 }),
            }
        }
        Ok(RleSeries {
            runs,
            len: xs.len(),
        })
    }

    /// Lossy variant: a sample joins the current run while it stays
    /// within `epsilon` of the run's **first** value (the anchor, which
    /// becomes the run's stored value).
    ///
    /// Anchoring on the first value rather than a running mean keeps
    /// the encoding single-pass and deterministic; the reconstruction
    /// error is bounded by `epsilon` per point. With `epsilon = 0.0`
    /// the comparison is numeric rather than bitwise, so — unlike
    /// [`encode`](Self::encode) — `+0.0` and `-0.0` merge into one run.
    pub fn encode_quantized(xs: &[f64], epsilon: f64) -> Result<RleSeries> {
        if !epsilon.is_finite() || epsilon < 0.0 {
            return Err(Error::InvalidParameter {
                name: "epsilon",
                reason: format!("quantization tolerance must be finite and >= 0, got {epsilon}"),
            });
        }
        check_nonempty("series", xs)?;
        check_finite("series", xs)?;
        let mut runs: Vec<Run> = Vec::new();
        for &x in xs {
            match runs.last_mut() {
                Some(run) if (x - run.value).abs() <= epsilon => run.len += 1,
                _ => runs.push(Run { value: x, len: 1 }),
            }
        }
        Ok(RleSeries {
            runs,
            len: xs.len(),
        })
    }

    /// Expands the encoding back to a dense series. For
    /// [`encode`](Self::encode) this is a bitwise round-trip; for
    /// [`encode_quantized`](Self::encode_quantized) each point lands on
    /// its run's anchor value.
    pub fn decode(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len);
        for run in &self.runs {
            out.resize(out.len() + run.len, run.value);
        }
        out
    }

    /// Decoded length in points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series decodes to zero points (never true for a
    /// constructed series — `encode` rejects empty input — but the
    /// conventional pair to [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of runs (`k` in the complexity bounds).
    pub fn n_runs(&self) -> usize {
        self.runs.len()
    }

    /// The runs themselves.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// `runs / points` — 1.0 means incompressible, small means long
    /// constant stretches.
    pub fn compression_ratio(&self) -> f64 {
        if self.len == 0 {
            1.0
        } else {
            self.runs.len() as f64 / self.len as f64
        }
    }
}

/// Number of runs a lossless encoding of `xs` would have, in one O(N)
/// pass without allocating (what the `Auto` dispatch probe calls).
/// Bitwise adjacency, matching [`RleSeries::encode`]; 0 for empty.
pub fn count_runs(xs: &[f64]) -> usize {
    if xs.is_empty() {
        return 0;
    }
    1 + xs
        .windows(2)
        .filter(|w| w[0].to_bits() != w[1].to_bits())
        .count()
}

/// Combined compression ratio `(runs_x + runs_y) / (len_x + len_y)` of
/// a pair, the quantity [`Kernel::Auto`](crate::dtw::kernel::Kernel)
/// thresholds. 1.0 for an empty pair (so dispatch never picks RLE and
/// the dense kernels report their usual empty-input error).
pub fn auto_ratio(x: &[f64], y: &[f64]) -> f64 {
    let points = x.len() + y.len();
    if points == 0 {
        1.0
    } else {
        (count_runs(x) + count_runs(y)) as f64 / points as f64
    }
}

/// Whether `Kernel::Auto` routes this full-window pair through the RLE
/// block kernel: [`auto_ratio`] at most [`AUTO_THRESHOLD`] (inclusive,
/// so exactly-at-threshold inputs pick RLE deterministically).
pub fn auto_picks_rle(x: &[f64], y: &[f64]) -> bool {
    auto_picks_rle_metered(x, y, &mut tsdtw_obs::NoMeter)
}

/// [`auto_picks_rle`] with the probe itself recorded
/// ([`Meter::rle_probe`]): the dispatch points call this so the O(N)
/// compressibility pass is visible in the work counters — a banded call
/// whose band never covers the full window must record zero probes.
pub fn auto_picks_rle_metered<M: Meter>(x: &[f64], y: &[f64], meter: &mut M) -> bool {
    meter.rle_probe();
    auto_ratio(x, y) <= AUTO_THRESHOLD
}

/// Exact DTW distance between two encoded series (un-metered).
pub fn rle_dtw_distance<C: CostFn>(x: &RleSeries, y: &RleSeries, cost: C) -> Result<f64> {
    rle_dtw_distance_metered(x, y, cost, &mut tsdtw_obs::NoMeter)
}

/// Exact DTW distance between two encoded series, recording
/// [`Meter::rle_encoded`] / [`Meter::rle_block`] work counters.
pub fn rle_dtw_distance_metered<C: CostFn, M: Meter>(
    x: &RleSeries,
    y: &RleSeries,
    cost: C,
    mut meter: M,
) -> Result<f64> {
    if x.is_empty() {
        return Err(Error::EmptyInput { which: "x" });
    }
    if y.is_empty() {
        return Err(Error::EmptyInput { which: "y" });
    }
    let _span = tsdtw_obs::span("dtw_rle");
    meter.rle_encoded(x.n_runs() as u64);
    meter.rle_encoded(y.n_runs() as u64);
    let acc = rle_accumulated(x.runs(), y.runs(), cost, &mut meter);
    Ok(cost.finish(acc))
}

/// Convenience entry for dense callers (the `Kernel::Rle` / `Auto`
/// dispatch points): validates, encodes both sides and runs the block
/// kernel.
pub fn dtw_distance_rle<C: CostFn, M: Meter>(
    x: &[f64],
    y: &[f64],
    cost: C,
    meter: M,
) -> Result<f64> {
    check_nonempty("x", x)?;
    check_nonempty("y", y)?;
    check_finite("x", x)?;
    check_finite("y", y)?;
    let (xr, yr) = (encode_checked("x", x)?, encode_checked("y", y)?);
    rle_dtw_distance_metered(&xr, &yr, cost, meter)
}

/// Encode with the argument name preserved in any error (encode's own
/// errors say `"series"`; the distance entry points name `x`/`y` like
/// the dense kernels do).
fn encode_checked(which: &'static str, xs: &[f64]) -> Result<RleSeries> {
    RleSeries::encode(xs).map_err(|e| match e {
        Error::EmptyInput { .. } => Error::EmptyInput { which },
        Error::NonFiniteInput { index, .. } => Error::NonFiniteInput { which, index },
        other => other,
    })
}

/// The block-decomposition DP over run pairs. Returns the accumulated
/// (un-`finish`ed) cost at the bottom-right dense cell.
///
/// State between block rows is the dense bottom boundary `top[c]`
/// (`c` in dense columns); within a block row, `left`/`right` carry the
/// right column of the previous block. The virtual dense row/column
/// `-1` is `+∞` everywhere except the origin corner `v(-1,-1) = 0`.
fn rle_accumulated<C: CostFn, M: Meter>(xr: &[Run], yr: &[Run], cost: C, meter: &mut M) -> f64 {
    let m: usize = yr.iter().map(|r| r.len).sum();
    let max_p = xr.iter().map(|r| r.len).max().expect("non-empty");
    let max_q = yr.iter().map(|r| r.len).max().expect("non-empty");

    // Dense bottom boundary of the previous block row.
    let mut top = vec![f64::INFINITY; m];
    let mut scratch = BlockScratch::new(max_p, max_q);
    let mut left = vec![f64::INFINITY; max_p];
    let mut right = vec![f64::INFINITY; max_p];
    let mut bottom = vec![f64::INFINITY; max_q];
    meter.dp_buffer_bytes(
        ((m + 2 * max_p + max_q + scratch.capacity()) * std::mem::size_of::<f64>()) as u64,
    );

    let mut first_row = true;
    for rx in xr {
        let p = rx.len;
        left[..p].fill(f64::INFINITY);
        // T[0] of the leftmost block is v(r0-1, -1): the origin corner 0
        // on the first block row, the +∞ border below it.
        let mut corner = if first_row { 0.0 } else { f64::INFINITY };
        first_row = false;
        let mut c0 = 0usize;
        for ry in yr {
            let q = ry.len;
            let c = cost.cost(rx.value, ry.value);
            scratch.t[0] = corner;
            scratch.t[1..=q].copy_from_slice(&top[c0..c0 + q]);
            // The next block's corner is v(r0-1, c0+q-1) — the value
            // `top` holds *before* this block's bottom row overwrites it.
            corner = top[c0 + q - 1];
            solve_block(
                c,
                p,
                q,
                &left[..p],
                &mut bottom[..q],
                &mut right[..p],
                &mut scratch,
            );
            meter.rle_block((p + q) as u64);
            top[c0..c0 + q].copy_from_slice(&bottom[..q]);
            std::mem::swap(&mut left, &mut right);
            c0 += q;
        }
    }
    top[m - 1]
}

/// Reusable per-block scratch: the top boundary (with corner) and the
/// prefix/suffix minima plus the two sliding-window deques.
struct BlockScratch {
    /// `t[d] = v(r0-1, c0-1+d)`, `d ∈ 0..=q` (`t[0]` is the corner).
    t: Vec<f64>,
    /// Suffix minima of `l`: `sufl[e] = min(l[e..])`, `sufl[p] = +∞`.
    sufl: Vec<f64>,
    /// Prefix minima of `l[e] + c·(p-1-e)` (left entries whose cheapest
    /// staircase is row-dominated: `steps = p-1-e`, independent of the
    /// target column).
    prefl: Vec<f64>,
    /// Suffix minima of `t`: `suft[d] = min(t[d..])`, `suft[q+1] = +∞`.
    suft: Vec<f64>,
    /// Prefix minima of `t[d] + c·(q-d)` (top entries whose cheapest
    /// staircase is column-dominated).
    preft: Vec<f64>,
    /// Monotone deque for the diagonal-dominated sliding-window minima.
    deque: VecDeque<usize>,
}

impl BlockScratch {
    fn new(max_p: usize, max_q: usize) -> BlockScratch {
        BlockScratch {
            t: vec![f64::INFINITY; max_q + 1],
            sufl: vec![f64::INFINITY; max_p + 1],
            prefl: vec![f64::INFINITY; max_p],
            suft: vec![f64::INFINITY; max_q + 2],
            preft: vec![f64::INFINITY; max_q + 1],
            deque: VecDeque::with_capacity(max_p.max(max_q) + 2),
        }
    }

    /// Total scratch capacity in f64 slots (for the peak-bytes meter).
    fn capacity(&self) -> usize {
        self.t.len() + self.sufl.len() + self.prefl.len() + self.suft.len() + self.preft.len()
    }
}

/// Solves one `p × q` block of constant cost `c`.
///
/// Inputs: `scratch.t[0..=q]` (dense row above, corner first) and
/// `l[0..p]` (dense column to the left). Outputs: `b[0..q]` (the
/// block's bottom row) and `r[0..p]` (its right column; `r[p-1]` is
/// assigned from `b[q-1]`, the shared corner).
///
/// Every candidate is `entry + c · steps` with
/// `steps = max(Δrow, Δcol)`; the minimum over entries splits into
/// four classes per output cell, each O(1) via a precomputed or
/// incrementally-maintained minimum:
///
/// * diagonal-dominated top entries (`steps = p` for `b`): sliding
///   window minimum over `t` (monotone deque);
/// * column-dominated top entries (`steps = d+1-d' > p`): a running
///   minimum that absorbs `+c` per column — exactly the dense DP's
///   fold, so it commutes with the window class bit-for-bit on
///   exactly-representable inputs;
/// * row-dominated left entries (`steps = d+1`): suffix minima of `l`;
/// * column-dominated left entries (`steps = p-1-e`): prefix minima of
///   `l[e] + c·(p-1-e)`.
///
/// (and symmetrically for `r`).
fn solve_block(
    c: f64,
    p: usize,
    q: usize,
    l: &[f64],
    b: &mut [f64],
    r: &mut [f64],
    scratch: &mut BlockScratch,
) {
    let BlockScratch {
        t,
        sufl,
        prefl,
        suft,
        preft,
        deque,
    } = scratch;
    let t = &t[..=q];
    let pf = p as f64;
    let qf = q as f64;

    // Left-entry minima for the bottom row.
    sufl[p] = f64::INFINITY;
    for e in (0..p).rev() {
        sufl[e] = l[e].min(sufl[e + 1]);
    }
    let mut acc = f64::INFINITY;
    for e in 0..p {
        acc = acc.min(l[e] + c * (p - 1 - e) as f64);
        prefl[e] = acc;
    }

    // ---- bottom row ----
    deque.clear();
    let push = |deque: &mut VecDeque<usize>, idx: usize| {
        while let Some(&back) = deque.back() {
            if t[back] >= t[idx] {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(idx);
    };
    push(deque, 0);
    let mut ttail = f64::INFINITY;
    for d in 0..q {
        // Window [max(0, d+1-p), d+1] over t: admit the new right end,
        // retire entries that fell off the left end.
        push(deque, d + 1);
        let lo = (d + 1).saturating_sub(p);
        while *deque.front().expect("window never empty") < lo {
            deque.pop_front();
        }
        let wmin = t[*deque.front().expect("window never empty")];
        let mut best = wmin + c * pf;
        // Top entries too far left for the diagonal: they pay one more
        // +c per column, entering at steps = p+1.
        if d >= p {
            ttail = (ttail + c).min(t[d - p] + c * (pf + 1.0));
            best = best.min(ttail);
        }
        // Left entries: row-dominated (steps = d+1) ...
        let e0 = p.saturating_sub(d + 2);
        best = best.min(sufl[e0] + c * (d + 1) as f64);
        // ... and column-dominated (steps = p-1-e, needs e <= p-d-3).
        if p >= d + 3 {
            best = best.min(prefl[p - d - 3]);
        }
        b[d] = best;
    }

    // ---- right column (r[p-1] is the shared corner) ----
    suft[q + 1] = f64::INFINITY;
    for d in (0..=q).rev() {
        suft[d] = t[d].min(suft[d + 1]);
    }
    let mut acc = f64::INFINITY;
    for d in 0..=q {
        acc = acc.min(t[d] + c * (q - d) as f64);
        preft[d] = acc;
    }
    deque.clear();
    let lpush = |deque: &mut VecDeque<usize>, idx: usize| {
        while let Some(&back) = deque.back() {
            if l[back] >= l[idx] {
                deque.pop_back();
            } else {
                break;
            }
        }
        deque.push_back(idx);
    };
    let mut ltail = f64::INFINITY;
    for e in 0..p.saturating_sub(1) {
        lpush(deque, e);
        let lo = e.saturating_sub(q);
        while *deque.front().expect("window never empty") < lo {
            deque.pop_front();
        }
        let lwmin = l[*deque.front().expect("window never empty")];
        // Top entries, row-dominated (steps = e+1).
        let mut best = suft[q.saturating_sub(e + 1)] + c * (e + 1) as f64;
        // Top entries, column-dominated (steps = q-d', needs d' <= q-e-2).
        if q >= e + 2 {
            best = best.min(preft[q - e - 2]);
        }
        // Left entries, diagonal-dominated (steps = q).
        best = best.min(lwmin + c * qf);
        // Left entries too far up for the diagonal.
        if e > q {
            ltail = (ltail + c).min(l[e - q - 1] + c * (qf + 1.0));
            best = best.min(ltail);
        }
        r[e] = best;
    }
    r[p - 1] = b[q - 1];
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{AbsoluteCost, SquaredCost};
    use crate::dtw::full::dtw_distance;
    use tsdtw_obs::WorkMeter;

    fn bits(x: f64) -> u64 {
        x.to_bits()
    }

    #[test]
    fn encode_round_trips_bitwise() {
        let xs = vec![1.0, 1.0, 2.5, 2.5, 2.5, -0.0, 0.0, 0.0, 7.0];
        let e = RleSeries::encode(&xs).unwrap();
        // -0.0 and +0.0 are bitwise-distinct: separate runs.
        assert_eq!(e.n_runs(), 5);
        assert_eq!(e.len(), xs.len());
        let back = e.decode();
        assert_eq!(back.len(), xs.len());
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(bits(*a), bits(*b));
        }
    }

    #[test]
    fn encode_rejects_empty_and_non_finite() {
        assert!(matches!(
            RleSeries::encode(&[]),
            Err(Error::EmptyInput { .. })
        ));
        assert!(matches!(
            RleSeries::encode(&[1.0, f64::NAN]),
            Err(Error::NonFiniteInput { index: 1, .. })
        ));
        assert!(matches!(
            RleSeries::encode(&[f64::INFINITY]),
            Err(Error::NonFiniteInput { index: 0, .. })
        ));
    }

    #[test]
    fn quantized_encode_anchors_on_first_value() {
        let xs = vec![1.0, 1.2, 1.4, 2.0, 2.3];
        let e = RleSeries::encode_quantized(&xs, 0.5).unwrap();
        // 1.0 anchors [1.0, 1.2, 1.4]; 2.0 anchors [2.0, 2.3].
        assert_eq!(e.n_runs(), 2);
        assert_eq!(e.decode(), vec![1.0, 1.0, 1.0, 2.0, 2.0]);
        // epsilon = 0 merges numerically equal values: ±0.0 join.
        let zeros = RleSeries::encode_quantized(&[0.0, -0.0], 0.0).unwrap();
        assert_eq!(zeros.n_runs(), 1);
        // Bad epsilon is rejected.
        assert!(RleSeries::encode_quantized(&xs, -1.0).is_err());
        assert!(RleSeries::encode_quantized(&xs, f64::NAN).is_err());
    }

    #[test]
    fn run_counting_and_ratios() {
        assert_eq!(count_runs(&[]), 0);
        assert_eq!(count_runs(&[3.0]), 1);
        assert_eq!(count_runs(&[3.0, 3.0, 1.0]), 2);
        let xs = vec![5.0; 40];
        let e = RleSeries::encode(&xs).unwrap();
        assert_eq!(e.compression_ratio(), 1.0 / 40.0);
        assert_eq!(auto_ratio(&xs, &xs), 2.0 / 80.0);
        assert!(auto_picks_rle(&xs, &xs));
        let distinct: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_eq!(auto_ratio(&distinct, &distinct), 1.0);
        assert!(!auto_picks_rle(&distinct, &distinct));
    }

    #[test]
    fn threshold_is_inclusive() {
        // 4 + 4 runs over 40 + 40 points: ratio exactly 0.1.
        let mut xs = Vec::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            xs.extend(std::iter::repeat_n(v, 10));
        }
        assert_eq!(auto_ratio(&xs, &xs), AUTO_THRESHOLD);
        assert!(auto_picks_rle(&xs, &xs));
    }

    /// Dense reference DP (guarded textbook recurrence) over decoded
    /// series, for differential checks independent of the sweep kernels.
    fn naive_dtw<C: CostFn>(x: &[f64], y: &[f64], cost: C) -> f64 {
        let (n, m) = (x.len(), y.len());
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut cur = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;
        for &xi in x.iter().take(n) {
            cur[0] = f64::INFINITY;
            for j in 0..m {
                let c = cost.cost(xi, y[j]);
                cur[j + 1] = c + prev[j].min(prev[j + 1]).min(cur[j]);
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        cost.finish(prev[m])
    }

    /// Deterministic piecewise-constant series over dyadic levels.
    fn state_trace(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut out = Vec::with_capacity(n);
        let mut level = (next() % 8) as f64 * 0.25;
        while out.len() < n {
            let run = 1 + (next() % 9) as usize;
            for _ in 0..run.min(n - out.len()) {
                out.push(level);
            }
            level = (next() % 8) as f64 * 0.25;
        }
        out
    }

    #[test]
    fn block_kernel_matches_dense_bitwise_on_dyadic_runs() {
        for seed in 1..24u64 {
            let n = 16 + (seed as usize * 7) % 70;
            let m = 16 + (seed as usize * 11) % 70;
            let x = state_trace(seed, n);
            let y = state_trace(seed.wrapping_add(1000), m);
            let xr = RleSeries::encode(&x).unwrap();
            let yr = RleSeries::encode(&y).unwrap();
            for (label, rle, dense) in [
                (
                    "squared",
                    rle_dtw_distance(&xr, &yr, SquaredCost).unwrap(),
                    naive_dtw(&x, &y, SquaredCost),
                ),
                (
                    "absolute",
                    rle_dtw_distance(&xr, &yr, AbsoluteCost).unwrap(),
                    naive_dtw(&x, &y, AbsoluteCost),
                ),
            ] {
                assert_eq!(
                    bits(rle),
                    bits(dense),
                    "seed {seed} ({label}): rle {rle} vs dense {dense}"
                );
            }
        }
    }

    #[test]
    fn all_distinct_series_still_match_dense_bitwise() {
        // k == N: every block is 1×1 and the decomposition degenerates
        // to the dense DP (with integer values, so steps arithmetic is
        // exact).
        let x: Vec<f64> = (0..30).map(|i| ((i * 7) % 13) as f64).collect();
        let y: Vec<f64> = (0..25).map(|i| ((i * 5) % 11) as f64).collect();
        let xr = RleSeries::encode(&x).unwrap();
        let yr = RleSeries::encode(&y).unwrap();
        assert_eq!(xr.n_runs(), 30);
        let d = rle_dtw_distance(&xr, &yr, SquaredCost).unwrap();
        assert_eq!(bits(d), bits(naive_dtw(&x, &y, SquaredCost)));
        assert_eq!(bits(d), bits(dtw_distance(&x, &y, SquaredCost).unwrap()));
    }

    #[test]
    fn single_run_pair_is_max_length_times_cost() {
        let x = vec![2.0; 13];
        let y = vec![5.0; 7];
        let xr = RleSeries::encode(&x).unwrap();
        let yr = RleSeries::encode(&y).unwrap();
        let d = rle_dtw_distance(&xr, &yr, SquaredCost).unwrap();
        assert_eq!(d, 9.0 * 13.0);
        assert_eq!(bits(d), bits(naive_dtw(&x, &y, SquaredCost)));
    }

    #[test]
    fn meter_records_runs_blocks_and_boundary_cells() {
        let x = state_trace(5, 64);
        let y = state_trace(6, 64);
        let xr = RleSeries::encode(&x).unwrap();
        let yr = RleSeries::encode(&y).unwrap();
        let mut m = WorkMeter::new();
        rle_dtw_distance_metered(&xr, &yr, SquaredCost, &mut m).unwrap();
        let (k, l) = (xr.n_runs() as u64, yr.n_runs() as u64);
        assert_eq!(m.rle_runs, k + l);
        assert_eq!(m.rle_blocks, k * l);
        // Each block contributes p + q boundary cells: summing over the
        // grid gives l·N + k·M.
        assert_eq!(m.rle_boundary_cells, l * 64 + k * 64);
        assert!(m.dp_peak_bytes > 0);
        // The dense cell counters stay untouched.
        assert_eq!(m.cells, 0);
        assert_eq!(m.window_cells, 0);
    }

    #[test]
    fn empty_sides_error_like_the_dense_kernels() {
        let ok = RleSeries::encode(&[1.0]).unwrap();
        let d = dtw_distance_rle(&[], &[1.0], SquaredCost, tsdtw_obs::NoMeter);
        assert!(matches!(d, Err(Error::EmptyInput { which: "x" })));
        let d = dtw_distance_rle(&[1.0], &[f64::NAN], SquaredCost, tsdtw_obs::NoMeter);
        assert!(matches!(
            d,
            Err(Error::NonFiniteInput {
                which: "y",
                index: 0
            })
        ));
        assert!(rle_dtw_distance(&ok, &ok, SquaredCost).is_ok());
    }
}
