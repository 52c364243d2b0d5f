//! Similarity search under exact `cDTW`: whole-series nearest neighbor and
//! UCR-suite-style subsequence search.
//!
//! The subsequence searcher is the machinery behind the paper's §3.4
//! citation of Rakthanmanon et al.: *"for similarity search of a cDTW_5
//! query of length 128 … searched a time series of length one trillion in
//! 1.4 days, however … FastDTW_10 would take 5.8 years."* It slides a
//! query over a long haystack and disposes of almost every position with
//! the lower-bound cascade before the DP ever runs. None of this machinery
//! is available to FastDTW.
//!
//! A search runs in two steps:
//!
//! 1. **Validate and normalize once.** One pass over the haystack rejects a
//!    non-finite value, then rolling sums give every window's
//!    `(mean, 1/std)`. The running sums are re-summed over the current
//!    window whenever the sum of squares falls below 2⁻²⁰ of its peak since
//!    the last re-sum, so a spike that leaves the window takes its
//!    cancellation error with it. A window whose sum of squares overflows
//!    is rejected. The search and the distance profile share this
//!    routine, so their windows agree bit for bit.
//! 2. **Score each window** in the UCR suite's order. LB_Kim reads the six
//!    corners of the window, z-normalized as they are read. The reordered,
//!    early-abandoning LB_Keogh normalizes each point it visits and records
//!    that point's contribution. A window that survives it has therefore
//!    visited every point, and its cumulative bound for early-abandoning
//!    `cDTW` is the suffix sum of those contributions, with no second pass.
//!    Only the windows that reach the DP are normalized in full, into a
//!    reused buffer. The bounds need no per-window validation: with a
//!    finite haystack and a finite sum of squares, every normalized value
//!    is finite.

use crate::par::{par_fold_argmin, par_map, ParConfig, CONTINUOUS};
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::cdtw_distance_metered_with_buf;
use tsdtw_core::dtw::early_abandon::{cdtw_distance_ea_metered_buf_kernel, EaOutcome};
use tsdtw_core::dtw::windowed::DtwBuffer;
use tsdtw_core::dtw::Kernel;
use tsdtw_core::envelope::Envelope;
use tsdtw_core::error::{Error, Result};
use tsdtw_core::lower_bounds::keogh::{
    lb_keogh_reordered_by, sort_indices_by_magnitude, suffix_sums_into,
};
use tsdtw_core::lower_bounds::kim::{lb_kim_corners, Corners};
use tsdtw_core::norm::{znorm, RESUM_BELOW};
use tsdtw_obs::{tightness_ppb, FunnelStage, LbKind, Meter, MeterShard, NoMeter, StageTag};

/// Outcome of a subsequence search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Start offset of the best-matching window in the haystack.
    pub position: usize,
    /// Its exact `cDTW_band` distance (squared-cost domain) after
    /// z-normalization of both query and window.
    pub distance: f64,
    /// How candidates were disposed of, for reporting pruning power.
    pub stats: SearchStats,
}

/// Per-stage candidate disposition counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Total candidate windows examined.
    pub candidates: u64,
    /// Pruned by LB_Kim.
    pub pruned_kim: u64,
    /// Pruned by (reordered, early-abandoning) LB_Keogh.
    pub pruned_keogh: u64,
    /// DTW started but abandoned early.
    pub dtw_abandoned: u64,
    /// DTW ran to completion.
    pub dtw_exact: u64,
}

impl SearchStats {
    /// Fraction of candidates that never reached the DP at all.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        (self.pruned_kim + self.pruned_keogh) as f64 / self.candidates as f64
    }

    fn count(&mut self, d: &Disposition) {
        self.candidates += 1;
        match d {
            Disposition::Kim => self.pruned_kim += 1,
            Disposition::Keogh => self.pruned_keogh += 1,
            Disposition::Abandoned => self.dtw_abandoned += 1,
            Disposition::Exact(_) => self.dtw_exact += 1,
        }
    }
}

/// A window's z-normalization, `(mean, 1/std)`; `1/std` is 0 for a
/// constant window, which normalizes to all zeros.
type Norm = (f64, f64);

/// Checks the query and haystack of a search, and returns the z-normalized
/// query with every window's `(mean, 1/std)`.
///
/// This is the search's only validation of the haystack: a non-finite
/// value fails with [`Error::NonFiniteInput`], and a window whose running
/// sum of squares is not finite (its squares overflow) fails with
/// [`Error::InvalidParameter`]. Past it, `(x − mean) · (1/std)` is finite
/// for every haystack value `x` of the window.
///
/// The sums roll by the UCR suite's recurrence: add the entering value (and
/// its square), subtract the leaving one. When the sum of squares falls
/// below 2⁻²⁰ of its peak since the last re-sum, both sums are recomputed
/// over the current window, so the cancellation error a large value leaves
/// behind when it exits does not reach any later window. On data without
/// such a drop, nothing is re-summed and the recurrence is the plain one.
fn prepare(haystack: &[f64], query: &[f64]) -> Result<(Vec<f64>, Vec<Norm>)> {
    let m = query.len();
    if m == 0 {
        return Err(Error::EmptyInput { which: "query" });
    }
    if haystack.len() < m {
        return Err(Error::InvalidParameter {
            name: "haystack",
            reason: format!("haystack ({}) shorter than query ({m})", haystack.len()),
        });
    }
    let q = znorm(query)?;
    if let Some(index) = haystack.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteInput {
            which: "haystack",
            index,
        });
    }
    let sums = |w: &[f64]| w.iter().fold((0.0, 0.0), |(s, s2), &v| (s + v, s2 + v * v));
    let (mut sum, mut sum_sq) = sums(&haystack[..m]);
    let mut peak = sum_sq;
    let n_pos = haystack.len() - m + 1;
    let mut norms = Vec::with_capacity(n_pos);
    for pos in 0..n_pos {
        if pos > 0 {
            let out = haystack[pos - 1];
            let inc = haystack[pos + m - 1];
            sum += inc - out;
            sum_sq += inc * inc - out * out;
            if sum_sq > peak {
                peak = sum_sq;
            } else if sum_sq < peak * RESUM_BELOW {
                (sum, sum_sq) = sums(&haystack[pos..pos + m]);
                peak = sum_sq;
            }
        }
        if !sum_sq.is_finite() {
            return Err(Error::InvalidParameter {
                name: "haystack",
                reason: format!("the sum of squares of the window at {pos} overflows"),
            });
        }
        let mean = sum / m as f64;
        let var = (sum_sq / m as f64 - mean * mean).max(0.0);
        let std = var.sqrt();
        norms.push((mean, if std > f64::EPSILON { 1.0 / std } else { 0.0 }));
    }
    Ok((q, norms))
}

/// Writes the z-normalized window `raw` into `out`.
fn normalize_into(out: &mut [f64], raw: &[f64], (mean, inv): Norm) {
    for (w, &v) in out.iter_mut().zip(raw) {
        *w = (v - mean) * inv;
    }
}

/// How a search disposed of one candidate position.
enum Disposition {
    Kim,
    Keogh,
    Abandoned,
    Exact(f64),
}

impl Disposition {
    /// The completed distance, the value competing for the minimum.
    fn distance(&self) -> Option<f64> {
        match self {
            Disposition::Exact(d) => Some(*d),
            _ => None,
        }
    }
}

/// What a subsequence search holds fixed across windows: the haystack
/// and its window normalization, and the z-normalized query with its
/// envelope, LB_Keogh visiting order and LB_Kim corners.
struct Scan<'a> {
    haystack: &'a [f64],
    norms: Vec<Norm>,
    q: Vec<f64>,
    q_corners: Corners,
    env: Envelope,
    order: Vec<usize>,
    band: usize,
    /// Funnel cost proxy for the DTW stage: rows filled × band width.
    band_width: u64,
}

/// One worker's scratch: the window materialized for the DP, LB_Keogh's
/// per-index contributions and their suffix sums, and the DP buffer.
struct Scratch {
    window: Vec<f64>,
    contrib: Vec<f64>,
    cb: Vec<f64>,
    dtw: DtwBuffer,
}

impl<'a> Scan<'a> {
    fn new<M: Meter>(
        haystack: &'a [f64],
        query: &[f64],
        band: usize,
        meter: &mut M,
    ) -> Result<Self> {
        let (q, norms) = prepare(haystack, query)?;
        let env = Envelope::new(&q, band)?;
        meter.envelope_built(q.len() as u64);
        Ok(Scan {
            haystack,
            norms,
            q_corners: Corners::read(q.len(), |i| q[i]),
            order: sort_indices_by_magnitude(&q),
            env,
            band,
            band_width: (2 * band + 1).min(q.len()) as u64,
            q,
        })
    }

    fn scratch(&self) -> Scratch {
        Scratch {
            window: vec![0.0; self.q.len()],
            contrib: vec![0.0; self.q.len()],
            cb: Vec::new(),
            dtw: DtwBuffer::new(),
        }
    }

    /// Disposes of the window at `pos` against the best-so-far `bsf`:
    /// LB_Kim on its corners, then the reordered LB_Keogh pass, both
    /// normalizing only the points they read; then, for a window both
    /// bounds let through, early-abandoning `cDTW` on the materialized
    /// window with the cumulative bound from that same LB_Keogh pass.
    fn score<M: Meter>(
        &self,
        pos: usize,
        bsf: f64,
        s: &mut Scratch,
        meter: &mut M,
    ) -> Result<Disposition> {
        let m = self.q.len();
        let (mean, inv) = self.norms[pos];
        let raw = &self.haystack[pos..pos + m];
        let z = |i: usize| (raw[i] - mean) * inv;

        meter.lb(LbKind::Kim);
        meter.stage_entered(FunnelStage::Kim);
        meter.stage_cost(FunnelStage::Kim, 1);
        let kim = lb_kim_corners(&self.q_corners, &Corners::read(m, z), bsf);
        if kim >= bsf {
            meter.prune(StageTag::Kim);
            return Ok(Disposition::Kim);
        }
        meter.lb(LbKind::Keogh);
        meter.stage_entered(FunnelStage::KeoghQC);
        meter.stage_cost(FunnelStage::KeoghQC, m as u64);
        let contrib = &mut s.contrib;
        let keogh = lb_keogh_reordered_by(&self.env, &self.order, bsf, z, |i, e| contrib[i] = e);
        if keogh >= bsf {
            meter.prune(StageTag::KeoghQC);
            return Ok(Disposition::Keogh);
        }

        meter.stage_entered(FunnelStage::Dtw);
        suffix_sums_into(&s.contrib, &mut s.cb);
        normalize_into(&mut s.window, raw, (mean, inv));
        match cdtw_distance_ea_metered_buf_kernel(
            &self.q,
            &s.window,
            self.band,
            bsf,
            Some(&s.cb),
            SquaredCost,
            &mut s.dtw,
            meter,
            Kernel::Auto,
        )? {
            EaOutcome::Exact(d) => {
                meter.stage_cost(FunnelStage::Dtw, m as u64 * self.band_width);
                if meter.enabled() {
                    for (stage, lb) in [(FunnelStage::Kim, kim), (FunnelStage::KeoghQC, keogh)] {
                        if let Some(ppb) = tightness_ppb(lb, d) {
                            meter.stage_tightness(stage, ppb);
                        }
                    }
                }
                meter.prune(StageTag::DtwExact);
                Ok(Disposition::Exact(d))
            }
            EaOutcome::Abandoned { rows_filled } => {
                meter.stage_cost(FunnelStage::Dtw, rows_filled as u64 * self.band_width);
                meter.prune(StageTag::DtwAbandoned);
                Ok(Disposition::Abandoned)
            }
        }
    }
}

/// Finds the best match of `query` across all sliding windows of
/// `haystack`, comparing z-normalized windows under exact `cDTW_band`.
///
/// ```
/// use tsdtw_mining::search::subsequence_search;
///
/// // Plant a scaled copy of the query inside noise; z-normalization
/// // makes the match exact anyway.
/// let query: Vec<f64> = (0..16).map(|i| (i as f64 * 0.7).sin()).collect();
/// let mut haystack = vec![0.25; 200];
/// for (k, &q) in query.iter().enumerate() {
///     haystack[120 + k] = 3.0 * q + 10.0;
/// }
/// let hit = subsequence_search(&haystack, &query, 2).unwrap();
/// assert_eq!(hit.position, 120);
/// assert!(hit.distance < 1e-9);
/// ```
pub fn subsequence_search(haystack: &[f64], query: &[f64], band: usize) -> Result<SearchResult> {
    subsequence_search_metered(haystack, query, band, &mut NoMeter)
}

/// [`subsequence_search`] with a meter accumulating lower-bound
/// invocations, per-stage prune tallies and the (early-abandoning) DP work
/// across all candidate positions. The [`SearchStats`] counters and the
/// meter's prune tallies agree by construction; tests pin it. Each window
/// counts one LB_Kim call, and one LB_Keogh call if it gets past LB_Kim.
///
/// This is [`subsequence_search_par`] at one worker with the best-so-far
/// tightened after every window: the plain serial UCR-suite scan.
pub fn subsequence_search_metered<M: MeterShard>(
    haystack: &[f64],
    query: &[f64],
    band: usize,
    meter: &mut M,
) -> Result<SearchResult> {
    subsequence_search_par(haystack, query, band, &CONTINUOUS, meter)
}

/// [`subsequence_search`] on the deterministic parallel executor.
///
/// Candidate positions are folded chunk-synchronously: every position in
/// a chunk is bounded and early-abandoned against the best-so-far frozen
/// at the chunk's start, and the bound advances at the merge in position
/// order. Because completed `cDTW` values are independent of the bound
/// (early abandoning only ever discards provably-worse candidates), the
/// winning position and distance are bitwise identical at any
/// `(n_threads, chunk)`; the [`SearchStats`] and meter counters are a
/// pure function of `chunk` — with `chunk = 1` they are the serial
/// scan's ([`subsequence_search_metered`]), and for any fixed `chunk`
/// they are identical at every thread count.
pub fn subsequence_search_par<M: MeterShard>(
    haystack: &[f64],
    query: &[f64],
    band: usize,
    cfg: &ParConfig,
    meter: &mut M,
) -> Result<SearchResult> {
    let _span = tsdtw_obs::span("subsequence_search");
    let scan = Scan::new(haystack, query, band, meter)?;
    let mut stats = SearchStats::default();
    let best = par_fold_argmin(
        cfg,
        &scan.norms,
        meter,
        f64::INFINITY,
        || Ok(scan.scratch()),
        |scratch, pos, _, bsf, mm| scan.score(pos, bsf, scratch, mm),
        |d| {
            stats.count(&d);
            d.distance()
        },
    )?;
    let (position, distance) = best.unwrap_or((0, f64::INFINITY));
    Ok(SearchResult {
        position,
        distance,
        stats,
    })
}

/// Brute-force reference: z-normalize every window, run plain `cDTW_band`.
/// Exported for tests and the pruning-power ablation bench.
pub fn subsequence_search_brute(
    haystack: &[f64],
    query: &[f64],
    band: usize,
) -> Result<SearchResult> {
    let m = query.len();
    if m == 0 {
        return Err(Error::EmptyInput { which: "query" });
    }
    if haystack.len() < m {
        return Err(Error::InvalidParameter {
            name: "haystack",
            reason: format!("haystack ({}) shorter than query ({m})", haystack.len()),
        });
    }
    let q = znorm(query)?;
    let mut bsf = f64::INFINITY;
    let mut best_pos = 0usize;
    let mut stats = SearchStats::default();
    for pos in 0..=haystack.len() - m {
        stats.candidates += 1;
        let window = znorm(&haystack[pos..pos + m])?;
        let d = tsdtw_core::dtw::banded::cdtw_distance(&q, &window, band, SquaredCost)?;
        stats.dtw_exact += 1;
        if d < bsf {
            bsf = d;
            best_pos = pos;
        }
    }
    Ok(SearchResult {
        position: best_pos,
        distance: bsf,
        stats,
    })
}

/// The full z-normalized `cDTW_band` distance profile: `profile[p]` is the
/// distance of the query to the window starting at `p`.
///
/// Unlike [`subsequence_search`] this computes *every* value (no
/// pruning — all of them are the output), which is what top-k matching,
/// motif exploration and plotting need. Its windows are the search's bit
/// for bit (one normalization routine), so the profile's first strict
/// minimum is the search's result, position and distance bits alike.
pub fn distance_profile(haystack: &[f64], query: &[f64], band: usize) -> Result<Vec<f64>> {
    distance_profile_par(haystack, query, band, &ParConfig::serial(), &mut NoMeter)
}

/// [`distance_profile`] on the deterministic parallel executor, with a
/// meter accumulating the DP work of every window evaluation (no pruning
/// here, so `cells == window_cells`): the windows are independent, so
/// the profile *and* the merged meter counters are bitwise identical at
/// any `(n_threads, chunk)`. Each executor item is a run of `cfg.chunk`
/// windows sharing one window buffer and one [`DtwBuffer`], so a run
/// allocates only while its first window warms them.
pub fn distance_profile_par<M: MeterShard>(
    haystack: &[f64],
    query: &[f64],
    band: usize,
    cfg: &ParConfig,
    meter: &mut M,
) -> Result<Vec<f64>> {
    let _span = tsdtw_obs::span("subsequence_search");
    let m = query.len();
    let (q, norms) = prepare(haystack, query)?;
    let runs: Vec<&[Norm]> = norms.chunks(cfg.chunk.max(1)).collect();
    let profile = par_map(cfg, &runs, meter, |r, run, mm| {
        let mut window = vec![0.0; m];
        let mut buf = DtwBuffer::new();
        let first = r * cfg.chunk;
        let mut out = Vec::with_capacity(run.len());
        for (pos, &norm) in (first..).zip(run.iter()) {
            normalize_into(&mut window, &haystack[pos..pos + m], norm);
            out.push(cdtw_distance_metered_with_buf(
                &q,
                &window,
                band,
                SquaredCost,
                &mut buf,
                mm,
            )?);
        }
        Ok(out)
    })?;
    Ok(profile.concat())
}

/// One match from a top-k query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// Start offset of the window.
    pub position: usize,
    /// Its z-normalized `cDTW_band` distance to the query.
    pub distance: f64,
}

/// The `k` best non-overlapping matches of `query` in `haystack`, selected
/// greedily from the exact distance profile with an exclusion zone of
/// `exclusion` positions around each accepted match (pass `query.len()`
/// for fully non-overlapping matches). Returns fewer than `k` matches if
/// the haystack cannot hold more.
pub fn top_k_matches(
    haystack: &[f64],
    query: &[f64],
    band: usize,
    k: usize,
    exclusion: usize,
) -> Result<Vec<Match>> {
    top_k_matches_par(
        haystack,
        query,
        band,
        k,
        exclusion,
        &ParConfig::serial(),
        &mut NoMeter,
    )
}

/// [`top_k_matches`] on the deterministic parallel executor, with a meter
/// accumulating the full profile's DP work: the profile is computed via
/// [`distance_profile_par`], then the greedy selection (a cheap,
/// inherently serial scan) runs on the calling thread.
pub fn top_k_matches_par<M: MeterShard>(
    haystack: &[f64],
    query: &[f64],
    band: usize,
    k: usize,
    exclusion: usize,
    cfg: &ParConfig,
    meter: &mut M,
) -> Result<Vec<Match>> {
    if k == 0 {
        return Err(Error::InvalidParameter {
            name: "k",
            reason: "k must be at least 1".into(),
        });
    }
    let profile = distance_profile_par(haystack, query, band, cfg, meter)?;
    Ok(greedy_top_k(&profile, k, exclusion))
}

/// Greedy non-overlapping selection from a distance profile. Stable sort
/// and strict index order make the selection deterministic under exact
/// ties.
fn greedy_top_k(profile: &[f64], k: usize, exclusion: usize) -> Vec<Match> {
    let mut order: Vec<usize> = (0..profile.len()).collect();
    order.sort_by(|&a, &b| {
        profile[a]
            .partial_cmp(&profile[b])
            .expect("finite distances")
    });
    let mut taken: Vec<Match> = Vec::with_capacity(k);
    for p in order {
        if taken.len() == k {
            break;
        }
        if taken
            .iter()
            .all(|m| m.position.abs_diff(p) >= exclusion.max(1))
        {
            taken.push(Match {
                position: p,
                distance: profile[p],
            });
        }
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_datasets::random_walk::random_walks;

    /// A haystack with a planted (scaled + offset) copy of the query.
    fn planted(seed: u64, n: usize, m: usize, at: usize) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let query: Vec<f64> = (0..m)
            .map(|i| (i as f64 * 0.37).sin() * 2.0 + 0.2 * rnd())
            .collect();
        let mut hay: Vec<f64> = (0..n).map(|_| rnd() * 3.0).collect();
        for (k, &qv) in query.iter().enumerate() {
            // Scale and offset: z-normalization must undo this.
            hay[at + k] = qv * 5.0 + 40.0;
        }
        (hay, query)
    }

    #[test]
    fn finds_planted_match() {
        let (hay, query) = planted(1, 600, 48, 333);
        let r = subsequence_search(&hay, &query, 4).unwrap();
        assert!(
            r.position.abs_diff(333) <= 2,
            "expected match near 333, got {}",
            r.position
        );
        assert!(r.distance < 5.0, "distance {}", r.distance);
    }

    #[test]
    fn matches_brute_force_exactly() {
        for seed in 0..5 {
            let (hay, query) = planted(seed, 300, 32, 120);
            let fast = subsequence_search(&hay, &query, 3).unwrap();
            let brute = subsequence_search_brute(&hay, &query, 3).unwrap();
            assert_eq!(fast.position, brute.position, "seed {seed}");
            assert!((fast.distance - brute.distance).abs() < 1e-9, "seed {seed}");
        }
    }

    #[test]
    fn cascade_prunes_most_positions() {
        let (hay, query) = planted(7, 3000, 64, 1500);
        let r = subsequence_search(&hay, &query, 5).unwrap();
        // Most candidates must never reach a *completed* DP: pruned by a
        // bound or abandoned mid-DP.
        let completed_frac = r.stats.dtw_exact as f64 / r.stats.candidates as f64;
        assert!(
            completed_frac < 0.1,
            "expected <10% of candidates to need a full DP, got {:.1}% ({:?})",
            completed_frac * 100.0,
            r.stats
        );
        assert!(
            r.stats.prune_rate() > 0.3,
            "expected the bounds alone to prune >30%, got {:.1}%",
            r.stats.prune_rate() * 100.0
        );
        assert_eq!(r.stats.candidates, (hay.len() - query.len() + 1) as u64);
    }

    #[test]
    fn invariant_to_window_scale_and_offset() {
        // The planted copy is at scale 5, offset 40 — finding it at all
        // proves JIT normalization works; also check a scaled haystack.
        let (hay, query) = planted(3, 500, 40, 77);
        let scaled: Vec<f64> = hay.iter().map(|v| v * 0.25 - 3.0).collect();
        let a = subsequence_search(&hay, &query, 4).unwrap();
        let b = subsequence_search(&scaled, &query, 4).unwrap();
        assert_eq!(a.position, b.position);
        assert!((a.distance - b.distance).abs() < 1e-6);
    }

    type ErrorCheck = fn(&Error) -> bool;

    /// Haystacks the one up-front validation must reject, each with a
    /// check of the error: a NaN or an infinity (`NonFiniteInput` at its
    /// index), and a finite value whose square overflows the window's sum
    /// of squares (`InvalidParameter`).
    fn bad_haystacks() -> Vec<(Vec<f64>, ErrorCheck)> {
        let base: Vec<f64> = (0..60).map(|i| (i as f64 * 0.3).sin()).collect();
        let non_finite: ErrorCheck = |e| {
            *e == Error::NonFiniteInput {
                which: "haystack",
                index: 37,
            }
        };
        let overflow: ErrorCheck = |e| {
            matches!(
                e,
                Error::InvalidParameter {
                    name: "haystack",
                    ..
                }
            )
        };
        [
            (f64::NAN, non_finite),
            (f64::INFINITY, non_finite),
            (1e160, overflow),
        ]
        .into_iter()
        .map(|(v, check)| {
            let mut hay = base.clone();
            hay[37] = v;
            (hay, check)
        })
        .collect()
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(subsequence_search(&[1.0, 2.0], &[], 1).is_err());
        assert!(subsequence_search(&[1.0], &[1.0, 2.0], 1).is_err());
        let query = [0.3, -1.0, 2.0, 0.5, 0.0, 1.5, -0.5, 1.0];
        for (hay, check) in bad_haystacks() {
            let e = subsequence_search(&hay, &query, 2).unwrap_err();
            assert!(check(&e), "{e}");
            let e = distance_profile(&hay, &query, 2).unwrap_err();
            assert!(check(&e), "{e}");
        }
    }

    /// A spike that leaves the window must take its cancellation error
    /// with it: without re-summing, the running sum of squares keeps the
    /// rounding error of `spike²` in every later window, and the search
    /// returned position 31 (d = 40.04) instead of 250 (d = 17.49).
    #[test]
    fn a_spike_leaving_the_window_does_not_skew_later_windows() {
        let mut hay = random_walks(1, 4000, 7).unwrap().remove(0);
        hay[100] = 1e10;
        let query = random_walks(1, 64, 8).unwrap().remove(0);
        let fast = subsequence_search(&hay, &query, 3).unwrap();
        let brute = subsequence_search_brute(&hay, &query, 3).unwrap();
        assert_eq!(fast.position, 250);
        assert_eq!(fast.position, brute.position);
        assert!((fast.distance - brute.distance).abs() <= 1e-12 * brute.distance);
    }

    #[test]
    fn distance_profile_minimum_matches_search() {
        let (hay, query) = planted(11, 400, 32, 200);
        let profile = distance_profile(&hay, &query, 4).unwrap();
        assert_eq!(profile.len(), hay.len() - query.len() + 1);
        let (argmin, min) = profile
            .iter()
            .enumerate()
            .fold(
                (0, f64::INFINITY),
                |acc, (i, &v)| if v < acc.1 { (i, v) } else { acc },
            );
        let search = subsequence_search(&hay, &query, 4).unwrap();
        // The profile never prunes and shares the search's window
        // normalization, so its first strict minimum is the search's
        // answer bit for bit.
        assert_eq!(argmin, search.position);
        assert_eq!(min.to_bits(), search.distance.to_bits());
    }

    #[test]
    fn top_k_finds_both_planted_copies() {
        // Plant two copies of the query far apart.
        let mut state = 77u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let m = 40;
        let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.31).sin() * 3.0).collect();
        let mut hay: Vec<f64> = (0..600).map(|_| rnd() * 4.0).collect();
        for (k, &q) in query.iter().enumerate() {
            hay[100 + k] = q;
            hay[400 + k] = q * 2.0 + 1.0; // scaled copy: z-norm recovers it
        }
        let matches = top_k_matches(&hay, &query, 4, 2, m).unwrap();
        assert_eq!(matches.len(), 2);
        let mut positions: Vec<usize> = matches.iter().map(|m| m.position).collect();
        positions.sort_unstable();
        assert!(positions[0].abs_diff(100) <= 2, "{positions:?}");
        assert!(positions[1].abs_diff(400) <= 2, "{positions:?}");
        // Exclusion honored.
        assert!(positions[1] - positions[0] >= m);
    }

    #[test]
    fn top_k_respects_exclusion_zone() {
        let hay: Vec<f64> = (0..300).map(|i| (i as f64 * 0.2).sin()).collect();
        let query: Vec<f64> = hay[50..90].to_vec();
        let matches = top_k_matches(&hay, &query, 3, 5, 40).unwrap();
        for a in 0..matches.len() {
            for b in (a + 1)..matches.len() {
                assert!(matches[a].position.abs_diff(matches[b].position) >= 40);
            }
        }
    }

    #[test]
    fn top_k_rejects_zero_k() {
        let hay = vec![0.0; 50];
        let query = vec![0.0; 10];
        assert!(top_k_matches(&hay, &query, 2, 0, 10).is_err());
    }

    #[test]
    fn metered_search_matches_plain_and_mirrors_stats() {
        use tsdtw_obs::WorkMeter;
        let (hay, query) = planted(5, 800, 48, 432);
        let plain = subsequence_search(&hay, &query, 4).unwrap();
        let mut meter = WorkMeter::new();
        let metered = subsequence_search_metered(&hay, &query, 4, &mut meter).unwrap();
        assert_eq!(plain, metered);
        // The meter's prune tallies are the SearchStats, field for field
        // (the cascade's q→c Keogh stage is where the search's single
        // Keogh bound reports).
        assert_eq!(meter.pruned_kim, plain.stats.pruned_kim);
        assert_eq!(meter.pruned_keogh_qc, plain.stats.pruned_keogh);
        assert_eq!(meter.dtw_abandoned, plain.stats.dtw_abandoned);
        assert_eq!(meter.dtw_exact, plain.stats.dtw_exact);
        assert_eq!(meter.candidates(), plain.stats.candidates);
        // The query envelope is built exactly once, and only survivors of
        // both bounds reach the DP.
        assert_eq!(meter.envelopes_built, 1);
        assert_eq!(meter.envelope_points, query.len() as u64);
        assert_eq!(meter.ea_invocations, meter.dtw_abandoned + meter.dtw_exact);
        assert!(meter.cells > 0);
        assert!(meter.cells <= meter.window_cells);
    }

    #[test]
    fn par_search_chunk_one_equals_the_continuous_loop_exactly() {
        use tsdtw_obs::WorkMeter;
        let (hay, query) = planted(9, 700, 40, 250);
        // Reference: the plain serial fold, its best-so-far tightened
        // after every window.
        let mut serial_meter = WorkMeter::new();
        let scan = Scan::new(&hay, &query, 4, &mut serial_meter).unwrap();
        let mut scratch = scan.scratch();
        let mut serial = SearchResult {
            position: 0,
            distance: f64::INFINITY,
            stats: SearchStats::default(),
        };
        for pos in 0..scan.norms.len() {
            let disposition = scan
                .score(pos, serial.distance, &mut scratch, &mut serial_meter)
                .unwrap();
            serial.stats.count(&disposition);
            if let Some(d) = disposition.distance().filter(|&d| d < serial.distance) {
                serial.distance = d;
                serial.position = pos;
            }
        }
        let mut meter = WorkMeter::new();
        let metered = subsequence_search_metered(&hay, &query, 4, &mut meter).unwrap();
        assert_eq!(metered, serial);
        assert_eq!(meter, serial_meter);
        for threads in [1usize, 2, 3, 7] {
            let cfg = ParConfig::with_chunk(threads, 1).unwrap();
            let mut meter = WorkMeter::new();
            let r = subsequence_search_par(&hay, &query, 4, &cfg, &mut meter).unwrap();
            assert_eq!(r, serial, "{threads} threads");
            assert_eq!(meter, serial_meter, "{threads} threads");
        }
    }

    #[test]
    fn par_search_finds_serial_match_with_thread_invariant_counters() {
        use tsdtw_obs::WorkMeter;
        let (hay, query) = planted(13, 900, 48, 512);
        let serial = subsequence_search(&hay, &query, 4).unwrap();
        let run = |threads: usize| {
            let cfg = ParConfig::with_chunk(threads, 16).unwrap();
            let mut meter = WorkMeter::new();
            let r = subsequence_search_par(&hay, &query, 4, &cfg, &mut meter).unwrap();
            (r, meter)
        };
        let (r1, m1) = run(1);
        // The winner is bitwise the serial one (completed cDTW values do
        // not depend on the pruning bound), even though the frozen-bound
        // stats differ from the continuous serial ones at chunk 16.
        assert_eq!(r1.position, serial.position);
        assert_eq!(r1.distance.to_bits(), serial.distance.to_bits());
        for threads in [2usize, 3, 7] {
            let (r, m) = run(threads);
            assert_eq!(r, r1, "{threads} threads");
            assert_eq!(m, m1, "{threads} threads");
        }
    }

    #[test]
    fn par_profile_and_top_k_are_bitwise_serial() {
        use tsdtw_obs::WorkMeter;
        let (hay, query) = planted(21, 500, 32, 321);
        // Reference: one plain loop over the normalized windows.
        let mut serial_meter = WorkMeter::new();
        let (q, norms) = prepare(&hay, &query).unwrap();
        let mut window = vec![0.0; query.len()];
        let serial: Vec<f64> = norms
            .iter()
            .enumerate()
            .map(|(pos, &norm)| {
                normalize_into(&mut window, &hay[pos..pos + query.len()], norm);
                tsdtw_core::dtw::banded::cdtw_distance_metered(
                    &q,
                    &window,
                    3,
                    SquaredCost,
                    &mut serial_meter,
                )
                .unwrap()
            })
            .collect();
        assert_eq!(distance_profile(&hay, &query, 3).unwrap(), serial);
        let top = greedy_top_k(&serial, 3, query.len());
        assert_eq!(top_k_matches(&hay, &query, 3, 3, query.len()).unwrap(), top);
        for threads in [1usize, 2, 5] {
            let cfg = ParConfig::with_chunk(threads, 8).unwrap();
            let mut meter = WorkMeter::new();
            let profile = distance_profile_par(&hay, &query, 3, &cfg, &mut meter).unwrap();
            assert_eq!(profile, serial, "{threads} threads");
            assert_eq!(meter, serial_meter, "{threads} threads");
            let b = top_k_matches_par(&hay, &query, 3, 3, query.len(), &cfg, &mut NoMeter).unwrap();
            assert_eq!(b, top, "{threads} threads");
        }
    }

    #[test]
    fn par_search_rejects_bad_config_and_degenerate_inputs() {
        let (hay, query) = planted(2, 120, 16, 40);
        let bad = ParConfig {
            n_threads: 0,
            chunk: 4,
        };
        assert!(subsequence_search_par(&hay, &query, 2, &bad, &mut NoMeter).is_err());
        let ok = ParConfig::new(2).unwrap();
        assert!(subsequence_search_par(&hay, &[], 2, &ok, &mut NoMeter).is_err());
        assert!(distance_profile_par(&[1.0], &[1.0, 2.0], 1, &ok, &mut NoMeter).is_err());
        assert!(top_k_matches_par(&hay, &query, 2, 0, 8, &ok, &mut NoMeter).is_err());
        for (hay, check) in bad_haystacks() {
            let e = subsequence_search_par(&hay, &query, 2, &ok, &mut NoMeter).unwrap_err();
            assert!(check(&e), "{e}");
            let e = distance_profile_par(&hay, &query, 2, &ok, &mut NoMeter).unwrap_err();
            assert!(check(&e), "{e}");
        }
    }

    #[test]
    fn exact_match_has_zero_distance() {
        let query: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut hay = vec![0.5; 200];
        hay[100..132].copy_from_slice(&query);
        let r = subsequence_search(&hay, &query, 3).unwrap();
        assert_eq!(r.position, 100);
        assert!(r.distance < 1e-18);
    }
}
