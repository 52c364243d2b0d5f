//! The UCR-suite pruning cascade: cheap bounds first, DTW last.
//!
//! For a fixed query and a stream of same-length candidates (1-NN search),
//! the cascade evaluates, in order:
//!
//! 1. **LB_Kim** (hierarchical, O(1)) — prunes gross mismatches;
//! 2. **LB_Keogh(q → c)** (reordered, early-abandoning, O(n)) — candidate
//!    against the query's envelope;
//! 3. **LB_Keogh(c → q)** — query against the candidate's envelope, built
//!    on demand (still O(n) via Lemire);
//! 4. **early-abandoning banded DTW**, seeded with the cumulative bound
//!    from stage 2.
//!
//! Each stage only runs if the previous one failed to prune. The exact same
//! distance is returned as a brute-force `cDTW_w` would return — the
//! cascade is *exact*, just faster, which is the whole point of the paper's
//! Section 3.4: the approximate algorithm cannot be accelerated this way,
//! the exact one can.

use std::sync::Arc;

use crate::cost::SquaredCost;
use crate::dtw::early_abandon::{cdtw_distance_ea_metered_buf_kernel, EaOutcome};
use crate::dtw::kernel::Kernel;
use crate::dtw::windowed::DtwBuffer;
use crate::envelope::Envelope;
use crate::error::{Error, Result};
use tsdtw_obs::{tightness_ppb, FunnelStage, LbKind, Meter, NoMeter, StageTag};

use super::keogh::{
    lb_keogh_ea, lb_keogh_reordered, lb_keogh_with_contrib, sort_indices_by_magnitude,
    suffix_sums_into,
};
use super::kim::lb_kim_hierarchy;

/// Which stage of the cascade disposed of a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneStage {
    /// Pruned by hierarchical LB_Kim.
    Kim,
    /// Pruned by LB_Keogh of the candidate against the query envelope.
    KeoghQC,
    /// Pruned by LB_Keogh of the query against the candidate envelope.
    KeoghCQ,
    /// DTW ran and abandoned early (distance provably above threshold).
    DtwAbandoned,
    /// DTW ran to completion; the exact distance was produced.
    DtwExact,
}

/// Result of pushing one candidate through the cascade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeOutcome {
    /// The stage that decided the candidate's fate.
    pub stage: PruneStage,
    /// For `DtwExact`, the exact `cDTW_w` distance. For pruning stages, the
    /// lower bound that exceeded the threshold.
    pub value: f64,
}

impl PruneStage {
    /// The crate-neutral tag `tsdtw-obs` uses for the same stage.
    pub fn tag(self) -> StageTag {
        match self {
            PruneStage::Kim => StageTag::Kim,
            PruneStage::KeoghQC => StageTag::KeoghQC,
            PruneStage::KeoghCQ => StageTag::KeoghCQ,
            PruneStage::DtwAbandoned => StageTag::DtwAbandoned,
            PruneStage::DtwExact => StageTag::DtwExact,
        }
    }
}

impl CascadeOutcome {
    /// The exact distance, if the cascade computed one below the threshold
    /// path (i.e. the candidate survived to a full DTW evaluation).
    pub fn exact_distance(&self) -> Option<f64> {
        match self.stage {
            PruneStage::DtwExact => Some(self.value),
            _ => None,
        }
    }
}

/// Per-stage counters, for reporting pruning power (the UCR papers report
/// exactly these percentages).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Candidates pruned by LB_Kim.
    pub pruned_kim: u64,
    /// Candidates pruned by LB_Keogh (query envelope).
    pub pruned_keogh_qc: u64,
    /// Candidates pruned by LB_Keogh (candidate envelope).
    pub pruned_keogh_cq: u64,
    /// Candidates on which DTW started but abandoned.
    pub dtw_abandoned: u64,
    /// Candidates on which DTW ran to completion.
    pub dtw_exact: u64,
}

impl CascadeStats {
    /// Total candidates processed.
    pub fn total(&self) -> u64 {
        self.pruned_kim
            + self.pruned_keogh_qc
            + self.pruned_keogh_cq
            + self.dtw_abandoned
            + self.dtw_exact
    }

    /// Fraction of candidates for which the full DP ran to completion.
    pub fn dtw_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.dtw_exact as f64 / t as f64
        }
    }
}

/// A fixed query prepared for cascaded exact 1-NN under `cDTW_band`.
///
/// ```
/// use tsdtw_core::lower_bounds::Cascade;
///
/// let query: Vec<f64> = (0..32).map(|i| (i as f64 * 0.4).sin()).collect();
/// let near: Vec<f64> = query.iter().map(|v| v + 0.01).collect();
/// let far: Vec<f64> = query.iter().map(|v| v + 5.0).collect();
///
/// let mut cascade = Cascade::new(&query, 3).unwrap();
/// let mut best = f64::INFINITY;
/// for c in [&near, &far] {
///     if let Some(d) = cascade.evaluate(c, best).unwrap().exact_distance() {
///         best = best.min(d);
///     }
/// }
/// // The near twin sets a tight threshold; the far candidate is pruned
/// // without a full DP (or abandoned mid-DP) — and the result is exact.
/// assert!(best < 0.1);
/// assert_eq!(cascade.stats().total(), 2);
/// ```
#[derive(Debug)]
pub struct Cascade {
    /// The query-side preparation (query copy, envelope, magnitude sort
    /// order), shared read-only across clones so that cloning a
    /// prepared cascade for a worker thread costs one `Arc` bump and
    /// zero heap allocations (`alloc_discipline` asserts this).
    prep: Arc<CascadePrep>,
    stats: CascadeStats,
    contrib: Vec<f64>,
    cb: Vec<f64>,
    buf: DtwBuffer,
}

/// The immutable query-side state every [`Cascade`] clone shares.
#[derive(Debug)]
struct CascadePrep {
    query: Vec<f64>,
    band: usize,
    env: Envelope,
    order: Vec<usize>,
}

impl Clone for Cascade {
    /// Clones share the prepared query state and start with fresh,
    /// empty scratch (and zeroed statistics inherit-by-copy): the
    /// clone itself never touches the heap, which is what lets
    /// `nn_cascade_par` hand one prepared cascade to every worker
    /// without re-running the O(n log n) preparation per worker.
    fn clone(&self) -> Self {
        Cascade {
            prep: Arc::clone(&self.prep),
            stats: self.stats,
            contrib: Vec::new(),
            cb: Vec::new(),
            buf: DtwBuffer::new(),
        }
    }
}

impl Cascade {
    /// Prepares the cascade for `query` under a Sakoe–Chiba band of `band`
    /// cells. The query should normally be z-normalized (as should the
    /// candidates) — the bounds stay valid either way, just looser.
    pub fn new(query: &[f64], band: usize) -> Result<Self> {
        if query.is_empty() {
            return Err(Error::EmptyInput { which: "query" });
        }
        let env = Envelope::new(query, band)?;
        let order = sort_indices_by_magnitude(query);
        Ok(Cascade {
            prep: Arc::new(CascadePrep {
                query: query.to_vec(),
                band,
                env,
                order,
            }),
            stats: CascadeStats::default(),
            contrib: Vec::new(),
            cb: Vec::new(),
            buf: DtwBuffer::new(),
        })
    }

    /// The band radius in cells.
    pub fn band(&self) -> usize {
        self.prep.band
    }

    /// Accumulated pruning statistics.
    pub fn stats(&self) -> CascadeStats {
        self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = CascadeStats::default();
    }

    /// Pushes one candidate through the cascade against the current
    /// best-so-far (squared-cost domain). Returns how it was disposed of.
    pub fn evaluate(&mut self, candidate: &[f64], bsf: f64) -> Result<CascadeOutcome> {
        self.evaluate_metered(candidate, bsf, &mut NoMeter)
    }

    /// [`Cascade::evaluate`] with work accounting: every lower-bound
    /// invocation (including the stage-4 contribution recompute), the
    /// on-demand candidate envelope, the disposal stage, and — through the
    /// metered DTW kernel — the cells the surviving DP actually filled.
    ///
    /// Each stage additionally reports to the meter's prune funnel: a
    /// `stage_entered` on entry, a deterministic `stage_cost` (the
    /// proxy table in `tsdtw-obs::funnel`), and — when the candidate
    /// survives to an exact DTW — one `LB / true-DTW` tightness sample
    /// per bound that ran.
    pub fn evaluate_metered<M: Meter>(
        &mut self,
        candidate: &[f64],
        bsf: f64,
        meter: &mut M,
    ) -> Result<CascadeOutcome> {
        let n = self.prep.query.len();
        if candidate.len() != n {
            return Err(Error::LengthMismatch {
                x_len: n,
                y_len: candidate.len(),
            });
        }
        let _span = tsdtw_obs::span("cascade");
        // The stage-4 cost proxy charges rows filled × band width.
        let band_width = (2 * self.prep.band + 1).min(n) as u64;

        let dispose = |stats: &mut CascadeStats, meter: &mut M, stage, value| {
            match stage {
                PruneStage::Kim => stats.pruned_kim += 1,
                PruneStage::KeoghQC => stats.pruned_keogh_qc += 1,
                PruneStage::KeoghCQ => stats.pruned_keogh_cq += 1,
                PruneStage::DtwAbandoned => stats.dtw_abandoned += 1,
                PruneStage::DtwExact => stats.dtw_exact += 1,
            }
            meter.prune(stage.tag());
            Ok(CascadeOutcome { stage, value })
        };

        // Stage 1: LB_Kim.
        let kim = {
            let _stage = tsdtw_obs::span("lb_kim");
            meter.lb(LbKind::Kim);
            meter.stage_entered(FunnelStage::Kim);
            meter.stage_cost(FunnelStage::Kim, 1);
            lb_kim_hierarchy(&self.prep.query, candidate, bsf)?
        };
        if kim >= bsf {
            return dispose(&mut self.stats, meter, PruneStage::Kim, kim);
        }

        // Stage 2: reordered early-abandoning LB_Keogh(q -> c).
        let keogh_qc = {
            let _stage = tsdtw_obs::span("lb_keogh_qc");
            meter.lb(LbKind::Keogh);
            meter.stage_entered(FunnelStage::KeoghQC);
            meter.stage_cost(FunnelStage::KeoghQC, n as u64);
            lb_keogh_reordered(candidate, &self.prep.env, &self.prep.order, bsf)?
        };
        if keogh_qc >= bsf {
            return dispose(&mut self.stats, meter, PruneStage::KeoghQC, keogh_qc);
        }

        // Stage 3: LB_Keogh(c -> q) with the candidate's own envelope.
        let keogh_cq = {
            let _stage = tsdtw_obs::span("lb_keogh_cq");
            meter.stage_entered(FunnelStage::KeoghCQ);
            meter.stage_cost(FunnelStage::KeoghCQ, 3 * n as u64);
            let cand_env = Envelope::new(candidate, self.prep.band)?;
            meter.envelope_built(candidate.len() as u64);
            meter.lb(LbKind::Keogh);
            lb_keogh_ea(&self.prep.query, &cand_env, bsf)?
        };
        if keogh_cq >= bsf {
            return dispose(&mut self.stats, meter, PruneStage::KeoghCQ, keogh_cq);
        }

        // Stage 4: early-abandoning DTW seeded with the cumulative bound
        // from the query-envelope pass (recomputed with per-index detail).
        let _stage = tsdtw_obs::span("cascade_dtw");
        meter.lb(LbKind::Keogh);
        meter.stage_entered(FunnelStage::Dtw);
        let _ = lb_keogh_with_contrib(candidate, &self.prep.env, &mut self.contrib)?;
        suffix_sums_into(&self.contrib, &mut self.cb);
        match cdtw_distance_ea_metered_buf_kernel(
            &self.prep.query,
            candidate,
            self.prep.band,
            bsf,
            Some(&self.cb),
            SquaredCost,
            &mut self.buf,
            meter,
            Kernel::Auto,
        )? {
            EaOutcome::Exact(d) => {
                meter.stage_cost(FunnelStage::Dtw, n as u64 * band_width);
                if meter.enabled() {
                    for (stage, lb) in [
                        (FunnelStage::Kim, kim),
                        (FunnelStage::KeoghQC, keogh_qc),
                        (FunnelStage::KeoghCQ, keogh_cq),
                    ] {
                        if let Some(ppb) = tightness_ppb(lb, d) {
                            meter.stage_tightness(stage, ppb);
                        }
                    }
                }
                dispose(&mut self.stats, meter, PruneStage::DtwExact, d)
            }
            EaOutcome::Abandoned { rows_filled } => {
                meter.stage_cost(FunnelStage::Dtw, rows_filled as u64 * band_width);
                dispose(&mut self.stats, meter, PruneStage::DtwAbandoned, bsf)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtw::banded::cdtw_distance;
    use crate::norm::znorm;

    fn rand_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut v = 0.0;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                v += ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
                v
            })
            .collect()
    }

    /// Brute-force 1-NN against a pool, then verify the cascade finds the
    /// same nearest neighbor and distance — the exactness guarantee.
    #[test]
    fn cascade_1nn_matches_brute_force() {
        let n = 64;
        let band = 5;
        let query = znorm(&rand_series(999, n)).unwrap();
        let pool: Vec<Vec<f64>> = (0..40)
            .map(|s| znorm(&rand_series(s, n)).unwrap())
            .collect();

        // Brute force.
        let mut bf_best = f64::INFINITY;
        let mut bf_idx = usize::MAX;
        for (i, c) in pool.iter().enumerate() {
            let d = cdtw_distance(&query, c, band, SquaredCost).unwrap();
            if d < bf_best {
                bf_best = d;
                bf_idx = i;
            }
        }

        // Cascade.
        let mut cascade = Cascade::new(&query, band).unwrap();
        let mut best = f64::INFINITY;
        let mut best_idx = usize::MAX;
        for (i, c) in pool.iter().enumerate() {
            let out = cascade.evaluate(c, best).unwrap();
            if let Some(d) = out.exact_distance() {
                if d < best {
                    best = d;
                    best_idx = i;
                }
            }
        }

        assert_eq!(best_idx, bf_idx);
        assert!((best - bf_best).abs() < 1e-9);
        // The cascade must have processed everything exactly once.
        assert_eq!(cascade.stats().total(), pool.len() as u64);
    }

    #[test]
    fn cascade_prunes_most_candidates_on_separated_data() {
        let n = 128;
        let band = 6;
        let query = znorm(&rand_series(1, n)).unwrap();
        let mut cascade = Cascade::new(&query, band).unwrap();
        // Seed the threshold with the query's own distance to a near-twin.
        let twin: Vec<f64> = query.iter().map(|v| v + 0.01).collect();
        let near = cdtw_distance(&query, &twin, band, SquaredCost).unwrap();
        let mut bsf = near + 1e-9;
        let mut pruned = 0;
        for s in 0..50 {
            let c = znorm(&rand_series(s + 10_000, n)).unwrap();
            let out = cascade.evaluate(&c, bsf).unwrap();
            match out.stage {
                PruneStage::DtwExact => {
                    if out.value < bsf {
                        bsf = out.value;
                    }
                }
                _ => pruned += 1,
            }
        }
        assert!(
            pruned > 25,
            "expected most random candidates pruned against a tight threshold, got {pruned}/50"
        );
    }

    #[test]
    fn evaluate_rejects_wrong_length() {
        let query = rand_series(1, 32);
        let mut cascade = Cascade::new(&query, 3).unwrap();
        assert!(cascade
            .evaluate(&rand_series(2, 31), f64::INFINITY)
            .is_err());
    }

    #[test]
    fn empty_query_rejected() {
        assert!(Cascade::new(&[], 3).is_err());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let query = znorm(&rand_series(5, 40)).unwrap();
        let mut cascade = Cascade::new(&query, 4).unwrap();
        for s in 0..10 {
            let c = znorm(&rand_series(s + 100, 40)).unwrap();
            cascade.evaluate(&c, 0.5).unwrap();
        }
        assert_eq!(cascade.stats().total(), 10);
        cascade.reset_stats();
        assert_eq!(cascade.stats().total(), 0);
    }

    #[test]
    fn metered_tallies_mirror_cascade_stats() {
        use tsdtw_obs::WorkMeter;
        let n = 96;
        let band = 5;
        let query = znorm(&rand_series(77, n)).unwrap();
        let mut cascade = Cascade::new(&query, band).unwrap();
        let mut meter = WorkMeter::new();
        let mut bsf = f64::INFINITY;
        for s in 0..30 {
            let c = znorm(&rand_series(s + 500, n)).unwrap();
            let out = cascade.evaluate_metered(&c, bsf, &mut meter).unwrap();
            if let Some(d) = out.exact_distance() {
                bsf = bsf.min(d);
            }
        }
        let stats = cascade.stats();
        assert_eq!(meter.candidates(), stats.total());
        assert_eq!(meter.pruned_kim, stats.pruned_kim);
        assert_eq!(meter.pruned_keogh_qc, stats.pruned_keogh_qc);
        assert_eq!(meter.pruned_keogh_cq, stats.pruned_keogh_cq);
        assert_eq!(meter.dtw_abandoned, stats.dtw_abandoned);
        assert_eq!(meter.dtw_exact, stats.dtw_exact);
        // Every candidate that reached stage 3 built one envelope of n points.
        assert_eq!(meter.envelope_points, meter.envelopes_built * n as u64);
        // DTW ran only for stage-4 survivors, and never outside the band.
        assert_eq!(meter.ea_invocations, stats.dtw_abandoned + stats.dtw_exact);
        assert!(meter.cells <= meter.window_cells);
        // Metering must not change the outcome of the search.
        let mut plain = Cascade::new(&query, band).unwrap();
        let mut plain_bsf = f64::INFINITY;
        for s in 0..30 {
            let c = znorm(&rand_series(s + 500, n)).unwrap();
            if let Some(d) = plain.evaluate(&c, plain_bsf).unwrap().exact_distance() {
                plain_bsf = plain_bsf.min(d);
            }
        }
        assert_eq!(bsf, plain_bsf);
        assert_eq!(plain.stats(), stats);
    }

    #[test]
    fn funnel_ledger_obeys_stage_conservation() {
        use tsdtw_obs::{FunnelStage, WorkMeter};
        let n = 96;
        let band = 5;
        let query = znorm(&rand_series(321, n)).unwrap();
        let mut cascade = Cascade::new(&query, band).unwrap();
        let mut meter = WorkMeter::new();
        let mut bsf = f64::INFINITY;
        for s in 0..40 {
            let c = znorm(&rand_series(s + 9000, n)).unwrap();
            let out = cascade.evaluate_metered(&c, bsf, &mut meter).unwrap();
            if let Some(d) = out.exact_distance() {
                bsf = bsf.min(d);
            }
        }
        let f = &meter.funnel;
        let stats = cascade.stats();
        // Every candidate enters stage 1; each stage's survivors are
        // exactly the next stage's entrants; the funnel's pruned
        // columns are the cascade's own disposition counters.
        assert_eq!(f.stage(FunnelStage::Kim).entered, stats.total());
        assert_eq!(f.stage(FunnelStage::Kim).pruned, stats.pruned_kim);
        assert_eq!(
            f.stage(FunnelStage::Kim).survived(),
            f.stage(FunnelStage::KeoghQC).entered
        );
        assert_eq!(f.stage(FunnelStage::KeoghQC).pruned, stats.pruned_keogh_qc);
        assert_eq!(
            f.stage(FunnelStage::KeoghQC).survived(),
            f.stage(FunnelStage::KeoghCQ).entered
        );
        assert_eq!(f.stage(FunnelStage::KeoghCQ).pruned, stats.pruned_keogh_cq);
        assert_eq!(
            f.stage(FunnelStage::KeoghCQ).survived(),
            f.stage(FunnelStage::Dtw).entered
        );
        assert_eq!(f.stage(FunnelStage::Dtw).pruned, stats.dtw_abandoned);
        assert_eq!(f.stage(FunnelStage::Dtw).survived(), stats.dtw_exact);
        // Cost proxies: Kim charges 1 per entrant, KeoghQC n per
        // entrant, KeoghCQ 3n per entrant; the DTW stage is bounded by
        // full-DP rows × band width.
        assert_eq!(
            f.stage(FunnelStage::Kim).cost_units,
            f.stage(FunnelStage::Kim).entered
        );
        assert_eq!(
            f.stage(FunnelStage::KeoghQC).cost_units,
            f.stage(FunnelStage::KeoghQC).entered * n as u64
        );
        assert_eq!(
            f.stage(FunnelStage::KeoghCQ).cost_units,
            f.stage(FunnelStage::KeoghCQ).entered * 3 * n as u64
        );
        let width = (2 * band + 1).min(n) as u64;
        assert!(
            f.stage(FunnelStage::Dtw).cost_units
                <= f.stage(FunnelStage::Dtw).entered * n as u64 * width
        );
        // Tightness samples exist only where exact DTWs completed, one
        // per bound that ran, and read back as ratios in [0, 1].
        assert_eq!(f.stage(FunnelStage::Kim).tightness.count(), stats.dtw_exact);
        if stats.dtw_exact > 0 {
            let p50 = f.stage(FunnelStage::Kim).tightness.percentile_s(50.0);
            assert!((0.0..=1.01).contains(&p50), "tightness p50 {p50}");
        }
    }

    #[test]
    fn clone_shares_prep_and_evaluates_identically() {
        use tsdtw_obs::WorkMeter;
        let n = 64;
        let band = 4;
        let query = znorm(&rand_series(55, n)).unwrap();
        let prepared = Cascade::new(&query, band).unwrap();
        let mut a = prepared.clone();
        let mut b = prepared.clone();
        // Warm `a` before cloning `c` from it: scratch state must not
        // leak through a clone (clones start with fresh scratch).
        let warm: Vec<f64> = znorm(&rand_series(77, n)).unwrap();
        a.evaluate(&warm, f64::INFINITY).unwrap();
        let mut c = a.clone();
        assert_eq!(c.stats(), a.stats(), "stats copy across clone");
        c.reset_stats();

        let mut ma = WorkMeter::new();
        let mut mb = WorkMeter::new();
        let mut mc = WorkMeter::new();
        let mut bsf_a = f64::INFINITY;
        let mut bsf_b = f64::INFINITY;
        let mut bsf_c = f64::INFINITY;
        for s in 0..20 {
            let cand = znorm(&rand_series(s + 4000, n)).unwrap();
            let oa = a.evaluate_metered(&cand, bsf_a, &mut ma).unwrap();
            let ob = b.evaluate_metered(&cand, bsf_b, &mut mb).unwrap();
            let oc = c.evaluate_metered(&cand, bsf_c, &mut mc).unwrap();
            assert_eq!(oa, ob);
            assert_eq!(oa, oc);
            if let Some(d) = oa.exact_distance() {
                bsf_a = bsf_a.min(d);
                bsf_b = bsf_b.min(d);
                bsf_c = bsf_c.min(d);
            }
        }
        assert_eq!(mb, mc, "fresh clone and warmed clone meter identically");
        assert_eq!(b.stats(), c.stats());
        assert_eq!(b.band(), band);
    }

    #[test]
    fn infinite_threshold_always_reaches_exact_dtw() {
        let query = rand_series(3, 50);
        let mut cascade = Cascade::new(&query, 5).unwrap();
        let c = rand_series(4, 50);
        let out = cascade.evaluate(&c, f64::INFINITY).unwrap();
        assert_eq!(out.stage, PruneStage::DtwExact);
        let exact = cdtw_distance(&query, &c, 5, SquaredCost).unwrap();
        assert!((out.value - exact).abs() < 1e-9);
    }
}
