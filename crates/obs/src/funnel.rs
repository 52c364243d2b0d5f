//! Per-stage prune-funnel ledger: the EXPLAIN ANALYZE view of a
//! pruning cascade.
//!
//! [`WorkMeter`](crate::WorkMeter)'s scalar counters answer *how much*
//! work a search did; the [`Funnel`] answers *which stage earned its
//! keep*. Every cascaded search (the LB cascade in
//! `tsdtw-core::lower_bounds::cascade` and the subsequence-search
//! pipeline in `tsdtw-mining`) reports, per stage:
//!
//! * **entered** — candidates that reached the stage,
//! * **pruned** — candidates the stage disposed of (for the DTW stage:
//!   early-abandoned),
//! * **cost_units** — a deterministic work proxy (see below), and
//! * **tightness** — a histogram of `LB / true-DTW` ratios for
//!   candidates that survived to an exact DTW, measuring how close each
//!   bound came to the true distance.
//!
//! The cost proxies are *defined*, not measured, so they are exact
//! integers and bitwise thread-count-invariant (DESIGN.md §14):
//!
//! | stage         | cost per candidate entering        |
//! |---------------|------------------------------------|
//! | `lb_kim`      | 1 (constant-time endpoint compare) |
//! | `lb_keogh_qc` | `m` (one envelope walk)            |
//! | `lb_keogh_cq` | `3·m` (envelope build `2m` + walk) |
//! | `dtw`         | rows filled × band width           |
//!
//! Tightness ratios are quantized to **parts-per-billion** before
//! recording (see [`tightness_ppb`]), reusing [`LatencyHist`]'s
//! nanosecond buckets so the `*_s` accessors return the raw
//! dimensionless ratio. A ratio of `1.0` (a perfectly tight bound)
//! stores as `1e9` and lands well inside the histogram's range.
//!
//! The funnel obeys the same shard-merge algebra as the meter counters:
//! addition per stage, histogram bucket-count addition for tightness —
//! associative and commutative — so the parallel executor's
//! item-index-order absorb produces a funnel bit-identical to a serial
//! run at any thread count (`parallel_equivalence` locks this).

use crate::hist::LatencyHist;
use crate::json::{Json, ToJson};

/// Funnel resolution of a tightness ratio of exactly `1.0`
/// (bound equals the true distance): ratios are stored in
/// parts-per-billion.
pub const TIGHTNESS_ONE_PPB: u64 = 1_000_000_000;

/// Quantizes a lower bound / true distance pair to the
/// parts-per-billion tightness sample the funnel records.
///
/// Returns `None` when the ratio is undefined or meaningless: a
/// non-finite input, a non-positive true distance, or a negative
/// bound. Ratios are clamped to `[0, 1]` — an admissible lower bound
/// can only exceed its true distance through floating-point noise, and
/// letting such noise escape the unit interval would poison the
/// histogram's range.
pub fn tightness_ppb(lb: f64, dtw: f64) -> Option<u64> {
    if !lb.is_finite() || !dtw.is_finite() || dtw <= 0.0 || lb < 0.0 {
        return None;
    }
    let ratio = (lb / dtw).clamp(0.0, 1.0);
    Some((ratio * TIGHTNESS_ONE_PPB as f64).round() as u64)
}

/// One stage of the pruning funnel.
///
/// Mirrors the cascade's evaluation order. The two early-abandon
/// dispositions of [`StageTag`](crate::StageTag) (`DtwAbandoned`,
/// `DtwExact`) both belong to the single [`Dtw`](FunnelStage::Dtw)
/// stage here: abandonment counts as that stage pruning the candidate,
/// an exact distance as the candidate surviving the whole funnel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FunnelStage {
    /// LB_Kim (constant-time endpoint bound).
    Kim,
    /// LB_Keogh(query → candidate), the reordered envelope walk.
    KeoghQC,
    /// LB_Keogh(candidate → query), the on-demand-envelope pass.
    KeoghCQ,
    /// The early-abandoning banded DTW itself.
    Dtw,
}

impl FunnelStage {
    /// Every stage, in cascade evaluation order.
    pub const ALL: [FunnelStage; 4] = [
        FunnelStage::Kim,
        FunnelStage::KeoghQC,
        FunnelStage::KeoghCQ,
        FunnelStage::Dtw,
    ];

    /// Canonical stage name, used for report keys, metrics families
    /// (`tsdtw_cascade_stage_<name>_*`), and the EXPLAIN table. The LB
    /// names match the span labels of the same stages.
    pub fn name(self) -> &'static str {
        match self {
            FunnelStage::Kim => "lb_kim",
            FunnelStage::KeoghQC => "lb_keogh_qc",
            FunnelStage::KeoghCQ => "lb_keogh_cq",
            FunnelStage::Dtw => "dtw",
        }
    }

    /// Position in [`ALL`](Self::ALL).
    pub const fn index(self) -> usize {
        match self {
            FunnelStage::Kim => 0,
            FunnelStage::KeoghQC => 1,
            FunnelStage::KeoghCQ => 2,
            FunnelStage::Dtw => 3,
        }
    }
}

/// The per-stage disposition ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StageLedger {
    /// Candidates that reached this stage.
    pub entered: u64,
    /// Candidates this stage disposed of.
    pub pruned: u64,
    /// Deterministic work proxy spent in this stage (module docs).
    pub cost_units: u64,
    /// `LB / true-DTW` ratios in parts-per-billion, recorded for
    /// candidates that survived to an exact DTW distance.
    pub tightness: LatencyHist,
}

impl StageLedger {
    /// Candidates that passed through to the next stage.
    pub fn survived(&self) -> u64 {
        self.entered.saturating_sub(self.pruned)
    }

    /// Folds another ledger into this one (counter addition, histogram
    /// bucket addition).
    pub fn merge(&mut self, other: &StageLedger) {
        self.entered += other.entered;
        self.pruned += other.pruned;
        self.cost_units += other.cost_units;
        self.tightness.merge(&other.tightness);
    }

    /// Candidates pruned per 1000 cost units; `None` when no cost was
    /// spent.
    pub fn prune_rate_per_kcost(&self) -> Option<f64> {
        if self.cost_units == 0 {
            None
        } else {
            Some(self.pruned as f64 * 1000.0 / self.cost_units as f64)
        }
    }
}

/// The complete funnel: one [`StageLedger`] per [`FunnelStage`].
///
/// Lives inside [`WorkMeter`](crate::WorkMeter) (as its `funnel`
/// field) and merges whenever meters merge, so it inherits the meter's
/// shard algebra and thread-count invariance for free. Deliberately
/// *not* part of the `work` report section — it has its own `funnel`
/// section in bench snapshots (schema v4) so pre-existing `work`
/// baselines stay byte-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Funnel {
    /// Ledgers indexed by [`FunnelStage::index`].
    pub stages: [StageLedger; 4],
}

impl Funnel {
    /// A funnel with every ledger at zero. Allocates nothing (the
    /// tightness histograms size lazily on first record).
    pub fn new() -> Self {
        Self::default()
    }

    /// The ledger for `stage`.
    pub fn stage(&self, stage: FunnelStage) -> &StageLedger {
        &self.stages[stage.index()]
    }

    /// Mutable ledger for `stage`.
    pub fn stage_mut(&mut self, stage: FunnelStage) -> &mut StageLedger {
        &mut self.stages[stage.index()]
    }

    /// One candidate reached `stage`.
    #[inline]
    pub fn record_entered(&mut self, stage: FunnelStage) {
        self.stages[stage.index()].entered += 1;
    }

    /// `stage` disposed of one candidate.
    #[inline]
    pub fn record_pruned(&mut self, stage: FunnelStage) {
        self.stages[stage.index()].pruned += 1;
    }

    /// `units` of deterministic cost were spent in `stage`.
    #[inline]
    pub fn record_cost(&mut self, stage: FunnelStage, units: u64) {
        self.stages[stage.index()].cost_units += units;
    }

    /// A `LB / true-DTW` tightness sample (parts-per-billion, see
    /// [`tightness_ppb`]) for `stage`'s bound. Values above `1.0` are
    /// clamped.
    #[inline]
    pub fn record_tightness(&mut self, stage: FunnelStage, ratio_ppb: u64) {
        self.stages[stage.index()]
            .tightness
            .record_ns(ratio_ppb.min(TIGHTNESS_ONE_PPB));
    }

    /// Whether nothing entered any stage (no cascaded search ran).
    pub fn is_empty(&self) -> bool {
        self.stages.iter().all(|s| s.entered == 0)
    }

    /// Candidates that entered the funnel at its first engaged stage.
    pub fn candidates(&self) -> u64 {
        self.stages
            .iter()
            .map(|s| s.entered)
            .find(|&e| e > 0)
            .unwrap_or(0)
    }

    /// Total deterministic cost across all stages.
    pub fn total_cost_units(&self) -> u64 {
        self.stages.iter().map(|s| s.cost_units).sum()
    }

    /// Folds another funnel into this one; the algebra is associative
    /// and commutative, matching the meter's shard contract.
    pub fn merge(&mut self, other: &Funnel) {
        for (dst, src) in self.stages.iter_mut().zip(other.stages.iter()) {
            dst.merge(src);
        }
    }

    /// Stages ordered by measured prune-rate-per-cost, best first — the
    /// ranking line of the EXPLAIN [`table`](Self::table). Stages that
    /// nothing entered are excluded; ties break by cascade order, so the
    /// ranking is fully deterministic.
    pub fn ranking(&self) -> Vec<FunnelStage> {
        let mut ranked: Vec<FunnelStage> = FunnelStage::ALL
            .into_iter()
            .filter(|s| self.stage(*s).entered > 0)
            .collect();
        ranked.sort_by(|a, b| {
            let ra = self.stage(*a).prune_rate_per_kcost().unwrap_or(0.0);
            let rb = self.stage(*b).prune_rate_per_kcost().unwrap_or(0.0);
            rb.total_cmp(&ra).then(a.index().cmp(&b.index()))
        });
        ranked
    }

    /// The `funnel` section of bench snapshots and `--explain=FILE`
    /// dumps. Integer leaves (dispositions, cost units, tightness
    /// sample counts) are hard-gated by `report diff` / `report trend`
    /// at zero tolerance; float leaves (tightness quantiles) are
    /// advisory by omission from the counter-leaf walk. All four
    /// stages are always present so the section shape is stable.
    pub fn report(&self) -> Json {
        let mut stages = Json::object();
        for stage in FunnelStage::ALL {
            let s = self.stage(stage);
            let mut j = crate::json_obj! {
                "entered" => s.entered,
                "pruned" => s.pruned,
                "survived" => s.survived(),
                "cost_units" => s.cost_units,
            };
            if s.tightness.count() > 0 {
                j.set(
                    "tightness",
                    crate::json_obj! {
                        "count" => s.tightness.count(),
                        "mean" => s.tightness.mean_s(),
                        "p50" => s.tightness.percentile_s(50.0),
                        "p90" => s.tightness.percentile_s(90.0),
                        "p99" => s.tightness.percentile_s(99.0),
                        "max" => s.tightness.max_s(),
                    },
                );
            }
            stages.set(stage.name(), j);
        }
        crate::json_obj! {
            "candidates" => self.candidates(),
            "total_cost_units" => self.total_cost_units(),
            "stages" => stages,
        }
    }

    /// The EXPLAIN table the CLI `--explain` flag renders: per-stage
    /// dispositions, prune%, cost share, prune-rate-per-cost, and the
    /// bound-tightness median. Derived exclusively from merged
    /// counters, so the rendering is bitwise identical at every thread
    /// count. Returns the empty string when the funnel is empty.
    pub fn table(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let total_cost = self.total_cost_units();
        let mut out = String::new();
        out.push_str(&format!(
            "prune funnel: {} candidates, {} cost units\n",
            self.candidates(),
            total_cost
        ));
        out.push_str(&format!(
            "  {:<12} {:>10} {:>10} {:>8} {:>10} {:>12} {:>7} {:>13} {:>11}\n",
            "stage",
            "entered",
            "pruned",
            "prune%",
            "survived",
            "cost_units",
            "cost%",
            "pruned/kcost",
            "lb/dtw p50"
        ));
        for stage in FunnelStage::ALL {
            let s = self.stage(stage);
            if s.entered == 0 {
                out.push_str(&format!(
                    "  {:<12} {:>10} {:>10} {:>8} {:>10} {:>12} {:>7} {:>13} {:>11}\n",
                    stage.name(),
                    0,
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-",
                    "-"
                ));
                continue;
            }
            let prune_pct = s.pruned as f64 * 100.0 / s.entered as f64;
            let cost_pct = if total_cost == 0 {
                0.0
            } else {
                s.cost_units as f64 * 100.0 / total_cost as f64
            };
            let rate = s
                .prune_rate_per_kcost()
                .map_or_else(|| "-".to_string(), |r| format!("{r:.3}"));
            let p50 = if s.tightness.count() > 0 {
                format!("{:.3}", s.tightness.percentile_s(50.0))
            } else {
                "-".to_string()
            };
            out.push_str(&format!(
                "  {:<12} {:>10} {:>10} {:>7.2}% {:>10} {:>12} {:>6.2}% {:>13} {:>11}\n",
                stage.name(),
                s.entered,
                s.pruned,
                prune_pct,
                s.survived(),
                s.cost_units,
                cost_pct,
                rate,
                p50
            ));
        }
        let ranking: Vec<&str> = self.ranking().into_iter().map(|s| s.name()).collect();
        if !ranking.is_empty() {
            out.push_str(&format!(
                "  prune-rate-per-cost ranking: {}\n",
                ranking.join(" > ")
            ));
        }
        out
    }
}

impl ToJson for Funnel {
    fn to_json(&self) -> Json {
        self.report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-random funnel for the algebra tests.
    fn arbitrary_funnel(seed: u64) -> Funnel {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut f = Funnel::new();
        for stage in FunnelStage::ALL {
            for _ in 0..(next() % 5 + 1) {
                f.record_entered(stage);
            }
            for _ in 0..(next() % 3) {
                f.record_pruned(stage);
            }
            f.record_cost(stage, next() % 1000);
            if next() % 2 == 0 {
                f.record_tightness(stage, next() % TIGHTNESS_ONE_PPB);
            }
        }
        f
    }

    #[test]
    fn new_funnel_is_empty_and_table_is_blank() {
        let f = Funnel::new();
        assert!(f.is_empty());
        assert_eq!(f.candidates(), 0);
        assert_eq!(f.table(), "");
    }

    #[test]
    fn records_land_on_the_right_stage() {
        let mut f = Funnel::new();
        f.record_entered(FunnelStage::Kim);
        f.record_entered(FunnelStage::Kim);
        f.record_pruned(FunnelStage::Kim);
        f.record_entered(FunnelStage::KeoghQC);
        f.record_cost(FunnelStage::KeoghQC, 64);
        f.record_tightness(FunnelStage::KeoghQC, 830_000_000);
        assert_eq!(f.stage(FunnelStage::Kim).entered, 2);
        assert_eq!(f.stage(FunnelStage::Kim).pruned, 1);
        assert_eq!(f.stage(FunnelStage::Kim).survived(), 1);
        assert_eq!(f.stage(FunnelStage::KeoghQC).cost_units, 64);
        assert_eq!(f.stage(FunnelStage::KeoghQC).tightness.count(), 1);
        assert_eq!(f.stage(FunnelStage::KeoghCQ).entered, 0);
        assert!(!f.is_empty());
        assert_eq!(f.candidates(), 2);
    }

    #[test]
    fn tightness_ppb_quantizes_and_rejects_degenerate_inputs() {
        assert_eq!(tightness_ppb(0.5, 1.0), Some(500_000_000));
        assert_eq!(tightness_ppb(1.0, 1.0), Some(TIGHTNESS_ONE_PPB));
        // FP noise above the true distance clamps to 1.0.
        assert_eq!(tightness_ppb(1.0000001, 1.0), Some(TIGHTNESS_ONE_PPB));
        assert_eq!(tightness_ppb(0.0, 1.0), Some(0));
        assert_eq!(tightness_ppb(1.0, 0.0), None);
        assert_eq!(tightness_ppb(1.0, -2.0), None);
        assert_eq!(tightness_ppb(-1.0, 2.0), None);
        assert_eq!(tightness_ppb(f64::INFINITY, 1.0), None);
        assert_eq!(tightness_ppb(1.0, f64::NAN), None);
    }

    #[test]
    fn tightness_samples_read_back_as_raw_ratios() {
        let mut f = Funnel::new();
        f.record_tightness(FunnelStage::Kim, tightness_ppb(0.8, 1.0).unwrap());
        let t = &f.stage(FunnelStage::Kim).tightness;
        assert_eq!(t.count(), 1);
        // ppb storage ÷ histogram's 1e9 denominator = the raw ratio
        // (up to the log-linear bucket width).
        let p50 = t.percentile_s(50.0);
        assert!((p50 - 0.8).abs() < 0.01, "p50 {p50} should be ≈0.8");
        // A clamped full-tightness sample stays ≤ 1.0 + bucket width.
        f.record_tightness(FunnelStage::Kim, u64::MAX);
        let max = f.stage(FunnelStage::Kim).tightness.max_s();
        assert!(max <= 1.01, "max {max} must clamp near 1.0");
    }

    #[test]
    fn merge_is_associative_and_commutative_with_identity() {
        let (a, b, c) = (
            arbitrary_funnel(1),
            arbitrary_funnel(2),
            arbitrary_funnel(3),
        );
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut with_zero = a.clone();
        with_zero.merge(&Funnel::new());
        assert_eq!(with_zero, a);
    }

    #[test]
    fn report_has_stable_shape_and_integer_dispositions() {
        let mut f = Funnel::new();
        for _ in 0..10 {
            f.record_entered(FunnelStage::Kim);
        }
        for _ in 0..4 {
            f.record_pruned(FunnelStage::Kim);
        }
        f.record_cost(FunnelStage::Kim, 10);
        for _ in 0..6 {
            f.record_entered(FunnelStage::Dtw);
        }
        f.record_tightness(FunnelStage::Kim, 500_000_000);
        let j = f.report();
        assert_eq!(j["candidates"], 10u64);
        // All four stages present even when untouched.
        for stage in FunnelStage::ALL {
            assert!(
                !j["stages"][stage.name()].is_null(),
                "stage {} missing",
                stage.name()
            );
        }
        assert_eq!(j["stages"]["lb_kim"]["entered"], 10u64);
        assert_eq!(j["stages"]["lb_kim"]["pruned"], 4u64);
        assert_eq!(j["stages"]["lb_kim"]["survived"], 6u64);
        assert_eq!(j["stages"]["lb_kim"]["tightness"]["count"], 1u64);
        assert_eq!(j["stages"]["dtw"]["entered"], 6u64);
        // Untouched stage omits the tightness block entirely.
        assert!(j["stages"]["lb_keogh_cq"]["tightness"].is_null());
    }

    #[test]
    fn table_renders_all_stages_and_ranking() {
        let mut f = Funnel::new();
        for _ in 0..100 {
            f.record_entered(FunnelStage::Kim);
        }
        for _ in 0..60 {
            f.record_pruned(FunnelStage::Kim);
        }
        f.record_cost(FunnelStage::Kim, 100);
        for _ in 0..40 {
            f.record_entered(FunnelStage::KeoghQC);
        }
        for _ in 0..30 {
            f.record_pruned(FunnelStage::KeoghQC);
        }
        f.record_cost(FunnelStage::KeoghQC, 4000);
        for _ in 0..10 {
            f.record_entered(FunnelStage::Dtw);
        }
        for _ in 0..3 {
            f.record_pruned(FunnelStage::Dtw);
        }
        f.record_cost(FunnelStage::Dtw, 50_000);
        let t = f.table();
        assert!(t.contains("prune funnel: 100 candidates"));
        assert!(t.contains("lb_kim"));
        assert!(t.contains("lb_keogh_cq")); // dormant stage still listed
                                            // Kim prunes 600/kcost, KeoghQC 7.5/kcost, Dtw 0.06/kcost.
        assert!(t.contains("prune-rate-per-cost ranking: lb_kim > lb_keogh_qc > dtw"));
        assert!(t.contains("60.00%"), "prune% column:\n{t}");
    }

    #[test]
    fn ranking_breaks_ties_by_cascade_order() {
        let mut f = Funnel::new();
        for stage in [FunnelStage::KeoghQC, FunnelStage::Kim] {
            f.record_entered(stage);
            f.record_pruned(stage);
            f.record_cost(stage, 10);
        }
        assert_eq!(f.ranking(), vec![FunnelStage::Kim, FunnelStage::KeoghQC]);
    }
}
