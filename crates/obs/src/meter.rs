//! The [`Meter`] abstraction: monomorphized work counters.
//!
//! Every instrumented kernel in `tsdtw-core` is generic over
//! `M: Meter` and calls the trait's recording methods at the points
//! where work happens (a DP cell evaluated, a candidate pruned, a row
//! abandoned). The default sink, [`NoMeter`], implements every method
//! as an empty `#[inline]` body; after monomorphization the compiler
//! erases the calls entirely, so the public un-metered entry points —
//! which delegate with `&mut NoMeter` — keep their original machine
//! code. The `meter_ablation` bench group in `tsdtw-bench` checks this
//! stays true (<2% overhead on banded DTW).
//!
//! [`WorkMeter`] is the recording sink. Its counters map one-to-one to
//! the quantities in the paper's Section 3 argument: `cells` is the
//! number of DP recurrences actually executed, `window_cells` the
//! admissible-band area, and `levels` the FastDTW per-resolution
//! breakdown whose sum the `cells` experiment compares against the
//! cDTW band area.

use crate::funnel::{Funnel, FunnelStage};
use crate::json::Json;

/// Which lower bound was invoked, for [`Meter::lb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LbKind {
    /// LB_Kim (constant-time endpoint bound).
    Kim,
    /// LB_Keogh (envelope bound), either orientation.
    Keogh,
    /// LB_Improved (Lemire's two-pass refinement).
    Improved,
    /// LB_Yi (sum over values outside the min/max range).
    Yi,
}

/// Where a pruning cascade disposed of a candidate, for
/// [`Meter::prune`]. Mirrors `PruneStage` in
/// `tsdtw-core::lower_bounds::cascade` (which maps into this; `obs` is
/// a leaf crate and cannot depend on core).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageTag {
    /// Pruned by LB_Kim.
    Kim,
    /// Pruned by LB_Keogh(query → candidate).
    KeoghQC,
    /// Pruned by LB_Keogh(candidate → query).
    KeoghCQ,
    /// Early-abandoned inside the banded DTW.
    DtwAbandoned,
    /// Survived every filter; exact DTW computed.
    DtwExact,
}

/// One resolution level of a FastDTW run, for [`Meter::fastdtw_level`].
///
/// `window_cells = projected_cells + expanded_cells`: the cells the
/// low-resolution warp path projects onto plus the extra cells the
/// radius dilation admits. The paper's Section 3 compares the sum of
/// `window_cells` over all levels against the single-level band area of
/// cDTW.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FastDtwLevel {
    /// Resolution length of `x` at this level.
    pub len_x: usize,
    /// Resolution length of `y` at this level.
    pub len_y: usize,
    /// Admissible cells in this level's window.
    pub window_cells: u64,
    /// Cells covered by projecting the coarser level's path.
    pub projected_cells: u64,
    /// Additional cells admitted by the radius dilation.
    pub expanded_cells: u64,
    /// Whether this level was the full-DTW base case.
    pub base_case: bool,
}

crate::impl_to_json!(FastDtwLevel {
    len_x,
    len_y,
    window_cells,
    projected_cells,
    expanded_cells,
    base_case,
});

/// A sink for work accounting events.
///
/// All methods default to empty `#[inline]` bodies, so a sink only
/// overrides what it cares about and [`NoMeter`] overrides nothing.
pub trait Meter {
    /// Whether this sink records anything. Kernels consult it before
    /// computing *expensive arguments* that exist only for metering
    /// (e.g. FastDTW's separate projection-only window); for `NoMeter`
    /// it is a constant `false`, so the guarded block is statically
    /// dead after monomorphization.
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    /// `n` DP cell recurrences were evaluated.
    #[inline]
    fn cells(&mut self, n: u64) {
        let _ = n;
    }

    /// A DP pass began over a window admitting `n` cells (the band
    /// area for cDTW; the projected+expanded window for FastDTW).
    #[inline]
    fn window_cells(&mut self, n: u64) {
        let _ = n;
    }

    /// A DP scratch buffer of `bytes` was in use; the meter keeps the
    /// maximum seen.
    #[inline]
    fn dp_buffer_bytes(&mut self, bytes: u64) {
        let _ = bytes;
    }

    /// One FastDTW resolution level completed.
    #[inline]
    fn fastdtw_level(&mut self, level: FastDtwLevel) {
        let _ = level;
    }

    /// A lower bound was invoked.
    #[inline]
    fn lb(&mut self, kind: LbKind) {
        let _ = kind;
    }

    /// An LB_Keogh envelope was built over `points` points.
    #[inline]
    fn envelope_built(&mut self, points: u64) {
        let _ = points;
    }

    /// A pruning cascade disposed of one candidate at `stage`.
    #[inline]
    fn prune(&mut self, stage: StageTag) {
        let _ = stage;
    }

    /// An early-abandoning DTW finished having filled `filled` of
    /// `total` rows (`filled == total` means it ran to completion).
    #[inline]
    fn ea_rows(&mut self, filled: u64, total: u64) {
        let _ = (filled, total);
    }

    /// A query-batched DP group was dispatched with `lanes` active
    /// lanes (1 ≤ lanes ≤ `batch::LANES`; padding lanes are not
    /// counted).
    #[inline]
    fn batch_group(&mut self, lanes: u64) {
        let _ = lanes;
    }

    /// A candidate reached funnel `stage` of a pruning cascade.
    /// Together with [`prune`](Self::prune) (which records the funnel
    /// disposition) this drives the per-stage EXPLAIN ledger.
    #[inline]
    fn stage_entered(&mut self, stage: FunnelStage) {
        let _ = stage;
    }

    /// `units` of deterministic funnel cost (see the cost-proxy table
    /// in [`funnel`](crate::funnel)) were spent in `stage`.
    #[inline]
    fn stage_cost(&mut self, stage: FunnelStage, units: u64) {
        let _ = (stage, units);
    }

    /// A bound-tightness sample for `stage`: `LB / true-DTW` in
    /// parts-per-billion (see [`tightness_ppb`](crate::tightness_ppb)).
    #[inline]
    fn stage_tightness(&mut self, stage: FunnelStage, ratio_ppb: u64) {
        let _ = (stage, ratio_ppb);
    }
}

/// The do-nothing sink; the default for every un-metered entry point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMeter;

impl Meter for NoMeter {}

impl<M: Meter + ?Sized> Meter for &mut M {
    #[inline]
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    #[inline]
    fn cells(&mut self, n: u64) {
        (**self).cells(n);
    }

    #[inline]
    fn window_cells(&mut self, n: u64) {
        (**self).window_cells(n);
    }

    #[inline]
    fn dp_buffer_bytes(&mut self, bytes: u64) {
        (**self).dp_buffer_bytes(bytes);
    }

    #[inline]
    fn fastdtw_level(&mut self, level: FastDtwLevel) {
        (**self).fastdtw_level(level);
    }

    #[inline]
    fn lb(&mut self, kind: LbKind) {
        (**self).lb(kind);
    }

    #[inline]
    fn envelope_built(&mut self, points: u64) {
        (**self).envelope_built(points);
    }

    #[inline]
    fn prune(&mut self, stage: StageTag) {
        (**self).prune(stage);
    }

    #[inline]
    fn ea_rows(&mut self, filled: u64, total: u64) {
        (**self).ea_rows(filled, total);
    }

    #[inline]
    fn batch_group(&mut self, lanes: u64) {
        (**self).batch_group(lanes);
    }

    #[inline]
    fn stage_entered(&mut self, stage: FunnelStage) {
        (**self).stage_entered(stage);
    }

    #[inline]
    fn stage_cost(&mut self, stage: FunnelStage, units: u64) {
        (**self).stage_cost(stage, units);
    }

    #[inline]
    fn stage_tightness(&mut self, stage: FunnelStage, ratio_ppb: u64) {
        (**self).stage_tightness(stage, ratio_ppb);
    }
}

/// The single-source table of [`WorkMeter`]'s scalar counters.
///
/// Each entry is `(field, "dotted.report.name", gate, fold)`. Every
/// consumer of the counters is generated from this one list — the
/// struct-field merge in [`WorkMeter::merge`], the name list
/// [`WorkMeter::COUNTER_NAMES`], the by-name lookup
/// [`WorkMeter::field`], the ordered dump
/// [`WorkMeter::counter_values`], and the leaf emission inside
/// [`WorkMeter::report`] / [`WorkMeter::summary`] — so a counter added
/// here shows up everywhere at once and cannot drift between the
/// human-readable and JSON views (`counter_table_matches_report`
/// locks this).
///
/// * `field` — the `WorkMeter` struct field.
/// * name — where the value lands in the `work` JSON section; a dot
///   nests it one object deep (`"prune.kim"` → `work.prune.kim`).
/// * `gate` — the group whose counters must be non-zero for these
///   leaves to be emitted at all (`always` leaves are unconditional).
/// * `fold` — `add` or `max` under merge.
macro_rules! for_each_work_counter {
    ($cb:ident! ( $($args:tt)* )) => {
        $cb! { ($($args)*)
            { cells, "cells", always, add },
            { window_cells, "window_cells", always, add },
            { dp_peak_bytes, "dp_peak_bytes", always, max },
            { lb_kim, "lower_bounds.kim", lower_bounds, add },
            { lb_keogh, "lower_bounds.keogh", lower_bounds, add },
            { lb_improved, "lower_bounds.improved", lower_bounds, add },
            { lb_yi, "lower_bounds.yi", lower_bounds, add },
            { envelopes_built, "envelopes_built", envelopes, add },
            { envelope_points, "envelope_points", envelopes, add },
            { pruned_kim, "prune.kim", prune, add },
            { pruned_keogh_qc, "prune.keogh_qc", prune, add },
            { pruned_keogh_cq, "prune.keogh_cq", prune, add },
            { dtw_abandoned, "prune.dtw_abandoned", prune, add },
            { dtw_exact, "prune.dtw_exact", prune, add },
            { ea_invocations, "early_abandon.invocations", early_abandon, add },
            { ea_rows_filled, "early_abandon.rows_filled", early_abandon, add },
            { ea_rows_total, "early_abandon.rows_total", early_abandon, add },
            { batch_groups, "batch.groups", batch, add },
            { batch_lanes, "batch.lanes", batch, add },
        }
    };
}

macro_rules! fold_counter {
    (add, $dst:expr, $src:expr) => {
        $dst += $src
    };
    (max, $dst:expr, $src:expr) => {
        $dst = $dst.max($src)
    };
}

macro_rules! emit_counter_api {
    (() $({ $field:ident, $name:literal, $gate:ident, $fold:ident },)*) => {
        /// Canonical dotted names of every scalar counter, in report
        /// emission order (generated from the counter table).
        pub const COUNTER_NAMES: &'static [&'static str] = &[$($name),*];

        /// Fold discipline for each counter, aligned index-for-index
        /// with [`COUNTER_NAMES`](Self::COUNTER_NAMES): `"add"` for
        /// accumulating counters, `"max"` for high-water marks. The
        /// metrics registry consumes this to pick Prometheus kinds
        /// (add → counter, max → gauge).
        pub const COUNTER_FOLDS: &'static [&'static str] = &[$(stringify!($fold)),*];

        /// Every scalar counter as `(dotted_name, value)`, in table
        /// order.
        pub fn counter_values(&self) -> Vec<(&'static str, u64)> {
            vec![$(($name, self.$field)),*]
        }

        /// Looks a scalar counter up by its dotted report name; `None`
        /// for names not in [`COUNTER_NAMES`](Self::COUNTER_NAMES).
        pub fn field(&self, name: &str) -> Option<u64> {
            match name {
                $($name => Some(self.$field),)*
                _ => None,
            }
        }

        /// Whether `name`'s gate group has recorded anything (an
        /// `always` leaf is unconditionally open). Leaves of a closed
        /// gate are omitted from [`report`](Self::report) and
        /// [`summary`](Self::summary).
        fn gate_open(&self, name: &str) -> bool {
            let gate = match name {
                $($name => stringify!($gate),)*
                _ => return false,
            };
            if gate == "always" {
                return true;
            }
            let mut sum = 0u64;
            $(
                if stringify!($gate) == gate {
                    sum += self.$field;
                }
            )*
            sum > 0
        }

        fn merge_counters(&mut self, other: &WorkMeter) {
            $(fold_counter!($fold, self.$field, other.$field);)*
        }
    };
}

/// The recording sink: plain counters, no allocation on the hot path
/// except the per-level `Vec` push (once per FastDTW resolution).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkMeter {
    /// DP cell recurrences evaluated.
    pub cells: u64,
    /// Admissible cells across all DP windows entered.
    pub window_cells: u64,
    /// Peak DP scratch bytes observed.
    pub dp_peak_bytes: u64,
    /// FastDTW per-level breakdown, outermost call's coarsest level first.
    pub levels: Vec<FastDtwLevel>,
    /// LB_Kim invocations.
    pub lb_kim: u64,
    /// LB_Keogh invocations (either orientation).
    pub lb_keogh: u64,
    /// LB_Improved invocations.
    pub lb_improved: u64,
    /// LB_Yi invocations.
    pub lb_yi: u64,
    /// Envelopes built.
    pub envelopes_built: u64,
    /// Total points across built envelopes.
    pub envelope_points: u64,
    /// Candidates pruned by LB_Kim.
    pub pruned_kim: u64,
    /// Candidates pruned by LB_Keogh(q→c).
    pub pruned_keogh_qc: u64,
    /// Candidates pruned by LB_Keogh(c→q).
    pub pruned_keogh_cq: u64,
    /// Candidates abandoned inside banded DTW.
    pub dtw_abandoned: u64,
    /// Candidates that needed the exact DTW.
    pub dtw_exact: u64,
    /// Early-abandoning DTW invocations.
    pub ea_invocations: u64,
    /// Rows actually filled across those invocations.
    pub ea_rows_filled: u64,
    /// Rows that would have been filled without abandoning.
    pub ea_rows_total: u64,
    /// Query-batched DP groups dispatched.
    pub batch_groups: u64,
    /// Active lanes summed across those groups (padding lanes
    /// excluded) — `batch_lanes / batch_groups` is the mean occupancy.
    pub batch_lanes: u64,
    /// Per-stage prune-funnel ledger (EXPLAIN analytics). Not a table
    /// counter: it has its own `funnel` report section rather than
    /// leaves inside `work`, so existing `work` baselines stay
    /// byte-identical.
    pub funnel: Funnel,
}

/// Sets `value` at a dotted path inside an object, creating the
/// one-deep intermediate object on demand (the counter table nests at
/// most one level).
fn set_dotted(j: &mut Json, path: &'static str, value: u64) {
    let Some((group, leaf)) = path.split_once('.') else {
        j.set(path, value);
        return;
    };
    if matches!(j.get(group), None | Some(Json::Null)) {
        j.set(group, Json::object());
    }
    if let Json::Obj(entries) = j {
        if let Some((_, sub)) = entries.iter_mut().find(|(k, _)| k == group) {
            sub.set(leaf, value);
        }
    }
}

impl WorkMeter {
    for_each_work_counter!(emit_counter_api!());

    /// A fresh meter with all counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total candidates the pruning cascade disposed of (all stages).
    pub fn candidates(&self) -> u64 {
        self.pruned_kim
            + self.pruned_keogh_qc
            + self.pruned_keogh_cq
            + self.dtw_abandoned
            + self.dtw_exact
    }

    /// Evaluated-cells over admissible-cells; `None` before any DP ran.
    pub fn fill_fraction(&self) -> Option<f64> {
        if self.window_cells == 0 {
            None
        } else {
            Some(self.cells as f64 / self.window_cells as f64)
        }
    }

    /// Sum of per-level window cells — FastDTW's total touched-cell
    /// account that the paper compares against the cDTW band area.
    pub fn fastdtw_total_window_cells(&self) -> u64 {
        self.levels.iter().map(|l| l.window_cells).sum()
    }

    /// Folds another meter's counters into this one (used when worker
    /// threads each carry their own meter). Scalar folding is generated
    /// from the counter table; `levels` (the only non-scalar field)
    /// concatenates in call order.
    pub fn merge(&mut self, other: &WorkMeter) {
        self.merge_counters(other);
        self.levels.extend(other.levels.iter().copied());
        self.funnel.merge(&other.funnel);
    }

    /// The `work` section emitted into bench reports and `--stats-json`.
    ///
    /// Scalar leaves come straight from the counter table (gated groups
    /// are omitted until they record something); the derived values —
    /// `fill_fraction`, the FastDTW level breakdown, and the prune
    /// `candidates` total — are appended after.
    pub fn report(&self) -> Json {
        let mut j = Json::object();
        for (name, value) in self.counter_values() {
            if self.gate_open(name) {
                set_dotted(&mut j, name, value);
            }
        }
        if let Some(f) = self.fill_fraction() {
            j.set("fill_fraction", f);
        }
        if !self.levels.is_empty() {
            j.set("fastdtw_levels", &self.levels);
            j.set(
                "fastdtw_total_window_cells",
                self.fastdtw_total_window_cells(),
            );
        }
        if self.candidates() > 0 {
            set_dotted(&mut j, "prune.candidates", self.candidates());
        }
        j
    }

    /// Human-readable multi-line counter summary for `--stats`.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "work: {} DP cells evaluated / {} cells in window",
            self.cells, self.window_cells
        ));
        if let Some(f) = self.fill_fraction() {
            out.push_str(&format!(" ({:.1}% filled)", f * 100.0));
        }
        out.push('\n');
        out.push_str(&format!("  peak DP buffer: {} bytes\n", self.dp_peak_bytes));
        if !self.levels.is_empty() {
            out.push_str(&format!(
                "  fastdtw: {} levels, {} total window cells\n",
                self.levels.len(),
                self.fastdtw_total_window_cells()
            ));
            for (i, l) in self.levels.iter().enumerate() {
                out.push_str(&format!(
                    "    level {i}: {}x{} {} ({} projected + {} radius-expanded)\n",
                    l.len_x,
                    l.len_y,
                    if l.base_case { "full DP" } else { "windowed" },
                    l.projected_cells,
                    l.expanded_cells,
                ));
            }
        }
        if self.envelopes_built > 0 {
            out.push_str(&format!(
                "  envelopes built: {} ({} points)\n",
                self.envelopes_built, self.envelope_points
            ));
        }
        // The grouped lines are generated from the counter table, so
        // they always show exactly the leaves the JSON report emits.
        for (group, title) in [
            ("lower_bounds", "lower bounds"),
            ("prune", "prune cascade"),
            ("early_abandon", "early abandon"),
            ("batch", "batched kernel"),
        ] {
            let leaves: Vec<String> = self
                .counter_values()
                .into_iter()
                .filter(|(name, _)| {
                    name.split_once('.').is_some_and(|(g, _)| g == group) && self.gate_open(name)
                })
                .map(|(name, value)| {
                    let leaf = name.split_once('.').expect("filtered to dotted").1;
                    format!("{leaf}={value}")
                })
                .collect();
            if leaves.is_empty() {
                continue;
            }
            if group == "prune" {
                out.push_str(&format!(
                    "  {title} ({} candidates): {}\n",
                    self.candidates(),
                    leaves.join(" ")
                ));
            } else {
                out.push_str(&format!("  {title}: {}\n", leaves.join(" ")));
            }
        }
        out
    }
}

/// A [`Meter`] that can be sharded across worker threads and merged
/// back deterministically.
///
/// The parallel executor in `tsdtw-mining::par` gives every work item
/// its own shard (created with [`fresh`](MeterShard::fresh) on the
/// worker thread) and folds the shards into the caller's meter **in
/// item-index order** with [`absorb`](MeterShard::absorb). Because
/// counter addition is associative and commutative and the only
/// order-sensitive field (`levels`) is concatenated in item order, the
/// merged meter is bit-identical to the one a serial run would have
/// produced — at any thread count.
pub trait MeterShard: Meter + Send + Sized {
    /// A fresh, empty shard of this meter kind.
    fn fresh() -> Self;

    /// Folds a worker shard back into this meter. Callers must absorb
    /// shards in item-index order to preserve the serial ordering of
    /// order-sensitive fields.
    fn absorb(&mut self, shard: Self);
}

impl MeterShard for NoMeter {
    #[inline]
    fn fresh() -> Self {
        NoMeter
    }

    #[inline]
    fn absorb(&mut self, _shard: Self) {}
}

impl MeterShard for WorkMeter {
    fn fresh() -> Self {
        WorkMeter::new()
    }

    fn absorb(&mut self, shard: Self) {
        self.merge(&shard);
    }
}

impl Meter for WorkMeter {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn cells(&mut self, n: u64) {
        self.cells += n;
    }

    #[inline]
    fn window_cells(&mut self, n: u64) {
        self.window_cells += n;
    }

    #[inline]
    fn dp_buffer_bytes(&mut self, bytes: u64) {
        self.dp_peak_bytes = self.dp_peak_bytes.max(bytes);
    }

    #[inline]
    fn fastdtw_level(&mut self, level: FastDtwLevel) {
        self.levels.push(level);
    }

    #[inline]
    fn lb(&mut self, kind: LbKind) {
        match kind {
            LbKind::Kim => self.lb_kim += 1,
            LbKind::Keogh => self.lb_keogh += 1,
            LbKind::Improved => self.lb_improved += 1,
            LbKind::Yi => self.lb_yi += 1,
        }
    }

    #[inline]
    fn envelope_built(&mut self, points: u64) {
        self.envelopes_built += 1;
        self.envelope_points += points;
    }

    #[inline]
    fn prune(&mut self, stage: StageTag) {
        // Dispositions also drive the funnel ledger: each prune tag
        // maps onto its funnel stage's `pruned` column, except
        // `DtwExact`, which is the candidate *surviving* the whole
        // funnel (survivors are derived as entered − pruned).
        match stage {
            StageTag::Kim => {
                self.pruned_kim += 1;
                self.funnel.record_pruned(FunnelStage::Kim);
            }
            StageTag::KeoghQC => {
                self.pruned_keogh_qc += 1;
                self.funnel.record_pruned(FunnelStage::KeoghQC);
            }
            StageTag::KeoghCQ => {
                self.pruned_keogh_cq += 1;
                self.funnel.record_pruned(FunnelStage::KeoghCQ);
            }
            StageTag::DtwAbandoned => {
                self.dtw_abandoned += 1;
                self.funnel.record_pruned(FunnelStage::Dtw);
            }
            StageTag::DtwExact => self.dtw_exact += 1,
        }
    }

    #[inline]
    fn ea_rows(&mut self, filled: u64, total: u64) {
        self.ea_invocations += 1;
        self.ea_rows_filled += filled;
        self.ea_rows_total += total;
    }

    #[inline]
    fn batch_group(&mut self, lanes: u64) {
        self.batch_groups += 1;
        self.batch_lanes += lanes;
    }

    #[inline]
    fn stage_entered(&mut self, stage: FunnelStage) {
        self.funnel.record_entered(stage);
    }

    #[inline]
    fn stage_cost(&mut self, stage: FunnelStage, units: u64) {
        self.funnel.record_cost(stage, units);
    }

    #[inline]
    fn stage_tightness(&mut self, stage: FunnelStage, ratio_ppb: u64) {
        self.funnel.record_tightness(stage, ratio_ppb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_meter_is_inert() {
        let mut m = NoMeter;
        m.cells(10);
        m.prune(StageTag::Kim);
        m.ea_rows(1, 2);
        assert_eq!(m, NoMeter);
    }

    #[test]
    fn work_meter_accumulates() {
        let mut m = WorkMeter::new();
        m.cells(5);
        m.cells(7);
        m.window_cells(20);
        m.dp_buffer_bytes(100);
        m.dp_buffer_bytes(64);
        m.lb(LbKind::Keogh);
        m.lb(LbKind::Keogh);
        m.envelope_built(32);
        m.prune(StageTag::Kim);
        m.prune(StageTag::DtwExact);
        m.ea_rows(3, 10);
        assert_eq!(m.cells, 12);
        assert_eq!(m.window_cells, 20);
        assert_eq!(m.dp_peak_bytes, 100);
        assert_eq!(m.lb_keogh, 2);
        assert_eq!(m.envelopes_built, 1);
        assert_eq!(m.envelope_points, 32);
        assert_eq!(m.candidates(), 2);
        assert_eq!(m.ea_rows_filled, 3);
        assert_eq!(m.ea_rows_total, 10);
        assert_eq!(m.fill_fraction(), Some(0.6));
    }

    #[test]
    fn merge_folds_counters_and_maxes_peak() {
        let mut a = WorkMeter::new();
        a.cells(1);
        a.dp_buffer_bytes(10);
        let mut b = WorkMeter::new();
        b.cells(2);
        b.dp_buffer_bytes(30);
        b.fastdtw_level(FastDtwLevel {
            len_x: 4,
            len_y: 4,
            window_cells: 16,
            projected_cells: 16,
            expanded_cells: 0,
            base_case: true,
        });
        a.merge(&b);
        assert_eq!(a.cells, 3);
        assert_eq!(a.dp_peak_bytes, 30);
        assert_eq!(a.levels.len(), 1);
        assert_eq!(a.fastdtw_total_window_cells(), 16);
    }

    #[test]
    fn report_emits_populated_sections_only() {
        let mut m = WorkMeter::new();
        m.cells(4);
        m.window_cells(8);
        let j = m.report();
        assert_eq!(j["cells"], 4u64);
        assert_eq!(j["window_cells"], 8u64);
        assert_eq!(j["fill_fraction"].as_f64().unwrap(), 0.5);
        assert!(j["prune"].is_null());
        assert!(j["fastdtw_levels"].is_null());

        m.prune(StageTag::DtwExact);
        let j = m.report();
        assert_eq!(j["prune"]["dtw_exact"], 1u64);
        assert_eq!(j["prune"]["candidates"], 1u64);
    }

    #[test]
    fn summary_mentions_key_counters() {
        let mut m = WorkMeter::new();
        m.cells(4);
        m.window_cells(8);
        m.prune(StageTag::Kim);
        let s = m.summary();
        assert!(s.contains("4 DP cells"));
        assert!(s.contains("prune cascade"));
    }

    /// A deterministic pseudo-random meter for the algebra tests.
    fn arbitrary_meter(seed: u64) -> WorkMeter {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 97
        };
        let mut m = WorkMeter::new();
        m.cells(next());
        m.window_cells(next());
        m.dp_buffer_bytes(next());
        m.lb(LbKind::Kim);
        m.lb(LbKind::Keogh);
        m.envelope_built(next());
        m.prune(StageTag::KeoghQC);
        m.prune(StageTag::DtwExact);
        m.ea_rows(next() % 10, 10);
        m.batch_group(next() % 8 + 1);
        m.fastdtw_level(FastDtwLevel {
            len_x: (next() + 1) as usize,
            len_y: (next() + 1) as usize,
            window_cells: next(),
            projected_cells: next(),
            expanded_cells: next(),
            base_case: next() % 2 == 0,
        });
        m
    }

    /// Strips the order-sensitive `levels` field so the commutativity
    /// check compares only the plain counters.
    fn counters_only(mut m: WorkMeter) -> WorkMeter {
        m.levels.clear();
        m
    }

    #[test]
    fn merge_is_associative() {
        let (a, b, c) = (arbitrary_meter(1), arbitrary_meter(2), arbitrary_meter(3));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
    }

    #[test]
    fn merge_counters_are_commutative() {
        let (a, b) = (arbitrary_meter(7), arbitrary_meter(11));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        // `levels` ordering is deliberately order-sensitive; every plain
        // counter commutes.
        assert_eq!(counters_only(ab.clone()), counters_only(ba));
        // ... and the identity element leaves everything unchanged.
        let mut with_zero = a.clone();
        with_zero.merge(&WorkMeter::new());
        assert_eq!(with_zero, a);
    }

    #[test]
    fn shard_fresh_is_empty_and_absorb_matches_merge() {
        assert_eq!(WorkMeter::fresh(), WorkMeter::new());
        let (a, b) = (arbitrary_meter(5), arbitrary_meter(6));
        let mut via_absorb = a.clone();
        via_absorb.absorb(b.clone());
        let mut via_merge = a.clone();
        via_merge.merge(&b);
        assert_eq!(via_absorb, via_merge);
        // NoMeter shards are inert.
        let mut n = NoMeter;
        n.absorb(NoMeter::fresh());
        assert_eq!(n, NoMeter);
    }

    /// Locks the counter table to the JSON report: with every gate
    /// open, each table entry must appear in `report()` at its dotted
    /// path with the value `field()` returns — no drift between the
    /// table, the lookup, and the emission.
    #[test]
    fn counter_table_matches_report() {
        let m = arbitrary_meter(42); // records in every gate group
        let j = m.report();
        assert_eq!(WorkMeter::COUNTER_NAMES.len(), 19);
        for &name in WorkMeter::COUNTER_NAMES {
            let from_field = m.field(name).expect("table names always resolve");
            let from_json = match name.split_once('.') {
                None => &j[name],
                Some((group, leaf)) => &j[group][leaf],
            };
            assert_eq!(
                from_json.as_u64(),
                Some(from_field),
                "report leaf {name} must match the table"
            );
        }
        // counter_values() is the same table in the same order.
        let values = m.counter_values();
        assert_eq!(values.len(), WorkMeter::COUNTER_NAMES.len());
        for ((name, value), &expect) in values.iter().zip(WorkMeter::COUNTER_NAMES) {
            assert_eq!(*name, expect);
            assert_eq!(m.field(name), Some(*value));
        }
        // Unknown names miss cleanly.
        assert_eq!(m.field("no_such_counter"), None);
    }

    /// Gated leaves vanish together: an empty meter reports only the
    /// always-on leaves, exactly as the table's gates dictate.
    #[test]
    fn gates_hide_whole_groups() {
        let m = WorkMeter::new();
        let j = m.report();
        for &name in WorkMeter::COUNTER_NAMES {
            let gated = !matches!(name, "cells" | "window_cells" | "dp_peak_bytes");
            let top = name.split_once('.').map_or(name, |(g, _)| g);
            assert_eq!(
                j[top].is_null(),
                gated,
                "leaf {name} gating disagrees with the table"
            );
        }
    }

    #[test]
    fn batch_hooks_accumulate_into_their_gated_group() {
        let mut m = WorkMeter::new();
        // Empty meter: the whole `batch` group is gated out of the report.
        assert!(m.report()["batch"].is_null());
        m.batch_group(8);
        m.batch_group(3);
        assert_eq!(m.batch_groups, 2);
        assert_eq!(m.batch_lanes, 11);
        let j = m.report();
        assert_eq!(j["batch"]["groups"], 2u64);
        assert_eq!(j["batch"]["lanes"], 11u64);
        assert!(m.summary().contains("batched kernel"));
        // The batched tier meters its DP work through the ordinary
        // cells/window hooks; the group counters only describe grouping.
        assert_eq!(m.cells, 0);
    }

    #[test]
    fn prune_dispositions_ride_into_the_funnel() {
        let mut m = WorkMeter::new();
        m.stage_entered(FunnelStage::Kim);
        m.stage_entered(FunnelStage::Kim);
        m.stage_cost(FunnelStage::Kim, 2);
        m.prune(StageTag::Kim);
        m.stage_entered(FunnelStage::Dtw);
        m.prune(StageTag::DtwExact); // survivor: no funnel prune
        m.stage_tightness(FunnelStage::Kim, 900_000_000);
        assert_eq!(m.funnel.stage(FunnelStage::Kim).entered, 2);
        assert_eq!(m.funnel.stage(FunnelStage::Kim).pruned, 1);
        assert_eq!(m.funnel.stage(FunnelStage::Kim).cost_units, 2);
        assert_eq!(m.funnel.stage(FunnelStage::Kim).tightness.count(), 1);
        assert_eq!(m.funnel.stage(FunnelStage::Dtw).entered, 1);
        assert_eq!(m.funnel.stage(FunnelStage::Dtw).pruned, 0);
        assert_eq!(m.funnel.stage(FunnelStage::Dtw).survived(), 1);
        // The scalar disposition counters are unchanged by the ledger.
        assert_eq!(m.pruned_kim, 1);
        assert_eq!(m.dtw_exact, 1);
        // ... and the funnel stays out of the `work` report section.
        assert!(m.report()["funnel"].is_null());

        // Meter merge folds the funnel with the same shard algebra.
        let mut other = WorkMeter::new();
        other.stage_entered(FunnelStage::Kim);
        other.prune(StageTag::DtwAbandoned);
        m.merge(&other);
        assert_eq!(m.funnel.stage(FunnelStage::Kim).entered, 3);
        assert_eq!(m.funnel.stage(FunnelStage::Dtw).pruned, 1);
    }

    #[test]
    fn meter_through_mut_ref() {
        fn run<M: Meter>(mut m: M) {
            m.cells(3);
        }
        let mut w = WorkMeter::new();
        run(&mut w);
        assert_eq!(w.cells, 3);
    }
}
