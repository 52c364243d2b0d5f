//! The metrics registry and its Prometheus exposition.
//!
//! [`WorkMeter`] answers "how much work did *this call* do"; the bench
//! snapshots answer "how much work did *this run* do". The registry
//! holds the same numbers as named counters, gauges and latency
//! summaries in the form a scraper reads: [`MetricsRegistry::render`]
//! emits the Prometheus text exposition format, and the CLI's
//! `--metrics FILE` builds one registry per command and writes its
//! bytes.
//!
//! ## Determinism contract
//!
//! Everything the registry stores folds with an associative,
//! commutative discipline — counters saturating-add, gauges fold by
//! max, summaries merge bucket-wise (see [`LatencyHist::merge`]) — and
//! [`MetricsRegistry::render`] emits metrics in sorted name order. A
//! registry fed the same *values* therefore renders the same *bytes*,
//! regardless of how work was sharded across threads: the meter
//! invariance (merged [`WorkMeter`]s are bitwise thread-count-
//! independent) extends through [`record_meter`](MetricsRegistry::record_meter)
//! to the exposition text. The `parallel_equivalence` suite locks this.
//!
//! ## Naming convention
//!
//! * `tsdtw_work_<counter>` — the [`WorkMeter`] table, dots replaced
//!   with underscores (`prune.kim` → `tsdtw_work_prune_kim`). Add-fold
//!   counters become Prometheus counters; max-fold high-water marks
//!   (`dp_peak_bytes`) become gauges.
//! * `tsdtw_cascade_stage_<stage>_<quantity>` — the prune-funnel
//!   ledger (`entered` / `pruned` / `cost_units` counters and a
//!   dimensionless `tightness` summary per cascade stage), via
//!   [`record_funnel`](MetricsRegistry::record_funnel).
//! * `tsdtw_<subsystem>_<quantity>_<unit>` for everything else, e.g.
//!   `tsdtw_request_seconds` (a summary). Base units, never prefixed
//!   units: seconds and bytes.

use crate::funnel::{Funnel, FunnelStage};
use crate::hist::LatencyHist;
use crate::json::json_escape;
use crate::meter::WorkMeter;

/// The value payload of one registered metric.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// Monotone accumulation; folds by saturating add.
    Counter(u64),
    /// Instantaneous level; folds by max (deterministic in any
    /// recording order).
    Gauge(f64),
    /// A duration distribution; folds bucket-wise. Rendered as a
    /// Prometheus `summary` (quantile series + `_sum` + `_count`).
    Summary(LatencyHist),
}

impl Value {
    fn kind(&self) -> &'static str {
        match self {
            Value::Counter(_) => "counter",
            Value::Gauge(_) => "gauge",
            Value::Summary(_) => "summary",
        }
    }
}

/// One named metric: name, help text, and the typed value.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    help: String,
    value: Value,
}

/// A registry of named metrics, kept sorted by name. A plain value: the
/// CLI builds one per command.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot for `name`, created with `make` on first touch.
    /// Panics if `name` is already registered under a different kind —
    /// metric names are static program structure, so a kind collision
    /// is a bug, not data.
    fn slot(&mut self, name: &str, help: &str, make: impl FnOnce() -> Value) -> &mut Value {
        let i = match self.metrics.binary_search_by(|m| m.name.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                self.metrics.insert(
                    i,
                    Metric {
                        name: name.to_string(),
                        help: help.to_string(),
                        value: make(),
                    },
                );
                i
            }
        };
        &mut self.metrics[i].value
    }

    /// Adds `n` to the counter `name` (registering it on first touch).
    pub fn counter_add(&mut self, name: &str, help: &str, n: u64) {
        match self.slot(name, help, || Value::Counter(0)) {
            Value::Counter(v) => *v = v.saturating_add(n),
            other => panic!("metric {name} is a {}, not a counter", other.kind()),
        }
    }

    /// Raises the gauge `name` to at least `v` — the fold used for
    /// high-water marks like peak scratch bytes, and the only gauge
    /// write, so the fold commutes.
    pub fn gauge_max(&mut self, name: &str, help: &str, v: f64) {
        match self.slot(name, help, || Value::Gauge(v)) {
            Value::Gauge(g) => *g = g.max(v),
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Records one duration into the summary `name` (registering it on
    /// first touch).
    pub fn observe_s(&mut self, name: &str, help: &str, seconds: f64) {
        match self.slot(name, help, || Value::Summary(LatencyHist::new())) {
            Value::Summary(h) => h.record_s(seconds),
            other => panic!("metric {name} is a {}, not a summary", other.kind()),
        }
    }

    /// Folds a finished [`WorkMeter`] into the registry under the
    /// `tsdtw_work_*` names. Fold kinds come from the meter's own
    /// counter table: add-fold entries accumulate as counters, max-fold
    /// entries (peak bytes) raise gauges.
    pub fn record_meter(&mut self, meter: &WorkMeter) {
        for ((dotted, value), fold) in meter
            .counter_values()
            .into_iter()
            .zip(WorkMeter::COUNTER_FOLDS)
        {
            let name = format!("tsdtw_work_{}", dotted.replace('.', "_"));
            let help = format!("WorkMeter counter {dotted}.");
            match *fold {
                "max" => self.gauge_max(&name, &help, value as f64),
                _ => self.counter_add(&name, &help, value),
            }
        }
    }

    /// Merges a whole histogram into the summary `name` (registering
    /// it on first touch) — the bulk form of
    /// [`observe_s`](Self::observe_s), used when a finished run hands
    /// over an already-accumulated distribution such as a funnel
    /// stage's bound-tightness histogram.
    pub fn summary_merge(&mut self, name: &str, help: &str, hist: &LatencyHist) {
        match self.slot(name, help, || Value::Summary(LatencyHist::new())) {
            Value::Summary(h) => h.merge(hist),
            other => panic!("metric {name} is a {}, not a summary", other.kind()),
        }
    }

    /// Folds a finished [`Funnel`] into the registry under the
    /// `tsdtw_cascade_stage_<stage>_*` names: per-stage `entered`,
    /// `pruned`, and `cost_units` counters plus a `tightness` summary
    /// (the `LB / true-DTW` ratio distribution — dimensionless, stored
    /// at parts-per-billion resolution so the rendered quantiles are
    /// the raw ratios). An empty funnel registers nothing, so
    /// non-cascaded commands leave the exposition untouched.
    pub fn record_funnel(&mut self, funnel: &Funnel) {
        if funnel.is_empty() {
            return;
        }
        for stage in FunnelStage::ALL {
            let s = funnel.stage(stage);
            let base = format!("tsdtw_cascade_stage_{}", stage.name());
            self.counter_add(
                &format!("{base}_entered"),
                &format!("Candidates entering cascade stage {}.", stage.name()),
                s.entered,
            );
            self.counter_add(
                &format!("{base}_pruned"),
                &format!("Candidates pruned by cascade stage {}.", stage.name()),
                s.pruned,
            );
            self.counter_add(
                &format!("{base}_cost_units"),
                &format!("Deterministic cost units spent in stage {}.", stage.name()),
                s.cost_units,
            );
            if s.tightness.count() > 0 {
                self.summary_merge(
                    &format!("{base}_tightness"),
                    &format!("LB/true-DTW tightness ratio at stage {}.", stage.name()),
                    &s.tightness,
                );
            }
        }
    }

    /// The registry in the Prometheus text exposition format (version
    /// 0.0.4): `# HELP` / `# TYPE` headers and one sample line per
    /// series, metrics in sorted name order. Help text goes through the
    /// shared [`json_escape`] — its escape set (backslash, quote,
    /// newline, control characters) is a superset of what the
    /// exposition format requires, so a hostile help string can never
    /// break line framing.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, json_escape(&m.help)));
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.value.kind()));
            match &m.value {
                Value::Counter(v) => out.push_str(&format!("{} {v}\n", m.name)),
                Value::Gauge(v) => out.push_str(&format!("{} {v}\n", m.name)),
                Value::Summary(h) => {
                    for q in [0.5, 0.9, 0.99] {
                        out.push_str(&format!(
                            "{}{{quantile=\"{q}\"}} {}\n",
                            m.name,
                            h.percentile_s(q)
                        ));
                    }
                    out.push_str(&format!("{}_sum {}\n", m.name, h.total_s()));
                    out.push_str(&format!("{}_count {}\n", m.name, h.count()));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_is_sorted_typed_and_stable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("tsdtw_z_last", "Registered first, renders last.", 3);
        r.gauge_max("tsdtw_a_first", "Registered last, renders first.", 1.5);
        r.counter_add("tsdtw_m_mid", "Middle.", 7);
        r.counter_add("tsdtw_z_last", "Registered first, renders last.", 4);
        let text = r.render();
        let expect = "# HELP tsdtw_a_first Registered last, renders first.\n\
                      # TYPE tsdtw_a_first gauge\n\
                      tsdtw_a_first 1.5\n\
                      # HELP tsdtw_m_mid Middle.\n\
                      # TYPE tsdtw_m_mid counter\n\
                      tsdtw_m_mid 7\n\
                      # HELP tsdtw_z_last Registered first, renders last.\n\
                      # TYPE tsdtw_z_last counter\n\
                      tsdtw_z_last 7\n";
        assert_eq!(text, expect);
        // Rendering is a pure read: same registry, same bytes.
        assert_eq!(r.render(), text);
    }

    #[test]
    fn help_text_cannot_break_line_framing() {
        let mut r = MetricsRegistry::new();
        r.counter_add("tsdtw_hostile", "multi\nline \"help\" with \\ and \u{1}", 1);
        let text = r.render();
        // One HELP line, one TYPE line, one sample line — the newline
        // in the help text was escaped, not emitted.
        assert_eq!(text.lines().count(), 3, "{text}");
        assert!(text.contains("multi\\nline"), "{text}");
    }

    #[test]
    fn summaries_render_quantiles_sum_and_count() {
        let mut r = MetricsRegistry::new();
        for i in 1..=100u64 {
            r.observe_s("tsdtw_request_seconds", "Request latency.", i as f64 * 1e-3);
        }
        let text = r.render();
        assert!(
            text.contains("# TYPE tsdtw_request_seconds summary"),
            "{text}"
        );
        for q in ["0.5", "0.9", "0.99"] {
            assert!(
                text.contains(&format!("tsdtw_request_seconds{{quantile=\"{q}\"}}")),
                "{text}"
            );
        }
        assert!(text.contains("tsdtw_request_seconds_count 100"), "{text}");
        assert!(text.contains("tsdtw_request_seconds_sum "), "{text}");
    }

    #[test]
    fn record_meter_follows_the_counter_table() {
        let mut m = WorkMeter::new();
        m.cells = 42;
        m.window_cells = 100;
        m.dp_peak_bytes = 4096;
        m.pruned_kim = 7;
        let mut r = MetricsRegistry::new();
        r.record_meter(&m);
        let text = r.render();
        assert!(text.contains("# TYPE tsdtw_work_cells counter"), "{text}");
        assert!(text.contains("tsdtw_work_cells 42"), "{text}");
        assert!(text.contains("tsdtw_work_prune_kim 7"), "{text}");
        // The max-fold high-water mark is a gauge, and re-recording a
        // smaller meter must not lower it while counters accumulate.
        assert!(
            text.contains("# TYPE tsdtw_work_dp_peak_bytes gauge"),
            "{text}"
        );
        let mut smaller = WorkMeter::new();
        smaller.cells = 1;
        smaller.dp_peak_bytes = 16;
        r.record_meter(&smaller);
        let text = r.render();
        assert!(text.contains("tsdtw_work_cells 43"), "{text}");
        assert!(text.contains("tsdtw_work_dp_peak_bytes 4096"), "{text}");
        // Every table entry landed under the convention name.
        for dotted in WorkMeter::COUNTER_NAMES {
            let name = format!("tsdtw_work_{}", dotted.replace('.', "_"));
            assert!(text.contains(&name), "missing {name}");
        }
    }

    #[test]
    fn record_funnel_exports_stage_families_and_skips_empty() {
        use crate::funnel::Funnel;

        // An empty funnel leaves the registry untouched.
        let mut r = MetricsRegistry::new();
        r.record_funnel(&Funnel::new());
        assert_eq!(r.render(), "");

        let mut f = Funnel::new();
        for _ in 0..8 {
            f.record_entered(FunnelStage::Kim);
        }
        for _ in 0..5 {
            f.record_pruned(FunnelStage::Kim);
        }
        f.record_cost(FunnelStage::Kim, 8);
        for _ in 0..3 {
            f.record_entered(FunnelStage::Dtw);
        }
        f.record_tightness(FunnelStage::Kim, 750_000_000);
        r.record_funnel(&f);
        let text = r.render();
        assert!(
            text.contains("tsdtw_cascade_stage_lb_kim_entered 8"),
            "{text}"
        );
        assert!(
            text.contains("tsdtw_cascade_stage_lb_kim_pruned 5"),
            "{text}"
        );
        assert!(
            text.contains("tsdtw_cascade_stage_lb_kim_cost_units 8"),
            "{text}"
        );
        assert!(text.contains("tsdtw_cascade_stage_dtw_entered 3"), "{text}");
        // Dormant stages still export (zero-valued) counters, so the
        // family set is stable once any cascade ran.
        assert!(
            text.contains("tsdtw_cascade_stage_lb_keogh_cq_entered 0"),
            "{text}"
        );
        // The tightness summary renders the raw ratio (ppb ÷ 1e9).
        assert!(
            text.contains("# TYPE tsdtw_cascade_stage_lb_kim_tightness summary"),
            "{text}"
        );
        assert!(
            text.contains("tsdtw_cascade_stage_lb_kim_tightness_count 1"),
            "{text}"
        );
        let p50_line = text
            .lines()
            .find(|l| l.contains("lb_kim_tightness{quantile=\"0.5\"}"))
            .expect("tightness quantile line");
        let value: f64 = p50_line.split_whitespace().last().unwrap().parse().unwrap();
        assert!((value - 0.75).abs() < 0.01, "p50 {value} ≈ 0.75");
        // Recording the same funnel twice accumulates (counter semantics).
        r.record_funnel(&f);
        assert!(
            r.render().contains("tsdtw_cascade_stage_lb_kim_entered 16"),
            "{}",
            r.render()
        );
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_collisions_are_programmer_errors() {
        let mut r = MetricsRegistry::new();
        r.gauge_max("tsdtw_oops", "first a gauge", 1.0);
        r.counter_add("tsdtw_oops", "now a counter", 1);
    }
}
