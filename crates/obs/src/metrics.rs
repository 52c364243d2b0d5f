//! The process-wide metrics registry and its Prometheus exposition.
//!
//! [`WorkMeter`] answers "how much work did *this call* do"; the bench
//! snapshots answer "how much work did *this run* do". The registry is
//! the third time horizon: a process-lifetime accumulation of named
//! counters, gauges, and latency summaries that a serving front end can
//! scrape at any moment. It is the data plane the planned `tsdtw-serve`
//! `/metrics` endpoint mounts unchanged: [`MetricsRegistry::render`]
//! emits the Prometheus text exposition format, and the CLI's
//! `--metrics FILE` writes the same bytes today.
//!
//! ## Determinism contract
//!
//! Everything the registry stores folds with an associative,
//! commutative discipline — counters saturating-add, gauges fold by
//! max, summaries merge bucket-wise (see [`LatencyHist::merge`]) — and
//! [`MetricsRegistry::render`] emits metrics in sorted name order. A
//! registry fed the same *values* therefore renders the same *bytes*,
//! regardless of how work was sharded across threads: the PR 3 meter
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
//!   `tsdtw_request_seconds` (a summary), `tsdtw_corpus_bytes` (a
//!   gauge). Base units, never prefixed units: seconds and bytes.
//!
//! ## Sampling onto the flight recorder
//!
//! [`MetricsSampler`] snapshots every numeric registry value on a fixed
//! cadence from a background thread and, on stop, delivers the samples
//! to the active flight recorder as counter tracks
//! ([`CounterSample`], exported as Chrome-trace `ph: "C"` records) —
//! so a Perfetto view of a run shows counter trajectories under the
//! span waterfall. Timestamps come from the recorder's own epoch via
//! [`RecorderHandoff::elapsed_us`](crate::RecorderHandoff::elapsed_us),
//! so samples land at the right place on the span timeline.

use std::sync::{Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::funnel::{Funnel, FunnelStage};
use crate::hist::LatencyHist;
use crate::json::json_escape;
use crate::meter::WorkMeter;
use crate::recorder::CounterSample;

/// The value payload of one registered metric.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    /// Monotone accumulation; folds by saturating add.
    Counter(u64),
    /// Instantaneous level; folds by max (deterministic under any
    /// shard absorption order).
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

/// A registry of named metrics, kept sorted by name.
///
/// Plain value type: build thread-local shard registries on workers and
/// fold them into an owner with [`absorb`](MetricsRegistry::absorb)
/// (index-ordered, like every other shard merge in the workspace), or
/// use the process-wide instance behind [`with_registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: Vec<Metric>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether no metric has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Drops every registered metric (tests and per-run CLI isolation).
    pub fn reset(&mut self) {
        self.metrics.clear();
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

    /// Sets the gauge `name` to `v` (registering it on first touch).
    pub fn gauge_set(&mut self, name: &str, help: &str, v: f64) {
        match self.slot(name, help, || Value::Gauge(v)) {
            Value::Gauge(g) => *g = v,
            other => panic!("metric {name} is a {}, not a gauge", other.kind()),
        }
    }

    /// Raises the gauge `name` to at least `v` — the fold used for
    /// high-water marks like peak scratch bytes, and the only gauge
    /// write that commutes across shard absorption.
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

    /// Folds another registry into this one, metric-by-metric with each
    /// kind's own discipline (counters add saturating, gauges max,
    /// summaries histogram-merge). Absorb shards in item-index order to
    /// match the workspace-wide merge convention; the result is
    /// value-identical under any order regardless.
    pub fn absorb(&mut self, other: &MetricsRegistry) {
        for m in &other.metrics {
            match &m.value {
                Value::Counter(v) => self.counter_add(&m.name, &m.help, *v),
                Value::Gauge(v) => self.gauge_max(&m.name, &m.help, *v),
                Value::Summary(h) => {
                    match self.slot(&m.name, &m.help, || Value::Summary(LatencyHist::new())) {
                        Value::Summary(mine) => mine.merge(h),
                        other => panic!("metric {} is a {}, not a summary", m.name, other.kind()),
                    }
                }
            }
        }
    }

    /// Every metric reduced to one instantaneous number, in name
    /// order — what the sampler snapshots onto counter tracks.
    /// Counters and gauges are themselves; a summary contributes its
    /// sample count as `<name>_count`.
    pub fn numeric_values(&self) -> Vec<(String, f64)> {
        self.metrics
            .iter()
            .map(|m| match &m.value {
                Value::Counter(v) => (m.name.clone(), *v as f64),
                Value::Gauge(v) => (m.name.clone(), *v),
                Value::Summary(h) => (format!("{}_count", m.name), h.count() as f64),
            })
            .collect()
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

/// The process-wide registry instance.
fn global() -> &'static Mutex<MetricsRegistry> {
    static GLOBAL: OnceLock<Mutex<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(MetricsRegistry::new()))
}

/// Runs `f` with the process-wide registry locked. All the global
/// convenience wrappers ([`counter_add`], [`record_meter`], …) go
/// through here; use it directly for compound updates that must be
/// atomic with respect to the sampler.
pub fn with_registry<R>(f: impl FnOnce(&mut MetricsRegistry) -> R) -> R {
    f(&mut global().lock().expect("metrics registry poisoned"))
}

/// [`MetricsRegistry::counter_add`] on the process-wide registry.
pub fn counter_add(name: &str, help: &str, n: u64) {
    with_registry(|r| r.counter_add(name, help, n));
}

/// [`MetricsRegistry::gauge_set`] on the process-wide registry.
pub fn gauge_set(name: &str, help: &str, v: f64) {
    with_registry(|r| r.gauge_set(name, help, v));
}

/// [`MetricsRegistry::gauge_max`] on the process-wide registry.
pub fn gauge_max(name: &str, help: &str, v: f64) {
    with_registry(|r| r.gauge_max(name, help, v));
}

/// [`MetricsRegistry::observe_s`] on the process-wide registry.
pub fn observe_s(name: &str, help: &str, seconds: f64) {
    with_registry(|r| r.observe_s(name, help, seconds));
}

/// [`MetricsRegistry::record_meter`] on the process-wide registry.
pub fn record_meter(meter: &WorkMeter) {
    with_registry(|r| r.record_meter(meter));
}

/// [`MetricsRegistry::record_funnel`] on the process-wide registry.
pub fn record_funnel(funnel: &Funnel) {
    with_registry(|r| r.record_funnel(funnel));
}

/// Renders the process-wide registry's Prometheus exposition.
pub fn render() -> String {
    with_registry(|r| r.render())
}

/// Clears the process-wide registry (tests and per-run isolation).
pub fn reset() {
    with_registry(|r| r.reset());
}

/// A background thread sampling the process-wide registry onto counter
/// tracks.
///
/// Started with a cadence, it wakes every `period`, snapshots
/// [`MetricsRegistry::numeric_values`], and timestamps the batch
/// against the flight-recorder epoch captured at start (falling back to
/// its own start instant when no recorder was active). One final
/// snapshot is always taken at stop, so a run shorter than the period
/// still yields a sample. [`stop_onto_recorder`](Self::stop_onto_recorder)
/// hands everything to the active recorder as `ph: "C"` counter tracks.
#[derive(Debug)]
pub struct MetricsSampler {
    signal: std::sync::Arc<(Mutex<bool>, Condvar)>,
    handle: std::thread::JoinHandle<Vec<CounterSample>>,
}

impl MetricsSampler {
    /// Spawns the sampling thread. Call on the thread whose recorder
    /// (if any) should own the timeline — the recorder handoff is
    /// captured here, exactly like handing off to a worker shard.
    pub fn start(period: Duration) -> MetricsSampler {
        let signal = std::sync::Arc::new((Mutex::new(false), Condvar::new()));
        let inner = std::sync::Arc::clone(&signal);
        let handoff = crate::recorder::recorder_handoff();
        let own_epoch = Instant::now();
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            let (lock, cvar) = &*inner;
            let mut stopped = lock.lock().expect("sampler signal poisoned");
            loop {
                if !*stopped {
                    stopped = cvar
                        .wait_timeout(stopped, period)
                        .expect("sampler signal poisoned")
                        .0;
                }
                let done = *stopped;
                let ts_us = handoff.map_or_else(
                    || own_epoch.elapsed().as_secs_f64() * 1e6,
                    |h| h.elapsed_us(),
                );
                for (name, value) in with_registry(|r| r.numeric_values()) {
                    samples.push(CounterSample { name, ts_us, value });
                }
                if done {
                    return samples;
                }
            }
        });
        MetricsSampler { signal, handle }
    }

    /// Stops the thread and returns everything it sampled (including
    /// the final at-stop snapshot), oldest first.
    pub fn stop(self) -> Vec<CounterSample> {
        {
            let (lock, cvar) = &*self.signal;
            *lock.lock().expect("sampler signal poisoned") = true;
            cvar.notify_all();
        }
        self.handle.join().unwrap_or_default()
    }

    /// Stops the thread and delivers its samples to this thread's
    /// active flight recorder as counter tracks; returns how many
    /// samples were delivered (0 when no recorder is active).
    pub fn stop_onto_recorder(self) -> usize {
        let samples = self.stop();
        if samples.is_empty() {
            return 0;
        }
        crate::recorder::recorder_counter_samples(samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{recorder_start, recorder_stop};
    use crate::Json;

    #[test]
    fn exposition_is_sorted_typed_and_stable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("tsdtw_z_last", "Registered first, renders last.", 3);
        r.gauge_set("tsdtw_a_first", "Registered last, renders first.", 1.5);
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
        assert!(r.is_empty());

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
    fn absorb_matches_serial_accumulation_in_any_order() {
        let shard = |c: u64, peak: f64, obs_ms: u64| {
            let mut r = MetricsRegistry::new();
            r.counter_add("tsdtw_c", "c", c);
            r.gauge_max("tsdtw_g", "g", peak);
            for i in 0..obs_ms {
                r.observe_s("tsdtw_s_seconds", "s", (i + 1) as f64 * 1e-3);
            }
            r
        };
        let shards = [shard(1, 10.0, 3), shard(2, 5.0, 0), shard(4, 20.0, 7)];
        let mut fwd = MetricsRegistry::new();
        for s in &shards {
            fwd.absorb(s);
        }
        let mut rev = MetricsRegistry::new();
        for s in shards.iter().rev() {
            rev.absorb(s);
        }
        assert_eq!(fwd, rev);
        assert_eq!(fwd.render(), rev.render());
        assert!(fwd.render().contains("tsdtw_c 7"));
        assert!(fwd.render().contains("tsdtw_g 20"));
        assert!(fwd.render().contains("tsdtw_s_seconds_count 10"));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn kind_collisions_are_programmer_errors() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("tsdtw_oops", "first a gauge", 1.0);
        r.counter_add("tsdtw_oops", "now a counter", 1);
    }

    #[test]
    fn numeric_values_cover_every_kind() {
        let mut r = MetricsRegistry::new();
        r.counter_add("tsdtw_nv_c", "c", 5);
        r.gauge_set("tsdtw_nv_g", "g", 2.5);
        r.observe_s("tsdtw_nv_s_seconds", "s", 1e-3);
        let vals = r.numeric_values();
        assert_eq!(
            vals,
            vec![
                ("tsdtw_nv_c".to_string(), 5.0),
                ("tsdtw_nv_g".to_string(), 2.5),
                ("tsdtw_nv_s_seconds_count".to_string(), 1.0),
            ]
        );
    }

    #[test]
    fn sampler_lands_counter_tracks_on_the_recorder() {
        // Global state: use names unique to this test; other tests may
        // add their own globals concurrently, which is fine — we only
        // assert on ours.
        let _serial = crate::span::tests::arm_lock(); // the recorder arms spans
        counter_add("tsdtw_sampler_test_ticks", "Sampler test counter.", 9);
        recorder_start(1 << 10);
        let sampler = MetricsSampler::start(Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(25));
        counter_add("tsdtw_sampler_test_ticks", "Sampler test counter.", 1);
        let delivered = sampler.stop_onto_recorder();
        assert!(delivered > 0, "at least the at-stop snapshot");
        let trace = recorder_stop().expect("recorder active");
        let ours: Vec<&CounterSample> = trace
            .counters
            .iter()
            .filter(|s| s.name == "tsdtw_sampler_test_ticks")
            .collect();
        assert!(!ours.is_empty());
        // Samples are timestamped on the recorder timeline, monotone,
        // and the last one saw the final increment.
        for w in ours.windows(2) {
            assert!(w[1].ts_us >= w[0].ts_us);
        }
        assert_eq!(ours.last().unwrap().value, 10.0);
        // They export as ph:"C" records that parse back.
        let chrome = Json::parse(&trace.chrome_json().to_string_compact()).unwrap();
        let has_track = chrome["traceEvents"].as_array().unwrap().iter().any(|e| {
            e["ph"].as_str() == Some("C") && e["name"].as_str() == Some("tsdtw_sampler_test_ticks")
        });
        assert!(has_track, "counter track missing from Chrome export");
    }

    #[test]
    fn sampler_without_recorder_discards_cleanly() {
        let sampler = MetricsSampler::start(Duration::from_millis(500));
        // Stop immediately: the final snapshot fires, but with no
        // recorder on this thread delivery reports zero.
        assert_eq!(sampler.stop_onto_recorder(), 0);
    }
}
