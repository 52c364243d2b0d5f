//! Shared `--stats`, `--trace`, `--profile` and `--metrics` plumbing:
//! every command that accepts the flags funnels through here. Each of
//! `--stats`, `--trace` and `--profile` arms the span probes for the
//! command ([`Probes`]); without them the probes stay idle. After the
//! command's work, one drain of the span table feeds all three: the
//! per-label `-- spans --` table that `--stats` and `--trace` print
//! (once, when both are given), and `--profile`'s exact per-path self
//! times. `--stats` also prints the [`WorkMeter`] counter block and can
//! dump it as JSON (`--stats-json FILE`).

use std::path::Path;
use tsdtw_bench::write_atomic;
use tsdtw_obs::{
    arm_spans, drain_raw_spans, recorder_start, recorder_stop, span_table, take_spans, AllocDelta,
    MetricsRegistry, ProfileReport, SpanStat, SpansArmed, WorkMeter, DEFAULT_TRACE_CAPACITY,
};

/// Flag names shared by all `--stats`-capable commands.
pub const STATS_SWITCH: &str = "stats";
/// Value flag naming the JSON dump file.
pub const STATS_JSON_FLAG: &str = "stats-json";
/// Value flag naming the Chrome-trace output file.
pub const TRACE_FLAG: &str = "trace";
/// Value flag naming the Prometheus exposition dump file.
pub const METRICS_FLAG: &str = "metrics";
/// Optional-valued flag requesting the prune-funnel EXPLAIN table
/// (declare in *both* the switch and value-flag lists: bare `--explain`
/// prints the table, `--explain=FILE` additionally dumps the funnel
/// JSON to FILE).
pub const EXPLAIN_FLAG: &str = "explain";
/// Optional-valued flag requesting the span profile (declare in *both*
/// the switch and value-flag lists: bare `--profile` prints the
/// self-vs-total table, `--profile=FILE` additionally writes the
/// collapsed-stack export — flamegraph.pl / inferno compatible, also
/// renderable with `tsdtw report flame` — to FILE).
pub const PROFILE_FLAG: &str = "profile";

/// The span probes one command arms for `--stats`, `--trace FILE` and
/// `--profile[=FILE]`. [`start`](Probes::start) before the command's
/// work, [`finish`](Probes::finish) after it.
pub struct Probes<'a> {
    stats: bool,
    trace_path: Option<&'a str>,
    /// `Some` under `--profile`, holding `--profile=FILE`'s path.
    profile: Option<Option<&'a str>>,
    _armed: Option<SpansArmed>,
}

impl<'a> Probes<'a> {
    /// Drops spans this thread recorded earlier, so the drain covers the
    /// command alone; starts the flight recorder for `--trace`; and arms
    /// the probes when any of the three flags was given.
    pub fn start(
        stats: bool,
        trace_path: Option<&'a str>,
        profile: Option<Option<&'a str>>,
    ) -> Probes<'a> {
        let _ = take_spans();
        if trace_path.is_some() {
            recorder_start(DEFAULT_TRACE_CAPACITY);
        }
        let armed = (stats || trace_path.is_some() || profile.is_some()).then(arm_spans);
        Probes {
            stats,
            trace_path,
            profile,
            _armed: armed,
        }
    }

    /// Writes the `--trace` file, then drains the span table once.
    /// `--profile` prints its self-vs-total table from the drain (the
    /// command ran for `wall_s`) and writes the collapsed stacks to
    /// `--profile=FILE`. The per-label stats are returned for [`render`]
    /// under `--stats`; without it, `--trace` prints them here.
    pub fn finish(
        self,
        wall_s: f64,
        out: &mut String,
    ) -> Result<Vec<SpanStat>, Box<dyn std::error::Error>> {
        if let Some(path) = self.trace_path {
            if let Some(trace) = recorder_stop() {
                write_atomic(Path::new(path), &trace.chrome_json().to_string_compact())?;
                out.push_str(&format!(
                    "trace written to {path} (open in Perfetto / chrome://tracing)\n"
                ));
                // The span table below counts every span; the ring kept
                // only the newest events.
                if trace.dropped > 0 {
                    out.push_str(&format!(
                        "({} older events dropped at ring capacity {})\n",
                        trace.dropped, trace.capacity
                    ));
                }
            }
        }
        let drained = drain_raw_spans();
        let spans = drained.stats();
        if self.trace_path.is_some() && !self.stats {
            out.push_str(&span_table(&spans));
        }
        if let Some(collapsed_path) = self.profile {
            let report = ProfileReport::new(wall_s, &drained);
            out.push_str("-- profile --\n");
            out.push_str(&report.table());
            if let Some(path) = collapsed_path {
                write_atomic(Path::new(path), &report.collapsed())?;
                out.push_str(&format!(
                    "collapsed stacks written to {path} (render with `tsdtw report flame {path}`)\n"
                ));
            }
        }
        Ok(spans)
    }
}

/// Appends the meter's counter summary to `out` and, when `json_path` is
/// given, writes the meter's `work` JSON there (atomically). The span
/// stats [`Probes::finish`] drained are appended with their latency
/// profile when present. A heap delta
/// measured around the command's work (see
/// [`AllocScope`](tsdtw_obs::AllocScope)) renders as
/// one memory line and a `memory` section in the JSON dump; it reads all
/// zero unless the build armed `--features alloc-telemetry`.
pub fn render(
    meter: &WorkMeter,
    heap: Option<&AllocDelta>,
    spans: &[SpanStat],
    json_path: Option<&str>,
    out: &mut String,
) -> Result<(), Box<dyn std::error::Error>> {
    out.push_str("-- work --\n");
    out.push_str(&meter.summary());
    if let Some(heap) = heap {
        out.push_str(&format!("{}\n", heap.summary()));
        if !tsdtw_obs::heap_telemetry_enabled() {
            out.push_str(
                "  (counting allocator disarmed; build with --features alloc-telemetry)\n",
            );
        }
    }
    out.push_str(&span_table(spans));
    if let Some(path) = json_path {
        let mut dump = meter.report();
        if let Some(heap) = heap {
            dump.set("memory", heap.report());
        }
        write_atomic(Path::new(path), &format!("{}\n", dump.to_string_pretty()))?;
        out.push_str(&format!("work JSON written to {path}\n"));
    }
    Ok(())
}

/// Renders the `--explain` prune-funnel table from the meter's funnel
/// ledger: per stage (`lb_kim`, `lb_keogh_qc`, `lb_keogh_cq`, `dtw`)
/// the candidates entered / pruned / survived, the deterministic cost
/// proxy, each stage's share of the total cost, and the
/// prune-rate-per-cost ranking that says which bound earns its keep.
/// The dispositions are exact integers, bitwise identical at any
/// `--threads`. When `json_path` is given (`--explain=FILE`) the
/// funnel JSON is additionally written there, atomically. Commands
/// whose distance path runs no cascade (brute-force classify, plain
/// FastDTW dist) get an explanatory note instead of an empty table.
pub fn explain_finish(
    want: bool,
    json_path: Option<&str>,
    meter: &WorkMeter,
    out: &mut String,
) -> Result<(), Box<dyn std::error::Error>> {
    if !want && json_path.is_none() {
        return Ok(());
    }
    out.push_str("-- explain --\n");
    if meter.funnel.is_empty() {
        out.push_str("no cascaded stages ran (this distance path uses no lower-bound cascade); nothing to attribute\n");
    } else {
        out.push_str(&meter.funnel.table());
    }
    if let Some(path) = json_path {
        write_atomic(
            Path::new(path),
            &format!("{}\n", meter.funnel.report().to_string_pretty()),
        )?;
        out.push_str(&format!("funnel JSON written to {path}\n"));
    }
    Ok(())
}

/// Folds the command's [`WorkMeter`] and end-to-end latency into a
/// metrics registry of its own and writes its Prometheus text
/// exposition to the file named by `--metrics FILE`. A no-op when the
/// flag was absent. One CLI invocation is one scrape lifetime, so the
/// dump reflects exactly this command's work.
///
/// The counter section of the exposition inherits the meter's
/// determinism — bitwise independent of `--threads` — while the
/// `tsdtw_request_seconds` summary is wall-clock and varies run to run.
pub fn metrics_finish(
    metrics_path: Option<&str>,
    meter: &WorkMeter,
    wall_s: f64,
    out: &mut String,
) -> Result<(), Box<dyn std::error::Error>> {
    let Some(path) = metrics_path else {
        return Ok(());
    };
    let mut registry = MetricsRegistry::new();
    registry.record_meter(meter);
    // Cascaded commands additionally export the per-stage funnel
    // families (`tsdtw_cascade_stage_*`); a no-op when the command ran
    // no cascade, so non-cascaded expositions are unchanged.
    registry.record_funnel(&meter.funnel);
    registry.observe_s(
        "tsdtw_request_seconds",
        "End-to-end command latency in seconds.",
        wall_s,
    );
    write_atomic(Path::new(path), &registry.render())?;
    out.push_str(&format!(
        "metrics written to {path} (Prometheus text exposition)\n"
    ));
    Ok(())
}

/// Projects a metrics exposition onto its thread-invariant lines: the
/// `tsdtw_request_seconds` quantile and `_sum` samples are wall-clock
/// (they vary between otherwise identical runs), so the differential
/// CLI tests (serial vs `--threads N`) drop them and compare everything
/// else — every `tsdtw_work_*` counter line — bitwise.
#[cfg(test)]
pub fn metrics_invariant_view(text: &str) -> String {
    text.lines()
        .filter(|l| {
            !l.starts_with("tsdtw_request_seconds") || l.starts_with("tsdtw_request_seconds_count")
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Projects a `--stats` rendering onto its thread-invariant fields:
/// everything verbatim except span rows (only label and count survive)
/// and the `memory:` heap line (elided entirely). Wall-clock span
/// latencies vary between otherwise identical runs, and the heap delta
/// legitimately depends on `--threads` (each worker owns scratch
/// buffers), so the differential CLI tests (serial vs `--threads N`)
/// compare through this view.
#[cfg(test)]
pub fn run_invariant_view(out: &str) -> String {
    let mut view = String::new();
    let mut in_spans = false;
    for line in out.lines() {
        if line == "-- spans --" {
            in_spans = true;
        } else if in_spans && line.starts_with("  ") {
            let mut cols = line.split_whitespace();
            if let (Some(label), Some(count)) = (cols.next(), cols.next()) {
                view.push_str(&format!("  {label} {count}\n"));
            }
            continue;
        } else {
            in_spans = false;
            if line.starts_with("memory: ") {
                view.push_str("memory: <thread-dependent>\n");
                continue;
            }
        }
        view.push_str(line);
        view.push('\n');
    }
    view
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn renders_summary_and_writes_json() {
        let dir = std::env::temp_dir().join("tsdtw-stats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("work.json");
        let mut meter = WorkMeter::new();
        meter.cells = 42;
        meter.window_cells = 42;
        let mut out = String::new();
        render(&meter, None, &[], path.to_str(), &mut out).unwrap();
        assert!(out.contains("-- work --"), "{out}");
        assert!(out.contains("42 DP cells"), "{out}");
        assert!(out.contains("work JSON written"), "{out}");
        let dumped = std::fs::read_to_string(&path).unwrap();
        assert!(dumped.contains("\"cells\""), "{dumped}");
        // No heap delta was passed, so no memory line or section.
        assert!(!out.contains("memory:"), "{out}");
        assert!(!dumped.contains("\"memory\""), "{dumped}");
        // The atomic write leaves no temp file behind.
        assert!(!dir.join(".work.json.tmp").exists());
    }

    #[test]
    fn heap_delta_renders_a_memory_line_and_json_section() {
        let dir = std::env::temp_dir().join("tsdtw-stats-mem-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("work.json");
        let meter = WorkMeter::new();
        let heap = AllocDelta {
            allocs: 3,
            frees: 3,
            bytes_allocated: 96,
            bytes_freed: 96,
            peak_bytes: 64,
            ..AllocDelta::default()
        };
        let mut out = String::new();
        render(&meter, Some(&heap), &[], path.to_str(), &mut out).unwrap();
        assert!(out.contains("memory: 3 allocs"), "{out}");
        if !tsdtw_obs::heap_telemetry_enabled() {
            assert!(out.contains("disarmed"), "{out}");
        }
        let dumped = std::fs::read_to_string(&path).unwrap();
        assert!(dumped.contains("\"memory\""), "{dumped}");
        assert!(dumped.contains("\"peak_bytes\""), "{dumped}");
    }

    #[test]
    fn run_invariant_view_drops_span_timings_but_keeps_counts() {
        let a = "best match at 4\nmemory: 23 allocs / 19 frees, peak 32950 B above entry\n-- spans --\n  span  count  total  p50  p99  max\n  dtw_ea  92x  0.000456s  0.000005s  0.000026s  0.000026s\nwork JSON written to w.json\n";
        let b = "best match at 4\nmemory: 255 allocs / 12 frees, peak 145838 B above entry\n-- spans --\n  span  count  total  p50  p99  max\n  dtw_ea  92x  0.000601s  0.000005s  0.000051s  0.000051s\nwork JSON written to w.json\n";
        assert_eq!(run_invariant_view(a), run_invariant_view(b));
        assert!(run_invariant_view(a).contains("dtw_ea 92x"));
        assert!(run_invariant_view(a).contains("work JSON written"));
        // Differences outside the span table still show through.
        let c = b.replace("match at 4", "match at 5");
        assert_ne!(run_invariant_view(b), run_invariant_view(&c));
        let d = b.replace("92x", "93x");
        assert_ne!(run_invariant_view(b), run_invariant_view(&d));
    }

    #[test]
    fn metrics_finish_writes_an_exposition_file() {
        let dir = std::env::temp_dir().join("tsdtw-stats-metrics-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics.prom");
        let mut meter = WorkMeter::new();
        meter.cells = 42;
        let mut out = String::new();
        metrics_finish(path.to_str(), &meter, 0.25, &mut out).unwrap();
        assert!(out.contains("metrics written"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("# TYPE tsdtw_work_cells counter"), "{text}");
        assert!(text.contains("tsdtw_work_cells 42"), "{text}");
        assert!(text.contains("tsdtw_request_seconds_count 1"), "{text}");
        assert!(text.contains("tsdtw_request_seconds_sum 0.25"), "{text}");
        // The invariant view keeps every counter line but drops the
        // wall-clock summary samples.
        let view = metrics_invariant_view(&text);
        assert!(view.contains("tsdtw_work_cells 42"), "{view}");
        assert!(view.contains("tsdtw_request_seconds_count 1"), "{view}");
        assert!(!view.contains("tsdtw_request_seconds_sum"), "{view}");
        assert!(!view.contains("quantile"), "{view}");
    }

    #[test]
    fn explain_finish_renders_table_and_writes_json() {
        use tsdtw_obs::{FunnelStage, Meter};
        let dir = std::env::temp_dir().join("tsdtw-stats-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("funnel.json");
        let mut meter = WorkMeter::new();
        for _ in 0..10 {
            meter.stage_entered(FunnelStage::Kim);
            meter.stage_cost(FunnelStage::Kim, 1);
        }
        for _ in 0..7 {
            meter.funnel.record_pruned(FunnelStage::Kim);
        }
        let mut out = String::new();
        explain_finish(true, path.to_str(), &meter, &mut out).unwrap();
        assert!(out.contains("-- explain --"), "{out}");
        assert!(out.contains("lb_kim"), "{out}");
        assert!(out.contains("funnel JSON written"), "{out}");
        let dumped = std::fs::read_to_string(&path).unwrap();
        let parsed = tsdtw_obs::Json::parse(&dumped).unwrap();
        assert_eq!(parsed["candidates"], 10);
        assert_eq!(parsed["stages"]["lb_kim"]["pruned"], 7);
        // An empty funnel degrades to a note, not an empty table.
        let mut out = String::new();
        explain_finish(true, None, &WorkMeter::new(), &mut out).unwrap();
        assert!(out.contains("no cascaded stages ran"), "{out}");
    }

    #[test]
    fn explain_finish_without_flag_is_a_no_op() {
        let mut out = String::new();
        explain_finish(false, None, &WorkMeter::new(), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn metrics_finish_without_flag_is_a_no_op() {
        let meter = WorkMeter::new();
        let mut out = String::new();
        metrics_finish(None, &meter, 1.0, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn no_json_path_writes_nothing() {
        let meter = WorkMeter::new();
        let mut out = String::new();
        render(&meter, None, &[], None, &mut out).unwrap();
        assert!(!out.contains("work JSON written"));
    }

    #[test]
    fn trace_flow_writes_a_valid_chrome_trace_and_prints_spans_once() {
        let dir = std::env::temp_dir().join("tsdtw-stats-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let path_str = path.to_str().unwrap().to_string();
        for stats in [false, true] {
            let probes = Probes::start(stats, Some(&path_str), None);
            {
                let _s = tsdtw_obs::span("cli_stats_test");
            }
            let mut out = String::new();
            let spans = probes.finish(0.0, &mut out).unwrap();
            assert!(out.contains("trace written"), "{out}");
            assert!(!out.contains("dropped"), "the default ring held it: {out}");
            assert_eq!(spans.len(), 1, "{spans:?}");
            assert_eq!(spans[0].label, "cli_stats_test");
            // Under --stats, `render` prints the table; otherwise --trace.
            assert_eq!(out.contains("-- spans --"), !stats, "{out}");
            if stats {
                render(&WorkMeter::new(), None, &spans, None, &mut out).unwrap();
            }
            assert_eq!(out.matches("-- spans --").count(), 1, "{out}");
            let text = std::fs::read_to_string(&path).unwrap();
            let parsed = tsdtw_obs::Json::parse(&text).unwrap();
            let events = parsed["traceEvents"]
                .as_array()
                .unwrap()
                .iter()
                .filter(|e| e["ph"].as_str() != Some("C"))
                .count();
            assert_eq!(events, 2, "the recorder armed the span: {text}");
        }
        // A wrapped ring says so: the printed table counts all three
        // spans, the trace file holds only the newest events.
        let probes = Probes::start(false, Some(&path_str), None);
        tsdtw_obs::recorder_start(2);
        for _ in 0..3 {
            let _s = tsdtw_obs::span("cli_stats_test");
        }
        let mut out = String::new();
        let spans = probes.finish(0.0, &mut out).unwrap();
        assert_eq!(spans[0].count, 3, "{spans:?}");
        assert!(
            out.contains("(4 older events dropped at ring capacity 2)"),
            "{out}"
        );
    }

    #[test]
    fn probes_without_flags_are_a_no_op() {
        let mut out = String::new();
        let spans = Probes::start(false, None, None)
            .finish(0.0, &mut out)
            .unwrap();
        assert!(out.is_empty());
        assert!(spans.is_empty());
    }

    #[test]
    fn profile_flow_writes_exact_collapsed_stacks() {
        let dir = std::env::temp_dir().join("tsdtw-stats-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.txt");
        let path_str = path.to_str().unwrap().to_string();
        let probes = Probes::start(false, None, Some(Some(&path_str)));
        {
            let _outer = tsdtw_obs::span("cli_stats_profile_test");
            let _inner = tsdtw_obs::span("cli_stats_profile_inner");
        }
        let mut out = String::new();
        let spans = probes.finish(0.5, &mut out).unwrap();
        assert!(out.contains("-- profile --"), "{out}");
        assert!(out.contains("self%"), "{out}");
        assert!(out.contains("collapsed stacks written"), "{out}");
        assert!(!out.contains("-- spans --"), "{out}");
        // The file round-trips through the parser `report flame` uses,
        // and its weights add up to the outer span's total.
        let text = std::fs::read_to_string(&path).unwrap();
        let folded = tsdtw_obs::profile::parse_collapsed(&text).unwrap();
        let stacks: Vec<&str> = folded.iter().map(|(s, _)| s.as_str()).collect();
        assert!(
            stacks.contains(&"cli_stats_profile_test;cli_stats_profile_inner"),
            "{folded:?}"
        );
        let weights: u64 = folded.iter().map(|(_, n)| n).sum();
        let outer = spans.iter().find(|s| s.label == "cli_stats_profile_test");
        let outer_ns = (outer.unwrap().total_s * 1e9).round() as u64;
        assert!(weights.abs_diff(outer_ns) <= 1, "{weights} vs {outer_ns}");
    }
}
