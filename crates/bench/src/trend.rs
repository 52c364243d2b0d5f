//! Noise-aware trend gates over the perf-trajectory ledger.
//!
//! The pairwise `report diff` gate catches a regression against one
//! pinned baseline; this module reads the *whole* history
//! ([`crate::history`]) and applies two different statistics, matched
//! to how each quantity behaves:
//!
//! * **Counters gate hard at zero tolerance, latest vs previous.** The
//!   gate is [`snapshot::diff`] of the previous record against the
//!   latest at 0 %, so it hard-gates exactly the leaves `report diff`
//!   does. DP cells, prune dispositions, tier mismatches are pure
//!   functions of the experiment configuration — the executor's
//!   determinism contract makes them bit-identical across hosts and
//!   thread counts — so *any* growth between consecutive ledger records
//!   is a confirmed regression, no statistics required. A slow
//!   3 %-per-PR drift that would hide inside any percentage tolerance is
//!   caught on the PR that introduces it.
//!
//! * **Timings get a robust median/MAD drift detector.** Wall time and
//!   per-kernel latency jitter with hardware and load, so the latest
//!   record is compared against the median of a configurable window of
//!   prior records, and only flagged when it exceeds the window's own
//!   noise scale (`mad_k` robust sigmas, computed as 1.4826·MAD — the
//!   consistency constant that makes MAD estimate σ under normality)
//!   *and* a relative floor (so a quiet window cannot make micro-jitter
//!   significant). Median and MAD rather than mean and stddev because a
//!   single historic outlier — one loaded CI run — must not inflate the
//!   acceptance band for every later run.
//!
//! Timing comparisons only consult prior records from a *comparable
//! environment* (same os/arch/host, worker count, span
//! instrumentation): a laptop-recorded seed history must not raise
//! timing alarms on a CI runner. Counters, being deterministic, are
//! compared across any environment.

use tsdtw_obs::Json;

use crate::snapshot::{self, SCHEMA_VERSION};

/// Tuning for the drift detector.
#[derive(Debug, Clone)]
pub struct TrendConfig {
    /// How many prior comparable records the timing window consults
    /// (the changepoint window).
    pub window: usize,
    /// Robust sigmas ((latest − median) / (1.4826·MAD)) beyond which a
    /// timing is drift.
    pub mad_k: f64,
    /// Relative floor (percent over the window median) a timing must
    /// also exceed — guards against a near-zero-MAD window flagging
    /// noise.
    pub floor_pct: f64,
}

impl Default for TrendConfig {
    fn default() -> Self {
        TrendConfig {
            window: 5,
            mad_k: 4.0,
            floor_pct: 25.0,
        }
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median needs at least one sample");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in timing samples"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `center`.
pub fn mad(xs: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&devs)
}

/// The trend verdict for one experiment's ledger.
#[derive(Debug, Clone, Default)]
pub struct ExperimentTrend {
    /// Experiment id (ledger file stem).
    pub experiment: String,
    /// Current-schema records analyzed.
    pub records: usize,
    /// Hard failures: the regressions of [`snapshot::diff`] from the
    /// previous record to the latest at zero tolerance.
    pub counter_regressions: Vec<String>,
    /// Confirmed timing drifts (median/MAD gate).
    pub timing_drifts: Vec<String>,
    /// Informational notes (skipped records, incomparable windows, …).
    pub notes: Vec<String>,
    /// The experiment's markdown dashboard section.
    pub markdown: String,
}

impl ExperimentTrend {
    /// Whether this experiment passes both gates.
    pub fn is_clean(&self) -> bool {
        self.counter_regressions.is_empty() && self.timing_drifts.is_empty()
    }
}

/// The environment facets under which timings are comparable. Counters
/// are deliberately *not* keyed — they are deterministic everywhere.
fn comparability_key(rec: &Json) -> String {
    format!(
        "{}|{}|{}|{}|{}",
        rec["env"]["os"].as_str().unwrap_or("?"),
        rec["env"]["arch"].as_str().unwrap_or("?"),
        rec["env"]["host"].as_str().unwrap_or("?"),
        rec["env"]["n_threads"].as_i64().unwrap_or(-1),
        rec["spans_enabled"].as_bool().unwrap_or(false),
    )
}

/// A sparkline over `values`, one block glyph per record, scaled to the
/// series' own min..max (a flat series renders mid-height).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|v| {
            if max <= min {
                BARS[3]
            } else {
                let t = (v - min) / (max - min);
                BARS[((t * 7.0).round() as usize).min(7)]
            }
        })
        .collect()
}

/// Every timing series a record carries, as `(name, value)`: `wall_s`
/// plus each kernel's `total_s`.
fn timing_series(rec: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    if let Some(w) = rec["wall_s"].as_f64() {
        out.push(("wall_s".to_string(), w));
    }
    if let Some(kernels) = rec["kernels"].as_object() {
        for (label, stats) in kernels {
            if let Some(t) = stats["total_s"].as_f64() {
                out.push((format!("kernel {label}.total_s"), t));
            }
        }
    }
    out
}

/// Analyzes one experiment's ledger (oldest first) under `cfg`.
pub fn analyze(experiment: &str, records: &[Json], cfg: &TrendConfig) -> ExperimentTrend {
    let mut t = ExperimentTrend {
        experiment: experiment.to_string(),
        ..Default::default()
    };

    // Only current-schema records participate; anything else is noted,
    // not a parse error (the ledger may predate a schema bump).
    let v3: Vec<&Json> = records
        .iter()
        .filter(|r| r["schema"].as_i64() == Some(SCHEMA_VERSION))
        .collect();
    let skipped = records.len() - v3.len();
    if skipped > 0 {
        t.notes.push(format!(
            "skipped {skipped} record(s) with schema != v{SCHEMA_VERSION}"
        ));
    }
    t.records = v3.len();
    let Some((&latest, prior)) = v3.split_last() else {
        t.markdown = format!("## {experiment}\n\nno usable history records\n");
        return t;
    };

    // --- hard counter gate: latest vs the record before it -----------
    if let Some(&prev) = prior.last() {
        t.counter_regressions = snapshot::diff(prev, latest, 0.0)
            .regressions
            .into_iter()
            .map(|r| format!("{r} vs previous record"))
            .collect();
    } else {
        t.notes
            .push("single record: counter gate needs a predecessor".to_string());
    }

    // --- timing drift: median/MAD over the comparable window ---------
    let key = comparability_key(latest);
    let comparable: Vec<&Json> = prior
        .iter()
        .copied()
        .filter(|r| comparability_key(r) == key)
        .collect();
    let window: &[&Json] = &comparable[comparable.len().saturating_sub(cfg.window)..];
    if window.len() < 2 {
        t.notes.push(format!(
            "timing gate skipped: {} comparable prior record(s) in window (need >= 2)",
            window.len()
        ));
    } else {
        for (name, cur) in timing_series(latest) {
            let mut hist: Vec<f64> = window
                .iter()
                .filter_map(|r| {
                    timing_series(r)
                        .into_iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| v)
                })
                .collect();
            // `Json::parse` reads an overflowing literal such as `1e999`
            // as infinity, which would make the MAD NaN.
            if !cur.is_finite() || hist.iter().any(|v| !v.is_finite()) {
                t.notes.push(format!(
                    "timing series {name}: non-finite sample(s) skipped"
                ));
                hist.retain(|v| v.is_finite());
            }
            if !cur.is_finite() || hist.len() < 2 {
                continue;
            }
            let med = median(&hist);
            if med <= 0.0 {
                continue;
            }
            let sigma = 1.4826 * mad(&hist, med);
            let noise_pct = cfg.mad_k * sigma / med * 100.0;
            let threshold_pct = noise_pct.max(cfg.floor_pct);
            let pct = snapshot::pct_change(med, cur);
            if pct > threshold_pct {
                t.timing_drifts.push(format!(
                    "{name} drifted to {cur:.6}s, {pct:+.1}% over the {}-record window \
                     median {med:.6}s (threshold {threshold_pct:.1}% = max({:.1}% noise \
                     at k={}, {:.1}% floor))",
                    hist.len(),
                    noise_pct,
                    cfg.mad_k,
                    cfg.floor_pct
                ));
            }
        }
    }

    t.markdown = render_section(&t, &v3);
    t
}

/// One experiment's dashboard section: a trajectory table over the
/// most recent records, sparklines for the headline series, and the
/// gate callouts.
fn render_section(t: &ExperimentTrend, v3: &[&Json]) -> String {
    let mut md = format!("## {}\n\n", t.experiment);
    let latest = v3.last().expect("render_section needs records");
    md.push_str(&format!(
        "{} record(s); latest rev `{}` hash `{}` on `{}`\n\n",
        v3.len(),
        latest["git_rev"].as_str().unwrap_or("?"),
        latest["hash"].as_str().unwrap_or("?"),
        latest["env"]["host"].as_str().unwrap_or("?"),
    ));

    // Trajectory table over the newest records.
    const TABLE_ROWS: usize = 8;
    let tail = &v3[v3.len().saturating_sub(TABLE_ROWS)..];
    md.push_str("| rev | hash | wall_s | work.cells | host |\n");
    md.push_str("|---|---|---:|---:|---|\n");
    for r in tail {
        md.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} |\n",
            r["git_rev"].as_str().unwrap_or("?"),
            r["hash"]
                .as_str()
                .map(|h| h.chars().take(8).collect::<String>())
                .unwrap_or_else(|| "?".into()),
            r["wall_s"]
                .as_f64()
                .map(|w| format!("{w:.4}"))
                .unwrap_or_else(|| "-".into()),
            r["work"]["cells"]
                .as_i64()
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
            r["env"]["host"].as_str().unwrap_or("?"),
        ));
    }
    md.push('\n');

    // Sparklines across the full history (visualization only — the
    // gates above are the arbiters).
    let walls: Vec<f64> = v3.iter().filter_map(|r| r["wall_s"].as_f64()).collect();
    if !walls.is_empty() {
        md.push_str(&format!("wall_s trajectory: `{}`\n", sparkline(&walls)));
    }
    let cells: Vec<f64> = v3
        .iter()
        .filter_map(|r| r["work"]["cells"].as_i64())
        .map(|c| c as f64)
        .collect();
    if !cells.is_empty() {
        md.push_str(&format!("work.cells trajectory: `{}`\n", sparkline(&cells)));
    }
    md.push('\n');

    if t.counter_regressions.is_empty() && t.timing_drifts.is_empty() {
        md.push_str("status: **clean**\n");
    } else {
        for r in &t.counter_regressions {
            md.push_str(&format!("- 🔴 counter regression: {r}\n"));
        }
        for d in &t.timing_drifts {
            md.push_str(&format!("- 🟠 timing drift: {d}\n"));
        }
    }
    for n in &t.notes {
        md.push_str(&format!("- note: {n}\n"));
    }
    md
}

/// Assembles the full `TREND.md` dashboard from per-experiment
/// verdicts.
pub fn render_dashboard(trends: &[ExperimentTrend], cfg: &TrendConfig) -> String {
    let clean = trends.iter().all(|t| t.is_clean());
    let mut md = String::from("# Performance trend dashboard\n\n");
    md.push_str(&format!(
        "{} experiment(s), window {}, MAD k {}, floor {}% — status: {}\n\n",
        trends.len(),
        cfg.window,
        cfg.mad_k,
        cfg.floor_pct,
        if clean {
            "**PASS**"
        } else {
            "**DRIFT DETECTED**"
        }
    ));
    md.push_str(
        "Counters gate hard at zero tolerance (deterministic work); timings gate on a \
         median/MAD window of comparable-environment records. See DESIGN.md §13.\n\n",
    );
    for t in trends {
        md.push_str(&t.markdown);
        md.push('\n');
    }
    md
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_obs::json_obj;

    /// A minimal current-schema ledger record.
    fn rec(cells: i64, wall: f64, host: &str) -> Json {
        rec_with_dtw_entrants(cells, wall, host, 40)
    }

    /// Like [`rec`] but with a controllable funnel: `dtw_entered`
    /// candidates leak past the lower bounds into the DTW stage.
    fn rec_with_dtw_entrants(cells: i64, wall: f64, host: &str, dtw_entered: i64) -> Json {
        json_obj! {
            "schema" => SCHEMA_VERSION,
            "hash" => format!("{cells:016x}{dtw_entered:x}"),
            "experiment" => "cells",
            "git_rev" => "deadbee",
            "spans_enabled" => false,
            "env" => json_obj! {
                "os" => "linux", "arch" => "x86_64", "family" => "unix",
                "threads" => 8, "n_threads" => 4, "host" => host,
            },
            "wall_s" => wall,
            "work" => json_obj! { "cells" => cells, "window_cells" => cells * 2 },
            "funnel" => json_obj! {
                "candidates" => 100,
                "total_cost_units" => 5100,
                "stages" => json_obj! {
                    "lb_kim" => json_obj! {
                        "entered" => 100, "pruned" => 100 - dtw_entered,
                        "survived" => dtw_entered, "cost_units" => 100,
                    },
                    "dtw" => json_obj! {
                        "entered" => dtw_entered, "pruned" => 0,
                        "survived" => dtw_entered, "cost_units" => 5000,
                    },
                },
            },
            "memory" => json_obj! { "telemetry" => false, "allocs" => 0 },
            "kernels" => json_obj! {
                "cdtw" => json_obj! { "count" => 10, "total_s" => wall / 2.0 },
            },
        }
    }

    #[test]
    fn median_and_mad_are_pinned() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 100.0], 2.5), 1.0);
        // One wild outlier barely moves MAD — the whole point.
        assert_eq!(mad(&[1.0, 2.0, 3.0], 2.0), 1.0);
    }

    #[test]
    fn replayed_identical_runs_pass_both_gates() {
        let mut records: Vec<Json> = (0..4).map(|_| rec(1000, 1.0, "ci")).collect();
        // Records written before the `rle` section left carry it as
        // null; the newest one lacks it, and its hash is not ASCII.
        for r in &mut records[..3] {
            r.set("rle", Json::Null);
        }
        records[3].set("hash", "aaaaaaaé");
        let t = analyze("cells", &records, &TrendConfig::default());
        assert!(
            t.is_clean(),
            "{:?} {:?}",
            t.counter_regressions,
            t.timing_drifts
        );
        assert_eq!(t.records, 4);
        assert!(t.markdown.contains("**clean**"), "{}", t.markdown);
        assert!(t.markdown.contains("| `aaaaaaaé` |"), "{}", t.markdown);
    }

    #[test]
    fn injected_counter_regression_hard_fails() {
        // 20% counter growth on the newest record: hard fail, however
        // loose the timing config is.
        let records = vec![
            rec(1000, 1.0, "ci"),
            rec(1000, 1.0, "ci"),
            rec(1200, 1.0, "ci"),
        ];
        let t = analyze("cells", &records, &TrendConfig::default());
        assert_eq!(
            t.counter_regressions.len(),
            2,
            "{:?}",
            t.counter_regressions
        );
        assert!(
            t.counter_regressions[0].contains("work.cells"),
            "{:?}",
            t.counter_regressions
        );
        assert!(t.counter_regressions[0].contains("+20.00%"));
        assert!(!t.is_clean());
        assert!(t.markdown.contains("🔴"), "{}", t.markdown);
        // Even a 1-cell creep is caught — zero tolerance.
        let creep = vec![rec(1000, 1.0, "ci"), rec(1001, 1.0, "ci")];
        let t = analyze("cells", &creep, &TrendConfig::default());
        assert_eq!(t.counter_regressions.len(), 2);
    }

    #[test]
    fn funnel_and_tier_leaks_hard_fail_even_with_flat_work_counters() {
        // Same DP work, but more candidates slipping past the lower
        // bounds into the DTW stage: the pruning quality regressed and
        // the funnel leaves catch it at zero tolerance.
        let records = vec![
            rec_with_dtw_entrants(1000, 1.0, "ci", 40),
            rec_with_dtw_entrants(1000, 1.0, "ci", 55),
        ];
        let t = analyze("cells", &records, &TrendConfig::default());
        assert!(!t.is_clean());
        assert!(
            t.counter_regressions
                .iter()
                .any(|r| r.contains("funnel.stages.dtw.entered")),
            "{:?}",
            t.counter_regressions
        );
        assert!(
            t.counter_regressions.iter().all(|r| !r.contains("work.")),
            "work counters were flat: {:?}",
            t.counter_regressions
        );
        // A kernel route that stops matching its reference DP: `tiers`
        // gates hard in `report diff`, so it does here too.
        let tiers =
            |mismatch: i64| json_obj! { "wavefront" => json_obj! { "mismatch" => mismatch } };
        let records = vec![
            rec(1000, 1.0, "ci").with("tiers", tiers(0)),
            rec(1000, 1.0, "ci").with("tiers", tiers(3)),
        ];
        let t = analyze("kernels", &records, &TrendConfig::default());
        assert_eq!(
            t.counter_regressions,
            ["tiers.wavefront.mismatch grew 0 -> 3 (+inf% > 0%) vs previous record"]
        );
    }

    #[test]
    fn non_finite_timings_are_skipped_with_a_note() {
        // `1e999` parses as infinity; three such records make the MAD NaN
        // unless non-finite samples are skipped.
        let line = rec(1000, 1.0, "ci")
            .to_string_compact()
            .replace("\"wall_s\":1.0", "\"wall_s\":1e999");
        let inf = Json::parse(&line).unwrap();
        assert_eq!(inf["wall_s"].as_f64(), Some(f64::INFINITY));
        let t = analyze(
            "cells",
            &[inf.clone(), inf.clone(), inf],
            &TrendConfig::default(),
        );
        assert!(t.is_clean(), "{:?}", t.timing_drifts);
        assert!(
            t.notes
                .iter()
                .any(|n| n == "timing series wall_s: non-finite sample(s) skipped"),
            "{:?}",
            t.notes
        );
        // A finite latest still gates against the finite rest of the window.
        let mut records: Vec<Json> = [f64::INFINITY, 1.0, 1.01, 0.99]
            .iter()
            .map(|w| rec(1000, *w, "ci"))
            .collect();
        records.push(rec(1000, 2.0, "ci"));
        let t = analyze("cells", &records, &TrendConfig::default());
        assert!(
            t.timing_drifts
                .iter()
                .any(|d| d.contains("wall_s") && d.contains("3-record")),
            "{:?}",
            t.timing_drifts
        );
    }

    #[test]
    fn injected_timing_drift_fails_the_mad_gate() {
        // Stable window at ~1s with realistic jitter, then a 2x jump.
        let mut records: Vec<Json> = [1.00, 1.03, 0.98, 1.01, 0.99]
            .iter()
            .map(|w| rec(1000, *w, "ci"))
            .collect();
        records.push(rec(1000, 2.0, "ci"));
        let t = analyze("cells", &records, &TrendConfig::default());
        assert!(t.counter_regressions.is_empty());
        assert!(!t.timing_drifts.is_empty(), "{:?}", t.notes);
        assert!(
            t.timing_drifts[0].contains("wall_s"),
            "{:?}",
            t.timing_drifts
        );
        assert!(t.markdown.contains("🟠"), "{}", t.markdown);
        // The same window with the latest inside the noise band passes.
        let mut calm = records.clone();
        calm.pop();
        calm.push(rec(1000, 1.02, "ci"));
        let t = analyze("cells", &calm, &TrendConfig::default());
        assert!(t.is_clean(), "{:?}", t.timing_drifts);
    }

    #[test]
    fn incomparable_environments_skip_timings_but_not_counters() {
        // Seed history from a laptop, latest from CI: timing gate must
        // not fire across hosts (2x "drift" is just different hardware),
        // but the deterministic counter gate still does.
        let records = vec![
            rec(1000, 1.0, "laptop"),
            rec(1000, 1.0, "laptop"),
            rec(1100, 2.0, "ci"),
        ];
        let t = analyze("cells", &records, &TrendConfig::default());
        assert!(t.timing_drifts.is_empty(), "{:?}", t.timing_drifts);
        assert!(
            t.notes.iter().any(|n| n.contains("timing gate skipped")),
            "{:?}",
            t.notes
        );
        assert!(!t.counter_regressions.is_empty(), "counters gate anyway");
    }

    #[test]
    fn quiet_windows_cannot_flag_micro_jitter() {
        // A bitwise-identical window has MAD 0; the floor keeps a 5%
        // wobble below the gate.
        let mut records: Vec<Json> = (0..4).map(|_| rec(1000, 1.0, "ci")).collect();
        records.push(rec(1000, 1.05, "ci"));
        let t = analyze("cells", &records, &TrendConfig::default());
        assert!(t.is_clean(), "{:?}", t.timing_drifts);
    }

    #[test]
    fn window_is_configurable_and_bounds_lookback() {
        // Ancient slow records fall out of a window of 3: the median
        // comes from the recent fast era, so the reverting latest run
        // is flagged against the fast median.
        let mut records: Vec<Json> = [5.0, 5.1, 1.0, 1.01, 0.99]
            .iter()
            .map(|w| rec(1000, *w, "ci"))
            .collect();
        records.push(rec(1000, 5.0, "ci"));
        let cfg = TrendConfig {
            window: 3,
            ..TrendConfig::default()
        };
        let t = analyze("cells", &records, &cfg);
        assert!(!t.timing_drifts.is_empty(), "regression to the slow era");
        // With a window spanning the slow era, the same latest record
        // sits inside the noisy band's threshold — windowing matters.
        let cfg_wide = TrendConfig {
            window: 5,
            ..TrendConfig::default()
        };
        let t_wide = analyze("cells", &records, &cfg_wide);
        assert!(
            t_wide.timing_drifts.len() <= t.timing_drifts.len(),
            "wider window is no stricter here"
        );
    }

    #[test]
    fn pre_v3_records_are_skipped_with_a_note() {
        let mut old = rec(1000, 1.0, "ci");
        old.set("schema", 2);
        let records = vec![old, rec(1000, 1.0, "ci"), rec(1000, 1.0, "ci")];
        let t = analyze("cells", &records, &TrendConfig::default());
        assert_eq!(t.records, 2);
        assert!(
            t.notes.iter().any(|n| n.contains("schema")),
            "{:?}",
            t.notes
        );
        assert!(t.is_clean());
    }

    #[test]
    fn sparkline_scales_and_handles_flat_series() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0, 1.0]), "▄▄▄");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
    }

    #[test]
    fn dashboard_aggregates_status_across_experiments() {
        let clean = analyze(
            "cells",
            &[
                rec(1000, 1.0, "ci"),
                rec(1000, 1.0, "ci"),
                rec(1000, 1.0, "ci"),
            ],
            &TrendConfig::default(),
        );
        let dirty = analyze(
            "kernels",
            &[rec(1000, 1.0, "ci"), rec(1200, 1.0, "ci")],
            &TrendConfig::default(),
        );
        let cfg = TrendConfig::default();
        let md = render_dashboard(&[clean.clone(), dirty], &cfg);
        assert!(md.contains("DRIFT DETECTED"), "{md}");
        assert!(md.contains("## cells") && md.contains("## kernels"));
        let md_clean = render_dashboard(&[clean], &cfg);
        assert!(md_clean.contains("**PASS**"), "{md_clean}");
    }
}
