//! `tsdtw report` — perf-trajectory tooling over `BENCH_*.json`
//! snapshots (see `tsdtw_bench::snapshot` for the schema) and the
//! append-only history ledger (`tsdtw_bench::history`).
//!
//! `report diff` is the pairwise CI regression gate: deterministic
//! counters (DP cells, prune dispositions, tier mismatches, `memory`
//! allocation counts) are compared hard — any growth beyond
//! `--fail-on-regress` percent is an error and the process exits
//! non-zero, as is a hard counter or a non-null top-level section
//! present in the baseline but missing from the current snapshot —
//! while wall-clock, per-kernel timings, memory *byte* totals and the
//! profile section only ever produce advisory warnings, so the gate
//! stays green on noisy shared runners and across allocator-size-class
//! changes. Each section's gate class is its row in
//! `tsdtw_bench::snapshot::SECTIONS`.
//!
//! `report trend` is the longitudinal gate: it reads every experiment's
//! ledger under `<results>/history/`, applies the noise-aware detector
//! (`tsdtw_bench::trend` — `report diff`'s counter gate at zero
//! tolerance, latest record vs the one before, timings through
//! a median/MAD window of comparable-environment records), writes the
//! `TREND.md` dashboard, and under `--fail-on-drift` exits non-zero on
//! any confirmed drift.
//!
//! `report show` pretty-prints one snapshot for humans — the aligned
//! counterpart to reading the raw JSON.
//!
//! `report flame` renders a collapsed-stack export (written by
//! `--profile=FILE` or `repro --profile`) as an ASCII flame view, and
//! `--attribute` on `diff`/`trend` ranks spans by their per-span deltas
//! (calls, wall time, alloc bytes, self-time share) so a firing gate
//! names its top suspect spans instead of a bare counter.

use std::path::Path;

use crate::args::ArgError;
use tsdtw_bench::{history, snapshot, trend};
use tsdtw_obs::Json;

pub const HELP: &str = "\
tsdtw report diff BASELINE CURRENT [--fail-on-regress PCT] [--attribute]
tsdtw report trend [--history DIR] [--window N] [--mad-k K] [--floor PCT]
                   [--out FILE] [--fail-on-drift] [--attribute]
tsdtw report show SNAPSHOT
tsdtw report flame COLLAPSED [--width N]
  diff   compare two BENCH_<experiment>.json snapshots (see `repro`)
    --fail-on-regress   tolerance in percent for work-counter and
                        memory-count growth (default 0 = any growth
                        fails); timing changes, memory byte totals and
                        the profile section are always advisory and
                        never fail the diff. A baseline section or hard
                        counter missing from CURRENT fails too.
    --attribute         rank spans by per-span delta (calls, wall time,
                        alloc bytes, profile self-time share) and print
                        the top-3 suspect spans for the drift
  trend  analyze every ledger under DIR/history/ and write a TREND.md
         dashboard (sparkline trajectories, regression callouts)
    --history DIR       results root holding history/ (default results)
    --window N          prior records the timing window consults (default 5)
    --mad-k K           robust sigmas before a timing is drift (default 4)
    --floor PCT         relative floor a timing must also exceed (default 25)
    --out FILE          dashboard path (default DIR/TREND.md)
    --fail-on-drift     exit non-zero when any gate confirms drift
    --attribute         for each drifting experiment, print the top-3
                        suspect spans (latest record vs the one before)
  show   pretty-print one snapshot (work counters, timings, memory,
         profile self times)
  flame  render a collapsed-stack export (from --profile=FILE or
         `repro --profile`) as an ASCII flame view
    --width N           bar column width in characters (default 40)";

fn load(path: &str) -> Result<Json, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    Json::parse(&text).map_err(|e| ArgError(format!("{path} is not valid JSON: {e}")).into())
}

/// Runs the command. `report` parses its operands by hand because,
/// unlike every other subcommand, its actions take positional file
/// arguments.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let Some(action) = raw.first() else {
        return Err(Box::new(ArgError(
            "report needs an action; see `tsdtw help report`".into(),
        )));
    };
    match action.as_str() {
        "diff" => run_diff(&raw[1..]),
        "trend" => run_trend(&raw[1..]),
        "show" => run_show(&raw[1..]),
        "flame" => run_flame(&raw[1..]),
        other => Err(Box::new(ArgError(format!(
            "unknown report action {other:?}; see `tsdtw help report`"
        )))),
    }
}

/// Renders the top-`n` suspect spans between two snapshots, or a note
/// when neither side carries enough span evidence to rank anything.
fn attribution_block(baseline: &Json, current: &Json, n: usize) -> String {
    let suspects = snapshot::attribute(baseline, current);
    if suspects.is_empty() {
        "top suspect spans: none (no span grew; pass --trace or --profile \
         to repro for richer evidence)\n"
            .to_string()
    } else {
        format!(
            "top suspect spans:\n{}",
            snapshot::render_attribution(&suspects, n)
        )
    }
}

fn run_diff(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let mut files: Vec<&str> = Vec::new();
    let mut fail_pct = 0.0f64;
    let mut attribute = false;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--attribute" => attribute = true,
            "--fail-on-regress" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--fail-on-regress needs a percentage".into()))?;
                fail_pct = v
                    .parse()
                    .map_err(|_| ArgError(format!("--fail-on-regress: {v:?} is not a number")))?;
                if fail_pct.is_nan() || fail_pct < 0.0 {
                    return Err(Box::new(ArgError(
                        "--fail-on-regress must be non-negative".into(),
                    )));
                }
            }
            other if other.starts_with("--") => {
                return Err(Box::new(ArgError(format!("unknown flag {other:?}"))));
            }
            other => files.push(other),
        }
    }
    let [baseline_path, current_path] = files[..] else {
        return Err(Box::new(ArgError(format!(
            "diff takes exactly two snapshot files, got {}",
            files.len()
        ))));
    };

    let baseline = load(baseline_path)?;
    let current = load(current_path)?;
    let d = snapshot::diff(&baseline, &current, fail_pct);
    let mut rendered = d.render();
    // Attribution rides on BOTH outcomes: a green diff still benefits
    // from knowing which span moved, and a firing gate must name its
    // suspects in the same CI log that reports the failure.
    if attribute {
        rendered.push_str(&attribution_block(&baseline, &current, 3));
    }
    if d.regressions.is_empty() {
        Ok(rendered)
    } else {
        // Err path: main prints to stderr and exits non-zero — that IS
        // the gate. Include the full comparison so CI logs are useful.
        let mut msg = rendered;
        msg.push_str(&format!(
            "FAIL: {} regression(s) (counters beyond {fail_pct}%, missing counters or \
             sections, or disarmed telemetry):\n",
            d.regressions.len()
        ));
        for r in &d.regressions {
            msg.push_str(&format!("  {r}\n"));
        }
        Err(Box::new(ArgError(msg)))
    }
}

fn run_trend(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let mut results_dir = String::from("results");
    let mut out_path: Option<String> = None;
    let mut fail_on_drift = false;
    let mut attribute = false;
    let mut cfg = trend::TrendConfig::default();
    let mut it = raw.iter();
    let value = |name: &str, it: &mut std::slice::Iter<'_, String>| {
        it.next()
            .cloned()
            .ok_or_else(|| ArgError(format!("{name} needs a value")))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--history" => results_dir = value("--history", &mut it)?,
            "--out" => out_path = Some(value("--out", &mut it)?),
            "--fail-on-drift" => fail_on_drift = true,
            "--attribute" => attribute = true,
            "--window" => {
                let v = value("--window", &mut it)?;
                cfg.window =
                    v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        ArgError(format!("--window: {v:?} is not a positive count"))
                    })?;
            }
            "--mad-k" => {
                let v = value("--mad-k", &mut it)?;
                cfg.mad_k = v
                    .parse()
                    .ok()
                    .filter(|k: &f64| k.is_finite() && *k > 0.0)
                    .ok_or_else(|| ArgError(format!("--mad-k: {v:?} is not a positive number")))?;
            }
            "--floor" => {
                let v = value("--floor", &mut it)?;
                cfg.floor_pct = v
                    .parse()
                    .ok()
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .ok_or_else(|| {
                        ArgError(format!("--floor: {v:?} is not a non-negative percent"))
                    })?;
            }
            other => {
                return Err(Box::new(ArgError(format!(
                    "unknown trend argument {other:?}; see `tsdtw help report`"
                ))));
            }
        }
    }

    let root = Path::new(&results_dir);
    let experiments = history::experiments(root)?;
    if experiments.is_empty() {
        return Err(Box::new(ArgError(format!(
            "no history ledgers under {}/history/ — run `repro` at least once \
             (every run appends its snapshots there)",
            root.display()
        ))));
    }
    let mut trends = Vec::new();
    let mut ledgers = Vec::new();
    let mut out = String::new();
    for exp in &experiments {
        let ledger = history::load(root, exp)?;
        if let Some(note) = &ledger.note {
            out.push_str(&format!("note: {note}\n"));
        }
        trends.push(trend::analyze(exp, &ledger.records, &cfg));
        ledgers.push(ledger.records);
    }
    let dashboard = trend::render_dashboard(&trends, &cfg);
    let out_file = out_path.unwrap_or_else(|| root.join("TREND.md").to_string_lossy().into_owned());
    tsdtw_bench::write_atomic(Path::new(&out_file), &dashboard)?;

    let dirty: Vec<&trend::ExperimentTrend> = trends.iter().filter(|t| !t.is_clean()).collect();
    for t in &trends {
        let verdict = if t.is_clean() { "clean" } else { "DRIFT" };
        out.push_str(&format!(
            "{:<12} {:>3} record(s)  {}\n",
            t.experiment, t.records, verdict
        ));
    }
    out.push_str(&format!("trend dashboard written to {out_file}\n"));
    if dirty.is_empty() {
        out.push_str(&format!(
            "PASS: no confirmed drift across {} experiment(s)\n",
            trends.len()
        ));
        return Ok(out);
    }
    out.push_str(&format!(
        "{} experiment(s) with confirmed drift:\n",
        dirty.len()
    ));
    for t in &dirty {
        for r in &t.counter_regressions {
            out.push_str(&format!("  [{}] counter: {r}\n", t.experiment));
        }
        for d in &t.timing_drifts {
            out.push_str(&format!("  [{}] timing: {d}\n", t.experiment));
        }
        if attribute {
            // Mine the two newest comparable-schema records for the
            // span that moved — latest vs the one before, the same pair
            // the counter gate just compared.
            let ledger = experiments
                .iter()
                .position(|e| e == &t.experiment)
                .map(|i| &ledgers[i]);
            let pair = ledger.and_then(|records| {
                let current_schema: Vec<&Json> = records
                    .iter()
                    .filter(|r| r["schema"].as_i64() == Some(snapshot::SCHEMA_VERSION))
                    .collect();
                match current_schema[..] {
                    [.., prev, latest] => Some((prev, latest)),
                    _ => None,
                }
            });
            match pair {
                Some((prev, latest)) => {
                    out.push_str(&format!("  [{}] ", t.experiment));
                    out.push_str(&attribution_block(prev, latest, 3));
                }
                None => out.push_str(&format!(
                    "  [{}] top suspect spans: unavailable (needs two \
                     schema-v{} records in the ledger)\n",
                    t.experiment,
                    snapshot::SCHEMA_VERSION
                )),
            }
        }
    }
    if fail_on_drift {
        Err(Box::new(ArgError(out)))
    } else {
        out.push_str("(advisory: pass --fail-on-drift to make this exit non-zero)\n");
        Ok(out)
    }
}

fn run_show(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let [path] = raw else {
        return Err(Box::new(ArgError(format!(
            "show takes exactly one snapshot file, got {}",
            raw.len()
        ))));
    };
    let snap = load(path)?;
    let Some(schema) = snap["schema"].as_i64() else {
        return Err(Box::new(ArgError(format!(
            "{path} carries no schema tag — not a BENCH_* snapshot \
             (this tool speaks schema v{})",
            snapshot::SCHEMA_VERSION
        ))));
    };

    let mut out = String::new();
    out.push_str(&format!(
        "experiment   {} — {}\n",
        snap["experiment"].as_str().unwrap_or("?"),
        snap["title"].as_str().unwrap_or("?"),
    ));
    out.push_str(&format!(
        "schema       v{schema}   hash {}   rev {}\n",
        snap["hash"].as_str().unwrap_or("-"),
        snap["git_rev"].as_str().unwrap_or("?"),
    ));
    let env = &snap["env"];
    out.push_str(&format!(
        "env          {}/{} host {} — {} worker(s) of {} cpu(s), spans {}\n",
        env["os"].as_str().unwrap_or("?"),
        env["arch"].as_str().unwrap_or("?"),
        env["host"].as_str().unwrap_or("?"),
        env["n_threads"].as_i64().unwrap_or(-1),
        env["threads"].as_i64().unwrap_or(-1),
        if snap["spans_enabled"].as_bool() == Some(true) {
            "on"
        } else {
            "off"
        },
    ));
    if let Some(w) = snap["wall_s"].as_f64() {
        out.push_str(&format!("wall         {w:.6} s\n"));
    }

    for section in snapshot::SECTIONS {
        match snap.get(section.name) {
            Some(v) if !v.is_null() => out.push_str(&(section.show)(v)),
            _ => out.push_str(&format!(
                "\nno {} section ({})\n",
                section.name, section.absent
            )),
        }
    }

    if let Some(kernels) = snap["kernels"].as_object() {
        if kernels.is_empty() {
            out.push_str("\n-- kernels: no span data (run repro with --trace or --profile) --\n");
        } else {
            out.push_str("\n-- kernels (timings vary with hardware) --\n");
            out.push_str(&format!(
                "  {:<20} {:>8}  {:>11}  {:>10}  {:>10}  {:>10}  {:>12}\n",
                "span", "count", "total", "p50", "p99", "max", "alloc_bytes"
            ));
            for (label, s) in kernels {
                out.push_str(&format!(
                    "  {:<20} {:>8}  {:>10.6}s  {:>9.6}s  {:>9.6}s  {:>9.6}s  {:>12}\n",
                    label,
                    s["count"].as_i64().unwrap_or(0),
                    s["total_s"].as_f64().unwrap_or(0.0),
                    s["p50_s"].as_f64().unwrap_or(0.0),
                    s["p99_s"].as_f64().unwrap_or(0.0),
                    s["max_s"].as_f64().unwrap_or(0.0),
                    s["alloc_bytes"].as_i64().unwrap_or(0),
                ));
            }
        }
    }
    Ok(out)
}

fn run_flame(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let mut file: Option<&str> = None;
    let mut width = 40usize;
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--width" => {
                let v = it
                    .next()
                    .ok_or_else(|| ArgError("--width needs a value".into()))?;
                width =
                    v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        ArgError(format!("--width: {v:?} is not a positive count"))
                    })?;
            }
            other if other.starts_with("--") => {
                return Err(Box::new(ArgError(format!("unknown flag {other:?}"))));
            }
            other => {
                if file.replace(other).is_some() {
                    return Err(Box::new(ArgError(
                        "flame takes exactly one collapsed-stack file".into(),
                    )));
                }
            }
        }
    }
    let Some(path) = file else {
        return Err(Box::new(ArgError(
            "flame needs a collapsed-stack file (write one with --profile=FILE \
             or `repro --profile`)"
                .into(),
        )));
    };
    let text = std::fs::read_to_string(Path::new(path))
        .map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let folded =
        tsdtw_obs::profile::parse_collapsed(&text).map_err(|e| ArgError(format!("{path}: {e}")))?;
    Ok(tsdtw_obs::profile::flame_ascii(&folded, width))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_obs::json_obj;

    fn snap_json(cells: i64) -> Json {
        json_obj! {
            "schema" => snapshot::SCHEMA_VERSION,
            "experiment" => "cells",
            "title" => "t",
            "git_rev" => "abc",
            "spans_enabled" => false,
            "env" => json_obj! { "os" => "linux" },
            "wall_s" => 1.0,
            "work" => json_obj! { "cells" => cells },
            "kernels" => Json::object(),
            "memory" => json_obj! { "telemetry" => false, "allocs" => 0 },
        }
    }

    fn write_snap(dir: &Path, name: &str, s: &Json) -> String {
        let path = dir.join(name);
        std::fs::write(&path, s.to_string_pretty()).unwrap();
        path.to_str().unwrap().to_string()
    }

    fn snap_file(dir: &Path, name: &str, cells: i64) -> String {
        write_snap(dir, name, &snap_json(cells))
    }

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A results root holding a ledger for `cells` built from the given
    /// (cells, wall_s) pairs, oldest first.
    fn ledger_dir(name: &str, runs: &[(i64, f64)]) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&d);
        for (cells, wall) in runs {
            let mut s = snap_json(*cells);
            s.set("wall_s", *wall);
            s.set("hash", format!("{cells:08x}{:08x}", wall.to_bits() as u32));
            history::append(&d, "cells", &s).unwrap();
        }
        d
    }

    #[test]
    fn identical_snapshots_pass() {
        let d = tmpdir("tsdtw-report-same");
        let a = snap_file(&d, "a.json", 100);
        let b = snap_file(&d, "b.json", 100);
        let out = run(&raw(&["diff", &a, &b])).unwrap();
        assert!(out.contains("0 regressed"), "{out}");
    }

    #[test]
    fn regression_is_an_error_with_details() {
        let d = tmpdir("tsdtw-report-regress");
        let a = snap_file(&d, "a.json", 100);
        let b = snap_file(&d, "b.json", 150);
        let err = run(&raw(&["diff", &a, &b])).unwrap_err().to_string();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("work.cells"), "{err}");
        // Loosening the tolerance past the delta lets it pass.
        let out = run(&raw(&["diff", &a, &b, "--fail-on-regress", "75"])).unwrap();
        assert!(out.contains("within tolerance"), "{out}");
    }

    #[test]
    fn improvements_pass_at_zero_tolerance() {
        let d = tmpdir("tsdtw-report-improve");
        let a = snap_file(&d, "a.json", 100);
        let b = snap_file(&d, "b.json", 80);
        let out = run(&raw(&["diff", &a, &b])).unwrap();
        assert!(out.contains("1 improved"), "{out}");
    }

    #[test]
    fn dropped_section_fails_the_gate_even_with_loose_tolerance() {
        let d = tmpdir("tsdtw-report-sections");
        let a = snap_file(&d, "a.json", 100);
        let mut stripped = snap_json(100);
        if let Json::Obj(fields) = &mut stripped {
            fields.retain(|(k, _)| k != "memory");
        }
        let b = write_snap(&d, "b.json", &stripped);
        let err = run(&raw(&["diff", &a, &b, "--fail-on-regress", "1000"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("section memory"), "{err}");
    }

    #[test]
    fn trend_over_clean_history_passes_and_writes_dashboard() {
        let d = ledger_dir(
            "tsdtw-report-trend-clean",
            &[(100, 1.0), (100, 1.0), (100, 1.0)],
        );
        let out = run(&raw(&["trend", "--history", d.to_str().unwrap()])).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("cells"), "{out}");
        let md = std::fs::read_to_string(d.join("TREND.md")).unwrap();
        assert!(md.contains("# Performance trend dashboard"), "{md}");
        assert!(md.contains("**PASS**"), "{md}");
        assert!(md.contains("## cells"), "{md}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn trend_counter_regression_fails_only_under_the_flag() {
        let d = ledger_dir(
            "tsdtw-report-trend-regress",
            &[(100, 1.0), (100, 1.0), (120, 1.0)],
        );
        let dir = d.to_str().unwrap().to_string();
        // Advisory by default...
        let out = run(&raw(&["trend", "--history", &dir])).unwrap();
        assert!(out.contains("confirmed drift"), "{out}");
        assert!(out.contains("advisory"), "{out}");
        // ...an error under --fail-on-drift, naming the counter.
        let err = run(&raw(&["trend", "--history", &dir, "--fail-on-drift"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("work.cells"), "{err}");
        assert!(err.contains("+20.00%"), "{err}");
        // The dashboard carries the callout either way.
        let md = std::fs::read_to_string(d.join("TREND.md")).unwrap();
        assert!(md.contains("DRIFT DETECTED"), "{md}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn trend_flags_tune_window_and_output_path() {
        let d = ledger_dir(
            "tsdtw-report-trend-flags",
            &[(100, 1.0), (100, 1.0), (100, 1.0)],
        );
        let out_md = d.join("custom").join("DASH.md");
        let out = run(&raw(&[
            "trend",
            "--history",
            d.to_str().unwrap(),
            "--window",
            "3",
            "--mad-k",
            "6",
            "--floor",
            "50",
            "--out",
            out_md.to_str().unwrap(),
        ]));
        // --out into a missing directory fails cleanly; with the parent
        // present it writes there.
        assert!(out.is_err());
        std::fs::create_dir_all(out_md.parent().unwrap()).unwrap();
        let out = run(&raw(&[
            "trend",
            "--history",
            d.to_str().unwrap(),
            "--window",
            "3",
            "--mad-k",
            "6",
            "--floor",
            "50",
            "--out",
            out_md.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        let md = std::fs::read_to_string(&out_md).unwrap();
        assert!(md.contains("window 3"), "{md}");
        assert!(md.contains("MAD k 6"), "{md}");
        assert!(md.contains("floor 50%"), "{md}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn trend_without_history_names_the_missing_directory() {
        let d = tmpdir("tsdtw-report-trend-empty");
        let err = run(&raw(&["trend", "--history", d.to_str().unwrap()]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("no history ledgers"), "{err}");
        assert!(err.contains("repro"), "{err}");
    }

    #[test]
    fn show_renders_aligned_sections() {
        let d = tmpdir("tsdtw-report-show");
        let mut s = snap_json(12345);
        s.set(
            "kernels",
            json_obj! {
                "cdtw" => json_obj! {
                    "count" => 10, "total_s" => 0.5, "p50_s" => 0.01,
                    "p99_s" => 0.02, "max_s" => 0.03, "alloc_bytes" => 64,
                },
            },
        );
        s.set(
            "funnel",
            json_obj! {
                "candidates" => 100,
                "total_cost_units" => 7500,
                "stages" => json_obj! {
                    "lb_kim" => json_obj! {
                        "entered" => 100, "pruned" => 60, "survived" => 40,
                        "cost_units" => 100,
                        "tightness" => json_obj! {
                            "count" => 10, "mean" => 0.7, "p50" => 0.71,
                            "p90" => 0.8, "p99" => 0.9, "max" => 0.95,
                        },
                    },
                    "dtw" => json_obj! {
                        "entered" => 40, "pruned" => 0, "survived" => 40,
                        "cost_units" => 7400,
                    },
                },
            },
        );
        s.set(
            "tiers",
            json_obj! {
                "segmented" => json_obj! {
                    "mismatch" => 0, "cells_per_s" => 8.0e8,
                    "speedup_vs_segmented" => 1.0,
                },
                "batched" => json_obj! {
                    "mismatch" => 0, "cells_per_s" => 2.4e9,
                    "speedup_vs_segmented" => 3.0,
                },
            },
        );
        let path = write_snap(&d, "BENCH_cells.json", &s);
        let out = run(&raw(&["show", &path])).unwrap();
        assert!(out.contains("experiment   cells"), "{out}");
        assert!(out.contains("-- work counters"), "{out}");
        assert!(out.contains("cells") && out.contains("12345"), "{out}");
        assert!(out.contains("-- funnel"), "{out}");
        assert!(out.contains("100 candidate(s), 7500 cost unit(s)"), "{out}");
        assert!(out.contains("lb_kim"), "{out}");
        assert!(out.contains("0.710"), "{out}");
        assert!(!out.contains("no funnel section"), "{out}");
        assert!(out.contains("-- memory"), "{out}");
        assert!(out.contains("disarmed"), "{out}");
        assert!(out.contains("-- kernels"), "{out}");
        assert!(out.contains("cdtw"), "{out}");
        assert!(out.contains("-- kernel tiers"), "{out}");
        assert!(out.contains("batched"), "{out}");
        assert!(out.contains("2400.0 Mc/s"), "{out}");
        assert!(out.contains("3.00x"), "{out}");
        assert!(!out.contains("no tiers section"), "{out}");
        // Non-snapshot JSON gets a clear message, not a panic.
        let not_snap = write_snap(&d, "nope.json", &json_obj! { "x" => 1 });
        let err = run(&raw(&["show", &not_snap])).unwrap_err().to_string();
        assert!(err.contains("no schema tag"), "{err}");
    }

    #[test]
    fn show_notes_every_null_or_absent_section() {
        let d = tmpdir("tsdtw-report-show-absent");
        for section in snapshot::SECTIONS {
            let note = format!("\nno {} section ({})\n", section.name, section.absent);
            let mut null = snap_json(100);
            null.set(section.name, Json::Null);
            let mut absent = snap_json(100);
            if let Json::Obj(fields) = &mut absent {
                fields.retain(|(k, _)| k != section.name);
            }
            for (case, s) in [("null", null), ("absent", absent)] {
                let path = write_snap(&d, &format!("BENCH_{}_{case}.json", section.name), &s);
                let out = run(&raw(&["show", &path])).unwrap();
                assert!(out.contains(&note), "{case} {}: {out}", section.name);
            }
        }
    }

    #[test]
    fn show_renders_the_profile_section() {
        let d = tmpdir("tsdtw-report-show-profile");
        let mut s = snap_json(100);
        s.set(
            "profile",
            json_obj! {
                "duration_s" => 1.5,
                "spans" => json_obj! {
                    "cdtw" => json_obj! {
                        "self_s" => 0.9, "total_s" => 1.1,
                        "self_share" => 0.75,
                    },
                    "lb_keogh" => json_obj! {
                        "self_s" => 0.3, "total_s" => 0.3,
                        "self_share" => 0.25,
                    },
                },
            },
        );
        let path = write_snap(&d, "BENCH_prof.json", &s);
        let out = run(&raw(&["show", &path])).unwrap();
        assert!(out.contains("-- profile"), "{out}");
        assert!(out.contains("advisory"), "{out}");
        assert!(out.contains("1.500s run"), "{out}");
        assert!(
            out.contains("0.900000s") && out.contains("1.100000s"),
            "{out}"
        );
        assert!(out.contains("cdtw") && out.contains("75.0%"), "{out}");
        assert!(!out.contains("no profile section"), "{out}");
    }

    #[test]
    fn diff_attribute_names_the_grown_span_on_both_outcomes() {
        let d = tmpdir("tsdtw-report-attribute");
        let span = |total: f64| {
            json_obj! {
                "count" => 40, "total_s" => total, "p50_s" => 0.001,
                "p99_s" => 0.002, "max_s" => 0.003, "alloc_bytes" => 0,
            }
        };
        let mut base = snap_json(100);
        base.set(
            "kernels",
            json_obj! { "cdtw" => span(0.5), "lb_keogh" => span(0.1) },
        );
        let mut hot = snap_json(100);
        hot.set(
            "kernels",
            json_obj! { "cdtw" => span(0.5), "lb_keogh" => span(0.4) },
        );
        let a = write_snap(&d, "base.json", &base);
        let b = write_snap(&d, "hot.json", &hot);
        // Counters are identical, so the gate passes — attribution still
        // reports which span's wall time moved.
        let out = run(&raw(&["diff", &a, &b, "--attribute"])).unwrap();
        assert!(out.contains("top suspect spans:"), "{out}");
        assert!(out.contains("1. lb_keogh"), "{out}");
        assert!(out.contains("wall time"), "{out}");
        // Without the flag no attribution appears.
        let quiet = run(&raw(&["diff", &a, &b])).unwrap();
        assert!(!quiet.contains("suspect"), "{quiet}");
        // A firing gate (counter regression) names its suspects inside
        // the error message CI prints.
        hot.set("work", json_obj! { "cells" => 150i64 });
        let b = write_snap(&d, "hot.json", &hot);
        let err = run(&raw(&["diff", &a, &b, "--attribute"]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("FAIL"), "{err}");
        assert!(err.contains("1. lb_keogh"), "{err}");
    }

    #[test]
    fn diff_attribute_degrades_to_a_note_without_span_evidence() {
        let d = tmpdir("tsdtw-report-attribute-bare");
        let a = snap_file(&d, "a.json", 100);
        let b = snap_file(&d, "b.json", 100);
        let out = run(&raw(&["diff", &a, &b, "--attribute"])).unwrap();
        assert!(out.contains("top suspect spans: none"), "{out}");
    }

    #[test]
    fn trend_attribute_names_suspects_for_the_drifting_experiment() {
        let name = "tsdtw-report-trend-attribute";
        let d = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&d);
        let span = |total: f64| {
            json_obj! {
                "count" => 40, "total_s" => total, "p50_s" => 0.001,
                "p99_s" => 0.002, "max_s" => 0.003, "alloc_bytes" => 0,
            }
        };
        for (i, (cells, total)) in [(100i64, 0.1), (100, 0.1), (120, 0.4)].iter().enumerate() {
            let mut s = snap_json(*cells);
            s.set("kernels", json_obj! { "lb_keogh" => span(*total) });
            s.set("hash", format!("{i:016x}"));
            history::append(&d, "cells", &s).unwrap();
        }
        let err = run(&raw(&[
            "trend",
            "--history",
            d.to_str().unwrap(),
            "--fail-on-drift",
            "--attribute",
        ]))
        .unwrap_err()
        .to_string();
        assert!(err.contains("work.cells"), "{err}");
        assert!(err.contains("top suspect spans:"), "{err}");
        assert!(err.contains("1. lb_keogh"), "{err}");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn flame_renders_a_collapsed_stack_file() {
        let d = tmpdir("tsdtw-report-flame");
        let path = d.join("collapsed.txt");
        std::fs::write(
            &path,
            "knn_query;cdtw 30\nknn_query;lb_keogh 10\nknn_query 10\n",
        )
        .unwrap();
        let out = run(&raw(&["flame", path.to_str().unwrap()])).unwrap();
        assert!(out.contains("knn_query"), "{out}");
        assert!(out.contains("cdtw"), "{out}");
        assert!(out.contains('#'), "{out}");
        // cdtw is the hottest child: its bar outweighs lb_keogh's.
        let bar = |label: &str| {
            out.lines()
                .find(|l| l.contains(label))
                .unwrap()
                .matches('#')
                .count()
        };
        assert!(bar("cdtw") > bar("lb_keogh"), "{out}");
        // --width narrows the bar column (the renderer floors it at 10).
        let narrow = run(&raw(&["flame", path.to_str().unwrap(), "--width", "10"])).unwrap();
        assert!(
            narrow.lines().all(|l| l.matches('#').count() <= 10),
            "{narrow}"
        );
        // Malformed input is a clean error naming the file.
        let bad = d.join("bad.txt");
        std::fs::write(&bad, "no-count-here\n").unwrap();
        let err = run(&raw(&["flame", bad.to_str().unwrap()]))
            .unwrap_err()
            .to_string();
        assert!(err.contains("bad.txt"), "{err}");
    }

    #[test]
    fn bad_usage_is_rejected() {
        let d = tmpdir("tsdtw-report-usage");
        let a = snap_file(&d, "a.json", 1);
        assert!(run(&raw(&[])).is_err(), "missing action");
        assert!(run(&raw(&["frobnicate"])).is_err(), "unknown action");
        assert!(run(&raw(&["diff", &a])).is_err(), "one file");
        assert!(
            run(&raw(&["diff", &a, &a, "--fail-on-regress", "x"])).is_err(),
            "non-numeric tolerance"
        );
        assert!(
            run(&raw(&["diff", &a, &a, "--fail-on-regress", "-1"])).is_err(),
            "negative tolerance"
        );
        assert!(
            run(&raw(&["diff", &a, "/nonexistent/b.json"])).is_err(),
            "missing file"
        );
        assert!(
            run(&raw(&["trend", "--window", "0"])).is_err(),
            "zero window"
        );
        assert!(
            run(&raw(&["trend", "--mad-k", "nope"])).is_err(),
            "bad mad-k"
        );
        assert!(run(&raw(&["trend", "--floor"])).is_err(), "missing value");
        assert!(run(&raw(&["trend", "stray"])).is_err(), "stray operand");
        assert!(run(&raw(&["show"])).is_err(), "show needs a file");
        assert!(run(&raw(&["show", &a, &a])).is_err(), "show takes one file");
        assert!(run(&raw(&["flame"])).is_err(), "flame needs a file");
        assert!(
            run(&raw(&["flame", &a, &a])).is_err(),
            "flame takes one file"
        );
        assert!(
            run(&raw(&["flame", &a, "--width", "0"])).is_err(),
            "zero width"
        );
        assert!(
            run(&raw(&["diff", &a, &a, "--frobnicate"])).is_err(),
            "unknown diff flag"
        );
    }
}
