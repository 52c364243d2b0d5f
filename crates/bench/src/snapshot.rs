//! Perf-trajectory snapshots: the canonical `BENCH_<experiment>.json`
//! schema, its emission, and the diff that gates regressions.
//!
//! Every `repro` run emits one snapshot per experiment alongside the
//! existing `<id>.json` record:
//!
//! ```json
//! {
//!   "schema": 7,
//!   "hash": "9f86d081884c7d65",
//!   "experiment": "cells",
//!   "title": "…",
//!   "git_rev": "abc1234",
//!   "spans_enabled": true,
//!   "env": { "os": "linux", "arch": "x86_64", "family": "unix",
//!            "threads": 16, "n_threads": 4, "host": "…" },
//!   "wall_s": 1.23,
//!   "work": { "cells": …, "window_cells": …, … },
//!   "funnel": { "candidates": …, "total_cost_units": …,
//!               "stages": { "lb_kim": { "entered": …, "pruned": …,
//!                                       "survived": …, "cost_units": …,
//!                                       "tightness": { "count": …, … } }, … } },
//!   "tiers": { "wavefront": { "mismatch": 0, "cells_per_s": …,
//!                             "speedup_vs_segmented": … }, … },
//!   "memory": { "telemetry": true, "allocs": …, "frees": …,
//!               "bytes_allocated": …, "peak_bytes": …, … },
//!   "profile": { "sampler_hz": 997.0, "duration_s": …, "ticks": …,
//!                "samples": …, "spans": { "cdtw": { "self_samples": …,
//!                "total_samples": …, "self_share": … }, … } },
//!   "kernels": { "cdtw": { "count": …, "total_s": …, "p50_s": …,
//!                          "p99_s": …, "max_s": …, "alloc_bytes": … }, … }
//! }
//! ```
//!
//! `work` is the deterministic part — DP cells, window cells, prune
//! tallies are pure functions of the experiment configuration — so
//! [`diff`] **hard-fails** on work-counter growth beyond the tolerance.
//! `wall_s` and `kernels` (per-span latency summaries, populated under
//! `--features obs`) vary with hardware and load, so timing changes are
//! **advisory**: the diff prints warnings but never fails on them.
//! This split is what lets CI run the gate on shared runners without
//! flakes while still catching every algorithmic regression.
//!
//! `memory` (schema 2, populated under `--features alloc-telemetry`)
//! splits the same way *within* the section: allocation **counts**
//! (allocs, frees, reallocs, …) are deterministic for the serial repro
//! experiments and gate hard; **byte** totals (any leaf whose name
//! contains `bytes`) move with allocator and libstd versions, so they
//! are advisory. A baseline recorded with telemetry armed also pins the
//! `telemetry` flag: comparing an armed baseline against a disarmed
//! current run is itself a regression (the gate would otherwise pass
//! vacuously on all-zero counters). Finally, the diff checks the two
//! snapshots carry the same top-level sections — a section present in
//! the baseline but missing from the current run fails the gate.

use std::io;
use std::path::{Path, PathBuf};
use tsdtw_obs::{json_obj, Json, SpanStat};

/// Version tag every snapshot carries; [`diff`] refuses to compare
/// across versions. Version 2 added the `memory` section and the
/// per-kernel `alloc_bytes` column; version 3 added the `hash` field
/// (content fingerprint, see [`content_hash`]) that the perf-trajectory
/// history ledger keys records by; version 4 added the `funnel`
/// section (per-stage prune dispositions and cost units — integer
/// leaves gate hard, tightness-quantile floats are advisory;
/// `Json::Null` for experiments that run no cascade); version 5 added
/// an `rle` section for a run-length kernel since removed (a snapshot
/// written before the removal still carries it, so diffing it against a
/// current run fails on the missing section); version 6 added the
/// `tiers` section (per-tier throughput and tier-equivalence results
/// from the `kernels` experiment — the per-tier `mismatch` counters
/// gate hard at any tolerance because they count cases whose distance
/// diverged bitwise from the experiment's reference DP and must stay 0,
/// while cells/sec and speedup floats are advisory; `Json::Null` for
/// experiments that don't race kernel tiers); version 7 added the
/// `profile` section (sampling-profiler output: sampler rate,
/// tick/sample counts, and per-span self-vs-total sample shares —
/// **advisory like timings**, because sample counts depend on scheduler
/// phase and machine load; every leaf passes the diff's advisory
/// predicate, the section is excluded from the trend detector's
/// hard-counter walk, and `Json::Null` marks runs made without
/// `--profile`).
pub const SCHEMA_VERSION: i64 = 7;

/// Relative timing slowdown (percent) beyond which the diff emits an
/// advisory warning. Deliberately loose: shared CI runners jitter.
pub const TIMING_WARN_PCT: f64 = 25.0;

/// Fingerprint of the machine and run configuration the snapshot was
/// taken on. Enough to explain a timing delta, deliberately free of
/// anything secret. `threads` is the machine's available parallelism;
/// `n_threads` is the worker count the run was *configured* with —
/// recorded so a timing delta against a differently-threaded baseline
/// is explainable, while the `work` section (the hard gate) stays
/// thread-count independent by the executor's determinism contract.
pub fn env_fingerprint(n_threads: usize) -> Json {
    json_obj! {
        "os" => std::env::consts::OS,
        "arch" => std::env::consts::ARCH,
        "family" => std::env::consts::FAMILY,
        "threads" => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
        "n_threads" => n_threads,
        "host" => std::env::var("HOSTNAME")
            .or_else(|_| std::env::var("COMPUTERNAME"))
            .unwrap_or_else(|_| "unknown".into()),
    }
}

/// Content fingerprint of a snapshot: FNV-1a (64-bit) over the compact
/// serialization of every field *except* `hash` itself, rendered as 16
/// hex digits. The history ledger uses it to identify records — two
/// runs that measured exactly the same thing carry the same hash, and a
/// hand-edited record no longer matches its own fingerprint.
pub fn content_hash(snapshot: &Json) -> String {
    let mut canonical = snapshot.clone();
    if let Json::Obj(fields) = &mut canonical {
        fields.retain(|(k, _)| k != "hash");
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canonical.to_string_compact().bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The current git revision (short form), `"unknown"` outside a
/// repository. Overridable via `TSDTW_GIT_REV` for hermetic builds.
pub fn git_rev() -> String {
    if let Ok(rev) = std::env::var("TSDTW_GIT_REV") {
        return rev;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Builds one snapshot document from an experiment's outcome: its
/// report `work` section (if any), its `funnel` section (`None` emits
/// `null` — only cascaded experiments carry a funnel), its `tiers`
/// section (`None` emits `null` — only the kernel-tier race carries
/// one), the heap delta
/// measured around the run (`None` emits the disarmed all-zero stub,
/// so the `memory` section exists in every snapshot), the sampling
/// profiler's report (`None` emits `null` — only `--profile` runs
/// carry one), and the span table drained after the run (empty without
/// `--features obs`).
#[allow(clippy::too_many_arguments)]
pub fn capture(
    experiment: &str,
    title: &str,
    wall_s: f64,
    work: Option<&Json>,
    funnel: Option<&Json>,
    tiers: Option<&Json>,
    memory: Option<&Json>,
    profile: Option<&Json>,
    spans: &[SpanStat],
    n_threads: usize,
) -> Json {
    let mut kernels = Json::object();
    for s in spans {
        kernels.set(
            s.label,
            json_obj! {
                "count" => s.count,
                "total_s" => s.total_s,
                "p50_s" => s.p50_s,
                "p99_s" => s.p99_s,
                "max_s" => s.max_s,
                "alloc_bytes" => s.alloc_bytes,
            },
        );
    }
    let mut doc = json_obj! {
        "schema" => SCHEMA_VERSION,
        "hash" => "",
        "experiment" => experiment,
        "title" => title,
        "git_rev" => git_rev(),
        "spans_enabled" => tsdtw_obs::spans_enabled(),
        "env" => env_fingerprint(n_threads),
        "wall_s" => wall_s,
        "work" => work.cloned().unwrap_or(Json::Null),
        "funnel" => funnel.cloned().unwrap_or(Json::Null),
        "tiers" => tiers.cloned().unwrap_or(Json::Null),
        "memory" => memory.cloned().unwrap_or_else(|| {
            // No probe data reached capture: mark the stub disarmed even
            // if the allocator happens to be armed in this process, so a
            // diff can tell "not measured" from "measured zero traffic".
            let mut stub = tsdtw_obs::AllocDelta::default().report();
            stub.set("telemetry", false);
            stub
        }),
        "profile" => profile.cloned().unwrap_or(Json::Null),
        "kernels" => kernels,
    };
    let hash = content_hash(&doc);
    doc.set("hash", hash);
    doc
}

/// Writes a snapshot to `<dir>/BENCH_<experiment>.json` atomically
/// (temp file + rename, the same discipline as `Report::write_json`).
pub fn write(dir: &Path, experiment: &str, snapshot: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{experiment}.json"));
    let tmp = dir.join(format!(".BENCH_{experiment}.json.tmp"));
    std::fs::write(&tmp, snapshot.to_string_pretty())?;
    match std::fs::rename(&tmp, &path) {
        Ok(()) => Ok(path),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

/// The outcome of comparing two snapshots.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Human-readable comparison, one line per compared quantity.
    pub lines: Vec<String>,
    /// Work-counter regressions beyond the tolerance — each one a
    /// reason to fail.
    pub regressions: Vec<String>,
    /// Work counters that shrank (informational).
    pub improvements: usize,
    /// Counters compared overall.
    pub compared: usize,
    /// Advisory timing warnings.
    pub timing_warnings: usize,
}

impl Diff {
    /// Renders the full comparison for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&format!(
            "work counters: {} compared, {} regressed, {} improved; timing: {} advisory warning(s)\n",
            self.compared,
            self.regressions.len(),
            self.improvements,
            self.timing_warnings
        ));
        out
    }
}

/// Collects every integer-counter leaf under `value` as
/// `(dotted.path, count)`, descending arrays by index. The trend
/// detector walks history records with the same traversal, so the two
/// gates always agree on what a "counter" is.
pub(crate) fn counter_leaves(value: &Json, prefix: &str, out: &mut Vec<(String, i64)>) {
    match value {
        Json::Int(i) => out.push((prefix.to_string(), *i)),
        Json::Obj(entries) => {
            for (k, v) in entries {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                counter_leaves(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                counter_leaves(v, &format!("{prefix}[{i}]"), out);
            }
        }
        // Floats (fill_fraction, ratios) are derived, not work; booleans
        // and strings carry no magnitude. All advisory-only.
        _ => {}
    }
}

pub(crate) fn pct_change(base: f64, cur: f64) -> f64 {
    if base == 0.0 {
        if cur == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (cur - base) / base * 100.0
    }
}

/// Walks one snapshot section's integer-counter leaves, hard-gating
/// growth beyond `fail_pct` except on leaves `advisory` claims, which
/// only warn (the `memory` section passes `bytes`-named leaves here).
fn gate_counters(
    section: &str,
    baseline: &Json,
    current: &Json,
    fail_pct: f64,
    advisory: &dyn Fn(&str) -> bool,
    d: &mut Diff,
) {
    let mut base_counters = Vec::new();
    let mut cur_counters = Vec::new();
    counter_leaves(&baseline[section], section, &mut base_counters);
    counter_leaves(&current[section], section, &mut cur_counters);
    let cur_map: std::collections::HashMap<&str, i64> =
        cur_counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_keys: std::collections::HashSet<&str> =
        base_counters.iter().map(|(k, _)| k.as_str()).collect();

    for (path, base) in &base_counters {
        let Some(&cur) = cur_map.get(path.as_str()) else {
            d.lines.push(format!(
                "warn: counter {path} missing from current snapshot"
            ));
            d.timing_warnings += 1;
            continue;
        };
        d.compared += 1;
        let pct = pct_change(*base as f64, cur as f64);
        match cur.cmp(base) {
            std::cmp::Ordering::Equal => {}
            std::cmp::Ordering::Less => {
                d.improvements += 1;
                d.lines
                    .push(format!("  {path}: {base} -> {cur} ({pct:+.2}%) improved"));
            }
            std::cmp::Ordering::Greater => {
                let line = format!("  {path}: {base} -> {cur} ({pct:+.2}%)");
                if pct <= fail_pct {
                    d.lines.push(format!("{line} within tolerance"));
                } else if advisory(path) {
                    d.lines.push(format!("{line} [advisory]"));
                    d.timing_warnings += 1;
                } else {
                    d.lines.push(format!("{line} REGRESSION"));
                    d.regressions.push(format!(
                        "{path} grew {base} -> {cur} ({pct:+.2}% > {fail_pct}%)"
                    ));
                }
            }
        }
    }
    for (path, _) in &cur_counters {
        if !base_keys.contains(path.as_str()) {
            d.lines
                .push(format!("note: new counter {path} (not in baseline)"));
        }
    }
}

/// Compares two snapshots. Work-counter growth beyond `fail_pct`
/// percent lands in [`Diff::regressions`]; timing deltas are advisory
/// lines only (see the module docs for why).
pub fn diff(baseline: &Json, current: &Json, fail_pct: f64) -> Diff {
    let mut d = Diff::default();

    let schema_b = baseline["schema"].as_i64();
    let schema_c = current["schema"].as_i64();
    if schema_b != Some(SCHEMA_VERSION) || schema_c != Some(SCHEMA_VERSION) {
        let describe = |v: Option<i64>| match v {
            None => "no schema tag (not a snapshot, or pre-v1)".to_string(),
            Some(v) if v < SCHEMA_VERSION => format!("schema v{v} (older than this tool)"),
            Some(v) if v > SCHEMA_VERSION => format!("schema v{v} (newer than this tool)"),
            Some(v) => format!("schema v{v}"),
        };
        d.lines.push(format!(
            "cannot compare: this tool speaks snapshot schema v{SCHEMA_VERSION}"
        ));
        d.lines.push(format!("  baseline: {}", describe(schema_b)));
        d.lines.push(format!("  current:  {}", describe(schema_c)));
        if schema_b.is_some_and(|v| v < SCHEMA_VERSION) {
            d.lines.push(
                "  hint: regenerate the baseline with `repro` from this checkout \
                 (see EXPERIMENTS.md, baseline regeneration)"
                    .to_string(),
            );
        }
        d.regressions.push(format!(
            "schema mismatch: baseline has {}, current has {}, tool speaks v{SCHEMA_VERSION}",
            describe(schema_b),
            describe(schema_c)
        ));
        return d;
    }
    let exp_b = baseline["experiment"].as_str().unwrap_or("?");
    let exp_c = current["experiment"].as_str().unwrap_or("?");
    if exp_b != exp_c {
        d.lines.push(format!(
            "warn: comparing different experiments ({exp_b} vs {exp_c})"
        ));
        d.timing_warnings += 1;
    }
    d.lines.push(format!(
        "experiment {exp_c}: baseline rev {} -> current rev {}",
        baseline["git_rev"].as_str().unwrap_or("?"),
        current["git_rev"].as_str().unwrap_or("?")
    ));

    // --- section set: both snapshots must describe the same shape -----
    if let (Some(base_obj), Some(cur_obj)) = (baseline.as_object(), current.as_object()) {
        for (k, _) in base_obj {
            if !cur_obj.iter().any(|(ck, _)| ck == k) {
                let msg = format!("section {k} present in baseline but missing from current");
                d.lines.push(format!("warn: {msg} REGRESSION"));
                d.regressions.push(msg);
            }
        }
        for (k, _) in cur_obj {
            if !base_obj.iter().any(|(bk, _)| bk == k) {
                d.lines
                    .push(format!("note: new section {k} (not in baseline)"));
            }
        }
    }

    // --- deterministic work counters: the hard gate -------------------
    gate_counters("work", baseline, current, fail_pct, &|_| false, &mut d);

    // --- funnel dispositions: every integer leaf (entered / pruned /
    // survived / cost_units / tightness counts) gates hard; the
    // tightness quantiles are floats, advisory by omission from the
    // counter walk ----------------------------------------------------
    gate_counters("funnel", baseline, current, fail_pct, &|_| false, &mut d);

    // --- kernel tiers: the per-tier `mismatch` counters (cases whose
    // distance diverged bitwise from the reference DP) are 0
    // in any healthy baseline, so any growth is an infinite-percent hard
    // failure; cells/sec and speedup floats are advisory by omission
    // from the counter walk --------------------------------------------
    gate_counters("tiers", baseline, current, fail_pct, &|_| false, &mut d);

    // --- memory: counts gate hard, byte totals are advisory -----------
    if baseline["memory"]["telemetry"].as_bool() == Some(true)
        && current["memory"]["telemetry"].as_bool() == Some(false)
    {
        let msg = "memory telemetry disarmed: baseline was recorded with alloc-telemetry, \
                   current was not (its zero counters would pass the gate vacuously)"
            .to_string();
        d.lines.push(format!("warn: {msg}"));
        d.regressions.push(msg);
    }
    gate_counters(
        "memory",
        baseline,
        current,
        fail_pct,
        &|path| path.contains("bytes"),
        &mut d,
    );

    // --- profile: every leaf is advisory — sample counts depend on
    // scheduler phase and machine load, so the section is diffed for
    // visibility (and mined by [`attribute`]) but never hard-fails ----
    gate_counters("profile", baseline, current, fail_pct, &|_| true, &mut d);

    // --- timing: advisory only ----------------------------------------
    let advise = |name: &str, base: Option<f64>, cur: Option<f64>, d: &mut Diff| {
        let (Some(base), Some(cur)) = (base, cur) else {
            return;
        };
        if base <= 0.0 {
            return;
        }
        let pct = pct_change(base, cur);
        if pct > TIMING_WARN_PCT {
            d.lines.push(format!(
                "warn: {name} slowed {base:.6}s -> {cur:.6}s ({pct:+.1}%) [advisory]"
            ));
            d.timing_warnings += 1;
        }
    };
    advise(
        "wall_s",
        baseline["wall_s"].as_f64(),
        current["wall_s"].as_f64(),
        &mut d,
    );
    if let (Some(base_k), Some(cur_k)) = (
        baseline["kernels"].as_object(),
        current["kernels"].as_object(),
    ) {
        for (label, base_stats) in base_k {
            let Some(cur_stats) = cur_k.iter().find(|(k, _)| k == label).map(|(_, v)| v) else {
                continue;
            };
            for field in ["total_s", "p99_s"] {
                advise(
                    &format!("kernel {label}.{field}"),
                    base_stats[field].as_f64(),
                    cur_stats[field].as_f64(),
                    &mut d,
                );
            }
        }
    }
    d
}

/// One span's share of the blame for a drift between two snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribution {
    /// The span label (a `kernels` / `profile.spans` key).
    pub label: String,
    /// Worst positive signal for this span, in percent (relative growth
    /// for kernel count / wall time / alloc bytes; percentage-point
    /// change for the profile self-time share). Infinite when a counter
    /// went from zero to non-zero.
    pub score: f64,
    /// Human-readable evidence, one line per contributing signal.
    pub reasons: Vec<String>,
}

/// Ranks spans by how much they drifted between `baseline` and
/// `current` — the root-cause half of a firing gate. Four per-span
/// signals are mined, all advisory inputs (the deterministic gates stay
/// the authority on *whether* something regressed; this answers
/// *where*):
///
/// * `kernels.<span>.count` — call-count growth (relative %),
/// * `kernels.<span>.total_s` — wall-time growth (relative %),
/// * `kernels.<span>.alloc_bytes` — allocation growth (relative %),
/// * `profile.spans.<span>.self_share` — self-time share change
///   (percentage points × 1, so "+12.0" means twelve points hotter).
///
/// A span's score is its worst positive signal; spans with no positive
/// signal are dropped. Sorted worst-first, ties broken by label so the
/// ranking is deterministic. Callers typically print the top three.
pub fn attribute(baseline: &Json, current: &Json) -> Vec<Attribution> {
    let mut labels: Vec<String> = Vec::new();
    let mut collect = |section: &Json| {
        if let Some(obj) = section.as_object() {
            for (k, _) in obj {
                if !labels.iter().any(|l| l == k) {
                    labels.push(k.clone());
                }
            }
        }
    };
    collect(&baseline["kernels"]);
    collect(&current["kernels"]);
    collect(&baseline["profile"]["spans"]);
    collect(&current["profile"]["spans"]);

    let mut out: Vec<Attribution> = Vec::new();
    for label in labels {
        let mut score = f64::NEG_INFINITY;
        let mut reasons = Vec::new();
        let kernel_signals = [
            ("count", "calls"),
            ("total_s", "wall time"),
            ("alloc_bytes", "alloc bytes"),
        ];
        for (field, what) in kernel_signals {
            let base = baseline["kernels"][label.as_str()][field].as_f64();
            let cur = current["kernels"][label.as_str()][field].as_f64();
            let (Some(base), Some(cur)) = (base, cur) else {
                continue;
            };
            if cur <= base {
                continue;
            }
            let pct = pct_change(base, cur);
            if pct > score {
                score = pct;
            }
            reasons.push(format!("{what} {base} -> {cur} ({pct:+.1}%)"));
        }
        let base_share = baseline["profile"]["spans"][label.as_str()]["self_share"].as_f64();
        let cur_share = current["profile"]["spans"][label.as_str()]["self_share"].as_f64();
        // A span absent from one side's profile simply wasn't sampled
        // there; treat the missing share as zero so a newly hot span
        // still surfaces.
        let base_share = base_share.unwrap_or(0.0);
        let cur_share = cur_share.unwrap_or(0.0);
        let dpp = (cur_share - base_share) * 100.0;
        if dpp > 0.0 {
            if dpp > score {
                score = dpp;
            }
            reasons.push(format!(
                "self-time share {:.1}% -> {:.1}% ({dpp:+.1}pp)",
                base_share * 100.0,
                cur_share * 100.0
            ));
        }
        if score > 0.0 {
            out.push(Attribution {
                label,
                score,
                reasons,
            });
        }
    }
    out.sort_by(|a, b| {
        b.score
            .total_cmp(&a.score)
            .then_with(|| a.label.cmp(&b.label))
    });
    out
}

/// Renders the top-`n` suspects for the terminal; empty string when
/// nothing drifted upward (callers print their own all-clear).
pub fn render_attribution(suspects: &[Attribution], n: usize) -> String {
    let mut out = String::new();
    for (i, a) in suspects.iter().take(n).enumerate() {
        let score = if a.score.is_infinite() {
            "new".to_string()
        } else {
            format!("{:+.1}%", a.score)
        };
        out.push_str(&format!("  {}. {} ({score}): ", i + 1, a.label));
        out.push_str(&a.reasons.join("; "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cells: i64, wall: f64) -> Json {
        json_obj! {
            "schema" => SCHEMA_VERSION,
            "experiment" => "cells",
            "title" => "t",
            "git_rev" => "deadbee",
            "spans_enabled" => false,
            "env" => env_fingerprint(1),
            "wall_s" => wall,
            "work" => json_obj! {
                "cells" => cells,
                "window_cells" => cells,
                "prune" => json_obj! { "kim" => 3 },
                "fastdtw_levels" => Json::array()
                    .with_pushed(json_obj! { "window_cells" => cells / 2 }),
            },
            "funnel" => json_obj! {
                "candidates" => 100,
                "total_cost_units" => cells,
                "stages" => json_obj! {
                    "lb_kim" => json_obj! {
                        "entered" => 100, "pruned" => 60,
                        "survived" => 40, "cost_units" => 100,
                        "tightness" => json_obj! {
                            "count" => 10, "mean" => 0.7, "p50" => 0.7,
                            "p90" => 0.8, "p99" => 0.9, "max" => 0.95,
                        },
                    },
                    "dtw" => json_obj! {
                        "entered" => 40, "pruned" => 0,
                        "survived" => 40, "cost_units" => cells,
                    },
                },
            },
            "tiers" => json_obj! {
                "wavefront" => json_obj! {
                    "mismatch" => 0,
                    "cells_per_s" => 1.0e9,
                    "speedup_vs_segmented" => 1.4,
                },
                "batched" => json_obj! {
                    "mismatch" => 0,
                    "cells_per_s" => 2.5e9,
                    "speedup_vs_segmented" => 3.1,
                },
            },
            "profile" => json_obj! {
                "sampler_hz" => 997.0,
                "duration_s" => wall,
                "ticks" => 1000,
                "samples" => 800,
                "spans" => json_obj! {
                    "cdtw" => json_obj! {
                        "self_samples" => 600, "total_samples" => 700,
                        "self_share" => 0.75,
                    },
                    "lb_keogh" => json_obj! {
                        "self_samples" => 200, "total_samples" => 200,
                        "self_share" => 0.25,
                    },
                },
            },
            "kernels" => json_obj! {
                "cdtw" => json_obj! {
                    "count" => 10, "total_s" => wall / 2.0,
                    "p50_s" => 0.001, "p99_s" => 0.002, "max_s" => 0.003,
                    "alloc_bytes" => 0u64,
                },
                "lb_keogh" => json_obj! {
                    "count" => 40, "total_s" => wall / 8.0,
                    "p50_s" => 0.0005, "p99_s" => 0.001, "max_s" => 0.002,
                    "alloc_bytes" => 0u64,
                },
            },
            "memory" => json_obj! {
                "telemetry" => true,
                "allocs" => 12,
                "frees" => 12,
                "reallocs" => 0,
                "bytes_allocated" => 4096u64,
                "bytes_freed" => 4096u64,
                "peak_bytes" => 2048u64,
            },
        }
    }

    // Small test helper: Json::with for arrays.
    trait WithPushed {
        fn with_pushed(self, v: Json) -> Json;
    }
    impl WithPushed for Json {
        fn with_pushed(mut self, v: Json) -> Json {
            self.push(v);
            self
        }
    }

    #[test]
    fn identical_snapshots_diff_clean() {
        let a = snap(1000, 1.0);
        let d = diff(&a, &a, 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.lines);
        assert_eq!(d.improvements, 0);
        assert!(d.compared >= 4, "counts nested + array counters");
        assert_eq!(d.timing_warnings, 0);
    }

    #[test]
    fn counter_growth_beyond_tolerance_is_a_regression() {
        let base = snap(1000, 1.0);
        let cur = snap(1100, 1.0); // +10 %
        let d = diff(&base, &cur, 5.0);
        assert!(!d.regressions.is_empty());
        assert!(
            d.regressions.iter().any(|r| r.contains("work.cells")),
            "{:?}",
            d.regressions
        );
        // Within tolerance: same delta, looser gate.
        let d = diff(&base, &cur, 15.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert!(d.render().contains("within tolerance"), "{}", d.render());
    }

    #[test]
    fn counter_shrink_is_an_improvement_not_a_failure() {
        let d = diff(&snap(1000, 1.0), &snap(900, 1.0), 0.0);
        assert!(d.regressions.is_empty());
        assert!(d.improvements >= 1);
    }

    #[test]
    fn timing_slowdown_is_advisory_only() {
        let d = diff(&snap(1000, 1.0), &snap(1000, 10.0), 0.0);
        assert!(d.regressions.is_empty(), "timing never hard-fails");
        assert!(d.timing_warnings >= 1);
        assert!(d.render().contains("advisory"), "{}", d.render());
    }

    #[test]
    fn schema_mismatch_refuses_to_compare() {
        let mut bad = snap(1, 1.0);
        bad.set("schema", 999);
        let d = diff(&bad, &snap(1, 1.0), 0.0);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("schema"));
        // Both sides' versions are named, so the failure is actionable.
        assert!(d.regressions[0].contains("v999"), "{}", d.regressions[0]);
        assert!(
            d.regressions[0].contains(&format!("v{SCHEMA_VERSION}")),
            "{}",
            d.regressions[0]
        );
        assert!(
            d.render().contains("newer than this tool"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn pre_v2_and_untagged_snapshots_fail_with_versions_named() {
        // An old baseline (v2, before the hash field): the message says
        // which side is stale and points at regeneration.
        let mut old = snap(1, 1.0);
        old.set("schema", 2);
        let d = diff(&old, &snap(1, 1.0), 0.0);
        assert_eq!(d.regressions.len(), 1);
        assert!(d.regressions[0].contains("v2"), "{}", d.regressions[0]);
        assert!(
            d.render().contains("older than this tool"),
            "{}",
            d.render()
        );
        assert!(d.render().contains("regenerate"), "{}", d.render());
        // Not a snapshot at all: no parse error, a clear message.
        let not_snap = json_obj! { "unrelated" => true };
        let d = diff(&not_snap, &snap(1, 1.0), 0.0);
        assert_eq!(d.regressions.len(), 1);
        assert!(
            d.regressions[0].contains("no schema tag"),
            "{}",
            d.regressions[0]
        );
    }

    #[test]
    fn content_hash_is_stable_and_ignores_itself() {
        let a = snap(1000, 1.0);
        let h1 = content_hash(&a);
        assert_eq!(h1.len(), 16);
        assert_eq!(h1, content_hash(&a), "pure function of content");
        // Stamping the hash into the document doesn't change the hash.
        let mut stamped = a.clone();
        stamped.set("hash", h1.clone());
        assert_eq!(content_hash(&stamped), h1);
        // Any content change changes it.
        assert_ne!(content_hash(&snap(1001, 1.0)), h1);
    }

    #[test]
    fn zero_to_nonzero_counter_is_infinite_regression() {
        let mut base = snap(1000, 1.0);
        base.set("work", json_obj! { "cells" => 0 });
        let mut cur = snap(1000, 1.0);
        cur.set("work", json_obj! { "cells" => 5 });
        let d = diff(&base, &cur, 1e9);
        assert_eq!(d.regressions.len(), 1, "inf% exceeds any tolerance");
    }

    #[test]
    fn funnel_disposition_drift_is_a_hard_regression() {
        // More DTW entrants than the baseline means the lower-bound
        // cascade got leakier — that's a pruning regression even when
        // total cell counts stay flat, and it must fail the diff.
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let leaky_dtw = base["funnel"]["stages"]["dtw"].clone().with("entered", 50);
        let stages = base["funnel"]["stages"].clone().with("dtw", leaky_dtw);
        cur.set("funnel", base["funnel"].clone().with("stages", stages));
        let d = diff(&base, &cur, 0.0);
        assert!(
            d.regressions
                .iter()
                .any(|r| r.contains("funnel.stages.dtw.entered")),
            "{:?}",
            d.regressions
        );
        // Tightness quantiles are floats: drift there is not gated.
        let mut cur = snap(1000, 1.0);
        let loose = base["funnel"]["stages"]["lb_kim"]["tightness"]
            .clone()
            .with("p99", 0.1);
        let kim = base["funnel"]["stages"]["lb_kim"]
            .clone()
            .with("tightness", loose);
        let stages = base["funnel"]["stages"].clone().with("lb_kim", kim);
        cur.set("funnel", base["funnel"].clone().with("stages", stages));
        let d = diff(&base, &cur, 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
    }

    #[test]
    fn tier_mismatch_is_a_hard_regression_throughput_is_advisory() {
        // A tier whose distances stop matching the reference DP fails at
        // any tolerance (0 -> 1 is an infinite-percent growth); throughput
        // floats never gate.
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let broken = base["tiers"]["batched"].clone().with("mismatch", 2);
        cur.set("tiers", base["tiers"].clone().with("batched", broken));
        let d = diff(&base, &cur, 1e9);
        assert!(
            d.regressions
                .iter()
                .any(|r| r.contains("tiers.batched.mismatch")),
            "{:?}",
            d.regressions
        );
        let mut cur = snap(1000, 1.0);
        let slower = base["tiers"]["batched"]
            .clone()
            .with("cells_per_s", 1.0)
            .with("speedup_vs_segmented", 0.01);
        cur.set("tiers", base["tiers"].clone().with("batched", slower));
        let d = diff(&base, &cur, 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
    }

    #[test]
    fn memory_count_growth_is_a_hard_regression() {
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let mut mem = base["memory"].clone();
        mem.set("allocs", 99);
        cur.set("memory", mem);
        let d = diff(&base, &cur, 0.0);
        assert!(
            d.regressions.iter().any(|r| r.contains("memory.allocs")),
            "{:?}",
            d.regressions
        );
    }

    #[test]
    fn memory_byte_growth_is_advisory_only() {
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let mut mem = base["memory"].clone();
        mem.set("peak_bytes", 999_999u64);
        mem.set("bytes_allocated", 999_999u64);
        cur.set("memory", mem);
        let d = diff(&base, &cur, 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert!(d.timing_warnings >= 2, "{}", d.render());
        assert!(d.render().contains("[advisory]"), "{}", d.render());
    }

    #[test]
    fn disarming_telemetry_against_an_armed_baseline_regresses() {
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        cur.set(
            "memory",
            tsdtw_obs::AllocDelta::default()
                .report()
                .with("telemetry", false),
        );
        let d = diff(&base, &cur, 1e9);
        assert!(
            d.regressions
                .iter()
                .any(|r| r.contains("telemetry disarmed")),
            "{:?}",
            d.regressions
        );
    }

    #[test]
    fn dropped_section_is_a_regression_added_section_is_a_note() {
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        if let Json::Obj(fields) = &mut cur {
            fields.retain(|(k, _)| k != "memory");
        }
        cur.set("extra", json_obj! { "x" => 1 });
        let d = diff(&base, &cur, 1e9);
        assert!(
            d.regressions
                .iter()
                .any(|r| r.contains("section memory present in baseline")),
            "{:?}",
            d.regressions
        );
        assert!(d.render().contains("new section extra"), "{}", d.render());
    }

    #[test]
    fn profile_drift_is_advisory_only() {
        // Twice the samples, a hotter cdtw share — none of it may fail
        // a zero-tolerance diff: sampling counts are load-dependent.
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let hot = base["profile"]["spans"]["cdtw"]
            .clone()
            .with("self_samples", 1800)
            .with("total_samples", 1900)
            .with("self_share", 0.9);
        let spans = base["profile"]["spans"].clone().with("cdtw", hot);
        cur.set(
            "profile",
            base["profile"]
                .clone()
                .with("ticks", 2000)
                .with("samples", 2000)
                .with("spans", spans),
        );
        let d = diff(&base, &cur, 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert!(
            d.render().contains("profile.") && d.render().contains("[advisory]"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn attribution_ranks_an_injected_slowdown_first() {
        // The differential test from the issue: inject a synthetic
        // slowdown into exactly one kernel span (lb_keogh triples its
        // wall time and takes over the self-time share) and the
        // attribution must name it first — ahead of cdtw, whose share
        // shrinks correspondingly.
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let slowed = base["kernels"]["lb_keogh"].clone().with("total_s", 0.375);
        cur.set("kernels", base["kernels"].clone().with("lb_keogh", slowed));
        let hot = base["profile"]["spans"]["lb_keogh"]
            .clone()
            .with("self_samples", 1400)
            .with("self_share", 0.7);
        let cooled = base["profile"]["spans"]["cdtw"]
            .clone()
            .with("self_share", 0.3);
        cur.set(
            "profile",
            base["profile"]
                .clone()
                .with("spans", json_obj! { "cdtw" => cooled, "lb_keogh" => hot }),
        );
        let suspects = attribute(&base, &cur);
        assert!(!suspects.is_empty());
        assert_eq!(suspects[0].label, "lb_keogh", "{suspects:?}");
        // Both signals are cited as evidence.
        let evidence = suspects[0].reasons.join("; ");
        assert!(evidence.contains("wall time"), "{evidence}");
        assert!(evidence.contains("self-time share"), "{evidence}");
        // cdtw got *cheaper*: it must not appear as a suspect.
        assert!(!suspects.iter().any(|a| a.label == "cdtw"), "{suspects:?}");
        let rendered = render_attribution(&suspects, 3);
        assert!(rendered.contains("1. lb_keogh"), "{rendered}");
    }

    #[test]
    fn attribution_surfaces_a_span_new_in_current() {
        // A span with no baseline kernel entry (count 0 -> n is an
        // infinite-percent growth) still ranks, rendered as "new".
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let fresh = json_obj! {
            "count" => 5, "total_s" => 0.9, "p50_s" => 0.1,
            "p99_s" => 0.2, "max_s" => 0.3, "alloc_bytes" => 0u64,
        };
        cur.set("kernels", base["kernels"].clone().with("dtw_full", fresh));
        let suspects = attribute(&base, &cur);
        // Absent from the baseline's kernels object entirely: no
        // base/cur pair to compare, but the profile-share path still
        // sees share 0 -> 0, so it only ranks if some signal moved.
        // Give it a profile share to make the expectation concrete.
        let mut cur2 = cur.clone();
        let spans = base["profile"]["spans"].clone().with(
            "dtw_full",
            json_obj! { "self_samples" => 100, "total_samples" => 100, "self_share" => 0.1 },
        );
        cur2.set("profile", base["profile"].clone().with("spans", spans));
        let suspects2 = attribute(&base, &cur2);
        assert!(
            suspects2.iter().any(|a| a.label == "dtw_full"),
            "{suspects2:?}"
        );
        drop(suspects);
    }

    #[test]
    fn capture_produces_the_documented_schema() {
        let spans = vec![tsdtw_obs::SpanStat {
            label: "cdtw",
            count: 3,
            total_s: 0.5,
            p50_s: 0.1,
            p99_s: 0.2,
            max_s: 0.25,
            alloc_bytes: 64,
        }];
        let work = json_obj! { "cells" => 7 };
        let funnel = json_obj! {
            "candidates" => 9,
            "total_cost_units" => 90,
            "stages" => json_obj! {
                "lb_kim" => json_obj! {
                    "entered" => 9, "pruned" => 4, "survived" => 5,
                    "cost_units" => 9,
                },
            },
        };
        let tiers = json_obj! {
            "wavefront" => json_obj! { "mismatch" => 0, "cells_per_s" => 5.0e8 },
        };
        let profile = json_obj! {
            "sampler_hz" => 997.0, "duration_s" => 1.4, "ticks" => 1400,
            "samples" => 900,
            "spans" => json_obj! {
                "cdtw" => json_obj! {
                    "self_samples" => 900, "total_samples" => 900,
                    "self_share" => 1.0,
                },
            },
        };
        let s = capture(
            "cells",
            "title",
            1.5,
            Some(&work),
            Some(&funnel),
            Some(&tiers),
            None,
            Some(&profile),
            &spans,
            4,
        );
        assert_eq!(s["schema"], SCHEMA_VERSION);
        // v3: the stamped hash matches a recomputation over the content.
        let stamped = s["hash"].as_str().expect("hash field").to_string();
        assert_eq!(stamped, content_hash(&s));
        assert_eq!(s["experiment"], "cells");
        assert_eq!(s["work"]["cells"], 7);
        // v4: the funnel section rides along verbatim…
        assert_eq!(s["funnel"]["candidates"], 9);
        assert_eq!(s["funnel"]["stages"]["lb_kim"]["pruned"], 4);
        // v6: so does the tiers section…
        assert_eq!(s["tiers"]["wavefront"]["mismatch"], 0);
        // v7: and the profile section.
        assert_eq!(s["profile"]["samples"], 900);
        assert_eq!(s["profile"]["spans"]["cdtw"]["self_samples"], 900);
        // …and a cascade-free, tier-free, unprofiled
        // experiment carries explicit nulls.
        let bare = capture(
            "cells",
            "title",
            1.5,
            Some(&work),
            None,
            None,
            None,
            None,
            &spans,
            4,
        );
        assert!(bare["funnel"].is_null());
        assert!(bare["tiers"].is_null());
        assert!(bare["profile"].is_null());
        assert_eq!(s["kernels"]["cdtw"]["count"], 3u64);
        assert_eq!(s["kernels"]["cdtw"]["alloc_bytes"], 64u64);
        // No memory report passed: the stub section marks telemetry off.
        assert_eq!(s["memory"]["telemetry"], false);
        assert_eq!(s["memory"]["allocs"], 0);
        assert!(s["env"]["threads"].as_u64().unwrap() >= 1);
        assert_eq!(s["env"]["n_threads"], 4);
        assert!(!s["git_rev"].as_str().unwrap().is_empty());
        // And it round-trips through the parser the diff tool uses.
        let back = Json::parse(&s.to_string_pretty()).unwrap();
        assert_eq!(back["experiment"], "cells");
    }

    #[test]
    fn write_is_atomic_and_named_canonically() {
        let dir = std::env::temp_dir().join("tsdtw-snapshot-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = write(&dir, "cells", &snap(1, 1.0)).unwrap();
        assert!(path.ends_with("BENCH_cells.json"));
        assert!(!dir.join(".BENCH_cells.json.tmp").exists());
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed["experiment"], "cells");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
