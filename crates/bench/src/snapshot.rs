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
//!   "profile": { "duration_s": …, "spans": { "cdtw": { "self_s": …,
//!                "total_s": …, "self_share": … }, … } },
//!   "kernels": { "cdtw": { "count": …, "total_s": …, "p50_s": …,
//!                          "p99_s": …, "max_s": …, "alloc_bytes": … }, … }
//! }
//! ```
//!
//! The keys from `work` to `profile` are the rows of [`SECTIONS`]:
//! [`capture`] emits them in table order, [`diff`] gates each one's
//! integer leaves by the row's [`Gate`], `report show` renders each with
//! the row's renderer, and the trend detector's counter gate is [`diff`]
//! itself. Deterministic leaves — DP cells, prune dispositions, tier
//! mismatches, allocation counts — are pure functions of the experiment
//! configuration, so their growth beyond the tolerance **hard-fails**.
//! `wall_s`, `kernels`, `profile` and memory byte totals vary with
//! hardware, load and allocator, so changes there are **advisory**: the
//! diff warns but never fails on them. This split is what lets CI run
//! the gate on shared runners without flakes while still catching every
//! algorithmic regression.
//!
//! No gate passes on missing data: a hard leaf present in the baseline
//! but missing from the current snapshot is a regression, and so is a
//! non-null top-level key the current snapshot lacks. A key that is
//! `null` in the baseline and absent from the current snapshot (a
//! section since removed) and a key only the current snapshot carries
//! (a section since added) are notes, so adding a section is one row in
//! [`SECTIONS`] — no schema bump, no baseline regeneration. A baseline
//! recorded with telemetry armed also pins `memory.telemetry`: comparing
//! it against a disarmed current run is a regression (its all-zero
//! counters would otherwise pass vacuously).

use crate::write_atomic;
use std::io;
use std::path::{Path, PathBuf};
use tsdtw_obs::{json_obj, Json, SpanStat};

/// Version tag every snapshot carries; [`diff`] refuses to compare
/// across versions. Version 2 added the `memory` section and the
/// per-kernel `alloc_bytes` column; version 3 the `hash` field (content
/// fingerprint, see [`content_hash`]) that the history ledger keys
/// records by; versions 4 to 7 the `funnel`, `rle` (since removed),
/// `tiers` and `profile` sections. Sections are rows of [`SECTIONS`]
/// and need no version of their own.
pub const SCHEMA_VERSION: i64 = 7;

/// Relative timing slowdown (percent) beyond which the diff emits an
/// advisory warning. Deliberately loose: shared CI runners jitter.
pub const TIMING_WARN_PCT: f64 = 25.0;

/// How [`diff`] gates a section's integer leaves. Float leaves (ratios,
/// throughput, quantiles) are never gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Every integer leaf gates hard.
    Hard,
    /// Integer leaves gate hard, except those whose path contains
    /// `bytes`: byte totals move with allocator and libstd versions.
    HardExceptBytes,
    /// Every leaf only warns.
    Advisory,
}

impl Gate {
    /// Whether a change to the leaf at `path` only warns.
    fn is_advisory(self, path: &str) -> bool {
        match self {
            Gate::Hard => false,
            Gate::HardExceptBytes => path.contains("bytes"),
            Gate::Advisory => true,
        }
    }
}

/// One top-level snapshot section.
#[derive(Debug)]
pub struct Section {
    /// The section's top-level key.
    pub name: &'static str,
    /// How [`diff`] gates its integer leaves.
    pub gate: Gate,
    /// `report show`'s rendering of the section when it is non-null.
    pub show: fn(&Json) -> String,
    /// Why the section can be null or absent; `report show` prints it.
    pub absent: &'static str,
}

/// Every section the counter walk covers, in snapshot key order.
pub static SECTIONS: &[Section] = &[
    // DP cells, window cells, prune tallies, FastDTW levels.
    Section {
        name: "work",
        gate: Gate::Hard,
        show: show_work,
        absent: "experiment attached no work meter",
    },
    // Per-stage prune dispositions and cost units; the tightness
    // quantiles are floats.
    Section {
        name: "funnel",
        gate: Gate::Hard,
        show: show_funnel,
        absent: "experiment ran no lower-bound cascade",
    },
    // Per-tier `mismatch` counts cases whose distance diverged bitwise
    // from the experiment's reference DP, so it must stay 0; cells/s and
    // speedups are floats.
    Section {
        name: "tiers",
        gate: Gate::Hard,
        show: show_tiers,
        absent: "experiment raced no kernel tiers",
    },
    // Allocation counts under `--features alloc-telemetry`.
    Section {
        name: "memory",
        gate: Gate::HardExceptBytes,
        show: show_memory,
        absent: "run carried no heap probe",
    },
    // Exact span self times, but wall-clock: they move with machine
    // load.
    Section {
        name: "profile",
        gate: Gate::Advisory,
        show: show_profile,
        absent: "run was not profiled; pass --profile to repro",
    },
];

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

/// Builds one snapshot document from an experiment's outcome: each
/// [`SECTIONS`] row taken from `sections` (`null` where it has none —
/// `repro` passes the experiment's JSON record with the run's `memory`
/// and `profile` attached), and the span table drained after the run
/// (empty unless `spans_armed`, which the `spans_enabled` key records:
/// `repro` arms spans only for `--trace` and `--profile`).
pub fn capture(
    experiment: &str,
    title: &str,
    wall_s: f64,
    sections: &Json,
    spans: &[SpanStat],
    spans_armed: bool,
    n_threads: usize,
) -> Json {
    let mut doc = json_obj! {
        "schema" => SCHEMA_VERSION,
        "hash" => "",
        "experiment" => experiment,
        "title" => title,
        "git_rev" => git_rev(),
        "spans_enabled" => spans_armed,
        "env" => env_fingerprint(n_threads),
        "wall_s" => wall_s,
    };
    for s in SECTIONS {
        doc.set(s.name, &sections[s.name]);
    }
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
    doc.set("kernels", kernels);
    let hash = content_hash(&doc);
    doc.set("hash", hash);
    doc
}

/// Writes a snapshot to `<dir>/BENCH_<experiment>.json` atomically
/// (see [`write_atomic`]), creating `dir` first.
pub fn write(dir: &Path, experiment: &str, snapshot: &Json) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{experiment}.json"));
    write_atomic(&path, &snapshot.to_string_pretty())?;
    Ok(path)
}

/// The outcome of comparing two snapshots.
#[derive(Debug, Clone, Default)]
pub struct Diff {
    /// Human-readable comparison, one line per compared quantity.
    pub lines: Vec<String>,
    /// Hard-gate failures — each one a reason to fail.
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
/// `(dotted.path, count)`, descending arrays by index. Only [`diff`]
/// walks snapshots with it; the trend detector's counter gate calls
/// [`diff`], so the two gates cannot disagree on what a counter is.
fn counter_leaves(value: &Json, prefix: &str, out: &mut Vec<(String, i64)>) {
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

/// Walks one section's integer-counter leaves: growth beyond `fail_pct`
/// and a leaf missing from `current` fail, except on leaves the
/// section's [`Gate`] calls advisory, which only warn.
fn gate_counters(section: &Section, baseline: &Json, current: &Json, fail_pct: f64, d: &mut Diff) {
    let mut base_counters = Vec::new();
    let mut cur_counters = Vec::new();
    counter_leaves(&baseline[section.name], section.name, &mut base_counters);
    counter_leaves(&current[section.name], section.name, &mut cur_counters);
    let cur_map: std::collections::HashMap<&str, i64> =
        cur_counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_keys: std::collections::HashSet<&str> =
        base_counters.iter().map(|(k, _)| k.as_str()).collect();

    for (path, base) in &base_counters {
        let advisory = section.gate.is_advisory(path);
        let Some(&cur) = cur_map.get(path.as_str()) else {
            let msg = format!("counter {path} missing from current snapshot");
            if advisory {
                d.lines.push(format!("warn: {msg}"));
                d.timing_warnings += 1;
            } else {
                d.lines.push(format!("warn: {msg} REGRESSION"));
                d.regressions.push(msg);
            }
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
                } else if advisory {
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

/// Compares two snapshots. Hard-gated counter growth beyond `fail_pct`
/// percent and missing data land in [`Diff::regressions`]; timing
/// deltas are advisory lines only (see the module docs for why).
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

    // --- top-level keys: a non-null baseline key the current snapshot
    // lacks fails; a null one (a removed section) and a new key are notes
    if let (Some(base_obj), Some(cur_obj)) = (baseline.as_object(), current.as_object()) {
        for (k, v) in base_obj {
            if current.get(k).is_some() {
                continue;
            }
            if v.is_null() {
                d.lines.push(format!(
                    "note: section {k} null in baseline, absent from current"
                ));
            } else {
                let msg = format!("section {k} present in baseline but missing from current");
                d.lines.push(format!("warn: {msg} REGRESSION"));
                d.regressions.push(msg);
            }
        }
        for (k, _) in cur_obj {
            if baseline.get(k).is_none() {
                d.lines
                    .push(format!("note: new section {k} (not in baseline)"));
            }
        }
    }

    // An armed baseline pins the telemetry flag (see the module docs).
    if baseline["memory"]["telemetry"].as_bool() == Some(true)
        && current["memory"]["telemetry"].as_bool() == Some(false)
    {
        let msg = "memory telemetry disarmed: baseline was recorded with alloc-telemetry, \
                   current was not (its zero counters would pass the gate vacuously)"
            .to_string();
        d.lines.push(format!("warn: {msg}"));
        d.regressions.push(msg);
    }
    for section in SECTIONS {
        gate_counters(section, baseline, current, fail_pct, &mut d);
    }

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
    // The profile's leaves are all floats, so the counter walk skips
    // them; its self times ride here with the kernels'.
    if let Some(base_p) = baseline["profile"]["spans"].as_object() {
        for (label, base_span) in base_p {
            let cur_span = &current["profile"]["spans"][label.as_str()];
            if cur_span.is_null() {
                d.lines.push(format!(
                    "warn: profile.spans.{label} missing from current snapshot [advisory]"
                ));
                d.timing_warnings += 1;
                continue;
            }
            advise(
                &format!("profile.spans.{label}.self_s"),
                base_span["self_s"].as_f64(),
                cur_span["self_s"].as_f64(),
                &mut d,
            );
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
///   (percentage points × 1, so "+12.0" means twelve points hotter),
///   mined only when both snapshots carry a `profile` object.
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
    let both_profiled =
        baseline["profile"].as_object().is_some() && current["profile"].as_object().is_some();

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
        // Shares compare only between two profiles: against a side that
        // was not profiled, every span would read as newly hot. Between
        // two profiles, a span absent from one never ran there, so its
        // share there is zero and a newly hot span still surfaces.
        let share = |snap: &Json| {
            snap["profile"]["spans"][label.as_str()]["self_share"]
                .as_f64()
                .unwrap_or(0.0)
        };
        let (base_share, cur_share) = (share(baseline), share(current));
        let dpp = (cur_share - base_share) * 100.0;
        if both_profiled && dpp > 0.0 {
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

/// Flattens a JSON subtree to `(dotted.path, rendered value)` rows for
/// the aligned tables `report show` prints.
fn flatten_rows(value: &Json, prefix: &str, out: &mut Vec<(String, String)>) {
    match value {
        Json::Obj(entries) => {
            for (k, v) in entries {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten_rows(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten_rows(v, &format!("{prefix}[{i}]"), out);
            }
        }
        Json::Null => out.push((prefix.to_string(), "-".into())),
        leaf => out.push((prefix.to_string(), leaf.to_string_compact())),
    }
}

/// Renders rows as an aligned two-column table with a right-aligned
/// value column.
fn aligned(rows: &[(String, String)]) -> String {
    let key_w = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let val_w = rows.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (k, v) in rows {
        out.push_str(&format!("  {k:<key_w$}  {v:>val_w$}\n"));
    }
    out
}

fn show_work(work: &Json) -> String {
    let mut rows = Vec::new();
    flatten_rows(work, "", &mut rows);
    format!("\n-- work counters (deterministic) --\n{}", aligned(&rows))
}

fn show_funnel(funnel: &Json) -> String {
    let mut out = format!(
        "\n-- funnel (per-stage prune dispositions, deterministic) --\n  \
         {} candidate(s), {} cost unit(s)\n",
        funnel["candidates"].as_i64().unwrap_or(0),
        funnel["total_cost_units"].as_i64().unwrap_or(0),
    );
    if let Some(stages) = funnel["stages"].as_object() {
        out.push_str(&format!(
            "  {:<14} {:>10} {:>10} {:>10} {:>14} {:>12}\n",
            "stage", "entered", "pruned", "survived", "cost_units", "lb/dtw p50"
        ));
        for (name, s) in stages {
            let p50 = s["tightness"]["p50"]
                .as_f64()
                .map(|v| format!("{v:.3}"))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "  {:<14} {:>10} {:>10} {:>10} {:>14} {:>12}\n",
                name,
                s["entered"].as_i64().unwrap_or(0),
                s["pruned"].as_i64().unwrap_or(0),
                s["survived"].as_i64().unwrap_or(0),
                s["cost_units"].as_i64().unwrap_or(0),
                p50,
            ));
        }
    }
    out
}

fn show_tiers(tiers: &Json) -> String {
    let mut out = format!(
        "\n-- kernel tiers (mismatch is deterministic; throughput varies with hardware) --\n  \
         {:<12} {:>10} {:>14} {:>14}\n",
        "tier", "mismatch", "cells/s", "vs segmented"
    );
    for (name, t) in tiers.as_object().into_iter().flatten() {
        let speedup = t["speedup_vs_segmented"]
            .as_f64()
            .map(|v| format!("{v:.2}x"))
            .unwrap_or_else(|| "-".into());
        let cps = t["cells_per_s"]
            .as_f64()
            .map(|v| format!("{:.1} Mc/s", v / 1e6))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "  {:<12} {:>10} {:>14} {:>14}\n",
            name,
            t["mismatch"].as_i64().unwrap_or(-1),
            cps,
            speedup,
        ));
    }
    out
}

fn show_memory(memory: &Json) -> String {
    let mut rows = Vec::new();
    flatten_rows(memory, "", &mut rows);
    rows.retain(|(k, _)| k != "telemetry");
    format!(
        "\n-- memory ({}) --\n{}",
        if memory["telemetry"].as_bool() == Some(true) {
            "telemetry armed"
        } else {
            "telemetry disarmed; counters read zero"
        },
        aligned(&rows)
    )
}

fn show_profile(profile: &Json) -> String {
    let mut out = format!(
        "\n-- profile (span self times are advisory; never gated) --\n  \
         {:.3}s run\n",
        profile["duration_s"].as_f64().unwrap_or(0.0),
    );
    match profile["spans"].as_object() {
        Some(spans) if spans.is_empty() => out.push_str("  no span closed\n"),
        Some(spans) => {
            out.push_str(&format!(
                "  {:<20} {:>12} {:>12} {:>8}\n",
                "span", "self", "total", "self%"
            ));
            for (label, s) in spans {
                out.push_str(&format!(
                    "  {:<20} {:>11.6}s {:>11.6}s {:>7.1}%\n",
                    label,
                    s["self_s"].as_f64().unwrap_or(0.0),
                    s["total_s"].as_f64().unwrap_or(0.0),
                    s["self_share"].as_f64().unwrap_or(0.0) * 100.0,
                ));
            }
        }
        None => {}
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
                "duration_s" => wall,
                "spans" => json_obj! {
                    "cdtw" => json_obj! {
                        "self_s" => 0.6, "total_s" => 0.7,
                        "self_share" => 0.75,
                    },
                    "lb_keogh" => json_obj! {
                        "self_s" => 0.2, "total_s" => 0.2,
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

        // A hard leaf the current snapshot lacks fails however loose the
        // tolerance: a deleted `work.cells`, and every integer leaf of a
        // `funnel` that went null.
        let mut cur = snap(1000, 1.0);
        let work = base["work"].as_object().unwrap().clone();
        cur.set(
            "work",
            Json::Obj(work.into_iter().filter(|(k, _)| k != "cells").collect()),
        );
        let d = diff(&base, &cur, 1e9);
        assert_eq!(
            d.regressions,
            ["counter work.cells missing from current snapshot"],
            "{}",
            d.render()
        );
        let mut cur = snap(1000, 1.0);
        cur.set("funnel", Json::Null);
        let d = diff(&base, &cur, 1e9);
        assert_eq!(d.regressions.len(), 11, "{:?}", d.regressions);
        assert!(
            d.regressions
                .iter()
                .all(|r| r.starts_with("counter funnel.")),
            "{:?}",
            d.regressions
        );

        // Advisory leaves only warn when missing: memory byte totals and
        // the spans of a profile section that went null.
        let mut cur = snap(1000, 1.0);
        let memory = base["memory"].as_object().unwrap().clone();
        cur.set(
            "memory",
            Json::Obj(
                memory
                    .into_iter()
                    .filter(|(k, _)| k != "peak_bytes")
                    .collect(),
            ),
        );
        cur.set("profile", Json::Null);
        let d = diff(&base, &cur, 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert!(
            d.render()
                .contains("warn: counter memory.peak_bytes missing"),
            "{}",
            d.render()
        );
        assert!(
            d.render()
                .contains("warn: profile.spans.cdtw missing from current snapshot [advisory]"),
            "{}",
            d.render()
        );

        // A section that is null in the baseline and gone from the
        // current snapshot was removed, not dropped: a note. This is a
        // ledger record written before the `rle` section left.
        let mut old = snap(1000, 1.0);
        old.set("rle", Json::Null);
        let d = diff(&old, &snap(1000, 1.0), 0.0);
        assert!(d.regressions.is_empty(), "{:?}", d.regressions);
        assert!(
            d.render()
                .contains("note: section rle null in baseline, absent from current"),
            "{}",
            d.render()
        );
    }

    #[test]
    fn profile_drift_is_advisory_only() {
        // Twice the time, a hotter cdtw share — none of it may fail a
        // zero-tolerance diff: self times are wall-clock.
        let base = snap(1000, 1.0);
        let mut cur = snap(1000, 1.0);
        let hot = base["profile"]["spans"]["cdtw"]
            .clone()
            .with("self_s", 1.8)
            .with("total_s", 1.9)
            .with("self_share", 0.9);
        let spans = base["profile"]["spans"].clone().with("cdtw", hot);
        cur.set(
            "profile",
            base["profile"]
                .clone()
                .with("duration_s", 2.0)
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
            .with("self_s", 0.7)
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
            json_obj! { "self_s" => 0.1, "total_s" => 0.1, "self_share" => 0.1 },
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
    fn attribution_skips_the_share_against_an_unprofiled_baseline() {
        // CI's profile leg diffs a profiled run against a baseline whose
        // profile is null: no span may rank on self-time share, while
        // the kernels signals still do.
        let mut base = snap(1000, 1.0);
        base.set("profile", Json::Null);
        let mut cur = snap(1000, 1.0);
        let slowed = cur["kernels"]["lb_keogh"].clone().with("total_s", 0.375);
        cur.set("kernels", cur["kernels"].clone().with("lb_keogh", slowed));
        let suspects = attribute(&base, &cur);
        assert_eq!(
            suspects
                .iter()
                .map(|a| a.label.as_str())
                .collect::<Vec<_>>(),
            ["lb_keogh"],
            "{suspects:?}"
        );
        assert_eq!(suspects[0].reasons.len(), 1, "{suspects:?}");
        assert!(suspects[0].reasons[0].starts_with("wall time"));
        // The other way round, too: a profiled baseline against an
        // unprofiled run.
        let suspects = attribute(&snap(1000, 1.0), &base);
        assert!(suspects.is_empty(), "{suspects:?}");
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
            "duration_s" => 1.4,
            "spans" => json_obj! {
                "cdtw" => json_obj! {
                    "self_s" => 0.9, "total_s" => 0.9,
                    "self_share" => 1.0,
                },
            },
        };
        let sections = json_obj! {
            "work" => work.clone(),
            "funnel" => funnel,
            "tiers" => tiers,
            "memory" => tsdtw_obs::AllocDelta::default().report(),
            "profile" => profile,
            "unrelated" => 1,
        };
        let s = capture("cells", "title", 1.5, &sections, &spans, true, 4);
        // The committed baselines' key order: identity, then SECTIONS in
        // table order, then kernels. Keys outside the table stay out.
        let keys: Vec<&str> = s
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "schema",
                "hash",
                "experiment",
                "title",
                "git_rev",
                "spans_enabled",
                "env",
                "wall_s",
                "work",
                "funnel",
                "tiers",
                "memory",
                "profile",
                "kernels"
            ]
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
        assert_eq!(s["profile"]["duration_s"], 1.4);
        assert_eq!(s["profile"]["spans"]["cdtw"]["self_s"], 0.9);
        // …and sections the run did not produce are explicit nulls.
        let bare = capture(
            "cells",
            "title",
            1.5,
            &json_obj! { "work" => work },
            &[],
            false,
            4,
        );
        assert!(bare["funnel"].is_null());
        assert!(bare["tiers"].is_null());
        assert!(bare["memory"].is_null());
        assert!(bare["profile"].is_null());
        // The header records whether spans were armed for the run.
        assert_eq!(s["spans_enabled"], true);
        assert_eq!(bare["spans_enabled"], false);
        assert_eq!(bare["kernels"], Json::object());
        assert_eq!(s["kernels"]["cdtw"]["count"], 3u64);
        assert_eq!(s["kernels"]["cdtw"]["alloc_bytes"], 64u64);
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
