//! `repro` — regenerate every table and figure of Wu & Keogh (ICDE 2021).
//!
//! ```text
//! repro [EXPERIMENT ...] [--full] [--threads N] [--out DIR]
//!       [--list] [--trace] [--profile[=FILE]]
//!
//!   EXPERIMENT   one or more of: fig1 fig2 caseb fig3 fig4 fig6 table2
//!                footnote2 appendixb impls lbs radius cells kernels
//!                memory funnel, or 'all' (default)
//!   --full       paper-scale populations (minutes); default is --quick
//!   --threads N  worker threads for parallel experiments (default 1).
//!                Work counters in BENCH_<id>.json are deterministic and
//!                independent of N, so snapshots from any thread count
//!                diff cleanly against a serial baseline.
//!   --out DIR    where to write <id>.json records (default: results/)
//!   --list       list experiments and exit
//!   --trace      arm the flight recorder per experiment, write
//!                TRACE_<id>.json (Chrome Trace Format; open in
//!                Perfetto) and print the span table. The recorder arms
//!                the span probes, so the snapshot's `kernels` table
//!                fills too.
//!   --profile    arm the span probes per experiment and fold their
//!                table by path: write each path's exact self time as
//!                collapsed stacks to <out>/PROFILE_<id>.txt
//!                (flamegraph.pl / inferno compatible; render in-tree
//!                with `tsdtw report flame`), print the per-span
//!                self-vs-total table, and fill the snapshot's
//!                advisory `profile` section. `--profile=FILE` writes
//!                the export to FILE instead (meant for single-
//!                experiment runs; with several experiments the last
//!                one wins).
//! ```
//!
//! Without `--trace` or `--profile` the span probes stay disarmed, so a
//! timed experiment pays one atomic load per probe and its snapshot
//! carries `spans_enabled: false` and an empty `kernels` table. With
//! either, one drain of the span table per experiment feeds the
//! `kernels` table, the printed span table and the profile.
//!
//! Every run additionally emits one perf-trajectory snapshot per
//! experiment (`BENCH_<id>.json`, see `tsdtw_bench::snapshot`) which
//! `tsdtw report diff` compares against a committed baseline, and
//! appends the same record to the append-only ledger
//! `<out>/history/<id>.jsonl` (see `tsdtw_bench::history`) that
//! `tsdtw report trend` analyzes for longitudinal drift.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tsdtw_bench::experiments::{self, Runner};
use tsdtw_bench::{history, snapshot, write_atomic, Scale};
use tsdtw_mining::ParConfig;
use tsdtw_obs::{
    arm_spans, drain_raw_spans, recorder_start, recorder_stop, span_table, take_spans,
    ProfileReport, DEFAULT_TRACE_CAPACITY,
};

/// Writes `contents` to `path` atomically, creating its directory.
fn write_export(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    write_atomic(path, contents)
}

fn main() -> ExitCode {
    let mut wanted: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut out = PathBuf::from("results");
    let mut want_trace = false;
    // None: no profile. Some(None): on, default per-experiment file.
    // Some(Some(path)): on, collapsed export to that path.
    let mut profile: Option<Option<PathBuf>> = None;
    let mut threads = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--trace" => want_trace = true,
            "--profile" => profile = Some(None),
            "--threads" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = n,
                _ => {
                    eprintln!("--threads needs a positive integer");
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--list" => {
                for (id, _) in experiments::all() {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [EXPERIMENT ...] [--full] [--threads N] [--out DIR] \
                     [--list] [--trace] [--profile[=FILE]]\n\
                     experiments: {}",
                    experiments::all()
                        .iter()
                        .map(|(id, _)| *id)
                        .collect::<Vec<_>>()
                        .join(" ")
                );
                return ExitCode::SUCCESS;
            }
            other if other.starts_with("--profile=") => {
                let file = &other["--profile=".len()..];
                if file.is_empty() {
                    eprintln!("--profile= needs a file path (or bare --profile)");
                    return ExitCode::FAILURE;
                }
                profile = Some(Some(PathBuf::from(file)));
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; try --help");
                return ExitCode::FAILURE;
            }
            other => wanted.push(other.to_string()),
        }
    }

    let registry = experiments::all();
    let selected: Vec<&(&'static str, Runner)> =
        if wanted.is_empty() || wanted.iter().any(|w| w == "all") {
            registry.iter().collect()
        } else {
            let mut sel = Vec::new();
            for w in &wanted {
                match registry.iter().find(|(id, _)| id == w) {
                    Some(e) => sel.push(e),
                    None => {
                        eprintln!("unknown experiment {w:?}; try --list");
                        return ExitCode::FAILURE;
                    }
                }
            }
            sel
        };

    let par = match ParConfig::new(threads) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("bad --threads value: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "tsdtw repro — scale: {} — threads: {} — writing JSON to {}",
        if scale == Scale::Full {
            "FULL (paper-scale)"
        } else {
            "QUICK"
        },
        par.n_threads,
        out.display()
    );
    for (id, runner) in selected {
        // Drain spans left over from a previous experiment so each
        // snapshot's kernel table reflects this run only.
        let _ = take_spans();
        if want_trace {
            recorder_start(DEFAULT_TRACE_CAPACITY);
        }
        // `--profile` holds the span probes armed; its profile is the
        // same drain as the `kernels` table, folded by path.
        let armed = profile.is_some().then(arm_spans);
        let t0 = std::time::Instant::now();
        // Probe the heap across the whole experiment; under
        // --features alloc-telemetry the delta lands in the snapshot's
        // `memory` section (the stub section marks telemetry off
        // otherwise, so diffs can tell "no data" from "zero traffic").
        let heap_probe = tsdtw_obs::AllocScope::begin();
        let mut report = runner(&scale, &par);
        let heap = heap_probe.end();
        let wall_s = t0.elapsed().as_secs_f64();
        drop(armed);
        print!("{}", report.render());
        println!("   ({id} in {wall_s:.1}s)\n");
        if let Err(e) = report.write_json(&out) {
            eprintln!("warning: could not write {id}.json: {e}");
        }
        let drained = drain_raw_spans();
        let spans = drained.stats();
        // Attached after the record is written, so `<id>.json` stays the
        // experiment's own; the snapshot takes every section from here.
        report.attach("memory", heap.report());
        if let Some(file) = &profile {
            let r = ProfileReport::new(wall_s, &drained);
            print!("{}", r.table());
            let path = file
                .clone()
                .unwrap_or_else(|| out.join(format!("PROFILE_{id}.txt")));
            match write_export(&path, &r.collapsed()) {
                Ok(()) => println!("   profile -> {}", path.display()),
                Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
            }
            report.attach("profile", r.to_json());
        }
        let snap = snapshot::capture(
            id,
            &report.title,
            wall_s,
            &report.json,
            &spans,
            want_trace || profile.is_some(),
            par.n_threads,
        );
        if let Err(e) = snapshot::write(&out, id, &snap) {
            eprintln!("warning: could not write BENCH_{id}.json: {e}");
        }
        if let Err(e) = history::append(&out, id, &snap) {
            eprintln!("warning: could not append {id} history: {e}");
        }
        if want_trace {
            if let Some(trace) = recorder_stop() {
                let path = out.join(format!("TRACE_{id}.json"));
                match write_export(&path, &trace.chrome_json().to_string_compact()) {
                    Ok(()) => {
                        println!("   flight recorder -> {}", path.display());
                        if trace.dropped > 0 {
                            println!(
                                "   ({} older events dropped at ring capacity {})",
                                trace.dropped, trace.capacity
                            );
                        }
                        print!("{}", span_table(&spans));
                    }
                    Err(e) => eprintln!("warning: could not write TRACE_{id}.json: {e}"),
                }
            }
        }
    }
    ExitCode::SUCCESS
}
