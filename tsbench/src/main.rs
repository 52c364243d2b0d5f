//! `tsbench` — times exact cDTW against FastDTW on four workloads taken
//! from the paper's cases, checks every answer, and breaks a traced run
//! down layer by layer.
//!
//! ```text
//! tsbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one workload runs in this process and the last line
//! of standard output is a JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Without it, every workload runs in a fresh child
//! process of its own, one after another. See README.md.

mod bench;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use bench::{run, BenchResult, Metric, Outcome, Scale, Settings};

/// Directory, relative to the working directory, that traced runs write
/// `TRACE_<workload>.json` into.
const TRACE_DIR: &str = ".tsbench_out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> BenchResult<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}").into()),
                }
            }
            other => return Err(format!("unknown argument {other:?}").into()),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a positive number".into());
    }
    Ok(args)
}

fn format_line(workload: &str, m: &Metric) -> String {
    let mut line = format!("{workload} {} {} {}", m.name, m.value, m.unit);
    if let Some(n) = m.samples {
        let _ = write!(line, " (n={n})");
    }
    line
}

/// The result object the last line of output carries.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn run_one(name: &str, args: &Args) -> BenchResult<()> {
    let spec = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::ALL.iter().map(|s| s.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let settings = Settings {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: Scale::Paper,
    };
    let out = run(spec, &settings)?;
    if let Some(tracer) = &out.tracer {
        std::fs::create_dir_all(TRACE_DIR)?;
        let path = Path::new(TRACE_DIR).join(format!("TRACE_{name}.json"));
        std::fs::write(&path, tracer.to_json(name, args.seed))?;
        println!("{name} trace written to {}", path.display());
    }
    for m in out.metrics.iter().chain(&out.diagnostics) {
        println!("{}", format_line(name, m));
    }
    println!("{}", result_json(&out));
    Ok(())
}

/// Runs every workload in a child process of its own, so each starts
/// with a fresh heap and its own peak-RSS reading.
fn run_all(args: &Args) -> BenchResult<bool> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    for spec in workloads::ALL {
        let status = Command::new(&exe)
            .args(["--workload", spec.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let result = parse_args(std::env::args().skip(1)).and_then(|args| match &args.workload {
        Some(name) => run_one(name, &args).map(|()| true),
        None => run_all(&args),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("tsbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> BenchResult<Args> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "pairs_ucr",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("pairs_ucr"));
        assert_eq!((a.seed, a.seconds, a.trace), (4, 10.0, true));
        assert!(args(&["--trace", "yes"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    #[test]
    fn result_line_is_the_contract_object() {
        let out = Outcome {
            attempted: 12,
            failed: 0,
            metrics: vec![Metric {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s",
                samples: None,
            }],
            diagnostics: Vec::new(),
            tracer: None,
        };
        assert_eq!(
            result_json(&out),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root lists exactly the workloads
    /// and the metrics (with their units) that a run reports.
    #[test]
    fn benchmark_json_matches_what_a_run_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: String = std::fs::read_to_string(path)
            .expect("BENCHMARK.json at the repository root")
            .split_whitespace()
            .collect();
        for spec in workloads::ALL {
            assert!(
                json.contains(&format!("\"name\":\"{}\",\"why\"", spec.name)),
                "{}",
                spec.name
            );
        }
        let mut reported = 0;
        for trace in [false, true] {
            let settings = Settings {
                seed: 1,
                seconds: 0.02,
                trace,
                scale: Scale::Smoke,
            };
            for m in run(&workloads::ALL[0], &settings).unwrap().metrics {
                let entry = format!("\"name\":\"{}\",\"unit\":\"{}\",\"better\"", m.name, m.unit);
                assert!(json.contains(&entry), "{entry} missing");
                reported += 1;
            }
        }
        assert_eq!(json.matches("\"better\"").count(), reported);
        assert_eq!(json.matches("\"why\"").count(), workloads::ALL.len());
    }
}
