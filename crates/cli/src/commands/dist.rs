//! `tsdtw dist` — one distance between two series files.

use std::path::Path;

use crate::args::{ArgError, Args};
use crate::io::read_series;
use crate::stats;
use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_mining::knn::DistanceSpec;
use tsdtw_obs::WorkMeter;

/// `tsdtw help dist`.
pub const HELP: &str = "\
tsdtw dist --a FILE --b FILE [--measure M] [--w PCT] [--radius R] [--znorm]
           [--threads N] [--stats] [--stats-json FILE]
           [--trace FILE] [--metrics FILE] [--explain[=FILE]]
           [--profile[=FILE]]
  M: dtw | cdtw (default, needs --w) | fastdtw | fastdtw-ref (need --radius)
     | euclidean
  --threads N    accepted for uniformity with the other commands (a single
                 pair is evaluated serially; N is only validated)
  --stats        print DP-cell / window / buffer counters for the evaluation
  --stats-json   also dump the counters as JSON to FILE (implies --stats)
  --trace        record a flight-recorder trace of the evaluation to FILE
                 (Chrome Trace Format; open in Perfetto)
                 and print the per-span table
  --metrics      write the run's work counters and request latency to FILE
                 in the Prometheus text exposition format
  --explain      print the EXPLAIN prune-funnel table (a single-pair
                 distance runs no lower-bound cascade, so this reports an
                 explanatory note). --explain=FILE also dumps the funnel JSON
  --profile      arm the span probes and print each span's exact self
                 and total time. --profile=FILE also writes the
                 collapsed stacks (self ns per path) to FILE
                 (flamegraph.pl compatible; render with `tsdtw report flame`)
  series files: one finite value per line, '#' comments allowed";

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(
        raw,
        &[
            "a",
            "b",
            "measure",
            "w",
            "radius",
            "threads",
            stats::STATS_JSON_FLAG,
            stats::TRACE_FLAG,
            stats::METRICS_FLAG,
            stats::EXPLAIN_FLAG,
            stats::PROFILE_FLAG,
        ],
        &[
            "znorm",
            stats::STATS_SWITCH,
            stats::EXPLAIN_FLAG,
            stats::PROFILE_FLAG,
        ],
    )?;
    // A single pair runs serially; the flag exists so scripts can pass the
    // same --threads to every command, and bad values still fail fast.
    let _par = tsdtw_mining::ParConfig::new(args.get_or("threads", 1)?)?;
    let mut a = read_series(Path::new(args.required("a")?))?;
    let mut b = read_series(Path::new(args.required("b")?))?;
    if args.has("znorm") {
        tsdtw_core::norm::znorm_in_place(&mut a)?;
        tsdtw_core::norm::znorm_in_place(&mut b)?;
    }
    let measure = args.optional("measure").unwrap_or("cdtw");
    let spec = match measure {
        "dtw" => DistanceSpec::FullDtw,
        "cdtw" => DistanceSpec::CdtwPercent(args.get_or("w", 10.0)?),
        "fastdtw" => DistanceSpec::FastDtw(args.get_or("radius", 1)?),
        "fastdtw-ref" => DistanceSpec::FastDtwRef(args.get_or("radius", 1)?),
        "euclidean" => DistanceSpec::Euclidean,
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown measure {other:?}; see `tsdtw help dist`"
            ))))
        }
    };
    let json_path = args.optional(stats::STATS_JSON_FLAG);
    let trace_path = args.optional(stats::TRACE_FLAG);
    let metrics_path = args.optional(stats::METRICS_FLAG);
    let explain_path = args.optional(stats::EXPLAIN_FLAG);
    let want_explain = args.has(stats::EXPLAIN_FLAG) || explain_path.is_some();
    let profile_path = args.optional(stats::PROFILE_FLAG);
    let profile = (args.has(stats::PROFILE_FLAG) || profile_path.is_some()).then_some(profile_path);
    let want_stats = args.has(stats::STATS_SWITCH) || json_path.is_some();
    let want_meter = want_stats || metrics_path.is_some() || want_explain;
    let mut meter = WorkMeter::new();
    let probes = stats::Probes::start(want_stats, trace_path, profile);
    let t0 = std::time::Instant::now();
    let (d, heap) = if want_stats {
        let probe = tsdtw_obs::AllocScope::begin();
        let d = spec.eval_metered(&a, &b, &mut meter)?;
        (d, Some(probe.end()))
    } else if want_meter {
        (spec.eval_metered(&a, &b, &mut meter)?, None)
    } else {
        (spec.eval(&a, &b)?, None)
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = format!("{measure} distance: {d}\n");
    let spans = probes.finish(wall_s, &mut out)?;
    if measure == "cdtw" {
        let w: f64 = args.get_or("w", 10.0)?;
        let band = percent_to_band(a.len().max(b.len()), w)?;
        out.push_str(&format!("(w = {w}% -> band of {band} cells)\n"));
    }
    if want_stats {
        stats::render(&meter, heap.as_ref(), &spans, json_path, &mut out)?;
    }
    stats::explain_finish(want_explain, explain_path, &meter, &mut out)?;
    stats::metrics_finish(metrics_path, &meter, wall_s, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_series;

    fn setup(dir: &str) -> (std::path::PathBuf, std::path::PathBuf) {
        let d = std::env::temp_dir().join(dir);
        std::fs::create_dir_all(&d).unwrap();
        let a = d.join("a.txt");
        let b = d.join("b.txt");
        write_series(&a, &[0.0, 1.0, 2.0, 1.0, 0.0]).unwrap();
        write_series(&b, &[0.0, 0.0, 1.0, 2.0, 1.0]).unwrap();
        (a, b)
    }

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn computes_each_measure() {
        let (a, b) = setup("tsdtw-dist-test");
        for m in ["dtw", "cdtw", "fastdtw", "fastdtw-ref", "euclidean"] {
            let out = run(&raw(&[
                "--a",
                a.to_str().unwrap(),
                "--b",
                b.to_str().unwrap(),
                "--measure",
                m,
                "--w",
                "40",
                "--radius",
                "2",
            ]))
            .unwrap();
            assert!(out.contains("distance:"), "{m}: {out}");
        }
    }

    #[test]
    fn znorm_switch_changes_the_result() {
        let d = std::env::temp_dir().join("tsdtw-dist-znorm-test");
        std::fs::create_dir_all(&d).unwrap();
        let a = d.join("a.txt");
        let b = d.join("b.txt");
        write_series(&a, &[0.0, 1.0, 0.0, 1.0]).unwrap();
        write_series(&b, &[10.0, 12.0, 10.0, 12.0]).unwrap();
        let base = raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "dtw",
        ]);
        let plain = run(&base).unwrap();
        let mut z = base.clone();
        z.push("--znorm".into());
        let normed = run(&z).unwrap();
        assert_ne!(plain, normed);
        // Z-normalized, the two square waves are identical.
        assert!(normed.contains("distance: 0"), "{normed}");
    }

    #[test]
    fn stats_switch_prints_counters_and_dumps_json() {
        let (a, b) = setup("tsdtw-dist-stats-test");
        let json = std::env::temp_dir()
            .join("tsdtw-dist-stats-test")
            .join("work.json");
        let out = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "fastdtw",
            "--radius",
            "1",
            "--stats",
            "--stats-json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("-- work --"), "{out}");
        assert!(out.contains("DP cells evaluated"), "{out}");
        assert!(out.contains("fastdtw:"), "{out}");
        // --stats arms the span probes for the command.
        assert!(out.contains("-- spans --"), "{out}");
        assert!(out.contains("fastdtw "), "{out}");
        let dumped = std::fs::read_to_string(&json).unwrap();
        assert!(dumped.contains("\"fastdtw_levels\""), "{dumped}");
    }

    #[test]
    fn metrics_flag_writes_a_prometheus_exposition() {
        let (a, b) = setup("tsdtw-dist-metrics-test");
        let prom = std::env::temp_dir()
            .join("tsdtw-dist-metrics-test")
            .join("metrics.prom");
        let out = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "dtw",
            "--metrics",
            prom.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        // --metrics alone meters the evaluation without printing --stats.
        assert!(!out.contains("-- work --"), "{out}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE tsdtw_work_cells counter"), "{text}");
        // Full DTW on two length-5 series touches all 25 cells.
        assert!(text.contains("tsdtw_work_cells 25"), "{text}");
        assert!(text.contains("tsdtw_request_seconds_count 1"), "{text}");
    }

    #[test]
    fn trace_flag_writes_a_chrome_trace_file() {
        let (a, b) = setup("tsdtw-dist-trace-test");
        let trace = std::env::temp_dir()
            .join("tsdtw-dist-trace-test")
            .join("trace.json");
        let out = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "fastdtw",
            "--radius",
            "1",
            "--trace",
            trace.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("trace written"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let parsed = tsdtw_obs::Json::parse(&text).unwrap();
        assert!(
            !parsed["traceEvents"].as_array().unwrap().is_empty(),
            "the recorder arms the span probes"
        );
    }

    #[test]
    fn explain_on_a_cascade_free_path_degrades_to_a_note() {
        let (a, b) = setup("tsdtw-dist-explain-test");
        let out = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "cdtw",
            "--w",
            "40",
            "--explain",
        ]))
        .unwrap();
        assert!(out.contains("-- explain --"), "{out}");
        assert!(out.contains("no cascaded stages ran"), "{out}");
    }

    #[test]
    fn profile_flag_prints_table_and_writes_collapsed_stacks() {
        let (a, b) = setup("tsdtw-dist-profile-test");
        let collapsed = std::env::temp_dir()
            .join("tsdtw-dist-profile-test")
            .join("profile.txt");
        let out = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "cdtw",
            "--w",
            "40",
            &format!("--profile={}", collapsed.to_str().unwrap()),
        ]))
        .unwrap();
        assert!(out.contains("-- profile --"), "{out}");
        assert!(out.contains("collapsed stacks written"), "{out}");
        // The export parses in the same format `report flame` consumes,
        // and holds the cdtw span: self times are exact, not sampled.
        let text = std::fs::read_to_string(&collapsed).unwrap();
        let folded = tsdtw_obs::profile::parse_collapsed(&text).unwrap();
        assert!(
            folded.iter().any(|(s, _)| s.starts_with("cdtw")),
            "{folded:?}"
        );
        // Bare --profile: table only, no file note.
        let out = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "cdtw",
            "--w",
            "40",
            "--profile",
        ]))
        .unwrap();
        assert!(out.contains("-- profile --"), "{out}");
        assert!(!out.contains("collapsed stacks written"), "{out}");
    }

    #[test]
    fn unknown_measure_is_an_error() {
        let (a, b) = setup("tsdtw-dist-err-test");
        let r = run(&raw(&[
            "--a",
            a.to_str().unwrap(),
            "--b",
            b.to_str().unwrap(),
            "--measure",
            "nope",
        ]));
        assert!(r.is_err());
    }
}
