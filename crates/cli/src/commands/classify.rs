//! `tsdtw classify` — 1-NN classification of a UCR-format test file
//! against a UCR-format training file, with optional LOOCV window
//! learning (the archive's procedure).

use std::path::Path;

use crate::args::{ArgError, Args};
use crate::stats;
use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_datasets::ucr_format::load_ucr_file;
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::knn::{evaluate_split_par, DistanceSpec};
use tsdtw_mining::wselect::{integer_grid, optimal_window_par};
use tsdtw_mining::ParConfig;
use tsdtw_obs::{NoMeter, WorkMeter};

pub const HELP: &str = "\
tsdtw classify --train FILE --test FILE [--w PCT|auto] [--max-w PCT] [--measure M]
               [--threads N] [--stats] [--stats-json FILE] [--trace FILE]
               [--metrics FILE] [--explain[=FILE]] [--profile[=FILE]]
  M: cdtw (default) | dtw | euclidean | fastdtw-ref (with --radius R)
  --w auto learns the window by LOOCV on the training set (grid 0..--max-w, default 20)
  --threads N    worker threads for the evaluation (default 1); results and
                 --stats counters are bitwise identical at every N
  --stats        print DP-cell counters summed over every test-vs-train comparison
  --stats-json   also dump the counters as JSON to FILE (implies --stats)
  --trace        record a flight-recorder trace of the evaluation to FILE
                 (Chrome Trace Format; open in Perfetto)
                 and print the per-span table
  --metrics      write the run's work counters and request latency to FILE
                 in the Prometheus text exposition format
  --explain      print the EXPLAIN prune-funnel table for the evaluation's
                 lower-bound cascade (the split evaluation is brute-force,
                 so this reports an explanatory note until it cascades).
                 --explain=FILE also dumps the funnel JSON
  --profile      arm the span probes and print each span's exact self
                 and total time. --profile=FILE also writes the
                 collapsed stacks (self ns per path) to FILE
                 (flamegraph.pl compatible; render with `tsdtw report flame`)
  files: UCR archive format (label, then values; tab- or comma-separated)";

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(
        raw,
        &[
            "train",
            "test",
            "w",
            "max-w",
            "measure",
            "radius",
            "threads",
            stats::STATS_JSON_FLAG,
            stats::TRACE_FLAG,
            stats::METRICS_FLAG,
            stats::EXPLAIN_FLAG,
            stats::PROFILE_FLAG,
        ],
        &[
            stats::STATS_SWITCH,
            stats::EXPLAIN_FLAG,
            stats::PROFILE_FLAG,
        ],
    )?;
    let par = ParConfig::new(args.get_or("threads", 1)?)?;
    let train = load_ucr_file(Path::new(args.required("train")?))?;
    let test = load_ucr_file(Path::new(args.required("test")?))?;
    let train_view = LabeledView::new(&train.series, &train.labels)?;
    let test_view = LabeledView::new(&test.series, &test.labels)?;

    let mut out = String::new();
    let measure = args.optional("measure").unwrap_or("cdtw");
    let spec = match measure {
        "euclidean" => DistanceSpec::Euclidean,
        "dtw" => DistanceSpec::FullDtw,
        "fastdtw-ref" => DistanceSpec::FastDtwRef(args.get_or("radius", 30)?),
        "cdtw" => {
            let w_arg = args.optional("w").unwrap_or("auto");
            let w = if w_arg == "auto" {
                let max_w: usize = args.get_or("max-w", 20)?;
                let search = optimal_window_par(&train_view, &integer_grid(max_w), &par)?;
                out.push_str(&format!(
                    "learned w = {}% (train LOOCV error {:.2}%)\n",
                    search.best_w_percent,
                    search.best_error * 100.0
                ));
                search.best_w_percent
            } else {
                w_arg
                    .parse::<f64>()
                    .map_err(|_| ArgError(format!("--w got unparsable value {w_arg:?}")))?
            };
            let band = percent_to_band(train.series_len(), w)?;
            DistanceSpec::CdtwBand(band)
        }
        other => {
            return Err(Box::new(ArgError(format!(
                "unknown measure {other:?}; see `tsdtw help classify`"
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
    let (err, heap) = if want_stats {
        let probe = tsdtw_obs::AllocScope::begin();
        let err = evaluate_split_par(&train_view, &test_view, spec, &par, &mut meter)?;
        (err, Some(probe.end()))
    } else if want_meter {
        (
            evaluate_split_par(&train_view, &test_view, spec, &par, &mut meter)?,
            None,
        )
    } else {
        (
            evaluate_split_par(&train_view, &test_view, spec, &par, &mut NoMeter)?,
            None,
        )
    };
    let wall_s = t0.elapsed().as_secs_f64();
    out.push_str(&format!(
        "{} train / {} test exemplars, length {}, {} classes\n",
        train.len(),
        test.len(),
        train.series_len(),
        train.n_classes()
    ));
    out.push_str(&format!(
        "1-NN ({measure}) accuracy: {:.2}%  (error rate {:.4})\n",
        (1.0 - err) * 100.0,
        err
    ));
    let spans = probes.finish(wall_s, &mut out)?;
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
    use tsdtw_datasets::cbf::dataset;
    use tsdtw_datasets::ucr_format::write_ucr;

    /// A fresh directory per test thread: tests run in parallel, and a
    /// shared path lets one test truncate a file while another reads it.
    fn setup() -> (std::path::PathBuf, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "tsdtw-classify-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let data = dataset(64, 8, 42).unwrap();
        let (train, test) = data.split_stratified(4).unwrap();
        let train_p = dir.join("train.tsv");
        let test_p = dir.join("test.tsv");
        let mut f = std::fs::File::create(&train_p).unwrap();
        write_ucr(&train, &mut f).unwrap();
        let mut f = std::fs::File::create(&test_p).unwrap();
        write_ucr(&test, &mut f).unwrap();
        (train_p, test_p)
    }

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn classifies_cbf_well_with_auto_window() {
        let (train, test) = setup();
        let out = run(&raw(&[
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--w",
            "auto",
            "--max-w",
            "10",
        ]))
        .unwrap();
        assert!(out.contains("learned w ="), "{out}");
        assert!(out.contains("accuracy:"), "{out}");
        // CBF at this scale should classify far above chance (33%).
        let acc: f64 = out
            .split("accuracy: ")
            .nth(1)
            .unwrap()
            .split('%')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(acc > 60.0, "accuracy {acc}");
    }

    #[test]
    fn explicit_window_and_other_measures_run() {
        let (train, test) = setup();
        for extra in [
            vec!["--w", "5"],
            vec!["--measure", "euclidean"],
            vec!["--measure", "dtw"],
        ] {
            let mut a = raw(&[
                "--train",
                train.to_str().unwrap(),
                "--test",
                test.to_str().unwrap(),
            ]);
            a.extend(extra.iter().map(|s| s.to_string()));
            let out = run(&a).unwrap();
            assert!(out.contains("accuracy:"), "{out}");
        }
    }

    #[test]
    fn stats_switch_sums_work_over_the_split() {
        let (train, test) = setup();
        let json = train.with_file_name("work.json");
        let out = run(&raw(&[
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--w",
            "5",
            "--stats",
            "--stats-json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("accuracy:"), "{out}");
        assert!(out.contains("-- work --"), "{out}");
        assert!(out.contains("DP cells evaluated"), "{out}");
        let dumped = std::fs::read_to_string(&json).unwrap();
        assert!(dumped.contains("\"window_cells\""), "{dumped}");
    }

    #[test]
    fn metrics_flag_meters_without_stats_output() {
        let (train, test) = setup();
        let prom = train.with_file_name("metrics.prom");
        let out = run(&raw(&[
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--w",
            "5",
            "--metrics",
            prom.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics written"), "{out}");
        assert!(!out.contains("-- work --"), "{out}");
        let text = std::fs::read_to_string(&prom).unwrap();
        assert!(text.contains("# TYPE tsdtw_work_cells counter"), "{text}");
        // The split evaluation did real DP work, so the counter is live.
        assert!(!text.contains("tsdtw_work_cells 0\n"), "{text}");
        assert!(text.contains("tsdtw_request_seconds_count 1"), "{text}");
    }

    #[test]
    fn threads_flag_is_bitwise_output_invariant() {
        let (train, test) = setup();
        let base = |threads: &str| {
            run(&raw(&[
                "--train",
                train.to_str().unwrap(),
                "--test",
                test.to_str().unwrap(),
                "--w",
                "auto",
                "--max-w",
                "6",
                "--threads",
                threads,
                "--stats",
            ]))
            .unwrap()
        };
        let serial = crate::stats::run_invariant_view(&base("1"));
        let parallel = crate::stats::run_invariant_view(&base("4"));
        // Span wall-clock latencies are the one legitimately varying part
        // of the rendering; the projection keeps labels and counts.
        assert_eq!(
            serial, parallel,
            "classify output (learned window, accuracy, work counters) must \
             not depend on --threads"
        );
    }

    #[test]
    fn explain_on_brute_force_evaluation_degrades_to_a_note() {
        let (train, test) = setup();
        let out = run(&raw(&[
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--w",
            "5",
            "--explain",
        ]))
        .unwrap();
        assert!(out.contains("accuracy:"), "{out}");
        assert!(out.contains("-- explain --"), "{out}");
        assert!(out.contains("no cascaded stages ran"), "{out}");
    }

    #[test]
    fn zero_threads_is_a_clean_error() {
        let (train, test) = setup();
        assert!(run(&raw(&[
            "--train",
            train.to_str().unwrap(),
            "--test",
            test.to_str().unwrap(),
            "--threads",
            "0",
        ]))
        .is_err());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let r = run(&raw(&["--train", "/nonexistent", "--test", "/nonexistent"]));
        assert!(r.is_err());
    }
}
