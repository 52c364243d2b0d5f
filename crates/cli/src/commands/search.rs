//! `tsdtw search` — UCR-style subsequence search of a query in a long
//! series, with top-k support.

use std::path::Path;

use crate::args::Args;
use crate::io::read_series;
use crate::stats;
use tsdtw_core::dtw::banded::percent_to_band;
use tsdtw_mining::search::{subsequence_search_par, top_k_matches_par};
use tsdtw_mining::ParConfig;
use tsdtw_obs::WorkMeter;

pub const HELP: &str = "\
tsdtw search --haystack FILE --query FILE [--w PCT] [--top K] [--threads N]
             [--stats] [--stats-json FILE] [--trace FILE] [--metrics FILE]
             [--explain[=FILE]] [--profile[=FILE]]
  z-normalizes the query and every candidate window (UCR practice) and
  reports the best match(es) under cDTW_w with pruning statistics
  --threads N    worker threads for the candidate scan (default 1); matches,
                 pruning statistics and --stats counters are bitwise
                 identical at every N
  --stats        print DP-cell / lower-bound / prune counters for the search
  --stats-json   also dump the counters as JSON to FILE (implies --stats)
  --trace        record a flight-recorder trace of the search to FILE
                 (Chrome Trace Format; open in Perfetto)
                 and print the per-span table
  --metrics      write the run's work counters and request latency to FILE
                 in the Prometheus text exposition format
  --explain      print the EXPLAIN prune-funnel table: per cascade stage,
                 candidates entered/pruned, cost units, cost share, and the
                 prune-rate-per-cost ranking; bitwise identical at every
                 --threads. --explain=FILE also dumps the funnel JSON
  --profile      arm the span probes and print each span's exact self
                 and total time. --profile=FILE also writes the
                 collapsed stacks (self ns per path) to FILE
                 (flamegraph.pl compatible; render with `tsdtw report flame`)";

/// Runs the command, returning the printable result.
pub fn run(raw: &[String]) -> Result<String, Box<dyn std::error::Error>> {
    let args = Args::parse(
        raw,
        &[
            "haystack",
            "query",
            "w",
            "top",
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
    let haystack = read_series(Path::new(args.required("haystack")?))?;
    let query = read_series(Path::new(args.required("query")?))?;
    let w: f64 = args.get_or("w", 5.0)?;
    let band = percent_to_band(query.len(), w)?;
    let k: usize = args.get_or("top", 1)?;
    let json_path = args.optional(stats::STATS_JSON_FLAG);
    let trace_path = args.optional(stats::TRACE_FLAG);
    let metrics_path = args.optional(stats::METRICS_FLAG);
    let explain_path = args.optional(stats::EXPLAIN_FLAG);
    let want_explain = args.has(stats::EXPLAIN_FLAG) || explain_path.is_some();
    let profile_path = args.optional(stats::PROFILE_FLAG);
    let profile = (args.has(stats::PROFILE_FLAG) || profile_path.is_some()).then_some(profile_path);
    let want_stats = args.has(stats::STATS_SWITCH) || json_path.is_some();
    let mut meter = WorkMeter::new();
    let probes = stats::Probes::start(want_stats, trace_path, profile);
    let t0 = std::time::Instant::now();
    // Probes the whole scan (including its result formatting, which is
    // cheap next to the candidate loop); reads zero unless the build
    // armed alloc-telemetry.
    let heap_probe = want_stats.then(tsdtw_obs::AllocScope::begin);

    let mut out = format!(
        "haystack {} points, query {} points, w = {w}% (band {band})\n",
        haystack.len(),
        query.len()
    );
    if k <= 1 {
        let r = subsequence_search_par(&haystack, &query, band, &par, &mut meter)?;
        out.push_str(&format!(
            "best match at offset {} (distance {:.6})\n",
            r.position, r.distance
        ));
        out.push_str(&format!(
            "pruning: {} candidates; {} LB_Kim, {} LB_Keogh, {} DTW-abandoned, {} full DP \
             ({:.1}% pruned before DP)\n",
            r.stats.candidates,
            r.stats.pruned_kim,
            r.stats.pruned_keogh,
            r.stats.dtw_abandoned,
            r.stats.dtw_exact,
            r.stats.prune_rate() * 100.0
        ));
    } else {
        let matches = top_k_matches_par(&haystack, &query, band, k, query.len(), &par, &mut meter)?;
        out.push_str(&format!("top-{} non-overlapping matches:\n", matches.len()));
        for m in &matches {
            out.push_str(&format!(
                "  offset {:>8}  distance {:.6}\n",
                m.position, m.distance
            ));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let heap = heap_probe.map(tsdtw_obs::AllocScope::end);
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
    use crate::io::write_series;

    fn raw(s: &[&str]) -> Vec<String> {
        s.iter().map(|v| v.to_string()).collect()
    }

    #[test]
    fn finds_a_planted_query() {
        let dir = std::env::temp_dir().join("tsdtw-search-test");
        std::fs::create_dir_all(&dir).unwrap();
        let query: Vec<f64> = (0..32).map(|i| (i as f64 * 0.35).sin() * 2.0).collect();
        let mut hay: Vec<f64> = (0..500)
            .map(|i| ((i * i) as f64).sin() * 3.0) // deterministic noise
            .collect();
        for (j, &q) in query.iter().enumerate() {
            hay[321 + j] = q;
        }
        let hp = dir.join("hay.txt");
        let qp = dir.join("query.txt");
        write_series(&hp, &hay).unwrap();
        write_series(&qp, &query).unwrap();

        let out = run(&raw(&[
            "--haystack",
            hp.to_str().unwrap(),
            "--query",
            qp.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("best match at offset 321"), "{out}");
        assert!(out.contains("pruned before DP"), "{out}");

        let out = run(&raw(&[
            "--haystack",
            hp.to_str().unwrap(),
            "--query",
            qp.to_str().unwrap(),
            "--top",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("top-3"), "{out}");
        assert!(out.contains("offset"), "{out}");
    }

    #[test]
    fn stats_switch_reports_search_work() {
        let dir = std::env::temp_dir().join("tsdtw-search-stats-test");
        std::fs::create_dir_all(&dir).unwrap();
        let query: Vec<f64> = (0..24).map(|i| (i as f64 * 0.4).sin()).collect();
        let mut hay: Vec<f64> = (0..300).map(|i| ((i * 7) as f64).cos()).collect();
        for (j, &q) in query.iter().enumerate() {
            hay[100 + j] = q;
        }
        let hp = dir.join("hay.txt");
        let qp = dir.join("query.txt");
        write_series(&hp, &hay).unwrap();
        write_series(&qp, &query).unwrap();
        let json = dir.join("work.json");
        let out = run(&raw(&[
            "--haystack",
            hp.to_str().unwrap(),
            "--query",
            qp.to_str().unwrap(),
            "--stats-json",
            json.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("-- work --"), "{out}");
        assert!(out.contains("prune cascade"), "{out}");
        let dumped = std::fs::read_to_string(&json).unwrap();
        assert!(dumped.contains("\"prune\""), "{dumped}");
    }

    #[test]
    fn threads_flag_is_bitwise_output_invariant() {
        let dir = std::env::temp_dir().join("tsdtw-search-threads-test");
        std::fs::create_dir_all(&dir).unwrap();
        let query: Vec<f64> = (0..28).map(|i| (i as f64 * 0.3).sin()).collect();
        let hay: Vec<f64> = (0..600).map(|i| ((i * 3) as f64 * 0.11).sin()).collect();
        let hp = dir.join("hay.txt");
        let qp = dir.join("query.txt");
        write_series(&hp, &hay).unwrap();
        write_series(&qp, &query).unwrap();
        let base = |threads: &str| {
            let prom = dir.join(format!("metrics-{threads}.prom"));
            let out = run(&raw(&[
                "--haystack",
                hp.to_str().unwrap(),
                "--query",
                qp.to_str().unwrap(),
                "--threads",
                threads,
                "--stats",
                "--metrics",
                prom.to_str().unwrap(),
            ]))
            .unwrap();
            let metrics = std::fs::read_to_string(&prom).unwrap();
            (out, metrics)
        };
        let (out_1, metrics_1) = base("1");
        let (out_4, metrics_4) = base("4");
        // Span wall-clock latencies are the one legitimately varying part
        // of the rendering; compare everything else (including span labels
        // and counts) through the invariant projection.
        let strip_path = |s: &str| {
            crate::stats::run_invariant_view(s)
                .lines()
                .filter(|l| !l.starts_with("metrics written"))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        };
        assert_eq!(
            strip_path(&out_1),
            strip_path(&out_4),
            "search output (match, pruning stats, work counters) must not \
             depend on --threads"
        );
        // The Prometheus exposition inherits the meter's determinism: the
        // counter lines are bitwise identical at every thread count (only
        // the wall-clock latency summary is allowed to differ).
        assert_eq!(
            crate::stats::metrics_invariant_view(&metrics_1),
            crate::stats::metrics_invariant_view(&metrics_4),
            "metrics exposition must be bitwise independent of --threads"
        );
        assert!(metrics_1.contains("tsdtw_work_prune_kim"), "{metrics_1}");
    }

    #[test]
    fn explain_funnel_is_bitwise_invariant_across_thread_counts() {
        let dir = std::env::temp_dir().join("tsdtw-search-explain-test");
        std::fs::create_dir_all(&dir).unwrap();
        let query: Vec<f64> = (0..28).map(|i| (i as f64 * 0.3).sin()).collect();
        let hay: Vec<f64> = (0..600).map(|i| ((i * 3) as f64 * 0.11).sin()).collect();
        let hp = dir.join("hay.txt");
        let qp = dir.join("query.txt");
        write_series(&hp, &hay).unwrap();
        write_series(&qp, &query).unwrap();
        let explain = |threads: &str| {
            let json = dir.join(format!("funnel-{threads}.json"));
            let out = run(&raw(&[
                "--haystack",
                hp.to_str().unwrap(),
                "--query",
                qp.to_str().unwrap(),
                "--threads",
                threads,
                &format!("--explain={}", json.to_str().unwrap()),
            ]))
            .unwrap();
            // The table portion of the output, with the per-thread JSON
            // path line dropped.
            let table: String = out
                .lines()
                .skip_while(|l| *l != "-- explain --")
                .filter(|l| !l.starts_with("funnel JSON written"))
                .map(|l| format!("{l}\n"))
                .collect();
            (table, std::fs::read_to_string(&json).unwrap())
        };
        let (table_1, json_1) = explain("1");
        assert!(table_1.contains("prune funnel:"), "{table_1}");
        assert!(table_1.contains("lb_kim"), "{table_1}");
        assert!(table_1.contains("prune-rate-per-cost ranking"), "{table_1}");
        for threads in ["2", "4", "7"] {
            let (table_n, json_n) = explain(threads);
            assert_eq!(
                table_1, table_n,
                "--explain table must be bitwise identical at --threads {threads}"
            );
            assert_eq!(
                json_1, json_n,
                "funnel JSON must be bitwise identical at --threads {threads}"
            );
        }
    }

    #[test]
    fn query_longer_than_haystack_is_an_error() {
        let dir = std::env::temp_dir().join("tsdtw-search-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let hp = dir.join("hay.txt");
        let qp = dir.join("query.txt");
        write_series(&hp, &[1.0, 2.0]).unwrap();
        write_series(&qp, &[1.0, 2.0, 3.0]).unwrap();
        assert!(run(&raw(&[
            "--haystack",
            hp.to_str().unwrap(),
            "--query",
            qp.to_str().unwrap()
        ]))
        .is_err());
    }
}
