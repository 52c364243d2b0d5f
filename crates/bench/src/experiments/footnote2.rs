//! §3.4 / footnote 2 — the repeated-use argument. The paper: averaged over
//! a million comparisons, `FastDTW_10` takes 0.1845 ms at N = 128, so a
//! trillion comparisons would take 5.8 years; Rakthanmanon et al. searched
//! a *trillion-point* series with a `cDTW_5` query of length 128 in 1.4
//! days, using the cDTW-only stack (lower bounds, early abandoning,
//! just-in-time normalization).
//!
//! We measure four rates on this machine — reference FastDTW_10, tuned
//! FastDTW_10, plain cDTW_5, and the UCR-style subsequence searcher's
//! throughput in haystack points per second — and extrapolate all of them
//! to the trillion scale.

use std::hint::black_box;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, percent_to_band};
use tsdtw_core::fastdtw::{fastdtw_distance, fastdtw_ref_distance};
use tsdtw_datasets::random_walk::{random_walk, random_walks};
use tsdtw_mining::search::subsequence_search;

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};
use crate::timing::{human, time_once};

const N: usize = 128;
const TRILLION: f64 = 1e12;

struct Record {
    n: usize,
    ref_fastdtw10_per_call_ms: f64,
    tuned_fastdtw10_per_call_ms: f64,
    cdtw5_per_call_ms: f64,
    ref_fastdtw_trillion_s: f64,
    tuned_fastdtw_trillion_s: f64,
    cdtw_brute_trillion_s: f64,
    search_points_per_s: f64,
    search_trillion_s: f64,
    search_prune_rate: f64,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    ref_fastdtw10_per_call_ms,
    tuned_fastdtw10_per_call_ms,
    cdtw5_per_call_ms,
    ref_fastdtw_trillion_s,
    tuned_fastdtw_trillion_s,
    cdtw_brute_trillion_s,
    search_points_per_s,
    search_trillion_s,
    search_prune_rate
});

fn per_call(calls: usize, mut f: impl FnMut(usize) -> f64) -> f64 {
    time_once(|| {
        let mut acc = 0.0;
        for k in 0..calls {
            acc += f(k);
        }
        black_box(acc);
    })
    .as_secs_f64()
        / calls as f64
}

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let pool = random_walks(64, N, 0xF166).expect("generator");
    let band = percent_to_band(N, 5.0).expect("valid w");
    let x = |k: usize| &pool[k % 64];
    let y = |k: usize| &pool[(k * 7 + 13) % 64];

    let cheap_calls = scale.pick(5_000, 100_000);
    let ref_calls = scale.pick(200, 5_000);

    let ref_per = per_call(ref_calls, |k| {
        fastdtw_ref_distance(x(k), y(k), 10, SquaredCost).expect("valid")
    });
    let tuned_per = per_call(cheap_calls, |k| {
        fastdtw_distance(x(k), y(k), 10, SquaredCost).expect("valid")
    });
    let cdtw_per = per_call(cheap_calls, |k| {
        cdtw_distance(x(k), y(k), band, SquaredCost).expect("valid")
    });

    // Subsequence-search throughput: every window of the haystack is one
    // candidate comparison, so points/second ≈ comparisons/second.
    let hay_len = scale.pick(200_000, 2_000_000);
    let haystack = random_walk(hay_len, 0xF167).expect("generator");
    let query = random_walk(N, 0xF168).expect("generator");
    let mut stats = None;
    let search_t = time_once(|| {
        let r = subsequence_search(&haystack, &query, band).expect("valid");
        stats = Some(r.stats);
        black_box(r.distance);
    })
    .as_secs_f64();
    let stats = stats.expect("search ran");
    let pts_per_s = hay_len as f64 / search_t;

    let record = Record {
        n: N,
        ref_fastdtw10_per_call_ms: ref_per * 1e3,
        tuned_fastdtw10_per_call_ms: tuned_per * 1e3,
        cdtw5_per_call_ms: cdtw_per * 1e3,
        ref_fastdtw_trillion_s: ref_per * TRILLION,
        tuned_fastdtw_trillion_s: tuned_per * TRILLION,
        cdtw_brute_trillion_s: cdtw_per * TRILLION,
        search_points_per_s: pts_per_s,
        search_trillion_s: TRILLION / pts_per_s,
        search_prune_rate: stats.prune_rate(),
    };

    let mut rep = Report::new(
        "footnote2",
        format!("Footnote 2 / §3.4: the trillion-comparison extrapolation (N={N})"),
        &record,
    );
    rep.line(format!(
        "FastDTW_10 (reference): {:.4} ms/call  [paper: 0.1845 ms] -> 10^12 comparisons in {}  [paper: 5.8 years]",
        record.ref_fastdtw10_per_call_ms,
        human(record.ref_fastdtw_trillion_s)
    ));
    rep.line(format!(
        "FastDTW_10 (tuned):     {:.4} ms/call -> 10^12 comparisons in {}",
        record.tuned_fastdtw10_per_call_ms,
        human(record.tuned_fastdtw_trillion_s)
    ));
    rep.line(format!(
        "plain cDTW_5:           {:.4} ms/call -> 10^12 comparisons in {}",
        record.cdtw5_per_call_ms,
        human(record.cdtw_brute_trillion_s)
    ));
    rep.line(format!(
        "UCR-style cDTW_5 subsequence search: {:.0} points/s ({:.0}% pruned before DP) \
         -> one trillion points in {}  [paper: 1.4 days on 2012 hardware]",
        record.search_points_per_s,
        record.search_prune_rate * 100.0,
        human(record.search_trillion_s)
    ));
    rep.attach(
        "work",
        super::common::work_sample(x(0), y(0), Some(5.0), Some(10)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_pipeline_dwarfs_fastdtw_at_scale() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let v = &rep.json;
        assert!(
            v["cdtw5_per_call_ms"].as_f64().unwrap()
                < v["ref_fastdtw10_per_call_ms"].as_f64().unwrap(),
            "plain cDTW_5 must beat reference FastDTW_10 per call at N=128"
        );
        assert!(
            v["search_trillion_s"].as_f64().unwrap()
                < v["ref_fastdtw_trillion_s"].as_f64().unwrap() / 100.0,
            "the search stack must be >100x faster than reference FastDTW at trillion scale"
        );
    }
}
