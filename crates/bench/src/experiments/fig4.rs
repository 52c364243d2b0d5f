//! Fig. 4 — Case C head-to-head: all-pairs time on 1,000 random walks of
//! length 450, with the warping parameter swept all the way to 40.
//!
//! Expected shape (paper): the cDTW curve lies below the FastDTW curve —
//! "for Case C we find no evidence of the utility of FastDTW." We assert
//! the matched-parameter orderings (`cDTW_s` vs reference `FastDTW_s`),
//! which hold by enormous margins; the one place implementation constants
//! matter is the degenerate corner r = 0 (a ~40 %-error approximation per
//! the original FastDTW paper's own accuracy numbers), which the report
//! prints but does not gate on.

use tsdtw_datasets::random_walk::random_walks;
use tsdtw_mining::ParConfig;

use super::common::{find, render_rows, sweep_algo, work_sample, Algo, SweepRow};
use crate::report::{Report, Scale};

/// Pairs in the paper's population: 1000 × 999 / 2.
const TARGET_PAIRS: usize = 499_500;

struct Record {
    n: usize,
    walks_cheap: usize,
    walks_ref: usize,
    target_pairs: usize,
    rows: Vec<SweepRow>,
    /// per-pair ratios reference FastDTW_s / cDTW_s at matched settings.
    matched_ratios: Vec<(f64, f64)>,
    /// per-pair ratio: reference FastDTW_10 over cDTW_40.
    ref_fastdtw10_over_cdtw40: f64,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    walks_cheap,
    walks_ref,
    target_pairs,
    rows,
    matched_ratios,
    ref_fastdtw10_over_cdtw40
});

/// Runs the experiment. Timing loops use `par.n_threads` workers; the
/// attached work sample is single-comparison and thread-independent.
pub fn run(scale: &Scale, par: &ParConfig) -> Report {
    let n = 450;
    let cheap = random_walks(scale.pick(40, 120), n, 0xF164).expect("generator");
    let ref_series: Vec<Vec<f64>> = cheap[..scale.pick(6, 16)].to_vec();

    let params: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 5.0, 10.0, 20.0, 30.0, 40.0],
        Scale::Full => (0..=40).step_by(2).map(|w| w as f64).collect(),
    };
    let ref_params: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 10.0, 40.0],
        Scale::Full => vec![0.0, 5.0, 10.0, 20.0, 30.0, 40.0],
    };

    let mut rows = sweep_algo(&cheap, Algo::Cdtw, &params, TARGET_PAIRS, par);
    rows.extend(sweep_algo(
        &ref_series,
        Algo::FastDtwRef,
        &ref_params,
        TARGET_PAIRS,
        par,
    ));
    rows.extend(sweep_algo(
        &cheap,
        Algo::FastDtwTuned,
        &params,
        TARGET_PAIRS,
        par,
    ));

    let per_pair =
        |algo: &str, p: f64| find(&rows, algo, p).map(|r| r.measured_s / r.measured_pairs as f64);
    let matched_ratios: Vec<(f64, f64)> = ref_params
        .iter()
        .filter(|&&p| p > 0.0)
        .filter_map(|&p| Some((p, per_pair("fastdtw_ref", p)? / per_pair("cdtw", p)?)))
        .collect();
    let record = Record {
        n,
        walks_cheap: cheap.len(),
        walks_ref: ref_series.len(),
        target_pairs: TARGET_PAIRS,
        ref_fastdtw10_over_cdtw40: per_pair("fastdtw_ref", 10.0).expect("grid")
            / per_pair("cdtw", 40.0).expect("grid"),
        matched_ratios,
        rows,
    };

    let mut rep = Report::new(
        "fig4",
        format!(
            "Fig. 4: all-pairs time, random walks N=450, w/r up to 40, extrapolated to \
             499,500 pairs ({} walks; {} for the reference implementation)",
            record.walks_cheap, record.walks_ref
        ),
        &record,
    );
    render_rows(&record.rows, &mut rep.lines);
    for (p, ratio) in &record.matched_ratios {
        rep.line(format!(
            "matched setting {p}: reference FastDTW is {ratio:.0}x slower than cDTW \
             [paper: cDTW wins across the sweep]"
        ));
    }
    rep.line(format!(
        "reference FastDTW_10 vs cDTW_40 (widest window Case C needs): {:.0}x slower",
        record.ref_fastdtw10_over_cdtw40
    ));
    rep.attach(
        "work",
        work_sample(&cheap[0], &cheap[1], Some(10.0), Some(10)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_case_c() {
        let rep = run(&Scale::Quick, &ParConfig::new(2).unwrap());
        let v = &rep.json;
        for pair in v["matched_ratios"].as_array().unwrap() {
            let p = pair[0].as_f64().unwrap();
            let ratio = pair[1].as_f64().unwrap();
            assert!(
                ratio > 1.0,
                "cDTW_{p} must beat reference FastDTW_{p} at N=450: ratio {ratio}"
            );
        }
        assert!(
            v["ref_fastdtw10_over_cdtw40"].as_f64().unwrap() > 1.0,
            "even the widest Case C window must beat FastDTW_10: {}",
            v["ref_fastdtw10_over_cdtw40"]
        );
    }
}
