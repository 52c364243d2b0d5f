//! Fig. 1 — all-pairs comparison time on a UWave-like dataset (N = 945):
//! `FastDTW_r` for r = 0..20 versus `cDTW_w` for w = 0..20 %.
//!
//! The paper's population is the 896 training exemplars of
//! UWaveGestureLibraryAll (400,960 pairs); we measure scaled-down
//! populations and extrapolate linearly (per-pair cost is independent of
//! which pair is measured), reporting both numbers. The reference FastDTW
//! is far slower per call, so it gets a smaller pair budget than the
//! cheap algorithms.
//!
//! Expected shape (paper): even the *coarsest* FastDTW (r = 0) is slower
//! than `cDTW_4` (the dataset's optimal window), and `cDTW_20` is much
//! faster than the serviceable `FastDTW_10`. As an extension we also
//! measure the tuned FastDTW that shares cDTW's kernel — no such
//! implementation existed in the ecosystem the paper surveys.

use tsdtw_datasets::gesture::{uwave_like, GestureConfig};
use tsdtw_mining::ParConfig;

use super::common::{find, render_rows, sweep_algo, work_sample, Algo, SweepRow};
use crate::report::{Report, Scale};

/// Pairs in the paper's population: 896 × 895 / 2.
const TARGET_PAIRS: usize = 400_960;

struct Record {
    n: usize,
    exemplars_cheap: usize,
    exemplars_ref: usize,
    target_pairs: usize,
    rows: Vec<SweepRow>,
    /// per-pair ratio: reference FastDTW_0 over cDTW_4 (paper: > 1).
    ref_fastdtw0_over_cdtw4: f64,
    /// per-pair ratio: reference FastDTW_10 over cDTW_20 (paper: >= 1).
    ref_fastdtw10_over_cdtw20: f64,
    /// per-pair ratio: tuned FastDTW_10 over cDTW_4 (extension).
    tuned_fastdtw10_over_cdtw4: f64,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    exemplars_cheap,
    exemplars_ref,
    target_pairs,
    rows,
    ref_fastdtw0_over_cdtw4,
    ref_fastdtw10_over_cdtw20,
    tuned_fastdtw10_over_cdtw4
});

/// Runs the experiment. Timing loops use `par.n_threads` workers; the
/// attached work sample is single-comparison and thread-independent.
pub fn run(scale: &Scale, par: &ParConfig) -> Report {
    let cheap_exemplars = scale.pick(32, 96);
    let ref_exemplars = scale.pick(6, 24);
    let config = GestureConfig {
        length: 945,
        n_classes: 8,
        per_class: cheap_exemplars / 8,
        ..GestureConfig::default()
    };
    let data = uwave_like(&config, 0xF161).expect("generator");
    let series = data.series;
    let ref_series: Vec<Vec<f64>> = series[..ref_exemplars].to_vec();

    let params: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 15.0, 20.0],
        Scale::Full => (0..=20).map(|w| w as f64).collect(),
    };
    // The reference implementation is 1-2 orders of magnitude slower per
    // call; sample its curve at fewer points under --quick.
    let ref_params: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 2.0, 4.0, 10.0, 20.0],
        Scale::Full => params.clone(),
    };

    let mut rows = sweep_algo(&series, Algo::Cdtw, &params, TARGET_PAIRS, par);
    rows.extend(sweep_algo(
        &ref_series,
        Algo::FastDtwRef,
        &ref_params,
        TARGET_PAIRS,
        par,
    ));
    rows.extend(sweep_algo(
        &series,
        Algo::FastDtwTuned,
        &params,
        TARGET_PAIRS,
        par,
    ));

    let per_pair = |algo: &str, p: f64| {
        let r = find(&rows, algo, p).expect("grid covers headline params");
        r.measured_s / r.measured_pairs as f64
    };
    let record = Record {
        n: 945,
        exemplars_cheap: series.len(),
        exemplars_ref: ref_series.len(),
        target_pairs: TARGET_PAIRS,
        ref_fastdtw0_over_cdtw4: per_pair("fastdtw_ref", 0.0) / per_pair("cdtw", 4.0),
        ref_fastdtw10_over_cdtw20: per_pair("fastdtw_ref", 10.0) / per_pair("cdtw", 20.0),
        tuned_fastdtw10_over_cdtw4: per_pair("fastdtw_tuned", 10.0) / per_pair("cdtw", 4.0),
        rows,
    };

    let mut rep = Report::new(
        "fig1",
        format!(
            "Fig. 1: all-pairs time, UWave-like N=945, extrapolated to 400,960 pairs \
             ({} exemplars; {} for the reference implementation)",
            record.exemplars_cheap, record.exemplars_ref
        ),
        &record,
    );
    render_rows(&record.rows, &mut rep.lines);
    rep.line(format!(
        "reference FastDTW_0 vs cDTW_4 (optimal w): FastDTW {:.1}x slower  [paper: slower]",
        record.ref_fastdtw0_over_cdtw4
    ));
    rep.line(format!(
        "reference FastDTW_10 vs cDTW_20: FastDTW {:.1}x slower  [paper: about as fast or slower]",
        record.ref_fastdtw10_over_cdtw20
    ));
    rep.line(format!(
        "extension — tuned FastDTW_10 vs cDTW_4: {:.2}x (a kernel-sharing FastDTW narrows \
         but does not close Case A)",
        record.tuned_fastdtw10_over_cdtw4
    ));
    rep.attach(
        "work",
        work_sample(&series[0], &series[1], Some(4.0), Some(10)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_papers_ordering() {
        let rep = run(&Scale::Quick, &ParConfig::new(2).unwrap());
        let v = &rep.json;
        assert!(
            v["ref_fastdtw0_over_cdtw4"].as_f64().unwrap() > 1.0,
            "cDTW_4 must beat even reference FastDTW_0: ratio {}",
            v["ref_fastdtw0_over_cdtw4"]
        );
        assert!(
            v["ref_fastdtw10_over_cdtw20"].as_f64().unwrap() > 1.0,
            "cDTW_20 must beat reference FastDTW_10: ratio {}",
            v["ref_fastdtw10_over_cdtw20"]
        );
        assert_eq!(v["rows"].as_array().unwrap().len(), 9 + 5 + 9);
        assert!(!rep.render().is_empty());
    }
}
