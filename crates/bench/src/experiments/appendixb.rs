//! Appendix B — the independent confirmation: a third party reran their
//! gesture-classification experiment and found that replacing FastDTW_30
//! with the authors' exact cDTW implementation (a) *improved* accuracy by
//! about 5 points (77.38 % → 82.14 %) and (b) was ~24× faster per call
//! (worst case still 5.8×).
//!
//! We rerun the same design on the short-gesture generator: 1-NN
//! classification of a held-out test set, FastDTW_30 versus exact cDTW
//! with a window chosen by LOOCV on the training set, plus a per-call
//! timing comparison on the same pairs.

use std::hint::black_box;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, percent_to_band};
use tsdtw_core::fastdtw::fastdtw_ref_distance;
use tsdtw_datasets::gesture::timing_sensitive_gestures;
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::knn::{evaluate_split, DistanceSpec};
use tsdtw_mining::wselect::{integer_grid, optimal_window};

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};
use crate::timing::time_once;

struct Record {
    series_len: usize,
    train: usize,
    test: usize,
    learned_w_percent: f64,
    accuracy_fastdtw30: f64,
    accuracy_cdtw: f64,
    accuracy_gain_points: f64,
    speed_ratio_fastdtw_over_cdtw: f64,
}

tsdtw_obs::impl_to_json!(Record {
    series_len,
    train,
    test,
    learned_w_percent,
    accuracy_fastdtw30,
    accuracy_cdtw,
    accuracy_gain_points,
    speed_ratio_fastdtw_over_cdtw
});

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let length = scale.pick(64, 128);
    let per_class = scale.pick(8, 16);
    let data = timing_sensitive_gestures(length, 8, per_class, 0xABB1).expect("generator");
    let (train, test) = data.split_stratified(4).expect("split");
    let train_view = LabeledView::new(&train.series, &train.labels).expect("valid");
    let test_view = LabeledView::new(&test.series, &test.labels).expect("valid");

    // Learn w on the training set only (the honest protocol).
    let search = optimal_window(&train_view, &integer_grid(15)).expect("search");
    let w = search.best_w_percent;
    let band = percent_to_band(length, w).expect("valid");

    // The correspondent benchmarked the `fastdtw` package — the reference
    // implementation — so that is what competes here.
    let err_fast =
        evaluate_split(&train_view, &test_view, DistanceSpec::FastDtwRef(30)).expect("eval");
    let err_cdtw =
        evaluate_split(&train_view, &test_view, DistanceSpec::CdtwBand(band)).expect("eval");

    // Per-call timing over the same pair population.
    let reps = scale.pick(300, 3000);
    let t_fast = time_once(|| {
        let mut acc = 0.0;
        for k in 0..reps {
            let x = &train.series[k % train.series.len()];
            let y = &train.series[(k * 5 + 1) % train.series.len()];
            acc += fastdtw_ref_distance(x, y, 30, SquaredCost).expect("valid");
        }
        black_box(acc);
    })
    .as_secs_f64();
    let t_cdtw = time_once(|| {
        let mut acc = 0.0;
        for k in 0..reps {
            let x = &train.series[k % train.series.len()];
            let y = &train.series[(k * 5 + 1) % train.series.len()];
            acc += cdtw_distance(x, y, band, SquaredCost).expect("valid");
        }
        black_box(acc);
    })
    .as_secs_f64();

    let record = Record {
        series_len: length,
        train: train.series.len(),
        test: test.series.len(),
        learned_w_percent: w,
        accuracy_fastdtw30: (1.0 - err_fast) * 100.0,
        accuracy_cdtw: (1.0 - err_cdtw) * 100.0,
        accuracy_gain_points: (err_fast - err_cdtw) * 100.0,
        speed_ratio_fastdtw_over_cdtw: t_fast / t_cdtw,
    };

    let mut rep = Report::new(
        "appendixb",
        format!(
            "Appendix B: gesture 1-NN, FastDTW_30 vs exact cDTW (learned w={w}%), \
             N={length}, {}+{} train/test",
            record.train, record.test
        ),
        &record,
    );
    rep.line(format!(
        "accuracy FastDTW_30: {:.2}%   [paper's correspondent: 77.38%]",
        record.accuracy_fastdtw30
    ));
    rep.line(format!(
        "accuracy exact cDTW: {:.2}%   [paper's correspondent: 82.14%]",
        record.accuracy_cdtw
    ));
    rep.line(format!(
        "accuracy delta: {:+.2} points   [paper: about +5 points for exact cDTW]",
        record.accuracy_gain_points
    ));
    rep.line(format!(
        "speed: exact cDTW is {:.1}x faster per call   [paper: ~24x mean, >=5.8x worst]",
        record.speed_ratio_fastdtw_over_cdtw
    ));
    rep.attach(
        "work",
        super::common::work_sample(&train.series[0], &train.series[1], Some(w), Some(30)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cdtw_is_no_worse_and_much_faster() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let v = &rep.json;
        assert!(
            v["accuracy_cdtw"].as_f64().unwrap() + 1e-9
                >= v["accuracy_fastdtw30"].as_f64().unwrap(),
            "exact cDTW must not lose accuracy to the approximation: {} vs {}",
            v["accuracy_cdtw"],
            v["accuracy_fastdtw30"]
        );
        assert!(
            v["speed_ratio_fastdtw_over_cdtw"].as_f64().unwrap() > 2.0,
            "exact cDTW should be several times faster per call: {}",
            v["speed_ratio_fastdtw_over_cdtw"]
        );
        assert!(
            v["accuracy_cdtw"].as_f64().unwrap() > 30.0,
            "classifier must beat 8-class chance by a wide margin: {}%",
            v["accuracy_cdtw"]
        );
    }
}
