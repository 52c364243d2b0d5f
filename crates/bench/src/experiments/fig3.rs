//! Fig. 3 — the Case C motivating example: two midnight-to-1AM power
//! demand traces (N = 450, one sample per 8 s) sharing a dishwasher
//! program whose timing shifts by ~153 samples ⇒ W ≈ 34 %, rounded to 40 %.
//!
//! This artifact is qualitative in the paper (a data plot); the
//! reproduction verifies the geometry: the peak shift matches, a 40 %
//! window aligns the program where lock-step comparison cannot, and the
//! optimal warping path actually deviates by about the peak shift.

use tsdtw_core::cost::SquaredCost;
use tsdtw_core::distance::sq_euclidean;
use tsdtw_core::dtw::banded::{cdtw_with_path, percent_to_band};
use tsdtw_datasets::power::{fig3_pair, MORNING_LEN};

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};

struct Record {
    n: usize,
    peak_shift_samples: i64,
    w_estimate_percent: f64,
    cdtw40: f64,
    euclidean: f64,
    alignment_gain: f64,
    path_max_deviation: usize,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    peak_shift_samples,
    w_estimate_percent,
    cdtw40,
    euclidean,
    alignment_gain,
    path_max_deviation
});

/// Runs the experiment.
pub fn run(_scale: &Scale, _par: &ParConfig) -> Report {
    let (early, late) = fig3_pair(0xF163).expect("generator");
    let shift = late.peak_centers[0] as i64 - early.peak_centers[0] as i64;
    let w_est = shift as f64 / MORNING_LEN as f64 * 100.0;

    let band = percent_to_band(MORNING_LEN, 40.0).expect("valid w");
    let (d40, path) =
        cdtw_with_path(&early.series, &late.series, band, SquaredCost).expect("valid");
    let e = sq_euclidean(&early.series, &late.series).expect("equal lengths");

    let record = Record {
        n: MORNING_LEN,
        peak_shift_samples: shift,
        w_estimate_percent: w_est,
        cdtw40: d40,
        euclidean: e,
        alignment_gain: e / d40,
        path_max_deviation: path.max_diagonal_deviation(),
    };

    let mut rep = Report::new(
        "fig3",
        "Fig. 3: dishwasher program in two power-demand mornings (N=450)",
        &record,
    );
    rep.line(format!(
        "peak timing shift: {} samples -> W estimate {:.0}%  [paper: 153 samples, W=34%]",
        record.peak_shift_samples, record.w_estimate_percent
    ));
    rep.line(format!(
        "cDTW_40 = {:.3}  vs  squared Euclidean = {:.3}  ({:.1}x better aligned)",
        record.cdtw40, record.euclidean, record.alignment_gain
    ));
    rep.line(format!(
        "optimal path deviates up to {} cells from the diagonal (needs a wide window)",
        record.path_max_deviation
    ));
    rep.attach(
        "work",
        super::common::work_sample(&early.series, &late.series, Some(40.0), None),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_datasets::power::PAPER_MAX_SHIFT;

    #[test]
    fn geometry_matches_the_paper() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let v = &rep.json;
        let shift = v["peak_shift_samples"].as_i64().unwrap();
        assert!((shift - PAPER_MAX_SHIFT as i64).abs() <= 6, "shift {shift}");
        assert!(v["alignment_gain"].as_f64().unwrap() > 2.0);
        // The warping really uses a large fraction of N.
        let dev = v["path_max_deviation"].as_u64().unwrap();
        assert!(dev as f64 > 0.2 * MORNING_LEN as f64, "deviation {dev}");
    }
}
