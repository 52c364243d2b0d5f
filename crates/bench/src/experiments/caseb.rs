//! Case B (§3.2) — long series, narrow natural warping: aligning a studio
//! recording with a live performance. N = 24,000 (four minutes of chroma
//! features at 100 Hz), drift ≤ 2 s ⇒ w = 0.83 %.
//!
//! Paper's numbers (their hardware): `cDTW_0.83` 45.6 ms,
//! `FastDTW_10` 238.2 ms, `FastDTW_40` 350.9 ms. The claim under test is
//! the ordering against the canonical FastDTW implementation. The tuned
//! FastDTW is reported as an extension — Case B is the one regime where a
//! kernel-sharing FastDTW actually flips the ordering (see
//! EXPERIMENTS.md).

use std::hint::black_box;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, percent_to_band};
use tsdtw_core::fastdtw::{fastdtw_distance, fastdtw_ref_distance};
use tsdtw_datasets::music::performance_pair;

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};
use crate::timing::{time_reps, Timing};

struct Record {
    n: usize,
    w_percent: f64,
    band_cells: usize,
    cdtw: Timing,
    ref_fastdtw_10: Timing,
    ref_fastdtw_40: Timing,
    tuned_fastdtw_10: Timing,
    ref10_over_cdtw: f64,
    ref40_over_cdtw: f64,
    tuned10_over_cdtw: f64,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    w_percent,
    band_cells,
    cdtw,
    ref_fastdtw_10,
    ref_fastdtw_40,
    tuned_fastdtw_10,
    ref10_over_cdtw,
    ref40_over_cdtw,
    tuned10_over_cdtw
});

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let n = scale.pick(4_000, 24_000);
    let w = 0.83;
    // Drift scales with n so w stays semantically right.
    let drift = n as f64 * w / 100.0;
    let pair = performance_pair(n, drift, 0xCA5B).expect("generator");
    let band = percent_to_band(n, w).expect("valid w");
    let reps = scale.pick(3, 20);
    let ref_reps = scale.pick(1, 3);

    let cdtw = time_reps(reps, || {
        black_box(cdtw_distance(&pair.studio, &pair.live, band, SquaredCost).expect("valid"));
    });
    let ref10 = time_reps(ref_reps, || {
        black_box(fastdtw_ref_distance(&pair.studio, &pair.live, 10, SquaredCost).expect("valid"));
    });
    let ref40 = time_reps(ref_reps, || {
        black_box(fastdtw_ref_distance(&pair.studio, &pair.live, 40, SquaredCost).expect("valid"));
    });
    let tuned10 = time_reps(reps, || {
        black_box(fastdtw_distance(&pair.studio, &pair.live, 10, SquaredCost).expect("valid"));
    });

    let record = Record {
        n,
        w_percent: w,
        band_cells: band,
        cdtw,
        ref_fastdtw_10: ref10,
        ref_fastdtw_40: ref40,
        tuned_fastdtw_10: tuned10,
        ref10_over_cdtw: ref10.mean_s / cdtw.mean_s,
        ref40_over_cdtw: ref40.mean_s / cdtw.mean_s,
        tuned10_over_cdtw: tuned10.mean_s / cdtw.mean_s,
    };

    let mut rep = Report::new(
        "caseb",
        format!("Case B: score alignment, N={n}, w=0.83% (band {band} cells)"),
        &record,
    );
    rep.line(format!(
        "cDTW_0.83              {:>10.1} ms   [paper: 45.6 ms]",
        record.cdtw.mean_ms()
    ));
    rep.line(format!(
        "FastDTW_10 (reference) {:>10.1} ms   [paper: 238.2 ms]  ({:.1}x slower than cDTW)",
        record.ref_fastdtw_10.mean_ms(),
        record.ref10_over_cdtw
    ));
    rep.line(format!(
        "FastDTW_40 (reference) {:>10.1} ms   [paper: 350.9 ms]  ({:.1}x slower than cDTW)",
        record.ref_fastdtw_40.mean_ms(),
        record.ref40_over_cdtw
    ));
    rep.line(format!(
        "FastDTW_10 (tuned)     {:>10.1} ms   extension: {:.2}x vs cDTW — a kernel-sharing \
         FastDTW can win Case B, but no such implementation existed in the surveyed ecosystem",
        record.tuned_fastdtw_10.mean_ms(),
        record.tuned10_over_cdtw
    ));
    rep.attach(
        "work",
        super::common::work_sample(&pair.studio, &pair.live, Some(w), Some(10)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_the_ordering() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let v = &rep.json;
        assert!(
            v["ref10_over_cdtw"].as_f64().unwrap() > 1.0,
            "reference FastDTW_10 must be slower than cDTW_0.83: {}",
            v["ref10_over_cdtw"]
        );
        assert!(
            v["ref40_over_cdtw"].as_f64().unwrap() > v["ref10_over_cdtw"].as_f64().unwrap(),
            "larger radius must cost more"
        );
    }
}
