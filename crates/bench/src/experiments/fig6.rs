//! Fig. 5 + Fig. 6 — Case D: the fall-alignment thought experiment.
//! Early-fall vs late-fall pairs of length `L` seconds at 100 Hz require
//! `cDTW_100` (full DTW); sweep `L` and find where `FastDTW_40` finally
//! becomes faster than the exact computation.
//!
//! Paper's finding: the crossover is at L = 4 (N = 400). The crossover
//! point is a pure constant-factor race (`c₁·N²` vs `c₂·N`), so it depends
//! on the FastDTW implementation: our tuned FastDTW crosses at
//! small-hundreds N, closely matching the paper; the canonical reference
//! implementation's constants push its crossover far beyond any L in the
//! sweep. Both are reported.

use std::hint::black_box;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::full::dtw_distance;
use tsdtw_core::fastdtw::{fastdtw_distance, fastdtw_ref_distance};
use tsdtw_datasets::fall::{pair, HZ};

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};
use crate::timing::time_reps;

struct Row {
    l_seconds: f64,
    n: usize,
    full_dtw_ms: f64,
    tuned_fastdtw_40_ms: f64,
    ref_fastdtw_40_ms: Option<f64>,
    fastdtw_aligns_falls: bool,
}

tsdtw_obs::impl_to_json!(Row {
    l_seconds,
    n,
    full_dtw_ms,
    tuned_fastdtw_40_ms,
    ref_fastdtw_40_ms,
    fastdtw_aligns_falls
});

struct Record {
    rows: Vec<Row>,
    tuned_crossover_l: Option<f64>,
    ref_crossover_l: Option<f64>,
}

tsdtw_obs::impl_to_json!(Record {
    rows,
    tuned_crossover_l,
    ref_crossover_l
});

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let ls: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 2.0, 4.0, 8.0, 16.0],
        Scale::Full => vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0],
    };
    // The reference implementation costs seconds per call at large L;
    // sample it where it is affordable.
    let ref_ls: Vec<f64> = match scale {
        Scale::Quick => vec![1.0, 4.0],
        Scale::Full => vec![1.0, 2.0, 4.0, 8.0, 16.0],
    };
    let reps = scale.pick(3, 15);
    let ref_reps = scale.pick(1, 3);

    let mut rows = Vec::new();
    for &l in &ls {
        let p = pair(l, 0xF165 + (l * 10.0) as u64).expect("generator");
        let full = time_reps(reps, || {
            black_box(dtw_distance(&p.early, &p.late, SquaredCost).expect("valid"));
        });
        let tuned = time_reps(reps, || {
            black_box(fastdtw_distance(&p.early, &p.late, 40, SquaredCost).expect("valid"));
        });
        let reference = if ref_ls.contains(&l) {
            Some(
                time_reps(ref_reps, || {
                    black_box(
                        fastdtw_ref_distance(&p.early, &p.late, 40, SquaredCost).expect("valid"),
                    );
                })
                .mean_s
                    * 1e3,
            )
        } else {
            None
        };
        // The paper "does not test if FastDTW_40 actually aligns the two
        // falls, we simply assume it does" — we do test, as a bonus.
        let exact = dtw_distance(&p.early, &p.late, SquaredCost).expect("valid");
        let approx = fastdtw_distance(&p.early, &p.late, 40, SquaredCost).expect("valid");
        let aligns = approx <= exact.max(1e-9) * 3.0 + 1.0;
        rows.push(Row {
            l_seconds: l,
            n: p.len,
            full_dtw_ms: full.mean_s * 1e3,
            tuned_fastdtw_40_ms: tuned.mean_s * 1e3,
            ref_fastdtw_40_ms: reference,
            fastdtw_aligns_falls: aligns,
        });
    }

    let tuned_crossover_l = rows
        .iter()
        .find(|r| r.tuned_fastdtw_40_ms < r.full_dtw_ms)
        .map(|r| r.l_seconds);
    let ref_crossover_l = rows
        .iter()
        .find(|r| {
            r.ref_fastdtw_40_ms
                .map(|f| f < r.full_dtw_ms)
                .unwrap_or(false)
        })
        .map(|r| r.l_seconds);

    let record = Record {
        rows,
        tuned_crossover_l,
        ref_crossover_l,
    };

    let mut rep = Report::new(
        "fig6",
        format!("Fig. 6: early/late falls at {HZ} Hz — where does FastDTW_40 beat cDTW_100?"),
        &record,
    );
    rep.line(format!(
        "{:>6}{:>8}{:>16}{:>15}{:>14}{:>9}",
        "L (s)", "N", "cDTW_100 (ms)", "tuned_40 (ms)", "ref_40 (ms)", "aligns?"
    ));
    for r in record.rows.iter() {
        rep.line(format!(
            "{:>6}{:>8}{:>16.3}{:>15.3}{:>14}{:>9}",
            r.l_seconds,
            r.n,
            r.full_dtw_ms,
            r.tuned_fastdtw_40_ms,
            r.ref_fastdtw_40_ms
                .map_or("-".into(), |v| format!("{v:.1}")),
            r.fastdtw_aligns_falls
        ));
    }
    match record.tuned_crossover_l {
        Some(l) => rep.line(format!(
            "tuned FastDTW_40 first beats exact cDTW_100 at L = {l} (N = {})  \
             [paper: L = 4, N = 400]",
            (l * HZ as f64) as usize
        )),
        None => rep.line("tuned FastDTW_40 never won in the measured range".to_string()),
    }
    match record.ref_crossover_l {
        Some(l) => rep.line(format!("reference FastDTW_40 first wins at L = {l}")),
        None => rep.line(
            "reference FastDTW_40 never beat exact full DTW in the measured range \
             (its constants push the crossover far beyond the paper's L = 4)"
                .to_string(),
        ),
    }
    rep.line(
        "note: at the crossover FastDTW_40 merely approximates the cDTW_100 result it ties."
            .to_string(),
    );
    let wp = pair(1.0, 0xF165 + 10).expect("generator");
    rep.attach(
        "work",
        super::common::work_sample(&wp.early, &wp.late, Some(100.0), Some(40)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_has_full_dtw_winning_at_small_l() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let rows = rep.json["rows"].as_array().unwrap();
        let first = &rows[0];
        assert!(
            first["full_dtw_ms"].as_f64().unwrap() < first["tuned_fastdtw_40_ms"].as_f64().unwrap(),
            "at L=1 s (N=100) exact full DTW must beat even tuned FastDTW_40"
        );
        assert!(
            first["full_dtw_ms"].as_f64().unwrap() < first["ref_fastdtw_40_ms"].as_f64().unwrap(),
            "at L=1 s exact full DTW must beat reference FastDTW_40"
        );
        // FastDTW with r=40 does find the fall alignment on this data.
        assert!(first["fastdtw_aligns_falls"].as_bool().unwrap());
    }
}
