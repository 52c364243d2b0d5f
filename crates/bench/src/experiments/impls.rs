//! `impls` — the implementation-constants table (an extension beyond the
//! paper's artifacts).
//!
//! The paper's timing claims ride on per-call constants: for every length
//! regime the paper visits, this experiment tabulates the per-call cost of
//! exact `cDTW`, the reference FastDTW (the ecosystem's artifact) and the
//! tuned FastDTW (same algorithm, kernel-grade constants). The table makes
//! the repository's central finding quantitative:
//!
//! * the paper's orderings always hold against the reference artifact;
//! * the tuned implementation closes most of the gap and flips only the
//!   long-N/narrow-w regime (Case B);
//! * therefore the paper's result is, for exactly one of its four cases, a
//!   statement about implementations rather than about the algorithm — and
//!   for the other three cases, about both.

use std::hint::black_box;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, percent_to_band};
use tsdtw_core::fastdtw::{fastdtw_distance, fastdtw_ref_distance};
use tsdtw_datasets::random_walk::random_walk;

use tsdtw_mining::ParConfig;

use crate::report::{Report, Scale};
use crate::timing::time_reps;

struct Row {
    regime: String,
    n: usize,
    w_percent: f64,
    radius: usize,
    cdtw_ms: f64,
    tuned_ms: f64,
    reference_ms: f64,
}

tsdtw_obs::impl_to_json!(Row {
    regime,
    n,
    w_percent,
    radius,
    cdtw_ms,
    tuned_ms,
    reference_ms
});

struct Record {
    rows: Vec<Row>,
}

tsdtw_obs::impl_to_json!(Record { rows });

/// Runs the experiment.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    // (regime label, N, w%, r) — one row per paper regime.
    let configs: Vec<(&str, usize, f64, usize)> = vec![
        ("Case A (search scale)", 128, 5.0, 10),
        ("Case A (UWave)", 945, 4.0, 10),
        ("Case C (power)", 450, 40.0, 40),
        ("Case B (music)", scale.pick(4_000, 24_000), 0.83, 10),
    ];
    let reps = scale.pick(3, 10);
    let ref_reps = scale.pick(1, 3);

    let mut rows = Vec::new();
    for (regime, n, w, r) in configs {
        let x = random_walk(n, 0x1111 + n as u64).expect("generator");
        let y = random_walk(n, 0x2222 + n as u64).expect("generator");
        let band = percent_to_band(n, w).expect("valid w");
        let cdtw = time_reps(reps, || {
            black_box(cdtw_distance(&x, &y, band, SquaredCost).expect("valid"));
        });
        let tuned = time_reps(reps, || {
            black_box(fastdtw_distance(&x, &y, r, SquaredCost).expect("valid"));
        });
        let reference = time_reps(ref_reps, || {
            black_box(fastdtw_ref_distance(&x, &y, r, SquaredCost).expect("valid"));
        });
        rows.push(Row {
            regime: regime.into(),
            n,
            w_percent: w,
            radius: r,
            cdtw_ms: cdtw.mean_ms(),
            tuned_ms: tuned.mean_ms(),
            reference_ms: reference.mean_ms(),
        });
    }

    let record = Record { rows };
    let mut rep = Report::new(
        "impls",
        "Extension: per-call implementation constants across the paper's regimes",
        &record,
    );
    rep.line(format!(
        "{:<24}{:>7}{:>7}{:>5}{:>14}{:>14}{:>14}",
        "regime", "N", "w%", "r", "cDTW (ms)", "tuned (ms)", "reference (ms)"
    ));
    for r in &record.rows {
        rep.line(format!(
            "{:<24}{:>7}{:>7}{:>5}{:>14.3}{:>14.3}{:>14.3}",
            r.regime, r.n, r.w_percent, r.radius, r.cdtw_ms, r.tuned_ms, r.reference_ms
        ));
    }
    rep.line(
        "reading: reference/cDTW is the paper's measured gap; tuned/cDTW is the \
         algorithm's inherent gap."
            .to_string(),
    );
    let wx = random_walk(450, 0x1111 + 450).expect("generator");
    let wy = random_walk(450, 0x2222 + 450).expect("generator");
    rep.attach(
        "work",
        super::common::work_sample(&wx, &wy, Some(40.0), Some(40)),
    );
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_table_tells_the_expected_story() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let rows = rep.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            let cdtw = row["cdtw_ms"].as_f64().unwrap();
            let reference = row["reference_ms"].as_f64().unwrap();
            assert!(
                reference > cdtw,
                "reference FastDTW must lose to cDTW in every regime: {row}"
            );
        }
        // Case B is where the tuned implementation flips the ordering.
        let case_b = rows
            .iter()
            .find(|r| r["regime"].as_str().unwrap().starts_with("Case B"))
            .unwrap();
        assert!(
            case_b["tuned_ms"].as_f64().unwrap() < case_b["reference_ms"].as_f64().unwrap(),
            "tuned must beat reference in Case B"
        );
    }
}
