//! `funnel` — per-stage prune-funnel analytics for cascaded 1-NN
//! (DESIGN.md §14): where do candidates die, and what does each stage's
//! verdict cost?
//!
//! §3.4's "two to five further orders of magnitude" is a statement
//! about a *funnel*: cheap bounds in front of the DP kernel dismiss
//! almost every candidate before it gets expensive. This experiment
//! pins that funnel's shape. Four fixed cases reuse the `kernels` /
//! `memory` shapes — A1/A2 are UCR-scale ECG exemplar pools
//! (N = 128, 512), B1/B2 long random-walk pools (N = 2048, 4096), all
//! with a 10 % Sakoe–Chiba band. Per case, one cascaded 1-NN query
//! runs over the pool and the [`WorkMeter`]'s funnel ledger records,
//! per stage (`lb_kim`, `lb_keogh_qc`, `lb_keogh_cq`, `dtw`):
//!
//! * **dispositions** — candidates entered / pruned / survived, exact
//!   integers, a pure function of the workload (thread-count and
//!   kernel-tier invariant, so `BENCH_funnel.json` diffs at zero
//!   tolerance);
//! * **cost units** — the deterministic per-stage cost proxies of
//!   DESIGN.md §14 (Kim = 1, Keogh-QC = N, Keogh-CQ = 3N, DTW = rows
//!   filled × band width), attributing where the cascade's budget goes;
//! * **bound tightness** — `LB / true cDTW` quantiles on the
//!   candidates that reached an exact distance (floats, advisory).
//!
//! The queries run through the deterministic parallel executor with
//! the `--threads` worker count; the funnel's shard-merge algebra is
//! plain counter addition, so the merged ledger is bitwise identical
//! at any thread count (pinned by `tests/parallel_equivalence.rs`).

use tsdtw_core::obs::WorkMeter;
use tsdtw_datasets::ecg::beats;
use tsdtw_datasets::random_walk::random_walks;
use tsdtw_mining::knn::nn_cascade_par;
use tsdtw_mining::{LabeledView, ParConfig};
use tsdtw_obs::{
    recorder_active, recorder_counter_samples, recorder_handoff, CounterSample, FunnelStage,
};

use crate::report::{Report, Scale};

struct Row {
    case: String,
    n: usize,
    band: usize,
    /// Candidates the query's cascade examined (pool size − 1).
    candidates: u64,
    kim_pruned: u64,
    keogh_qc_pruned: u64,
    keogh_cq_pruned: u64,
    /// Early-abandoned inside the DP (entered `dtw`, died there).
    dtw_abandoned: u64,
    /// Candidates that paid for an exact distance.
    dtw_exact: u64,
    /// Sum of every stage's deterministic cost proxy.
    total_cost_units: u64,
}

tsdtw_obs::impl_to_json!(Row {
    case,
    n,
    band,
    candidates,
    kim_pruned,
    keogh_qc_pruned,
    keogh_cq_pruned,
    dtw_abandoned,
    dtw_exact,
    total_cost_units
});

struct Record {
    band_percent: f64,
    queries_per_case: usize,
    rows: Vec<Row>,
}

tsdtw_obs::impl_to_json!(Record {
    band_percent,
    queries_per_case,
    rows
});

/// Runs `queries` leave-one-out cascaded 1-NN queries over `pool`,
/// merging all funnel/work accounting into `total`.
fn probe_case(
    case: &str,
    pool: &[Vec<f64>],
    band: usize,
    queries: usize,
    par: &ParConfig,
    total: &mut WorkMeter,
) -> Row {
    let labels: Vec<usize> = (0..pool.len()).collect();
    let view = LabeledView::new(pool, &labels).expect("valid pool");
    let mut m = WorkMeter::new();
    for (q, query) in pool.iter().enumerate().take(queries.min(pool.len())) {
        nn_cascade_par(&view, query, band, q, par, &mut m).expect("valid query");
    }
    let f = &m.funnel;
    let row = Row {
        case: case.into(),
        n: pool[0].len(),
        band,
        candidates: f.candidates(),
        kim_pruned: f.stage(FunnelStage::Kim).pruned,
        keogh_qc_pruned: f.stage(FunnelStage::KeoghQC).pruned,
        keogh_cq_pruned: f.stage(FunnelStage::KeoghCQ).pruned,
        dtw_abandoned: f.stage(FunnelStage::Dtw).pruned,
        dtw_exact: f.stage(FunnelStage::Dtw).survived(),
        total_cost_units: f.total_cost_units(),
    };
    total.merge(&m);
    row
}

/// The pinned scheduling chunk. The scan's frozen best-so-far only
/// advances between chunks, so at the executor's default (64) a
/// quick-scale pool fits in one chunk, the bound stays at infinity,
/// and *nothing* prunes — a funnel with no funnel. A chunk of 4 lets
/// the bound tighten every few candidates, so the snapshot pins the
/// cascade actually working. The dispositions stay a pure function of
/// this constant (never of `--threads`).
const FUNNEL_CHUNK: usize = 4;

/// Runs the experiment. The disposition and cost columns are exact
/// integers — deterministic for the fixed seeds at any `--threads` —
/// so `BENCH_funnel.json`'s `funnel` section gates at zero tolerance;
/// the tightness quantiles inside it are floats and stay advisory.
pub fn run(scale: &Scale, par: &ParConfig) -> Report {
    let par = &ParConfig::with_chunk(par.n_threads, FUNNEL_CHUNK).expect("valid chunk");
    let band_percent = 10.0;
    let queries_per_case = scale.pick(2, 8);
    let pool_a = scale.pick(24, 80);
    let pool_b = scale.pick(12, 40);

    let mut total = WorkMeter::new();
    let mut rows = Vec::new();
    for &(case, n) in &[("A1", 128usize), ("A2", 512)] {
        let pool = beats(pool_a, n, 0x4B31).expect("generator");
        let band = (n as f64 * band_percent / 100.0).ceil() as usize;
        rows.push(probe_case(
            case,
            &pool,
            band,
            queries_per_case,
            par,
            &mut total,
        ));
    }
    for &(case, n) in &[("B1", 2048usize), ("B2", 4096)] {
        let pool = random_walks(pool_b, n, 0x4B32).expect("generator");
        let band = (n as f64 * band_percent / 100.0).ceil() as usize;
        rows.push(probe_case(
            case,
            &pool,
            band,
            queries_per_case,
            par,
            &mut total,
        ));
    }

    // When the flight recorder is armed (`repro --trace`), drop one
    // sample per stage counter onto the trace's counter tracks, under
    // the `--metrics` exposition's `tsdtw_cascade_stage_*` names.
    if recorder_active() {
        if let Some(handoff) = recorder_handoff() {
            let ts_us = handoff.elapsed_us();
            let mut samples = Vec::new();
            for stage in FunnelStage::ALL {
                let ledger = total.funnel.stage(stage);
                for (metric, value) in [
                    ("entered", ledger.entered),
                    ("pruned", ledger.pruned),
                    ("cost_units", ledger.cost_units),
                ] {
                    samples.push(CounterSample {
                        name: format!("tsdtw_cascade_stage_{}_{metric}", stage.name()),
                        ts_us,
                        value: value as f64,
                    });
                }
            }
            recorder_counter_samples(samples);
        }
    }

    let record = Record {
        band_percent,
        queries_per_case,
        rows,
    };
    let mut rep = Report::new(
        "funnel",
        "Prune funnel: per-stage dispositions and cost attribution for cascaded 1-NN, 10% band",
        &record,
    );
    rep.line(format!(
        "{:<6}{:>7}{:>6}{:>8}{:>10}{:>10}{:>10}{:>9}{:>7}{:>14}",
        "case", "N", "band", "cands", "kim-", "keoghQC-", "keoghCQ-", "ea-", "exact", "cost units"
    ));
    for row in &record.rows {
        rep.line(format!(
            "{:<6}{:>7}{:>6}{:>8}{:>10}{:>10}{:>10}{:>9}{:>7}{:>14}",
            row.case,
            row.n,
            row.band,
            row.candidates,
            row.kim_pruned,
            row.keogh_qc_pruned,
            row.keogh_cq_pruned,
            row.dtw_abandoned,
            row.dtw_exact,
            row.total_cost_units
        ));
    }
    for line in total.funnel.table().lines() {
        rep.line(line.to_string());
    }
    rep.attach("work", total.report());
    rep.attach("funnel", total.funnel.report());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispositions_conserve_and_are_deterministic() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let rows = rep.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            // Conservation: every candidate is pruned exactly once or
            // pays for an exact distance.
            let cands = row["candidates"].as_u64().unwrap();
            let accounted = row["kim_pruned"].as_u64().unwrap()
                + row["keogh_qc_pruned"].as_u64().unwrap()
                + row["keogh_cq_pruned"].as_u64().unwrap()
                + row["dtw_abandoned"].as_u64().unwrap()
                + row["dtw_exact"].as_u64().unwrap();
            assert_eq!(cands, accounted, "case {}", row["case"]);
            assert!(cands > 0);
            assert!(row["total_cost_units"].as_u64().unwrap() > 0);
        }
        // The snapshot carries the merged funnel with the same laws.
        let f = &rep.json["funnel"];
        assert_eq!(
            f["stages"]["lb_kim"]["entered"],
            f["candidates"].as_i64().unwrap()
        );
        // Two runs must agree bitwise — the snapshot gate depends on it.
        let again = run(&Scale::Quick, &ParConfig::serial());
        assert_eq!(rep.json.to_string_compact(), again.json.to_string_compact());
    }

    #[test]
    fn funnel_is_thread_count_invariant() {
        let serial = run(&Scale::Quick, &ParConfig::serial());
        let par = run(&Scale::Quick, &ParConfig::new(4).unwrap());
        assert_eq!(
            serial.json["funnel"].to_string_compact(),
            par.json["funnel"].to_string_compact(),
            "merged funnel must be bitwise identical at any thread count"
        );
    }
}
