//! `cells` — the paper's Section 3 argument, measured instead of argued:
//! DP cells touched by FastDTW vs. `cDTW_w` as a function of N and r.
//!
//! Section 3 observes that FastDTW's final resolution level alone must
//! evaluate a window at least as wide as a Sakoe–Chiba band of `r` cells,
//! and every coarser level plus path projection and window bookkeeping is
//! pure overhead on top — so FastDTW with radius `r` can never touch fewer
//! cells than `cDTW` constrained to the same `r` cells. This experiment
//! counts the cells with [`WorkMeter`] instead of deriving them, for both
//! implementations of FastDTW, across the paper's two data regimes:
//!
//! * **Case A** — UCR-scale exemplars (short, periodic; the 1-NN
//!   classification setting of Fig. 1);
//! * **Case B** — long random walks (the data regime of Fig. 4/5 where
//!   FastDTW was conjectured to win).
//!
//! The reference implementation dilates the low-resolution path *before*
//! projecting, so its effective band is about `2r` and its per-level
//! windows are wider still — the rows make that quirk a number too.

use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::cdtw_distance_metered;
use tsdtw_core::fastdtw::{fastdtw_metered, fastdtw_ref_metered};
use tsdtw_core::obs::WorkMeter;
use tsdtw_datasets::ecg::beats;
use tsdtw_datasets::random_walk::random_walks;
use tsdtw_mining::{par_map, ParConfig};

use crate::report::{Report, Scale};

struct Row {
    case: String,
    n: usize,
    radius: usize,
    cdtw_cells: u64,
    tuned_cells: u64,
    tuned_levels: usize,
    ref_cells: u64,
    ref_levels: usize,
    tuned_over_cdtw: f64,
    ref_over_cdtw: f64,
}

tsdtw_obs::impl_to_json!(Row {
    case,
    n,
    radius,
    cdtw_cells,
    tuned_cells,
    tuned_levels,
    ref_cells,
    ref_levels,
    tuned_over_cdtw,
    ref_over_cdtw,
});

struct Record {
    radii: Vec<usize>,
    case_a_lengths: Vec<usize>,
    case_b_lengths: Vec<usize>,
    rows: Vec<Row>,
    /// Does FastDTW (either implementation) always touch more cells than
    /// `cDTW` with the matched band of `r` cells? Paper: yes, structurally.
    fastdtw_exceeds_cdtw_case_a: bool,
    /// Same check over the Case B (long random walk) rows.
    fastdtw_exceeds_cdtw_case_b: bool,
}

tsdtw_obs::impl_to_json!(Record {
    radii,
    case_a_lengths,
    case_b_lengths,
    rows,
    fastdtw_exceeds_cdtw_case_a,
    fastdtw_exceeds_cdtw_case_b,
});

/// Counts one row's cells. The three per-algorithm meters merge into
/// `total` in a fixed order (cdtw, tuned, reference), so the aggregate
/// `work` section — including the order-sensitive FastDTW level list —
/// is identical whether rows run serially or on executor workers.
fn count_row(case: &str, x: &[f64], y: &[f64], radius: usize, total: &mut WorkMeter) -> Row {
    let mut cdtw = WorkMeter::new();
    cdtw_distance_metered(x, y, radius, SquaredCost, &mut cdtw).expect("valid inputs");
    let mut tuned = WorkMeter::new();
    fastdtw_metered(x, y, radius, SquaredCost, &mut tuned).expect("valid inputs");
    let mut reference = WorkMeter::new();
    fastdtw_ref_metered(x, y, radius, SquaredCost, &mut reference).expect("valid inputs");
    total.merge(&cdtw);
    total.merge(&tuned);
    total.merge(&reference);
    Row {
        case: case.into(),
        n: x.len(),
        radius,
        cdtw_cells: cdtw.cells,
        tuned_cells: tuned.cells,
        tuned_levels: tuned.levels.len(),
        ref_cells: reference.cells,
        ref_levels: reference.levels.len(),
        tuned_over_cdtw: tuned.cells as f64 / cdtw.cells as f64,
        ref_over_cdtw: reference.cells as f64 / cdtw.cells as f64,
    }
}

/// Runs the experiment. Rows are independent (each counts one `(N, r)`
/// configuration on its own pair), so they fan out on the deterministic
/// executor: per-row meter shards merge into the report's `work` section
/// in row order, making the snapshot counters bitwise identical at any
/// `--threads` — which is what lets the perf gate compare a parallel run
/// against a serial baseline with zero drift.
pub fn run(scale: &Scale, par: &ParConfig) -> Report {
    let radii: Vec<usize> = vec![1, 10, scale.pick(20, 40)];
    let case_a_lengths: Vec<usize> = scale.pick(vec![128, 512], vec![128, 256, 512, 1024]);
    let case_b_lengths: Vec<usize> = scale.pick(vec![2048, 4096], vec![2048, 8192, 16384]);

    let case_a_pools: Vec<Vec<Vec<f64>>> = case_a_lengths
        .iter()
        .map(|&n| beats(2, n, 0xCE11).expect("generator"))
        .collect();
    let case_b_pools: Vec<Vec<Vec<f64>>> = case_b_lengths
        .iter()
        .map(|&n| random_walks(2, n, 0xCE12).expect("generator"))
        .collect();
    let mut jobs: Vec<(&str, &[f64], &[f64], usize)> = Vec::new();
    for pool in &case_a_pools {
        for &r in &radii {
            jobs.push(("A", &pool[0], &pool[1], r));
        }
    }
    for pool in &case_b_pools {
        for &r in &radii {
            jobs.push(("B", &pool[0], &pool[1], r));
        }
    }

    let mut total = WorkMeter::new();
    let rows = par_map(par, &jobs, &mut total, |_, &(case, x, y, r), shard| {
        Ok(count_row(case, x, y, r, shard))
    })
    .expect("cell counting is infallible");

    let exceeds = |case: &str| {
        rows.iter()
            .filter(|row| row.case == case)
            .all(|row| row.tuned_cells > row.cdtw_cells && row.ref_cells > row.cdtw_cells)
    };
    let record = Record {
        fastdtw_exceeds_cdtw_case_a: exceeds("A"),
        fastdtw_exceeds_cdtw_case_b: exceeds("B"),
        radii,
        case_a_lengths,
        case_b_lengths,
        rows,
    };

    let mut rep = Report::new(
        "cells",
        "Section 3: DP cells touched, FastDTW_r vs cDTW with a band of r cells",
        &record,
    );
    rep.line(format!(
        "{:<8}{:>8}{:>8}{:>14}{:>14}{:>14}{:>10}{:>10}",
        "case", "N", "r", "cDTW_r", "tuned", "reference", "tuned/x", "ref/x"
    ));
    for row in &record.rows {
        rep.line(format!(
            "{:<8}{:>8}{:>8}{:>14}{:>14}{:>14}{:>10.2}{:>10.2}",
            row.case,
            row.n,
            row.radius,
            row.cdtw_cells,
            row.tuned_cells,
            row.ref_cells,
            row.tuned_over_cdtw,
            row.ref_over_cdtw
        ));
    }
    rep.line(format!(
        "FastDTW touches more cells than the matched-band cDTW in every row: \
         Case A {}, Case B {} [paper: structural, Section 3]",
        record.fastdtw_exceeds_cdtw_case_a, record.fastdtw_exceeds_cdtw_case_b
    ));
    rep.attach("work", total.report());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_confirms_the_cell_inequality() {
        check_inequality(&run(&Scale::Quick, &ParConfig::serial()));
    }

    #[test]
    fn parallel_run_work_section_is_bitwise_serial() {
        let serial = run(&Scale::Quick, &ParConfig::serial());
        let par = run(&Scale::Quick, &ParConfig::new(4).unwrap());
        // The whole attached work section — every counter and the
        // order-sensitive FastDTW level list — must be identical, or the
        // perf gate could drift with --threads.
        assert_eq!(
            serial.json["work"].to_string_pretty(),
            par.json["work"].to_string_pretty()
        );
        assert_eq!(
            serial.json["rows"].to_string_pretty(),
            par.json["rows"].to_string_pretty()
        );
        check_inequality(&par);
    }

    fn check_inequality(rep: &Report) {
        assert_eq!(rep.json["fastdtw_exceeds_cdtw_case_a"], true);
        assert_eq!(rep.json["fastdtw_exceeds_cdtw_case_b"], true);
        let rows = rep.json["rows"].as_array().unwrap();
        assert!(!rows.is_empty());
        for row in rows {
            assert!(
                row["tuned_cells"].as_u64().unwrap() > row["cdtw_cells"].as_u64().unwrap(),
                "tuned FastDTW must out-touch cDTW_r at N={} r={}",
                row["n"],
                row["radius"]
            );
            assert!(
                row["ref_cells"].as_u64().unwrap() >= row["tuned_cells"].as_u64().unwrap(),
                "dilate-before-project means the reference window is never narrower"
            );
            assert!(row["tuned_levels"].as_u64().unwrap() >= 1);
        }
    }
}
