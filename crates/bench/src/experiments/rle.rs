//! `rle` — the run-length-encoded exact backend vs banded `cDTW_10`
//! across a compression-ratio sweep (DESIGN.md §15).
//!
//! The paper's thesis is that exact DTW, engineered well, needs no
//! approximation; Froese et al. (arXiv:1903.03003) push that further on
//! piecewise-constant data, where exact DTW runs in time polynomial in
//! the number of *runs*. This experiment quantifies the win on
//! smart-meter-style state traces whose runs/points ratio is swept over
//! {1, 2, 5, 10, 25} %:
//!
//! * **work** — banded `cDTW_10` DP cells vs the RLE kernel's block
//!   boundary cells on the same pair (the `cells_reduction` column; the
//!   acceptance bar is ≥ 5× at some ratio ≤ 10 %);
//! * **exactness** — the RLE distance must equal unconstrained dense
//!   DTW *bitwise* on every pair (the traces are dyadic by
//!   construction, so this is the lossless guarantee class);
//! * **dispatch** — whether `Kernel::Auto` would route each pair to the
//!   RLE kernel (ratio ≤ the 10 % threshold, inclusive).
//!
//! Everything metered runs through the row sweep pinned with
//! `Kernel::Segmented` or through `dtw_distance_rle`, so the attached
//! `work` and `rle` sections are a pure function of the case at any
//! thread count — the zero-tolerance snapshot gate relies on that.

use std::hint::black_box;

use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance_metered_with_buf_kernel, percent_to_band};
use tsdtw_core::dtw::full::dtw_distance_kernel;
use tsdtw_core::dtw::windowed::DtwBuffer;
use tsdtw_core::obs::WorkMeter;
use tsdtw_core::rle::{auto_picks_rle, auto_ratio, dtw_distance_rle};
use tsdtw_core::Kernel;
use tsdtw_datasets::smart_meter::state_trace;
use tsdtw_mining::ParConfig;
use tsdtw_obs::{json_obj, Json};

use crate::report::{Report, Scale};
use crate::timing::{time_reps, Timing};

/// The swept runs/points targets, in percent. 10 is the auto-dispatch
/// threshold itself; 25 is safely above it (the regime where the dense
/// sweep stays the right choice).
const RATIO_PCTS: [u64; 5] = [1, 2, 5, 10, 25];

struct Row {
    ratio_pct: u64,
    n: usize,
    runs_x: u64,
    runs_y: u64,
    pair_ratio: f64,
    banded_cells: u64,
    rle_blocks: u64,
    rle_boundary_cells: u64,
    /// `banded_cells / rle_boundary_cells` — how many times less work
    /// the block kernel does than the paper's banded protagonist.
    cells_reduction: f64,
    /// RLE distance bitwise-equals unconstrained dense DTW.
    bitwise_equal: bool,
    /// Whether `Kernel::Auto` routes this pair to the RLE kernel.
    auto_rle: bool,
    banded: Timing,
    rle: Timing,
}

tsdtw_obs::impl_to_json!(Row {
    ratio_pct,
    n,
    runs_x,
    runs_y,
    pair_ratio,
    banded_cells,
    rle_blocks,
    rle_boundary_cells,
    cells_reduction,
    bitwise_equal,
    auto_rle,
    banded,
    rle
});

struct Record {
    n: usize,
    band_percent: f64,
    levels: usize,
    reps: usize,
    rows: Vec<Row>,
    all_bitwise_equal: bool,
    /// The largest work reduction observed at a ratio ≤ 10 % — the
    /// acceptance criterion is ≥ 5.
    best_reduction_at_10pct: f64,
}

tsdtw_obs::impl_to_json!(Record {
    n,
    band_percent,
    levels,
    reps,
    rows,
    all_bitwise_equal,
    best_reduction_at_10pct
});

fn bench_ratio(
    ratio_pct: u64,
    n: usize,
    levels: usize,
    band: usize,
    reps: usize,
    total: &mut WorkMeter,
) -> Row {
    let ratio = ratio_pct as f64 / 100.0;
    let seed = 0x51E0_0000 + ratio_pct;
    let x = state_trace(n, ratio, levels, seed).expect("generator");
    let y = state_trace(n, ratio, levels, seed + 1).expect("generator");

    // Banded protagonist: one metered repetition for the cell budget.
    let mut buf = DtwBuffer::new();
    let mut m_band = WorkMeter::new();
    cdtw_distance_metered_with_buf_kernel(
        &x,
        &y,
        band,
        SquaredCost,
        &mut buf,
        &mut m_band,
        Kernel::Segmented,
    )
    .expect("valid inputs");

    // RLE kernel: one metered repetition for the boundary-cell budget,
    // plus the bitwise check against unconstrained dense DTW (the RLE
    // kernel computes the full-window distance).
    let mut m_rle = WorkMeter::new();
    let d_rle = dtw_distance_rle(&x, &y, SquaredCost, &mut m_rle).expect("valid inputs");
    let d_dense = dtw_distance_kernel(&x, &y, SquaredCost, Kernel::Segmented).expect("valid");

    let banded_cells = m_band.cells;
    let rle_boundary_cells = m_rle.rle_boundary_cells;
    total.merge(&m_band);
    total.merge(&m_rle);

    let banded = time_reps(reps, || {
        let mut buf = DtwBuffer::new();
        black_box(
            cdtw_distance_metered_with_buf_kernel(
                black_box(&x),
                black_box(&y),
                band,
                SquaredCost,
                &mut buf,
                &mut tsdtw_core::obs::NoMeter,
                Kernel::Segmented,
            )
            .expect("valid inputs"),
        );
    });
    let rle = time_reps(reps, || {
        black_box(
            dtw_distance_rle(
                black_box(&x),
                black_box(&y),
                SquaredCost,
                &mut tsdtw_core::obs::NoMeter,
            )
            .expect("valid inputs"),
        );
    });

    Row {
        ratio_pct,
        n,
        runs_x: tsdtw_core::rle::count_runs(&x) as u64,
        runs_y: tsdtw_core::rle::count_runs(&y) as u64,
        pair_ratio: auto_ratio(&x, &y),
        banded_cells,
        rle_blocks: m_rle.rle_blocks,
        rle_boundary_cells,
        cells_reduction: banded_cells as f64 / rle_boundary_cells as f64,
        bitwise_equal: d_rle.to_bits() == d_dense.to_bits(),
        auto_rle: auto_picks_rle(&x, &y),
        banded,
        rle,
    }
}

/// Runs the experiment. The sweep runs serially in a fixed order — the
/// counters must not depend on `--threads`.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    // n divisible by every swept percentage, so the achieved run counts
    // (and the 10 % row's at-threshold ratio) are exact.
    let n = scale.pick(500, 4000);
    let band_percent = 10.0;
    let levels = 8;
    let reps = scale.pick(3, 10);
    let band = percent_to_band(n, band_percent).expect("valid percent");

    let mut total = WorkMeter::new();
    let rows: Vec<Row> = RATIO_PCTS
        .iter()
        .map(|&pct| bench_ratio(pct, n, levels, band, reps, &mut total))
        .collect();

    let record = Record {
        n,
        band_percent,
        levels,
        reps,
        all_bitwise_equal: rows.iter().all(|r| r.bitwise_equal),
        best_reduction_at_10pct: rows
            .iter()
            .filter(|r| r.ratio_pct <= 10)
            .map(|r| r.cells_reduction)
            .fold(0.0, f64::max),
        rows,
    };

    let rle_section = json_obj! {
        "runs" => total.rle_runs,
        "blocks" => total.rle_blocks,
        "boundary_cells" => total.rle_boundary_cells,
        "sweep" => {
            let mut arr = Json::array();
            for r in &record.rows {
                arr.push(json_obj! {
                    "ratio_pct" => r.ratio_pct,
                    "runs_x" => r.runs_x,
                    "runs_y" => r.runs_y,
                    "banded_cells" => r.banded_cells,
                    "rle_blocks" => r.rle_blocks,
                    "rle_boundary_cells" => r.rle_boundary_cells,
                    "cells_reduction" => r.cells_reduction,
                });
            }
            arr
        },
    };

    let mut rep = Report::new(
        "rle",
        "Run-length-encoded exact DTW vs banded cDTW_10 across compression ratios",
        &record,
    );
    rep.line(format!(
        "{:<7}{:>7}{:>7}{:>12}{:>12}{:>11}{:>8}{:>7}",
        "ratio%", "runs", "N", "band cells", "rle cells", "reduction", "equal", "auto"
    ));
    for row in &record.rows {
        rep.line(format!(
            "{:<7}{:>7}{:>7}{:>12}{:>12}{:>10.1}x{:>8}{:>7}",
            row.ratio_pct,
            row.runs_x,
            row.n,
            row.banded_cells,
            row.rle_boundary_cells,
            row.cells_reduction,
            row.bitwise_equal,
            row.auto_rle
        ));
    }
    rep.line(format!(
        "bitwise equal to dense full DTW on every pair: {}; best reduction at ratio <= 10%: {:.1}x",
        record.all_bitwise_equal, record.best_reduction_at_10pct
    ));
    rep.attach_work(&total);
    rep.attach_rle(rle_section);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_exact_and_clears_the_reduction_bar() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        assert_eq!(rep.json["all_bitwise_equal"], true);
        let rows = rep.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), RATIO_PCTS.len());
        for row in rows {
            assert_eq!(row["bitwise_equal"], true, "ratio {}", row["ratio_pct"]);
            assert!(row["banded_cells"].as_u64().unwrap() > 0);
            assert!(row["rle_boundary_cells"].as_u64().unwrap() > 0);
        }
        // Acceptance: >= 5x less work than banded cDTW at <= 10% ratio.
        assert!(
            rep.json["best_reduction_at_10pct"].as_f64().unwrap() >= 5.0,
            "reduction {}",
            rep.json["best_reduction_at_10pct"]
        );
        // Dispatch: every at-or-below-threshold pair routes to RLE
        // (the 10% row sits exactly at the inclusive threshold), the
        // 25% row stays on the sweep.
        for row in rows {
            let pct = row["ratio_pct"].as_u64().unwrap();
            assert_eq!(row["auto_rle"], pct <= 10, "ratio {pct}");
        }
        // The attached rle section mirrors the meter totals.
        let runs: u64 = rows
            .iter()
            .map(|r| r["runs_x"].as_u64().unwrap() + r["runs_y"].as_u64().unwrap())
            .sum();
        assert_eq!(rep.json["rle"]["runs"].as_u64().unwrap(), runs);
        assert_eq!(
            rep.json["rle"]["sweep"].as_array().unwrap().len(),
            RATIO_PCTS.len()
        );
    }
}
