//! `kernels` — micro-benchmark of the DP evaluation orders (DESIGN.md
//! §11, §16): the row sweep (Segmented) and the anti-diagonal Wavefront
//! on the same windowed DP, plus the struct-of-lanes Batched kernel on a
//! k-NN-shaped scan — across the paper's two data regimes.
//!
//! Four fixed single-pair `N × W` cases, all with a 10 % Sakoe–Chiba
//! band:
//!
//! * **A1/A2** — UCR-scale ECG exemplars (N = 128, 512);
//! * **B1/B2** — long random walks (N = 2048, 4096).
//!
//! One batched case:
//!
//! * **KNN** — one ECG query against 64 same-length candidates at
//!   N = 512 (the 1-NN scan shape), Batched groups of
//!   [`LANES`] versus the scalar Segmented scan.
//!
//! Per case and tier the experiment reports min/mean wall time and the
//! derived cells-per-second throughput, plus each tier's speedup over
//! Segmented. Timing is advisory (shared runners jitter); the *hard*
//! content is the equality contract: every tier must return distances
//! bitwise equal to `reference_cdtw`, a textbook two-row banded DP
//! written here, and byte-identical [`WorkMeter`] counters to the row
//! sweep (modulo the `batch.*` pair only the Batched kernel records).
//! Exactly one metered repetition per `(case, tier)` feeds the attached
//! `work` section in a fixed order, so the snapshot gate stays
//! deterministic while the timing loops run unmetered. Every kernel in
//! this experiment is pinned explicitly.
//!
//! The report also attaches a `tiers` section (per-tier `mismatch`
//! counts, aggregate cells/sec, speedup vs Segmented) that the snapshot
//! pipeline lifts into `BENCH_kernels.json`, where `mismatch` gates hard
//! and the floats stay advisory.

use std::hint::black_box;

use tsdtw_core::cost::{CostFn, SquaredCost};
use tsdtw_core::dtw::banded::{cdtw_distance_kernel, cdtw_distance_metered_with_buf_kernel};
use tsdtw_core::dtw::batch::{
    cdtw_batch_distances, cdtw_batch_distances_metered, BatchBuffer, LANES,
};
use tsdtw_core::dtw::windowed::DtwBuffer;
use tsdtw_core::obs::WorkMeter;
use tsdtw_core::Kernel;
use tsdtw_datasets::ecg::beats;
use tsdtw_datasets::random_walk::random_walks;
use tsdtw_mining::ParConfig;
use tsdtw_obs::{json_obj, Json};

use crate::report::{Report, Scale};
use crate::timing::{time_reps, Timing};

/// The bitwise reference: `cDTW_band` between two equal-length series as
/// the textbook two-row DP, each row spanning `[i − band, i + band]` and
/// every neighbor outside the band read as `+∞`. It performs the
/// kernels' per-cell expression, `cost + diag.min(up).min(left)`, so a
/// correct tier matches it bit for bit.
fn reference_cdtw(x: &[f64], y: &[f64], band: usize) -> f64 {
    let n = x.len();
    assert_eq!(n, y.len(), "the reference takes equal lengths");
    let mut above = vec![f64::INFINITY; n];
    let mut row = vec![f64::INFINITY; n];
    for (i, &xi) in x.iter().enumerate() {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(n - 1);
        // Columns of the row above that lie inside its band.
        let in_above = |j: usize| i > 0 && j + 1 + band >= i && j < i + band;
        for j in lo..=hi {
            let c = SquaredCost.cost(xi, y[j]);
            row[j] = if i == 0 && j == 0 {
                c
            } else {
                let up = if in_above(j) { above[j] } else { f64::INFINITY };
                let diag = if j > 0 && in_above(j - 1) {
                    above[j - 1]
                } else {
                    f64::INFINITY
                };
                let left = if j > lo { row[j - 1] } else { f64::INFINITY };
                c + diag.min(up).min(left)
            };
        }
        std::mem::swap(&mut above, &mut row);
    }
    above[n - 1]
}

struct Row {
    case: String,
    n: usize,
    band: usize,
    cells: u64,
    segmented: Timing,
    wavefront: Timing,
    segmented_cells_per_s: f64,
    wavefront_cells_per_s: f64,
    /// `segmented.min_s / wavefront.min_s` — > 1 means the anti-diagonal
    /// lane order pays for itself on this shape.
    wavefront_speedup: f64,
    /// Bitwise distance equality with the reference DP.
    segmented_identical: bool,
    /// Bitwise distance equality with the reference DP *and* full meter
    /// equality with the row sweep.
    wavefront_identical: bool,
    /// Both of the above — every tier matched on this case.
    tiers_identical: bool,
}

tsdtw_obs::impl_to_json!(Row {
    case,
    n,
    band,
    cells,
    segmented,
    wavefront,
    segmented_cells_per_s,
    wavefront_cells_per_s,
    wavefront_speedup,
    segmented_identical,
    wavefront_identical,
    tiers_identical
});

struct BatchRow {
    case: String,
    n: usize,
    band: usize,
    candidates: usize,
    /// Total DP cells of one full scan (all candidates), per the meter.
    cells: u64,
    scalar_segmented: Timing,
    batched: Timing,
    scalar_segmented_cells_per_s: f64,
    batched_cells_per_s: f64,
    /// `scalar_segmented.min_s / batched.min_s` — the number the
    /// acceptance gate reads (>= 2x on this shape).
    speedup_vs_segmented: f64,
    /// Per-candidate bitwise distance equality of both scans with the
    /// reference DP, and meter equality (modulo the `batch.*` counters)
    /// of the batched scan with the scalar one.
    tiers_identical: bool,
}

tsdtw_obs::impl_to_json!(BatchRow {
    case,
    n,
    band,
    candidates,
    cells,
    scalar_segmented,
    batched,
    scalar_segmented_cells_per_s,
    batched_cells_per_s,
    speedup_vs_segmented,
    tiers_identical
});

struct Record {
    band_percent: f64,
    reps: usize,
    rows: Vec<Row>,
    batch: BatchRow,
    /// Every case passed the bitwise distance + meter equality check.
    all_tiers_identical: bool,
}

tsdtw_obs::impl_to_json!(Record {
    band_percent,
    reps,
    rows,
    batch,
    all_tiers_identical
});

/// Measures one single-pair `(N, band)` case: one metered repetition per
/// tier (the deterministic part, merged into `total` in Segmented,
/// Wavefront order), then `reps` unmetered timing repetitions per tier.
fn bench_case(
    case: &str,
    x: &[f64],
    y: &[f64],
    band: usize,
    reps: usize,
    total: &mut WorkMeter,
) -> Row {
    let reference = reference_cdtw(x, y, band).to_bits();
    let mut buf = DtwBuffer::new();
    let mut meter_tier = |kernel: Kernel| {
        let mut m = WorkMeter::new();
        let d = cdtw_distance_metered_with_buf_kernel(
            x,
            y,
            band,
            SquaredCost,
            &mut buf,
            &mut m,
            kernel,
        )
        .expect("valid inputs");
        (d, m)
    };
    let (d_seg, m_seg) = meter_tier(Kernel::Segmented);
    let (d_wav, m_wav) = meter_tier(Kernel::Wavefront);
    let segmented_identical = d_seg.to_bits() == reference;
    let wavefront_identical = d_wav.to_bits() == reference && m_wav == m_seg;
    total.merge(&m_seg);
    total.merge(&m_wav);

    let time_tier = |kernel: Kernel| {
        time_reps(reps, || {
            black_box(
                cdtw_distance_kernel(black_box(x), black_box(y), band, SquaredCost, kernel)
                    .expect("valid inputs"),
            );
        })
    };
    let segmented = time_tier(Kernel::Segmented);
    let wavefront = time_tier(Kernel::Wavefront);

    let cells = m_seg.cells;
    Row {
        case: case.into(),
        n: x.len(),
        band,
        cells,
        segmented_cells_per_s: cells as f64 / segmented.min_s,
        wavefront_cells_per_s: cells as f64 / wavefront.min_s,
        wavefront_speedup: segmented.min_s / wavefront.min_s,
        segmented_identical,
        wavefront_identical,
        tiers_identical: segmented_identical && wavefront_identical,
        segmented,
        wavefront,
    }
}

/// Measures the k-NN-shaped scan: one query against `cands` (all the
/// same length) at `band`, scalar Segmented loop vs struct-of-lanes
/// Batched groups. One metered scan per route feeds `total` (scalar
/// first), so the attached counters stay a pure function of the case —
/// independent of the thread count.
fn bench_batch_case(
    case: &str,
    query: &[f64],
    cands: &[Vec<f64>],
    band: usize,
    reps: usize,
    total: &mut WorkMeter,
) -> BatchRow {
    let refs: Vec<&[f64]> = cands.iter().map(|c| c.as_slice()).collect();
    let reference: Vec<u64> = refs
        .iter()
        .map(|c| reference_cdtw(query, c, band).to_bits())
        .collect();

    let mut buf = DtwBuffer::new();
    let mut m_scalar = WorkMeter::new();
    let scalar_d: Vec<f64> = refs
        .iter()
        .map(|c| {
            cdtw_distance_metered_with_buf_kernel(
                query,
                c,
                band,
                SquaredCost,
                &mut buf,
                &mut m_scalar,
                Kernel::Segmented,
            )
            .expect("valid inputs")
        })
        .collect();

    let mut bbuf = BatchBuffer::new();
    let mut m_batch = WorkMeter::new();
    let mut batched_d = vec![0.0f64; refs.len()];
    for (group, out) in refs.chunks(LANES).zip(batched_d.chunks_mut(LANES)) {
        cdtw_batch_distances_metered(
            query,
            group,
            band,
            SquaredCost,
            out,
            &mut bbuf,
            &mut m_batch,
        )
        .expect("valid inputs");
    }
    // The batch route's only legitimate counter divergence is the
    // `batch.*` pair; everything else must match the scalar scan.
    let mut m_batch_sans = m_batch.clone();
    m_batch_sans.batch_groups = 0;
    m_batch_sans.batch_lanes = 0;
    let matches_reference = |d: &[f64]| d.iter().map(|v| v.to_bits()).eq(reference.iter().copied());
    let tiers_identical =
        matches_reference(&scalar_d) && matches_reference(&batched_d) && m_batch_sans == m_scalar;
    total.merge(&m_scalar);
    total.merge(&m_batch);

    let scalar_segmented = time_reps(reps, || {
        for c in &refs {
            black_box(
                cdtw_distance_kernel(
                    black_box(query),
                    black_box(c),
                    band,
                    SquaredCost,
                    Kernel::Segmented,
                )
                .expect("valid inputs"),
            );
        }
    });
    let batched = time_reps(reps, || {
        let mut out = [0.0f64; LANES];
        for group in refs.chunks(LANES) {
            cdtw_batch_distances(
                black_box(query),
                black_box(group),
                band,
                SquaredCost,
                &mut out[..group.len()],
            )
            .expect("valid inputs");
            black_box(&out);
        }
    });

    let cells = m_scalar.cells;
    BatchRow {
        case: case.into(),
        n: query.len(),
        band,
        candidates: cands.len(),
        cells,
        scalar_segmented_cells_per_s: cells as f64 / scalar_segmented.min_s,
        batched_cells_per_s: cells as f64 / batched.min_s,
        speedup_vs_segmented: scalar_segmented.min_s / batched.min_s,
        tiers_identical,
        scalar_segmented,
        batched,
    }
}

/// The `tiers` section: per-tier `mismatch` counts (hard gate — cases
/// whose distances diverged from the reference DP or whose meters
/// diverged from the row sweep), aggregate cells/sec over the
/// single-pair cases (total cells over total min time) and speedups vs
/// Segmented; the Batched tier reads the KNN scan case. Floats are
/// advisory in the snapshot diff.
fn tiers_section(record: &Record) -> Json {
    let rows = &record.rows;
    let cells: f64 = rows.iter().map(|r| r.cells as f64).sum();
    let seg_s: f64 = rows.iter().map(|r| r.segmented.min_s).sum();
    let wav_s: f64 = rows.iter().map(|r| r.wavefront.min_s).sum();
    let mismatches = |pick: &dyn Fn(&Row) -> bool| rows.iter().filter(|r| !pick(r)).count() as i64;
    let b = &record.batch;
    json_obj! {
        "segmented" => json_obj! {
            "mismatch" => mismatches(&|r| r.segmented_identical),
            "cells_per_s" => cells / seg_s,
            "speedup_vs_segmented" => 1.0,
        },
        "wavefront" => json_obj! {
            "mismatch" => mismatches(&|r| r.wavefront_identical),
            "cells_per_s" => cells / wav_s,
            "speedup_vs_segmented" => seg_s / wav_s,
        },
        "batched" => json_obj! {
            "mismatch" => i64::from(!b.tiers_identical),
            "cells_per_s" => b.batched_cells_per_s,
            "speedup_vs_segmented" => b.speedup_vs_segmented,
        },
    }
}

/// Runs the experiment. Cases run serially in a fixed order — the whole
/// point is clean per-tier timing, so the experiment ignores `--threads`.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let band_percent = 10.0;
    let reps = scale.pick(5, 30);

    let case_a: Vec<(&str, usize)> = vec![("A1", 128), ("A2", 512)];
    let case_b: Vec<(&str, usize)> = vec![("B1", 2048), ("B2", 4096)];

    let mut total = WorkMeter::new();
    let mut rows = Vec::new();
    for &(case, n) in &case_a {
        let pool = beats(2, n, 0x4B31).expect("generator");
        let band = (n as f64 * band_percent / 100.0).ceil() as usize;
        rows.push(bench_case(case, &pool[0], &pool[1], band, reps, &mut total));
    }
    for &(case, n) in &case_b {
        let pool = random_walks(2, n, 0x4B32).expect("generator");
        let band = (n as f64 * band_percent / 100.0).ceil() as usize;
        rows.push(bench_case(case, &pool[0], &pool[1], band, reps, &mut total));
    }

    // The k-NN scan shape: one held-out query against 64 candidates.
    let knn_n = 512usize;
    let knn_band = (knn_n as f64 * band_percent / 100.0).ceil() as usize;
    let pool = beats(65, knn_n, 0x4B33).expect("generator");
    let batch = bench_batch_case("KNN", &pool[0], &pool[1..], knn_band, reps, &mut total);

    let record = Record {
        band_percent,
        reps,
        all_tiers_identical: rows.iter().all(|r| r.tiers_identical) && batch.tiers_identical,
        rows,
        batch,
    };

    let mut rep = Report::new(
        "kernels",
        "DP kernel tiers: wavefront vs segmented, batched vs scalar scan, 10% band",
        &record,
    );
    rep.line(format!(
        "{:<6}{:>6}{:>6}{:>11}{:>11}{:>11}{:>7}{:>7}",
        "case", "N", "band", "cells", "seg Mc/s", "wav Mc/s", "wav x", "equal"
    ));
    for row in &record.rows {
        rep.line(format!(
            "{:<6}{:>6}{:>6}{:>11}{:>11.1}{:>11.1}{:>7.2}{:>7}",
            row.case,
            row.n,
            row.band,
            row.cells,
            row.segmented_cells_per_s / 1e6,
            row.wavefront_cells_per_s / 1e6,
            row.wavefront_speedup,
            row.tiers_identical
        ));
    }
    let b = &record.batch;
    rep.line(format!(
        "{:<6}{:>6}{:>6}{:>11} scan of {} candidates: seg {:.1} Mc/s -> batched {:.1} Mc/s \
         ({:.2}x vs seg), equal {}",
        b.case,
        b.n,
        b.band,
        b.cells,
        b.candidates,
        b.scalar_segmented_cells_per_s / 1e6,
        b.batched_cells_per_s / 1e6,
        b.speedup_vs_segmented,
        b.tiers_identical
    ));
    rep.line(format!(
        "tiers bitwise identical to the reference DP (and meters to each other) in every case: {}",
        record.all_tiers_identical
    ));
    let tiers = tiers_section(&record);
    rep.attach("work", total.report());
    rep.attach("tiers", tiers);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_tiers_are_identical_and_rows_complete() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        assert_eq!(rep.json["all_tiers_identical"], true);
        let rows = rep.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert_eq!(row["tiers_identical"], true, "case {}", row["case"]);
            assert!(row["cells"].as_u64().unwrap() > 0);
            assert!(row["wavefront_speedup"].as_f64().unwrap() > 0.0);
            assert!(row["segmented"]["reps"].as_u64().unwrap() >= 1);
        }
        // Two single-pair tiers were metered once per case, plus the
        // batch case's scalar + batched scans, so the attached work
        // section counts each case's cells twice. The reference DP is
        // not metered.
        let work_cells = rep.json["work"]["cells"].as_u64().unwrap();
        let row_cells: u64 = rows.iter().map(|r| r["cells"].as_u64().unwrap()).sum();
        let scan_cells = rep.json["batch"]["cells"].as_u64().unwrap();
        assert_eq!(work_cells, 2 * row_cells + 2 * scan_cells);
    }

    #[test]
    fn batch_case_scans_all_candidates_in_groups() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let b = &rep.json["batch"];
        assert_eq!(b["tiers_identical"], true);
        assert_eq!(b["candidates"], 64);
        assert!(b["cells"].as_u64().unwrap() > 0);
        assert!(b["speedup_vs_segmented"].as_f64().unwrap() > 0.0);
        // 64 candidates in groups of LANES, one lane per candidate.
        let groups = rep.json["work"]["batch"]["groups"].as_u64().unwrap();
        assert_eq!(groups, 64u64.div_ceil(LANES as u64));
        assert_eq!(rep.json["work"]["batch"]["lanes"], 64u64);
    }

    #[test]
    fn reference_dp_matches_full_dtw_and_the_row_sweep() {
        let pool = random_walks(2, 37, 5).unwrap();
        let (x, y) = (&pool[0], &pool[1]);
        let full = tsdtw_core::dtw::full::dtw_distance(x, y, SquaredCost).unwrap();
        assert_eq!(reference_cdtw(x, y, 37).to_bits(), full.to_bits());
        for band in [0, 1, 4, 36] {
            let sweep = cdtw_distance_kernel(x, y, band, SquaredCost, Kernel::Segmented).unwrap();
            assert_eq!(
                reference_cdtw(x, y, band).to_bits(),
                sweep.to_bits(),
                "{band}"
            );
        }
    }

    #[test]
    fn tiers_section_is_attached_with_zero_mismatches() {
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let tiers = &rep.json["tiers"];
        for tier in ["segmented", "wavefront", "batched"] {
            assert_eq!(tiers[tier]["mismatch"], 0, "{tier}");
            assert!(tiers[tier]["cells_per_s"].as_f64().unwrap() > 0.0, "{tier}");
            assert!(
                tiers[tier]["speedup_vs_segmented"].as_f64().unwrap() > 0.0,
                "{tier}"
            );
        }
    }
}
