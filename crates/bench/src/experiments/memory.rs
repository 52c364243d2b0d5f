//! `memory` — heap telemetry for the paper's two contenders (DESIGN.md
//! §12): what does each algorithm *allocate*, not just compute?
//!
//! Four fixed cases reuse the `kernels` experiment's shapes — A1/A2 are
//! UCR-scale ECG exemplars (N = 128, 512), B1/B2 long random walks
//! (N = 2048, 4096), all with a 10 % Sakoe–Chiba band. Per case the
//! experiment probes, with [`AllocScope`]:
//!
//! * **cDTW cold** — building a [`BandedDtw`] evaluator and making the
//!   first call: the one-time O(N) window + scratch footprint.
//! * **cDTW warm** — `reps` further calls on the warmed evaluator. The
//!   headline contract (enforced by `tests/alloc_discipline.rs` and
//!   asserted here when telemetry is armed): **zero** allocations.
//! * **cDTW unbuffered** — one plain `cdtw_distance` call, the shape a
//!   caller pays without scratch reuse (window + DP scratch per call).
//! * **FastDTW (tuned)** — one radius-1 distance-only call, like for
//!   like with cDTW's distance calls. Every call rebuilds its coarsened
//!   series, projected windows, and per-level scratch, so its peak grows
//!   with the level count while cDTW's stays O(band width) scratch (two
//!   rows, or three diagonals on the wavefront route).
//! * **FastDTW (reference)** — the same call through the canonical
//!   cell-list + hash-map structure the ecosystem actually runs, which
//!   returns its path as the canonical package does.
//!
//! Byte figures are exact allocator-request totals (deterministic for
//! a fixed workload), so the rows diff cleanly; without
//! `--features alloc-telemetry` every probe reads zero and
//! `telemetry: false` marks the record as carrying no data. The run's
//! `BENCH_memory.json` gets its gated `memory` section from `repro`'s
//! whole-run probe, not from these rows.

use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance, BandedDtw};
use tsdtw_core::fastdtw::{fastdtw_distance_metered, fastdtw_ref_metered};
use tsdtw_core::obs::WorkMeter;
use tsdtw_datasets::ecg::beats;
use tsdtw_datasets::random_walk::random_walks;
use tsdtw_mining::ParConfig;
use tsdtw_obs::{heap_telemetry_enabled, spans_armed, AllocScope};

use crate::report::{Report, Scale};

struct Row {
    case: String,
    n: usize,
    band: usize,
    /// Evaluator construction + first call: allocator-observed peak.
    cdtw_cold_peak_bytes: u64,
    /// Total allocations across the warm-call loop (0 when armed).
    cdtw_warm_allocs: u64,
    /// Total bytes allocated across the warm-call loop (0 when armed).
    cdtw_warm_bytes: u64,
    /// Bytes one scratch-free `cdtw_distance` call allocates (and
    /// frees): the per-call price of not reusing a buffer.
    cdtw_unbuffered_bytes: u64,
    /// DP scratch high-water mark the [`WorkMeter`] derived analytically.
    dp_peak_bytes: u64,
    /// Allocator-observed peak of one radius-1 tuned-FastDTW distance
    /// call.
    fastdtw_peak_bytes: u64,
    /// Allocator-observed peak of the same call through the reference
    /// (cell-list + hash-map) implementation.
    fastdtw_ref_peak_bytes: u64,
    /// Resolution levels that call walked (incl. the exact base case).
    fastdtw_levels: u32,
    /// `fastdtw_peak_bytes / cdtw_cold_peak_bytes` — how much more
    /// transient memory the "low-memory" approximation touches.
    peak_ratio: f64,
}

tsdtw_obs::impl_to_json!(Row {
    case,
    n,
    band,
    cdtw_cold_peak_bytes,
    cdtw_warm_allocs,
    cdtw_warm_bytes,
    cdtw_unbuffered_bytes,
    dp_peak_bytes,
    fastdtw_peak_bytes,
    fastdtw_ref_peak_bytes,
    fastdtw_levels,
    peak_ratio
});

struct Record {
    /// Whether the counting allocator was armed; all byte/count fields
    /// are zero when it was not.
    telemetry: bool,
    band_percent: f64,
    radius: usize,
    warm_reps: usize,
    rows: Vec<Row>,
}

tsdtw_obs::impl_to_json!(Record {
    telemetry,
    band_percent,
    radius,
    warm_reps,
    rows
});

/// Probes one `(N, band)` case; meters merge into `total` cDTW-first.
fn probe_case(
    case: &str,
    x: &[f64],
    y: &[f64],
    band: usize,
    radius: usize,
    warm_reps: usize,
    total: &mut WorkMeter,
) -> Row {
    // Cold: evaluator construction + first call, metered.
    let mut m_cdtw = WorkMeter::new();
    let probe = AllocScope::begin();
    let mut eval = BandedDtw::new(x.len(), y.len(), band).expect("valid shape");
    let d_cold = eval
        .distance_metered(x, y, SquaredCost, &mut m_cdtw)
        .expect("valid inputs");
    let cold = probe.end();

    // Warm: the steady state repeated-evaluation loops live in.
    let probe = AllocScope::begin();
    let mut agree = 0usize;
    for _ in 0..warm_reps {
        let d = eval.distance(x, y, SquaredCost).expect("valid inputs");
        agree += usize::from(d.to_bits() == d_cold.to_bits());
    }
    let warm = probe.end();
    assert_eq!(
        agree, warm_reps,
        "warm calls must reproduce the cold distance"
    );
    // The zero-alloc contract is about the algorithm. Armed spans
    // allocate by design: the recorder ring and the thread-local span
    // table grow as they record (DESIGN.md §12), so a `--trace` or
    // `--profile` run only reports the warm loop's traffic. The memory
    // leg runs disarmed, where the assert holds.
    if heap_telemetry_enabled() && !spans_armed() {
        assert!(
            warm.is_zero(),
            "warmed BandedDtw must not touch the heap, saw {warm:?}"
        );
    }

    // Unbuffered: the per-call price of skipping scratch reuse.
    let probe = AllocScope::begin();
    let d_unbuf = cdtw_distance(x, y, band, SquaredCost).expect("valid inputs");
    let unbuffered = probe.end();
    assert_eq!(
        d_unbuf.to_bits(),
        d_cold.to_bits(),
        "unbuffered call must reproduce the evaluator's distance"
    );

    // FastDTW, tuned: one call; it owns (and frees) everything it touches.
    let mut m_fast = WorkMeter::new();
    let probe = AllocScope::begin();
    fastdtw_distance_metered(x, y, radius, SquaredCost, &mut m_fast).expect("valid inputs");
    let fast = probe.end();

    // FastDTW, reference: the canonical cell-list + hash-map structure.
    let mut m_ref = WorkMeter::new();
    let probe = AllocScope::begin();
    fastdtw_ref_metered(x, y, radius, SquaredCost, &mut m_ref).expect("valid inputs");
    let fast_ref = probe.end();

    total.merge(&m_cdtw);
    total.merge(&m_fast);
    total.merge(&m_ref);
    Row {
        case: case.into(),
        n: x.len(),
        band,
        cdtw_cold_peak_bytes: cold.peak_bytes,
        cdtw_warm_allocs: warm.allocs,
        cdtw_warm_bytes: warm.bytes_allocated,
        cdtw_unbuffered_bytes: unbuffered.bytes_allocated,
        dp_peak_bytes: m_cdtw.dp_peak_bytes.max(m_fast.dp_peak_bytes),
        fastdtw_peak_bytes: fast.peak_bytes,
        fastdtw_ref_peak_bytes: fast_ref.peak_bytes,
        fastdtw_levels: m_fast.levels.len() as u32,
        peak_ratio: if cold.peak_bytes == 0 {
            0.0
        } else {
            fast.peak_bytes as f64 / cold.peak_bytes as f64
        },
    }
}

/// Runs the experiment. Deliberately serial and free of wall-clock
/// formatting: every figure in the record is a deterministic function
/// of the workload, so `BENCH_memory.json` diffs at zero tolerance.
pub fn run(scale: &Scale, _par: &ParConfig) -> Report {
    let band_percent = 10.0;
    let radius = 1;
    let warm_reps = scale.pick(16, 100);

    let case_a: Vec<(&str, usize)> = vec![("A1", 128), ("A2", 512)];
    let case_b: Vec<(&str, usize)> = vec![("B1", 2048), ("B2", 4096)];

    let mut total = WorkMeter::new();
    let mut rows = Vec::new();
    for &(case, n) in &case_a {
        let pool = beats(2, n, 0x4B31).expect("generator");
        let band = (n as f64 * band_percent / 100.0).ceil() as usize;
        rows.push(probe_case(
            case, &pool[0], &pool[1], band, radius, warm_reps, &mut total,
        ));
    }
    for &(case, n) in &case_b {
        let pool = random_walks(2, n, 0x4B32).expect("generator");
        let band = (n as f64 * band_percent / 100.0).ceil() as usize;
        rows.push(probe_case(
            case, &pool[0], &pool[1], band, radius, warm_reps, &mut total,
        ));
    }

    let record = Record {
        telemetry: heap_telemetry_enabled(),
        band_percent,
        radius,
        warm_reps,
        rows,
    };

    let mut rep = Report::new(
        "memory",
        "Heap telemetry: cDTW cold/warm vs FastDTW per-call footprint, 10% band",
        &record,
    );
    if !record.telemetry {
        rep.line("counting allocator disarmed (build with --features alloc-telemetry); all probes read zero");
    }
    rep.line(format!(
        "{:<6}{:>7}{:>6}{:>13}{:>11}{:>14}{:>11}{:>13}{:>13}{:>7}{:>8}",
        "case",
        "N",
        "band",
        "cdtw cold B",
        "warm alloc",
        "unbuf B/call",
        "dp peak B",
        "fastdtw pk B",
        "ref peak B",
        "levels",
        "ratio"
    ));
    for row in &record.rows {
        rep.line(format!(
            "{:<6}{:>7}{:>6}{:>13}{:>11}{:>14}{:>11}{:>13}{:>13}{:>7}{:>7.1}x",
            row.case,
            row.n,
            row.band,
            row.cdtw_cold_peak_bytes,
            row.cdtw_warm_allocs,
            row.cdtw_unbuffered_bytes,
            row.dp_peak_bytes,
            row.fastdtw_peak_bytes,
            row.fastdtw_ref_peak_bytes,
            row.fastdtw_levels,
            row.peak_ratio
        ));
    }
    // `probe_case` asserted the claim under the same condition.
    if record.telemetry && !spans_armed() {
        rep.line("warmed cDTW evaluators made zero allocations in every case");
    }
    rep.attach("work", total.report());
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the runs here: arming spans is process-wide, and an
    /// armed run's warm loop allocates.
    fn run_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn quick_run_rows_complete_and_deterministic() {
        let _serial = run_lock();
        let rep = run(&Scale::Quick, &ParConfig::serial());
        let rows = rep.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 4);
        for row in rows {
            assert!(row["fastdtw_levels"].as_u64().unwrap() >= 1);
            assert!(row["dp_peak_bytes"].as_u64().unwrap() > 0);
        }
        // Two runs must agree bitwise — the snapshot gate depends on it.
        let again = run(&Scale::Quick, &ParConfig::serial());
        assert_eq!(rep.json.to_string_compact(), again.json.to_string_compact());
    }

    /// `repro --trace` and `--profile` arm the spans, whose sinks
    /// allocate inside the warm loop; the run must still return.
    #[cfg(feature = "alloc-telemetry")]
    #[test]
    fn quick_run_returns_with_a_flight_recorder_armed() {
        let _serial = run_lock();
        tsdtw_obs::recorder_start(tsdtw_obs::DEFAULT_TRACE_CAPACITY);
        assert!(spans_armed());
        let rep = std::panic::catch_unwind(|| run(&Scale::Quick, &ParConfig::serial()));
        let trace = tsdtw_obs::recorder_stop().expect("the recorder was armed");
        let _ = tsdtw_obs::take_spans();
        let rep = rep.expect("an armed run returns");
        assert_eq!(rep.json["rows"].as_array().unwrap().len(), 4);
        assert!(
            !trace.events.is_empty(),
            "the run's spans reached the recorder"
        );
    }

    #[cfg(feature = "alloc-telemetry")]
    #[test]
    fn armed_probes_see_the_paper_claim() {
        let _serial = run_lock();
        let rep = run(&Scale::Quick, &ParConfig::serial());
        assert_eq!(rep.json["telemetry"], true);
        let rows = rep.json["rows"].as_array().unwrap();
        let peak = |r: &tsdtw_obs::Json, k: &str| r[k].as_u64().unwrap();
        for row in rows {
            // Warm loop is allocation-free; probe_case asserts too.
            assert_eq!(row["cdtw_warm_allocs"], 0u64);
            assert_eq!(row["cdtw_warm_bytes"], 0u64);
            // The analytic DP high-water mark never exceeds what the
            // allocator actually handed out at peak.
            assert!(
                peak(row, "dp_peak_bytes")
                    <= peak(row, "cdtw_cold_peak_bytes").max(peak(row, "fastdtw_peak_bytes"))
            );
            // FastDTW's transient footprint dwarfs the band's DP scratch.
            assert!(
                peak(row, "fastdtw_peak_bytes") > peak(row, "cdtw_cold_peak_bytes"),
                "case {}",
                row["case"]
            );
            // An unbuffered call pays real per-call bytes; the reference
            // implementation's hash-map DP out-allocates the tuned one.
            assert!(peak(row, "cdtw_unbuffered_bytes") > 0);
            assert!(
                peak(row, "fastdtw_ref_peak_bytes") > peak(row, "fastdtw_peak_bytes"),
                "case {}",
                row["case"]
            );
        }
        // More levels, more resident pyramid: the per-call peak grows
        // monotonically across B1 -> B2 (doubling N adds a level).
        let b1 = peak(&rows[2], "fastdtw_peak_bytes");
        let b2 = peak(&rows[3], "fastdtw_peak_bytes");
        assert!(rows[3]["fastdtw_levels"].as_u64() > rows[2]["fastdtw_levels"].as_u64());
        assert!(b2 > b1);
    }
}
