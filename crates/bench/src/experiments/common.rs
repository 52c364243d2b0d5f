//! Timed all-pairs workloads shared by the Fig. 1 and Fig. 4 experiments.
//!
//! Every algorithm gets the same treatment: round-robin pair distribution
//! over the same number of scoped-thread workers, per-thread reusable state
//! where the algorithm admits it (`BandedDtw` caches its window and
//! scratch rows), and a `black_box`ed accumulator so the optimizer cannot
//! delete the work.
//!
//! Because the reference FastDTW is orders of magnitude slower per call,
//! callers measure it on a smaller pair population and extrapolate — the
//! per-pair cost of every algorithm here is independent of which pair is
//! measured, so the extrapolation is exact up to timer noise.

use std::hint::black_box;
use std::time::Instant;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance_metered, percent_to_band, BandedDtw};
use tsdtw_core::fastdtw::{fastdtw_distance, fastdtw_distance_metered, fastdtw_ref_distance};
use tsdtw_core::obs::{Json, WorkMeter};
use tsdtw_mining::ParConfig;

/// Which distance implementation an all-pairs run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Exact `cDTW_w` (parameter: `w` in percent of N).
    Cdtw,
    /// Reference FastDTW — the canonical cell-list + hash-map
    /// implementation the community actually ran (parameter: radius).
    FastDtwRef,
    /// Tuned FastDTW — shares the exact kernels (parameter: radius).
    FastDtwTuned,
}

impl Algo {
    /// Display label used in reports, e.g. `cDTW_4%` / `FastDTW_10`.
    pub fn label(&self, param: f64) -> String {
        match self {
            Algo::Cdtw => format!("cDTW_{param}%"),
            Algo::FastDtwRef => format!("FastDTW_{} (reference)", param as usize),
            Algo::FastDtwTuned => format!("FastDTW_{} (tuned)", param as usize),
        }
    }
}

/// Enumerates all unordered pairs `(i, j)`, `i < j`.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect()
}

/// Wall-clock seconds for all pairwise distances of `series` under `algo`
/// with parameter `param` (`w` percent for cDTW, radius for FastDTW).
///
/// This is a pure *timing* loop — it produces a single wall-clock number
/// and no per-pair results or counters — so it keeps its own static
/// round-robin worker split (per-thread `BandedDtw` reuse matters here)
/// and takes only the worker count from `par`.
pub fn time_allpairs(series: &[Vec<f64>], algo: Algo, param: f64, par: &ParConfig) -> f64 {
    let n = series.len();
    let len = series[0].len();
    let pairs = pairs(n);
    let threads = par.n_threads.max(1);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let pairs = &pairs;
            scope.spawn(move || {
                let mut acc = 0.0;
                let mut k = t;
                match algo {
                    Algo::Cdtw => {
                        let band = percent_to_band(len, param).expect("valid w");
                        let mut eval = BandedDtw::new(len, len, band).expect("valid shape");
                        while k < pairs.len() {
                            let (i, j) = pairs[k];
                            acc += eval
                                .distance(&series[i], &series[j], SquaredCost)
                                .expect("valid inputs");
                            k += threads;
                        }
                    }
                    Algo::FastDtwRef => {
                        let radius = param as usize;
                        while k < pairs.len() {
                            let (i, j) = pairs[k];
                            acc +=
                                fastdtw_ref_distance(&series[i], &series[j], radius, SquaredCost)
                                    .expect("valid inputs");
                            k += threads;
                        }
                    }
                    Algo::FastDtwTuned => {
                        let radius = param as usize;
                        while k < pairs.len() {
                            let (i, j) = pairs[k];
                            acc += fastdtw_distance(&series[i], &series[j], radius, SquaredCost)
                                .expect("valid inputs");
                            k += threads;
                        }
                    }
                }
                black_box(acc);
            });
        }
    });
    t0.elapsed().as_secs_f64()
}

/// One row of a sweep result.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// `"cdtw"`, `"fastdtw_ref"` or `"fastdtw_tuned"`.
    pub algo: String,
    /// The parameter value: `w` in percent for cDTW, `r` in cells for
    /// FastDTW.
    pub param: f64,
    /// Pairs actually measured for this row.
    pub measured_pairs: usize,
    /// Measured seconds on those pairs.
    pub measured_s: f64,
    /// Linear extrapolation to the paper's full pair count.
    pub extrapolated_s: f64,
}

tsdtw_obs::impl_to_json!(SweepRow {
    algo,
    param,
    measured_pairs,
    measured_s,
    extrapolated_s,
});

fn algo_key(algo: Algo) -> &'static str {
    match algo {
        Algo::Cdtw => "cdtw",
        Algo::FastDtwRef => "fastdtw_ref",
        Algo::FastDtwTuned => "fastdtw_tuned",
    }
}

/// Measures one algorithm across a parameter grid, extrapolating every
/// total from this population's pair count to `target_pairs`.
pub fn sweep_algo(
    series: &[Vec<f64>],
    algo: Algo,
    params: &[f64],
    target_pairs: usize,
    par: &ParConfig,
) -> Vec<SweepRow> {
    let n = series.len();
    let measured_pairs = n * (n - 1) / 2;
    let scale = target_pairs as f64 / measured_pairs as f64;
    params
        .iter()
        .map(|&p| {
            let s = time_allpairs(series, algo, p, par);
            SweepRow {
                algo: algo_key(algo).into(),
                param: p,
                measured_pairs,
                measured_s: s,
                extrapolated_s: s * scale,
            }
        })
        .collect()
}

/// Meters one representative comparison at an experiment's configuration:
/// a `cDTW_w` evaluation (skipped when `w_percent` is `None`) and a tuned
/// FastDTW distance at `radius` (skipped when `None`), over the given pair —
/// the same distance-only entry the timed loops call.
///
/// Experiments attach the returned counter report as their `work` section.
/// Metering is deliberately kept *out* of the timed hot loops — the work
/// per comparison is identical across a population of same-length pairs,
/// so one metered pass characterizes the whole run without perturbing the
/// timings it rides along with.
pub fn work_sample(x: &[f64], y: &[f64], w_percent: Option<f64>, radius: Option<usize>) -> Json {
    let mut meter = WorkMeter::new();
    if let Some(w) = w_percent {
        let band = percent_to_band(x.len().max(y.len()), w).expect("valid w");
        cdtw_distance_metered(x, y, band, SquaredCost, &mut meter).expect("valid inputs");
    }
    if let Some(r) = radius {
        fastdtw_distance_metered(x, y, r, SquaredCost, &mut meter).expect("valid inputs");
    }
    meter.report()
}

/// Finds the row for a given algorithm key and parameter.
pub fn find<'a>(rows: &'a [SweepRow], algo: &str, param: f64) -> Option<&'a SweepRow> {
    rows.iter()
        .find(|r| r.algo == algo && (r.param - param).abs() < 1e-9)
}

/// Renders the standard sweep table into report lines.
pub fn render_rows(rows: &[SweepRow], lines: &mut Vec<String>) {
    lines.push(format!(
        "{:<30}{:>12}{:>16}{:>12}",
        "setting", "measured", "extrapolated", "pairs"
    ));
    for r in rows {
        let label = match r.algo.as_str() {
            "cdtw" => Algo::Cdtw.label(r.param),
            "fastdtw_ref" => Algo::FastDtwRef.label(r.param),
            _ => Algo::FastDtwTuned.label(r.param),
        };
        lines.push(format!(
            "{:<30}{:>12}{:>16}{:>12}",
            label,
            crate::timing::human(r.measured_s),
            crate::timing::human(r.extrapolated_s),
            r.measured_pairs
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(count: usize, len: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|k| {
                (0..len)
                    .map(|i| ((k * 13 + i) as f64 * 0.21).sin())
                    .collect()
            })
            .collect()
    }

    fn par(n: usize) -> ParConfig {
        ParConfig::new(n).unwrap()
    }

    #[test]
    fn sweep_produces_a_row_per_setting_with_extrapolation() {
        let s = toy(8, 64);
        let rows = sweep_algo(&s, Algo::Cdtw, &[0.0, 10.0], 1000, &par(2));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert_eq!(r.measured_pairs, 28);
            assert!((r.extrapolated_s - r.measured_s * 1000.0 / 28.0).abs() < 1e-9);
        }
    }

    #[test]
    fn find_locates_rows() {
        let s = toy(6, 32);
        let mut rows = sweep_algo(&s, Algo::Cdtw, &[5.0], 100, &par(1));
        rows.extend(sweep_algo(&s, Algo::FastDtwTuned, &[2.0], 100, &par(1)));
        assert!(find(&rows, "cdtw", 5.0).is_some());
        assert!(find(&rows, "fastdtw_tuned", 2.0).is_some());
        assert!(find(&rows, "fastdtw_ref", 2.0).is_none());
    }

    #[test]
    fn all_three_algorithms_run() {
        let s = toy(5, 48);
        for algo in [Algo::Cdtw, Algo::FastDtwRef, Algo::FastDtwTuned] {
            let t = time_allpairs(&s, algo, 4.0, &par(2));
            assert!(t >= 0.0, "{algo:?}");
        }
    }

    #[test]
    fn cdtw_beats_reference_fastdtw_at_matched_parameters() {
        // The paper's core claim, visible already on tiny populations: the
        // canonical FastDTW implementation loses to exact banded DTW.
        let s = toy(8, 128);
        let cdtw = time_allpairs(&s, Algo::Cdtw, 5.0, &par(1));
        let fast = time_allpairs(&s, Algo::FastDtwRef, 5.0, &par(1));
        assert!(
            cdtw < fast,
            "cDTW_5% should beat reference FastDTW_5 on N=128: {cdtw}s vs {fast}s"
        );
    }

    #[test]
    fn labels_are_human_readable() {
        assert_eq!(Algo::Cdtw.label(4.0), "cDTW_4%");
        assert_eq!(Algo::FastDtwRef.label(10.0), "FastDTW_10 (reference)");
        assert_eq!(Algo::FastDtwTuned.label(0.0), "FastDTW_0 (tuned)");
    }
}
