//! The four workloads, their shared oracles, and the trace bookkeeping
//! every workload's breakdown ends with.

mod knn;
mod pairs;
mod subseq;

use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::batch::LANES;
use tsdtw::core::dtw::full::dtw_distance;
use tsdtw::core::obs::WorkMeter;
use tsdtw::datasets::ucr_format::write_ucr;
use tsdtw::datasets::LabeledDataset;

use crate::bench::{BenchResult, Side, Spec, Workload};
use crate::trace::{ratio, time_median, Layers};

/// Every workload, in run order. Why each exists is in the README and in
/// `BENCHMARK.json`.
pub const ALL: &[Spec] = &[
    Spec {
        name: "pairs_ucr",
        generate: pairs::generate_ucr,
        build: pairs::build_ucr,
    },
    Spec {
        name: "pairs_long",
        generate: pairs::generate_long,
        build: pairs::build_long,
    },
    Spec {
        name: "knn_classify",
        generate: knn::generate,
        build: knn::build,
    },
    Spec {
        name: "subseq_search",
        generate: subseq::generate,
        build: subseq::build,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Spec> {
    ALL.iter().find(|s| s.name == name)
}

/// FastDTW radius on every workload (the paper's tuned `FastDTW_10`).
const RADIUS: usize = 10;

/// A dataset as UCR text, the form the set-up parses.
fn ucr_text(d: &LabeledDataset) -> BenchResult<String> {
    let mut bytes = Vec::new();
    write_ucr(d, &mut bytes)?;
    Ok(String::from_utf8(bytes)?)
}

/// Textbook `cDTW` under the squared cost over `|i − j| ≤ band`, for
/// equal lengths: the benchmark's own oracle, independent of the
/// library's kernel tiers. Minima are exact, so a correct kernel agrees
/// with it bitwise.
fn naive_cdtw(x: &[f64], y: &[f64], band: usize) -> f64 {
    let n = x.len();
    assert_eq!(n, y.len(), "the oracle takes equal lengths");
    let mut prev = vec![f64::INFINITY; n];
    let mut cur = vec![f64::INFINITY; n];
    for (i, &xi) in x.iter().enumerate() {
        let lo = i.saturating_sub(band);
        let hi = (i + band).min(n - 1);
        let prev_lo = (i.max(1) - 1).saturating_sub(band);
        let prev_hi = (i.max(1) - 1 + band).min(n - 1);
        for j in lo..=hi {
            let d = xi - y[j];
            let c = d * d;
            if i == 0 && j == 0 {
                cur[j] = c;
                continue;
            }
            let up = if i > 0 && j <= prev_hi {
                prev[j]
            } else {
                f64::INFINITY
            };
            let diag = if i > 0 && j > prev_lo {
                prev[j - 1]
            } else {
                f64::INFINITY
            };
            let left = if j > lo { cur[j - 1] } else { f64::INFINITY };
            cur[j] = c + diag.min(up).min(left);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[n - 1]
}

/// Unconstrained DTW, the floor no FastDTW answer may undercut.
fn full_dtw(x: &[f64], y: &[f64]) -> BenchResult<f64> {
    Ok(dtw_distance(x, y, SquaredCost)?)
}

/// What every workload's breakdown starts from: the untraced request
/// walls (median of three) and the metered twins' counters.
struct Walls {
    exact_s: f64,
    fastdtw_s: f64,
    fastdtw_distance: f64,
    fastdtw_index: usize,
    exact: WorkMeter,
    fastdtw: WorkMeter,
}

impl Walls {
    fn measure(w: &dyn Workload, req: usize) -> BenchResult<Walls> {
        let (exact, exact_s) = time_median(3, || w.call(Side::Exact, req, None));
        let (fast, fastdtw_s) = time_median(3, || w.call(Side::FastDtw, req, None));
        exact?;
        let fast = fast?;
        let mut exact = WorkMeter::new();
        w.call(Side::Exact, req, Some(&mut exact))?;
        let mut fastdtw = WorkMeter::new();
        w.call(Side::FastDtw, req, Some(&mut fastdtw))?;
        Ok(Walls {
            exact_s,
            fastdtw_s,
            fastdtw_distance: fast.distance,
            fastdtw_index: fast.index,
            exact,
            fastdtw,
        })
    }
}

/// Work counters of one exact request.
fn exact_counters(m: &WorkMeter, out: &mut Layers) {
    let pruned = m.pruned_kim + m.pruned_keogh_qc + m.pruned_keogh_cq;
    for (name, v) in [
        ("dtw.cells", m.cells as f64),
        ("dtw.window_cells", m.window_cells as f64),
        ("dtw.fill_frac", m.fill_fraction().unwrap_or(0.0)),
        ("dtw.peak_bytes", m.dp_peak_bytes as f64),
        (
            "dtw.batch_lane_fill",
            ratio(m.batch_lanes as f64, (m.batch_groups * LANES as u64) as f64),
        ),
        (
            "dtw.ea_abandon_frac",
            ratio(
                m.dtw_abandoned as f64,
                (m.dtw_abandoned + m.dtw_exact) as f64,
            ),
        ),
        ("lower_bounds.kim_calls", m.lb_kim as f64),
        ("lower_bounds.keogh_calls", m.lb_keogh as f64),
        (
            "lower_bounds.prune_frac",
            ratio(pruned as f64, m.candidates() as f64),
        ),
    ] {
        out.insert(name, v);
    }
}

/// Work counters of one FastDTW request of `comparisons` distances.
fn fastdtw_counters(m: &WorkMeter, exact_cells: u64, comparisons: u64, out: &mut Layers) {
    let window: u64 = m.levels.iter().map(|l| l.window_cells).sum();
    let expanded: u64 = m.levels.iter().map(|l| l.expanded_cells).sum();
    out.insert(
        "fastdtw.levels",
        ratio(m.levels.len() as f64, comparisons as f64),
    );
    out.insert("fastdtw.cells", m.cells as f64);
    out.insert(
        "fastdtw.expanded_frac",
        ratio(expanded as f64, window as f64),
    );
    out.insert(
        "fastdtw.cells_over_exact",
        ratio(m.cells as f64, exact_cells as f64),
    );
}

/// Closes a breakdown: the walls the layers decompose, the residual each
/// leaves (so layers + residual = wall by construction), and the
/// per-comparison time ratios against the exact path.
struct Closing {
    exact_wall_s: f64,
    exact_layers_s: f64,
    fastdtw_wall_s: f64,
    fastdtw_layers_s: f64,
    /// Reference FastDTW seconds and cells per comparison.
    reference_s: f64,
    reference_cells: f64,
}

impl Closing {
    fn write(&self, w: &dyn Workload, walls: &Walls, out: &mut Layers) {
        let exact_per_cmp = walls.exact_s / w.comparisons(Side::Exact) as f64;
        let fast_cmp = w.comparisons(Side::FastDtw) as f64;
        let exact_residual = self.exact_wall_s - self.exact_layers_s;
        for (name, v) in [
            ("request.exact_wall_s", self.exact_wall_s),
            ("exact.residual_s", exact_residual),
            (
                "exact.residual_frac",
                ratio(exact_residual, self.exact_wall_s),
            ),
            ("request.fastdtw_wall_s", self.fastdtw_wall_s),
            (
                "fastdtw.residual_s",
                self.fastdtw_wall_s - self.fastdtw_layers_s,
            ),
            ("fastdtw.reference.cmp_per_s", ratio(1.0, self.reference_s)),
            ("fastdtw.reference.cells", self.reference_cells * fast_cmp),
            (
                "verdict.fastdtw_over_exact",
                ratio(walls.fastdtw_s / fast_cmp, exact_per_cmp),
            ),
            (
                "verdict.reference_over_exact",
                ratio(self.reference_s, exact_per_cmp),
            ),
        ] {
            out.insert(name, v);
        }
    }
}

/// The error a replay that no longer reproduces the library's FastDTW
/// answer raises.
fn stale_replay(workload: &str, req: usize) -> Box<dyn std::error::Error + Send + Sync> {
    format!(
        "{workload}: the traced FastDTW replay of request {req} no longer matches \
         the library's answer; the benchmark's layer model is out of date"
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench::{run, Answer, Scale, Settings, Verifier};
    use crate::trace::PER_LAYER;
    use tsdtw::core::dtw::banded::cdtw_distance;

    #[test]
    fn naive_oracle_is_bitwise_the_library_band() {
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
        let y: Vec<f64> = (0..60).map(|i| (i as f64 * 0.29).cos() + 0.1).collect();
        for band in [0, 1, 5, 59, 80] {
            let lib = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
            assert_eq!(
                naive_cdtw(&x, &y, band).to_bits(),
                lib.to_bits(),
                "band {band}"
            );
        }
    }

    #[test]
    fn generated_text_depends_on_the_seed_only() {
        for spec in ALL {
            let a = (spec.generate)(7, Scale::Smoke).unwrap();
            let b = (spec.generate)(7, Scale::Smoke).unwrap();
            let c = (spec.generate)(8, Scale::Smoke).unwrap();
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    fn smoke_workload(spec: &Spec) -> Box<dyn Workload> {
        let texts = (spec.generate)(1, Scale::Smoke).unwrap();
        let parsed = texts
            .iter()
            .map(|t| tsdtw::datasets::ucr_format::read_ucr(spec.name, t.as_bytes()).unwrap())
            .collect();
        (spec.build)(parsed, Scale::Smoke).unwrap()
    }

    #[test]
    fn an_injected_oracle_mismatch_counts_as_failed() {
        for spec in ALL {
            let w = smoke_workload(spec);
            let mut v = Verifier::new(w.requests());
            let good = w.call(Side::Exact, 0, None).unwrap();
            v.record(Side::Exact, 0, Ok(good));
            v.record(Side::Exact, 0, Ok(good));
            v.finish(w.as_ref()).unwrap();
            assert_eq!((v.attempted, v.failed), (2, 0), "{}", spec.name);

            let wrong = Answer {
                distance: good.distance + 1.0,
                ..good
            };
            let mut v = Verifier::new(w.requests());
            v.record(Side::Exact, 0, Ok(wrong));
            v.record(Side::Exact, 0, Ok(wrong));
            v.record(Side::Exact, 0, Ok(good));
            v.finish(w.as_ref()).unwrap();
            assert_eq!((v.attempted, v.failed), (3, 3), "{}", spec.name);
        }
    }

    #[test]
    fn smoke_run_of_every_workload() {
        for spec in ALL {
            for trace in [false, true] {
                let settings = Settings {
                    seed: 3,
                    seconds: 0.02,
                    trace,
                    scale: Scale::Smoke,
                };
                let out = run(spec, &settings).unwrap();
                assert!(out.attempted > 0, "{}", spec.name);
                assert_eq!(out.failed, 0, "{} trace={trace}", spec.name);
                let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
                if trace {
                    let expected: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
                    assert_eq!(names, expected);
                    assert!(out.tracer.is_some());
                } else {
                    assert_eq!(
                        names,
                        [
                            "exact_cmp_per_s",
                            "exact_p50_ms",
                            "fastdtw_cmp_per_s",
                            "fastdtw_p50_ms",
                            "setup_s",
                            "peak_rss_mb"
                        ]
                    );
                    assert!(out.metrics.iter().all(|m| m.value > 0.0), "{}", spec.name);
                }
                assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            }
        }
    }
}
