//! `pairs_ucr` (Case A, Fig. 1) and `pairs_long` (Case B, §3.2): one request
//! is one pair, answered by `cDTW_w` on the exact side and by `FastDTW_10`
//! on the other.

use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::banded::{cdtw_distance_metered, percent_to_band};
use tsdtw::core::dtw::windowed::{windowed_distance_metered_kernel, DtwBuffer};
use tsdtw::core::fastdtw::{fastdtw_metered, fastdtw_ref_metered};
use tsdtw::core::obs::{Meter, NoMeter, WorkMeter};
use tsdtw::core::{Kernel, SearchWindow};
use tsdtw::datasets::gesture::{uwave_like, GestureConfig};
use tsdtw::datasets::music::performance_pair;
use tsdtw::datasets::{LabeledDataset, SeededRng};

use super::{
    exact_counters, fastdtw_counters, full_dtw, naive_cdtw, stale_replay, ucr_text, Closing, Walls,
    RADIUS,
};
use crate::bench::{Answer, BenchResult, Scale, Side, Workload};
use crate::trace::{fastdtw_replay, fastdtw_split, time_median, Layers, Tracer};

/// Every pair of `series` (`pairs_ucr`) or consecutive studio/live pairs
/// (`pairs_long`).
struct Pairs {
    name: &'static str,
    series: Vec<Vec<f64>>,
    pairs: Vec<(usize, usize)>,
    band: usize,
    /// FastDTW answers of every `fidelity_every`-th pair are checked
    /// against full DTW (which is quadratic, so `pairs_long` checks two).
    fidelity_every: usize,
}

/// 64 UWave-like gestures of length 945 (8 classes × 8).
pub fn generate_ucr(seed: u64, scale: Scale) -> BenchResult<Vec<String>> {
    let (length, per_class) = match scale {
        Scale::Paper => (945, 8),
        Scale::Smoke => (40, 1),
    };
    let config = GestureConfig {
        length,
        n_classes: 8,
        per_class,
        max_shift: length as f64 * 0.04,
        ..GestureConfig::default()
    };
    Ok(vec![ucr_text(&uwave_like(&config, seed)?)?])
}

/// All pairs at `cDTW_4%`.
pub fn build_ucr(parsed: Vec<LabeledDataset>, _: Scale) -> BenchResult<Box<dyn Workload>> {
    let series = parsed.into_iter().next().ok_or("no gesture text")?.series;
    let n = series.len();
    let pairs = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    Ok(Box::new(Pairs {
        name: "pairs_ucr",
        band: percent_to_band(series[0].len(), 4.0)?,
        series,
        pairs,
        fidelity_every: 16,
    }))
}

/// 8 studio/live performance pairs of length 24,000 drifting by up to 200
/// samples.
pub fn generate_long(seed: u64, scale: Scale) -> BenchResult<Vec<String>> {
    let (n, drift, count) = match scale {
        Scale::Paper => (24_000, 200.0, 8),
        Scale::Smoke => (300, 3.0, 2),
    };
    let mut rng = SeededRng::new(seed);
    let mut series = Vec::with_capacity(2 * count);
    let mut labels = Vec::with_capacity(2 * count);
    for k in 0..count {
        let pair = performance_pair(n, drift, rng.child_seed())?;
        series.extend([pair.studio, pair.live]);
        labels.extend([k, k]);
    }
    Ok(vec![ucr_text(&LabeledDataset::new(
        "pairs_long",
        series,
        labels,
    )?)?])
}

/// Each studio/live pair at `cDTW_0.83%` (band 200 at N = 24,000).
pub fn build_long(parsed: Vec<LabeledDataset>, _: Scale) -> BenchResult<Box<dyn Workload>> {
    let series = parsed
        .into_iter()
        .next()
        .ok_or("no performance text")?
        .series;
    Ok(Box::new(Pairs {
        name: "pairs_long",
        band: percent_to_band(series[0].len(), 0.83)?,
        pairs: (0..series.len() / 2).map(|k| (2 * k, 2 * k + 1)).collect(),
        series,
        fidelity_every: 4,
    }))
}

impl Pairs {
    fn pair(&self, req: usize) -> (&[f64], &[f64]) {
        let (i, j) = self.pairs[req];
        (&self.series[i], &self.series[j])
    }

    fn distance<M: Meter>(&self, side: Side, req: usize, m: &mut M) -> tsdtw::core::Result<f64> {
        let (x, y) = self.pair(req);
        match side {
            Side::Exact => cdtw_distance_metered(x, y, self.band, SquaredCost, m),
            Side::FastDtw => fastdtw_metered(x, y, RADIUS, SquaredCost, m).map(|(d, _, _)| d),
        }
    }
}

impl Workload for Pairs {
    fn requests(&self) -> usize {
        self.pairs.len()
    }

    fn comparisons(&self, _: Side) -> u64 {
        1
    }

    fn call(
        &self,
        side: Side,
        req: usize,
        meter: Option<&mut WorkMeter>,
    ) -> tsdtw::core::Result<Answer> {
        let distance = match meter {
            Some(m) => self.distance(side, req, m)?,
            None => self.distance(side, req, &mut NoMeter)?,
        };
        Ok(Answer {
            index: req,
            distance,
        })
    }

    fn exact_oracle(&self, req: usize) -> BenchResult<Answer> {
        let (x, y) = self.pair(req);
        Ok(Answer {
            index: req,
            distance: naive_cdtw(x, y, self.band),
        })
    }

    fn fastdtw_floor(&self, req: usize, _: Answer) -> BenchResult<Option<f64>> {
        if !req.is_multiple_of(self.fidelity_every) {
            return Ok(None);
        }
        let (x, y) = self.pair(req);
        full_dtw(x, y).map(Some)
    }

    fn trace(&self, req: usize, tr: &mut Tracer) -> BenchResult<Layers> {
        let (x, y) = self.pair(req);
        let walls = Walls::measure(self, req)?;
        let mut out = Layers::new();
        exact_counters(&walls.exact, &mut out);
        fastdtw_counters(&walls.fastdtw, walls.exact.cells, 1, &mut out);

        // Exact: the banded row sweep alone, on a warmed buffer and a
        // prebuilt window, so allocation and validation fall to the residual.
        let window = SearchWindow::sakoe_chiba(x.len(), y.len(), self.band);
        let mut buf = DtwBuffer::new();
        let sweep = |buf: &mut DtwBuffer| {
            windowed_distance_metered_kernel(
                x,
                y,
                &window,
                SquaredCost,
                buf,
                &mut NoMeter,
                Kernel::Auto,
            )
        };
        sweep(&mut buf)?;
        let ((swept, sweep_s), _) = tr.span("exact", req, |tr| {
            tr.span("dtw.sweep", req, |_| sweep(&mut buf))
        });
        swept?;
        out.insert(
            "dtw.sweep.ns_per_cell",
            sweep_s * 1e9 / walls.exact.cells as f64,
        );
        out.insert("dtw.s", sweep_s);

        let mark = tr.mark();
        let (replayed, _) = tr.span("fastdtw", req, |tr| fastdtw_replay(x, y, RADIUS, tr, req));
        if replayed?.0.to_bits() != walls.fastdtw_distance.to_bits() {
            return Err(stale_replay(self.name, req));
        }
        let fastdtw_layers_s = fastdtw_split(tr, mark, 1.0, &mut out);

        let mut reference = WorkMeter::new();
        let (refd, reference_s) = time_median(1, || {
            fastdtw_ref_metered(x, y, RADIUS, SquaredCost, &mut reference)
        });
        refd?;
        Closing {
            exact_wall_s: walls.exact_s,
            exact_layers_s: sweep_s,
            fastdtw_wall_s: walls.fastdtw_s,
            fastdtw_layers_s,
            reference_s,
            reference_cells: reference.cells as f64,
        }
        .write(self, &walls, &mut out);
        Ok(out)
    }
}
