//! `knn_classify` (Appendix B / Fig. 2): one request is the 1-NN of one
//! test gesture among 256 training gestures, by brute force under
//! `cDTW_5%` (the batched scan tier) or under `FastDTW_10`.

use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::banded::percent_to_band;
use tsdtw::core::dtw::batch::{cdtw_batch_distances_metered, BatchBuffer, LANES};
use tsdtw::core::fastdtw::fastdtw_ref_metered;
use tsdtw::core::obs::{Meter, NoMeter, WorkMeter};
use tsdtw::datasets::gesture::labeled_short_gestures;
use tsdtw::datasets::LabeledDataset;
use tsdtw::mining::knn::{nn_brute_force_metered, nn_cascade};
use tsdtw::mining::{DistanceSpec, LabeledView};

use super::{
    exact_counters, fastdtw_counters, full_dtw, stale_replay, ucr_text, Closing, Walls, RADIUS,
};
use crate::bench::{Answer, BenchResult, Scale, Side, Workload};
use crate::trace::{fastdtw_replay, fastdtw_split, Layers, Tracer};

/// Reference FastDTW comparisons timed per traced request (it runs
/// hundreds of times slower than the tuned one).
const REFERENCE_SAMPLE: usize = 16;

struct Knn {
    train: LabeledDataset,
    test: LabeledDataset,
    band: usize,
}

/// 512 short gestures of length 128 (8 classes × 64) from one generation,
/// split half and half into train and test.
pub fn generate(seed: u64, scale: Scale) -> BenchResult<Vec<String>> {
    let (length, per_class) = match scale {
        Scale::Paper => (128, 64),
        Scale::Smoke => (24, 2),
    };
    let (train, test) = labeled_short_gestures(length, 8, per_class, seed)?.split_stratified(2)?;
    Ok(vec![ucr_text(&train)?, ucr_text(&test)?])
}

/// Train and test views at `cDTW_5%` (band 7 at N = 128).
pub fn build(parsed: Vec<LabeledDataset>, _: Scale) -> BenchResult<Box<dyn Workload>> {
    let [train, test]: [LabeledDataset; 2] = parsed
        .try_into()
        .map_err(|_| "knn_classify needs a train and a test text")?;
    LabeledView::new(&train.series, &train.labels)?;
    Ok(Box::new(Knn {
        band: percent_to_band(train.series_len(), 5.0)?,
        train,
        test,
    }))
}

impl Knn {
    fn view(&self) -> LabeledView<'_> {
        LabeledView {
            series: &self.train.series,
            labels: &self.train.labels,
        }
    }

    fn nn<M: Meter>(&self, side: Side, req: usize, m: &mut M) -> tsdtw::core::Result<Answer> {
        let spec = match side {
            Side::Exact => DistanceSpec::CdtwBand(self.band),
            Side::FastDtw => DistanceSpec::FastDtw(RADIUS),
        };
        let nn = nn_brute_force_metered(&self.view(), &self.test.series[req], spec, usize::MAX, m)?;
        Ok(Answer {
            index: nn.index,
            distance: nn.distance,
        })
    }
}

impl Workload for Knn {
    fn requests(&self) -> usize {
        self.test.len()
    }

    fn comparisons(&self, _: Side) -> u64 {
        self.train.len() as u64
    }

    fn call(
        &self,
        side: Side,
        req: usize,
        meter: Option<&mut WorkMeter>,
    ) -> tsdtw::core::Result<Answer> {
        match meter {
            Some(m) => self.nn(side, req, m),
            None => self.nn(side, req, &mut NoMeter),
        }
    }

    fn exact_oracle(&self, req: usize) -> BenchResult<Answer> {
        let nn = nn_cascade(&self.view(), &self.test.series[req], self.band, usize::MAX)?;
        Ok(Answer {
            index: nn.index,
            distance: nn.distance,
        })
    }

    fn fastdtw_floor(&self, req: usize, got: Answer) -> BenchResult<Option<f64>> {
        full_dtw(&self.test.series[req], &self.train.series[got.index]).map(Some)
    }

    fn trace(&self, req: usize, tr: &mut Tracer) -> BenchResult<Layers> {
        let q = &self.test.series[req];
        let train = &self.train.series;
        let walls = Walls::measure(self, req)?;
        let mut out = Layers::new();
        exact_counters(&walls.exact, &mut out);
        fastdtw_counters(
            &walls.fastdtw,
            walls.exact.cells,
            train.len() as u64,
            &mut out,
        );

        // Exact: the batched kernel alone over the scan's lane groups, on a
        // warmed buffer.
        let groups: Vec<Vec<&[f64]>> = train
            .chunks(LANES)
            .map(|g| g.iter().map(Vec::as_slice).collect())
            .collect();
        let mut buf = BatchBuffer::new();
        let mut d = [0.0; LANES];
        let warm = &groups[0];
        cdtw_batch_distances_metered(
            q,
            warm,
            self.band,
            SquaredCost,
            &mut d[..warm.len()],
            &mut buf,
            &mut NoMeter,
        )?;
        let mut batch = WorkMeter::new();
        let ((swept, batch_s), _) = tr.span("exact", req, |tr| {
            tr.span("dtw.batch", req, |_| -> tsdtw::core::Result<()> {
                for ys in &groups {
                    let d = &mut d[..ys.len()];
                    cdtw_batch_distances_metered(
                        q,
                        ys,
                        self.band,
                        SquaredCost,
                        d,
                        &mut buf,
                        &mut batch,
                    )?;
                }
                Ok(())
            })
        });
        swept?;
        let ns_per_cell = batch_s * 1e9 / batch.cells as f64;
        let dtw_s = walls.exact.cells as f64 * ns_per_cell * 1e-9;
        out.insert("dtw.batch.ns_per_cell", ns_per_cell);
        out.insert("dtw.s", dtw_s);

        // FastDTW: every comparison of the scan, replayed layer by layer.
        let mark = tr.mark();
        let (best, _) = tr.span("fastdtw", req, |tr| -> BenchResult<(usize, f64)> {
            let mut best = (0, f64::INFINITY);
            for (i, c) in train.iter().enumerate() {
                let (d, _) = fastdtw_replay(q, c, RADIUS, tr, req)?;
                if d < best.1 {
                    best = (i, d);
                }
            }
            Ok(best)
        });
        let best = best?;
        if best.0 != walls.fastdtw_index || best.1.to_bits() != walls.fastdtw_distance.to_bits() {
            return Err(stale_replay("knn_classify", req));
        }
        let fastdtw_layers_s = fastdtw_split(tr, mark, 1.0, &mut out);

        let mut reference = WorkMeter::new();
        let sample = &train[..REFERENCE_SAMPLE.min(train.len())];
        let t0 = std::time::Instant::now();
        for c in sample {
            fastdtw_ref_metered(q, c, RADIUS, SquaredCost, &mut reference)?;
        }
        let reference_s = t0.elapsed().as_secs_f64() / sample.len() as f64;
        Closing {
            exact_wall_s: walls.exact_s,
            exact_layers_s: dtw_s,
            fastdtw_wall_s: walls.fastdtw_s,
            fastdtw_layers_s,
            reference_s,
            reference_cells: reference.cells as f64 / sample.len() as f64,
        }
        .write(self, &walls, &mut out);
        Ok(out)
    }
}
