//! `subseq_search` (footnote 2 / §3.4): one request is the best match of
//! one 128-point query in a 100,000-point random walk. The exact side is
//! the UCR-suite search (z-normalisation, LB_Kim, LB_Keogh,
//! early-abandoning cDTW) through the parallel executor's entry point at
//! its default of one worker, as `tsdtw search` runs it. FastDTW admits no
//! lower bound, so its side scores a fixed stride of 1,024 z-normalised
//! windows by brute force through the same executor.

use std::hint::black_box;
use std::time::Instant;

use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::banded::percent_to_band;
use tsdtw::core::dtw::early_abandon::cdtw_distance_ea_metered_buf_kernel;
use tsdtw::core::dtw::windowed::DtwBuffer;
use tsdtw::core::fastdtw::{fastdtw_distance, fastdtw_metered, fastdtw_ref_metered};
use tsdtw::core::lower_bounds::keogh::{lb_keogh_reordered, sort_indices_by_magnitude};
use tsdtw::core::lower_bounds::kim::lb_kim_hierarchy;
use tsdtw::core::norm::{znorm, RollingStats};
use tsdtw::core::obs::{MeterShard, NoMeter, WorkMeter};
use tsdtw::core::{Envelope, Kernel};
use tsdtw::datasets::random_walk::random_walks;
use tsdtw::datasets::{LabeledDataset, SeededRng};
use tsdtw::mining::search::{subsequence_search_metered, subsequence_search_par};
use tsdtw::mining::{par_map, subsequence_search, ParConfig};

use super::{
    exact_counters, fastdtw_counters, full_dtw, stale_replay, ucr_text, Closing, Walls, RADIUS,
};
use crate::bench::{Answer, BenchResult, Scale, Side, Workload};
use crate::trace::{fastdtw_replay, fastdtw_split, ratio, time_median, Layers, Tracer};

/// Workers of the executor in the traced run's `par.efficiency` probe
/// (`tsdtw search --threads 2`).
const PAR_WORKERS: usize = 2;
/// Windows whose lower bounds the traced run times for a unit cost.
const LB_SAMPLE: usize = 1024;
/// Windows whose full banded DP the traced run times for a unit cost.
const EA_SAMPLE: usize = 64;
/// FastDTW windows replayed layer by layer per traced request.
const REPLAY_SAMPLE: usize = 64;
/// Reference FastDTW windows timed per traced request.
const REFERENCE_SAMPLE: usize = 16;

struct Subseq {
    /// Request `r` searches haystack `r % haystacks.len()`.
    haystacks: Vec<Vec<f64>>,
    queries: Vec<Vec<f64>>,
    band: usize,
    /// Start positions of the windows the FastDTW side scores.
    windows: Vec<usize>,
}

/// Input sizes: haystacks, haystack length, queries, query length,
/// FastDTW windows.
///
/// How much of a random walk the lower bounds prune varies a lot from
/// query to query and somewhat from haystack to haystack, so a run spreads
/// its requests over 256 queries and 4 haystacks to keep the per-seed mean
/// work steady.
fn sizes(scale: Scale) -> (usize, usize, usize, usize, usize) {
    match scale {
        Scale::Paper => (4, 100_000, 256, 128, 1024),
        Scale::Smoke => (2, 2_000, 4, 32, 32),
    }
}

/// Random-walk haystacks and independent random-walk queries, as two UCR
/// texts.
pub fn generate(seed: u64, scale: Scale) -> BenchResult<Vec<String>> {
    let (h, n, count, m, _) = sizes(scale);
    let mut rng = SeededRng::new(seed);
    let haystacks = random_walks(h, n, rng.child_seed())?;
    let queries = random_walks(count, m, rng.child_seed())?;
    Ok(vec![
        ucr_text(&LabeledDataset::new("haystacks", haystacks, vec![0; h])?)?,
        ucr_text(&LabeledDataset::new("queries", queries, vec![0; count])?)?,
    ])
}

/// The haystacks, the queries at `cDTW_5%` (band 7 at 128 points) and the
/// FastDTW window positions.
pub fn build(parsed: Vec<LabeledDataset>, scale: Scale) -> BenchResult<Box<dyn Workload>> {
    let [haystacks, queries]: [LabeledDataset; 2] = parsed
        .try_into()
        .map_err(|_| "subseq_search needs a haystack and a query text")?;
    let m = queries.series_len();
    let last = haystacks
        .series_len()
        .checked_sub(m)
        .ok_or("haystacks shorter than the queries")?;
    let n_windows = sizes(scale).4;
    Ok(Box::new(Subseq {
        band: percent_to_band(m, 5.0)?,
        windows: (0..n_windows).map(|k| k * last / (n_windows - 1)).collect(),
        haystacks: haystacks.series,
        queries: queries.series,
    }))
}

impl Subseq {
    fn haystack(&self, req: usize) -> &[f64] {
        &self.haystacks[req % self.haystacks.len()]
    }

    /// The query-length window of request `req`'s haystack at `pos`.
    fn window(&self, req: usize, pos: usize) -> &[f64] {
        &self.haystack(req)[pos..pos + self.queries[req].len()]
    }

    fn best<M: MeterShard>(
        &self,
        side: Side,
        req: usize,
        meter: &mut M,
    ) -> tsdtw::core::Result<Answer> {
        let q = &self.queries[req];
        if side == Side::Exact {
            let hit = subsequence_search_par(
                self.haystack(req),
                q,
                self.band,
                &ParConfig::serial(),
                meter,
            )?;
            return Ok(Answer {
                index: hit.position,
                distance: hit.distance,
            });
        }
        let zq = znorm(q)?;
        let d = par_map(&ParConfig::serial(), &self.windows, meter, |_, &pos, m| {
            let zw = znorm(self.window(req, pos))?;
            fastdtw_metered(&zq, &zw, RADIUS, SquaredCost, m).map(|(d, _, _)| d)
        })?;
        let mut best = Answer {
            index: 0,
            distance: f64::INFINITY,
        };
        for (&pos, &d) in self.windows.iter().zip(&d) {
            if d < best.distance {
                best = Answer {
                    index: pos,
                    distance: d,
                };
            }
        }
        Ok(best)
    }
}

impl Workload for Subseq {
    fn requests(&self) -> usize {
        self.queries.len()
    }

    fn comparisons(&self, side: Side) -> u64 {
        match side {
            Side::Exact => (self.haystacks[0].len() - self.queries[0].len() + 1) as u64,
            Side::FastDtw => self.windows.len() as u64,
        }
    }

    fn call(
        &self,
        side: Side,
        req: usize,
        meter: Option<&mut WorkMeter>,
    ) -> tsdtw::core::Result<Answer> {
        match meter {
            Some(m) => self.best(side, req, m),
            None => self.best(side, req, &mut NoMeter),
        }
    }

    fn exact_oracle(&self, req: usize) -> BenchResult<Answer> {
        let hit = subsequence_search(self.haystack(req), &self.queries[req], self.band)?;
        Ok(Answer {
            index: hit.position,
            distance: hit.distance,
        })
    }

    fn fastdtw_floor(&self, req: usize, got: Answer) -> BenchResult<Option<f64>> {
        full_dtw(
            &znorm(&self.queries[req])?,
            &znorm(self.window(req, got.index))?,
        )
        .map(Some)
    }

    /// The breakdown is of the serial search: the layers' busy time sums
    /// to its wall. `par.efficiency` relates that wall to the same search
    /// on 2 workers.
    fn trace(&self, req: usize, tr: &mut Tracer) -> BenchResult<Layers> {
        let q = &self.queries[req];
        let haystack = self.haystack(req);
        let m = q.len();
        let positions = self.comparisons(Side::Exact) as usize;
        let walls = Walls::measure(self, req)?;
        let (serial, serial_s) = time_median(3, || subsequence_search(haystack, q, self.band));
        let serial = serial?;
        let mut counts = WorkMeter::new();
        subsequence_search_metered(haystack, q, self.band, &mut counts)?;
        let mut out = Layers::new();
        exact_counters(&counts, &mut out);
        fastdtw_counters(
            &walls.fastdtw,
            counts.cells,
            self.windows.len() as u64,
            &mut out,
        );
        let workers = ParConfig::new(PAR_WORKERS)?;
        let (par, par_s) = time_median(3, || {
            subsequence_search_par(haystack, q, self.band, &workers, &mut NoMeter)
        });
        par?;
        out.insert("par.efficiency", serial_s / (PAR_WORKERS as f64 * par_s));
        out.insert(
            "par.work_inflation",
            ratio(walls.exact.cells as f64, counts.cells as f64),
        );

        // Unit costs of each layer, on this request's inputs, with the
        // search's final best-so-far as the pruning threshold.
        let bsf = serial.distance;
        let zq = znorm(q)?;
        let order = sort_indices_by_magnitude(&zq);
        let stride = (positions / LB_SAMPLE.min(positions)).max(1);
        let sample: Vec<Vec<f64>> = (0..positions)
            .step_by(stride)
            .map(|p| znorm(self.window(req, p)))
            .collect::<Result<_, _>>()?;
        let mut stats = RollingStats::new(m)?;
        let mut ea = WorkMeter::new();
        let mut buf = DtwBuffer::new();
        let (spans, _) = tr.span("exact", req, |tr| -> BenchResult<[f64; 5]> {
            let (env, env_s) = tr.span("envelope", req, |_| Envelope::new(&zq, self.band));
            let env = env?;
            let ((), norm_s) = tr.span("norm", req, |_| {
                let mut window = vec![0.0; m];
                for (i, &v) in haystack.iter().enumerate() {
                    stats.push(v);
                    if stats.is_full() {
                        let (mean, std) = stats.mean_std();
                        let inv = if std > f64::EPSILON { 1.0 / std } else { 0.0 };
                        for (w, &h) in window.iter_mut().zip(&haystack[i + 1 - m..=i]) {
                            *w = (h - mean) * inv;
                        }
                        black_box(&window);
                    }
                }
            });
            let (kim, kim_s) = tr.span("lower_bounds.kim", req, |_| {
                sample.iter().try_for_each(|w| {
                    lb_kim_hierarchy(&zq, w, bsf).map(|b| {
                        black_box(b);
                    })
                })
            });
            let (keogh, keogh_s) = tr.span("lower_bounds.keogh", req, |_| {
                sample.iter().try_for_each(|w| {
                    lb_keogh_reordered(w, &env, &order, bsf).map(|b| {
                        black_box(b);
                    })
                })
            });
            let (swept, ea_s) = tr.span("dtw.ea", req, |_| {
                sample.iter().take(EA_SAMPLE).try_for_each(|w| {
                    cdtw_distance_ea_metered_buf_kernel(
                        &zq,
                        w,
                        self.band,
                        f64::INFINITY,
                        None,
                        SquaredCost,
                        &mut buf,
                        &mut ea,
                        Kernel::Auto,
                    )
                    .map(|o| {
                        black_box(o);
                    })
                })
            });
            kim?;
            keogh?;
            swept?;
            Ok([env_s, norm_s, kim_s, keogh_s, ea_s])
        });
        let [env_s, norm_s, kim_s, keogh_s, ea_s] = spans?;
        let per_call = |s: f64| s / sample.len() as f64;
        let lb_s =
            counts.lb_kim as f64 * per_call(kim_s) + counts.lb_keogh as f64 * per_call(keogh_s);
        let ea_ns_per_cell = ea_s * 1e9 / ea.cells as f64;
        let dtw_s = counts.cells as f64 * ea_ns_per_cell * 1e-9;
        for (name, v) in [
            ("envelope.build_s", env_s),
            ("norm.s", norm_s),
            ("norm.ns_per_window", norm_s * 1e9 / positions as f64),
            ("lower_bounds.s", lb_s),
            (
                "lower_bounds.ns_per_call",
                ratio(lb_s * 1e9, (counts.lb_kim + counts.lb_keogh) as f64),
            ),
            ("dtw.ea.ns_per_cell", ea_ns_per_cell),
            ("dtw.s", dtw_s),
        ] {
            out.insert(name, v);
        }

        // FastDTW: a subset of the windows replayed layer by layer, and the
        // same subset timed serially, both scaled to the whole request.
        let replay = &self.windows[..REPLAY_SAMPLE.min(self.windows.len())];
        let scale = self.windows.len() as f64 / replay.len() as f64;
        let zws: Vec<Vec<f64>> = replay
            .iter()
            .map(|&p| znorm(self.window(req, p)))
            .collect::<Result<_, _>>()?;
        let (direct, serial_fast_s) = time_median(3, || {
            replay
                .iter()
                .map(|&p| fastdtw_distance(&zq, &znorm(self.window(req, p))?, RADIUS, SquaredCost))
                .collect::<tsdtw::core::Result<Vec<f64>>>()
        });
        let direct = direct?;
        let mark = tr.mark();
        let (replayed, _) = tr.span("fastdtw", req, |tr| {
            zws.iter()
                .map(|zw| fastdtw_replay(&zq, zw, RADIUS, tr, req).map(|(d, _)| d))
                .collect::<tsdtw::core::Result<Vec<f64>>>()
        });
        if replayed?
            .iter()
            .zip(&direct)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(stale_replay("subseq_search", req));
        }
        let fastdtw_layers_s = fastdtw_split(tr, mark, scale, &mut out);

        let mut reference = WorkMeter::new();
        let sample = &zws[..REFERENCE_SAMPLE.min(zws.len())];
        let t0 = Instant::now();
        for zw in sample {
            fastdtw_ref_metered(&zq, zw, RADIUS, SquaredCost, &mut reference)?;
        }
        let reference_s = t0.elapsed().as_secs_f64() / sample.len() as f64;
        Closing {
            exact_wall_s: serial_s,
            exact_layers_s: env_s + norm_s + lb_s + dtw_s,
            fastdtw_wall_s: serial_fast_s * scale,
            fastdtw_layers_s,
            reference_s,
            reference_cells: reference.cells as f64 / sample.len() as f64,
        }
        .write(self, &walls, &mut out);
        Ok(out)
    }
}
