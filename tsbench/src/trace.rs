//! Benchmark-owned spans and the per-layer helpers of the traced run.
//!
//! Spans are recorded around calls into the library's public layer entry
//! points, held in memory, and written as one JSON file when the run ends.
//! The library itself is not instrumented: every span starts and ends in
//! this crate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::windowed::windowed_with_path;
use tsdtw::core::paa::halve;
use tsdtw::core::{Result, SearchWindow, WarpingPath};

use crate::stats::median;

/// Every per-layer metric with its unit, in report order. The traced run
/// reports each of them on every workload; a layer a workload never
/// reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.ingest_s", "s"),
    ("datasets.ingest_mb_per_s", "MB/s"),
    ("norm.s", "s"),
    ("norm.ns_per_window", "ns"),
    ("envelope.build_s", "s"),
    ("lower_bounds.kim_calls", "count"),
    ("lower_bounds.keogh_calls", "count"),
    ("lower_bounds.prune_frac", "ratio"),
    ("lower_bounds.ns_per_call", "ns"),
    ("lower_bounds.s", "s"),
    ("dtw.cells", "count"),
    ("dtw.window_cells", "count"),
    ("dtw.fill_frac", "ratio"),
    ("dtw.peak_bytes", "bytes"),
    ("dtw.sweep.ns_per_cell", "ns"),
    ("dtw.batch.ns_per_cell", "ns"),
    ("dtw.ea.ns_per_cell", "ns"),
    ("dtw.s", "s"),
    ("dtw.batch_lane_fill", "ratio"),
    ("dtw.ea_abandon_frac", "ratio"),
    ("exact.residual_s", "s"),
    ("exact.residual_frac", "ratio"),
    ("request.exact_wall_s", "s"),
    ("fastdtw.levels", "count"),
    ("fastdtw.cells", "count"),
    ("fastdtw.expanded_frac", "ratio"),
    ("fastdtw.cells_over_exact", "ratio"),
    ("fastdtw.coarsen_s", "s"),
    ("fastdtw.window_s", "s"),
    ("fastdtw.solve_s", "s"),
    ("fastdtw.residual_s", "s"),
    ("request.fastdtw_wall_s", "s"),
    ("fastdtw.err_pct", "%"),
    ("fastdtw.reference.cmp_per_s", "cmp/s"),
    ("fastdtw.reference.cells", "count"),
    ("par.efficiency", "ratio"),
    ("par.work_inflation", "ratio"),
    ("verdict.fastdtw_over_exact", "ratio"),
    ("verdict.reference_over_exact", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Per-layer metric values of one traced request, keyed by `PER_LAYER`
/// name.
pub type Layers = BTreeMap<&'static str, f64>;

/// `num / den`, or 0 when the denominator is 0 (a layer not reached).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    request: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span recorder. Spans opened inside another span's closure
/// record it as their parent.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: usize,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end = Instant::now();
        self.spans[id].end_ns = self.ns(end);
        (r, (end - start).as_secs_f64())
    }

    /// Records an interval timed elsewhere (a request of a traced load
    /// round) as a top-level span.
    pub fn record(&mut self, name: &'static str, request: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: None,
        });
    }

    /// Position to pass to [`busy_since`](Self::busy_since).
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration in seconds of the spans named `name` recorded since
    /// `mark`.
    pub fn busy_since(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as a JSON document, parents given by span id.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{sep}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Median wall time in seconds of `reps` calls of `f`, with the last
/// call's result.
pub fn time_median<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), median(&times))
}

/// FastDTW re-run level by level through the public layer entries it is
/// built from — `paa::halve` (coarsen), `SearchWindow::from_low_res_path`
/// (window) and `windowed_with_path` (solve) — each inside a span. The
/// result must equal the library's `fastdtw_distance` bitwise; callers
/// check that, so a change to the algorithm shows up as a stale replay
/// rather than as wrong layer times.
pub fn fastdtw_replay(
    x: &[f64],
    y: &[f64],
    radius: usize,
    tr: &mut Tracer,
    req: usize,
) -> Result<(f64, WarpingPath)> {
    if x.len() <= radius + 2 || y.len() <= radius + 2 {
        let (window, _) = tr.span("fastdtw.window", req, |_| {
            SearchWindow::full(x.len(), y.len())
        });
        return tr
            .span("fastdtw.solve", req, |_| {
                windowed_with_path(x, y, &window, SquaredCost)
            })
            .0;
    }
    let ((sx, sy), _) = tr.span("fastdtw.coarsen", req, |_| (halve(x), halve(y)));
    let (_, low) = fastdtw_replay(&sx, &sy, radius, tr, req)?;
    let (window, _) = tr.span("fastdtw.window", req, |_| {
        SearchWindow::from_low_res_path(&low, x.len(), y.len(), radius)
    });
    tr.span("fastdtw.solve", req, |_| {
        windowed_with_path(x, y, &window, SquaredCost)
    })
    .0
}

/// Coarsen / window / solve seconds recorded since `mark`, as layer
/// metrics scaled by `scale` (requests that replay a subset of their
/// comparisons scale it up to the whole request).
pub fn fastdtw_split(tr: &Tracer, mark: usize, scale: f64, out: &mut Layers) -> f64 {
    let mut sum = 0.0;
    for (name, metric) in [
        ("fastdtw.coarsen", "fastdtw.coarsen_s"),
        ("fastdtw.window", "fastdtw.window_s"),
        ("fastdtw.solve", "fastdtw.solve_s"),
    ] {
        let s = tr.busy_since(mark, name) * scale;
        out.insert(metric, s);
        sum += s;
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::default();
        tr.span("request", 3, |tr| {
            tr.span("layer", 3, |_| ());
        });
        let json = tr.to_json("w", 1);
        assert!(json.contains("\"id\":0,\"name\":\"request\",\"request\":3"));
        assert!(json.contains("\"name\":\"layer\""));
        assert!(json.contains("\"parent\":0}"));
        assert!(json.contains("\"parent\":null}"));
    }

    #[test]
    fn replay_matches_the_library_fastdtw_bitwise() {
        let x: Vec<f64> = (0..200).map(|i| (i as f64 * 0.11).sin()).collect();
        let y: Vec<f64> = (0..200).map(|i| (i as f64 * 0.13).cos()).collect();
        let mut tr = Tracer::default();
        let (d, _) = fastdtw_replay(&x, &y, 3, &mut tr, 0).unwrap();
        let lib = tsdtw::core::fastdtw_distance(&x, &y, 3, SquaredCost).unwrap();
        assert_eq!(d.to_bits(), lib.to_bits());
        assert!(tr.busy_since(0, "fastdtw.solve") > 0.0);
    }
}
