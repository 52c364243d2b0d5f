//! The load generator: set-up, closed-loop rounds, verification and the
//! metrics of one workload run.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use tsdtw::core::obs::WorkMeter;
use tsdtw::datasets::ucr_format::read_ucr;
use tsdtw::datasets::LabeledDataset;

use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{ratio, Layers, Tracer, PER_LAYER};

/// Error type of the benchmark's own code paths.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Measured rounds per lane. The workload is also set up once per round
/// pair, plus once before the load; `setup_s` is the median of those.
const ROUNDS: usize = 20;
/// Requests whose layers the traced run breaks down.
const TRACE_SAMPLE: usize = 4;

/// Which algorithm answers a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Exact cDTW, through whatever the library routes the request to.
    Exact,
    /// The tuned FastDTW implementation.
    FastDtw,
}

/// Input sizes: the benchmark's own, or a tiny copy for the test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the workloads are defined at.
    Paper,
    /// A few series of a few dozen points, for tests.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// A request's answer: the index it picked (pair, neighbour or window
/// position) and the distance it reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Answer {
    /// Pair number, nearest-neighbour index or match position.
    pub index: usize,
    /// The reported distance (squared-cost domain).
    pub distance: f64,
}

impl Answer {
    /// Bitwise equality: the same index and the same distance bits.
    pub fn same(&self, other: &Answer) -> bool {
        self.index == other.index && self.distance.to_bits() == other.distance.to_bits()
    }
}

/// A prepared workload: the requests, how each side answers them, the
/// oracles that check the answers, and the per-layer breakdown.
pub trait Workload {
    /// Distinct requests; the load cycles through them in order.
    fn requests(&self) -> usize;
    /// (query, candidate) distances one request computes on `side`.
    fn comparisons(&self, side: Side) -> u64;
    /// Answers request `req` on `side`; with a meter, through the
    /// library's `*_metered` twin of the same call.
    fn call(
        &self,
        side: Side,
        req: usize,
        meter: Option<&mut WorkMeter>,
    ) -> tsdtw::core::Result<Answer>;
    /// What the exact answer to `req` must be, from an independent path.
    fn exact_oracle(&self, req: usize) -> BenchResult<Answer>;
    /// Full-DTW distance the FastDTW answer `got` must not undercut, for
    /// requests in the verification sample (`None` otherwise).
    fn fastdtw_floor(&self, req: usize, got: Answer) -> BenchResult<Option<f64>>;
    /// Per-layer metrics of request `req`, with its layer calls recorded
    /// as spans in `tr`.
    fn trace(&self, req: usize, tr: &mut Tracer) -> BenchResult<Layers>;
}

/// A workload definition: how its inputs are generated from the seed and
/// how the parsed inputs become a prepared workload.
pub struct Spec {
    /// Name used on the command line and in every printed metric.
    pub name: &'static str,
    /// Generates the workload's inputs as UCR-format texts.
    pub generate: fn(u64, Scale) -> BenchResult<Vec<String>>,
    /// Builds the prepared workload from the parsed texts.
    pub build: fn(Vec<LabeledDataset>, Scale) -> BenchResult<Box<dyn Workload>>,
}

/// How to run one workload.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Seed of every input generator.
    pub seed: u64,
    /// Length of the measured phase in seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count, for percentiles.
    pub samples: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples: None,
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Requests whose answers were checked.
    pub attempted: u64,
    /// Requests that returned an error or a wrong answer.
    pub failed: u64,
    /// The metrics of the run's kind (end-to-end, or per-layer if traced).
    pub metrics: Vec<Metric>,
    /// Printed but not gated.
    pub diagnostics: Vec<Metric>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

/// Checks every answer the run produced. Repeats of a request must be
/// bitwise equal to its first answer; first answers go to the oracles
/// after the load, so no oracle is ever timed.
#[derive(Debug)]
pub struct Verifier {
    first: [Vec<Option<Answer>>; 2],
    /// Attempts per request that agreed with its first answer.
    agreeing: [Vec<u64>; 2],
    /// Requests checked.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

impl Verifier {
    /// A verifier for `requests` distinct requests per side.
    pub fn new(requests: usize) -> Self {
        Verifier {
            first: [vec![None; requests], vec![None; requests]],
            agreeing: [vec![0; requests], vec![0; requests]],
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one answer of request `req` on `side`.
    pub fn record(&mut self, side: Side, req: usize, got: tsdtw::core::Result<Answer>) {
        let s = side as usize;
        self.attempted += 1;
        match (got, self.first[s][req]) {
            (Ok(a), None) => {
                self.first[s][req] = Some(a);
                self.agreeing[s][req] += 1;
            }
            (Ok(a), Some(f)) if a.same(&f) => self.agreeing[s][req] += 1,
            _ => self.failed += 1,
        }
    }

    /// Runs the oracles on every first answer; a wrong one fails every
    /// attempt of its request. Returns the FastDTW relative errors over
    /// the verification sample.
    pub fn finish(&mut self, w: &dyn Workload) -> BenchResult<Vec<f64>> {
        let mut errors = Vec::new();
        for req in 0..w.requests() {
            if let Some(got) = self.first[Side::Exact as usize][req] {
                if !got.same(&w.exact_oracle(req)?) {
                    self.failed += self.agreeing[Side::Exact as usize][req];
                }
            }
            if let Some(got) = self.first[Side::FastDtw as usize][req] {
                if let Some(full) = w.fastdtw_floor(req, got)? {
                    if got.distance < full - 1e-9 * full.abs() {
                        self.failed += self.agreeing[Side::FastDtw as usize][req];
                    } else if full > 0.0 {
                        errors.push((got.distance - full) / full);
                    }
                }
            }
        }
        Ok(errors)
    }
}

/// One lane of rounds: a side, traced or not, cycling through the
/// requests in order across its rounds.
struct Lane {
    side: Side,
    traced: bool,
    next: usize,
    /// Fastest measured latency of each request, in seconds (infinite
    /// until the request is measured).
    best: Vec<f64>,
    /// Every measured latency, for the diagnostics.
    latencies: Vec<f64>,
}

impl Lane {
    fn new(side: Side, traced: bool, requests: usize) -> Self {
        Lane {
            side,
            traced,
            next: 0,
            best: vec![f64::INFINITY; requests],
            // Reserved up front so the log never reallocates: pages are
            // touched only as latencies are written, and `peak_rss_mb` does
            // not jump with the request count.
            latencies: Vec::with_capacity(1 << 20),
        }
    }

    /// Fastest latency of every request measured at least once.
    fn served(&self) -> Vec<f64> {
        self.best
            .iter()
            .copied()
            .filter(|b| b.is_finite())
            .collect()
    }

    /// Comparisons per second with every served request at its fastest.
    fn rate(&self, w: &dyn Workload) -> f64 {
        let served = self.served();
        ratio(
            served.len() as f64 * w.comparisons(self.side) as f64,
            served.iter().sum(),
        )
    }
}

/// One closed-loop round with a single client: the lane's next request is
/// sent when the previous one returns, until `budget` has passed. Each
/// answer is checked after it is timed; on a traced lane each request also
/// becomes a span. Latencies count unless the round is a warm-up.
fn round(
    w: &dyn Workload,
    lane: &mut Lane,
    budget: Duration,
    warm_up: bool,
    verifier: &mut Verifier,
    tracer: &mut Tracer,
) {
    let start = Instant::now();
    loop {
        let req = lane.next % w.requests();
        lane.next += 1;
        let t0 = Instant::now();
        let got = if lane.traced {
            w.call(lane.side, req, Some(&mut WorkMeter::new()))
        } else {
            w.call(lane.side, req, None)
        };
        let t1 = Instant::now();
        if !warm_up {
            let latency = (t1 - t0).as_secs_f64();
            lane.best[req] = lane.best[req].min(latency);
            lane.latencies.push(latency);
        }
        if lane.traced {
            tracer.record("request", req, t0, t1);
        }
        verifier.record(lane.side, req, got);
        if t1 - start >= budget {
            break;
        }
    }
}

/// Parses the workload's texts and builds it, recording the parse time and
/// the whole set-up time.
fn set_up(
    spec: &Spec,
    texts: &[String],
    scale: Scale,
    ingest_s: &mut Vec<f64>,
    setup_s: &mut Vec<f64>,
) -> BenchResult<Box<dyn Workload>> {
    let t0 = Instant::now();
    let parsed = texts
        .iter()
        .map(|t| read_ucr(spec.name, t.as_bytes()))
        .collect::<Result<Vec<_>, _>>()?;
    ingest_s.push(t0.elapsed().as_secs_f64());
    let built = (spec.build)(parsed, scale)?;
    setup_s.push(t0.elapsed().as_secs_f64());
    Ok(built)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Generates, sets up, loads, verifies and measures one workload.
///
/// After a warm-up round per lane (a twentieth of `seconds` each), the two
/// lanes alternate for `ROUNDS` rounds each, splitting `seconds` evenly.
/// Before every pair of rounds a fresh set-up replaces the workload, so the
/// set-up samples span the run like the rounds do, one copy of the inputs
/// is alive at a time, and every set-up must give the same answers.
pub fn run(spec: &Spec, settings: &Settings) -> BenchResult<Outcome> {
    let texts = (spec.generate)(settings.seed, settings.scale)?;
    let text_mb = texts.iter().map(String::len).sum::<usize>() as f64 / 1e6;
    let (mut ingest_s, mut setup_s) = (Vec::new(), Vec::new());
    let mut prepared = set_up(spec, &texts, settings.scale, &mut ingest_s, &mut setup_s)?;
    let n = prepared.requests();
    let mut verifier = Verifier::new(n);
    let mut tracer = Tracer::default();
    let mut lanes = if settings.trace {
        [
            Lane::new(Side::Exact, false, n),
            Lane::new(Side::Exact, true, n),
        ]
    } else {
        [
            Lane::new(Side::Exact, false, n),
            Lane::new(Side::FastDtw, false, n),
        ]
    };
    for lane in lanes.iter_mut() {
        let warm_up = Duration::from_secs_f64(settings.seconds / 20.0);
        round(
            prepared.as_ref(),
            lane,
            warm_up,
            true,
            &mut verifier,
            &mut tracer,
        );
    }
    let budget = Duration::from_secs_f64(settings.seconds / (2 * ROUNDS) as f64);
    for _ in 0..ROUNDS {
        drop(prepared);
        prepared = set_up(spec, &texts, settings.scale, &mut ingest_s, &mut setup_s)?;
        for lane in lanes.iter_mut() {
            round(
                prepared.as_ref(),
                lane,
                budget,
                false,
                &mut verifier,
                &mut tracer,
            );
        }
    }
    let w = prepared.as_ref();

    if !settings.trace {
        let errors = verifier.finish(w)?;
        let mut metrics = Vec::new();
        let mut diagnostics = Vec::new();
        for (lane, prefix) in lanes.iter_mut().zip(["exact", "fastdtw"]) {
            let served = lane.served();
            metrics.push(metric(
                &format!("{prefix}_cmp_per_s"),
                lane.rate(w),
                "cmp/s",
            ));
            metrics.push(Metric {
                samples: Some(served.len()),
                ..metric(&format!("{prefix}_p50_ms"), median(&served) * 1e3, "ms")
            });
            lane.latencies.sort_by(f64::total_cmp);
            let n = lane.latencies.len();
            let all = |p: f64| Metric {
                samples: Some(n),
                ..metric(
                    &format!("{prefix}_all_p{p}_ms"),
                    percentile(&lane.latencies, p) * 1e3,
                    "ms",
                )
            };
            diagnostics.push(all(50.0));
            diagnostics.extend(tail_percentile(n).map(all));
        }
        metrics.push(metric("setup_s", median(&setup_s), "s"));
        metrics.push(metric("peak_rss_mb", peak_rss_mb()?, "MiB"));
        diagnostics.push(metric("fastdtw_err_pct", mean(&errors) * 100.0, "%"));
        diagnostics.push(metric(
            "failed_frac",
            ratio(verifier.failed as f64, verifier.attempted as f64),
            "ratio",
        ));
        return Ok(Outcome {
            attempted: verifier.attempted,
            failed: verifier.failed,
            metrics,
            diagnostics,
            tracer: None,
        });
    }

    // Traced run: the rounds above pit untraced against traced exact
    // requests for the overhead; now the per-layer breakdown of a fixed
    // sample of requests.
    let sample = TRACE_SAMPLE.min(w.requests());
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for req in 0..sample {
        verifier.record(Side::FastDtw, req, w.call(Side::FastDtw, req, None));
        for (name, v) in w.trace(req, &mut tracer)? {
            *sums.entry(name).or_default() += v;
        }
    }
    let errors = verifier.finish(w)?;
    let mut layers: Layers = sums
        .into_iter()
        .map(|(k, v)| (k, v / sample as f64))
        .collect();
    layers.insert("datasets.ingest_s", median(&ingest_s));
    layers.insert(
        "datasets.ingest_mb_per_s",
        ratio(text_mb, median(&ingest_s)),
    );
    layers.insert("fastdtw.err_pct", mean(&errors) * 100.0);
    layers.insert(
        "trace.overhead_pct",
        (ratio(lanes[0].rate(w), lanes[1].rate(w)) - 1.0) * 100.0,
    );
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| metric(name, layers.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Ok(Outcome {
        attempted: verifier.attempted,
        failed: verifier.failed,
        metrics,
        diagnostics: Vec::new(),
        tracer: Some(tracer),
    })
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}
