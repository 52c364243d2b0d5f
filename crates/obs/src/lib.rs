//! Work accounting and tracing for the tsdtw stack.
//!
//! The paper's core claim ("FastDTW is generally slower than cDTW")
//! is ultimately an argument about *work*: how many dynamic-programming
//! cells each algorithm touches as a function of series length and
//! constraint radius. This crate provides the instrumentation used to
//! measure that work everywhere in the workspace without perturbing it:
//!
//! * [`Meter`] — a monomorphized counter sink. Kernels are generic over
//!   `M: Meter`; the default [`NoMeter`] has `#[inline]` empty methods,
//!   so the un-instrumented call path compiles to exactly the code it
//!   had before instrumentation (verified by the `meter_ablation`
//!   criterion group in `tsdtw-bench`). [`WorkMeter`] records
//!   everything: DP cells evaluated, admissible window cells, FastDTW
//!   per-level breakdowns, lower-bound invocations, prune-cascade
//!   dispositions, early-abandon row progress, and peak scratch bytes.
//! * [`Json`] / [`ToJson`] — a small ordered JSON value used for bench
//!   `Report`s, the repro `work` sections, and the CLI `--stats-json`
//!   dump. Insertion order is preserved so reports diff cleanly.
//!   [`Json::parse`] reads documents back in for the perf-trajectory
//!   diff tooling.
//! * [`span`] — timing probes armed at runtime. Disarmed (no
//!   [`arm_spans`] token alive), a probe is one relaxed atomic load;
//!   armed, every guard lands in one thread-local table whose rows are
//!   keyed by the path of open spans. One drain ([`drain_raw_spans`])
//!   feeds every view: folded by label it is the per-kernel table of
//!   `--stats`, `--trace` and the snapshot's `kernels` section
//!   ([`take_spans`]); folded by path it is the profile.
//! * [`recorder_start`] / [`recorder_stop`] — the flight recorder: a
//!   fixed-capacity ring of structured begin/end span events with
//!   nesting intact (a running recorder arms the spans), exportable as a
//!   Chrome Trace Format file ([`Trace::chrome_json`], openable in
//!   Perfetto).
//! * [`ProfileReport`] (`profile` module) — the span table folded by
//!   path: each path of open spans weighted by its exact self time in
//!   nanoseconds, as `flamegraph.pl`-compatible collapsed stacks,
//!   per-span self-vs-total attribution, and the advisory snapshot
//!   `profile` section that drift attribution ranks suspects from.
//! * [`MetricsRegistry`] — named counters, gauges and summaries rendered
//!   as the Prometheus text exposition behind the CLI's `--metrics`.
//! * [`Funnel`] — the per-stage prune-funnel ledger behind the CLI's
//!   `--explain` flag and the `funnel` bench experiment: candidates
//!   entered / pruned / survived per cascade stage, deterministic
//!   cost proxies, and `LB/true-DTW` bound-tightness histograms, all
//!   merging with the same thread-count-invariant shard algebra as
//!   [`WorkMeter`] (whose `funnel` field carries it).
//! * [`LatencyHist`] — the log-linear (HDR-style) histogram behind
//!   every latency quantile in the workspace, with the nearest-rank
//!   percentile convention pinned by [`nearest_rank`].
//! * [`alloc`](mod@alloc) — heap telemetry (`--features
//!   alloc-telemetry`): a counting `#[global_allocator]` wrapper with
//!   thread-local byte/count/peak counters, the [`AllocScope`] probe
//!   that snapshots per-region [`AllocDelta`]s, and the
//!   [`AllocRegion`] helper the parallel executor uses to keep heap
//!   counters thread-count-invariant. Disabled, the probes are unit
//!   structs and the program keeps the plain system allocator.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod alloc;
pub mod funnel;
mod hist;
mod json;
mod meter;
pub mod metrics;
pub mod profile;
mod recorder;
mod span;

pub use alloc::{
    absorb_alloc_delta, current_live_bytes, heap_telemetry_enabled, AllocDelta, AllocRegion,
    AllocScope,
};
pub use funnel::{tightness_ppb, Funnel, FunnelStage, StageLedger, TIGHTNESS_ONE_PPB};
pub use hist::{nearest_rank, LatencyHist};
pub use json::{json_escape, json_escape_into, Json, JsonParseError, ToJson};
pub use meter::{FastDtwLevel, LbKind, Meter, MeterShard, NoMeter, StageTag, WorkMeter};
pub use metrics::MetricsRegistry;
pub use profile::{ProfileReport, SpanProfile};
pub use recorder::{
    recorder_absorb, recorder_active, recorder_counter_samples, recorder_handoff, recorder_start,
    recorder_start_shard, recorder_stop, CounterSample, Recorder, RecorderHandoff, Trace,
    TraceEvent, TracePhase, DEFAULT_TRACE_CAPACITY,
};
pub use span::{
    absorb_raw_spans, arm_spans, drain_raw_spans, span, span_table, spans_armed, take_spans,
    RawSpans, SpanGuard, SpanStat, SpansArmed,
};
