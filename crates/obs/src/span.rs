//! Timing spans, armed at runtime.
//!
//! A span brackets a region of interest — a DTW kernel, a FastDTW
//! resolution level, a mining loop iteration — with a label. Every build
//! compiles the probes, but they record only while some consumer holds
//! an arm token ([`arm_spans`]): the flight recorder
//! ([`recorder_start`](crate::recorder_start)), the sampling profiler
//! ([`Profiler::start`](crate::Profiler::start)), or a caller that wants
//! the aggregate table alone. Disarmed, [`span`] is one relaxed atomic
//! load and its guard's drop does nothing, so library calls and timed
//! experiments pay nothing else. Armed, each guard's drop adds its wall
//! time to a thread-local per-label table that [`take_spans`] drains,
//! folding the duration into a per-label
//! [`LatencyHist`] so every kernel carries p50/p99/max alongside count
//! and total.
//!
//! When a flight recorder is active on the thread, each armed guard
//! additionally records a begin event on open and an end event on drop,
//! preserving the parent/child nesting — that is what turns the
//! aggregate table into an openable Chrome trace.
//!
//! The table is thread-local on purpose: the hot loops are spawned
//! per-thread, and a global table would put a lock on the measured
//! path. Callers that fan out drain per-thread and merge, the same
//! pattern as [`WorkMeter::merge`](crate::WorkMeter::merge).

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use crate::alloc::AllocScope;
use crate::hist::LatencyHist;

/// Aggregated timings for one span label.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStat {
    /// The label passed to [`span`].
    pub label: &'static str,
    /// How many guards with this label were dropped.
    pub count: u64,
    /// Total wall time across those guards, in seconds.
    pub total_s: f64,
    /// Median guard duration (nearest-rank, from the histogram).
    pub p50_s: f64,
    /// 99th-percentile guard duration (nearest-rank, from the
    /// histogram).
    pub p99_s: f64,
    /// Longest single guard, exact.
    pub max_s: f64,
    /// Heap bytes allocated inside those guards on the recording
    /// thread; 0 unless built with `alloc-telemetry`
    /// (see [`heap_telemetry_enabled`](crate::heap_telemetry_enabled)).
    pub alloc_bytes: u64,
}

crate::impl_to_json!(SpanStat {
    label,
    count,
    total_s,
    p50_s,
    p99_s,
    max_s,
    alloc_bytes
});

/// Arm tokens alive in the process; spans record while this is non-zero.
/// Relaxed is enough: the count publishes no other data (each sink keeps
/// its own thread-local or flag), and a thread spawned after arming sees
/// the count through the spawn itself.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Keeps span recording armed while alive; see [`arm_spans`].
#[must_use = "spans record only while the token is held"]
#[derive(Debug)]
pub struct SpansArmed(());

/// Arms span recording process-wide until the returned token drops.
/// Tokens nest: spans record while any one is alive. A running recorder
/// or profiler holds one; the CLI's `--stats` takes its own.
pub fn arm_spans() -> SpansArmed {
    ARMED.fetch_add(1, Ordering::Relaxed);
    SpansArmed(())
}

impl Drop for SpansArmed {
    fn drop(&mut self) {
        ARMED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Whether any arm token is alive, i.e. whether [`span`] records now.
/// Armed spans allocate by design (their sinks grow as they record), so
/// a zero-allocation probe holds only while this reads `false`.
#[inline]
pub fn spans_armed() -> bool {
    ARMED.load(Ordering::Relaxed) != 0
}

struct Entry {
    label: &'static str,
    count: u64,
    total_s: f64,
    alloc_bytes: u64,
    hist: LatencyHist,
}

thread_local! {
    static TABLE: RefCell<Vec<Entry>> = const { RefCell::new(Vec::new()) };
}

/// Timing guard: idle when opened disarmed, records on drop otherwise.
#[must_use = "a span measures the scope holding the guard"]
pub struct SpanGuard(Option<OpenSpan>);

/// What an armed guard carries from open to close.
struct OpenSpan {
    label: &'static str,
    start: Instant,
    recorder_id: Option<u64>,
    // Whether this guard pushed a frame onto the profiler's live stack;
    // only then does it pop one, so arming or disarming the sampler
    // mid-span never unbalances the stack.
    profiled: bool,
    // Unit-sized unless `alloc-telemetry` is on; spans nest LIFO, which
    // is exactly the discipline AllocScope requires.
    alloc: AllocScope,
}

/// Opens a timing span labelled `label`. Disarmed, this is one relaxed
/// atomic load and the guard's drop does nothing.
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    if !spans_armed() {
        return SpanGuard(None);
    }
    SpanGuard(Some(open(label)))
}

#[cold]
#[inline(never)]
fn open(label: &'static str) -> OpenSpan {
    let recorder_id = crate::recorder::recorder_begin(label);
    let profiled = crate::profile::live_push(label);
    OpenSpan {
        label,
        start: Instant::now(),
        recorder_id,
        profiled,
        alloc: AllocScope::begin(),
    }
}

#[cold]
#[inline(never)]
fn close(span: OpenSpan) {
    let label = span.label;
    let dt = span.start.elapsed().as_secs_f64();
    if span.profiled {
        crate::profile::live_pop();
    }
    let heap = span.alloc.end();
    crate::recorder::recorder_end(label, span.recorder_id, heap.bytes_allocated);
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let entry = match t.iter_mut().find(|e| e.label == label) {
            Some(e) => e,
            None => {
                t.push(Entry {
                    label,
                    count: 0,
                    total_s: 0.0,
                    alloc_bytes: 0,
                    hist: LatencyHist::new(),
                });
                t.last_mut().expect("just pushed")
            }
        };
        entry.count += 1;
        entry.total_s += dt;
        entry.alloc_bytes += heap.bytes_allocated;
        entry.hist.record_s(dt);
    });
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(span) = self.0.take() {
            close(span);
        }
    }
}

/// Drains this thread's span table, first-opened label first.
pub fn take_spans() -> Vec<SpanStat> {
    TABLE.with(|t| {
        t.borrow_mut()
            .drain(..)
            .map(|e| SpanStat {
                label: e.label,
                count: e.count,
                total_s: e.total_s,
                p50_s: e.hist.percentile_s(0.50),
                p99_s: e.hist.percentile_s(0.99),
                max_s: e.hist.max_s(),
                alloc_bytes: e.alloc_bytes,
            })
            .collect()
    })
}

/// One worker thread's span aggregates, drained with their histograms
/// intact so a parent thread can absorb them losslessly. Opaque.
#[must_use = "drained spans are lost unless absorbed"]
pub struct RawSpans(Vec<Entry>);

/// Drains this thread's span table with histograms intact, for handing
/// back to a parent thread (see [`absorb_raw_spans`]).
pub fn drain_raw_spans() -> RawSpans {
    RawSpans(TABLE.with(|t| t.borrow_mut().drain(..).collect()))
}

/// Folds a worker's drained span aggregates into this thread's table:
/// counts and totals sum, histograms merge bucket-wise (preserving exact
/// min/max). Callers absorb worker shards in a fixed order so the
/// resulting label order is deterministic.
pub fn absorb_raw_spans(raw: RawSpans) {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        for e in raw.0 {
            match t.iter_mut().find(|dst| dst.label == e.label) {
                Some(dst) => {
                    dst.count += e.count;
                    dst.total_s += e.total_s;
                    dst.alloc_bytes += e.alloc_bytes;
                    dst.hist.merge(&e.hist);
                }
                None => t.push(e),
            }
        }
    });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the unit tests that arm spans (directly, through a
    /// recorder or through the profiler) with the ones that check
    /// disarmed behaviour: arming is process-wide.
    pub(crate) fn arm_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn armed() -> usize {
        ARMED.load(Ordering::Relaxed)
    }

    #[test]
    fn disarmed_spans_are_idle_armed_spans_record() {
        let _serial = arm_lock();
        let _ = take_spans(); // start from a clean table
        {
            let g = span("unit_test_region");
            assert!(g.0.is_none(), "nothing armed: an idle guard");
        }
        assert!(take_spans().is_empty());
        let token = arm_spans();
        {
            let _g = span("unit_test_region");
            std::hint::black_box(1 + 1);
        }
        drop(token);
        let stats = take_spans();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].label, "unit_test_region");
        assert_eq!(stats[0].count, 1);
        assert!(stats[0].total_s >= 0.0);
        assert!(stats[0].max_s >= stats[0].p50_s || stats[0].count == 1);
        assert!(take_spans().is_empty(), "drained");
    }

    #[test]
    fn arm_tokens_nest_and_a_guard_closes_after_disarming() {
        let _serial = arm_lock();
        let _ = take_spans();
        let outer = arm_spans();
        drop(arm_spans());
        assert!(spans_armed(), "the outer token still arms");
        let open_across = span("nested_arm");
        drop(outer);
        assert_eq!(armed(), 0);
        assert!(!spans_armed());
        {
            let g = span("nested_arm");
            assert!(g.0.is_none());
        }
        // Opened armed, closed disarmed: still recorded, once.
        drop(open_across);
        let stats = take_spans();
        assert_eq!(stats.len(), 1, "{stats:?}");
        assert_eq!(stats[0].count, 1);
    }

    #[test]
    fn raw_spans_round_trip_across_threads() {
        let _serial = arm_lock();
        let _armed = arm_spans();
        let _ = take_spans(); // start from a clean table
        {
            let _g = span("raw_parent");
        }
        let raw = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    {
                        let _g = span("raw_parent");
                    }
                    {
                        let _g = span("raw_child_only");
                    }
                    drain_raw_spans()
                })
                .join()
                .expect("worker")
        });
        absorb_raw_spans(raw);
        let stats = take_spans();
        // Shared label merged (count 2), worker-only label appended.
        assert_eq!(stats.len(), 2, "{stats:?}");
        assert_eq!(stats[0].label, "raw_parent");
        assert_eq!(stats[0].count, 2);
        assert_eq!(stats[1].label, "raw_child_only");
        assert_eq!(stats[1].count, 1);
    }

    #[test]
    fn a_recorder_arms_spans_until_it_stops() {
        let _serial = arm_lock();
        crate::recorder_start(64);
        {
            let _outer = span("rec_outer");
            let _inner = span("rec_inner");
        }
        // Restarting replaces the recorder and its token: still one arm.
        crate::recorder_start(64);
        assert_eq!(armed(), 1);
        {
            let _outer = span("rec_outer");
            let _inner = span("rec_inner");
        }
        let trace = crate::recorder_stop().expect("recorder was started");
        assert_eq!(armed(), 0, "stopping disarms");
        let _ = take_spans(); // keep the aggregate table clean for other tests
        assert_eq!(trace.events.len(), 4, "two begin/end pairs");
        let rows = trace.summary();
        assert_eq!(rows.len(), 2);
    }
}
