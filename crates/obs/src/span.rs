//! Timing spans, armed at runtime, aggregated in one table.
//!
//! A span brackets a region of interest — a DTW kernel, a FastDTW
//! resolution level, a mining loop iteration — with a label. Every build
//! compiles the probes, but they record only while some consumer holds
//! an arm token ([`arm_spans`]): the flight recorder
//! ([`recorder_start`](crate::recorder_start)), or a caller that wants
//! the table (the CLI's `--stats` and `--profile`, `repro --profile`).
//! Disarmed, [`span`] is one relaxed atomic load and its guard's drop
//! does nothing, so library calls and timed experiments pay nothing
//! else.
//!
//! Armed, every guard lands in one thread-local table whose rows are
//! keyed by the path of open spans: a row is a label under its parent
//! row. It holds the duration histogram ([`LatencyHist`], which carries
//! the count and the total in integer nanoseconds) and the heap bytes
//! allocated inside. One drain ([`drain_raw_spans`]) feeds every view:
//!
//! * folded by label ([`RawSpans::stats`], or [`take_spans`]), it is the
//!   per-kernel table of `--stats` and `--trace` and the snapshot's
//!   `kernels` section;
//! * folded by path ([`RawSpans::folded`]), it is the profile: each path
//!   weighted by its row's exact self time, the row's total minus its
//!   children's totals in nanoseconds, so the weights sum exactly to the
//!   root rows' total.
//!
//! When a flight recorder is active on the thread, each armed guard also
//! records a begin event on open and an end event on drop, preserving
//! the nesting — that is what turns the table into an openable Chrome
//! trace.
//!
//! The table is thread-local on purpose: the hot loops are spawned
//! per-thread, and a global table would put a lock on the measured
//! path. Callers that fan out drain each worker's table and absorb it
//! into their own ([`absorb_raw_spans`]), the same pattern as
//! [`WorkMeter::merge`](crate::WorkMeter::merge). A worker's rows merge
//! at the root: its paths start at its own outermost span.

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

/// Renders span stats as the `-- spans --` table that `--stats`,
/// `--trace` and `repro --trace` print; empty for no spans. Builds with
/// `alloc-telemetry` add each label's heap bytes as an `alloc_b` column.
pub fn span_table(spans: &[SpanStat]) -> String {
    if spans.is_empty() {
        return String::new();
    }
    let heap = crate::heap_telemetry_enabled();
    let mut out = format!(
        "-- spans --\n  {:<24} {:>8}  {:>12}  {:>10}  {:>10}  {:>10}",
        "span", "count", "total", "p50", "p99", "max"
    );
    if heap {
        out.push_str(&format!("  {:>12}", "alloc_b"));
    }
    out.push('\n');
    for s in spans {
        out.push_str(&format!(
            "  {:<24} {:>8}x  {:>11.6}s  {:>9.6}s  {:>9.6}s  {:>9.6}s",
            s.label, s.count, s.total_s, s.p50_s, s.p99_s, s.max_s
        ));
        if heap {
            out.push_str(&format!("  {:>12}", s.alloc_bytes));
        }
        out.push('\n');
    }
    out
}

/// Arm tokens alive in the process; spans record while this is non-zero.
/// Relaxed is enough: the count publishes no other data (the table and
/// the recorder are thread-local), and a thread spawned after arming
/// sees the count through the spawn itself.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// Keeps span recording armed while alive; see [`arm_spans`].
#[must_use = "spans record only while the token is held"]
#[derive(Debug)]
pub struct SpansArmed(());

/// Arms span recording process-wide until the returned token drops.
/// Tokens nest: spans record while any one is alive. A running recorder
/// holds one; the CLI's `--stats` and `--profile` take their own.
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

/// One table row: the guards of `label` opened while the span of row
/// `parent` was the innermost open one (`None`: at the root).
#[derive(Debug)]
struct Row {
    label: &'static str,
    parent: Option<usize>,
    hist: LatencyHist,
    alloc_bytes: u64,
}

/// One thread's span rows, drained with their histograms and paths
/// intact: fold it by label ([`stats`](RawSpans::stats)) or by path
/// ([`folded`](RawSpans::folded)), or hand a worker's back to a parent
/// thread ([`absorb_raw_spans`]).
#[must_use = "drained spans are lost unless folded or absorbed"]
#[derive(Debug, Default)]
pub struct RawSpans {
    /// Rows in creation order, so a parent precedes its children.
    rows: Vec<Row>,
    /// Labels in the order their first guard closed.
    labels: Vec<&'static str>,
}

impl RawSpans {
    /// The row of `label` under `parent`, created on first use.
    fn row(&mut self, label: &'static str, parent: Option<usize>) -> usize {
        match self
            .rows
            .iter()
            .position(|r| r.parent == parent && r.label == label)
        {
            Some(i) => i,
            None => {
                self.rows.push(Row {
                    label,
                    parent,
                    hist: LatencyHist::new(),
                    alloc_bytes: 0,
                });
                self.rows.len() - 1
            }
        }
    }

    /// Lists `label` in close order unless it is listed already.
    fn note_label(&mut self, label: &'static str) {
        if !self.labels.contains(&label) {
            self.labels.push(label);
        }
    }

    /// Counts one closed guard of `ns` nanoseconds into row `i`.
    fn close(&mut self, i: usize, ns: u64, alloc_bytes: u64) {
        let label = self.rows[i].label;
        if self.rows[i].hist.count() == 0 {
            self.note_label(label);
        }
        let row = &mut self.rows[i];
        row.hist.record_ns(ns);
        row.alloc_bytes += alloc_bytes;
    }

    /// Merges `other`'s rows under the same paths, its roots at the root.
    fn absorb(&mut self, other: RawSpans) {
        let mut at = Vec::with_capacity(other.rows.len());
        for r in other.rows {
            let i = self.row(r.label, r.parent.map(|p| at[p]));
            self.rows[i].hist.merge(&r.hist);
            self.rows[i].alloc_bytes += r.alloc_bytes;
            at.push(i);
        }
        for label in other.labels {
            self.note_label(label);
        }
    }

    /// The rows folded by label, in the order each label's first guard
    /// closed: counts and totals sum over the label's paths, and p50,
    /// p99 and max come from the merged histograms (the bucket-wise
    /// merge is exact). A label under itself counts both guards.
    pub fn stats(&self) -> Vec<SpanStat> {
        self.labels
            .iter()
            .map(|&label| {
                let mut hist = LatencyHist::new();
                let mut alloc_bytes = 0;
                for r in self.rows.iter().filter(|r| r.label == label) {
                    hist.merge(&r.hist);
                    alloc_bytes += r.alloc_bytes;
                }
                SpanStat {
                    label,
                    count: hist.count(),
                    total_s: hist.total_s(),
                    p50_s: hist.percentile_s(0.50),
                    p99_s: hist.percentile_s(0.99),
                    max_s: hist.max_s(),
                    alloc_bytes,
                }
            })
            .collect()
    }

    /// The rows folded by path: `root;child;leaf` to the row's self
    /// time, its total minus its children's totals, in integer
    /// nanoseconds. Children run inside their parent on its thread, so
    /// no self time is negative and the weights sum exactly to the root
    /// rows' total. Sorted by path; rows without self time are left out.
    /// This is the collapsed-stack profile (see
    /// [`ProfileReport`](crate::ProfileReport)).
    pub fn folded(&self) -> Vec<(String, u64)> {
        let mut child_ns = vec![0u128; self.rows.len()];
        for r in &self.rows {
            if let Some(p) = r.parent {
                child_ns[p] += r.hist.total_ns();
            }
        }
        let mut paths: Vec<String> = Vec::with_capacity(self.rows.len());
        let mut folded = Vec::new();
        for (r, children) in self.rows.iter().zip(child_ns) {
            let path = match r.parent {
                Some(p) => format!("{};{}", paths[p], r.label),
                None => r.label.to_string(),
            };
            let self_ns = r.hist.total_ns().saturating_sub(children);
            if self_ns > 0 {
                folded.push((path.clone(), u64::try_from(self_ns).unwrap_or(u64::MAX)));
            }
            paths.push(path);
        }
        folded.sort();
        folded
    }
}

/// A thread's span table and where its open spans stand.
struct Table {
    spans: RawSpans,
    /// The row of the innermost open span; `None` at the root.
    current: Option<usize>,
    /// Bumped by every drain, so a guard opened before one does not
    /// close into a row that no longer exists.
    generation: u64,
}

thread_local! {
    static TABLE: RefCell<Table> = const {
        RefCell::new(Table {
            spans: RawSpans {
                rows: Vec::new(),
                labels: Vec::new(),
            },
            current: None,
            generation: 0,
        })
    };
}

/// Timing guard: idle when opened disarmed, records on drop otherwise.
#[must_use = "a span measures the scope holding the guard"]
pub struct SpanGuard(Option<OpenSpan>);

/// What an armed guard carries from open to close.
struct OpenSpan {
    label: &'static str,
    row: usize,
    /// The innermost open span's row when this one opened; restored on
    /// close, so spans nest LIFO like their guards.
    parent: Option<usize>,
    generation: u64,
    start: Instant,
    recorder_id: Option<u64>,
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
    let (row, parent, generation) = TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let parent = t.current;
        let row = t.spans.row(label, parent);
        t.current = Some(row);
        (row, parent, t.generation)
    });
    OpenSpan {
        label,
        row,
        parent,
        generation,
        start: Instant::now(),
        recorder_id,
        alloc: AllocScope::begin(),
    }
}

#[cold]
#[inline(never)]
fn close(span: OpenSpan) {
    let ns = u64::try_from(span.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let heap = span.alloc.end();
    crate::recorder::recorder_end(span.label, span.recorder_id, heap.bytes_allocated);
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        let row = if t.generation == span.generation {
            t.current = span.parent;
            span.row
        } else {
            // The table was drained while this span was open: count it
            // once, under whatever is innermost now.
            let parent = t.current;
            t.spans.row(span.label, parent)
        };
        t.spans.close(row, ns, heap.bytes_allocated);
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

/// Drains this thread's span table folded by label (see
/// [`RawSpans::stats`]).
pub fn take_spans() -> Vec<SpanStat> {
    drain_raw_spans().stats()
}

/// Drains this thread's span table with histograms and paths intact:
/// one value for every view of the spans this thread recorded, or for
/// handing back to a parent thread (see [`absorb_raw_spans`]).
pub fn drain_raw_spans() -> RawSpans {
    TABLE.with(|t| {
        let mut t = t.borrow_mut();
        t.current = None;
        t.generation += 1;
        std::mem::take(&mut t.spans)
    })
}

/// Folds a worker's drained span rows into this thread's table: each
/// row merges into the row of the same path, the worker's roots at the
/// root; counts and totals sum and histograms merge bucket-wise. Callers
/// absorb worker shards in a fixed order so the label order is
/// deterministic.
pub fn absorb_raw_spans(raw: RawSpans) {
    TABLE.with(|t| t.borrow_mut().spans.absorb(raw));
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Serializes the unit tests that arm spans (directly or through a
    /// recorder) with the ones that check disarmed behaviour: arming is
    /// process-wide.
    pub(crate) fn arm_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn armed() -> usize {
        ARMED.load(Ordering::Relaxed)
    }

    /// Every row's `;`-joined path, in row order.
    fn paths(raw: &RawSpans) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for r in &raw.rows {
            let path = match r.parent {
                Some(p) => format!("{};{}", out[p], r.label),
                None => r.label.to_string(),
            };
            out.push(path);
        }
        out
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
        let table = span_table(&stats);
        assert!(table.starts_with("-- spans --\n"), "{table}");
        assert!(table.contains("unit_test_region"), "{table}");
        assert_eq!(
            table.contains("alloc_b"),
            crate::heap_telemetry_enabled(),
            "{table}"
        );
        assert_eq!(span_table(&[]), "");
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
    fn self_times_sum_exactly_to_the_root_totals() {
        let _serial = arm_lock();
        let _armed = arm_spans();
        let _ = take_spans();
        let busy = || std::hint::black_box((0..2_000u64).sum::<u64>());
        {
            let _outer = span("prof_outer");
            {
                let _rec = span("prof_rec");
                busy();
                let _again = span("prof_rec");
                busy();
            }
            let _leaf = span("prof_leaf");
            busy();
        }
        let worker = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    {
                        let _rec = span("prof_rec");
                        let _leaf = span("prof_leaf");
                        busy();
                    }
                    drain_raw_spans()
                })
                .join()
                .expect("worker")
        });
        absorb_raw_spans(worker);
        let raw = drain_raw_spans();
        let all = paths(&raw);
        assert_eq!(
            all,
            [
                "prof_outer",
                "prof_outer;prof_rec",
                "prof_outer;prof_rec;prof_rec",
                "prof_outer;prof_leaf",
                "prof_rec",
                "prof_rec;prof_leaf",
            ],
            "the worker's rows merge at the root"
        );
        let folded = raw.folded();
        let weights: u128 = folded.iter().map(|(_, w)| u128::from(*w)).sum();
        let roots: u128 = raw
            .rows
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.hist.total_ns())
            .sum();
        assert_eq!(weights, roots);
        // A label's inclusive time is the total of its outermost rows:
        // the recursive prof_rec counts once, not twice.
        let outermost = |label: &str| -> u128 {
            raw.rows
                .iter()
                .zip(&all)
                .filter(|(r, path)| {
                    r.label == label && path.split(';').filter(|f| *f == label).count() == 1
                })
                .map(|(r, _)| r.hist.total_ns())
                .sum()
        };
        for row in crate::profile::self_totals(&folded) {
            assert_eq!(
                u128::from(row.total_weight),
                outermost(&row.label),
                "{}",
                row.label
            );
        }
        // Folded by label, the same drain counts every guard, labels in
        // the order their first guard closed (the inner prof_rec first).
        let counts: Vec<(&str, u64)> = raw.stats().iter().map(|s| (s.label, s.count)).collect();
        assert_eq!(
            counts,
            [("prof_rec", 3), ("prof_leaf", 2), ("prof_outer", 1)]
        );
    }

    #[test]
    fn a_span_open_across_a_drain_closes_once() {
        let _serial = arm_lock();
        let _armed = arm_spans();
        let _ = take_spans();
        let outer = span("drain_outer");
        {
            let _inner = span("drain_inner");
        }
        let before = take_spans();
        assert_eq!(before.len(), 1, "{before:?}");
        assert_eq!(before[0].label, "drain_inner");
        {
            let _after = span("drain_after");
        }
        drop(outer);
        let raw = drain_raw_spans();
        assert_eq!(paths(&raw), ["drain_after", "drain_outer"]);
        let counts: Vec<(&str, u64)> = raw.stats().iter().map(|s| (s.label, s.count)).collect();
        assert_eq!(counts, [("drain_after", 1), ("drain_outer", 1)]);
    }

    #[test]
    fn a_panic_unwinding_through_nested_spans_leaves_the_root_current() {
        let _serial = arm_lock();
        let _armed = arm_spans();
        let _ = take_spans();
        let unwound = std::panic::catch_unwind(|| {
            let _outer = span("unwind_outer");
            let _inner = span("unwind_inner");
            panic!("mid-span panic");
        });
        assert!(unwound.is_err());
        assert_eq!(TABLE.with(|t| t.borrow().current), None);
        {
            let _next = span("unwind_next");
        }
        let raw = drain_raw_spans();
        assert_eq!(
            paths(&raw),
            ["unwind_outer", "unwind_outer;unwind_inner", "unwind_next"]
        );
        assert!(raw.stats().iter().all(|s| s.count == 1));
    }

    #[test]
    fn a_child_armed_under_a_disarmed_span_opens_at_the_root() {
        let _serial = arm_lock();
        let _ = take_spans();
        let outer = span("idle_outer");
        let armed = arm_spans();
        {
            let _child = span("armed_child");
        }
        drop(outer);
        drop(armed);
        let raw = drain_raw_spans();
        assert_eq!(paths(&raw), ["armed_child"]);
        assert_eq!(raw.stats().len(), 1);
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
        let ends: Vec<&str> = trace
            .events
            .iter()
            .filter(|e| e.phase == crate::TracePhase::End)
            .map(|e| e.label)
            .collect();
        assert_eq!(trace.events.len(), 4, "two begin/end pairs");
        assert_eq!(ends, ["rec_inner", "rec_outer"]);
    }
}
