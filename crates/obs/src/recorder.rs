//! The flight recorder: a fixed-capacity ring buffer of structured span
//! events.
//!
//! The span table in [`span`](crate::span) answers "how much time went
//! to each kernel"; the flight recorder answers *when in the run* it
//! went. While a recorder is active on a thread, every span
//! guard additionally appends a begin event on open and an end event on
//! drop, with the parent/child structure (nesting depth) intact — a
//! FastDTW invocation shows each resolution level, its window
//! expansion, and the PAA coarsening as individually timed children.
//!
//! The buffer is a *flight recorder* in the avionics sense: fixed
//! capacity chosen up front, oldest events overwritten first, so an
//! arbitrarily long run keeps the last N events at a bounded, constant
//! memory and per-event cost. Dropped events are counted, never
//! silently lost.
//!
//! The exporter is [`Trace::chrome_json`]: the Chrome Trace Format (the
//! `traceEvents` array of `ph: "B"` / `"E"` records), openable directly
//! in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`. Only
//! balanced begin/end pairs are exported, so the file is always
//! well-formed even after ring wrap-around. The per-label numbers come
//! from the span table, which counts every span however far the ring
//! wrapped.
//!
//! Recording is wired through the span probes: a running recorder holds
//! a [`SpansArmed`] token, so the probes record exactly while some
//! recorder (or another consumer) is active.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

use crate::json::Json;
use crate::span::SpansArmed;

/// Default ring capacity used by CLI `--trace` (events, not spans; one
/// span is two events).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// Whether a [`TraceEvent`] opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePhase {
    /// The span opened (guard created).
    Begin,
    /// The span closed (guard dropped).
    End,
}

/// One structured event in the flight-recorder ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// The span label (same label as the aggregate table).
    pub label: &'static str,
    /// Begin or end.
    pub phase: TracePhase,
    /// Microseconds since the recorder started.
    pub ts_us: f64,
    /// Nesting depth of the span this event belongs to (0 = root).
    pub depth: u32,
    /// Identifier pairing this event with its begin/end partner,
    /// unique per recorder.
    pub span_id: u64,
    /// Which execution track the event belongs to: 0 is the recording
    /// thread itself; absorbed worker shards (see [`recorder_absorb`])
    /// get successive tracks 1, 2, … and export as distinct `tid`s.
    pub track: u32,
    /// Live heap bytes attributed to the recording thread when the
    /// event was recorded; 0 unless built with `alloc-telemetry`.
    /// Exported as a Chrome-trace counter track.
    pub heap_live: u64,
    /// For end events: heap bytes allocated during the span (from the
    /// guard's [`AllocScope`](crate::AllocScope)); 0 on begin events
    /// and without `alloc-telemetry`.
    pub alloc_bytes: u64,
}

/// One sample on a named counter track (a `ph: "C"` Chrome-trace
/// record): the `funnel` experiment drops its per-stage counters onto
/// the recorder timeline through these.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// The counter-track name (a Prometheus-style metric name).
    pub name: String,
    /// Microseconds since the recorder epoch.
    pub ts_us: f64,
    /// The sampled value.
    pub value: f64,
}

/// A fixed-capacity ring buffer of [`TraceEvent`]s.
#[derive(Debug)]
pub struct Recorder {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    counters: Vec<CounterSample>,
    dropped: u64,
    depth: u32,
    next_id: u64,
    next_track: u32,
    epoch: Instant,
}

impl Recorder {
    /// A recorder holding at most `capacity` events (clamped to ≥ 2,
    /// one begin/end pair).
    pub fn new(capacity: usize) -> Self {
        Self::with_epoch(capacity, Instant::now())
    }

    /// A recorder whose timestamps are measured from `epoch` instead of
    /// "now" — worker shards share the parent's epoch so their events
    /// land on the same timeline (see [`recorder_start_shard`]).
    fn with_epoch(capacity: usize, epoch: Instant) -> Self {
        let capacity = capacity.max(2);
        Recorder {
            capacity,
            events: VecDeque::with_capacity(capacity.min(4096)),
            counters: Vec::new(),
            dropped: 0,
            depth: 0,
            next_id: 0,
            next_track: 1,
            epoch,
        }
    }

    /// Appends one counter-track sample. Samples share the span ring's
    /// capacity bound, so they stay at constant memory; overflow drops
    /// the *newest* sample and counts it — the early samples anchor the
    /// trajectory.
    pub fn counter_sample(&mut self, sample: CounterSample) {
        if self.counters.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.counters.push(sample);
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(ev);
    }

    /// Records a begin event, returning the span id its end must echo.
    pub fn begin(&mut self, label: &'static str) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let depth = self.depth;
        self.depth += 1;
        self.push(TraceEvent {
            label,
            phase: TracePhase::Begin,
            ts_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            depth,
            span_id: id,
            track: 0,
            heap_live: crate::alloc::current_live_bytes(),
            alloc_bytes: 0,
        });
        id
    }

    /// Records the end event matching [`begin`](Recorder::begin).
    pub fn end(&mut self, label: &'static str, span_id: u64) {
        self.end_with_alloc(label, span_id, 0);
    }

    /// [`end`](Recorder::end), carrying the heap bytes the span
    /// allocated (what the span guards report under `alloc-telemetry`).
    pub fn end_with_alloc(&mut self, label: &'static str, span_id: u64, alloc_bytes: u64) {
        self.depth = self.depth.saturating_sub(1);
        let depth = self.depth;
        self.push(TraceEvent {
            label,
            phase: TracePhase::End,
            ts_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            depth,
            span_id,
            track: 0,
            heap_live: crate::alloc::current_live_bytes(),
            alloc_bytes,
        });
    }

    /// Merges a worker shard's trace into this recorder: span ids are
    /// remapped into this recorder's id space (so begin/end pairing
    /// survives the merge) and every absorbed event is stamped with the
    /// next free track number, keeping each shard a well-nested stream
    /// of its own. Shard drop counts accumulate.
    pub fn absorb(&mut self, shard: Trace) {
        let offset = self.next_id;
        let mut max_id = None::<u64>;
        let track = self.next_track;
        self.next_track += 1;
        for ev in shard.events {
            max_id = Some(max_id.map_or(ev.span_id, |m| m.max(ev.span_id)));
            self.push(TraceEvent {
                span_id: offset + ev.span_id,
                track,
                ..ev
            });
        }
        if let Some(m) = max_id {
            self.next_id = offset + m + 1;
        }
        for sample in shard.counters {
            self.counter_sample(sample);
        }
        self.dropped += shard.dropped;
    }

    /// Stops recording and yields the retained events.
    pub fn finish(self) -> Trace {
        Trace {
            events: self.events.into_iter().collect(),
            counters: self.counters,
            dropped: self.dropped,
            capacity: self.capacity,
        }
    }
}

/// The drained contents of a [`Recorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Retained events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Counter-track samples, oldest first.
    pub counters: Vec<CounterSample>,
    /// Events evicted by ring wrap-around, plus counter samples
    /// rejected at the capacity bound.
    pub dropped: u64,
    /// The ring capacity the trace was recorded with.
    pub capacity: usize,
}

impl Trace {
    /// Span ids with both a begin and an end retained in the ring —
    /// the set the exporters emit, guaranteeing balance.
    fn balanced_ids(&self) -> std::collections::HashSet<u64> {
        let mut begun = std::collections::HashSet::new();
        let mut balanced = std::collections::HashSet::new();
        for ev in &self.events {
            match ev.phase {
                TracePhase::Begin => {
                    begun.insert(ev.span_id);
                }
                TracePhase::End => {
                    if begun.contains(&ev.span_id) {
                        balanced.insert(ev.span_id);
                    }
                }
            }
        }
        balanced
    }

    /// The trace in Chrome Trace Format, openable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// Only balanced begin/end pairs are emitted (ring eviction can
    /// orphan the oldest events), so the `traceEvents` stream is always
    /// properly nested. Drop accounting lands in `otherData`.
    pub fn chrome_json(&self) -> Json {
        let balanced = self.balanced_ids();
        let heap_track = crate::heap_telemetry_enabled();
        let mut events = Json::array();
        for ev in &self.events {
            if !balanced.contains(&ev.span_id) {
                continue;
            }
            let mut args = crate::json_obj! {
                "depth" => ev.depth,
                "span_id" => ev.span_id,
            };
            if heap_track && ev.phase == TracePhase::End {
                args.set("alloc_bytes", ev.alloc_bytes);
            }
            events.push(crate::json_obj! {
                "name" => ev.label,
                "cat" => "tsdtw",
                "ph" => match ev.phase {
                    TracePhase::Begin => "B",
                    TracePhase::End => "E",
                },
                "ts" => ev.ts_us,
                "pid" => 1,
                // Track 0 (the recording thread) keeps the historical
                // tid 1; absorbed worker shards render as tid 2, 3, …
                "tid" => ev.track + 1,
                "args" => args,
            });
            if heap_track {
                // A Chrome-trace counter track ("ph": "C") sampling the
                // recording thread's live heap at every span boundary —
                // Perfetto renders it as a staircase under the spans.
                events.push(crate::json_obj! {
                    "name" => "heap_live_bytes",
                    "cat" => "tsdtw",
                    "ph" => "C",
                    "ts" => ev.ts_us,
                    "pid" => 1,
                    "tid" => ev.track + 1,
                    "args" => crate::json_obj! { "bytes" => ev.heap_live },
                });
            }
        }
        // Counter tracks: one "ph": "C" series per metric name, on the
        // recording thread's track. Perfetto
        // renders each name as its own counter lane under the spans.
        for s in &self.counters {
            events.push(crate::json_obj! {
                "name" => s.name.as_str(),
                "cat" => "tsdtw",
                "ph" => "C",
                "ts" => s.ts_us,
                "pid" => 1,
                "tid" => 1,
                "args" => crate::json_obj! { "value" => s.value },
            });
        }
        crate::json_obj! {
            "traceEvents" => events,
            "displayTimeUnit" => "ms",
            "otherData" => crate::json_obj! {
                "source" => "tsdtw flight recorder",
                "capacity" => self.capacity,
                "dropped_events" => self.dropped,
            },
        }
    }
}

thread_local! {
    /// This thread's recorder and the token that arms spans for it.
    static ACTIVE: RefCell<Option<(Recorder, SpansArmed)>> = const { RefCell::new(None) };
}

/// Installs `recorder` on this thread. A restart replaces the old
/// recorder and its token, so a thread holds one arm at most.
fn activate(recorder: Recorder) {
    let armed = crate::arm_spans();
    ACTIVE.with(|a| *a.borrow_mut() = Some((recorder, armed)));
}

/// Starts (or restarts) the flight recorder on this thread with the
/// given ring capacity, arming the span probes. Span guards opened after
/// this call record begin/end events until [`recorder_stop`].
pub fn recorder_start(capacity: usize) {
    activate(Recorder::new(capacity));
}

/// Stops this thread's recorder, releases its arm token, and returns its
/// trace; `None` when no recorder was active.
pub fn recorder_stop() -> Option<Trace> {
    ACTIVE
        .with(|a| a.borrow_mut().take())
        .map(|(r, _)| r.finish())
}

/// Whether a recorder is active on this thread.
pub fn recorder_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// A capability for starting a worker-shard recorder that shares the
/// parent's epoch and capacity, so shard timestamps line up with the
/// parent timeline. Obtained on the parent thread *before* spawning
/// workers via [`recorder_handoff`].
#[derive(Debug, Clone, Copy)]
pub struct RecorderHandoff {
    capacity: usize,
    epoch: Instant,
}

impl RecorderHandoff {
    /// Microseconds elapsed since the parent recorder's epoch — the
    /// timestamp base every event on that recorder's timeline uses, so
    /// counter samples land at the right place among the spans.
    pub fn elapsed_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }
}

/// Captures this thread's recorder configuration for handing to worker
/// threads; `None` when no recorder is active (workers then record
/// nothing, at zero cost).
pub fn recorder_handoff() -> Option<RecorderHandoff> {
    ACTIVE.with(|a| {
        a.borrow().as_ref().map(|(r, _)| RecorderHandoff {
            capacity: r.capacity,
            epoch: r.epoch,
        })
    })
}

/// Starts a shard recorder on a worker thread from a parent's
/// [`RecorderHandoff`]; it arms the span probes like any recorder. Stop
/// it with [`recorder_stop`] and feed the returned trace to
/// [`recorder_absorb`] on the parent thread.
pub fn recorder_start_shard(handoff: RecorderHandoff) {
    activate(Recorder::with_epoch(handoff.capacity, handoff.epoch));
}

/// Appends counter-track samples to this thread's active recorder;
/// returns how many were delivered (0 when no recorder is active —
/// the samples are simply discarded, matching the span probes'
/// no-recorder behavior).
pub fn recorder_counter_samples(samples: Vec<CounterSample>) -> usize {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        let Some((r, _)) = borrow.as_mut() else {
            return 0;
        };
        let n = samples.len();
        for s in samples {
            r.counter_sample(s);
        }
        n
    })
}

/// Merges a worker shard's trace into this thread's active recorder
/// (see [`Recorder::absorb`]); a no-op when no recorder is active.
pub fn recorder_absorb(shard: Trace) {
    ACTIVE.with(|a| {
        if let Some((r, _)) = a.borrow_mut().as_mut() {
            r.absorb(shard);
        }
    });
}

/// Span-guard hook: begin event if a recorder is active.
pub(crate) fn recorder_begin(label: &'static str) -> Option<u64> {
    ACTIVE.with(|a| a.borrow_mut().as_mut().map(|(r, _)| r.begin(label)))
}

/// Span-guard hook: end event matching `recorder_begin`.
pub(crate) fn recorder_end(label: &'static str, span_id: Option<u64>, alloc_bytes: u64) {
    if let Some(id) = span_id {
        ACTIVE.with(|a| {
            if let Some((r, _)) = a.borrow_mut().as_mut() {
                r.end_with_alloc(label, id, alloc_bytes);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The B/E span records of an exported `traceEvents` array, with
    /// the heap counter samples (`ph: "C"`, present under
    /// `alloc-telemetry`) filtered out.
    fn span_records(chrome: &Json) -> Vec<Json> {
        chrome["traceEvents"]
            .as_array()
            .expect("traceEvents array")
            .iter()
            .filter(|e| e["ph"].as_str() != Some("C"))
            .cloned()
            .collect()
    }

    /// Balanced begin/end pairs of `label` retained in the ring.
    fn balanced_spans(t: &Trace, label: &str) -> usize {
        let balanced = t.balanced_ids();
        t.events
            .iter()
            .filter(|e| e.phase == TracePhase::End && e.label == label)
            .filter(|e| balanced.contains(&e.span_id))
            .count()
    }

    fn ev(
        label: &'static str,
        phase: TracePhase,
        ts_us: f64,
        depth: u32,
        span_id: u64,
    ) -> TraceEvent {
        TraceEvent {
            label,
            phase,
            ts_us,
            depth,
            span_id,
            track: 0,
            heap_live: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn absorb_remaps_span_ids_and_assigns_tracks() {
        let mut main = Recorder::new(64);
        let a = main.begin("main_work");
        main.end("main_work", a);

        let mut shard1 = Recorder::new(64);
        let s = shard1.begin("worker_work");
        shard1.end("worker_work", s);
        let mut shard2 = Recorder::new(64);
        let s = shard2.begin("worker_work");
        shard2.end("worker_work", s);
        let mut t2 = shard2.finish();
        t2.dropped = 3; // pretend this shard wrapped

        main.absorb(shard1.finish());
        main.absorb(t2);
        let b = main.begin("after"); // ids must stay unique after absorb
        main.end("after", b);

        let t = main.finish();
        assert_eq!(t.events.len(), 8);
        assert_eq!(t.dropped, 3);
        let ids: std::collections::HashSet<u64> = t.events.iter().map(|e| e.span_id).collect();
        assert_eq!(ids.len(), 4, "span ids must be unique after the merge");
        let tracks: Vec<u32> = t.events.iter().map(|e| e.track).collect();
        assert_eq!(tracks, vec![0, 0, 1, 1, 2, 2, 0, 0]);
        // Every pair stays balanced, so the export sees all spans.
        assert_eq!(balanced_spans(&t, "worker_work"), 2);
        let json = t.chrome_json().to_string_compact();
        assert!(
            json.contains("\"tid\": 2") || json.contains("\"tid\":2"),
            "{json}"
        );
    }

    #[test]
    fn recorder_nests_and_balances() {
        let mut r = Recorder::new(64);
        let a = r.begin("outer");
        let b = r.begin("inner");
        r.end("inner", b);
        r.end("outer", a);
        let t = r.finish();
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 0);
        assert_eq!(t.events[0].depth, 0);
        assert_eq!(t.events[1].depth, 1);
        // Timestamps never go backwards.
        for w in t.events.windows(2) {
            assert!(w[1].ts_us >= w[0].ts_us);
        }
        assert_eq!(t.events[2].label, "inner"); // inner closes first
        assert_eq!(balanced_spans(&t, "inner"), 1);
        assert_eq!(balanced_spans(&t, "outer"), 1);
    }

    #[test]
    fn ring_drops_oldest_first_and_counts_drops() {
        let mut r = Recorder::new(4);
        for i in 0..3 {
            let id = r.begin("s");
            r.end("s", id);
            let _ = i;
        }
        let t = r.finish();
        // 6 events through a 4-slot ring: the first pair was evicted.
        assert_eq!(t.events.len(), 4);
        assert_eq!(t.dropped, 2);
        assert_eq!(t.events[0].span_id, 1, "oldest events go first");
        // The evicted pair is gone from the export; what's left balances.
        let events = span_records(&t.chrome_json());
        assert_eq!(events.len(), 4);
    }

    #[test]
    fn chrome_export_is_balanced_after_partial_eviction() {
        // Hand-built pathological ring contents: an orphan End (its Begin
        // was evicted) and an unclosed Begin must both be filtered out.
        let t = Trace {
            events: vec![
                ev("lost_begin", TracePhase::End, 1.0, 0, 7),
                ev("ok", TracePhase::Begin, 2.0, 0, 8),
                ev("ok", TracePhase::End, 3.0, 0, 8),
                ev("still_open", TracePhase::Begin, 4.0, 0, 9),
            ],
            counters: vec![],
            dropped: 1,
            capacity: 4,
        };
        let chrome = t.chrome_json();
        let events = span_records(&chrome);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0]["ph"], "B");
        assert_eq!(events[1]["ph"], "E");
        assert_eq!(events[0]["name"], "ok");
        assert_eq!(chrome["otherData"]["dropped_events"], 1u64);
    }

    #[test]
    fn chrome_export_nesting_is_stack_disciplined() {
        let mut r = Recorder::new(64);
        let a = r.begin("fastdtw");
        let b = r.begin("fastdtw_level");
        r.end("fastdtw_level", b);
        let c = r.begin("fastdtw_level");
        r.end("fastdtw_level", c);
        r.end("fastdtw", a);
        let chrome = r.finish().chrome_json();
        let events = span_records(&chrome);
        // Replay the B/E stream against a stack: it must never underflow
        // and must end empty.
        let mut stack: Vec<String> = Vec::new();
        for e in &events {
            match e["ph"].as_str().unwrap() {
                "B" => stack.push(e["name"].as_str().unwrap().to_string()),
                "E" => {
                    let top = stack.pop().expect("E without open B");
                    assert_eq!(top, e["name"].as_str().unwrap());
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(stack.is_empty(), "unclosed spans in export");
    }

    #[test]
    fn thread_local_recorder_roundtrip() {
        let _serial = crate::span::tests::arm_lock();
        assert!(!recorder_active());
        assert!(recorder_stop().is_none());
        recorder_start(16);
        assert!(recorder_active());
        if let Some(id) = recorder_begin("tl_span") {
            recorder_end("tl_span", Some(id), 0);
        }
        let t = recorder_stop().expect("was active");
        assert!(!recorder_active());
        assert_eq!(t.capacity, 16);
        assert_eq!(t.events.len(), 2);
    }

    #[test]
    fn counter_samples_land_on_the_recorder_as_counter_tracks() {
        let _serial = crate::span::tests::arm_lock();
        let sample = |name: &str, value: f64| CounterSample {
            name: name.to_string(),
            ts_us: 1.0,
            value,
        };
        assert_eq!(recorder_counter_samples(vec![sample("lost", 1.0)]), 0);
        recorder_start(2);
        let delivered = recorder_counter_samples(vec![
            sample("tsdtw_stage_entered", 8.0),
            sample("tsdtw_stage_pruned", 5.0),
            sample("over_capacity", 1.0),
        ]);
        assert_eq!(delivered, 3);
        let t = recorder_stop().expect("recorder active");
        assert_eq!(t.counters.len(), 2, "the newest sample past capacity drops");
        assert_eq!(t.dropped, 1);
        let chrome = Json::parse(&t.chrome_json().to_string_compact()).unwrap();
        let tracks: Vec<(String, f64)> = chrome["traceEvents"]
            .as_array()
            .unwrap()
            .iter()
            .filter(|e| e["ph"].as_str() == Some("C") && e["name"] != "heap_live_bytes")
            .map(|e| {
                let name = e["name"].as_str().unwrap().to_string();
                (name, e["args"]["value"].as_f64().unwrap())
            })
            .collect();
        assert_eq!(
            tracks,
            [
                ("tsdtw_stage_entered".to_string(), 8.0),
                ("tsdtw_stage_pruned".to_string(), 5.0)
            ]
        );
    }

    #[test]
    fn a_shard_recorder_arms_and_disarms_with_its_shard() {
        let _serial = crate::span::tests::arm_lock();
        let probe = || crate::span("shard_probe");
        recorder_start(16);
        let handoff = recorder_handoff().expect("recorder active");
        let shard = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    recorder_start_shard(handoff);
                    drop(probe());
                    let t = recorder_stop().expect("shard active");
                    let _ = crate::take_spans();
                    t
                })
                .join()
                .expect("worker")
        });
        recorder_absorb(shard);
        let t = recorder_stop().expect("parent active");
        let _ = crate::take_spans();
        assert_eq!(t.events.len(), 2, "the shard's span lands on the parent");
        assert!(t.events.iter().all(|e| e.track == 1));
        // Every token went with its recorder: spans are idle again.
        drop(probe());
        assert!(crate::take_spans().is_empty());
    }
}
