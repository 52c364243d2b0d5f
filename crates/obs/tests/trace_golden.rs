//! Golden tests for the flight-recorder trace export: the Chrome-trace
//! output must parse as JSON, be begin/end balanced and properly
//! nested, and the ring must drop oldest-first at capacity. A running
//! recorder arms the span probes itself, so real spans reach it in every
//! build.

use tsdtw_obs::{
    heap_telemetry_enabled, recorder_start, recorder_stop, span, take_spans, Json, Recorder, Trace,
    TraceEvent, TracePhase,
};

/// The `ph: "B"` / `"E"` span records of a `traceEvents` stream, with
/// the `ph: "C"` heap counter samples (emitted under `alloc-telemetry`)
/// filtered out.
fn span_events(events: &[Json]) -> Vec<Json> {
    events
        .iter()
        .filter(|e| e["ph"].as_str() != Some("C"))
        .cloned()
        .collect()
}

/// Replays a Chrome `traceEvents` stream against a stack, asserting
/// strict begin/end balance and label-matched nesting. Counter records
/// (`ph: "C"`) only need monotone timestamps. Returns the maximum
/// nesting depth observed.
fn assert_balanced(events: &[Json]) -> usize {
    let mut stack: Vec<String> = Vec::new();
    let mut max_depth = 0;
    let mut last_ts = f64::NEG_INFINITY;
    for e in events {
        let ts = e["ts"].as_f64().expect("ts is numeric");
        assert!(ts >= last_ts, "timestamps must be monotone");
        last_ts = ts;
        match e["ph"].as_str().expect("ph is a string") {
            "B" => {
                stack.push(e["name"].as_str().unwrap().to_string());
                max_depth = max_depth.max(stack.len());
            }
            "E" => {
                let open = stack.pop().expect("E without matching B");
                assert_eq!(open, e["name"].as_str().unwrap(), "mismatched nesting");
            }
            "C" => {
                assert_eq!(e["name"], "heap_live_bytes");
                assert!(
                    heap_telemetry_enabled(),
                    "counter records only appear under alloc-telemetry"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(stack.is_empty(), "unclosed spans: {stack:?}");
    max_depth
}

#[test]
fn chrome_trace_from_real_spans_parses_and_nests() {
    recorder_start(1 << 12);
    {
        let _outer = span("golden_outer");
        for _ in 0..3 {
            let _inner = span("golden_inner");
            std::hint::black_box(1 + 1);
        }
    }
    let trace = recorder_stop().expect("recorder was active");
    let _ = take_spans(); // drain the aggregate table too

    // The export must round-trip through the strict parser.
    let text = trace.chrome_json().to_string_pretty();
    let parsed = Json::parse(&text).expect("chrome trace is valid JSON");
    let events = parsed["traceEvents"].as_array().expect("traceEvents array");

    let spans_only = span_events(events);
    assert_eq!(spans_only.len(), 8, "4 spans = 8 events");
    let depth = assert_balanced(events);
    assert_eq!(depth, 2, "inner spans nest under the outer span");
    assert_eq!(
        spans_only[0]["name"], "golden_outer",
        "outermost span begins first"
    );
    if heap_telemetry_enabled() {
        assert_eq!(
            events.len(),
            16,
            "each span record carries a heap counter sample"
        );
    }
    assert_eq!(parsed["otherData"]["dropped_events"], 0u64);
}

#[test]
fn ring_buffer_drops_oldest_first_and_export_stays_balanced() {
    // 10 spans (20 events) through an 8-slot ring: only the newest
    // events survive, and the oldest retained pair has the highest
    // evicted span id + 1.
    let mut r = Recorder::new(8);
    for _ in 0..10 {
        let id = r.begin("wrap");
        r.end("wrap", id);
    }
    let trace = r.finish();
    assert_eq!(trace.events.len(), 8);
    assert_eq!(trace.dropped, 12);
    assert_eq!(trace.events[0].span_id, 6, "spans 0..=5 were evicted");

    let parsed = Json::parse(&trace.chrome_json().to_string_compact()).unwrap();
    let events = parsed["traceEvents"].as_array().unwrap();
    assert_eq!(
        span_events(events).len(),
        8,
        "all retained pairs are balanced"
    );
    assert_balanced(events);
    assert_eq!(parsed["otherData"]["dropped_events"], 12u64);
}

#[test]
fn export_filters_orphans_created_by_wraparound() {
    // A parent whose Begin was evicted mid-flight: the ring holds the
    // child pair plus the parent's End. The export keeps only the
    // balanced child.
    let t = Trace {
        events: vec![
            TraceEvent {
                label: "child",
                phase: TracePhase::Begin,
                ts_us: 10.0,
                depth: 1,
                span_id: 5,
                track: 0,
                heap_live: 0,
                alloc_bytes: 0,
            },
            TraceEvent {
                label: "child",
                phase: TracePhase::End,
                ts_us: 20.0,
                depth: 1,
                span_id: 5,
                track: 0,
                heap_live: 0,
                alloc_bytes: 0,
            },
            TraceEvent {
                label: "parent",
                phase: TracePhase::End,
                ts_us: 30.0,
                depth: 0,
                span_id: 4,
                track: 0,
                heap_live: 0,
                alloc_bytes: 0,
            },
        ],
        counters: vec![],
        dropped: 1,
        capacity: 3,
    };
    let parsed = Json::parse(&t.chrome_json().to_string_compact()).unwrap();
    let events = parsed["traceEvents"].as_array().unwrap();
    let spans_only = span_events(events);
    assert_eq!(spans_only.len(), 2);
    assert_balanced(events);
    assert_eq!(spans_only[0]["name"], "child");

    // One balanced pair survives: the child's begin and end, 10 µs apart.
    assert_eq!(spans_only[0]["ph"], "B");
    assert_eq!(spans_only[1]["ph"], "E");
    assert_eq!(spans_only[1]["name"], "child");
    let dur_us = spans_only[1]["ts"].as_f64().unwrap() - spans_only[0]["ts"].as_f64().unwrap();
    assert!((dur_us - 10.0).abs() < 1e-12, "{dur_us}");
}
