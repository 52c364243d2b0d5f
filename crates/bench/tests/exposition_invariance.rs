//! Exposition invariance: arming the span probes for a profile must not
//! change one byte of any deterministic snapshot section.
//!
//! The profile is pure *exposition* — a fold of the span table, which
//! never touches a `WorkMeter`, a funnel ledger, or an experiment's data
//! path. This test pins that contract the same way
//! `tests/parallel_equivalence.rs` pins thread-count invariance: run the
//! `cells` experiment with the spans armed and disarmed across several
//! worker counts and require every section the snapshot gates (each
//! non-advisory row of `snapshot::SECTIONS`) to render byte-identically.
//! If a future change routes span state into a metered path, the
//! perf-gate baselines would silently fork between profiled and
//! unprofiled CI runs — this test turns that fork into a local failure.
//!
//! The armed runs hold the probes armed as `repro --profile` does, so
//! every span lands in the table, and fold the drain into a profile; the
//! disarmed runs leave the probes idle. Neither may move a gated byte.

use tsdtw_bench::experiments::cells;
use tsdtw_bench::report::Scale;
use tsdtw_bench::snapshot::{Gate, SECTIONS};
use tsdtw_mining::ParConfig;

/// Runs `cells` once and renders its deterministic sections to a single
/// canonical string (absent sections render as `absent` so a section
/// appearing only when armed also fails the comparison).
fn deterministic_sections(threads: usize, armed: bool) -> String {
    let par = ParConfig::new(threads).expect("positive thread count");
    let _ = tsdtw_obs::take_spans();
    let token = armed.then(tsdtw_obs::arm_spans);
    let rep = cells::run(&Scale::Quick, &par);
    drop(token);
    // One drain per run, so runs don't leak spans into each other.
    let profile = tsdtw_obs::ProfileReport::new(0.0, &tsdtw_obs::drain_raw_spans());
    assert_eq!(
        profile.folded.is_empty(),
        !armed,
        "armed runs profile their spans, disarmed runs record none"
    );
    let mut out = String::new();
    for section in SECTIONS.iter().filter(|s| s.gate != Gate::Advisory) {
        out.push_str(section.name);
        out.push('=');
        match rep.json.get(section.name) {
            Some(section) => out.push_str(&section.to_string_pretty()),
            None => out.push_str("absent"),
        }
        out.push('\n');
    }
    out
}

#[test]
fn deterministic_sections_are_byte_identical_armed_vs_disarmed() {
    let reference = deterministic_sections(1, false);
    for threads in [1usize, 2, 4, 7] {
        let disarmed = deterministic_sections(threads, false);
        assert_eq!(
            disarmed, reference,
            "disarmed run at {threads} thread(s) diverged from the serial \
             reference — thread-count invariance broke before profiling \
             even entered the picture"
        );
        let armed = deterministic_sections(threads, true);
        assert_eq!(
            armed, reference,
            "armed spans changed a deterministic section at {threads} \
             thread(s) — profiling must stay pure exposition"
        );
    }
}
