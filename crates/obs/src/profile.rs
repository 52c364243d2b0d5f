//! Wall-clock sampling profiler over the span live stacks.
//!
//! The aggregate span table (`span.rs`) answers *how long* each labelled
//! region took in total; the flight recorder answers *when* each guard
//! opened and closed, but only for one bounded trace. Neither answers
//! the question a perf-gate investigation starts with: *where is the
//! time concentrated right now, as a fraction of the whole run?* This
//! module adds the third leg: a zero-dependency sampling profiler.
//!
//! ## How it works
//!
//! Every metered thread publishes its **live span stack** — the labels
//! of the currently open [`span`](crate::span) guards, outermost first —
//! into a per-thread slot (a `Mutex<Vec<&'static str>>` registered in a
//! process-wide slot registry). The publishing hook piggybacks on the
//! same begin/end events that feed the flight recorder, so arming the
//! profiler requires no changes at call sites and no new probes.
//!
//! A dedicated sampler thread, started by [`Profiler::start`], wakes at
//! a configurable rate (default [`DEFAULT_SAMPLE_HZ`]), walks every
//! registered slot, and folds each non-empty stack into a
//! `root;child;leaf -> count` table — the *collapsed stack* format that
//! `flamegraph.pl` and `inferno` consume directly. [`Profiler::stop`]
//! joins the thread and returns a [`ProfileReport`].
//!
//! ## The live-stack contract
//!
//! * Pushes happen only while the profiler is **armed**. A running
//!   profiler holds a [`SpansArmed`](crate::SpansArmed) token, so the
//!   span probes record while it samples; its own flag gates the
//!   live-stack publication, so spans armed by a recorder alone never
//!   touch a slot.
//! * Each [`SpanGuard`](crate::SpanGuard) remembers whether *it* pushed
//!   and pops only its own frame, so arming or disarming mid-span never
//!   unbalances a stack — at worst the first samples after arming are
//!   missing already-open ancestor frames.
//! * Guards pop during unwinding too (`Drop` runs on panic), and a
//!   thread's slot is cleared and deregistered when the thread exits,
//!   so a worker panic cannot leave a stale stack that poisons later
//!   samples. All slot and registry locks recover from poisoning.
//!
//! ## Why profile data is advisory-only
//!
//! Sample counts are a function of scheduler timing, sampling phase,
//! and machine load — two identical runs produce different counts. The
//! snapshot `profile` section therefore rides along like `wall_s` and
//! `kernels`: diffed for visibility, surfaced by drift attribution,
//! never part of a hard gate, and deliberately excluded from the trend
//! detector's counter walk. The deterministic sections (`work`,
//! `funnel`, `tiers`) are byte-identical with the profiler armed
//! or disarmed; a test pins that.

use crate::{json_obj, Json};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Default sampler rate, in samples per second. Prime on purpose: a
/// non-round period cannot phase-lock with millisecond-granular work
/// loops, which would over- or under-count spans whose duration is a
/// multiple of the sampling period.
pub const DEFAULT_SAMPLE_HZ: f64 = 997.0;

/// Whether a sampler is currently collecting. Relaxed is enough: a
/// push missed around the arming edge only costs one sample's frames,
/// and the guard-local `profiled` flag keeps pops balanced regardless.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Locks a mutex, recovering the data from a poisoned lock. Every lock
/// in this module is poison-tolerant by design: a panic on a metered
/// thread must not take the profiler (or later samples) down with it.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One thread's published live stack.
struct Slot {
    stack: Mutex<Vec<&'static str>>,
}

fn registry() -> &'static Mutex<Vec<Arc<Slot>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Slot>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Thread-local handle that registers this thread's slot on first use
/// and — crucially — clears and deregisters it when the thread exits,
/// so dead threads never contribute stale frames to later samples.
struct LocalSlot {
    slot: Arc<Slot>,
}

impl LocalSlot {
    fn new() -> LocalSlot {
        let slot = Arc::new(Slot {
            stack: Mutex::new(Vec::new()),
        });
        relock(registry()).push(Arc::clone(&slot));
        LocalSlot { slot }
    }
}

impl Drop for LocalSlot {
    fn drop(&mut self) {
        // Clear first (own lock only), then deregister (registry lock
        // only) — never both at once, so the sampler's registry->slot
        // lock order cannot deadlock against thread teardown.
        relock(&self.slot.stack).clear();
        let mut reg = relock(registry());
        if let Some(i) = reg.iter().position(|s| Arc::ptr_eq(s, &self.slot)) {
            reg.swap_remove(i);
        }
    }
}

thread_local! {
    static LOCAL: LocalSlot = LocalSlot::new();
}

/// Publishes `label` onto this thread's live stack. Returns whether a
/// frame was actually pushed; the caller (the span guard) must pop iff
/// this returned `true`. No-op (and `false`) when no sampler is armed
/// or the thread is already tearing down its locals.
pub(crate) fn live_push(label: &'static str) -> bool {
    if !ARMED.load(Ordering::Relaxed) {
        return false;
    }
    LOCAL
        .try_with(|l| relock(&l.slot.stack).push(label))
        .is_ok()
}

/// Pops the frame a prior successful [`live_push`] published. Tolerates
/// thread teardown (the slot is already gone) and an externally cleared
/// stack (the pop saturates at empty).
pub(crate) fn live_pop() {
    let _ = LOCAL.try_with(|l| {
        relock(&l.slot.stack).pop();
    });
}

/// Snapshot of every registered thread's live stack, outermost label
/// first, in registration order. Diagnostic aid for tests asserting the
/// panic-safety contract (no stale frames after a worker unwinds); not
/// meant for steady-state use — the sampler reads the slots directly.
pub fn live_snapshot() -> Vec<Vec<&'static str>> {
    relock(registry())
        .iter()
        .map(|s| relock(&s.stack).clone())
        .collect()
}

/// Walks every slot once, folding non-empty stacks into `folded`.
fn sample_once(ticks: &mut u64, folded: &mut HashMap<String, u64>) {
    *ticks += 1;
    let reg = relock(registry());
    for slot in reg.iter() {
        let stack = relock(&slot.stack);
        if stack.is_empty() {
            continue;
        }
        let key = stack.join(";");
        drop(stack);
        *folded.entry(key).or_insert(0) += 1;
    }
}

/// A running sampling profiler. Construct with [`Profiler::start`];
/// [`Profiler::stop`] consumes it and returns the collected
/// [`ProfileReport`]. One profiler at a time: arming is process-wide.
#[must_use = "a profiler collects nothing unless stopped for its report"]
pub struct Profiler {
    shared: Arc<(Mutex<bool>, Condvar)>,
    handle: std::thread::JoinHandle<(u64, HashMap<String, u64>)>,
    rate_hz: f64,
    started: Instant,
    _spans: crate::SpansArmed,
}

impl Profiler {
    /// Arms the span probes and the live-stack hooks, and spawns the
    /// sampler thread at `rate_hz` samples per second (non-finite or
    /// non-positive rates fall back to [`DEFAULT_SAMPLE_HZ`]).
    pub fn start(rate_hz: f64) -> Profiler {
        let rate = if rate_hz.is_finite() && rate_hz > 0.0 {
            rate_hz
        } else {
            DEFAULT_SAMPLE_HZ
        };
        let period = Duration::from_secs_f64(1.0 / rate);
        let spans = crate::arm_spans();
        ARMED.store(true, Ordering::SeqCst);
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("tsdtw-profiler".into())
            .spawn(move || {
                let mut ticks = 0u64;
                let mut folded = HashMap::new();
                let (lock, cvar) = &*thread_shared;
                loop {
                    sample_once(&mut ticks, &mut folded);
                    let stopped = relock(lock);
                    if *stopped {
                        break;
                    }
                    let (stopped, _) = cvar
                        .wait_timeout(stopped, period)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    if *stopped {
                        break;
                    }
                }
                (ticks, folded)
            })
            .expect("spawn the profiler sampler thread");
        Profiler {
            shared,
            handle,
            rate_hz: rate,
            started: Instant::now(),
            _spans: spans,
        }
    }

    /// Disarms the hooks and the span probes, joins the sampler, and
    /// returns its report. Panic-safe: a sampler that died mid-run
    /// yields an empty report rather than propagating.
    pub fn stop(self) -> ProfileReport {
        ARMED.store(false, Ordering::SeqCst);
        {
            let (lock, cvar) = &*self.shared;
            *relock(lock) = true;
            cvar.notify_all();
        }
        let (ticks, folded) = self.handle.join().unwrap_or_default();
        let mut folded: Vec<(String, u64)> = folded.into_iter().collect();
        folded.sort();
        ProfileReport {
            rate_hz: self.rate_hz,
            duration_s: self.started.elapsed().as_secs_f64(),
            ticks,
            folded,
        }
    }
}

/// Per-label self-time vs total-time attribution derived from folded
/// stacks. "Self" samples caught the label as the innermost open span;
/// "total" samples caught it anywhere on the stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProfile {
    /// The span label.
    pub label: String,
    /// Samples with this label at the top (innermost) of a stack.
    pub self_samples: u64,
    /// Samples with this label anywhere on the stack (counted once per
    /// sample even if the label recurses).
    pub total_samples: u64,
}

/// What a stopped [`Profiler`] collected.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Configured sampler rate (samples per second).
    pub rate_hz: f64,
    /// Wall-clock seconds the profiler was armed.
    pub duration_s: f64,
    /// Sampler wakeups, including ones that found every stack empty.
    pub ticks: u64,
    /// Folded stacks: `root;child;leaf` to sample count, sorted by
    /// stack string so every rendering below is deterministic given the
    /// same counts.
    pub folded: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Samples that caught at least one open span.
    pub fn samples(&self) -> u64 {
        self.folded.iter().map(|(_, n)| n).sum()
    }

    /// Renders the `flamegraph.pl` / `inferno` collapsed-stack format:
    /// one `stack count` line per folded stack, sorted.
    pub fn collapsed(&self) -> String {
        collapse(&self.folded)
    }

    /// Per-label self vs total attribution, ordered by self samples
    /// descending (ties by label, so the order is deterministic).
    pub fn self_totals(&self) -> Vec<SpanProfile> {
        self_totals(&self.folded)
    }

    /// Renders the self/total table for the terminal.
    pub fn table(&self) -> String {
        let rows = self.self_totals();
        let samples = self.samples();
        let mut out = String::new();
        out.push_str(&format!(
            "sampler: {:.0} Hz nominal, {} tick(s), {} sample(s) in span, {:.3}s armed\n",
            self.rate_hz, self.ticks, samples, self.duration_s
        ));
        if rows.is_empty() {
            out.push_str("no samples caught an open span\n");
            return out;
        }
        let width = rows.iter().map(|r| r.label.len()).max().unwrap_or(4).max(4);
        out.push_str(&format!(
            "{:<width$}  {:>8}  {:>8}  {:>7}\n",
            "span", "self", "total", "self%"
        ));
        for r in rows {
            let share = if samples == 0 {
                0.0
            } else {
                r.self_samples as f64 / samples as f64 * 100.0
            };
            out.push_str(&format!(
                "{:<width$}  {:>8}  {:>8}  {:>6.1}%\n",
                r.label, r.self_samples, r.total_samples, share
            ));
        }
        out
    }

    /// The snapshot `profile` section (schema v7). Sample counts and
    /// self-time shares only — advisory data, like `wall_s`.
    pub fn to_json(&self) -> Json {
        let samples = self.samples();
        let mut spans = Json::object();
        for r in self.self_totals() {
            let share = if samples == 0 {
                0.0
            } else {
                r.self_samples as f64 / samples as f64
            };
            spans.set(
                &r.label,
                json_obj! {
                    "self_samples" => r.self_samples,
                    "total_samples" => r.total_samples,
                    "self_share" => share,
                },
            );
        }
        json_obj! {
            "sampler_hz" => self.rate_hz,
            "duration_s" => self.duration_s,
            "ticks" => self.ticks,
            "samples" => samples,
            "spans" => spans,
        }
    }

    /// Renders the ASCII flame view of the folded stacks (see
    /// [`flame_ascii`]).
    pub fn flame_ascii(&self, width: usize) -> String {
        flame_ascii(&self.folded, width)
    }
}

/// Renders folded stacks in the collapsed-stack text format: one
/// `stack count` line per entry. Input order is preserved; pass
/// pre-sorted data (as [`ProfileReport::folded`] is) for a canonical
/// document.
pub fn collapse(folded: &[(String, u64)]) -> String {
    let mut out = String::new();
    for (stack, n) in folded {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&n.to_string());
        out.push('\n');
    }
    out
}

/// Parses collapsed-stack text back into folded `(stack, count)` pairs,
/// sorted by stack. Duplicate stacks merge by summing counts, so
/// `collapse(&parse_collapsed(t)?)` is a fixpoint: parsing canonical
/// output and re-collapsing reproduces it byte for byte.
///
/// A file whose counts sum past `u64::MAX` is an error naming the line
/// where the sum overflows. That bounds every later sum over the parsed
/// stacks ([`self_totals`], [`flame_ascii`]) by the same total.
pub fn parse_collapsed(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut map: HashMap<String, u64> = HashMap::new();
    let mut total: u64 = 0;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let Some((stack, count)) = line.rsplit_once(' ') else {
            return Err(format!("line {}: no count field: {line:?}", i + 1));
        };
        let count: u64 = count
            .parse()
            .map_err(|e| format!("line {}: bad count {count:?}: {e}", i + 1))?;
        if stack.is_empty() {
            return Err(format!("line {}: empty stack: {line:?}", i + 1));
        }
        total = total
            .checked_add(count)
            .ok_or_else(|| format!("line {}: sample counts sum past {}", i + 1, u64::MAX))?;
        *map.entry(stack.to_string()).or_insert(0) += count;
    }
    let mut folded: Vec<(String, u64)> = map.into_iter().collect();
    folded.sort();
    Ok(folded)
}

/// Per-label self/total attribution over folded stacks (free-function
/// form of [`ProfileReport::self_totals`], usable on parsed files).
pub fn self_totals(folded: &[(String, u64)]) -> Vec<SpanProfile> {
    let mut map: HashMap<&str, (u64, u64)> = HashMap::new();
    for (stack, n) in folded {
        let frames: Vec<&str> = stack.split(';').collect();
        if let Some(leaf) = frames.last() {
            map.entry(leaf).or_insert((0, 0)).0 += n;
        }
        let mut seen: Vec<&str> = Vec::with_capacity(frames.len());
        for f in frames {
            if !seen.contains(&f) {
                seen.push(f);
                map.entry(f).or_insert((0, 0)).1 += n;
            }
        }
    }
    let mut rows: Vec<SpanProfile> = map
        .into_iter()
        .map(|(label, (s, t))| SpanProfile {
            label: label.to_string(),
            self_samples: s,
            total_samples: t,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.self_samples
            .cmp(&a.self_samples)
            .then_with(|| a.label.cmp(&b.label))
    });
    rows
}

/// Renders an ASCII flame view of folded stacks: a depth-first tree of
/// frames, each line carrying an indentation for depth, a bar sized by
/// the frame's share of all samples, the percentage, and the count.
/// `width` bounds the bar column (clamped to at least 10).
pub fn flame_ascii(folded: &[(String, u64)], width: usize) -> String {
    #[derive(Default)]
    struct Node {
        children: Vec<(String, Node)>,
        total: u64,
    }
    fn insert(node: &mut Node, frames: &[&str], n: u64) {
        node.total += n;
        let Some((first, rest)) = frames.split_first() else {
            return;
        };
        let child = match node.children.iter_mut().position(|(k, _)| k == first) {
            Some(i) => &mut node.children[i].1,
            None => {
                node.children.push((first.to_string(), Node::default()));
                &mut node.children.last_mut().expect("just pushed").1
            }
        };
        insert(child, rest, n);
    }
    fn render(
        out: &mut String,
        name: &str,
        node: &Node,
        depth: usize,
        grand_total: u64,
        bar_width: usize,
    ) {
        let share = node.total as f64 / grand_total as f64;
        let bar = (share * bar_width as f64).round().max(1.0) as usize;
        out.push_str(&format!(
            "{:indent$}{:<bar_width$} {:>5.1}% {:>8}  {name}\n",
            "",
            "#".repeat(bar.min(bar_width)),
            share * 100.0,
            node.total,
            indent = depth * 2,
        ));
        let mut kids: Vec<&(String, Node)> = node.children.iter().collect();
        kids.sort_by(|a, b| b.1.total.cmp(&a.1.total).then_with(|| a.0.cmp(&b.0)));
        for (child_name, child) in kids {
            render(out, child_name, child, depth + 1, grand_total, bar_width);
        }
    }

    let mut root = Node::default();
    for (stack, n) in folded {
        let frames: Vec<&str> = stack.split(';').collect();
        insert(&mut root, &frames, *n);
    }
    if root.total == 0 {
        return "no samples\n".to_string();
    }
    let bar_width = width.max(10);
    let mut out = String::new();
    let mut roots: Vec<&(String, Node)> = root.children.iter().collect();
    roots.sort_by(|a, b| b.1.total.cmp(&a.1.total).then_with(|| a.0.cmp(&b.0)));
    for (name, node) in roots {
        render(&mut out, name, node, 0, root.total, bar_width);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::tests::arm_lock;

    fn folded(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|(s, n)| (s.to_string(), *n)).collect()
    }

    #[test]
    fn collapse_parse_round_trip_is_bitwise_stable() {
        let f = folded(&[("a;b;c", 3), ("a;b", 1), ("d", 9)]);
        let text = collapse(&parse_collapsed(&collapse(&f)).unwrap());
        let again = collapse(&parse_collapsed(&text).unwrap());
        assert_eq!(text, again);
        // Canonical order is sorted-by-stack.
        assert!(text.find("a;b 1").unwrap() < text.find("a;b;c 3").unwrap());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_collapsed("no-count-here").is_err());
        assert!(parse_collapsed("a;b not-a-number").is_err());
        assert!(parse_collapsed(" 12").is_err(), "empty stack");
        assert_eq!(parse_collapsed("\n\n").unwrap(), vec![]);
    }

    #[test]
    fn parse_merges_duplicate_stacks() {
        let f = parse_collapsed("a;b 2\na;b 3\n").unwrap();
        assert_eq!(f, folded(&[("a;b", 5)]));
    }

    #[test]
    fn self_totals_attribute_leaf_and_ancestors() {
        let rows = self_totals(&folded(&[("outer;inner", 4), ("outer", 1)]));
        let get = |l: &str| rows.iter().find(|r| r.label == l).unwrap().clone();
        assert_eq!(get("inner").self_samples, 4);
        assert_eq!(get("inner").total_samples, 4);
        assert_eq!(get("outer").self_samples, 1);
        assert_eq!(get("outer").total_samples, 5);
        // Ordered by self samples descending.
        assert_eq!(rows[0].label, "inner");
    }

    #[test]
    fn self_totals_count_recursion_once_per_sample() {
        let rows = self_totals(&folded(&[("f;f;f", 2)]));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].self_samples, 2);
        assert_eq!(rows[0].total_samples, 2, "not 6: once per sample");
    }

    #[test]
    fn report_json_carries_shares_and_counts() {
        let r = ProfileReport {
            rate_hz: 997.0,
            duration_s: 0.5,
            ticks: 10,
            folded: folded(&[("a;b", 3), ("a", 1)]),
        };
        let j = r.to_json();
        assert_eq!(j["samples"], 4u64);
        assert_eq!(j["ticks"], 10u64);
        assert_eq!(j["spans"]["b"]["self_samples"], 3u64);
        assert_eq!(j["spans"]["a"]["total_samples"], 4u64);
        let share = j["spans"]["b"]["self_share"].as_f64().unwrap();
        assert!((share - 0.75).abs() < 1e-12, "{share}");
        assert!(r.table().contains("self%"), "{}", r.table());
    }

    #[test]
    fn flame_ascii_orders_hot_frames_first() {
        let text = flame_ascii(&folded(&[("cold", 1), ("hot;leaf", 9)]), 20);
        let hot = text.find("hot").unwrap();
        let leaf = text.find("leaf").unwrap();
        let cold = text.find("cold").unwrap();
        assert!(hot < leaf && leaf < cold, "{text}");
        assert!(text.contains('#'), "{text}");
        assert_eq!(flame_ascii(&[], 20), "no samples\n");
    }

    #[test]
    fn armed_sampler_catches_spans_and_stop_disarms() {
        let _serial = arm_lock();
        let p = Profiler::start(5000.0);
        let g = crate::span("profile_unit_test_span");
        std::thread::sleep(Duration::from_millis(25));
        drop(g);
        let report = p.stop();
        assert!(report.ticks > 0);
        assert!(!ARMED.load(Ordering::SeqCst), "stop disarms");
        assert!(
            report
                .folded
                .iter()
                .any(|(s, _)| s.contains("profile_unit_test_span")),
            "{:?}",
            report.folded
        );
        // Advisory JSON is well-formed even on live data.
        let j = report.to_json();
        assert!(j["samples"].as_u64().unwrap() >= 1);
        // The span recorded while armed; after stop the probes are idle
        // and pushes are refused.
        assert_eq!(crate::take_spans().len(), 1);
        drop(crate::span("profile_after_stop"));
        assert!(crate::take_spans().is_empty(), "stop releases the span arm");
        assert!(!live_push("after_stop"));
    }

    #[test]
    fn live_stack_balances_across_panic_unwind() {
        let _serial = arm_lock();
        let p = Profiler::start(5000.0);
        let result = std::panic::catch_unwind(|| {
            let _g = crate::span("profile_panic_span");
            panic!("mid-span panic");
        });
        assert!(result.is_err());
        let report = p.stop();
        let _ = crate::take_spans();
        drop(report);
        // The unwound guard popped its frame: this thread's live stack
        // is empty again, so later samples cannot see a stale frame.
        let depth_here = LOCAL.try_with(|l| relock(&l.slot.stack).len()).unwrap();
        assert_eq!(depth_here, 0, "stale frame after unwind");
    }

    #[test]
    fn dead_threads_deregister_their_slots() {
        let _serial = arm_lock();
        let p = Profiler::start(5000.0);
        std::thread::spawn(|| {
            let _g = crate::span("profile_dead_thread_span");
        })
        .join()
        .unwrap();
        let _ = p.stop();
        // The worker's slot is gone from the registry, and nothing that
        // remains carries its frames.
        for stack in live_snapshot() {
            assert!(
                !stack.contains(&"profile_dead_thread_span"),
                "stale slot: {stack:?}"
            );
        }
    }

    #[test]
    fn disarmed_hooks_are_inert() {
        // Not holding arm_lock would race other tests' arming, so take
        // it and rely on every armed test disarming via stop().
        let _serial = arm_lock();
        assert!(!live_push("never_pushed"));
        live_pop(); // saturates silently on the empty stack
        let depth = LOCAL.try_with(|l| relock(&l.slot.stack).len()).unwrap();
        assert_eq!(depth, 0);
    }
}
