//! The span profile: where a run's time went, as exact self times.
//!
//! The span table (`span.rs`) answers *how long* each labelled region
//! took in total, and the flight recorder *when* each guard opened and
//! closed. A perf-gate investigation starts from a third question:
//! *where is the time concentrated, as a fraction of the whole run?*
//! The same table answers it. Its rows are keyed by the path of open
//! spans, so one drain folded by path
//! ([`RawSpans::folded`](crate::RawSpans::folded)) is a profile: each
//! `root;child;leaf` path weighted by its row's self time, the row's
//! total minus its children's totals in integer nanoseconds. Nothing is
//! sampled: the weights sum exactly to the root spans' total, and
//! [`self_totals`] recovers every label's inclusive time.
//!
//! The text form is the *collapsed stack* format `flamegraph.pl` and
//! `inferno` consume directly (one `stack weight` line per path), which
//! `repro --profile` and `--profile=FILE` write and `report flame`
//! renders with [`flame_ascii`].
//!
//! ## Why profile data is advisory-only
//!
//! Self times are wall-clock: two identical runs produce different
//! ones, with machine load and scheduler timing. The snapshot `profile`
//! section therefore rides along like `wall_s` and `kernels`: diffed for
//! visibility, surfaced by drift attribution, never part of a hard gate.
//! The deterministic sections (`work`, `funnel`, `tiers`) are
//! byte-identical with the spans armed or disarmed; a test pins that.

use crate::{json_obj, Json, RawSpans};
use std::collections::HashMap;

/// Per-label self vs total attribution derived from folded stacks.
/// "Self" weight is carried by stacks with the label innermost;
/// "total" weight by stacks with the label anywhere. In tsdtw's own
/// exports a weight is nanoseconds; a sampler's file carries counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanProfile {
    /// The span label.
    pub label: String,
    /// Weight of the stacks with this label innermost.
    pub self_weight: u64,
    /// Weight of the stacks with this label anywhere (counted once per
    /// stack even if the label recurses): its inclusive time.
    pub total_weight: u64,
}

/// One run's profile: the drained span table folded by path.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Wall-clock seconds of the profiled run.
    pub duration_s: f64,
    /// Folded stacks: `root;child;leaf` to self nanoseconds, sorted by
    /// stack string so every rendering below is deterministic.
    pub folded: Vec<(String, u64)>,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

impl ProfileReport {
    /// The profile of one drain of the span table, for a run that took
    /// `duration_s` seconds.
    pub fn new(duration_s: f64, spans: &RawSpans) -> ProfileReport {
        ProfileReport {
            duration_s,
            folded: spans.folded(),
        }
    }

    /// Nanoseconds inside spans: the root spans' total.
    pub fn total_ns(&self) -> u64 {
        self.folded.iter().map(|(_, n)| n).sum()
    }

    /// A label's share of the total, by self weight.
    fn share(&self, weight: u64) -> f64 {
        match self.total_ns() {
            0 => 0.0,
            total => weight as f64 / total as f64,
        }
    }

    /// Renders the collapsed-stack format: one `stack ns` line per
    /// folded stack, sorted.
    pub fn collapsed(&self) -> String {
        collapse(&self.folded)
    }

    /// Per-label self vs total attribution, ordered by self weight
    /// descending (ties by label, so the order is deterministic).
    pub fn self_totals(&self) -> Vec<SpanProfile> {
        self_totals(&self.folded)
    }

    /// Renders the self/total table for the terminal.
    pub fn table(&self) -> String {
        let rows = self.self_totals();
        let mut out = format!(
            "{:.6}s in spans over a {:.6}s run (exact self times)\n",
            secs(self.total_ns()),
            self.duration_s
        );
        if rows.is_empty() {
            out.push_str("no span closed\n");
            return out;
        }
        let width = rows.iter().map(|r| r.label.len()).max().unwrap_or(4).max(4);
        out.push_str(&format!(
            "{:<width$}  {:>12}  {:>12}  {:>7}\n",
            "span", "self", "total", "self%"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<width$}  {:>11.6}s  {:>11.6}s  {:>6.1}%\n",
                r.label,
                secs(r.self_weight),
                secs(r.total_weight),
                self.share(r.self_weight) * 100.0
            ));
        }
        out
    }

    /// The snapshot `profile` section (schema v7): per-label self and
    /// total seconds and self-time shares — advisory data, like
    /// `wall_s`.
    pub fn to_json(&self) -> Json {
        let mut spans = Json::object();
        for r in self.self_totals() {
            spans.set(
                &r.label,
                json_obj! {
                    "self_s" => secs(r.self_weight),
                    "total_s" => secs(r.total_weight),
                    "self_share" => self.share(r.self_weight),
                },
            );
        }
        json_obj! {
            "duration_s" => self.duration_s,
            "spans" => spans,
        }
    }
}

/// Renders folded stacks in the collapsed-stack text format: one
/// `stack weight` line per entry. Input order is preserved; pass
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

/// Parses collapsed-stack text back into folded `(stack, weight)` pairs,
/// sorted by stack. Duplicate stacks merge by summing weights, so
/// `collapse(&parse_collapsed(t)?)` is a fixpoint: parsing canonical
/// output and re-collapsing reproduces it byte for byte.
///
/// A file whose weights sum past `u64::MAX` is an error naming the line
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
            self_weight: s,
            total_weight: t,
        })
        .collect();
    rows.sort_by(|a, b| {
        b.self_weight
            .cmp(&a.self_weight)
            .then_with(|| a.label.cmp(&b.label))
    });
    rows
}

/// Renders an ASCII flame view of folded stacks: a depth-first tree of
/// frames, each line carrying an indentation for depth, a bar sized by
/// the frame's share of the total weight, the percentage, and the
/// weight.
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
        assert_eq!(get("inner").self_weight, 4);
        assert_eq!(get("inner").total_weight, 4);
        assert_eq!(get("outer").self_weight, 1);
        assert_eq!(get("outer").total_weight, 5);
        // Ordered by self weight descending.
        assert_eq!(rows[0].label, "inner");
    }

    #[test]
    fn self_totals_count_recursion_once_per_sample() {
        let rows = self_totals(&folded(&[("f;f;f", 2)]));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].self_weight, 2);
        assert_eq!(rows[0].total_weight, 2, "not 6: once per stack");
    }

    #[test]
    fn report_json_carries_seconds_and_shares() {
        let r = ProfileReport {
            duration_s: 0.5,
            folded: folded(&[("a;b", 3_000), ("a", 1_000)]),
        };
        assert_eq!(r.total_ns(), 4_000);
        let j = r.to_json();
        assert_eq!(j["duration_s"], 0.5);
        assert_eq!(j["spans"]["b"]["self_s"], 3e-6);
        assert_eq!(j["spans"]["a"]["total_s"], 4e-6);
        let share = j["spans"]["b"]["self_share"].as_f64().unwrap();
        assert!((share - 0.75).abs() < 1e-12, "{share}");
        assert!(r.table().contains("self%"), "{}", r.table());
        assert!(r.table().contains("75.0%"), "{}", r.table());
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
}
