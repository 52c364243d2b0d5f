//! Property tests over the profile's collapsed-stack text format
//! (proptest).
//!
//! `repro --profile` and `--profile=FILE` persist folded stacks as
//! flamegraph.pl-compatible `stack weight` lines, and `report flame`
//! parses them back. That round trip must be lossless and canonical:
//! one `collapse → parse_collapsed` normalization pass (sort by stack,
//! merge duplicates) reaches a fixpoint, after which re-collapsing is
//! bitwise stable — otherwise committed flamegraph artifacts would
//! churn between CI runs that measured identical distributions.

use proptest::prelude::*;
use tsdtw_obs::profile::{collapse, parse_collapsed, self_totals};

/// Frame labels: no `;` (the frame separator), no spaces (the
/// stack/count separator), non-empty — exactly what `span` labels are.
/// Drawn from a small alphabet so duplicate stacks (the merge case)
/// actually occur.
fn label() -> impl Strategy<Value = String> {
    const NAMES: [&str; 8] = [
        "cdtw",
        "lb_keogh",
        "knn",
        "dtw_full",
        "envelope",
        "fastdtw",
        "paa_halve",
        "x",
    ];
    (0usize..NAMES.len()).prop_map(|i| NAMES[i].to_string())
}

/// A `;`-joined stack of one to four frames.
fn stack() -> impl Strategy<Value = String> {
    prop::collection::vec(label(), 1..5).prop_map(|frames| frames.join(";"))
}

/// Arbitrary folded entries, duplicates and all orders included.
fn folded() -> impl Strategy<Value = Vec<(String, u64)>> {
    prop::collection::vec((stack(), 1u64..1_000), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collapse_parse_recollapse_is_bitwise_stable(entries in folded()) {
        // First pass normalizes arbitrary input (sorts, merges dups)...
        let text = collapse(&entries);
        let parsed = parse_collapsed(&text).expect("collapse output must parse");
        let canonical = collapse(&parsed);
        // ...after which the round trip is a bitwise fixpoint.
        let reparsed = parse_collapsed(&canonical).expect("canonical output must parse");
        prop_assert_eq!(&collapse(&reparsed), &canonical);
        prop_assert_eq!(reparsed, parsed);
    }

    #[test]
    fn normalization_preserves_every_sample(entries in folded()) {
        let parsed = parse_collapsed(&collapse(&entries)).unwrap();
        let before: u64 = entries.iter().map(|(_, n)| n).sum();
        let after: u64 = parsed.iter().map(|(_, n)| n).sum();
        prop_assert_eq!(before, after, "merging duplicates must not lose samples");
        // Merging means every distinct stack appears exactly once.
        let mut stacks: Vec<&str> = parsed.iter().map(|(s, _)| s.as_str()).collect();
        let total = stacks.len();
        stacks.dedup();
        prop_assert_eq!(stacks.len(), total);
    }

    #[test]
    fn self_time_attribution_is_conserved(entries in folded()) {
        // Leaf (self) weights partition the total: summing self over all
        // labels recovers exactly the total weight, parsed or not.
        let parsed = parse_collapsed(&collapse(&entries)).unwrap();
        let total: u64 = parsed.iter().map(|(_, n)| n).sum();
        let self_sum: u64 = self_totals(&parsed).iter().map(|s| s.self_weight).sum();
        prop_assert_eq!(self_sum, total);
    }

    /// Counts above `u64::MAX / 2`, so any two sum past `u64::MAX`. A
    /// file like that is an error naming its second line, not a panic
    /// on overflow (debug builds) or a wrapped total (release builds).
    #[test]
    fn sample_counts_summing_past_u64_max_are_an_error(
        entries in prop::collection::vec((stack(), (u64::MAX / 2 + 1)..=u64::MAX), 2..8),
    ) {
        let err = parse_collapsed(&collapse(&entries)).unwrap_err();
        prop_assert!(err.starts_with("line 2: "), "{}", err);
    }
}
