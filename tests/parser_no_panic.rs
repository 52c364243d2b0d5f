//! No-panic properties for the parsers that read user files.
//!
//! `Json::parse` reads every snapshot and ledger line `report
//! diff/show/trend` is pointed at, `read_ucr` reads every dataset
//! `classify`, `cluster`, `bakeoff` and `window` load, and
//! `parse_collapsed` reads the folded stacks `report flame` renders. On
//! any input each must return `Ok` or `Err`: no panic, and no stack
//! overflow on deep nesting.

use proptest::prelude::*;
use tsdtw::datasets::ucr_format::read_ucr;
use tsdtw_obs::profile::parse_collapsed;
use tsdtw_obs::Json;

/// Bytes drawn mostly from `alphabet`, the rest arbitrary, so inputs
/// reach past the first token instead of failing on byte 0.
fn bytes_over(alphabet: &'static [u8], len: usize) -> impl Strategy<Value = Vec<u8>> {
    let byte = (0usize..alphabet.len() + alphabet.len() / 4, 0u8..=255)
        .prop_map(move |(k, b)| alphabet.get(k).copied().unwrap_or(b));
    prop::collection::vec(byte, 0..len)
}

const JSON_ALPHABET: &[u8] = b"{}[]\",:\\/-+.eE0123456789 \n\ttrufalsn\"\"ub";

const UCR_ALPHABET: &[u8] = b"0123456789.-+eE\t\t\t,,\n\n\n  NaNinfINF#";

const COLLAPSED_ALPHABET: &[u8] = b";;;    \n\n\n0123456789012345678901234567890123456789abcxyz_";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes (lossily decoded, as a file read would be) and
    /// nesting far deeper than the parser's depth bound: `Ok` or `Err`,
    /// and a nest that deep or left open is never `Ok`.
    #[test]
    fn json_parse_never_panics(
        bytes in bytes_over(JSON_ALPHABET, 96),
        // 1 to 2^17 levels, spread evenly over the scales.
        depth in (0u32..18, 0usize..3).prop_map(|(e, d)| (1usize << e) + d),
        object in 0u8..2,
        closed in 0u8..2,
    ) {
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        let (open, close) = if object == 1 { ("{\"k\":", "}") } else { ("[", "]") };
        let mut nested = open.repeat(depth);
        nested.push('0');
        if closed == 1 {
            nested.push_str(&close.repeat(depth));
        }
        if Json::parse(&nested).is_ok() {
            prop_assert!(closed == 1 && depth < 1_000, "depth {} parsed", depth);
        }
    }

    /// Arbitrary bytes as a UCR file: `Ok` or `Err`, and an accepted
    /// dataset holds equal-length finite series with labels `0..k`.
    #[test]
    fn read_ucr_never_panics(bytes in bytes_over(UCR_ALPHABET, 160)) {
        if let Ok(d) = read_ucr("fuzz", bytes.as_slice()) {
            let len = d.series_len();
            prop_assert!(d.series.iter().all(|s| s.len() == len));
            prop_assert!(d.series.iter().flatten().all(|v| v.is_finite()));
            prop_assert!(d.labels.iter().all(|&l| l < d.n_classes()));
        }
    }

    /// A collapsed-stack file: well-formed lines over three stacks, whose
    /// counts are sometimes near `u64::MAX` so duplicates merge and sums
    /// overflow, followed half the time by arbitrary bytes. `Ok` or
    /// `Err`, and an accepted profile is sorted by stack with no empty or
    /// repeated stack and a total that fits in a `u64`.
    #[test]
    fn parse_collapsed_never_panics(
        lines in prop::collection::vec(
            (0u8..3, 0u8..4, 0u64..1_000, u64::MAX / 4..u64::MAX),
            0..6,
        ),
        bytes in bytes_over(COLLAPSED_ALPHABET, 96),
        append_bytes in 0u8..2,
    ) {
        let mut text = String::new();
        for (stack, pick, small, huge) in lines {
            let count = if pick == 0 { huge } else { small };
            text.push_str(&format!("main;f{stack} {count}\n"));
        }
        if append_bytes == 1 {
            text.push_str(&String::from_utf8_lossy(&bytes));
        }
        if let Ok(folded) = parse_collapsed(&text) {
            prop_assert!(folded.windows(2).all(|p| p[0].0 < p[1].0), "sorted, unique");
            prop_assert!(folded.iter().all(|(stack, _)| !stack.is_empty()));
            let total = folded.iter().try_fold(0u64, |t, &(_, n)| t.checked_add(n));
            prop_assert!(total.is_some(), "counts sum past u64::MAX");
        }
    }
}
