//! Log-linear (HDR-style) latency histograms.
//!
//! A [`LatencyHist`] buckets durations (recorded in integer nanoseconds)
//! into a fixed layout: 64 exact one-nanosecond buckets, then 32 linear
//! sub-buckets per power-of-two octave. Bucket width is at most 1/32 of
//! the bucket's lower bound, so any quantile read back from the buckets
//! carries a bounded **≤ 3.2 % relative error** — the classic
//! HdrHistogram trade: O(1) record, O(1) memory independent of sample
//! count, and percentiles without retaining samples.
//!
//! The minimum and maximum are additionally tracked exactly, so
//! `percentile_s(1.0)` (and any rank that resolves to the top sample)
//! returns the true maximum, not a bucket bound.
//!
//! ## The nearest-rank convention
//!
//! Every percentile in the workspace — here, in
//! `tsdtw-bench::timing`, and in the per-span stats — uses the
//! *nearest-rank* definition pinned by [`nearest_rank`]: the p-th
//! percentile of `n` samples is the sample at 1-based rank
//! `clamp(ceil(p·n), 1, n)` in sorted order. No interpolation. The
//! clamp makes tiny sample counts well-defined: with `n = 1` every
//! percentile is the sample itself; with `n = 2` every `p ≤ 0.5` is the
//! smaller sample and every `p > 0.5` the larger.

use crate::json::{Json, ToJson};

/// Exact 1 ns buckets below this value; log-linear octaves above.
const LINEAR_MAX: u64 = 64;
/// log2 of the sub-buckets per octave.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: u64 = 1 << SUB_BITS;
/// One past the largest reachable bucket index for any `u64` value
/// (`msb = 63` ⇒ `octave = 58` ⇒ index `63 + 58·32 = 1919`).
const NUM_BUCKETS: usize = 1920;

/// 1-based nearest-rank of the `q`-quantile among `n` sorted samples:
/// `clamp(ceil(q·n), 1, n)`. `q` outside `[0, 1]` is clamped; `n` must
/// be non-zero.
///
/// This is the single percentile convention used across the workspace
/// (see the module docs for the tiny-`n` cases it pins down).
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "nearest_rank needs at least one sample");
    let q = q.clamp(0.0, 1.0);
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Bucket index for a duration of `ns` nanoseconds.
fn bucket_index(ns: u64) -> usize {
    if ns < LINEAR_MAX {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros();
    let octave = msb - SUB_BITS;
    ((ns >> octave) + SUBS * octave as u64) as usize
}

/// Inclusive upper bound (in ns) of the values mapping to bucket `i`.
fn bucket_upper(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    let octave = (i as u64 / SUBS) - 1;
    let base = i as u64 - SUBS * octave;
    // `(base + 1) << octave` can overflow for the top bucket; the split
    // form stays in range (the last bucket's bound is exactly u64::MAX).
    (base << octave) + ((1u64 << octave) - 1)
}

/// A fixed-layout log-linear histogram of durations.
///
/// `Default`/[`new`](LatencyHist::new) allocate nothing; the bucket
/// array appears on the first [`record_ns`](LatencyHist::record_ns) and
/// grows only to the highest bucket touched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyHist {
    counts: Vec<u64>,
    count: u64,
    total_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration of `ns` nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let i = bucket_index(ns);
        if self.counts.len() <= i {
            self.counts.resize((i + 1).min(NUM_BUCKETS), 0);
        }
        self.counts[i] += 1;
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns as u128;
    }

    /// Records one duration in seconds (negative and non-finite values
    /// clamp to zero; durations are non-negative by construction).
    pub fn record_s(&mut self, seconds: f64) {
        let ns = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round().min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.record_ns(ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations, in seconds.
    pub fn total_s(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Sum of all recorded durations, in integer nanoseconds: exact, so
    /// span self times (a total minus its children's) are exact too.
    pub fn total_ns(&self) -> u128 {
        self.total_ns
    }

    /// Mean duration in seconds; zero for an empty histogram.
    pub fn mean_s(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_s() / self.count as f64
        }
    }

    /// Exact minimum in seconds; zero for an empty histogram.
    pub fn min_s(&self) -> f64 {
        self.min_ns as f64 * 1e-9
    }

    /// Exact maximum in seconds; zero for an empty histogram.
    pub fn max_s(&self) -> f64 {
        self.max_ns as f64 * 1e-9
    }

    /// The `q`-quantile in seconds by the [`nearest_rank`] convention,
    /// read from the buckets (≤ 3.2 % relative error; the top bucket
    /// resolves to the exact maximum). Zero for an empty histogram.
    pub fn percentile_s(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(self.count as usize, q) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            // Saturating for the same reason `merge` is: bucket counts
            // may individually sit at u64::MAX after saturated merges.
            seen = seen.saturating_add(c);
            if seen >= rank {
                return (bucket_upper(i).min(self.max_ns).max(self.min_ns)) as f64 * 1e-9;
            }
        }
        self.max_s()
    }

    /// Folds another histogram into this one.
    ///
    /// Counts and totals saturate instead of overflowing: a histogram
    /// may be merged into long after its shards individually carry huge
    /// counts, and the trend detector reads quantiles off the result — a
    /// wrapped count would silently reorder every rank, while a pinned
    /// `u64::MAX` keeps quantiles monotone (see
    /// `merge_saturates_at_extremes`).
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.count == 0 {
            return;
        }
        if self.counts.len() < other.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst = dst.saturating_add(*src);
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count = self.count.saturating_add(other.count);
        self.total_ns = self.total_ns.saturating_add(other.total_ns);
    }

    /// Non-empty buckets as `(upper_bound_ns, count)`, lowest first —
    /// the raw trajectory-snapshot payload.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_upper(i), c))
            .collect()
    }
}

impl ToJson for LatencyHist {
    fn to_json(&self) -> Json {
        crate::json_obj! {
            "count" => self.count,
            "mean_s" => self.mean_s(),
            "min_s" => self.min_s(),
            "p50_s" => self.percentile_s(0.50),
            "p90_s" => self.percentile_s(0.90),
            "p99_s" => self.percentile_s(0.99),
            "max_s" => self.max_s(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every value maps into exactly one bucket whose bounds contain it,
        // and indices never decrease with the value.
        let mut prev = 0usize;
        for ns in (0..4096u64).chain([1 << 20, (1 << 20) + 7, u64::MAX >> 1, u64::MAX]) {
            let i = bucket_index(ns);
            assert!(i >= prev || ns < 4096, "monotone");
            assert!(ns <= bucket_upper(i), "{ns} above its bucket bound");
            if i > 0 {
                assert!(ns > bucket_upper(i - 1), "{ns} below its bucket");
            }
            assert!(i < NUM_BUCKETS);
            if ns >= 4096 {
                continue;
            }
            prev = i;
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        // Bucket width / lower bound <= 1/32 beyond the linear region.
        for ns in [100u64, 1_000, 123_456, 10_000_000, 1 << 40] {
            let i = bucket_index(ns);
            let upper = bucket_upper(i) as f64;
            assert!(
                (upper - ns as f64) / ns as f64 <= 1.0 / 32.0 + 1e-12,
                "{ns}: upper {upper}"
            );
        }
    }

    #[test]
    fn nearest_rank_convention_pinned() {
        // n = 1: every quantile is the single sample.
        assert_eq!(nearest_rank(1, 0.0), 1);
        assert_eq!(nearest_rank(1, 0.5), 1);
        assert_eq!(nearest_rank(1, 0.95), 1);
        assert_eq!(nearest_rank(1, 1.0), 1);
        // n = 2: p <= 0.5 -> the smaller sample, p > 0.5 -> the larger.
        assert_eq!(nearest_rank(2, 0.5), 1);
        assert_eq!(nearest_rank(2, 0.50001), 2);
        assert_eq!(nearest_rank(2, 0.95), 2);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(nearest_rank(5, -3.0), 1);
        assert_eq!(nearest_rank(5, 7.0), 5);
        // The textbook cases.
        assert_eq!(nearest_rank(20, 0.95), 19);
        assert_eq!(nearest_rank(100, 0.95), 95);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn nearest_rank_rejects_empty() {
        nearest_rank(0, 0.5);
    }

    #[test]
    fn percentiles_track_known_distributions() {
        let mut h = LatencyHist::new();
        for ns in 1..=1000u64 {
            h.record_ns(ns * 1000); // 1 µs .. 1 ms
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile_s(0.50);
        let p99 = h.percentile_s(0.99);
        assert!((p50 - 500e-6).abs() / 500e-6 < 0.04, "p50 {p50}");
        assert!((p99 - 990e-6).abs() / 990e-6 < 0.04, "p99 {p99}");
        // Max is exact, not a bucket bound.
        assert_eq!(h.max_s(), 1e-3);
        assert_eq!(h.percentile_s(1.0), 1e-3);
        assert!((h.mean_s() - 500.5e-6).abs() < 1e-9);
    }

    #[test]
    fn tiny_counts_follow_the_pinned_convention() {
        let mut h = LatencyHist::new();
        h.record_s(1e-3);
        // n = 1: everything is the one sample (exact via min/max clamping).
        assert_eq!(h.percentile_s(0.5), 1e-3);
        assert_eq!(h.percentile_s(0.99), 1e-3);
        h.record_s(3e-3);
        // n = 2: p50 -> smaller, p99 -> larger.
        assert!((h.percentile_s(0.5) - 1e-3).abs() / 1e-3 < 0.04);
        assert_eq!(h.percentile_s(0.99), 3e-3);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = LatencyHist::new();
        a.record_ns(10);
        let mut b = LatencyHist::new();
        b.record_ns(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min_ns, 10);
        assert_eq!(a.max_ns, 1_000_000);
        let empty = LatencyHist::new();
        a.merge(&empty);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn merge_preserves_exact_extrema_and_total_count() {
        // The parallel executor merges per-worker histograms shard-wise;
        // the merged histogram must agree exactly with one built from
        // the full sample stream — bucket counts, exact min/max, count,
        // and total are all preserved, in any merge order.
        let samples: Vec<u64> = (0..200u64).map(|i| (i * 7919 + 13) % 1_000_003).collect();
        let mut whole = LatencyHist::new();
        for &s in &samples {
            whole.record_ns(s);
        }
        for chunk_len in [1usize, 3, 7, 64] {
            let shards: Vec<LatencyHist> = samples
                .chunks(chunk_len)
                .map(|c| {
                    let mut h = LatencyHist::new();
                    for &s in c {
                        h.record_ns(s);
                    }
                    h
                })
                .collect();
            let mut fwd = LatencyHist::new();
            for s in &shards {
                fwd.merge(s);
            }
            assert_eq!(fwd, whole, "chunk {chunk_len}");
            let mut rev = LatencyHist::new();
            for s in shards.iter().rev() {
                rev.merge(s);
            }
            assert_eq!(rev.count(), whole.count());
            assert_eq!(rev.min_ns, whole.min_ns);
            assert_eq!(rev.max_ns, whole.max_ns);
            assert_eq!(rev.total_ns, whole.total_ns);
            assert_eq!(rev.nonzero_buckets(), whole.nonzero_buckets());
        }
    }

    #[test]
    fn merge_of_two_empties_is_empty() {
        let mut a = LatencyHist::new();
        let b = LatencyHist::new();
        a.merge(&b);
        assert_eq!(a, LatencyHist::new());
        assert_eq!(a.count(), 0);
        assert_eq!(a.percentile_s(0.5), 0.0);
        assert_eq!(a.mean_s(), 0.0);
        assert!(a.nonzero_buckets().is_empty());
    }

    #[test]
    fn merge_empty_with_single_sample_adopts_it_exactly() {
        // empty ⊕ {x}: every quantile is x (nearest-rank n = 1), and
        // the exact extrema come from the single sample, not from the
        // empty side's zero-initialized min/max.
        let mut single = LatencyHist::new();
        single.record_ns(123_456);
        let mut a = LatencyHist::new();
        a.merge(&single);
        assert_eq!(a, single);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.percentile_s(q), 123_456e-9, "q={q}");
        }
        assert_eq!(a.min_ns, 123_456);
        assert_eq!(a.max_ns, 123_456);
        // The mirror image {x} ⊕ empty is already covered by
        // merge_combines_counts_and_extrema; check symmetry anyway.
        let mut b = single.clone();
        b.merge(&LatencyHist::new());
        assert_eq!(b, single);
    }

    #[test]
    fn merge_saturates_at_extremes() {
        // Repeated self-merge doubles the count each time; 64+ rounds
        // would overflow u64 if merge used wrapping adds. Saturation
        // pins count, buckets, and total at their maxima and keeps the
        // histogram usable (quantiles still resolve, no panic).
        let mut h = LatencyHist::new();
        h.record_ns(1_000);
        h.record_ns(2_000_000);
        for _ in 0..70 {
            let snapshot = h.clone();
            h.merge(&snapshot);
        }
        assert_eq!(h.count(), u64::MAX);
        assert!(h.counts.contains(&u64::MAX));
        // The u128 total genuinely exceeds u64 range (2^70 doublings of
        // 2 001 000 ns) without wrapping — saturating_add never fired.
        assert!(h.total_ns > u64::MAX as u128);
        assert_eq!(h.min_ns, 1_000);
        assert_eq!(h.max_ns, 2_000_000);
        // Quantiles remain well-defined and ordered on the saturated
        // state. (Rank information *within* a saturated bucket is gone
        // — every rank lands in the first u64::MAX bucket — so p100 is
        // no longer the max; what saturation guarantees is no panic, no
        // wrap-induced inversion, and exact extrema via min_s/max_s.)
        let p50 = h.percentile_s(0.50);
        let p99 = h.percentile_s(0.99);
        assert!(p50 > 0.0 && p50 <= p99);
        assert!(h.percentile_s(1.0) <= h.max_s());
        assert_eq!(h.max_s(), 2_000_000e-9);
        // Merging more into a saturated histogram stays saturated.
        let mut extra = LatencyHist::new();
        extra.record_ns(500);
        h.merge(&extra);
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.min_ns, 500);
    }

    #[test]
    fn quantiles_are_monotone_after_merge() {
        // p50 <= p90 <= p99 <= max must hold on any merged histogram —
        // the trend detector compares these fields across history
        // records and a rank inversion would fabricate drift. Exercise
        // skewed shard shapes: disjoint ranges, overlapping ranges,
        // one-hot shards, and a shard that saturates a bucket.
        let shard = |samples: &[u64]| {
            let mut h = LatencyHist::new();
            for &s in samples {
                h.record_ns(s);
            }
            h
        };
        let shards = [
            shard(&(1..100u64).map(|i| i * 17).collect::<Vec<_>>()),
            shard(&(1..50u64).map(|i| i * 1_000_003).collect::<Vec<_>>()),
            shard(&[42]),
            shard(&[u64::MAX >> 20]),
            shard(
                &(0..200u64)
                    .map(|i| (i * 7919 + 13) % 65_536)
                    .collect::<Vec<_>>(),
            ),
        ];
        let mut merged = LatencyHist::new();
        for s in &shards {
            merged.merge(s);
            if merged.count() == 0 {
                continue;
            }
            let p50 = merged.percentile_s(0.50);
            let p90 = merged.percentile_s(0.90);
            let p99 = merged.percentile_s(0.99);
            let max = merged.max_s();
            assert!(p50 <= p90, "p50 {p50} > p90 {p90}");
            assert!(p90 <= p99, "p90 {p90} > p99 {p99}");
            assert!(p99 <= max, "p99 {p99} > max {max}");
            assert!(merged.min_s() <= p50, "min above p50");
        }
    }

    #[test]
    fn serializes_summary_fields() {
        let mut h = LatencyHist::new();
        h.record_s(2e-3);
        let j = h.to_json();
        for key in [
            "count", "mean_s", "min_s", "p50_s", "p90_s", "p99_s", "max_s",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j["count"], 1u64);
    }

    #[test]
    fn nonzero_buckets_are_sparse() {
        let mut h = LatencyHist::new();
        h.record_ns(5);
        h.record_ns(5);
        h.record_ns(100_000);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0], (5, 2));
        assert!(buckets[1].0 >= 100_000);
    }
}
