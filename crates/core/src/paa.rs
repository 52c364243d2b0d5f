//! Piecewise Aggregate Approximation (PAA) and the 2:1 coarsening FastDTW
//! is built on.
//!
//! PAA replaces a series by the means of consecutive segments. FastDTW's
//! multilevel scheme repeatedly halves resolution with segment size 2
//! ([`halve`]); the adversarial construction of the paper's Appendix A uses
//! the general 8:1 form ([`paa`]) to exhibit a pair of series whose
//! coarsened shape warps in the *opposite direction* to the raw data.

use crate::error::{check_nonempty, Error, Result};

/// General PAA: averages `src` over `n_segments` equal-width segments.
///
/// When `src.len()` is not divisible by `n_segments`, fractional boundaries
/// are handled by weighting each sample by its overlap with the segment
/// (the standard "continuous" PAA), so every sample contributes exactly
/// once and segment means are exact for constant series.
pub fn paa(src: &[f64], n_segments: usize) -> Result<Vec<f64>> {
    check_nonempty("src", src)?;
    if n_segments == 0 {
        return Err(Error::InvalidParameter {
            name: "n_segments",
            reason: "must be at least 1".into(),
        });
    }
    if n_segments > src.len() {
        return Err(Error::InvalidParameter {
            name: "n_segments",
            reason: format!(
                "{} segments requested for {} samples",
                n_segments,
                src.len()
            ),
        });
    }
    let n = src.len() as f64;
    let seg_w = n / n_segments as f64;
    let mut out = Vec::with_capacity(n_segments);
    for s in 0..n_segments {
        let start = s as f64 * seg_w;
        let end = start + seg_w;
        let mut acc = 0.0;
        let first = start.floor() as usize;
        let last = (end.ceil() as usize).min(src.len());
        for (k, &v) in src.iter().enumerate().take(last).skip(first) {
            // Overlap of sample interval [k, k+1) with segment [start, end).
            let overlap = (end.min(k as f64 + 1.0) - start.max(k as f64)).max(0.0);
            acc += v * overlap;
        }
        out.push(acc / seg_w);
    }
    Ok(out)
}

/// The mean of two finite values, finite for every such pair.
///
/// `(a + b) * 0.5` overflows to `±∞` once the sum exceeds `f64::MAX`
/// (e.g. two samples of `1.7e308`), so that case falls back to
/// `a * 0.5 + b * 0.5`. Every pair whose sum is finite keeps the bits of
/// the plain formula. Both FastDTW implementations coarsen through this.
#[inline]
pub(crate) fn pair_mean(a: f64, b: f64) -> f64 {
    let sum = a + b;
    if sum.is_finite() {
        sum * 0.5
    } else {
        a * 0.5 + b * 0.5
    }
}

/// FastDTW's coarsening step: pairwise means (`pair_mean`), halving the
/// length.
///
/// Odd-length series follow Salvador & Chan's reference implementation: the
/// final unpaired sample becomes its own coarse point, so a series of
/// length `2k + 1` coarsens to length `k + 1` and no data is dropped.
pub fn halve(src: &[f64]) -> Vec<f64> {
    let _span = tsdtw_obs::span("paa_halve");
    let mut out = Vec::with_capacity(src.len().div_ceil(2));
    let mut chunks = src.chunks_exact(2);
    for pair in &mut chunks {
        out.push(pair_mean(pair[0], pair[1]));
    }
    if let [tail] = chunks.remainder() {
        out.push(*tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halve_even_length() {
        assert_eq!(halve(&[0.0, 2.0, 4.0, 6.0]), vec![1.0, 5.0]);
    }

    #[test]
    fn halve_odd_length_keeps_tail() {
        assert_eq!(halve(&[0.0, 2.0, 5.0]), vec![1.0, 5.0]);
    }

    #[test]
    fn halve_singleton() {
        assert_eq!(halve(&[7.0]), vec![7.0]);
    }

    #[test]
    fn pair_mean_stays_finite_where_the_sum_overflows() {
        assert_eq!(pair_mean(1.7e308, 1.7e308), 1.7e308);
        assert_eq!(pair_mean(-f64::MAX, -f64::MAX), -f64::MAX);
        // Finite sums keep the plain formula's bits.
        for (a, b) in [
            (0.1, 0.2),
            (1.0, -3.0),
            (f64::MAX, -f64::MAX),
            (5e-324, 5e-324),
        ] {
            assert_eq!(pair_mean(a, b).to_bits(), ((a + b) * 0.5).to_bits());
        }
        assert_eq!(halve(&[1.7e308; 5]), vec![1.7e308; 3]);
    }

    #[test]
    fn halve_preserves_constant_series() {
        let c = vec![3.5; 9];
        assert!(halve(&c).iter().all(|&v| v == 3.5));
    }

    #[test]
    fn paa_exact_division() {
        let s = [1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0];
        assert_eq!(paa(&s, 4).unwrap(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn paa_whole_series_mean() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(paa(&s, 1).unwrap(), vec![2.5]);
    }

    #[test]
    fn paa_identity_when_segments_equal_length() {
        let s = [1.0, -2.0, 3.0];
        assert_eq!(paa(&s, 3).unwrap(), s.to_vec());
    }

    #[test]
    fn paa_fractional_boundaries_conserve_mass() {
        // Total (weighted) mass must be conserved: sum(out) * seg_w == sum(src).
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let k = 3;
        let out = paa(&s, k).unwrap();
        let seg_w = s.len() as f64 / k as f64;
        let mass_out: f64 = out.iter().map(|v| v * seg_w).sum();
        let mass_in: f64 = s.iter().sum();
        assert!((mass_out - mass_in).abs() < 1e-9);
    }

    #[test]
    fn paa_constant_series_is_constant() {
        let s = vec![2.0; 10];
        for k in 1..=10 {
            assert!(paa(&s, k).unwrap().iter().all(|&v| (v - 2.0).abs() < 1e-12));
        }
    }

    #[test]
    fn paa_rejects_bad_segment_counts() {
        assert!(paa(&[1.0, 2.0], 0).is_err());
        assert!(paa(&[1.0, 2.0], 3).is_err());
        assert!(paa(&[], 1).is_err());
    }

    #[test]
    fn paa_eight_to_one_as_in_appendix_a() {
        let s: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let out = paa(&s, 8).unwrap();
        assert_eq!(out.len(), 8);
        assert!((out[0] - 3.5).abs() < 1e-12);
        assert!((out[7] - 59.5).abs() < 1e-12);
    }
}
