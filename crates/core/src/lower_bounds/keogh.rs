//! LB_Keogh: the envelope lower bound, with early-abandoning and reordered
//! variants.
//!
//! For a query `q` with band-`w` envelope `U, L` and a candidate `c` of the
//! same length, every cell `(i, j)` a banded warping path may visit has
//! `|i - j| ≤ w`, so `c[i]` can only ever be aligned against values of `q`
//! inside `[L[i], U[i]]`; its excursion beyond the envelope is an
//! unavoidable cost. Summing squared excursions gives
//! `LB_Keogh(q, c) ≤ cDTW_w(q, c)`.
//!
//! The per-index contributions are also the raw material for the
//! *cumulative bound* `cb` that early-abandoning DTW consumes
//! ([`suffix_sums`]).

use crate::envelope::Envelope;
use crate::error::{check_finite, check_nonempty, Error, Result};

/// Squared excursion of `c` outside `[lower, upper]`: the one term every
/// envelope bound here charges (LB_Yi charges it against the query's
/// range).
///
/// The textbook decision tree — above `upper` first, then below `lower`,
/// else inside — held as two selects on the differences, so it compiles
/// without a branch: where a point falls against a z-normalized query's
/// envelope is close to a coin flip, and branches there mispredict. For
/// finite operands `c - upper > 0` exactly when `c > upper` (a difference
/// of finite doubles is zero only between equal values and keeps its sign
/// when it overflows), and `lower - c > 0` exactly when `c < lower`, so
/// the term has the branchy form's bits on every finite input, a crossed
/// envelope (`lower > upper`) included.
#[inline(always)]
pub(crate) fn excursion(c: f64, upper: f64, lower: f64) -> f64 {
    let above = c - upper;
    let below = lower - c;
    let inside_or_below = if below > 0.0 { below } else { 0.0 };
    let d = if above > 0.0 { above } else { inside_or_below };
    d * d
}

fn check_len(c: &[f64], env: &Envelope) -> Result<()> {
    check_nonempty("c", c)?;
    check_finite("c", c)?;
    if c.len() != env.len() {
        return Err(Error::LengthMismatch {
            x_len: env.len(),
            y_len: c.len(),
        });
    }
    Ok(())
}

/// Plain LB_Keogh of candidate `c` against the envelope of the query.
pub fn lb_keogh(c: &[f64], env: &Envelope) -> Result<f64> {
    check_len(c, env)?;
    let _span = tsdtw_obs::span("lb_keogh");
    Ok(c.iter()
        .zip(env.upper.iter().zip(&env.lower))
        .map(|(&ci, (&u, &l))| excursion(ci, u, l))
        .sum())
}

/// LB_Keogh with early abandoning: stops accumulating once the partial sum
/// exceeds `bsf`. The returned value is always a valid lower bound (a
/// partial sum of non-negative terms).
pub fn lb_keogh_ea(c: &[f64], env: &Envelope, bsf: f64) -> Result<f64> {
    check_len(c, env)?;
    let mut acc = 0.0;
    for (i, &ci) in c.iter().enumerate() {
        acc += excursion(ci, env.upper[i], env.lower[i]);
        if acc >= bsf {
            return Ok(acc);
        }
    }
    Ok(acc)
}

/// Reordered early-abandoning LB_Keogh: visits indices in the caller-
/// provided order (UCR practice: by descending `|q|` of the z-normalized
/// query, where large excursions are likeliest), abandoning early.
///
/// `order` must be a permutation of `0..c.len()`; only its length is
/// checked here (a wrong permutation yields a still-valid but weaker
/// bound if indices repeat — callers use [`sort_indices_by_magnitude`]).
pub fn lb_keogh_reordered(c: &[f64], env: &Envelope, order: &[usize], bsf: f64) -> Result<f64> {
    check_len(c, env)?;
    if order.len() != c.len() {
        return Err(Error::InvalidParameter {
            name: "order",
            reason: format!("order has {} entries for length {}", order.len(), c.len()),
        });
    }
    Ok(lb_keogh_reordered_by(env, order, bsf, |i| c[i], |_, _| {}))
}

/// The loop of [`lb_keogh_reordered`], generic over how candidate value
/// `i` is read (`c(i)`), with no validation: the scan that derives each
/// value on the fly (the subsequence search z-normalizes only the points
/// this visits) shares it with the slice wrapper, bit for bit.
///
/// Each visited index and its excursion go to `visit`. A pass that
/// returns below `bsf` has visited every index of `order`, so when
/// `order` is a permutation, `visit` has seen the whole per-index
/// contribution vector that [`suffix_sums_into`] turns into the
/// cumulative bound. `c` must return finite values, and every index of
/// `order` must be below `env.len()` (otherwise this panics).
#[inline(always)]
pub fn lb_keogh_reordered_by(
    env: &Envelope,
    order: &[usize],
    bsf: f64,
    c: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize, f64),
) -> f64 {
    let mut acc = 0.0;
    for &i in order {
        let e = excursion(c(i), env.upper[i], env.lower[i]);
        visit(i, e);
        acc += e;
        if acc >= bsf {
            return acc;
        }
    }
    acc
}

/// LB_Keogh that additionally writes each index's contribution into
/// `contrib` (used to build the cumulative bound for early-abandoning DTW).
pub fn lb_keogh_with_contrib(c: &[f64], env: &Envelope, contrib: &mut Vec<f64>) -> Result<f64> {
    check_len(c, env)?;
    contrib.clear();
    contrib.reserve(c.len());
    let mut acc = 0.0;
    for (i, &ci) in c.iter().enumerate() {
        let e = excursion(ci, env.upper[i], env.lower[i]);
        contrib.push(e);
        acc += e;
    }
    Ok(acc)
}

/// Turns per-index contributions into the suffix-sum cumulative bound:
/// `cb[i] = contrib[i] + contrib[i+1] + … + contrib[n-1]`.
///
/// `cb[i]` lower-bounds the cost any banded alignment must still pay for
/// the suffix starting at `i`, which is exactly what
/// [`cdtw_distance_ea`](crate::dtw::early_abandon::cdtw_distance_ea)
/// consumes.
pub fn suffix_sums(contrib: &[f64]) -> Vec<f64> {
    let mut cb = Vec::new();
    suffix_sums_into(contrib, &mut cb);
    cb
}

/// [`suffix_sums`] into a caller-owned buffer — the allocation-free form
/// scan loops use, reusing `cb`'s capacity across candidates.
pub fn suffix_sums_into(contrib: &[f64], cb: &mut Vec<f64>) {
    cb.clear();
    cb.resize(contrib.len(), 0.0);
    let mut acc = 0.0;
    for i in (0..contrib.len()).rev() {
        acc += contrib[i];
        cb[i] = acc;
    }
}

/// Index order for reordered early abandoning: indices sorted by descending
/// magnitude of the (ideally z-normalized) query, ties in index order.
///
/// Magnitudes compare by [`f64::total_cmp`], so any input, NaN included,
/// yields a permutation of `0..q.len()`. On finite input every `|q[i]|`
/// is a non-NaN value ≥ +0.0, where `total_cmp` agrees with the numeric
/// order.
pub fn sort_indices_by_magnitude(q: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..q.len()).collect();
    order.sort_by(|&a, &b| q[b].abs().total_cmp(&q[a].abs()));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SquaredCost;
    use crate::dtw::banded::cdtw_distance;

    fn rand_series(seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn lower_bounds_cdtw_for_matching_band() {
        for seed in 0..20 {
            let q = rand_series(seed, 50);
            let c = rand_series(seed + 500, 50);
            for band in [0usize, 2, 5, 15] {
                let env = Envelope::new(&q, band).unwrap();
                let lb = lb_keogh(&c, &env).unwrap();
                // The band window is exact for equal lengths, so the bound
                // must hold against the same band radius.
                let d = cdtw_distance(&q, &c, band, SquaredCost).unwrap();
                assert!(
                    lb <= d + 1e-9,
                    "seed {seed} band {band}: LB {lb} > cDTW {d}"
                );
            }
        }
    }

    #[test]
    fn zero_when_candidate_inside_envelope() {
        let q = [0.0, 1.0, 2.0, 1.0, 0.0];
        let env = Envelope::new(&q, 2).unwrap();
        // The query itself is always inside its own envelope.
        assert_eq!(lb_keogh(&q, &env).unwrap(), 0.0);
    }

    #[test]
    fn known_excursion_value() {
        let q = [0.0, 0.0, 0.0];
        let env = Envelope::new(&q, 0).unwrap();
        let c = [2.0, -1.0, 0.0];
        assert_eq!(lb_keogh(&c, &env).unwrap(), 4.0 + 1.0);
    }

    #[test]
    fn early_abandon_partial_is_lower_bound_of_full() {
        let q = rand_series(9, 100);
        let c: Vec<f64> = rand_series(10, 100).iter().map(|v| v + 3.0).collect();
        let env = Envelope::new(&q, 5).unwrap();
        let full = lb_keogh(&c, &env).unwrap();
        let ea = lb_keogh_ea(&c, &env, full * 0.1).unwrap();
        assert!(ea <= full + 1e-12);
        assert!(ea >= full * 0.1); // it abandoned past the threshold
    }

    #[test]
    fn reordered_equals_plain_when_not_abandoned() {
        let q = rand_series(1, 64);
        let c = rand_series(2, 64);
        let env = Envelope::new(&q, 4).unwrap();
        let order = sort_indices_by_magnitude(&q);
        let plain = lb_keogh(&c, &env).unwrap();
        let reord = lb_keogh_reordered(&c, &env, &order, f64::INFINITY).unwrap();
        assert!((plain - reord).abs() < 1e-9);
    }

    #[test]
    fn reordered_abandons_faster_on_average() {
        // With a shifted candidate, big-magnitude indices of the query are
        // where excursions concentrate after z-normalization; here we just
        // verify the mechanism triggers.
        let q: Vec<f64> = (0..50).map(|i| if i == 25 { 10.0 } else { 0.0 }).collect();
        let c: Vec<f64> = (0..50).map(|i| if i == 25 { -10.0 } else { 0.0 }).collect();
        let env = Envelope::new(&q, 1).unwrap();
        let order = sort_indices_by_magnitude(&q);
        // First visited index (25) alone exceeds the threshold.
        let lb = lb_keogh_reordered(&c, &env, &order, 1.0).unwrap();
        assert!(lb >= 1.0);
    }

    #[test]
    fn reordered_pass_records_a_survivors_contributions() {
        let q = rand_series(5, 48);
        let c = rand_series(6, 48);
        let env = Envelope::new(&q, 3).unwrap();
        let order = sort_indices_by_magnitude(&q);
        let mut want = Vec::new();
        lb_keogh_with_contrib(&c, &env, &mut want).unwrap();
        let mut got = vec![f64::NAN; c.len()];
        let lb = lb_keogh_reordered_by(&env, &order, f64::INFINITY, |i| c[i], |i, e| got[i] = e);
        assert_eq!(
            lb.to_bits(),
            lb_keogh_reordered(&c, &env, &order, f64::INFINITY)
                .unwrap()
                .to_bits()
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // An abandoned pass stops at the index that crossed the bound.
        let mut visited = 0;
        let partial = lb_keogh_reordered_by(&env, &order, lb * 0.5, |i| c[i], |_, _| visited += 1);
        assert!(partial >= lb * 0.5 && visited < order.len());
    }

    #[test]
    fn contrib_sums_to_bound_and_suffix_sums_decrease() {
        let q = rand_series(3, 40);
        let c = rand_series(4, 40);
        let env = Envelope::new(&q, 3).unwrap();
        let mut contrib = Vec::new();
        let lb = lb_keogh_with_contrib(&c, &env, &mut contrib).unwrap();
        let total: f64 = contrib.iter().sum();
        assert!((lb - total).abs() < 1e-9);
        let cb = suffix_sums(&contrib);
        assert!((cb[0] - total).abs() < 1e-9);
        for i in 1..cb.len() {
            assert!(cb[i] <= cb[i - 1] + 1e-12);
        }
    }

    #[test]
    fn rejects_length_mismatch() {
        let q = [0.0, 1.0, 2.0];
        let env = Envelope::new(&q, 1).unwrap();
        assert!(lb_keogh(&[0.0, 1.0], &env).is_err());
    }

    #[test]
    fn sort_indices_is_permutation() {
        let q = [0.5, -3.0, 1.0, 0.0];
        let mut order = sort_indices_by_magnitude(&q);
        assert_eq!(order[0], 1);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sort_indices_takes_any_input_and_keeps_the_finite_order() {
        let hostile = [
            1.0,
            f64::NAN,
            f64::INFINITY,
            -2.0,
            f64::NEG_INFINITY,
            -f64::NAN,
            0.0,
        ];
        let mut order = sort_indices_by_magnitude(&hostile);
        order.sort_unstable();
        assert_eq!(order, (0..hostile.len()).collect::<Vec<_>>());

        // Ties, ±0.0 and subnormals: the stable sort under the numeric
        // comparison the bound used before, index by index.
        let q: [f64; 10] = [
            0.0, -1.5, 1.5, -0.0, 2.0, 4.9e-324, -4.9e-324, 0.0, -2.0, 1.5,
        ];
        let mut want: Vec<usize> = (0..q.len()).collect();
        want.sort_by(|&a, &b| q[b].abs().partial_cmp(&q[a].abs()).unwrap());
        assert_eq!(sort_indices_by_magnitude(&q), want);
        assert_eq!(want, vec![4, 8, 1, 2, 9, 5, 6, 0, 3, 7]);
    }
}
