//! LB_Yi (Yi, Jagadish & Faloutsos 1998): the oldest of the classic DTW
//! lower bounds.
//!
//! Any warping path aligns every sample of the candidate against *some*
//! sample of the query, so a candidate value above the query's global
//! maximum must pay at least its excursion above that maximum (and
//! symmetrically below the minimum). LB_Yi is looser than LB_Keogh but
//! needs no envelope and is valid for **unconstrained** DTW, making it the
//! only bound in this crate applicable to `cDTW_100` workloads (Case D).

use crate::error::{check_finite, check_nonempty, Result};

use super::keogh::excursion;

/// LB_Yi of candidate `c` against query `q` (squared-cost domain).
///
/// Symmetric usage tip: `max(lb_yi(q, c), lb_yi(c, q))` is also a valid —
/// and tighter — bound, since DTW is symmetric.
pub fn lb_yi(q: &[f64], c: &[f64]) -> Result<f64> {
    check_nonempty("q", q)?;
    check_nonempty("c", c)?;
    check_finite("q", q)?;
    check_finite("c", c)?;
    let _span = tsdtw_obs::span("lb_yi");
    let qmax = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let qmin = q.iter().cloned().fold(f64::INFINITY, f64::min);
    Ok(c.iter().map(|&v| excursion(v, qmax, qmin)).sum())
}

/// The symmetric form: `max(lb_yi(q, c), lb_yi(c, q))`.
pub fn lb_yi_symmetric(q: &[f64], c: &[f64]) -> Result<f64> {
    Ok(lb_yi(q, c)?.max(lb_yi(c, q)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SquaredCost;
    use crate::dtw::full::dtw_distance;

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
    fn never_exceeds_unconstrained_dtw() {
        for seed in 0..30 {
            let q = rand_series(seed, 40);
            let c: Vec<f64> = rand_series(seed + 500, 40)
                .iter()
                .map(|v| v * 2.0)
                .collect();
            let exact = dtw_distance(&q, &c, SquaredCost).unwrap();
            let lb = lb_yi_symmetric(&q, &c).unwrap();
            assert!(lb <= exact + 1e-9, "seed {seed}: {lb} > {exact}");
        }
    }

    #[test]
    fn zero_when_candidate_inside_query_range() {
        let q = [-2.0, 0.0, 2.0];
        let c = [0.1, -1.9, 1.5, 0.0];
        assert_eq!(lb_yi(&q, &c).unwrap(), 0.0);
    }

    #[test]
    fn counts_out_of_range_excursions() {
        let q = [0.0, 1.0];
        let c = [3.0, -1.0, 0.5];
        // (3-1)^2 + (0-(-1))^2 = 4 + 1.
        assert_eq!(lb_yi(&q, &c).unwrap(), 5.0);
    }

    #[test]
    fn symmetric_form_dominates_both_directions() {
        let q = rand_series(1, 30);
        let c: Vec<f64> = rand_series(2, 30).iter().map(|v| v + 0.5).collect();
        let s = lb_yi_symmetric(&q, &c).unwrap();
        assert!(s >= lb_yi(&q, &c).unwrap());
        assert!(s >= lb_yi(&c, &q).unwrap());
    }

    #[test]
    fn supports_unequal_lengths() {
        let q = rand_series(3, 20);
        let c = rand_series(4, 35);
        let exact = dtw_distance(&q, &c, SquaredCost).unwrap();
        assert!(lb_yi_symmetric(&q, &c).unwrap() <= exact + 1e-9);
    }

    #[test]
    fn rejects_empty() {
        assert!(lb_yi(&[], &[0.0]).is_err());
        assert!(lb_yi(&[0.0], &[]).is_err());
    }
}
