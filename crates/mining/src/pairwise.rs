//! Parallel all-pairs distance computation.
//!
//! The paper's Fig. 1 and Fig. 4 measure the cumulative time for *all
//! pairwise comparisons* in a dataset (400,960 and 499,500 pairs
//! respectively). This module provides that workload, built on the
//! deterministic executor in [`par`](crate::par). Parallelism is applied
//! identically whichever distance closure is passed, so
//! exact/approximate *ratios* — the thing the paper argues about — are
//! preserved, and the per-pair meter shards merge in pair order, so the
//! work counters are identical at any thread count.

use crate::par::{par_map, ParConfig};
use tsdtw_core::error::{Error, Result};
use tsdtw_obs::{MeterShard, NoMeter};

/// A symmetric distance matrix stored densely.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    fn zeros(n: usize) -> Self {
        DistanceMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between items `i` and `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    fn set_sym(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Builds a matrix directly from `(i, j, d)` triples over `n` items.
    pub fn from_triples(n: usize, triples: &[(usize, usize, f64)]) -> Self {
        let mut m = Self::zeros(n);
        for &(i, j, d) in triples {
            m.set_sym(i, j, d);
        }
        m
    }
}

/// Number of unordered pairs over `n` items: `n·(n−1)/2` — the comparison
/// counts the paper quotes (e.g. "896 × 895 ÷ 2 = 400,960").
pub fn pair_count(n: usize) -> usize {
    n * (n - 1) / 2
}

/// Computes all pairwise distances with `n_threads` workers.
///
/// The distance closure must be pure; it receives `(series[i], series[j])`
/// for every `i < j`. Errors from any pair abort the whole computation,
/// and `n_threads = 0` is rejected as [`ParConfig::new`] rejects it.
pub fn pairwise_matrix<F>(series: &[Vec<f64>], n_threads: usize, dist: F) -> Result<DistanceMatrix>
where
    F: Fn(&[f64], &[f64]) -> Result<f64> + Sync,
{
    let cfg = ParConfig::new(n_threads)?;
    pairwise_matrix_par(series, &cfg, &mut NoMeter, |a, b, _: &mut NoMeter| {
        dist(a, b)
    })
}

/// [`pairwise_matrix`] on an explicit [`ParConfig`], with a metered
/// distance closure: each pair's work lands in a private shard and the
/// shards merge into `meter` in pair order (row-major over `i < j`), so
/// the merged counters are identical at any thread count.
pub fn pairwise_matrix_par<M, F>(
    series: &[Vec<f64>],
    cfg: &ParConfig,
    meter: &mut M,
    dist: F,
) -> Result<DistanceMatrix>
where
    M: MeterShard,
    F: Fn(&[f64], &[f64], &mut M) -> Result<f64> + Sync,
{
    let n = series.len();
    if n == 0 {
        return Err(Error::EmptyInput { which: "series" });
    }
    // Enumerate pairs once, row-major; the executor chunks them so cost
    // stays balanced even though later rows have fewer pairs.
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    let distances = par_map(cfg, &pairs, meter, |_, &(i, j), m| {
        dist(&series[i], &series[j], m)
    })?;
    let mut out = DistanceMatrix::zeros(n);
    for (&(i, j), d) in pairs.iter().zip(distances) {
        out.set_sym(i, j, d);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_core::distance::sq_euclidean;

    fn toy_series(k: usize, n: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|s| (0..n).map(|i| ((s * 7 + i) as f64 * 0.37).sin()).collect())
            .collect()
    }

    #[test]
    fn pair_count_matches_paper_examples() {
        assert_eq!(pair_count(896), 400_960);
        assert_eq!(pair_count(1000), 499_500);
        assert_eq!(pair_count(1), 0);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let s = toy_series(8, 32);
        let m = pairwise_matrix(&s, 3, sq_euclidean).unwrap();
        for i in 0..8 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..8 {
                assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let s = toy_series(10, 20);
        let serial = pairwise_matrix(&s, 1, sq_euclidean).unwrap();
        let parallel = pairwise_matrix(&s, 4, sq_euclidean).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn works_with_dtw_distances() {
        let s = toy_series(5, 24);
        let m = pairwise_matrix(&s, 2, |a, b| tsdtw_core::cdtw(a, b, 10.0)).unwrap();
        let direct = tsdtw_core::cdtw(&s[1], &s[3], 10.0).unwrap();
        assert_eq!(m.get(1, 3), direct);
    }

    #[test]
    fn propagates_distance_errors() {
        let s = vec![vec![0.0, 1.0], vec![1.0, 2.0]];
        let r = pairwise_matrix(&s, 2, |_, _| {
            Err(tsdtw_core::Error::EmptyInput { which: "x" })
        });
        assert!(r.is_err());
    }

    #[test]
    fn rejects_empty_input() {
        let r = pairwise_matrix(&[], 2, sq_euclidean);
        assert!(r.is_err());
    }

    #[test]
    fn rejects_zero_threads() {
        let e = pairwise_matrix(&toy_series(3, 8), 0, sq_euclidean).unwrap_err();
        assert!(e.to_string().contains("n_threads"), "{e}");
    }

    #[test]
    fn singleton_gives_trivial_matrix() {
        let s = toy_series(1, 10);
        let m = pairwise_matrix(&s, 2, sq_euclidean).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn metered_par_counters_are_thread_count_invariant() {
        use tsdtw_obs::WorkMeter;
        let s = toy_series(9, 40);
        let run = |threads: usize| {
            let cfg = ParConfig::with_chunk(threads, 4).unwrap();
            let mut meter = WorkMeter::new();
            let m = pairwise_matrix_par(&s, &cfg, &mut meter, |a, b, mm| {
                tsdtw_core::dtw::banded::cdtw_distance_metered(
                    a,
                    b,
                    3,
                    tsdtw_core::cost::SquaredCost,
                    mm,
                )
            })
            .unwrap();
            (m, meter)
        };
        let (m1, meter1) = run(1);
        assert!(meter1.cells > 0);
        for threads in [2usize, 3, 7] {
            let (m, meter) = run(threads);
            assert_eq!(m, m1, "{threads} threads");
            assert_eq!(meter, meter1, "{threads} threads");
        }
    }

    #[test]
    fn from_triples_builds_symmetric() {
        let m = DistanceMatrix::from_triples(3, &[(0, 1, 2.0), (0, 2, 3.0), (1, 2, 4.0)]);
        assert_eq!(m.get(1, 0), 2.0);
        assert_eq!(m.get(2, 1), 4.0);
    }
}
