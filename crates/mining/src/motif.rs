//! Motif discovery: the most similar pair of non-overlapping subsequences
//! within one series.
//!
//! The dual of discord discovery ([`anomaly`](crate::anomaly)): instead of
//! the subsequence farthest from everything, find the two windows closest
//! to each other. Brute force is O(n²) distance calls; the inner loop
//! early-abandons against the best-so-far pair — once more, an
//! acceleration only the exact measure admits.

use crate::par::{par_fold_argmin, ParConfig, CONTINUOUS};
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::early_abandon::{cdtw_distance_ea, EaOutcome};
use tsdtw_core::error::{Error, Result};
use tsdtw_core::norm::znorm;
use tsdtw_obs::NoMeter;

/// The best-matching non-overlapping window pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Motif {
    /// Start of the first window.
    pub first: usize,
    /// Start of the second window (`second − first ≥ m`).
    pub second: usize,
    /// Their z-normalized `cDTW_band` distance.
    pub distance: f64,
}

/// Finds the top motif of window length `m` under z-normalized
/// `cDTW_band`, requiring the two windows not to overlap:
/// [`top_motif_par`] at one worker, the best distance tightened after
/// every row.
pub fn top_motif(series: &[f64], m: usize, band: usize) -> Result<Motif> {
    top_motif_par(series, m, band, &CONTINUOUS)
}

/// [`top_motif`] on the deterministic parallel executor.
///
/// The O(n²) pair scan is parallelized by *rows* (each row `i` owns every
/// pair `(i, j)` with `j ≥ i + m`): rows in a chunk run against the best
/// distance frozen at the chunk boundary, each keeping a row-local
/// best-so-far for its own early abandoning, and the global bound
/// advances at the merge in row order with strict `<`. Completed `cDTW`
/// values never depend on the abandoning bound, so the winning pair and
/// its distance are identical at any `(n_threads, chunk)` — a weaker
/// frozen bound only makes some losing pairs complete instead of
/// abandon. Ties keep the first pair in row-major order.
pub fn top_motif_par(series: &[f64], m: usize, band: usize, cfg: &ParConfig) -> Result<Motif> {
    let _span = tsdtw_obs::span("motif");
    if m == 0 {
        return Err(Error::EmptyInput { which: "m" });
    }
    if series.len() < 2 * m {
        return Err(Error::InvalidParameter {
            name: "series",
            reason: format!(
                "need at least two non-overlapping windows: len {} < 2×{m}",
                series.len()
            ),
        });
    }
    let n_windows = series.len() - m + 1;
    let windows: Vec<Vec<f64>> = (0..n_windows)
        .map(|p| znorm(&series[p..p + m]))
        .collect::<Result<_>>()?;
    let rows: Vec<usize> = (0..n_windows).collect();

    let mut best = Motif {
        first: 0,
        second: m,
        distance: f64::INFINITY,
    };
    par_fold_argmin(
        cfg,
        &rows,
        &mut NoMeter,
        f64::INFINITY,
        || Ok(()),
        |_, _, &i, frozen, _| {
            let mut row_best: Option<Motif> = None;
            let mut bsf = frozen;
            for j in (i + m)..n_windows {
                match cdtw_distance_ea(&windows[i], &windows[j], band, bsf, None, SquaredCost)? {
                    EaOutcome::Exact(d) => {
                        if d < bsf {
                            bsf = d;
                            row_best = Some(Motif {
                                first: i,
                                second: j,
                                distance: d,
                            });
                        }
                    }
                    EaOutcome::Abandoned { .. } => {}
                }
            }
            Ok(row_best)
        },
        |row: Option<Motif>| {
            // The fold's own rule, so `best` is the row it crowns.
            let row = row?;
            if row.distance < best.distance {
                best = row;
            }
            Some(row.distance)
        },
    )?;
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_core::dtw::banded::cdtw_distance;
    use tsdtw_datasets::random_walk::random_walks;

    /// Noise with two planted copies of the same pattern.
    fn with_planted_pair(n: usize, m: usize, at1: usize, at2: usize) -> Vec<f64> {
        let mut state = 1234u64;
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut s: Vec<f64> = (0..n).map(|_| rnd() * 3.0).collect();
        let pattern: Vec<f64> = (0..m).map(|i| (i as f64 * 0.5).sin() * 2.0).collect();
        for (k, &p) in pattern.iter().enumerate() {
            s[at1 + k] = p;
            s[at2 + k] = p * 1.5 - 0.3; // affine copy: z-norm recovers it
        }
        s
    }

    #[test]
    fn finds_the_planted_pair() {
        let m = 24;
        let s = with_planted_pair(400, m, 60, 290);
        let motif = top_motif(&s, m, 2).unwrap();
        assert!(motif.first.abs_diff(60) <= 2, "{motif:?}");
        assert!(motif.second.abs_diff(290) <= 2, "{motif:?}");
        assert!(motif.distance < 0.5, "{motif:?}");
    }

    #[test]
    fn windows_never_overlap() {
        let s = with_planted_pair(200, 16, 30, 120);
        let motif = top_motif(&s, 16, 2).unwrap();
        assert!(motif.second - motif.first >= 16);
    }

    #[test]
    fn periodic_signal_has_tiny_motif_distance() {
        let s: Vec<f64> = (0..300).map(|i| (i as f64 * 0.21).sin()).collect();
        let motif = top_motif(&s, 30, 3).unwrap();
        assert!(motif.distance < 1e-2, "{motif:?}");
    }

    #[test]
    fn rejects_too_short_series() {
        assert!(top_motif(&[0.0; 10], 8, 1).is_err());
        assert!(top_motif(&[0.0; 10], 0, 1).is_err());
        let cfg = ParConfig::new(2).unwrap();
        assert!(top_motif_par(&[0.0; 10], 8, 1, &cfg).is_err());
        assert!(top_motif_par(&[0.0; 10], 0, 1, &cfg).is_err());
    }

    /// Brute force: full `cDTW` over every non-overlapping pair of
    /// z-normalized windows, the first strict minimum in row-major order.
    fn brute_force_motif(series: &[f64], m: usize, band: usize) -> Motif {
        let windows: Vec<Vec<f64>> = (0..=series.len() - m)
            .map(|p| znorm(&series[p..p + m]).unwrap())
            .collect();
        let mut best = Motif {
            first: 0,
            second: m,
            distance: f64::INFINITY,
        };
        for i in 0..windows.len() {
            for j in (i + m)..windows.len() {
                let d = cdtw_distance(&windows[i], &windows[j], band, SquaredCost).unwrap();
                if d < best.distance {
                    best = Motif {
                        first: i,
                        second: j,
                        distance: d,
                    };
                }
            }
        }
        best
    }

    #[test]
    fn par_motif_is_bitwise_brute_force_at_any_thread_count() {
        // Random walks: overlapping windows are near neighbors, so a scan
        // that let them pair would find a different motif.
        let m = 20;
        for (seed, planted) in [(3u64, None), (4, Some((40, 180)))] {
            let mut s = random_walks(1, 260, seed).unwrap().remove(0);
            if let Some((a, b)) = planted {
                let copy: Vec<f64> = s[a..a + m].iter().map(|v| v * 2.0 - 1.0).collect();
                s[b..b + m].copy_from_slice(&copy);
            }
            let expect = brute_force_motif(&s, m, 2);
            assert_eq!(top_motif(&s, m, 2).unwrap(), expect, "seed {seed}");
            for threads in [1usize, 2, 3, 7] {
                for chunk in [1usize, 8] {
                    let cfg = ParConfig::with_chunk(threads, chunk).unwrap();
                    let got = top_motif_par(&s, m, 2, &cfg).unwrap();
                    let at = format!("seed {seed}, {threads} threads, chunk {chunk}");
                    assert_eq!(
                        (got.first, got.second),
                        (expect.first, expect.second),
                        "{at}"
                    );
                    assert_eq!(got.distance.to_bits(), expect.distance.to_bits(), "{at}");
                }
            }
        }
    }
}
