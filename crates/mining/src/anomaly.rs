//! Discord discovery: the most anomalous subsequence of a series.
//!
//! A *discord* is the subsequence whose distance to its nearest
//! non-overlapping neighbor is largest. Brute force is O(n²) distance
//! calls; the early-abandoning inner loop (only available to exact
//! measures — the running theme of the paper) keeps it tractable.
//! Included as an extension used by the power-demand example.

use crate::par::{par_fold_argmin, ParConfig, CONTINUOUS};
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::early_abandon::{cdtw_distance_ea, EaOutcome};
use tsdtw_core::error::{Error, Result};
use tsdtw_core::norm::znorm;
use tsdtw_obs::NoMeter;

/// Result of a discord search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Discord {
    /// Start offset of the discord subsequence.
    pub position: usize,
    /// Distance to its nearest non-overlapping neighbor.
    pub nn_distance: f64,
}

/// Finds the top discord of window length `m` under z-normalized
/// `cDTW_band`, with full (non-self-matching) exclusion of overlapping
/// windows: [`top_discord_par`] at one worker, the discord score
/// tightened after every position.
pub fn top_discord(series: &[f64], m: usize, band: usize) -> Result<Discord> {
    top_discord_par(series, m, band, &CONTINUOUS)
}

/// [`top_discord`] on the deterministic parallel executor.
///
/// Discord discovery is an arg*max* (the candidate with the *largest*
/// nearest-neighbor distance wins), so it rides the executor's argmin by
/// negating the score. Candidate positions in a chunk compute their NN
/// distance against the discord score frozen at the chunk boundary (the
/// inner loop's "cannot win anymore" cutoff), and a completed candidate's
/// NN distance never depends on that cutoff — a weaker frozen score only
/// makes losing candidates finish their scans instead of breaking early.
/// The winner and its distance are therefore identical at any
/// `(n_threads, chunk)`; strict comparisons in position order keep the
/// earlier position on exact ties.
pub fn top_discord_par(series: &[f64], m: usize, band: usize, cfg: &ParConfig) -> Result<Discord> {
    let _span = tsdtw_obs::span("anomaly");
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
    let positions: Vec<usize> = (0..n_windows).collect();

    // init = 1.0 negates the `-1.0` floor of "no discord yet", so a
    // candidate only scores once its NN distance strictly exceeds it.
    let winner = par_fold_argmin(
        cfg,
        &positions,
        &mut NoMeter,
        1.0,
        || Ok(()),
        |_, _, &p, frozen, _| {
            let cutoff = -frozen;
            let mut nn = f64::INFINITY;
            for q in 0..n_windows {
                if q.abs_diff(p) < m {
                    continue; // overlapping: trivial match exclusion
                }
                match cdtw_distance_ea(&windows[p], &windows[q], band, nn, None, SquaredCost)? {
                    EaOutcome::Exact(d) => nn = nn.min(d),
                    EaOutcome::Abandoned { .. } => {}
                }
                if nn <= cutoff {
                    break; // cannot be the discord anymore
                }
            }
            Ok(nn)
        },
        |nn: f64| nn.is_finite().then_some(-nn),
    )?;
    let (position, neg_nn) = winner.unwrap_or((0, 1.0));
    Ok(Discord {
        position,
        nn_distance: -neg_nn,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_core::dtw::banded::cdtw_distance;
    use tsdtw_datasets::random_walk::random_walks;

    /// A periodic signal with one corrupted cycle.
    fn signal_with_anomaly(n_cycles: usize, cycle: usize, bad: usize) -> Vec<f64> {
        let mut s = Vec::with_capacity(n_cycles * cycle);
        for c in 0..n_cycles {
            for i in 0..cycle {
                let x = i as f64 / cycle as f64 * std::f64::consts::TAU;
                let v = if c == bad {
                    // Anomalous cycle: different shape entirely.
                    (3.0 * x).sin() * 0.3 + 1.5
                } else {
                    x.sin()
                };
                s.push(v);
            }
        }
        s
    }

    #[test]
    fn finds_the_corrupted_cycle() {
        let cycle = 32;
        let s = signal_with_anomaly(8, cycle, 5);
        let d = top_discord(&s, cycle, 3).unwrap();
        let found_cycle = (d.position + cycle / 2) / cycle;
        assert_eq!(
            found_cycle, 5,
            "discord at {} (cycle {found_cycle})",
            d.position
        );
        assert!(d.nn_distance > 0.0);
    }

    #[test]
    fn uniform_signal_has_low_discord_score() {
        let cycle = 24;
        let healthy = signal_with_anomaly(6, cycle, usize::MAX); // no bad cycle
        let anomalous = signal_with_anomaly(6, cycle, 2);
        let dh = top_discord(&healthy, cycle, 2).unwrap();
        let da = top_discord(&anomalous, cycle, 2).unwrap();
        assert!(
            da.nn_distance > dh.nn_distance * 3.0,
            "anomaly should stand out: {} vs {}",
            da.nn_distance,
            dh.nn_distance
        );
    }

    #[test]
    fn rejects_too_short_series() {
        assert!(top_discord(&[0.0; 10], 8, 1).is_err());
        assert!(top_discord(&[0.0; 10], 0, 1).is_err());
        let cfg = ParConfig::new(2).unwrap();
        assert!(top_discord_par(&[0.0; 10], 8, 1, &cfg).is_err());
        assert!(top_discord_par(&[0.0; 10], 0, 1, &cfg).is_err());
    }

    /// Brute force: for each position the minimum full `cDTW` over every
    /// non-overlapping z-normalized window, then the first strict maximum.
    fn brute_force_discord(series: &[f64], m: usize, band: usize) -> Discord {
        let windows: Vec<Vec<f64>> = (0..=series.len() - m)
            .map(|p| znorm(&series[p..p + m]).unwrap())
            .collect();
        let mut best = Discord {
            position: 0,
            nn_distance: -1.0,
        };
        for p in 0..windows.len() {
            let nn = (0..windows.len())
                .filter(|q| q.abs_diff(p) >= m)
                .map(|q| cdtw_distance(&windows[p], &windows[q], band, SquaredCost).unwrap())
                .fold(f64::INFINITY, f64::min);
            if nn > best.nn_distance {
                best = Discord {
                    position: p,
                    nn_distance: nn,
                };
            }
        }
        best
    }

    #[test]
    fn par_discord_is_bitwise_brute_force_at_any_thread_count() {
        // Random walks: overlapping windows are near neighbors, so a scan
        // that let them count as neighbors would score every position low.
        let cycle = 28;
        let periodic = signal_with_anomaly(7, cycle, 4);
        let walk = random_walks(1, 220, 5).unwrap().remove(0);
        for (name, s, m) in [("walk", &walk, 16), ("periodic", &periodic, cycle)] {
            let expect = brute_force_discord(s, m, 3);
            assert_eq!(top_discord(s, m, 3).unwrap(), expect, "{name}");
            for threads in [1usize, 2, 3, 7] {
                for chunk in [1usize, 8] {
                    let cfg = ParConfig::with_chunk(threads, chunk).unwrap();
                    let got = top_discord_par(s, m, 3, &cfg).unwrap();
                    let at = format!("{name}, {threads} threads, chunk {chunk}");
                    assert_eq!(got.position, expect.position, "{at}");
                    assert_eq!(
                        got.nn_distance.to_bits(),
                        expect.nn_distance.to_bits(),
                        "{at}"
                    );
                }
            }
        }
    }
}
