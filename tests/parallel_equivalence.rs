//! Differential test layer for the deterministic parallel executor.
//!
//! Each mining task exists once, on the executor; its serial name runs it
//! at one worker. Every task must give **bitwise** the same answer as an
//! independent reference (brute force, or a plain loop of per-query
//! scans) and the same merged work counters at every thread count. These
//! tests run randomized suites through the public facade and compare:
//!
//! * results: `to_bits()` on distances, exact equality on indices/labels;
//! * counters: full [`WorkMeter`] equality (`PartialEq` covers every
//!   counter, the latency histograms, and the order-sensitive FastDTW
//!   level list).
//!
//! The thread counts exercised default to `{1, 2, 3, 7}`, which is how
//! `cargo test --workspace` runs the suite; `TSDTW_TEST_THREADS=N` pins a
//! single count (CI's release step pins 4).
//!
//! Two equality regimes apply (see `tsdtw_mining::par`):
//!
//! * independent-item workloads (`par_map`: split evaluation, pairwise
//!   matrices) match the plain serial loop exactly at any
//!   `(n_threads, chunk)`;
//! * best-so-far-pruned scans (`par_fold_argmin`: the 1-NN cascade,
//!   subsequence search) find the brute-force winner at any chunk; at
//!   `chunk = 1` their counters are those of the serial names (the
//!   continuous best-so-far), and for any fixed chunk they are identical
//!   at every thread count.

mod common;

use common::adversarial;
use proptest::prelude::*;
use proptest::strategy::Just;
use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::banded::cdtw_distance_metered;
use tsdtw::mining::knn::{
    evaluate_split_par, nn_brute_force, nn_brute_force_metered, nn_cascade_metered, nn_cascade_par,
};
use tsdtw::mining::search::{
    distance_profile, subsequence_search_brute, subsequence_search_metered, subsequence_search_par,
};
use tsdtw::mining::{
    evaluate_split, pairwise_matrix, pairwise_matrix_par, DistanceSpec, LabeledView, ParConfig,
};
use tsdtw_obs::{FunnelStage, WorkMeter};

/// Thread counts to test. `TSDTW_TEST_THREADS=N` pins one count (CI's
/// release step pins 4); unset, a spread of small counts including a
/// prime that never divides the chunk evenly.
fn thread_counts() -> Vec<usize> {
    match std::env::var("TSDTW_TEST_THREADS") {
        Ok(v) => {
            let n: usize = v
                .parse()
                .expect("TSDTW_TEST_THREADS must be a positive integer");
            assert!(n >= 1, "TSDTW_TEST_THREADS must be at least 1");
            vec![n]
        }
        Err(_) => vec![1, 2, 3, 7],
    }
}

/// A labeled suite of equal-length series (what 1-NN workloads consume).
fn labeled_suite(
    max_series: usize,
    len: usize,
) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>)> {
    prop::collection::vec(
        prop::collection::vec(-10.0f64..10.0, len..=len),
        3..max_series,
    )
    .prop_flat_map(|series| {
        let n = series.len();
        (Just(series), prop::collection::vec(0usize..3, n..=n))
    })
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// 1-NN cascade, chunk = 1: the winner is the brute-force scan's,
    /// index and distance bits, and *every* counter equals the serial
    /// name's (the continuous best-so-far) at every thread count.
    #[test]
    fn cascade_chunk_one_is_bitwise_serial(
        (series, labels) in labeled_suite(10, 48),
        query in prop::collection::vec(-10.0f64..10.0, 48..=48),
        band in 0usize..5,
    ) {
        let view = LabeledView::new(&series, &labels).unwrap();
        let brute = nn_brute_force(&view, &query, DistanceSpec::CdtwBand(band), usize::MAX).unwrap();
        let mut serial_meter = WorkMeter::new();
        nn_cascade_metered(&view, &query, band, usize::MAX, &mut serial_meter).unwrap();
        for n in thread_counts() {
            let cfg = ParConfig::with_chunk(n, 1).unwrap();
            let mut par_meter = WorkMeter::new();
            let par = nn_cascade_par(&view, &query, band, usize::MAX, &cfg, &mut par_meter).unwrap();
            prop_assert_eq!(par.index, brute.index, "n_threads={}", n);
            prop_assert_eq!(par.label, brute.label, "n_threads={}", n);
            prop_assert_eq!(bits(par.distance), bits(brute.distance), "n_threads={}", n);
            prop_assert_eq!(&par_meter, &serial_meter, "n_threads={}", n);
        }
    }

    /// 1-NN cascade, fixed chunk: winners are bitwise identical to the
    /// serial scan at *any* chunk, and the counters are identical across
    /// every thread count (they may differ from chunk = 1 — the frozen
    /// bound prunes less — but never across n_threads).
    #[test]
    fn cascade_counters_are_thread_count_invariant(
        (series, labels) in labeled_suite(12, 40),
        query in prop::collection::vec(-10.0f64..10.0, 40..=40),
        band in 0usize..4,
        chunk in 1usize..6,
    ) {
        let view = LabeledView::new(&series, &labels).unwrap();
        let mut serial_meter = WorkMeter::new();
        let serial = nn_cascade_metered(&view, &query, band, usize::MAX, &mut serial_meter).unwrap();
        let cfg1 = ParConfig::with_chunk(1, chunk).unwrap();
        let mut base_meter = WorkMeter::new();
        let base = nn_cascade_par(&view, &query, band, usize::MAX, &cfg1, &mut base_meter).unwrap();
        prop_assert_eq!(base.index, serial.index);
        prop_assert_eq!(bits(base.distance), bits(serial.distance));
        for n in thread_counts() {
            let cfg = ParConfig::with_chunk(n, chunk).unwrap();
            let mut par_meter = WorkMeter::new();
            let par = nn_cascade_par(&view, &query, band, usize::MAX, &cfg, &mut par_meter).unwrap();
            prop_assert_eq!(par.index, serial.index, "n_threads={} chunk={}", n, chunk);
            prop_assert_eq!(bits(par.distance), bits(serial.distance), "n_threads={}", n);
            prop_assert_eq!(&par_meter, &base_meter, "n_threads={} chunk={}", n, chunk);
        }
    }

    /// The prune funnel obeys its conservation laws at every thread
    /// count and chunk: every candidate enters stage one, dispositions
    /// telescope (a stage's survivors are exactly the next stage's
    /// entrants), and pruned-anywhere plus DTW-survived accounts for
    /// every candidate exactly once.
    #[test]
    fn cascade_funnel_obeys_conservation_laws(
        (series, labels) in labeled_suite(12, 40),
        query in prop::collection::vec(-10.0f64..10.0, 40..=40),
        band in 0usize..4,
        chunk in 1usize..6,
    ) {
        let view = LabeledView::new(&series, &labels).unwrap();
        for n in thread_counts() {
            let cfg = ParConfig::with_chunk(n, chunk).unwrap();
            let mut meter = WorkMeter::new();
            nn_cascade_par(&view, &query, band, usize::MAX, &cfg, &mut meter).unwrap();
            let f = &meter.funnel;
            prop_assert_eq!(f.candidates(), series.len() as u64, "n_threads={}", n);
            prop_assert_eq!(
                f.stage(FunnelStage::Kim).entered, f.candidates(),
                "every candidate must enter LB_Kim (n_threads={})", n
            );
            for w in FunnelStage::ALL.windows(2) {
                prop_assert_eq!(
                    f.stage(w[0]).survived(), f.stage(w[1]).entered,
                    "{} survivors must telescope into {} entrants (n_threads={})",
                    w[0].name(), w[1].name(), n
                );
            }
            let pruned_total: u64 =
                FunnelStage::ALL.iter().map(|&s| f.stage(s).pruned).sum();
            prop_assert_eq!(
                pruned_total + f.stage(FunnelStage::Dtw).survived(), f.candidates(),
                "dispositions must partition the candidates (n_threads={})", n
            );
        }
    }

    /// The funnel rendered by EXPLAIN — the JSON report and the table —
    /// is bitwise identical between serial and every parallel thread
    /// count at a fixed chunk, including the deliberately adversarial
    /// counts 2, 4 and 7.
    #[test]
    fn cascade_funnel_render_is_thread_count_invariant(
        (series, labels) in labeled_suite(12, 40),
        query in prop::collection::vec(-10.0f64..10.0, 40..=40),
        band in 0usize..4,
    ) {
        let view = LabeledView::new(&series, &labels).unwrap();
        let mut base_meter = WorkMeter::new();
        let cfg1 = ParConfig::new(1).unwrap();
        nn_cascade_par(&view, &query, band, usize::MAX, &cfg1, &mut base_meter).unwrap();
        let base_json = base_meter.funnel.report().to_string_compact();
        let base_table = base_meter.funnel.table();
        for n in [2usize, 4, 7] {
            let cfg = ParConfig::new(n).unwrap();
            let mut par_meter = WorkMeter::new();
            nn_cascade_par(&view, &query, band, usize::MAX, &cfg, &mut par_meter).unwrap();
            prop_assert_eq!(&par_meter.funnel, &base_meter.funnel, "n_threads={}", n);
            prop_assert_eq!(
                par_meter.funnel.report().to_string_compact(), base_json.clone(),
                "funnel JSON must be bitwise serial at n_threads={}", n
            );
            prop_assert_eq!(
                par_meter.funnel.table(), base_table.clone(),
                "funnel table must be bitwise serial at n_threads={}", n
            );
        }
    }

    /// Brute-force 1-NN across queries (`evaluate_split_par`, the
    /// `tsdtw classify` core) is an independent-item workload: the error
    /// rate and counters equal a plain loop of per-query scans at any
    /// thread count, on ordinary and on adversarial series (±1e155,
    /// subnormals, ±0.0), through the batched lanes the equal-length scan
    /// takes.
    #[test]
    fn knn_brute_force_is_bitwise_serial(
        (series, labels) in labeled_suite(10, 32),
        queries in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 32..=32), 2..6),
        adv_series in prop::collection::vec(adversarial(32..33), 3..10),
        adv_queries in prop::collection::vec(adversarial(32..33), 2..6),
        band in 0usize..4,
    ) {
        let adv_labels: Vec<usize> = (0..adv_series.len()).map(|i| i % 3).collect();
        let spec = DistanceSpec::CdtwBand(band);
        for (series, labels, queries) in [
            (&series, &labels, &queries),
            (&adv_series, &adv_labels, &adv_queries),
        ] {
            let train = LabeledView::new(series, labels).unwrap();
            let truth: Vec<usize> = (0..queries.len()).map(|q| q % 3).collect();
            let test = LabeledView::new(queries, &truth).unwrap();
            let mut serial_meter = WorkMeter::new();
            let mut misses = 0usize;
            for (q, &t) in queries.iter().zip(&truth) {
                let nn = nn_brute_force_metered(&train, q, spec, usize::MAX, &mut serial_meter)
                    .unwrap();
                misses += usize::from(nn.label != t);
            }
            let serial = misses as f64 / queries.len() as f64;
            prop_assert!(serial_meter.batch_groups > 0, "the scan takes the batched lanes");
            for n in thread_counts() {
                // One query per chunk, so every worker runs scans.
                let cfg = ParConfig::with_chunk(n, 1).unwrap();
                let mut par_meter = WorkMeter::new();
                let par = evaluate_split_par(&train, &test, spec, &cfg, &mut par_meter).unwrap();
                prop_assert_eq!(bits(par), bits(serial), "n_threads={}", n);
                prop_assert_eq!(&par_meter, &serial_meter, "n_threads={}", n);
            }
        }
    }

    /// Subsequence search, chunk = 1: the position is the brute-force
    /// scan's, the distance bits are the unpruned distance profile's
    /// minimum, and the pruning stats and counters equal the serial
    /// name's (the continuous best-so-far) at every thread count.
    ///
    /// The brute-force scan z-normalizes each window directly, so its
    /// distance may differ from the search's rolling normalization in the
    /// last bit; the profile shares the search's windows and prunes
    /// nothing.
    #[test]
    fn subsequence_search_chunk_one_is_bitwise_serial(
        haystack in prop::collection::vec(-10.0f64..10.0, 80..200),
        query in prop::collection::vec(-10.0f64..10.0, 16..=16),
        band in 0usize..4,
    ) {
        let brute = subsequence_search_brute(&haystack, &query, band).unwrap();
        let (lowest, lowest_d) = distance_profile(&haystack, &query, band)
            .unwrap()
            .into_iter()
            .enumerate()
            .fold((0, f64::INFINITY), |acc, (p, d)| if d < acc.1 { (p, d) } else { acc });
        prop_assert_eq!(lowest, brute.position);
        let mut serial_meter = WorkMeter::new();
        let serial =
            subsequence_search_metered(&haystack, &query, band, &mut serial_meter).unwrap();
        for n in thread_counts() {
            let cfg = ParConfig::with_chunk(n, 1).unwrap();
            let mut par_meter = WorkMeter::new();
            let par = subsequence_search_par(&haystack, &query, band, &cfg, &mut par_meter).unwrap();
            prop_assert_eq!(par.position, brute.position, "n_threads={}", n);
            prop_assert_eq!(bits(par.distance), bits(lowest_d), "n_threads={}", n);
            prop_assert_eq!(par.stats, serial.stats, "n_threads={}", n);
            prop_assert_eq!(&par_meter, &serial_meter, "n_threads={}", n);
        }
    }

    /// Subsequence search, fixed chunk: the winner is bitwise serial at
    /// any chunk, and stats/counters never vary with the thread count.
    #[test]
    fn subsequence_search_is_thread_count_invariant(
        haystack in prop::collection::vec(-10.0f64..10.0, 80..200),
        query in prop::collection::vec(-10.0f64..10.0, 16..=16),
        band in 0usize..4,
        chunk in 1usize..40,
    ) {
        let mut serial_meter = WorkMeter::new();
        let serial =
            subsequence_search_metered(&haystack, &query, band, &mut serial_meter).unwrap();
        let cfg1 = ParConfig::with_chunk(1, chunk).unwrap();
        let mut base_meter = WorkMeter::new();
        let base = subsequence_search_par(&haystack, &query, band, &cfg1, &mut base_meter).unwrap();
        prop_assert_eq!(base.position, serial.position);
        prop_assert_eq!(bits(base.distance), bits(serial.distance));
        for n in thread_counts() {
            let cfg = ParConfig::with_chunk(n, chunk).unwrap();
            let mut par_meter = WorkMeter::new();
            let par = subsequence_search_par(&haystack, &query, band, &cfg, &mut par_meter).unwrap();
            prop_assert_eq!(par.position, serial.position, "n_threads={} chunk={}", n, chunk);
            prop_assert_eq!(bits(par.distance), bits(serial.distance), "n_threads={}", n);
            prop_assert_eq!(par.stats, base.stats, "n_threads={} chunk={}", n, chunk);
            prop_assert_eq!(&par_meter, &base_meter, "n_threads={} chunk={}", n, chunk);
        }
    }

    /// Pairwise distance matrices: every entry and every counter equals
    /// the single-threaded run at any thread count, on ordinary and on
    /// adversarial series.
    #[test]
    fn pairwise_matrix_is_bitwise_serial(
        (series, _) in labeled_suite(9, 24),
        adv_series in prop::collection::vec(adversarial(24..25), 3..9),
        band in 0usize..4,
    ) {
        let dist = |a: &[f64], b: &[f64], m: &mut WorkMeter| {
            cdtw_distance_metered(a, b, band, SquaredCost, m)
        };
        for series in [&series, &adv_series] {
            let cfg1 = ParConfig::new(1).unwrap();
            let mut serial_meter = WorkMeter::new();
            let serial = pairwise_matrix_par(series, &cfg1, &mut serial_meter, dist).unwrap();
            // The unmetered convenience wrapper agrees with the metered path.
            let plain = pairwise_matrix(series, 1, |a, b| {
                tsdtw::core::dtw::banded::cdtw_distance(a, b, band, SquaredCost)
            })
            .unwrap();
            prop_assert_eq!(&plain, &serial);
            for n in thread_counts() {
                let cfg = ParConfig::new(n).unwrap();
                let mut par_meter = WorkMeter::new();
                let par = pairwise_matrix_par(series, &cfg, &mut par_meter, dist).unwrap();
                prop_assert_eq!(&par, &serial, "n_threads={}", n);
                prop_assert_eq!(&par_meter, &serial_meter, "n_threads={}", n);
            }
        }
    }

    /// End-to-end 1-NN split evaluation (the `tsdtw classify` core):
    /// the error rate and the merged counters match plain serial.
    #[test]
    fn evaluate_split_is_bitwise_serial(
        (train_series, train_labels) in labeled_suite(8, 32),
        (test_series, test_labels) in labeled_suite(6, 32),
        band in 0usize..4,
    ) {
        let train = LabeledView::new(&train_series, &train_labels).unwrap();
        let test = LabeledView::new(&test_series, &test_labels).unwrap();
        let spec = DistanceSpec::CdtwBand(band);
        let serial = evaluate_split(&train, &test, spec).unwrap();
        let mut serial_meter = WorkMeter::new();
        let serial_metered =
            evaluate_split_par(&train, &test, spec, &ParConfig::serial(), &mut serial_meter)
                .unwrap();
        prop_assert_eq!(bits(serial_metered), bits(serial));
        for n in thread_counts() {
            let cfg = ParConfig::new(n).unwrap();
            let mut par_meter = WorkMeter::new();
            let par = evaluate_split_par(&train, &test, spec, &cfg, &mut par_meter).unwrap();
            prop_assert_eq!(bits(par), bits(serial), "n_threads={}", n);
            prop_assert_eq!(&par_meter, &serial_meter, "n_threads={}", n);
        }
    }
}
