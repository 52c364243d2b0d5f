//! Property-based tests over the mining layer: exactness of accelerated
//! paths, clustering invariants, and search equivalences on randomized
//! inputs.

use proptest::prelude::*;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::cdtw_distance;
use tsdtw_core::norm::znorm;
use tsdtw_mining::cluster::{agglomerative, Linkage};
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::knn::{classify_knn, knn_brute_force, nn_brute_force, nn_cascade, DistanceSpec};
use tsdtw_mining::pairwise::{pairwise_matrix, DistanceMatrix};
use tsdtw_mining::search::{distance_profile, subsequence_search, subsequence_search_brute};

fn labeled_pool(count: usize, len: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<usize>)> {
    (
        prop::collection::vec(
            prop::collection::vec(-10.0f64..10.0, len..=len),
            count..=count,
        ),
        prop::collection::vec(0usize..3, count..=count),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The cascade's 1-NN is exactly brute force's, on arbitrary data.
    #[test]
    fn cascade_equals_brute_force((series, labels) in labeled_pool(12, 24), band in 0usize..6) {
        let view = LabeledView::new(&series, &labels).unwrap();
        for (q, s) in series.iter().enumerate().take(3) {
            let bf = nn_brute_force(&view, s, DistanceSpec::CdtwBand(band), q).unwrap();
            let fast = nn_cascade(&view, s, band, q).unwrap();
            prop_assert_eq!(bf.index, fast.index);
            prop_assert!((bf.distance - fast.distance).abs() < 1e-9);
        }
    }

    /// k-NN distances are sorted and k=1 equals 1-NN.
    #[test]
    fn knn_consistency((series, labels) in labeled_pool(10, 16), k in 1usize..5) {
        let view = LabeledView::new(&series, &labels).unwrap();
        let nns = knn_brute_force(&view, &series[0], DistanceSpec::Euclidean, k, 0).unwrap();
        prop_assert_eq!(nns.len(), k.min(9));
        for w in nns.windows(2) {
            prop_assert!(w[0].distance <= w[1].distance);
        }
        let nn = nn_brute_force(&view, &series[0], DistanceSpec::Euclidean, 0).unwrap();
        prop_assert_eq!(nns[0].index, nn.index);
        // classify_knn never fails on valid input.
        let _ = classify_knn(&view, &series[0], DistanceSpec::Euclidean, k).unwrap();
    }

    /// Pairwise matrices are symmetric with zero diagonals regardless of
    /// thread count.
    #[test]
    fn pairwise_symmetry((series, _) in labeled_pool(8, 12), threads in 1usize..5) {
        let m = pairwise_matrix(&series, threads, |a, b| {
            tsdtw_core::distance::sq_euclidean(a, b)
        })
        .unwrap();
        for i in 0..series.len() {
            prop_assert_eq!(m.get(i, i), 0.0);
            for j in 0..series.len() {
                prop_assert_eq!(m.get(i, j), m.get(j, i));
            }
        }
    }

    /// Hierarchical clustering produces n-1 merges, a valid cut at every
    /// k, and single-linkage heights that are genuine pairwise distances.
    #[test]
    fn dendrogram_structure(n in 2usize..10, seed in 0u64..50) {
        // Deterministic pseudo-random symmetric matrix.
        let mut vals = Vec::new();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        for i in 0..n {
            for j in (i + 1)..n {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let d = ((state >> 33) as f64 / (1u64 << 31) as f64) + 0.01;
                vals.push((i, j, d));
            }
        }
        let m = DistanceMatrix::from_triples(n, &vals);
        let tree = agglomerative(&m, Linkage::Single).unwrap();
        prop_assert_eq!(tree.merges.len(), n - 1);
        for k in 1..=n {
            let labels = tree.cut(k).unwrap();
            let mut uniq = labels.clone();
            uniq.sort_unstable();
            uniq.dedup();
            prop_assert_eq!(uniq.len(), k);
        }
        // Single-linkage first merge height is the global minimum distance.
        let min_d = vals.iter().map(|v| v.2).fold(f64::INFINITY, f64::min);
        prop_assert!((tree.merges[0].height - min_d).abs() < 1e-12);
    }

    /// The accelerated subsequence search finds the first strict minimum
    /// of the distance profile, which never prunes and normalizes its
    /// windows by the same routine, so position and distance bits agree
    /// exactly; and it agrees with the brute-force scan (every window
    /// z-normalized on its own) within 1e-9. Query lengths run 2–40
    /// (LB_Kim's first/last fallback covers those below 6), bands
    /// 0..=m+2, and four haystacks in five carry one spike of up to
    /// 1e150 (squares still finite).
    #[test]
    fn search_equivalence(
        seed in 0u64..1000,
        m in 2usize..=40,
        band_pick in 0usize..1000,
        spike in 0usize..5,
    ) {
        let band = band_pick % (m + 3);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut rnd = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut hay: Vec<f64> = (0..200).map(|_| rnd() * 2.0).collect();
        if spike > 0 {
            let at = ((rnd() + 1.0) * 100.0) as usize % hay.len();
            hay[at] = [1e3, 1e8, 1e10, 1e150][spike - 1] * rnd().signum();
        }
        let query: Vec<f64> = (0..m).map(|_| rnd()).collect();
        let fast = subsequence_search(&hay, &query, band).unwrap();

        let profile = distance_profile(&hay, &query, band).unwrap();
        let (argmin, min) = profile
            .iter()
            .enumerate()
            .fold((0, f64::INFINITY), |acc, (i, &v)| if v < acc.1 { (i, v) } else { acc });
        prop_assert_eq!(fast.position, argmin, "m {} band {} spike {}", m, band, spike);
        prop_assert_eq!(fast.distance.to_bits(), min.to_bits());

        // Every 2-point window z-normalizes to ±(1, −1), so those tie
        // exactly and brute force may pick another of the tied positions:
        // there, compare its distance at the search's position instead.
        let brute = subsequence_search_brute(&hay, &query, band).unwrap();
        if m > 2 {
            prop_assert_eq!(fast.position, brute.position);
        }
        let at_fast = cdtw_distance(
            &znorm(&query).unwrap(),
            &znorm(&hay[fast.position..fast.position + m]).unwrap(),
            band,
            SquaredCost,
        )
        .unwrap();
        let tol = 1e-9;
        prop_assert!((fast.distance - brute.distance).abs() <= tol);
        prop_assert!((at_fast - brute.distance).abs() <= tol);
    }
}
