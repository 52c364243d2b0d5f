//! Cross-crate integration: end-to-end smoke flows mirroring the paper's
//! experiments at tiny scale — generate → measure → mine — exercising the
//! same code paths as the `repro` harness without its timing budgets.

use tsdtw::core::cost::{Rooted, SquaredCost};
use tsdtw::core::dtw::full::dtw_distance;
use tsdtw::core::fastdtw::{fastdtw_distance, fastdtw_ref_distance};
use tsdtw::core::{cdtw, dtw};
use tsdtw::datasets::adversarial::trio;
use tsdtw::datasets::fall;
use tsdtw::datasets::gesture::labeled_short_gestures;
use tsdtw::datasets::music::performance_pair;
use tsdtw::datasets::power::fig3_pair;
use tsdtw::mining::cluster::{agglomerative, Linkage};
use tsdtw::mining::dataset_views::LabeledView;
use tsdtw::mining::knn::{evaluate_split, DistanceSpec};
use tsdtw::mining::pairwise::{pair_count, pairwise_matrix};
use tsdtw::mining::wselect::{integer_grid, optimal_window};

#[test]
fn fig7_flow_adversarial_trio_flips_the_dendrogram() {
    let t = trio();
    let series = vec![t.a.clone(), t.b.clone(), t.c.clone()];
    let cost = Rooted(SquaredCost);

    let full = pairwise_matrix(&series, 2, |x, y| dtw_distance(x, y, cost)).unwrap();
    let fast = pairwise_matrix(&series, 2, |x, y| fastdtw_distance(x, y, 20, cost)).unwrap();

    let full_tree = agglomerative(&full, Linkage::Average).unwrap();
    let fast_tree = agglomerative(&fast, Linkage::Average).unwrap();
    assert_eq!(
        full_tree.first_pair(),
        Some((0, 1)),
        "Full DTW pairs the twins"
    );
    assert_ne!(
        fast_tree.first_pair(),
        Some((0, 1)),
        "FastDTW_20 must break the twin pairing (the Fig. 7 flip)"
    );
}

#[test]
fn case_a_flow_learn_window_then_classify() {
    let data = labeled_short_gestures(48, 4, 6, 77).unwrap();
    let (train, test) = data.split_stratified(3).unwrap();
    let train_view = LabeledView::new(&train.series, &train.labels).unwrap();
    let test_view = LabeledView::new(&test.series, &test.labels).unwrap();

    let search = optimal_window(&train_view, &integer_grid(12)).unwrap();
    let band = (search.best_w_percent / 100.0 * train.series_len() as f64).ceil() as usize;
    let err = evaluate_split(&train_view, &test_view, DistanceSpec::CdtwBand(band)).unwrap();
    assert!(
        err <= 0.5,
        "learned-window classifier should do well: error {err}"
    );
}

#[test]
fn case_b_flow_narrow_band_recovers_the_drift() {
    let p = performance_pair(1_500, 15.0, 9).unwrap();
    let banded = cdtw(&p.studio, &p.live, 1.0).unwrap();
    let lockstep = cdtw(&p.studio, &p.live, 0.0).unwrap();
    assert!(banded < lockstep, "1% band must absorb the bounded drift");
}

#[test]
fn case_c_flow_power_mornings_cluster_by_program() {
    let (early, late) = fig3_pair(5).unwrap();
    let d = cdtw(&early.series, &late.series, 40.0).unwrap();
    let e = cdtw(&early.series, &late.series, 0.0).unwrap();
    assert!(d < e * 0.5);
    // Hierarchical clustering of a small morning population: two
    // program mornings plus two flat baselines must split
    // two-against-two.
    let flat_a = vec![0.15; 450];
    let flat_b: Vec<f64> = (0..450)
        .map(|i| 0.15 + 0.01 * (i as f64 * 0.1).sin())
        .collect();
    let series = vec![early.series.clone(), late.series.clone(), flat_a, flat_b];
    let m = pairwise_matrix(&series, 2, |a, b| cdtw(a, b, 40.0)).unwrap();
    let assignment = agglomerative(&m, Linkage::Average).unwrap().cut(2).unwrap();
    assert_eq!(
        assignment[0], assignment[1],
        "program mornings cluster together"
    );
    assert_eq!(
        assignment[2], assignment[3],
        "flat mornings cluster together"
    );
    assert_ne!(assignment[0], assignment[2]);
}

#[test]
fn case_d_flow_falls_need_full_warping() {
    let p = fall::pair(2.0, 3).unwrap();
    let full = dtw(&p.early, &p.late).unwrap();
    let narrow = cdtw(&p.early, &p.late, 10.0).unwrap();
    assert!(
        full < narrow * 0.5,
        "a 10% band cannot align opposite-end falls: full {full} vs narrow {narrow}"
    );
}

#[test]
fn pair_count_sanity_matches_paper_populations() {
    assert_eq!(pair_count(896), 400_960);
    assert_eq!(pair_count(1_000), 499_500);
}

#[test]
fn reference_and_tuned_fastdtw_run_on_every_generator() {
    let t = trio();
    let p = fall::pair(1.0, 1).unwrap();
    let m = performance_pair(300, 5.0, 2).unwrap();
    for (x, y) in [(&t.a, &t.b), (&p.early, &p.late), (&m.studio, &m.live)] {
        let a = fastdtw_distance(x, y, 3, SquaredCost).unwrap();
        let b = fastdtw_ref_distance(x, y, 3, SquaredCost).unwrap();
        let exact = dtw_distance(x, y, SquaredCost).unwrap();
        assert!(a >= exact - 1e-9);
        assert!(b >= exact - 1e-9);
    }
}
