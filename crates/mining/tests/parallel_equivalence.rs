//! Differential tests extending the executor's determinism contract to
//! the metrics layer: a [`MetricsRegistry`] fed the meters of the same
//! workload run at different `--threads` values renders **bitwise
//! identical** Prometheus exposition text. The chain under test is
//!
//! work loop → merged `WorkMeter` (PR 3: thread-count-invariant) →
//! `record_meter` (fold table from the meter macro) → sorted render,
//!
//! so any break anywhere in the chain shows up as a byte diff here.

use tsdtw_mining::knn::{evaluate_split_par, DistanceSpec};
use tsdtw_mining::search::subsequence_search_par;
use tsdtw_mining::ParConfig;
use tsdtw_obs::{MetricsRegistry, WorkMeter};

/// Runs a subsequence search at `threads` workers and returns the
/// exposition a fresh registry renders from its meter.
fn search_exposition(threads: usize) -> String {
    let query: Vec<f64> = (0..32).map(|i| (i as f64 * 0.35).sin() * 2.0).collect();
    let mut hay: Vec<f64> = (0..600).map(|i| ((i * i) as f64).sin() * 3.0).collect();
    for (j, &q) in query.iter().enumerate() {
        hay[321 + j] = q;
    }
    let par = ParConfig::new(threads).unwrap();
    let mut meter = WorkMeter::new();
    let r = subsequence_search_par(&hay, &query, 3, &par, &mut meter).unwrap();
    assert_eq!(r.position, 321, "search result itself is thread-invariant");
    let mut reg = MetricsRegistry::new();
    reg.record_meter(&meter);
    reg.record_funnel(&meter.funnel);
    reg.render()
}

/// Same discipline over the 1-NN split evaluation (a max-fold
/// `dp_peak_bytes` gauge plus the add-fold counters).
fn classify_exposition(threads: usize) -> String {
    let data = tsdtw_datasets::cbf::dataset(48, 8, 7).unwrap();
    let (train, test) = data.split_stratified(4).unwrap();
    let train_view =
        tsdtw_mining::dataset_views::LabeledView::new(&train.series, &train.labels).unwrap();
    let test_view =
        tsdtw_mining::dataset_views::LabeledView::new(&test.series, &test.labels).unwrap();
    let par = ParConfig::new(threads).unwrap();
    let mut meter = WorkMeter::new();
    evaluate_split_par(
        &train_view,
        &test_view,
        DistanceSpec::CdtwBand(3),
        &par,
        &mut meter,
    )
    .unwrap();
    let mut reg = MetricsRegistry::new();
    reg.record_meter(&meter);
    reg.render()
}

#[test]
fn search_metrics_exposition_is_bitwise_thread_invariant() {
    let serial = search_exposition(1);
    assert!(
        serial.contains("tsdtw_work_cells"),
        "exposition carries the meter table: {serial}"
    );
    assert!(serial.contains("tsdtw_work_prune_kim"), "{serial}");
    assert!(
        serial.contains("tsdtw_cascade_stage_lb_kim_entered"),
        "exposition carries the per-stage funnel families: {serial}"
    );
    for threads in [2, 4, 7] {
        assert_eq!(
            serial,
            search_exposition(threads),
            "exposition must not depend on threads={threads}"
        );
    }
}

#[test]
fn classify_metrics_exposition_is_bitwise_thread_invariant() {
    let serial = classify_exposition(1);
    assert!(
        serial.contains("# TYPE tsdtw_work_dp_peak_bytes gauge"),
        "max-fold high-water mark renders as a gauge: {serial}"
    );
    for threads in [2, 4] {
        assert_eq!(
            serial,
            classify_exposition(threads),
            "exposition must not depend on threads={threads}"
        );
    }
}
