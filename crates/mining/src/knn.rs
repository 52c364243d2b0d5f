//! 1-nearest-neighbor classification — the task behind the paper's Fig. 1,
//! Fig. 2 and Appendix B.
//!
//! Each scan exists once, for the exact constrained measure in two kinds:
//!
//! * **brute force** under any [`DistanceSpec`] — the apples-to-apples
//!   head-to-head the paper's figures use. One query's scan is serial (on
//!   the batched struct-of-lanes kernel where the spec allows);
//!   [`evaluate_split_par`] and [`loocv_error_cdtw_fast_par`] parallelize
//!   across queries instead, and the serial names run them at one worker;
//! * the **cascaded** scan (LB_Kim → LB_Keogh ×2 → early-abandoning DTW)
//!   that only exact `cDTW` admits — the "further two to five orders of
//!   magnitude" of §3.4. It is a best-so-far fold on the executor
//!   ([`nn_cascade_par`]); [`nn_cascade`] runs it at one worker with the
//!   bound refreshed after every candidate. Both kinds return identical
//!   predictions; tests pin that.

use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::{cdtw_distance_metered_with_buf, percent_to_band};
use tsdtw_core::dtw::batch::{cdtw_batch_distances_metered, BatchBuffer, LANES};
use tsdtw_core::dtw::windowed::DtwBuffer;
use tsdtw_core::error::{Error, Result};
use tsdtw_core::fastdtw::{fastdtw_distance_metered, fastdtw_ref_metered};
use tsdtw_core::lower_bounds::Cascade;
use tsdtw_obs::{Meter, MeterShard, NoMeter};

use crate::dataset_views::LabeledView;
use crate::par::{par_fold_argmin, par_map, ParConfig, CONTINUOUS};

/// Training-set indices that survive the leave-one-out `skip`, in order.
fn candidate_indices(train: &LabeledView<'_>, skip: usize) -> Vec<usize> {
    (0..train.series.len()).filter(|&i| i != skip).collect()
}

/// The band radius of the batched struct-of-lanes route for this scan,
/// or `None` when the scan must stay scalar.
///
/// The route engages when the spec reduces to one banded DP (full DTW
/// counts, via a matrix-covering band, when the lengths are equal — for
/// unequal lengths the scalar full kernel transposes the matrix, which
/// the batch kernel does not reproduce) and every candidate has one
/// length so the group shares a window. Distances are bitwise equal to the scalar scan either way,
/// so the route is observable only in wall-clock time and the `batch.*`
/// counters.
pub(crate) fn batched_band(
    spec: DistanceSpec,
    query: &[f64],
    series: &[Vec<f64>],
    idxs: &[usize],
) -> Option<usize> {
    let m = series.get(*idxs.first()?)?.len();
    if idxs.iter().any(|&i| series[i].len() != m) {
        return None;
    }
    let n = query.len();
    match spec {
        // An out-of-range percentage falls back to the scalar scan, which
        // reproduces the conversion error the caller expects.
        DistanceSpec::CdtwPercent(w) => percent_to_band(n.max(m), w).ok(),
        DistanceSpec::CdtwBand(band) => Some(band),
        DistanceSpec::FullDtw if n == m => Some(n),
        _ => None,
    }
}

/// Distances of `query` to `series[i]` for every `i` in `idxs`, in
/// `idxs` order — the shared serial scan body of 1-NN / k-NN. Takes the
/// batched struct-of-lanes route when [`batched_band`] admits it (one
/// reused [`BatchBuffer`], consecutive groups of [`LANES`] candidates in
/// index order), the scalar buffered loop otherwise; both produce
/// bitwise-identical distances.
pub(crate) fn scan_distances_metered<M: Meter>(
    series: &[Vec<f64>],
    query: &[f64],
    spec: DistanceSpec,
    idxs: &[usize],
    meter: &mut M,
) -> Result<Vec<f64>> {
    let mut out = Vec::with_capacity(idxs.len());
    if let Some(band) = batched_band(spec, query, series, idxs) {
        let mut bbuf = BatchBuffer::new();
        let mut group_out = [0.0f64; LANES];
        let mut ys: [&[f64]; LANES] = [query; LANES];
        for group in idxs.chunks(LANES) {
            for (l, &i) in group.iter().enumerate() {
                ys[l] = &series[i];
            }
            cdtw_batch_distances_metered(
                query,
                &ys[..group.len()],
                band,
                SquaredCost,
                &mut group_out[..group.len()],
                &mut bbuf,
                meter,
            )?;
            out.extend_from_slice(&group_out[..group.len()]);
        }
    } else {
        let mut buf = DtwBuffer::new();
        for &i in idxs {
            out.push(spec.eval_metered_buf(query, &series[i], meter, &mut buf)?);
        }
    }
    Ok(out)
}

/// Which distance a classifier should use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistanceSpec {
    /// Squared Euclidean (`cDTW_0`).
    Euclidean,
    /// `cDTW_w` with `w` in percent of series length.
    CdtwPercent(f64),
    /// `cDTW` with an explicit band in cells.
    CdtwBand(usize),
    /// Unconstrained DTW (`cDTW_100`).
    FullDtw,
    /// `FastDTW_r`, tuned implementation (shares the exact kernels).
    FastDtw(usize),
    /// `FastDTW_r`, reference implementation — the canonical cell-list +
    /// hash-map structure the ecosystem actually runs (what the paper's
    /// Appendix B correspondent measured).
    FastDtwRef(usize),
}

impl DistanceSpec {
    /// Evaluates the distance on a pair.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> Result<f64> {
        self.eval_metered(x, y, &mut NoMeter)
    }

    /// Like [`eval`](Self::eval), recording DP work into `meter`.
    ///
    /// Squared Euclidean runs no DP, so it records nothing. Full DTW is
    /// routed through the banded kernel with a matrix-covering band, so
    /// its cells land in the same counters as every other spec.
    pub fn eval_metered<M: Meter>(&self, x: &[f64], y: &[f64], meter: &mut M) -> Result<f64> {
        let mut buf = DtwBuffer::new();
        self.eval_metered_buf(x, y, meter, &mut buf)
    }

    /// Like [`eval_metered`](Self::eval_metered), reusing caller-provided
    /// DP scratch rows for the banded/full specs — the allocation-free
    /// form the serial 1-NN and k-NN scan loops use (one buffer per scan
    /// instead of one per comparison). Euclidean runs no DP, and FastDTW
    /// manages its own per-level buffers; both ignore `buf`. Tuned FastDTW
    /// recovers paths only at its coarser levels and solves the finest
    /// one distance-only; the reference keeps the canonical package's
    /// path-returning final solve.
    pub fn eval_metered_buf<M: Meter>(
        &self,
        x: &[f64],
        y: &[f64],
        meter: &mut M,
        buf: &mut DtwBuffer,
    ) -> Result<f64> {
        match *self {
            DistanceSpec::Euclidean => tsdtw_core::sq_euclidean(x, y),
            DistanceSpec::CdtwPercent(w) => {
                let band = percent_to_band(x.len().max(y.len()), w)?;
                cdtw_distance_metered_with_buf(x, y, band, SquaredCost, buf, meter)
            }
            DistanceSpec::CdtwBand(band) => {
                cdtw_distance_metered_with_buf(x, y, band, SquaredCost, buf, meter)
            }
            DistanceSpec::FullDtw => {
                cdtw_distance_metered_with_buf(x, y, x.len().max(y.len()), SquaredCost, buf, meter)
            }
            DistanceSpec::FastDtw(r) => fastdtw_distance_metered(x, y, r, SquaredCost, meter),
            DistanceSpec::FastDtwRef(r) => {
                fastdtw_ref_metered(x, y, r, SquaredCost, meter).map(|(d, _)| d)
            }
        }
    }
}

/// Result of a nearest-neighbor query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NnResult {
    /// Index of the nearest training exemplar.
    pub index: usize,
    /// Its distance.
    pub distance: f64,
    /// Its label.
    pub label: usize,
}

/// Brute-force 1-NN of `query` among `train`, skipping index `skip`
/// (for leave-one-out; pass `usize::MAX` to skip nothing).
pub fn nn_brute_force(
    train: &LabeledView<'_>,
    query: &[f64],
    spec: DistanceSpec,
    skip: usize,
) -> Result<NnResult> {
    nn_brute_force_metered(train, query, spec, skip, &mut NoMeter)
}

/// [`nn_brute_force`] with a [`Meter`] accumulating the DP work of every
/// comparison the query performs.
///
/// The scan body is `scan_distances_metered`, so a banded spec over
/// equal-length candidates runs on the struct-of-lanes batch kernel —
/// bitwise-identical distances, batched throughput.
pub fn nn_brute_force_metered<M: Meter>(
    train: &LabeledView<'_>,
    query: &[f64],
    spec: DistanceSpec,
    skip: usize,
    meter: &mut M,
) -> Result<NnResult> {
    let _span = tsdtw_obs::span("knn");
    let idxs = candidate_indices(train, skip);
    if idxs.is_empty() {
        return Err(Error::EmptyInput { which: "train" });
    }
    let distances = scan_distances_metered(train.series, query, spec, &idxs, meter)?;
    let (index, distance) = argmin_first(&idxs, &distances);
    Ok(NnResult {
        index,
        distance,
        label: train.labels[index],
    })
}

/// Index-order argmin with strict `<` (first winner kept on ties).
/// `idxs` must be nonempty.
fn argmin_first(idxs: &[usize], distances: &[f64]) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (&i, &d) in idxs.iter().zip(distances) {
        if best.is_none_or(|(_, bd)| d < bd) {
            best = Some((i, d));
        }
    }
    best.expect("nonempty candidate set")
}

/// Cascaded exact 1-NN under `cDTW_band` — identical output to
/// [`nn_brute_force`] with [`DistanceSpec::CdtwBand`], but with the
/// UCR-suite pruning stack. Requires equal-length series.
pub fn nn_cascade(
    train: &LabeledView<'_>,
    query: &[f64],
    band: usize,
    skip: usize,
) -> Result<NnResult> {
    nn_cascade_metered(train, query, band, skip, &mut NoMeter)
}

/// [`nn_cascade`] with a meter accumulating the lower-bound invocations,
/// per-stage prune tallies and (abandoned) DP work of the whole query:
/// [`nn_cascade_par`] at one worker, the bound refreshed after every
/// candidate.
pub fn nn_cascade_metered<M: MeterShard>(
    train: &LabeledView<'_>,
    query: &[f64],
    band: usize,
    skip: usize,
    meter: &mut M,
) -> Result<NnResult> {
    nn_cascade_par(train, query, band, skip, &CONTINUOUS, meter)
}

/// [`nn_cascade`] on the deterministic parallel executor: candidates are
/// evaluated in chunk-synchronous rounds against the best-so-far frozen
/// at each chunk boundary (each worker clones the prepared cascade), and
/// the bound advances in index order with strict `<`. The winner is
/// bitwise identical at any `(n_threads, chunk)`; the merged counters
/// are a pure function of `cfg.chunk` (with `chunk = 1` they are those
/// of the continuous-best-so-far scan [`nn_cascade_metered`] runs).
pub fn nn_cascade_par<M: MeterShard>(
    train: &LabeledView<'_>,
    query: &[f64],
    band: usize,
    skip: usize,
    cfg: &ParConfig,
    meter: &mut M,
) -> Result<NnResult> {
    let _span = tsdtw_obs::span("knn");
    // The O(n log n) query preparation (envelope + magnitude sort order)
    // runs once, here; each worker context is a clone sharing it behind
    // an `Arc`, so per-round worker setup never touches the heap
    // (`alloc_discipline` pins this).
    let prepared = Cascade::new(query, band)?;
    let idxs = candidate_indices(train, skip);
    let best = par_fold_argmin(
        cfg,
        &idxs,
        meter,
        f64::INFINITY,
        || Ok(prepared.clone()),
        |cascade, _, &i, bsf, m| cascade.evaluate_metered(&train.series[i], bsf, m),
        |out| out.exact_distance(),
    )?;
    let (k, distance) = best.ok_or(Error::EmptyInput { which: "train" })?;
    let index = idxs[k];
    Ok(NnResult {
        index,
        distance,
        label: train.labels[index],
    })
}

/// Brute-force k-NN: the `k` nearest training exemplars, nearest first.
pub fn knn_brute_force(
    train: &LabeledView<'_>,
    query: &[f64],
    spec: DistanceSpec,
    k: usize,
    skip: usize,
) -> Result<Vec<NnResult>> {
    knn_brute_force_metered(train, query, spec, k, skip, &mut NoMeter)
}

/// [`knn_brute_force`] with a [`Meter`] accumulating the DP work of every
/// comparison.
pub fn knn_brute_force_metered<M: Meter>(
    train: &LabeledView<'_>,
    query: &[f64],
    spec: DistanceSpec,
    k: usize,
    skip: usize,
    meter: &mut M,
) -> Result<Vec<NnResult>> {
    let _span = tsdtw_obs::span("knn");
    if k == 0 {
        return Err(Error::InvalidParameter {
            name: "k",
            reason: "k must be at least 1".into(),
        });
    }
    let idxs = candidate_indices(train, skip);
    if idxs.is_empty() {
        return Err(Error::EmptyInput { which: "train" });
    }
    let distances = scan_distances_metered(train.series, query, spec, &idxs, meter)?;
    let mut all: Vec<NnResult> = idxs
        .iter()
        .zip(&distances)
        .map(|(&i, &d)| NnResult {
            index: i,
            distance: d,
            label: train.labels[i],
        })
        .collect();
    all.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .expect("finite distances")
    });
    all.truncate(k);
    Ok(all)
}

/// Majority vote over the k nearest neighbors; ties break toward the
/// nearer neighbor's label (the standard convention).
pub fn classify_knn(
    train: &LabeledView<'_>,
    query: &[f64],
    spec: DistanceSpec,
    k: usize,
) -> Result<usize> {
    let neighbors = knn_brute_force(train, query, spec, k, usize::MAX)?;
    Ok(majority_vote(&neighbors))
}

/// Majority vote with ties broken toward the nearer neighbor's label.
fn majority_vote(neighbors: &[NnResult]) -> usize {
    let mut counts: std::collections::HashMap<usize, usize> = std::collections::HashMap::new();
    for n in neighbors {
        *counts.entry(n.label).or_insert(0) += 1;
    }
    let best_count = *counts.values().max().expect("nonempty");
    neighbors
        .iter()
        .find(|n| counts[&n.label] == best_count)
        .expect("nonempty")
        .label
}

/// Classifies every test series by brute-force 1-NN against the training
/// set; returns the error rate in `[0, 1]`. [`evaluate_split_par`] at
/// one worker.
pub fn evaluate_split(
    train: &LabeledView<'_>,
    test: &LabeledView<'_>,
    spec: DistanceSpec,
) -> Result<f64> {
    evaluate_split_par(train, test, spec, &ParConfig::serial(), &mut NoMeter)
}

/// [`evaluate_split`] on the deterministic parallel executor, with a
/// meter accumulating the DP work of every test-versus-train comparison:
/// test queries are independent, so each runs its (serial) 1-NN scan on
/// a worker with a private meter shard; shards merge in test order.
/// Error rate and counters are bitwise identical at any `n_threads`.
pub fn evaluate_split_par<M: MeterShard>(
    train: &LabeledView<'_>,
    test: &LabeledView<'_>,
    spec: DistanceSpec,
    cfg: &ParConfig,
    meter: &mut M,
) -> Result<f64> {
    if test.series.is_empty() {
        return Err(Error::EmptyInput { which: "test" });
    }
    let queries: Vec<usize> = (0..test.series.len()).collect();
    let misses = par_map(cfg, &queries, meter, |_, &q, m| {
        let nn = nn_brute_force_metered(train, &test.series[q], spec, usize::MAX, m)?;
        Ok(u64::from(nn.label != test.labels[q]))
    })?;
    Ok(misses.iter().sum::<u64>() as f64 / test.series.len() as f64)
}

/// Leave-one-out cross-validated 1-NN error rate under `spec`.
///
/// This is the procedure the UCR archive used to publish its optimal
/// warping windows (and hence the procedure behind the paper's Fig. 2a).
pub fn loocv_error(view: &LabeledView<'_>, spec: DistanceSpec) -> Result<f64> {
    if view.series.len() < 2 {
        return Err(Error::InvalidParameter {
            name: "view",
            reason: "LOOCV needs at least two series".into(),
        });
    }
    let mut errors = 0usize;
    for i in 0..view.series.len() {
        let nn = nn_brute_force(view, &view.series[i], spec, i)?;
        if nn.label != view.labels[i] {
            errors += 1;
        }
    }
    Ok(errors as f64 / view.series.len() as f64)
}

/// LOOCV error under exact `cDTW_band`, via the cascade (fast path):
/// [`loocv_error_cdtw_fast_par`] at one worker.
pub fn loocv_error_cdtw_fast(view: &LabeledView<'_>, band: usize) -> Result<f64> {
    loocv_error_cdtw_fast_par(view, band, &ParConfig::serial())
}

/// [`loocv_error_cdtw_fast`] on the deterministic parallel executor:
/// each held-out query runs its own continuously-pruned cascade
/// ([`nn_cascade`]) on a worker, so the error rate is bitwise identical
/// at any `n_threads`.
pub fn loocv_error_cdtw_fast_par(
    view: &LabeledView<'_>,
    band: usize,
    cfg: &ParConfig,
) -> Result<f64> {
    if view.series.len() < 2 {
        return Err(Error::InvalidParameter {
            name: "view",
            reason: "LOOCV needs at least two series".into(),
        });
    }
    let queries: Vec<usize> = (0..view.series.len()).collect();
    let misses = par_map(cfg, &queries, &mut NoMeter, |_, &i, _| {
        let nn = nn_cascade(view, &view.series[i], band, i)?;
        Ok(u64::from(nn.label != view.labels[i]))
    })?;
    Ok(misses.iter().sum::<u64>() as f64 / view.series.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset_views::LabeledView;

    /// Two well-separated synthetic classes: slow sine vs fast sine.
    fn two_class() -> (Vec<Vec<f64>>, Vec<usize>) {
        let n = 64;
        let mut series = Vec::new();
        let mut labels = Vec::new();
        for k in 0..10 {
            let phase = k as f64 * 0.17;
            series.push((0..n).map(|i| (i as f64 * 0.2 + phase).sin()).collect());
            labels.push(0);
            series.push((0..n).map(|i| (i as f64 * 0.55 + phase).sin()).collect());
            labels.push(1);
        }
        (series, labels)
    }

    #[test]
    fn brute_force_finds_true_nearest() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let nn = nn_brute_force(&view, &series[0], DistanceSpec::CdtwBand(4), 0).unwrap();
        // Nearest to a class-0 exemplar must be class 0.
        assert_eq!(nn.label, 0);
        assert!(nn.index != 0);
    }

    #[test]
    fn cascade_matches_brute_force_exactly() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        for band in [0usize, 3, 10] {
            for (i, s) in series.iter().enumerate() {
                let bf = nn_brute_force(&view, s, DistanceSpec::CdtwBand(band), i).unwrap();
                let fast = nn_cascade(&view, s, band, i).unwrap();
                assert_eq!(bf.index, fast.index, "band {band} query {i}");
                assert!((bf.distance - fast.distance).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn loocv_zero_error_on_separable_data() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let err = loocv_error(&view, DistanceSpec::CdtwBand(4)).unwrap();
        assert_eq!(err, 0.0);
        let err_fast = loocv_error_cdtw_fast(&view, 4).unwrap();
        assert_eq!(err_fast, 0.0);
    }

    #[test]
    fn loocv_error_agrees_between_paths() {
        // Noisy, overlapping classes so the error is nonzero.
        let n = 32;
        let mut series: Vec<Vec<f64>> = Vec::new();
        let mut labels = Vec::new();
        for k in 0..16 {
            let jig = (k * 2654435761u64 as usize) as f64;
            series.push(
                (0..n)
                    .map(|i| ((i as f64 + jig) * 0.9).sin() * ((k % 7) as f64 * 0.3))
                    .collect(),
            );
            labels.push(k % 2);
        }
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let slow = loocv_error(&view, DistanceSpec::CdtwBand(3)).unwrap();
        let fast = loocv_error_cdtw_fast(&view, 3).unwrap();
        assert_eq!(slow, fast);
    }

    #[test]
    fn evaluate_split_perfect_on_separable() {
        let (series, labels) = two_class();
        let train = LabeledView {
            series: &series[..10],
            labels: &labels[..10],
        };
        let test = LabeledView {
            series: &series[10..],
            labels: &labels[10..],
        };
        let err = evaluate_split(&train, &test, DistanceSpec::CdtwBand(4)).unwrap();
        assert_eq!(err, 0.0);
    }

    #[test]
    fn all_distance_specs_are_usable() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        for spec in [
            DistanceSpec::Euclidean,
            DistanceSpec::CdtwPercent(5.0),
            DistanceSpec::CdtwBand(2),
            DistanceSpec::FullDtw,
            DistanceSpec::FastDtw(3),
            DistanceSpec::FastDtwRef(3),
        ] {
            let nn = nn_brute_force(&view, &series[1], spec, 1).unwrap();
            assert!(nn.distance.is_finite());
        }
    }

    #[test]
    fn knn_returns_sorted_neighbors() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let nns = knn_brute_force(&view, &series[0], DistanceSpec::CdtwBand(4), 5, 0).unwrap();
        assert_eq!(nns.len(), 5);
        for w in nns.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
        // Class-0 query: nearest neighbors dominated by class 0.
        let zero_votes = nns.iter().filter(|n| n.label == 0).count();
        assert!(zero_votes >= 3, "{zero_votes}/5 class-0 neighbors");
    }

    #[test]
    fn knn_k1_matches_nn() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        for (q, s) in series.iter().enumerate().take(4) {
            let nn = nn_brute_force(&view, s, DistanceSpec::CdtwBand(3), q).unwrap();
            let k1 = knn_brute_force(&view, s, DistanceSpec::CdtwBand(3), 1, q).unwrap();
            assert_eq!(k1[0], nn);
        }
    }

    #[test]
    fn classify_knn_majority_vote() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        for k in [1usize, 3, 5] {
            let label = classify_knn(&view, &series[2], DistanceSpec::CdtwBand(4), k).unwrap();
            assert_eq!(label, labels[2], "k={k}");
        }
    }

    #[test]
    fn knn_rejects_k_zero() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        assert!(knn_brute_force(&view, &series[0], DistanceSpec::Euclidean, 0, 0).is_err());
    }

    #[test]
    fn metered_paths_match_plain_and_count_work() {
        use tsdtw_obs::WorkMeter;
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        for spec in [
            DistanceSpec::Euclidean,
            DistanceSpec::CdtwPercent(5.0),
            DistanceSpec::CdtwBand(2),
            DistanceSpec::FullDtw,
            DistanceSpec::FastDtw(3),
            DistanceSpec::FastDtwRef(3),
        ] {
            let plain = spec.eval(&series[0], &series[1]).unwrap();
            let mut meter = WorkMeter::new();
            let metered = spec
                .eval_metered(&series[0], &series[1], &mut meter)
                .unwrap();
            assert!((plain - metered).abs() < 1e-9, "{spec:?}");
            if spec != DistanceSpec::Euclidean {
                assert!(meter.cells > 0, "{spec:?} should touch DP cells");
            }
            let bf = nn_brute_force(&view, &series[0], spec, 0).unwrap();
            let mut m2 = WorkMeter::new();
            let bf_m = nn_brute_force_metered(&view, &series[0], spec, 0, &mut m2).unwrap();
            assert_eq!(bf.index, bf_m.index, "{spec:?}");
        }
        // Cascaded path: the meter sees one cascade disposition per
        // non-skipped exemplar, and the answer is unchanged.
        let mut meter = WorkMeter::new();
        let plain = nn_cascade(&view, &series[0], 4, 0).unwrap();
        let metered = nn_cascade_metered(&view, &series[0], 4, 0, &mut meter).unwrap();
        assert_eq!(plain, metered);
        assert_eq!(meter.candidates(), (series.len() - 1) as u64);
    }

    #[test]
    fn empty_train_rejected() {
        let series: Vec<Vec<f64>> = vec![vec![0.0; 4]];
        let labels = vec![0];
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        // Skipping the only element leaves nothing.
        assert!(nn_brute_force(&view, &series[0], DistanceSpec::Euclidean, 0).is_err());
        assert!(nn_cascade(&view, &series[0], 2, 0).is_err());
        let cfg = ParConfig::new(2).unwrap();
        assert!(nn_cascade_par(&view, &series[0], 2, 0, &cfg, &mut NoMeter).is_err());
    }

    #[test]
    fn par_cascade_chunk_one_equals_the_continuous_loop_exactly() {
        use tsdtw_obs::WorkMeter;
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        // Reference: the plain serial cascade, its bound tightened after
        // every candidate.
        let mut serial_meter = WorkMeter::new();
        let mut cascade = Cascade::new(&series[3], 4).unwrap();
        let mut serial = NnResult {
            index: usize::MAX,
            distance: f64::INFINITY,
            label: 0,
        };
        for (i, s) in series.iter().enumerate().filter(|&(i, _)| i != 3) {
            let out = cascade
                .evaluate_metered(s, serial.distance, &mut serial_meter)
                .unwrap();
            if let Some(d) = out.exact_distance().filter(|&d| d < serial.distance) {
                serial = NnResult {
                    index: i,
                    distance: d,
                    label: labels[i],
                };
            }
        }
        let mut meter = WorkMeter::new();
        let metered = nn_cascade_metered(&view, &series[3], 4, 3, &mut meter).unwrap();
        assert_eq!(metered, serial);
        assert_eq!(meter, serial_meter);
        for threads in [1usize, 2, 3, 7] {
            let cfg = ParConfig::with_chunk(threads, 1).unwrap();
            let mut meter = WorkMeter::new();
            let par = nn_cascade_par(&view, &series[3], 4, 3, &cfg, &mut meter).unwrap();
            assert_eq!(par, serial, "{threads} threads");
            assert_eq!(meter, serial_meter, "{threads} threads");
        }
    }

    #[test]
    fn par_cascade_counters_are_thread_count_invariant_at_fixed_chunk() {
        use tsdtw_obs::WorkMeter;
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let run = |threads: usize| {
            let cfg = ParConfig::with_chunk(threads, 4).unwrap();
            let mut meter = WorkMeter::new();
            let nn = nn_cascade_par(&view, &series[0], 4, 0, &cfg, &mut meter).unwrap();
            (nn, meter)
        };
        let (nn1, m1) = run(1);
        let serial = nn_cascade(&view, &series[0], 4, 0).unwrap();
        assert_eq!(nn1.index, serial.index);
        assert_eq!(nn1.distance.to_bits(), serial.distance.to_bits());
        for threads in [2usize, 3, 7] {
            let (nn, m) = run(threads);
            assert_eq!(nn, nn1, "{threads} threads");
            assert_eq!(m, m1, "{threads} threads");
        }
    }

    #[test]
    fn batched_route_gates_on_spec_and_lengths() {
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let idxs = candidate_indices(&view, 0);
        let q = &series[0];
        // Engages for banded specs.
        assert_eq!(
            batched_band(DistanceSpec::CdtwBand(4), q, &series, &idxs),
            Some(4)
        );
        let pct = batched_band(DistanceSpec::CdtwPercent(5.0), q, &series, &idxs);
        assert_eq!(pct, Some(percent_to_band(q.len(), 5.0).unwrap()));
        // Equal lengths: full DTW via a matrix-covering band.
        assert_eq!(
            batched_band(DistanceSpec::FullDtw, q, &series, &idxs),
            Some(q.len())
        );
        // Non-banded specs stay scalar.
        for spec in [
            DistanceSpec::Euclidean,
            DistanceSpec::FastDtw(3),
            DistanceSpec::FastDtwRef(3),
        ] {
            assert_eq!(batched_band(spec, q, &series, &idxs), None);
        }
        // Out-of-range percent falls back (the scalar scan reports the error).
        assert_eq!(
            batched_band(DistanceSpec::CdtwPercent(250.0), q, &series, &idxs),
            None
        );
        // Mixed candidate lengths stay scalar.
        let mut ragged = series.clone();
        ragged[3].push(0.5);
        assert_eq!(
            batched_band(DistanceSpec::CdtwBand(4), q, &ragged, &idxs),
            None
        );
        // Full DTW with a query length differing from the candidates stays
        // scalar (the scalar kernel transposes; the batch kernel doesn't).
        let short_q = &series[0][..32];
        assert_eq!(
            batched_band(DistanceSpec::FullDtw, short_q, &series, &idxs),
            None
        );
        assert_eq!(
            batched_band(DistanceSpec::CdtwBand(4), short_q, &series, &idxs),
            Some(4)
        );
    }

    #[test]
    fn batched_scan_is_bitwise_equal_to_the_scalar_scan() {
        use tsdtw_obs::WorkMeter;
        let (series, labels) = two_class();
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let idxs = candidate_indices(&view, 2);
        let q = &series[2];
        for spec in [
            DistanceSpec::CdtwBand(4),
            DistanceSpec::CdtwPercent(10.0),
            DistanceSpec::FullDtw,
        ] {
            // Scalar reference: the per-pair buffered loop, exactly what the
            // scan runs when the batched route is gated off.
            let mut scalar_meter = WorkMeter::new();
            let mut buf = DtwBuffer::new();
            let scalar: Vec<f64> = idxs
                .iter()
                .map(|&i| {
                    spec.eval_metered_buf(q, &series[i], &mut scalar_meter, &mut buf)
                        .unwrap()
                })
                .collect();
            let mut batched_meter = WorkMeter::new();
            let batched =
                scan_distances_metered(&series, q, spec, &idxs, &mut batched_meter).unwrap();
            assert_eq!(batched.len(), scalar.len(), "{spec:?}");
            for (b, s) in batched.iter().zip(&scalar) {
                assert_eq!(b.to_bits(), s.to_bits(), "{spec:?}");
            }
            // The route really engaged (19 candidates -> 3 groups of <= 8),
            // and the only counter divergence from the scalar loop is the
            // batch.* pair.
            assert_eq!(batched_meter.batch_groups, 3, "{spec:?}");
            assert_eq!(batched_meter.batch_lanes, idxs.len() as u64, "{spec:?}");
            let normalize = |m: &WorkMeter| {
                let mut m = m.clone();
                m.batch_groups = 0;
                m.batch_lanes = 0;
                m
            };
            assert_eq!(
                normalize(&batched_meter),
                normalize(&scalar_meter),
                "{spec:?}"
            );
            assert_eq!(batched_meter.cells, scalar_meter.cells, "{spec:?}");
        }
    }

    #[test]
    fn par_split_and_loocv_are_bitwise_serial() {
        let (series, labels) = two_class();
        let train = LabeledView {
            series: &series[..10],
            labels: &labels[..10],
        };
        let test = LabeledView {
            series: &series[10..],
            labels: &labels[10..],
        };
        let view = LabeledView {
            series: &series,
            labels: &labels,
        };
        let spec = DistanceSpec::CdtwBand(4);
        // References: a plain loop of per-query scans, and the brute-force
        // LOOCV (the cascade returns the same neighbors).
        let misses = test
            .series
            .iter()
            .zip(test.labels)
            .filter(|&(q, &truth)| {
                nn_brute_force(&train, q, spec, usize::MAX).unwrap().label != truth
            })
            .count();
        let serial_split = misses as f64 / test.series.len() as f64;
        let serial_loocv = loocv_error(&view, spec).unwrap();
        assert_eq!(evaluate_split(&train, &test, spec).unwrap(), serial_split);
        assert_eq!(loocv_error_cdtw_fast(&view, 4).unwrap(), serial_loocv);
        for threads in [1usize, 2, 7] {
            let cfg = ParConfig::with_chunk(threads, 2).unwrap();
            let split = evaluate_split_par(&train, &test, spec, &cfg, &mut NoMeter).unwrap();
            assert_eq!(split.to_bits(), serial_split.to_bits(), "{threads} threads");
            let fast = loocv_error_cdtw_fast_par(&view, 4, &cfg).unwrap();
            assert_eq!(fast.to_bits(), serial_loocv.to_bits(), "{threads} threads");
        }
    }
}
