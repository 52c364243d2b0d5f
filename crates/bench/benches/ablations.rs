//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * Lemire streaming envelopes vs the naive O(n·w) construction;
//! * early-abandoning DTW vs running the full band DP, at tight and loose
//!   thresholds;
//! * cascaded 1-NN vs brute-force 1-NN (the §3.4 claim in miniature);
//! * the EXPLAIN prune funnel armed (`WorkMeter`) vs `NoMeter` on the
//!   same cascaded 1-NN scan (the funnel's < 5 % overhead budget);
//! * FastDTW's multilevel recursion vs a single windowed DP over its own
//!   final window (isolating the recursion overhead);
//! * the flight recorder armed vs the span table alone vs no probes at
//!   all (the observability layer's < 5 % overhead budget on the banded
//!   kernel; the span table alone is also the whole cost of `--profile`);
//! * the DP routes: the row sweep vs the wavefront on a 10 % band, with
//!   auto on the same shape pinning zero route-resolution overhead, and a
//!   batched-scan pair (mining dispatch route vs direct batch-kernel
//!   calls) pinning the batched route's dispatch overhead under 5 %;
//! * the counting allocator armed vs per-call [`AllocScope`] probes vs
//!   cold construction (the heap-telemetry layer's < 5 % budget on the
//!   windowed-DTW hot path);
//! * the metrics registry: per-request `record_meter` + latency
//!   observation vs the bare metered kernel (the same < 5 %
//!   observability budget).
//!
//! [`AllocScope`]: tsdtw_obs::AllocScope

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tsdtw_core::cost::SquaredCost;
use tsdtw_core::dtw::banded::cdtw_distance;
use tsdtw_core::dtw::early_abandon::cdtw_distance_ea;
use tsdtw_core::dtw::windowed::windowed_distance;
use tsdtw_core::envelope::Envelope;
use tsdtw_core::fastdtw::{fastdtw_distance, fastdtw_with_path};
use tsdtw_core::window::SearchWindow;
use tsdtw_datasets::gesture::labeled_short_gestures;
use tsdtw_datasets::random_walk::random_walk;
use tsdtw_mining::dataset_views::LabeledView;
use tsdtw_mining::knn::{nn_brute_force, nn_cascade, DistanceSpec};

fn envelopes(c: &mut Criterion) {
    let q = random_walk(1024, 3).unwrap();
    let band = 64;
    let mut g = c.benchmark_group("ablation_envelope");
    g.bench_function("lemire", |b| {
        b.iter(|| black_box(Envelope::new(&q, band).unwrap()))
    });
    g.bench_function("naive", |b| {
        b.iter(|| black_box(Envelope::naive(&q, band).unwrap()))
    });
    g.finish();
}

fn early_abandon(c: &mut Criterion) {
    let x = random_walk(512, 5).unwrap();
    let y: Vec<f64> = random_walk(512, 6)
        .unwrap()
        .iter()
        .map(|v| v + 5.0)
        .collect();
    let band = 25;
    let exact = cdtw_distance(&x, &y, band, SquaredCost).unwrap();
    let mut g = c.benchmark_group("ablation_early_abandon");
    g.bench_function("full_dp", |b| {
        b.iter(|| black_box(cdtw_distance(&x, &y, band, SquaredCost).unwrap()))
    });
    g.bench_function("ea_tight_threshold", |b| {
        b.iter(|| {
            black_box(cdtw_distance_ea(&x, &y, band, exact * 0.05, None, SquaredCost).unwrap())
        })
    });
    g.bench_function("ea_loose_threshold", |b| {
        b.iter(|| {
            black_box(cdtw_distance_ea(&x, &y, band, exact * 2.0, None, SquaredCost).unwrap())
        })
    });
    g.finish();
}

fn knn_cascade_vs_brute(c: &mut Criterion) {
    let data = labeled_short_gestures(96, 6, 10, 9).unwrap();
    let view = LabeledView::new(&data.series, &data.labels).unwrap();
    let band = 8;
    let query = data.series[0].clone();
    let mut g = c.benchmark_group("ablation_1nn");
    g.sample_size(20);
    g.bench_function("brute_force", |b| {
        b.iter(|| {
            black_box(nn_brute_force(&view, &query, DistanceSpec::CdtwBand(band), 0).unwrap())
        })
    });
    g.bench_function("cascade", |b| {
        b.iter(|| black_box(nn_cascade(&view, &query, band, 0).unwrap()))
    });
    g.finish();
}

fn funnel_overhead(c: &mut Criterion) {
    // The EXPLAIN funnel's budget: arming a `WorkMeter` — whose funnel
    // ledger adds a disposition increment, a cost-units add and (for
    // survivors) a tightness sample per candidate per stage — must stay
    // within the observability layer's < 5 % envelope on the cascaded
    // 1-NN scan it instruments.
    use tsdtw_mining::knn::nn_cascade_metered;
    use tsdtw_obs::{NoMeter, WorkMeter};
    let data = labeled_short_gestures(96, 6, 10, 9).unwrap();
    let view = LabeledView::new(&data.series, &data.labels).unwrap();
    let band = 8;
    let query = data.series[0].clone();
    let mut g = c.benchmark_group("ablation_funnel");
    g.sample_size(30);
    g.bench_function("no_meter", |b| {
        b.iter(|| black_box(nn_cascade_metered(&view, &query, band, 0, &mut NoMeter).unwrap()))
    });
    g.bench_function("funnel_armed", |b| {
        let mut meter = WorkMeter::new();
        b.iter(|| black_box(nn_cascade_metered(&view, &query, band, 0, &mut meter).unwrap()))
    });
    g.finish();
}

fn fastdtw_recursion_overhead(c: &mut Criterion) {
    let x = random_walk(2048, 11).unwrap();
    let y = random_walk(2048, 12).unwrap();
    let radius = 20;
    // Reconstruct a window equivalent to FastDTW's final-level window (the
    // neighborhood of its committed path, dilated by the radius), then
    // benchmark just that one windowed DP against the whole recursion. Both
    // arms compute the distance only, so the gap is the coarser levels.
    let (_, path) = fastdtw_with_path(&x, &y, radius, SquaredCost).unwrap();
    let ranges = path.row_ranges(x.len());
    let (lo, hi): (Vec<usize>, Vec<usize>) = ranges.into_iter().unzip();
    let window = SearchWindow::from_bounds(y.len(), lo, hi)
        .expect("path staircase is a valid window")
        .dilate(radius);
    let mut g = c.benchmark_group("ablation_fastdtw_overhead");
    g.sample_size(20);
    g.bench_function("full_recursion", |b| {
        b.iter(|| black_box(fastdtw_distance(&x, &y, radius, SquaredCost).unwrap()))
    });
    g.bench_function("final_level_only", |b| {
        b.iter(|| black_box(windowed_distance(&x, &y, &window, SquaredCost).unwrap()))
    });
    g.finish();
}

fn meter_overhead(c: &mut Criterion) {
    // The observability layer's contract: the meter is a monomorphized
    // generic, so the `NoMeter` path must compile to the same code as the
    // never-instrumented kernel (`cdtw_distance` delegates through it) and
    // cost nothing. `WorkMeter` puts a number on the price of actually
    // recording — a handful of integer adds per DP row.
    use tsdtw_core::dtw::banded::cdtw_distance_metered;
    use tsdtw_core::obs::{NoMeter, WorkMeter};
    let x = random_walk(1024, 41).unwrap();
    let y = random_walk(1024, 42).unwrap();
    let band = 50;
    let mut g = c.benchmark_group("ablation_meter");
    g.sample_size(30);
    g.bench_function("unmetered", |b| {
        b.iter(|| black_box(cdtw_distance(&x, &y, band, SquaredCost).unwrap()))
    });
    g.bench_function("no_meter", |b| {
        b.iter(|| {
            black_box(cdtw_distance_metered(&x, &y, band, SquaredCost, &mut NoMeter).unwrap())
        })
    });
    g.bench_function("work_meter", |b| {
        let mut meter = WorkMeter::new();
        b.iter(|| black_box(cdtw_distance_metered(&x, &y, band, SquaredCost, &mut meter).unwrap()))
    });
    g.finish();
}

fn recorder_overhead(c: &mut Criterion) {
    // The flight recorder's contract mirrors the meter's: with nothing
    // armed a span probe is one relaxed atomic load and an idle guard;
    // an armed recorder pays one ring push per begin/end plus a
    // histogram update on drop. Budget: < 5 % on the banded kernel. The
    // four states measured here are baseline (no extra probe), a
    // disarmed span, an armed span without a recorder (the span table
    // only: everything `--stats` and `--profile` pay), and a span with
    // an armed recorder (table + ring).
    use tsdtw_obs::{arm_spans, recorder_start, recorder_stop, span, take_spans};
    let x = random_walk(1024, 51).unwrap();
    let y = random_walk(1024, 52).unwrap();
    let band = 50;
    let mut g = c.benchmark_group("ablation_recorder");
    g.sample_size(30);
    g.bench_function("baseline", |b| {
        b.iter(|| black_box(cdtw_distance(&x, &y, band, SquaredCost).unwrap()))
    });
    g.bench_function("disarmed_span", |b| {
        b.iter(|| {
            let _s = span("bench_cdtw");
            black_box(cdtw_distance(&x, &y, band, SquaredCost).unwrap())
        })
    });
    g.bench_function("span_table_only", |b| {
        let armed = arm_spans();
        b.iter(|| {
            let _s = span("bench_cdtw");
            black_box(cdtw_distance(&x, &y, band, SquaredCost).unwrap())
        });
        drop(armed);
    });
    let _ = take_spans();
    g.bench_function("span_plus_recorder", |b| {
        recorder_start(tsdtw_obs::DEFAULT_TRACE_CAPACITY);
        b.iter(|| {
            let _s = span("bench_cdtw");
            black_box(cdtw_distance(&x, &y, band, SquaredCost).unwrap())
        });
        let _ = recorder_stop();
    });
    let _ = take_spans();
    g.finish();
}

fn constraint_shapes(c: &mut Criterion) {
    // Full window vs Sakoe–Chiba band vs Itakura parallelogram at N=512:
    // the DP cost is proportional to admissible cells, so the constraint
    // choice is itself a performance lever (and an accuracy one — see the
    // paper's §2 discussion of pathological warpings).
    let n = 512;
    let x = random_walk(n, 31).unwrap();
    let y = random_walk(n, 32).unwrap();
    let full = SearchWindow::full(n, n);
    let band = SearchWindow::sakoe_chiba(n, n, n / 10);
    let itakura = SearchWindow::itakura(n, n, 2.0).unwrap();
    let mut g = c.benchmark_group("ablation_constraints");
    for (name, w) in [
        ("full", &full),
        ("band_10pct", &band),
        ("itakura_s2", &itakura),
    ] {
        g.bench_function(format!("{name}_{}cells", w.cell_count()), |b| {
            b.iter(|| black_box(windowed_distance(&x, &y, w, SquaredCost).unwrap()))
        });
    }
    g.finish();
}

fn kernel_tiers(c: &mut Criterion) {
    // The DP evaluation orders (DESIGN.md §11, §16): the row sweep
    // (Segmented), the anti-diagonal Wavefront, and `Auto`, which on
    // this band (409 cells wide, past `WAVEFRONT_MIN_WIDTH`) must time
    // like the wavefront — its route resolves once per call, not per
    // cell.
    use tsdtw_core::Kernel;

    let n = 2048;
    let x = random_walk(n, 61).unwrap();
    let y = random_walk(n, 62).unwrap();
    let band = n / 10;
    let mut g = c.benchmark_group("ablation_kernels");
    g.sample_size(30);
    g.bench_function("segmented", |b| {
        b.iter(|| {
            black_box(
                tsdtw_core::dtw::banded::cdtw_distance_kernel(
                    &x,
                    &y,
                    band,
                    SquaredCost,
                    Kernel::Segmented,
                )
                .unwrap(),
            )
        })
    });
    g.bench_function("auto", |b| {
        b.iter(|| {
            black_box(
                tsdtw_core::dtw::banded::cdtw_distance_kernel(
                    &x,
                    &y,
                    band,
                    SquaredCost,
                    Kernel::Auto,
                )
                .unwrap(),
            )
        })
    });
    g.bench_function("wavefront", |b| {
        b.iter(|| {
            black_box(
                tsdtw_core::dtw::banded::cdtw_distance_kernel(
                    &x,
                    &y,
                    band,
                    SquaredCost,
                    Kernel::Wavefront,
                )
                .unwrap(),
            )
        })
    });
    // Batched-dispatch overhead pair: the mining 1-NN scan takes the
    // struct-of-lanes route (length check + band resolution + group
    // chunking per scan), so its gap to hand-rolled
    // batch-kernel calls over the same candidates is the price of that
    // dispatch. Budget: < 5 %.
    {
        use tsdtw_core::dtw::batch::{cdtw_batch_distances_metered, BatchBuffer, LANES};
        use tsdtw_obs::NoMeter;
        let scan_n = 512;
        let query = random_walk(scan_n, 63).unwrap();
        let pool: Vec<Vec<f64>> = (0..64)
            .map(|s| random_walk(scan_n, 100 + s as u64).unwrap())
            .collect();
        let labels = vec![0usize; pool.len()];
        let view = LabeledView::new(&pool, &labels).unwrap();
        let refs: Vec<&[f64]> = pool.iter().map(|y| y.as_slice()).collect();
        let scan_band = scan_n / 10;
        g.bench_function("batched_scan_direct", |b| {
            let mut bbuf = BatchBuffer::new();
            let mut out = vec![0.0f64; refs.len()];
            b.iter(|| {
                for (group, slot) in refs.chunks(LANES).zip(out.chunks_mut(LANES)) {
                    cdtw_batch_distances_metered(
                        &query,
                        group,
                        scan_band,
                        SquaredCost,
                        slot,
                        &mut bbuf,
                        &mut NoMeter,
                    )
                    .unwrap();
                }
                black_box(&out);
            })
        });
        g.bench_function("batched_scan_dispatched", |b| {
            b.iter(|| {
                black_box(
                    nn_brute_force(&view, &query, DistanceSpec::CdtwBand(scan_band), usize::MAX)
                        .unwrap(),
                )
            })
        });
    }
    g.finish();
}

fn alloc_telemetry_overhead(c: &mut Criterion) {
    // The counting allocator's contract (DESIGN.md §12): arming it must
    // not tax the DP hot path, because the hot path doesn't allocate —
    // the wrapper only adds a few atomic-free thread-local adds *per
    // heap event*, and a warmed windowed DTW has none. Three states:
    //
    // * `baseline` — the warmed buffered kernel, no probes. Comparing
    //   this bench between a default build and an `--features
    //   alloc-telemetry` build is the cross-build arming cost; the CI
    //   perf gate's < 5 % budget applies to it.
    // * `alloc_scope_per_call` — an [`AllocScope`] begin/end pair
    //   around every call: the in-build price of actually probing
    //   (a ZST no-op without the feature).
    // * `cold_construction` — evaluator construction + first call per
    //   iteration, the allocation-carrying shape, showing where the
    //   per-event counting cost actually lands.
    use tsdtw_core::dtw::banded::{cdtw_distance_metered_with_buf, BandedDtw};
    use tsdtw_core::dtw::windowed::DtwBuffer;
    use tsdtw_core::obs::NoMeter;
    use tsdtw_obs::AllocScope;
    let n = 1024;
    let x = random_walk(n, 71).unwrap();
    let y = random_walk(n, 72).unwrap();
    let band = n / 10;
    let mut g = c.benchmark_group("ablation_alloc");
    g.sample_size(30);
    let mut buf = DtwBuffer::new();
    cdtw_distance_metered_with_buf(&x, &y, band, SquaredCost, &mut buf, &mut NoMeter).unwrap();
    g.bench_function("baseline", |b| {
        b.iter(|| {
            black_box(
                cdtw_distance_metered_with_buf(&x, &y, band, SquaredCost, &mut buf, &mut NoMeter)
                    .unwrap(),
            )
        })
    });
    g.bench_function("alloc_scope_per_call", |b| {
        b.iter(|| {
            let probe = AllocScope::begin();
            let d =
                cdtw_distance_metered_with_buf(&x, &y, band, SquaredCost, &mut buf, &mut NoMeter)
                    .unwrap();
            black_box((d, probe.end()))
        })
    });
    g.bench_function("cold_construction", |b| {
        b.iter(|| {
            let mut eval = BandedDtw::new(n, n, band).unwrap();
            black_box(eval.distance(&x, &y, SquaredCost).unwrap())
        })
    });
    g.finish();
}

fn metrics_overhead(c: &mut Criterion) {
    // The metrics registry's budget mirrors the other observability
    // layers: < 5 % on a real workload. The registry is touched once
    // per *request* (one `record_meter` + one latency observation), not
    // per cell, so the price must vanish next to any non-trivial DP.
    // Two states:
    //
    // * `baseline` — the metered banded kernel, registry untouched;
    // * `registry_per_call` — the full `--metrics` discipline per call:
    //   fold the meter into a registry and record the request latency.
    use std::time::Instant;
    use tsdtw_core::dtw::banded::cdtw_distance_metered;
    use tsdtw_core::obs::WorkMeter;
    use tsdtw_obs::MetricsRegistry;
    let x = random_walk(1024, 81).unwrap();
    let y = random_walk(1024, 82).unwrap();
    let band = 50;
    let mut g = c.benchmark_group("ablation_metrics");
    g.sample_size(30);
    g.bench_function("baseline", |b| {
        let mut meter = WorkMeter::new();
        b.iter(|| black_box(cdtw_distance_metered(&x, &y, band, SquaredCost, &mut meter).unwrap()))
    });
    g.bench_function("registry_per_call", |b| {
        let mut reg = MetricsRegistry::new();
        b.iter(|| {
            let mut meter = WorkMeter::new();
            let t0 = Instant::now();
            let d = cdtw_distance_metered(&x, &y, band, SquaredCost, &mut meter).unwrap();
            reg.record_meter(&meter);
            reg.observe_s(
                "tsdtw_request_seconds",
                "Request latency.",
                t0.elapsed().as_secs_f64(),
            );
            black_box(d)
        })
    });
    g.finish();
}

fn fastdtw_reference_vs_tuned(c: &mut Criterion) {
    // The decisive ablation for this reproduction: the canonical
    // implementation structure (cell-list window + hash-map DP) versus the
    // same algorithm sharing cDTW's banded kernel. The gap IS the paper's
    // timing result.
    let x = random_walk(512, 21).unwrap();
    let y = random_walk(512, 22).unwrap();
    let mut g = c.benchmark_group("ablation_fastdtw_impls");
    g.sample_size(15);
    for r in [1usize, 10] {
        g.bench_function(format!("reference_r{r}"), |b| {
            b.iter(|| {
                black_box(
                    tsdtw_core::fastdtw::fastdtw_ref_distance(&x, &y, r, SquaredCost).unwrap(),
                )
            })
        });
        g.bench_function(format!("tuned_r{r}"), |b| {
            b.iter(|| {
                black_box(tsdtw_core::fastdtw::fastdtw_distance(&x, &y, r, SquaredCost).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    envelopes,
    early_abandon,
    knn_cascade_vs_brute,
    funnel_overhead,
    fastdtw_recursion_overhead,
    fastdtw_reference_vs_tuned,
    kernel_tiers,
    meter_overhead,
    recorder_overhead,
    metrics_overhead,
    alloc_telemetry_overhead,
    constraint_shapes
);
criterion_main!(benches);
