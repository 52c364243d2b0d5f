//! Allocation discipline, proven by the counting allocator (DESIGN.md §12).
//!
//! These tests exercise the steady-state loops the repeated-measurement
//! workloads live in — buffered `cDTW`, the 1-NN scan body, the UCR-style
//! subsequence candidate loop — and assert with allocator-observed byte
//! counts that, once warmed, they never touch the heap again. Introducing
//! a per-call allocation anywhere on those paths (a fresh window, a
//! temporary `Vec`, a format call) fails this suite immediately.
//!
//! Measurement only happens with `--features alloc-telemetry`; without it
//! every probe reads zero and the tests degrade to functional smoke tests
//! of the same loops. Nothing here arms the span probes: an armed span
//! appends a latency sample to thread-local storage whose amortized `Vec`
//! growth is real allocator traffic, but not traffic of the algorithm
//! under test.

use tsdtw::core::cost::SquaredCost;
use tsdtw::core::dtw::banded::{cdtw_distance_metered_with_buf, BandedDtw};
use tsdtw::core::dtw::early_abandon::{cdtw_distance_ea_metered_buf_kernel, EaOutcome};
use tsdtw::core::dtw::kernel::WAVEFRONT_MIN_WIDTH;
use tsdtw::core::dtw::windowed::{windowed_distance_metered_kernel, DtwBuffer};
use tsdtw::core::fastdtw::{fastdtw_distance_metered, fastdtw_metered};
use tsdtw::core::lower_bounds::keogh::{lb_keogh_with_contrib, suffix_sums_into};
use tsdtw::core::lower_bounds::Cascade;
use tsdtw::core::norm::znorm;
use tsdtw::core::{Envelope, Kernel, SearchWindow};
use tsdtw::datasets::ecg::beats;
use tsdtw::datasets::random_walk::random_walks;
use tsdtw::mining::search::{distance_profile_par, subsequence_search_par};
use tsdtw::mining::{DistanceSpec, LabeledView, ParConfig};
use tsdtw_obs::{heap_telemetry_enabled, AllocScope, NoMeter, WorkMeter};

/// Scratch bytes a fresh buffer holds after one wavefront call on a
/// window `width` cells wide with an `m`-point `y`: three diagonals of
/// `width + 2` slots plus the reversed `y`. The row sweep fills only its
/// two `width`-slot rows, so reaching this floor marks the route.
fn wavefront_scratch_bytes(width: usize, m: usize) -> usize {
    (3 * (width + 2) + m) * std::mem::size_of::<f64>()
}

/// The analytic DP high-water mark the meters derive never exceeds the
/// bytes the allocator actually handed out at peak: the accounting is a
/// floor on reality, not an estimate that can drift above it.
#[test]
fn dp_peak_bytes_is_bounded_by_allocator_peak() {
    let pool = beats(2, 512, 0xD15C).expect("generator");
    let band = 52;

    let mut meter = WorkMeter::new();
    let probe = AllocScope::begin();
    let mut eval = BandedDtw::new(512, 512, band).expect("valid shape");
    eval.distance_metered(&pool[0], &pool[1], SquaredCost, &mut meter)
        .expect("valid inputs");
    let cold = probe.end();
    assert!(meter.dp_peak_bytes > 0);
    if heap_telemetry_enabled() {
        assert!(
            meter.dp_peak_bytes <= cold.peak_bytes,
            "metered DP peak {} exceeds allocator-observed peak {}",
            meter.dp_peak_bytes,
            cold.peak_bytes
        );
    }

    // FastDTW through both entries: with the path, and distance-only.
    for path in [true, false] {
        let mut meter = WorkMeter::new();
        let probe = AllocScope::begin();
        if path {
            fastdtw_metered(&pool[0], &pool[1], 1, SquaredCost, &mut meter).expect("valid inputs");
        } else {
            fastdtw_distance_metered(&pool[0], &pool[1], 1, SquaredCost, &mut meter)
                .expect("valid inputs");
        }
        let fast = probe.end();
        assert!(meter.dp_peak_bytes > 0);
        if heap_telemetry_enabled() {
            assert!(
                meter.dp_peak_bytes <= fast.peak_bytes,
                "FastDTW (path: {path}) metered DP peak {} exceeds allocator-observed peak {}",
                meter.dp_peak_bytes,
                fast.peak_bytes
            );
        }
    }
}

/// A warmed `BandedDtw` evaluator (owned window + scratch rows) makes
/// zero allocations per call, across many calls and differing inputs of
/// the same shape — on the row sweep (band 26) and on the wavefront
/// route `Auto` takes for windows at least `WAVEFRONT_MIN_WIDTH` wide.
#[test]
fn warmed_banded_evaluator_never_allocates() {
    let n = 256;
    let pool = beats(6, n, 0xD15C + 1).expect("generator");
    for band in [26, WAVEFRONT_MIN_WIDTH / 2] {
        let wide = 2 * band + 1 >= WAVEFRONT_MIN_WIDTH;

        // Warm-up: the first call sizes the scratch. Its allocations
        // reveal the route: Auto must allocate exactly what the forced
        // tier of its route does, not what the other one does.
        let cold_allocs = |kernel: Kernel| {
            let mut eval = BandedDtw::new(n, n, band).expect("valid shape");
            let probe = AllocScope::begin();
            eval.distance_metered_kernel(&pool[0], &pool[1], SquaredCost, &mut NoMeter, kernel)
                .expect("valid inputs");
            probe.end().allocs
        };
        if heap_telemetry_enabled() {
            let (taken, other) = if wide {
                (Kernel::Wavefront, Kernel::Segmented)
            } else {
                (Kernel::Segmented, Kernel::Wavefront)
            };
            assert_eq!(cold_allocs(Kernel::Auto), cold_allocs(taken), "band {band}");
            assert_ne!(cold_allocs(Kernel::Auto), cold_allocs(other), "band {band}");
        }
        let mut eval = BandedDtw::new(n, n, band).expect("valid shape");
        let d0 = eval
            .distance(&pool[0], &pool[1], SquaredCost)
            .expect("valid inputs");

        let probe = AllocScope::begin();
        let mut acc = 0u64;
        for x in &pool {
            for y in &pool {
                let d = eval.distance(x, y, SquaredCost).expect("valid inputs");
                acc += u64::from(d.is_finite());
            }
        }
        let d1 = eval
            .distance(&pool[0], &pool[1], SquaredCost)
            .expect("valid inputs");
        let warm = probe.end();

        assert_eq!(acc, (pool.len() * pool.len()) as u64);
        assert_eq!(d0.to_bits(), d1.to_bits(), "warm call changed the result");
        if heap_telemetry_enabled() {
            assert!(
                warm.is_zero(),
                "warmed BandedDtw loop (band {band}) touched the heap: {warm:?}"
            );
        }
    }
}

/// The buffered free-function path (`cdtw_distance_metered_with_buf` with
/// a hoisted [`DtwBuffer`]) is allocation-free once the buffer has seen
/// the shape: the memoized window plus capacity-retaining rows (or
/// diagonals, on the wavefront route) cover every subsequent call.
#[test]
fn warmed_buffered_cdtw_never_allocates() {
    let n = 200;
    let pool = random_walks(5, n, 0xD15C + 2).expect("generator");
    for band in [20, WAVEFRONT_MIN_WIDTH / 2] {
        let mut buf = DtwBuffer::new();
        let mut meter = WorkMeter::new();

        // Warm-up builds the window and grows the scratch through `buf`.
        cdtw_distance_metered_with_buf(&pool[0], &pool[1], band, SquaredCost, &mut buf, &mut meter)
            .expect("valid inputs");
        let warmed_capacity = buf.capacity_bytes();
        let width = SearchWindow::sakoe_chiba(n, n, band).max_row_width();
        assert!(warmed_capacity > 0, "warm-up must leave scratch behind");
        assert_eq!(
            warmed_capacity >= wavefront_scratch_bytes(width, n),
            width >= WAVEFRONT_MIN_WIDTH,
            "band {band} took the wrong route"
        );

        let probe = AllocScope::begin();
        for x in &pool {
            for y in &pool {
                cdtw_distance_metered_with_buf(x, y, band, SquaredCost, &mut buf, &mut meter)
                    .expect("valid inputs");
            }
        }
        let warm = probe.end();

        assert_eq!(
            buf.capacity_bytes(),
            warmed_capacity,
            "steady-state calls must not grow the scratch"
        );
        if heap_telemetry_enabled() {
            assert!(
                warm.is_zero(),
                "warmed buffered cDTW loop (band {band}) touched the heap: {warm:?}"
            );
        }
    }
}

/// The wavefront route's scratch is O(band width), not O(series length):
/// after warm-up calls through both the row sweep and the wavefront on
/// one buffer, it holds at most the sweep's two rows, three diagonals of
/// `width + 2` slots, and the reversed `y` — however long the series —
/// and further calls never grow it.
#[test]
fn wavefront_scratch_is_bounded_by_window_width() {
    let (n, m) = (4096usize, 3500usize);
    let pool = random_walks(2, n, 0xD15C + 7).expect("generator");
    let (x, y) = (&pool[0][..], &pool[1][..m]);
    let band = WAVEFRONT_MIN_WIDTH;
    let w = SearchWindow::sakoe_chiba(n, m, band);
    let width = w.max_row_width();
    assert!(width >= WAVEFRONT_MIN_WIDTH && width < m / 10);

    let mut buf = DtwBuffer::new();
    let mut meter = WorkMeter::new();
    let mut call = |kernel: Kernel, buf: &mut DtwBuffer| {
        windowed_distance_metered_kernel(x, y, &w, SquaredCost, buf, &mut meter, kernel)
            .expect("valid inputs")
    };
    let swept = call(Kernel::Segmented, &mut buf);
    let auto = call(Kernel::Auto, &mut buf);
    assert_eq!(swept.to_bits(), auto.to_bits());

    let warmed = buf.capacity_bytes();
    let bound = (2 * width + 3 * (width + 2) + m) * std::mem::size_of::<f64>();
    assert!(
        warmed >= wavefront_scratch_bytes(width, m),
        "Auto must take the wavefront route at width {width}"
    );
    assert!(
        warmed <= bound,
        "wavefront scratch {warmed} B exceeds the O(width) bound {bound} B"
    );

    let probe = AllocScope::begin();
    for _ in 0..3 {
        assert_eq!(call(Kernel::Auto, &mut buf).to_bits(), auto.to_bits());
    }
    let warm = probe.end();
    assert_eq!(buf.capacity_bytes(), warmed);
    if heap_telemetry_enabled() {
        assert!(
            warm.is_zero(),
            "warmed wavefront calls touched the heap: {warm:?}"
        );
    }
}

/// The 1-NN scan body — `DistanceSpec::eval_metered_buf` over a training
/// set with one hoisted buffer, exactly the loop `nn_brute_force` runs —
/// allocates nothing after its first comparison.
#[test]
fn warmed_knn_scan_body_never_allocates() {
    let n = 128;
    let series = beats(9, n, 0xD15C + 3).expect("generator");
    let labels: Vec<usize> = (0..series.len()).map(|i| i % 2).collect();
    let train = LabeledView::new(&series[1..], &labels[1..]).expect("valid view");
    let query = &series[0];
    let spec = DistanceSpec::CdtwBand(13);

    let mut meter = WorkMeter::new();
    let mut buf = DtwBuffer::new();
    // Warm-up: one comparison sizes the scratch for the whole scan.
    spec.eval_metered_buf(query, &train.series[0], &mut meter, &mut buf)
        .expect("valid inputs");

    let probe = AllocScope::begin();
    let mut best = f64::INFINITY;
    let mut best_idx = usize::MAX;
    for (i, s) in train.series.iter().enumerate() {
        let d = spec
            .eval_metered_buf(query, s, &mut meter, &mut buf)
            .expect("valid inputs");
        if d < best {
            best = d;
            best_idx = i;
        }
    }
    let warm = probe.end();

    assert!(best.is_finite());
    assert!(best_idx != usize::MAX);
    if heap_telemetry_enabled() {
        assert!(
            warm.is_zero(),
            "warmed 1-NN scan body touched the heap: {warm:?}"
        );
    }
}

/// The subsequence-search candidate loop — just-in-time z-normalization,
/// LB_Keogh contributions, suffix-summed cumulative bound, and
/// early-abandoning DTW, all through hoisted buffers — runs candidate
/// after candidate without a single allocation once the first candidate
/// has sized everything.
#[test]
fn warmed_subsequence_candidate_loop_never_allocates() {
    let m = 128;
    let band = 13;
    let haystack = random_walks(1, 1024, 0xD15C + 4)
        .expect("generator")
        .remove(0);
    let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();

    let q = znorm(&query).expect("non-constant query");
    let env = Envelope::new(&q, band).expect("valid envelope");

    let mut window = vec![0.0; m];
    let mut contrib: Vec<f64> = Vec::new();
    let mut cb: Vec<f64> = Vec::new();
    let mut dtw_buf = DtwBuffer::new();
    let mut meter = WorkMeter::new();

    let mut bsf = f64::INFINITY;
    let mut exact = 0usize;
    let mut abandoned = 0usize;

    let run_candidate = |pos: usize,
                         bsf: &mut f64,
                         window: &mut Vec<f64>,
                         contrib: &mut Vec<f64>,
                         cb: &mut Vec<f64>,
                         dtw_buf: &mut DtwBuffer,
                         meter: &mut WorkMeter|
     -> EaOutcome {
        let slice = &haystack[pos..pos + m];
        let mean = slice.iter().sum::<f64>() / m as f64;
        let var = (slice.iter().map(|v| v * v).sum::<f64>() / m as f64 - mean * mean).max(0.0);
        let inv = if var.sqrt() > f64::EPSILON {
            1.0 / var.sqrt()
        } else {
            0.0
        };
        for (w, &v) in window.iter_mut().zip(slice) {
            *w = (v - mean) * inv;
        }
        let _ = lb_keogh_with_contrib(window, &env, contrib).expect("valid inputs");
        suffix_sums_into(contrib, cb);
        let out = cdtw_distance_ea_metered_buf_kernel(
            &q,
            window,
            band,
            *bsf,
            Some(cb),
            SquaredCost,
            dtw_buf,
            meter,
            Kernel::Auto,
        )
        .expect("valid inputs");
        if let EaOutcome::Exact(d) = out {
            if d < *bsf {
                *bsf = d;
            }
        }
        out
    };

    // Warm-up candidate sizes window cache, rows, contrib and cb.
    run_candidate(
        0,
        &mut bsf,
        &mut window,
        &mut contrib,
        &mut cb,
        &mut dtw_buf,
        &mut meter,
    );

    let probe = AllocScope::begin();
    for pos in 1..=(haystack.len() - m) {
        match run_candidate(
            pos,
            &mut bsf,
            &mut window,
            &mut contrib,
            &mut cb,
            &mut dtw_buf,
            &mut meter,
        ) {
            EaOutcome::Exact(_) => exact += 1,
            EaOutcome::Abandoned { .. } => abandoned += 1,
        }
    }
    let warm = probe.end();

    assert!(
        bsf.is_finite(),
        "search must complete at least one candidate"
    );
    assert!(exact >= 1);
    // Early abandoning must actually fire on a random-walk haystack.
    assert!(
        abandoned >= 1,
        "no candidate abandoned — threshold plumbing broken?"
    );
    if heap_telemetry_enabled() {
        assert!(
            warm.is_zero(),
            "warmed subsequence candidate loop touched the heap: {warm:?}"
        );
    }

    // The library's own loop, as the benchmark times it: the executor's
    // search at one worker makes the same number of allocations on a
    // haystack four times as long, so none of them is per window.
    let long = random_walks(1, 4096, 0xD15C + 5)
        .expect("generator")
        .remove(0);
    let search_allocs = |hay: &[f64]| {
        let probe = AllocScope::begin();
        let hit = subsequence_search_par(hay, &query, band, &ParConfig::serial(), &mut NoMeter)
            .expect("valid inputs");
        (probe.end(), hit.stats.dtw_exact + hit.stats.dtw_abandoned)
    };
    let (short_heap, short_dp) = search_allocs(&haystack);
    let (long_heap, long_dp) = search_allocs(&long);
    assert!(
        short_dp >= 1 && long_dp > short_dp,
        "{short_dp} vs {long_dp} DP entrants"
    );
    if heap_telemetry_enabled() {
        assert_eq!(
            (short_heap.allocs, short_heap.reallocs),
            (long_heap.allocs, long_heap.reallocs),
            "the search's allocations grow with the haystack: {short_heap:?} vs {long_heap:?}"
        );
    }
}

/// The distance profile (`search --top K`) evaluates every window, so it
/// cannot skip the DP the way the pruned search does, but it shares its
/// scratch: each run of `chunk` windows reuses one window buffer and one
/// [`DtwBuffer`], so the heap sees a handful of allocations per run, not
/// several per window.
#[test]
fn distance_profile_allocates_per_run_not_per_window() {
    let m = 64;
    let haystack = random_walks(1, 4096, 0xD15C + 7)
        .expect("generator")
        .remove(0);
    let query: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
    let windows = haystack.len() - m + 1;
    let probe = AllocScope::begin();
    let profile = distance_profile_par(&haystack, &query, 6, &ParConfig::serial(), &mut NoMeter)
        .expect("valid inputs");
    let heap = probe.end();
    assert_eq!(profile.len(), windows);
    if heap_telemetry_enabled() {
        assert!(
            (heap.allocs as usize) < windows / 8,
            "{} allocations for {windows} windows",
            heap.allocs
        );
    }
}

/// Handing a prepared [`Cascade`] to a worker is free: the query copy,
/// envelope and magnitude sort order live behind a shared `Arc`, so each
/// per-worker clone is one refcount bump plus empty scratch — zero heap
/// traffic. This is the contract `nn_cascade_par` relies on to keep its
/// worker setup allocation-free after the single up-front preparation.
#[test]
fn prepared_cascade_clone_never_allocates() {
    let n = 256;
    let band = 26;
    let pool = beats(3, n, 0xD15C + 6).expect("generator");
    let cascade = Cascade::new(&pool[0], band).expect("valid query");

    // The clone vector is pre-sized so the probe sees only the clones.
    let mut clones: Vec<Cascade> = Vec::with_capacity(8);
    let probe = AllocScope::begin();
    for _ in 0..8 {
        clones.push(cascade.clone());
    }
    let cloning = probe.end();
    if heap_telemetry_enabled() {
        assert!(
            cloning.is_zero(),
            "cloning a prepared cascade touched the heap: {cloning:?}"
        );
    }

    // The clones are real workers, not hollow shells: each disposes of a
    // candidate exactly as the original would.
    let mut original = cascade;
    let expected = original
        .evaluate(&pool[1], f64::INFINITY)
        .expect("valid candidate");
    for mut c in clones {
        let got = c
            .evaluate(&pool[1], f64::INFINITY)
            .expect("valid candidate");
        assert_eq!(got.stage, expected.stage);
        assert_eq!(got.value.to_bits(), expected.value.to_bits());
    }
}

/// The paper's memory claim, end to end: FastDTW's per-call transient
/// peak, with its path or distance-only, grows with its level count,
/// while banded `cDTW`'s footprint stays a band-window plus O(width) DP
/// scratch — O(N) with a small constant — so the ratio widens as series
/// grow.
#[test]
fn fastdtw_peak_grows_with_levels_while_cdtw_stays_linear() {
    if !heap_telemetry_enabled() {
        return; // nothing measurable without the counting allocator
    }
    let sizes = [1024usize, 2048, 4096, 8192];
    let mut cdtw_peaks = Vec::new();
    // Per size: the path call's peak, then the distance-only call's.
    let mut fast_peaks: Vec<[u64; 2]> = Vec::new();
    let mut levels = Vec::new();
    for (k, &n) in sizes.iter().enumerate() {
        let pool = random_walks(2, n, 0xD15C + 5 + k as u64).expect("generator");
        let band = n / 10;
        // One route for every size, so the footprints compare like for like.
        assert!(2 * band + 1 >= WAVEFRONT_MIN_WIDTH);

        let probe = AllocScope::begin();
        let mut eval = BandedDtw::new(n, n, band).expect("valid shape");
        eval.distance(&pool[0], &pool[1], SquaredCost)
            .expect("valid inputs");
        cdtw_peaks.push(probe.end().peak_bytes);

        let mut meter = WorkMeter::new();
        let probe = AllocScope::begin();
        let (_, _, stats) =
            fastdtw_metered(&pool[0], &pool[1], 1, SquaredCost, &mut meter).expect("valid inputs");
        let path_peak = probe.end().peak_bytes;
        let probe = AllocScope::begin();
        fastdtw_distance_metered(&pool[0], &pool[1], 1, SquaredCost, &mut NoMeter)
            .expect("valid inputs");
        fast_peaks.push([path_peak, probe.end().peak_bytes]);
        levels.push(stats.levels);
    }

    for i in 0..sizes.len() {
        for peak in fast_peaks[i] {
            assert!(
                peak > cdtw_peaks[i],
                "N={}: FastDTW peak {} not above cDTW peak {}",
                sizes[i],
                peak,
                cdtw_peaks[i]
            );
        }
    }
    for i in 1..sizes.len() {
        // Doubling N adds a resolution level and grows the pyramid.
        assert!(levels[i] > levels[i - 1]);
        for (now, before) in fast_peaks[i].iter().zip(&fast_peaks[i - 1]) {
            assert!(now > before);
        }
        // cDTW's footprint is O(N): doubling N at a fixed band percentage
        // can at most roughly double it (slack for allocator rounding).
        assert!(
            cdtw_peaks[i] <= cdtw_peaks[i - 1] * 3,
            "cDTW peak jumped superlinearly: {} -> {}",
            cdtw_peaks[i - 1],
            cdtw_peaks[i]
        );
    }
}
