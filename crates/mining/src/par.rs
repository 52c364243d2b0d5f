//! The deterministic chunked parallel executor.
//!
//! Every mining scan in this crate runs on one of the two primitives
//! here, and both share one contract: **the result — and every merged
//! [`WorkMeter`](tsdtw_obs::WorkMeter) counter — is bitwise identical at
//! any `n_threads` for a fixed [`ParConfig::chunk`]**. That is what lets
//! the perf gate keep hard-failing on work-counter drift no matter how
//! many threads a run used. Each task exists once, as its `*_par` form;
//! the serial names call it at one worker.
//!
//! * [`par_map`] — independent items (all-pairs distances, per-query
//!   classification, DBA alignments). Each item is evaluated with a
//!   private meter shard ([`MeterShard::fresh`]) and the shards are
//!   absorbed into the caller's meter **in item-index order**, so the
//!   merged meter equals the serial one exactly — including the
//!   order-sensitive FastDTW per-level list. Workers claim items one at
//!   a time, so every worker finds work however few items there are.
//!   The serial names run it at [`ParConfig::serial`].
//! * [`par_fold_argmin`] — best-so-far-pruned scans (the 1-NN cascade,
//!   subsequence search, motif/discord rows). Items are processed in
//!   *chunk-synchronous* rounds: within a chunk every item is evaluated
//!   against the best-so-far **frozen at the chunk boundary**, and the
//!   bound only advances when the chunk's results merge, scanned in
//!   index order with strict `<` (equal values keep the lower index).
//!   Pruning decisions therefore depend only on (item index, chunk-start
//!   bound) — never on thread interleaving — which makes the work
//!   counters a pure function of the chunk size. With `chunk = 1` the
//!   frozen bound refreshes after every item: the continuous best-so-far
//!   of a plain serial loop, which is how the serial names run it (one
//!   worker, `chunk = 1`).
//!
//! With `n_threads == 1` neither primitive spawns: the loop runs inline
//! on the caller's thread, writing straight into the caller's meter.
//! Worker panics are caught at join and surfaced as
//! [`Error::WorkerPanicked`] instead of a hang; item errors are reported
//! deterministically — the first error in item order wins, and shards of
//! later items are discarded so the caller's meter ends in the same
//! state at any thread count.
//!
//! Heap counters (`tsdtw-obs --features alloc-telemetry`) follow the
//! same contract: every item is measured by its own
//! [`AllocScope`] on whichever thread ran it, the deltas are credited
//! to the caller in item-index order, and an
//! [`AllocRegion`] erases the executor's own
//! machinery (result slots and vectors, spawn closures) from the
//! account — so the caller's heap counters after a run are bitwise
//! identical at any thread count for deterministic per-item workloads.
//! (Meters that themselves allocate, like `WorkMeter`'s FastDTW level
//! list, and panic paths that leave the region unfinished are the
//! documented exceptions; see DESIGN.md §12.) With telemetry off the
//! probes are unit structs and all of this compiles away.

use std::sync::atomic::{AtomicUsize, Ordering};
use tsdtw_core::error::{Error, Result};
use tsdtw_obs::{
    absorb_raw_spans, drain_raw_spans, AllocDelta, AllocRegion, AllocScope, MeterShard,
};

/// Default chunk size: large enough to amortize per-chunk spawn and
/// merge costs, small enough that the frozen best-so-far of
/// [`par_fold_argmin`] stays close to the continuous one.
pub const DEFAULT_CHUNK: usize = 64;

/// How a parallel entry point should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Worker threads. `1` means run inline on the caller's thread
    /// (no spawn at all). Must be at least 1.
    pub n_threads: usize,
    /// Items per scheduling chunk of [`par_fold_argmin`], which is also
    /// the granularity at which its frozen best-so-far advances
    /// ([`par_map`] claims items one at a time). Must be at least 1.
    /// Results depend on `chunk` only through the frozen-bound
    /// semantics — never on `n_threads`.
    pub chunk: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self::serial()
    }
}

impl ParConfig {
    /// Single-threaded execution with the default chunk size.
    pub fn serial() -> Self {
        ParConfig {
            n_threads: 1,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// `n_threads` workers with the default chunk size.
    pub fn new(n_threads: usize) -> Result<Self> {
        Self::with_chunk(n_threads, DEFAULT_CHUNK)
    }

    /// Fully explicit configuration.
    pub fn with_chunk(n_threads: usize, chunk: usize) -> Result<Self> {
        let cfg = ParConfig { n_threads, chunk };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks both fields are at least 1.
    pub fn validate(&self) -> Result<()> {
        if self.n_threads == 0 {
            return Err(Error::InvalidParameter {
                name: "n_threads",
                reason: "at least one worker thread is required".into(),
            });
        }
        if self.chunk == 0 {
            return Err(Error::InvalidParameter {
                name: "chunk",
                reason: "chunk size must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// One worker with the bound refreshed after every item: the continuous
/// best-so-far of a plain serial scan, which the serial names of the
/// pruned scans (`nn_cascade`, `subsequence_search`, `top_motif`,
/// `top_discord`) run [`par_fold_argmin`] at.
pub(crate) const CONTINUOUS: ParConfig = ParConfig {
    n_threads: 1,
    chunk: 1,
};

/// The winner of a [`par_fold_argmin`] run: the `(item_index, value)`
/// pair achieving the minimum, or `None` when nothing scored below the
/// fold's `init` bound.
pub type Argmin = Option<(usize, f64)>;

/// Renders a worker panic payload as [`Error::WorkerPanicked`].
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> Error {
    let reason = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into());
    Error::WorkerPanicked { reason }
}

/// Maps `f` over `items` with `cfg.n_threads` workers, absorbing each
/// item's private meter shard into `meter` in item-index order.
///
/// `f` receives `(item_index, &item, &mut shard)` and must not depend on
/// any state mutated by other items — the executor may evaluate items in
/// any order across threads. Results come back in item order. The first
/// error in item order is returned, with the shards of all later items
/// discarded (so the meter ends identically at any thread count); a
/// worker panic surfaces as [`Error::WorkerPanicked`].
pub fn par_map<T, R, M, F>(cfg: &ParConfig, items: &[T], meter: &mut M, f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    M: MeterShard,
    F: Fn(usize, &T, &mut M) -> Result<R> + Sync,
{
    cfg.validate()?;
    if items.is_empty() {
        return Ok(Vec::new());
    }
    if cfg.n_threads == 1 {
        // Inline: no spawn, no sharding — byte-identical to a plain
        // loop. Items are still bracketed by per-item alloc probes and
        // credited through a region, so the heap account matches the
        // parallel path exactly (items only, machinery erased).
        let mut region = AllocRegion::begin();
        let mut out = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let probe = AllocScope::begin();
            let r = f(i, item, meter);
            region.credit(&probe.end());
            match r {
                Ok(v) => out.push(v),
                Err(e) => {
                    region.finish();
                    return Err(e);
                }
            }
        }
        region.finish();
        return Ok(out);
    }

    // Items are claimed one at a time: they are independent, so the
    // schedule moves no outcome, shard or heap delta (all merge in item
    // order below), and every worker finds work however few items there
    // are. `cfg.chunk` shapes only the fold's frozen bound.
    let mut region = AllocRegion::begin();
    let workers = cfg.n_threads.min(items.len());
    let next = AtomicUsize::new(0);
    let handoff = tsdtw_obs::recorder_handoff();

    type Eval<R, M> = (Result<R>, M, AllocDelta);
    type WorkerYield<R, M> = (
        Vec<(usize, Eval<R, M>)>,
        tsdtw_obs::RawSpans,
        Option<tsdtw_obs::Trace>,
    );
    let joined: Vec<std::thread::Result<WorkerYield<R, M>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                let f = &f;
                scope.spawn(move || {
                    if let Some(h) = handoff {
                        tsdtw_obs::recorder_start_shard(h);
                    }
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        let mut shard = M::fresh();
                        let probe = AllocScope::begin();
                        let r = f(i, item, &mut shard);
                        mine.push((i, (r, shard, probe.end())));
                    }
                    (mine, drain_raw_spans(), tsdtw_obs::recorder_stop())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut evals: Vec<Option<Eval<R, M>>> = (0..items.len()).map(|_| None).collect();
    let mut first_panic = None;
    for j in joined {
        match j {
            Ok((mine, raw, shard_trace)) => {
                for (i, eval) in mine {
                    evals[i] = Some(eval);
                }
                absorb_raw_spans(raw);
                if let Some(t) = shard_trace {
                    tsdtw_obs::recorder_absorb(t);
                }
            }
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(panic_error(payload));
                }
            }
        }
    }
    if let Some(e) = first_panic {
        return Err(e);
    }

    let mut out = Vec::with_capacity(items.len());
    let mut first_err: Option<Error> = None;
    for eval in evals {
        let (r, shard, heap) = eval.expect("every item was claimed by a worker");
        meter.absorb(shard);
        region.credit(&heap);
        match r {
            Ok(v) => out.push(v),
            Err(e) => {
                // Deltas up to and including the failing item are
                // credited — the same prefix the inline path keeps.
                // Breaking (rather than returning) lets the remaining
                // items drop *inside* the region, so their
                // worker-allocated storage is erased with the rest of
                // the machinery.
                first_err = Some(e);
                break;
            }
        }
    }
    region.finish();
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Chunk-synchronous best-so-far fold: evaluates `items` in chunks of
/// `cfg.chunk`, each item against the bound **frozen at its chunk's
/// start**, and advances the bound by scanning the chunk's results in
/// index order (strict `<`; equal values keep the lower index).
///
/// * `make_ctx` builds one worker-local scratch context per worker per
///   chunk (e.g. a cloned pruning cascade); contexts never cross threads.
/// * `eval` receives `(ctx, item_index, &item, frozen_bound, &mut shard)`
///   and its metered work must depend only on the item and the bound.
/// * `take` receives every outcome, in item order and on the calling
///   thread, and returns the value it puts up for the minimum (`None`
///   does not compete). The caller tallies outcomes or keeps what it
///   needs of the winner there; the fold stores nothing per item past
///   its chunk.
///
/// Returns the winning `(item_index, value)`, `None` when nothing scored
/// below `init`. With `chunk = 1` the bound refreshes after every item,
/// i.e. exactly the continuous best-so-far loop of a plain serial scan.
pub fn par_fold_argmin<T, C, E, M, FC, F, K>(
    cfg: &ParConfig,
    items: &[T],
    meter: &mut M,
    init: f64,
    make_ctx: FC,
    eval: F,
    mut take: K,
) -> Result<Argmin>
where
    T: Sync,
    E: Send,
    M: MeterShard,
    FC: Fn() -> Result<C> + Sync,
    F: Fn(&mut C, usize, &T, f64, &mut M) -> Result<E> + Sync,
    K: FnMut(E) -> Option<f64>,
{
    cfg.validate()?;
    if items.is_empty() {
        return Ok(None);
    }
    let bound = |best: Argmin| best.map_or(init, |(_, v)| v);
    let mut best: Argmin = None;
    let mut merge = |best: &mut Argmin, i: usize, e: E| {
        if let Some(v) = take(e) {
            if v < bound(*best) {
                *best = Some((i, v));
            }
        }
    };

    if cfg.n_threads == 1 {
        // Inline, but with the same chunk-frozen bound semantics as the
        // parallel path so counters do not depend on the thread count.
        // Context construction sits outside the item probes in both
        // paths, so it is machinery the region erases.
        let mut region = AllocRegion::begin();
        let run = (|| -> Result<()> {
            let mut ctx = make_ctx()?;
            for (c, chunk) in items.chunks(cfg.chunk).enumerate() {
                let frozen = bound(best);
                for (k, item) in chunk.iter().enumerate() {
                    let i = c * cfg.chunk + k;
                    let probe = AllocScope::begin();
                    let r = eval(&mut ctx, i, item, frozen, meter);
                    region.credit(&probe.end());
                    merge(&mut best, i, r?);
                }
            }
            Ok(())
        })();
        region.finish();
        return run.map(|()| best);
    }

    let mut region = AllocRegion::begin();
    let mut fold_err: Option<Error> = None;
    'rounds: for (c, slice) in items.chunks(cfg.chunk).enumerate() {
        let start = c * cfg.chunk;
        let frozen = bound(best);
        let workers = cfg.n_threads.min(slice.len());
        let handoff = tsdtw_obs::recorder_handoff();

        type WorkerOut<E, M> = Result<Vec<(usize, Result<E>, M, AllocDelta)>>;
        type FoldYield<E, M> = (
            WorkerOut<E, M>,
            tsdtw_obs::RawSpans,
            Option<tsdtw_obs::Trace>,
        );
        let joined: Vec<std::thread::Result<FoldYield<E, M>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let make_ctx = &make_ctx;
                    let eval = &eval;
                    scope.spawn(move || {
                        if let Some(h) = handoff {
                            tsdtw_obs::recorder_start_shard(h);
                        }
                        let run = || -> WorkerOut<E, M> {
                            let mut ctx = make_ctx()?;
                            let mut out = Vec::new();
                            let mut k = w;
                            while k < slice.len() {
                                let mut shard = M::fresh();
                                let probe = AllocScope::begin();
                                let r = eval(&mut ctx, start + k, &slice[k], frozen, &mut shard);
                                let heap = probe.end();
                                out.push((k, r, shard, heap));
                                k += workers;
                            }
                            Ok(out)
                        };
                        (run(), drain_raw_spans(), tsdtw_obs::recorder_stop())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        });

        let mut slots: Vec<Option<(Result<E>, M, AllocDelta)>> =
            (0..slice.len()).map(|_| None).collect();
        let mut first_panic = None;
        let mut ctx_error = None;
        for j in joined {
            match j {
                Ok((worker_out, raw, shard_trace)) => {
                    match worker_out {
                        Ok(entries) => {
                            for (k, r, shard, heap) in entries {
                                slots[k] = Some((r, shard, heap));
                            }
                        }
                        Err(e) => {
                            if ctx_error.is_none() {
                                ctx_error = Some(e);
                            }
                        }
                    }
                    absorb_raw_spans(raw);
                    if let Some(t) = shard_trace {
                        tsdtw_obs::recorder_absorb(t);
                    }
                }
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(panic_error(payload));
                    }
                }
            }
        }
        if let Some(e) = first_panic {
            return Err(e);
        }
        if let Some(e) = ctx_error {
            // Breaking lets the evaluated slots drop inside the region,
            // erased as machinery (nothing from this round is credited).
            fold_err = Some(e);
            break 'rounds;
        }

        for (k, slot) in slots.into_iter().enumerate() {
            let (r, shard, heap) = slot.expect("every slice item was evaluated");
            meter.absorb(shard);
            region.credit(&heap);
            match r {
                Ok(e) => merge(&mut best, start + k, e),
                Err(err) => {
                    fold_err = Some(err);
                    break 'rounds;
                }
            }
        }
    }
    region.finish();
    match fold_err {
        Some(e) => Err(e),
        None => Ok(best),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsdtw_obs::{Meter, NoMeter, WorkMeter};

    fn items(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 37 % 101) as f64) * 0.5).collect()
    }

    #[test]
    fn config_rejects_zero_threads_and_zero_chunk() {
        assert!(ParConfig::new(0).is_err());
        assert!(ParConfig::with_chunk(2, 0).is_err());
        assert!(ParConfig::with_chunk(1, 1).is_ok());
        let bad = ParConfig {
            n_threads: 0,
            chunk: 4,
        };
        assert!(par_map(&bad, &[1.0], &mut NoMeter, |_, v, _| Ok(*v)).is_err());
    }

    #[test]
    fn single_thread_runs_inline_without_spawning() {
        let caller = std::thread::current().id();
        let cfg = ParConfig::serial();
        let out = par_map(&cfg, &items(10), &mut NoMeter, |i, v, _| {
            assert_eq!(std::thread::current().id(), caller, "item {i} spawned");
            Ok(v * 2.0)
        })
        .unwrap();
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn map_results_and_meters_match_serial_at_any_thread_count() {
        let data = items(57);
        let cfg1 = ParConfig::with_chunk(1, 8).unwrap();
        let mut m1 = WorkMeter::new();
        let expect = par_map(&cfg1, &data, &mut m1, |i, v, m| {
            m.cells((i as u64 % 5) + 1);
            Ok(v + i as f64)
        })
        .unwrap();
        for threads in [2usize, 3, 7, 16] {
            let cfg = ParConfig::with_chunk(threads, 8).unwrap();
            let mut m = WorkMeter::new();
            let out = par_map(&cfg, &data, &mut m, |i, v, mm| {
                mm.cells((i as u64 % 5) + 1);
                Ok(v + i as f64)
            })
            .unwrap();
            assert_eq!(out, expect, "{threads} threads");
            assert_eq!(m, m1, "{threads} threads");
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let cfg = ParConfig::with_chunk(32, 2).unwrap();
        let out = par_map(&cfg, &items(3), &mut NoMeter, |_, v, _| Ok(*v)).unwrap();
        assert_eq!(out, items(3));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let cfg = ParConfig::new(4).unwrap();
        let data: Vec<f64> = Vec::new();
        assert!(par_map(&cfg, &data, &mut NoMeter, |_, v, _| Ok(*v))
            .unwrap()
            .is_empty());
        let mut seen = 0;
        let best = par_fold_argmin(
            &cfg,
            &data,
            &mut NoMeter,
            f64::INFINITY,
            || Ok(()),
            |_, _, v, _, _| Ok(*v),
            |v| {
                seen += 1;
                Some(v)
            },
        )
        .unwrap();
        assert!(best.is_none());
        assert_eq!(seen, 0);
    }

    #[test]
    fn first_error_in_item_order_wins_and_meter_is_deterministic() {
        let data = items(40);
        let run = |threads: usize| {
            let cfg = ParConfig::with_chunk(threads, 4).unwrap();
            let mut m = WorkMeter::new();
            let r = par_map(&cfg, &data, &mut m, |i, v, mm| {
                mm.cells(1);
                if i == 17 || i == 33 {
                    Err(Error::InvalidParameter {
                        name: "item",
                        reason: format!("boom at {i}"),
                    })
                } else {
                    Ok(*v)
                }
            });
            (r.unwrap_err(), m)
        };
        let (e1, m1) = run(1);
        assert!(e1.to_string().contains("boom at 17"), "{e1}");
        for threads in [2usize, 5] {
            let (e, m) = run(threads);
            assert_eq!(e, e1, "{threads} threads");
            // Shards past the failing item are discarded: 17 successes
            // plus the failing item's own shard.
            assert_eq!(m, m1, "{threads} threads");
            assert_eq!(m.cells, 18);
        }
    }

    #[test]
    fn worker_panic_becomes_an_error_not_a_hang() {
        let data = items(20);
        for threads in [1usize, 4] {
            let cfg = ParConfig::with_chunk(threads, 2).unwrap();
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                par_map(&cfg, &data, &mut NoMeter, |i, v, _| {
                    if i == 9 {
                        panic!("poisoned worker");
                    }
                    Ok(*v)
                })
            }));
            if threads == 1 {
                // Inline execution propagates the panic like a plain loop.
                assert!(r.is_err());
            } else {
                let err = r.expect("no panic crosses par_map").unwrap_err();
                match err {
                    Error::WorkerPanicked { reason } => {
                        assert!(reason.contains("poisoned worker"), "{reason}")
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn worker_panic_leaves_the_callers_next_span_at_the_root() {
        // Companion to the panic-containment test above, for the span
        // table: a worker that dies mid-span takes its table with it
        // (the survivors' rows are absorbed at the root), and the
        // caller's span around the scan still closes, so the caller's
        // next span opens at the root — not under a stale row.
        let data = items(20);
        let cfg = ParConfig::with_chunk(4, 2).unwrap();
        let armed = tsdtw_obs::arm_spans();
        let _ = tsdtw_obs::take_spans();
        let err = {
            let _scan = tsdtw_obs::span("par_panic_scan");
            par_map(&cfg, &data, &mut NoMeter, |i, v, _| {
                let _g = tsdtw_obs::span("par_panic_item");
                if i == 9 {
                    panic!("poisoned worker mid-span");
                }
                Ok(*v)
            })
            .unwrap_err()
        };
        assert!(matches!(err, Error::WorkerPanicked { .. }), "{err:?}");
        {
            let _next = tsdtw_obs::span("par_after_panic");
        }
        drop(armed);
        let profile = tsdtw_obs::ProfileReport::new(0.0, &tsdtw_obs::drain_raw_spans());
        let stacks: Vec<&str> = profile.folded.iter().map(|(s, _)| s.as_str()).collect();
        assert!(stacks.contains(&"par_after_panic"), "{stacks:?}");
        assert!(
            !stacks.iter().any(|s| s.ends_with(";par_after_panic")),
            "{stacks:?}"
        );
    }

    #[test]
    fn par_map_spreads_few_items_over_every_worker() {
        // 30 items, fewer than one default chunk: each item waits until
        // two distinct threads have started items, so a pool that hands
        // every item to one worker times out instead of hanging.
        let data = items(30);
        let cfg = ParConfig::new(2).unwrap();
        let seen = (std::sync::Mutex::new(Vec::new()), std::sync::Condvar::new());
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        par_map(&cfg, &data, &mut NoMeter, |_, v, _| {
            let (lock, started) = &seen;
            let mut threads = lock.lock().unwrap();
            let me = std::thread::current().id();
            if !threads.contains(&me) {
                threads.push(me);
                started.notify_all();
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let _ = started
                .wait_timeout_while(threads, left, |t| t.len() < 2)
                .unwrap();
            Ok(*v)
        })
        .unwrap();
        let threads = seen.0.into_inner().unwrap();
        assert_eq!(threads.len(), 2, "one worker ran every item");
    }

    /// A pruning-shaped item: cheap ("pruned", no value) when the bound
    /// already beats it, expensive ("evaluated") otherwise, so the metered
    /// work records which bound every item saw.
    fn prune_against(v: f64, bound: f64, m: &mut WorkMeter) -> f64 {
        if v >= bound {
            m.cells(1);
            f64::INFINITY
        } else {
            m.cells(10);
            v
        }
    }

    #[test]
    fn fold_matches_continuous_serial_with_chunk_one() {
        // Reference: the classic continuous best-so-far loop, whose bound
        // tightens after every item.
        let data = items(63);
        let mut bsf = f64::INFINITY;
        let mut best = None;
        let mut expect_meter = WorkMeter::new();
        let mut expect_seen = Vec::new();
        for (i, &v) in data.iter().enumerate() {
            let out = prune_against(v, bsf, &mut expect_meter);
            expect_seen.push(out);
            if out < bsf {
                bsf = out;
                best = Some((i, out));
            }
        }
        for threads in [1usize, 3] {
            let cfg = ParConfig::with_chunk(threads, 1).unwrap();
            let mut m = WorkMeter::new();
            let mut seen = Vec::new();
            let got = par_fold_argmin(
                &cfg,
                &data,
                &mut m,
                f64::INFINITY,
                || Ok(()),
                |_, _, &v, bound, mm: &mut WorkMeter| Ok(prune_against(v, bound, mm)),
                |out: f64| {
                    seen.push(out);
                    out.is_finite().then_some(out)
                },
            )
            .unwrap();
            assert_eq!(got, best, "{threads} threads");
            assert_eq!(
                seen, expect_seen,
                "outcomes in item order, {threads} threads"
            );
            assert_eq!(m, expect_meter, "{threads} threads");
        }
    }

    #[test]
    fn fold_is_thread_count_invariant_for_fixed_chunk() {
        // The metered work depends on the frozen bound, the way a
        // pruning cascade's does.
        let data = items(97);
        let run = |threads: usize| {
            let cfg = ParConfig::with_chunk(threads, 8).unwrap();
            let mut m = WorkMeter::new();
            let best = par_fold_argmin(
                &cfg,
                &data,
                &mut m,
                f64::INFINITY,
                || Ok(()),
                |_, _, &v, bound, mm: &mut WorkMeter| Ok(prune_against(v, bound, mm)),
                |out: f64| out.is_finite().then_some(out),
            )
            .unwrap();
            (best, m)
        };
        let (best1, m1) = run(1);
        for threads in [2usize, 3, 7] {
            let (best, m) = run(threads);
            assert_eq!(best, best1, "{threads} threads");
            assert_eq!(m, m1, "{threads} threads");
        }
    }

    #[test]
    fn fold_argmin_ties_pick_the_lower_index() {
        // Two exact ties inside the same chunk and across chunks.
        let data = vec![5.0, 3.0, 3.0, 4.0, 3.0];
        for threads in [1usize, 2, 4] {
            let cfg = ParConfig::with_chunk(threads, 8).unwrap();
            let best = par_fold_argmin(
                &cfg,
                &data,
                &mut NoMeter,
                f64::INFINITY,
                || Ok(()),
                |_, _, v, _, _| Ok(*v),
                Some,
            )
            .unwrap();
            assert_eq!(best, Some((1, 3.0)), "{threads} threads");
        }
    }

    #[test]
    fn fold_context_errors_propagate() {
        let data = items(8);
        let cfg = ParConfig::new(3).unwrap();
        let r: Result<Argmin> = par_fold_argmin(
            &cfg,
            &data,
            &mut NoMeter,
            f64::INFINITY,
            || -> Result<()> {
                Err(Error::InvalidParameter {
                    name: "ctx",
                    reason: "no context today".into(),
                })
            },
            |_, _, v, _, _| Ok(*v),
            Some,
        );
        assert!(r.unwrap_err().to_string().contains("no context today"));
    }

    /// Heap-counter invariance: with the counting allocator armed, the
    /// caller's credited heap account after a run must be bitwise
    /// identical at any thread count (the `AllocRegion` contract).
    #[cfg(feature = "alloc-telemetry")]
    mod alloc_invariance {
        use super::*;
        use tsdtw_obs::AllocScope;

        /// Deterministic per-item workload: allocate a size that depends
        /// only on the item index, touch it, free it.
        fn item_work(i: usize) -> f64 {
            let n = 64 + (i * 113) % 1500;
            let v: Vec<u8> = vec![(i % 251) as u8; n];
            v.iter().map(|&b| b as f64).sum()
        }

        fn measured_par_map(threads: usize) -> (Vec<f64>, tsdtw_obs::AllocDelta, WorkMeter) {
            let data = items(57);
            let cfg = ParConfig::with_chunk(threads, 8).unwrap();
            let mut m = WorkMeter::new();
            let observer = AllocScope::begin();
            let out = par_map(&cfg, &data, &mut m, |i, v, mm| {
                mm.cells(1);
                Ok(v + item_work(i))
            })
            .unwrap();
            (out, observer.end(), m)
        }

        #[test]
        fn par_map_heap_account_is_thread_count_invariant() {
            let (out1, d1, m1) = measured_par_map(1);
            assert!(d1.allocs >= 57, "every item allocated at least once");
            for threads in [2usize, 4] {
                let (out, d, m) = measured_par_map(threads);
                assert_eq!(out, out1, "{threads} threads");
                assert_eq!(m, m1, "{threads} threads");
                assert_eq!(d, d1, "heap delta must not depend on {threads} threads");
            }
        }

        #[test]
        fn par_fold_heap_account_is_thread_count_invariant() {
            let data = items(41);
            let run = |threads: usize| {
                let cfg = ParConfig::with_chunk(threads, 8).unwrap();
                let observer = AllocScope::begin();
                let best = par_fold_argmin(
                    &cfg,
                    &data,
                    &mut NoMeter,
                    f64::INFINITY,
                    || Ok(()),
                    |_, i, v, _, _| Ok(*v + item_work(i)),
                    Some,
                )
                .unwrap();
                (best, observer.end())
            };
            let (best1, d1) = run(1);
            assert!(d1.allocs >= 41);
            for threads in [2usize, 4] {
                let (best, d) = run(threads);
                assert_eq!(best, best1, "{threads} threads");
                assert_eq!(d, d1, "heap delta must not depend on {threads} threads");
            }
        }

        #[test]
        fn executor_machinery_is_erased_for_allocation_free_items() {
            // Items that never touch the allocator: the credited account
            // must be exactly zero even though the executor itself
            // allocates chunk lists, result vectors, and spawn closures.
            let data = items(30);
            for threads in [1usize, 4] {
                let cfg = ParConfig::with_chunk(threads, 4).unwrap();
                let observer = AllocScope::begin();
                let out = par_map(&cfg, &data, &mut NoMeter, |_, v, _| Ok(v * 2.0)).unwrap();
                let d = observer.end();
                drop(out);
                assert_eq!(d.allocs, 0, "{threads} threads: {d:?}");
                assert_eq!(d.bytes_allocated, 0, "{threads} threads");
                assert_eq!(d.peak_bytes, 0, "{threads} threads");
            }
        }

        #[test]
        fn item_error_keeps_the_credited_prefix_at_any_thread_count() {
            let data = items(40);
            let run = |threads: usize| {
                let cfg = ParConfig::with_chunk(threads, 4).unwrap();
                let observer = AllocScope::begin();
                let r = par_map(&cfg, &data, &mut NoMeter, |i, v, _| {
                    let x = item_work(i);
                    if i == 17 {
                        Err(Error::InvalidParameter {
                            name: "item",
                            reason: "boom".into(),
                        })
                    } else {
                        Ok(v + x)
                    }
                });
                assert!(r.is_err());
                observer.end()
            };
            let d1 = run(1);
            assert_eq!(d1.allocs, 18 + 1, "items 0..=17 plus the error string");
            for threads in [2usize, 4] {
                assert_eq!(run(threads), d1, "{threads} threads");
            }
        }
    }

    #[test]
    fn worker_spans_reach_an_armed_flight_recorder() {
        let data = items(12);
        let cfg = ParConfig::with_chunk(3, 2).unwrap();
        tsdtw_obs::recorder_start(256);
        let out = par_map(&cfg, &data, &mut NoMeter, |_, v, _| {
            let _g = tsdtw_obs::span("par_test_item");
            Ok(*v * 2.0)
        })
        .unwrap();
        let trace = tsdtw_obs::recorder_stop().expect("recorder was armed");
        let _ = tsdtw_obs::take_spans();
        assert_eq!(out.len(), 12);
        // Every worker item produced a begin/end pair, absorbed onto
        // per-worker tracks; ids stay pairable after the merge.
        assert_eq!(trace.events.len(), 24, "{:?}", trace.events);
        assert!(trace.events.iter().all(|e| e.track >= 1));
        // Twelve balanced begin/end pairs: every end echoes a begin.
        let begun: std::collections::HashSet<u64> = trace
            .events
            .iter()
            .filter(|e| e.phase == tsdtw_obs::TracePhase::Begin)
            .map(|e| e.span_id)
            .collect();
        let ends = trace
            .events
            .iter()
            .filter(|e| e.phase == tsdtw_obs::TracePhase::End && begun.contains(&e.span_id))
            .filter(|e| e.label == "par_test_item")
            .count();
        assert_eq!(ends, 12);
    }
}
