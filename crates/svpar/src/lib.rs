//! # svpar — a small data-parallel runtime on one persistent worker pool
//!
//! The paper's subject matter is *parallel programming models*; its
//! evaluation workloads (BabelStream, miniBUDE, TeaLeaf, CloverLeaf) are
//! bandwidth- and compute-bound kernels.  This crate is the repo's real
//! parallel substrate: a rayon-flavoured set of data-parallel primitives
//! with a scoped API (closures may borrow the caller's stack), run on one
//! process-wide pool of workers that park between calls (DESIGN §23).  It
//! is used by
//!
//! * `svdist`'s parallel matrices and `svmetrics`' divergence rows, which fan
//!   their TED and line-LCS pairs out largest-first ([`par_tasks_lpt`]),
//! * `svmetrics`' approximate matrix engine (lower-bound rows, threshold
//!   solves), `silvervale`'s indexers (one unit per task) and its Codebase
//!   DB encode/decode (one entry per task), all through [`par_tasks`],
//! * `svperf`'s host calibration, which runs the [`kernels`] (triad, dot,
//!   the BUDE loop, the TeaLeaf stencil), and
//! * the `bench` crate's scaling ablation.
//!
//! Every call runs its work on the calling thread too, with up to
//! [`num_threads`]` - 1` pool workers claiming items (or whole chunks) from
//! a shared atomic cursor, and returns once every participant has left.
//! Workers start on the first parallel call and live for the process, so a
//! call costs a wake-up, not a thread spawn, and results that outlive a
//! call are not allocated in a fresh thread's malloc arena.  A call made
//! from a pool worker, or while another call owns the pool, runs on its
//! calling thread alone; results land by index, so they are the same.
//!
//! Design notes (per the HPC guides this repo follows):
//! * work is split into contiguous chunks — one per participant — so each
//!   thread streams over its slice with no false sharing on the output,
//! * reductions compute per-chunk partials and combine once at the end in
//!   chunk order (no shared atomics in the hot loop, and the same result
//!   whichever thread folded which chunk),
//! * the sequential path is taken for small inputs where handing work to
//!   other cores would cost more than the loop ([`PAR_THRESHOLD`]).

pub mod kernels;
mod pool;

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Inputs smaller than this run sequentially: waking workers and sharing
/// the output's cache lines for a few thousand elements costs more than
/// the loop itself.
pub const PAR_THRESHOLD: usize = 4096;

/// Number of threads that take part in a `par_*` call, the calling thread
/// included.
///
/// Defaults to the machine's available parallelism; can be overridden (e.g.
/// by benches sweeping thread counts) via [`set_threads`].
pub fn num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Override the participant count for subsequent `par_*` calls.  Raising
/// it grows the pool on the next call; the pool never shrinks.
/// `0` restores the default (available parallelism).
pub fn set_threads(n: usize) {
    CONFIGURED_THREADS.store(n, Ordering::Relaxed);
}

/// Split `len` items into at most `parts` contiguous ranges of near-equal
/// size.  Returns `(start, end)` pairs covering `0..len` exactly.
pub fn split_ranges(len: usize, parts: usize) -> Vec<(usize, usize)> {
    if len == 0 || parts == 0 {
        return Vec::new();
    }
    let parts = parts.min(len);
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let sz = base + usize::from(i < extra);
        out.push((start, start + sz));
        start += sz;
    }
    debug_assert_eq!(start, len);
    out
}

/// Run `claim(k)` once for every `k in 0..count`, each `k` taken by one
/// participant from a shared atomic cursor: the calling thread and up to
/// `participants - 1` pool workers.  Returns when every `k` has run.
fn claim_all(count: usize, participants: usize, claim: impl Fn(usize) + Sync) {
    let cursor = AtomicUsize::new(0);
    let body = || loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        if k >= count {
            break;
        }
        claim(k);
    };
    pool::run(participants.min(count).saturating_sub(1), &body);
}

/// Run `f(i)` for every `i in 0..n`, in parallel over contiguous chunks.
///
/// `f` must be safe to call concurrently for distinct `i` (it only gets
/// shared access to captured state).
pub fn par_for(n: usize, f: impl Fn(usize) + Sync) {
    let threads = num_threads();
    if n < PAR_THRESHOLD || threads <= 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    let ranges = split_ranges(n, threads);
    claim_all(ranges.len(), threads, |k| {
        let (lo, hi) = ranges[k];
        for i in lo..hi {
            f(i);
        }
    });
}

/// Process disjoint mutable chunks of `data` in parallel.  Each worker gets
/// `(chunk_start_index, chunk)`.
pub fn par_chunks_mut<T: Send>(data: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    let threads = num_threads();
    if data.len() < PAR_THRESHOLD || threads <= 1 {
        f(0, data);
        return;
    }
    let ranges = split_ranges(data.len(), threads);
    let base = SliceCells(data.as_mut_ptr());
    claim_all(ranges.len(), threads, |k| {
        let (lo, hi) = ranges[k];
        // SAFETY: the ranges are disjoint and inside `data`, each is
        // claimed exactly once, and `data` stays mutably borrowed by this
        // call until every participant has returned.
        f(lo, unsafe { base.chunk(lo, hi) });
    });
}

/// Parallel map-reduce over `0..n`: each chunk is folded locally starting
/// from `identity()`, then the partials are combined with `reduce` in chunk
/// order (deterministic for a fixed thread count when `reduce` is
/// associative, whichever thread folded which chunk).
pub fn par_map_reduce<R: Send>(
    n: usize,
    identity: impl Fn() -> R + Sync,
    map: impl Fn(usize) -> R + Sync,
    reduce: impl Fn(R, R) -> R + Sync,
) -> R {
    let threads = num_threads();
    if n < PAR_THRESHOLD || threads <= 1 {
        let mut acc = identity();
        for i in 0..n {
            acc = reduce(acc, map(i));
        }
        return acc;
    }
    let ranges = split_ranges(n, threads);
    let partials = Slots::new(ranges.len());
    claim_all(ranges.len(), threads, |k| {
        let (lo, hi) = ranges[k];
        let mut acc = identity();
        for i in lo..hi {
            acc = reduce(acc, map(i));
        }
        // SAFETY: chunk k is claimed exactly once.
        unsafe { partials.put(k, acc) };
    });
    partials.into_vec().into_iter().fold(identity(), reduce)
}

/// Parallel map into a fresh `Vec`, preserving order.
pub fn par_map_collect<T: Send + Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = num_threads();
    if items.len() < 64 || threads <= 1 {
        // Task-style maps (e.g. one TED per model pair) are heavy per item,
        // so the parallel cutoff here is much lower than PAR_THRESHOLD.
        return items.iter().map(&f).collect();
    }
    let ranges = split_ranges(items.len(), threads);
    let out = Slots::new(items.len());
    claim_all(ranges.len(), threads, |k| {
        let (lo, hi) = ranges[k];
        for (i, item) in (lo..hi).zip(&items[lo..hi]) {
            // SAFETY: chunk k, and so index i, is claimed exactly once.
            unsafe { out.put(i, f(item)) };
        }
    });
    out.into_vec()
}

/// Parallel map over *heavy tasks* — always parallelises regardless of item
/// count (used for e.g. 45 TED computations that each take milliseconds to
/// seconds).  Items are distributed dynamically via an atomic cursor so an
/// unlucky chunk of slow items cannot serialise the run.
pub fn par_tasks<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = num_threads().min(items.len().max(1));
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let out = Slots::new(items.len());
    claim_all(items.len(), threads, |i| {
        // SAFETY: index i is claimed exactly once.
        unsafe { out.put(i, f(&items[i])) };
    });
    out.into_vec()
}

/// [`par_tasks`] with longest-processing-time-first scheduling: items are
/// handed to the work-stealing cursor in descending `cost` order, so the
/// most expensive tasks start first and the cheap tail backfills the
/// stragglers (classic LPT bound: makespan ≤ 4/3 · optimal, versus
/// unbounded for an adversarial order).
///
/// `cost` runs once per item on the calling thread and only shapes the
/// schedule: results are scattered back to their items, so the output is
/// in input order and equals `items.iter().map(f)` for any cost function.
/// The sort is stable, so equal-cost items keep their input order and a
/// constant estimator degrades to plain [`par_tasks`].
pub fn par_tasks_lpt<T: Sync, R: Send>(
    items: &[T],
    cost: impl Fn(&T) -> u64,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by_cached_key(|&i| std::cmp::Reverse(cost(&items[i])));
    let claimed = par_tasks(&order, |&i| f(&items[i]));
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    for (&i, r) in order.iter().zip(claimed) {
        out[i] = Some(r);
    }
    out.into_iter().map(|v| v.expect("task slot missing")).collect()
}

/// Wrapper making a raw pointer shareable for the disjoint chunks of
/// [`par_chunks_mut`].
struct SliceCells<T>(*mut T);
unsafe impl<T: Send> Sync for SliceCells<T> {}

impl<T> SliceCells<T> {
    /// # Safety
    /// `lo..hi` must lie inside the slice, and no other thread may access
    /// it while the chunk is alive.
    #[allow(clippy::mut_from_ref)]
    unsafe fn chunk(&self, lo: usize, hi: usize) -> &mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(lo), hi - lo) }
    }
}

/// One write-once result slot per index, filled in place by whichever
/// participant claimed the index and read only after the join.
struct Slots<R>(Vec<UnsafeCell<Option<R>>>);

// SAFETY: participants only write through `put`, each to an index no other
// participant writes, and nothing reads a slot before `into_vec`.
unsafe impl<R: Send> Sync for Slots<R> {}

impl<R> Slots<R> {
    fn new(n: usize) -> Self {
        Slots((0..n).map(|_| UnsafeCell::new(None)).collect())
    }

    /// # Safety
    /// No other thread may access slot `i` concurrently.
    unsafe fn put(&self, i: usize, r: R) {
        unsafe { *self.0[i].get() = Some(r) };
    }

    fn into_vec(self) -> Vec<R> {
        self.0.into_iter().map(|c| c.into_inner().expect("result slot missing")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn split_ranges_covers_exactly() {
        for len in [0usize, 1, 7, 100, 4097] {
            for parts in [1usize, 2, 3, 8, 200] {
                let r = split_ranges(len, parts);
                if len == 0 {
                    assert!(r.is_empty());
                    continue;
                }
                assert_eq!(r.first().unwrap().0, 0);
                assert_eq!(r.last().unwrap().1, len);
                for w in r.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
                assert!(r.len() <= parts.min(len));
                // Near-equal: sizes differ by at most 1.
                let sizes: Vec<usize> = r.iter().map(|(a, b)| b - a).collect();
                let mn = *sizes.iter().min().unwrap();
                let mx = *sizes.iter().max().unwrap();
                assert!(mx - mn <= 1);
            }
        }
    }

    #[test]
    fn par_for_touches_every_index() {
        let n = 100_000;
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_for_small_input_sequential_path() {
        let hits: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        par_for(10, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_writes_disjoint() {
        let mut v = vec![0u64; 50_000];
        par_chunks_mut(&mut v, |off, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = (off + k) as u64;
            }
        });
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64));
    }

    #[test]
    fn par_map_reduce_sum() {
        let n = 1_000_000u64;
        let s = par_map_reduce(n as usize, || 0u64, |i| i as u64, |a, b| a + b);
        assert_eq!(s, n * (n - 1) / 2);
    }

    #[test]
    fn par_map_reduce_max() {
        let data: Vec<i64> =
            (0..100_000u64).map(|i| ((i * 2_654_435_761) % 1_000_003) as i64).collect();
        let expect = *data.iter().max().unwrap();
        let got = par_map_reduce(data.len(), || i64::MIN, |i| data[i], |a, b| a.max(b));
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_collect_preserves_order() {
        let items: Vec<u32> = (0..10_000).collect();
        let out = par_map_collect(&items, |&x| x * 3 + 1);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i as u32 * 3 + 1));
    }

    #[test]
    fn par_tasks_preserves_order_with_uneven_work() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_tasks(&items, |&x| {
            // Uneven work to force interleaving across workers.
            let mut acc = 0u64;
            for k in 0..(x * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (x as u64, acc)
        });
        for (i, (idx, _)) in out.iter().enumerate() {
            assert_eq!(*idx, i as u64);
        }
    }

    #[test]
    fn set_threads_roundtrip() {
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(0);
        assert!(num_threads() >= 1);
    }

    #[test]
    fn empty_inputs() {
        par_for(0, |_| panic!("must not be called"));
        let out: Vec<u8> = par_map_collect::<u8, u8>(&[], |_| panic!("no"));
        assert!(out.is_empty());
        let r = par_map_reduce(0, || 7u32, |_| 0, |a, b| a + b);
        assert_eq!(r, 7);
        let t: Vec<u8> = par_tasks::<u8, u8>(&[], |_| 0);
        assert!(t.is_empty());
    }
}
