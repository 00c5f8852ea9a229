//! The persistent pool behind the `par_*` entries: every entry equals its
//! sequential loop, workers are reused across calls, panics re-raise on
//! the caller, nested and concurrent calls neither deadlock nor change
//! results.
//!
//! The participant count is process-global, so every test here takes
//! `LOCK` and restores the default when it is done.

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use svpar::{
    num_threads, par_chunks_mut, par_for, par_map_collect, par_map_reduce, par_tasks,
    par_tasks_lpt, set_threads, split_ranges,
};

static LOCK: Mutex<()> = Mutex::new(());

/// The largest participant count any test here sets.
const MOST: usize = 4;

/// Holds `LOCK` with `n` participants configured; restores the default on
/// drop, also when the test fails.
struct Threads(#[allow(dead_code)] MutexGuard<'static, ()>);

fn threads(n: usize) -> Threads {
    let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_threads(n);
    Threads(guard)
}

impl Drop for Threads {
    fn drop(&mut self) {
        set_threads(0);
    }
}

/// Uneven per-item work, so participants interleave.
fn work(x: u64) -> u64 {
    (0..(x % 17) * 300).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
}

/// A sum whose value depends on the order it is added in.
fn f64_term(i: usize) -> f64 {
    1.0 / (1.0 + i as f64).sqrt() * if i.is_multiple_of(3) { -1.0 } else { 1.0 }
}

/// The sequential fold `par_map_reduce` must match bit for bit with `t`
/// participants: one partial per chunk of `split_ranges`, combined in
/// chunk order.
fn chunked_sum(n: usize, t: usize) -> f64 {
    split_ranges(n, t)
        .iter()
        .map(|&(lo, hi)| (lo..hi).fold(0.0, |a, i| a + f64_term(i)))
        .fold(0.0, |a, p| a + p)
}

#[test]
fn every_entry_equals_its_sequential_loop() {
    for t in 1..=MOST {
        let _t = threads(t);
        let n = 3 * svpar::PAR_THRESHOLD + 7;

        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        par_for(n, |i| {
            hits[i].fetch_add(work(i as u64) | 1, Ordering::Relaxed);
        });
        assert!(hits
            .iter()
            .enumerate()
            .all(|(i, h)| h.load(Ordering::Relaxed) == work(i as u64) | 1));

        let mut v = vec![0u64; n];
        par_chunks_mut(&mut v, |off, chunk| {
            for (k, x) in chunk.iter_mut().enumerate() {
                *x = work((off + k) as u64);
            }
        });
        assert_eq!(v, (0..n as u64).map(work).collect::<Vec<_>>());

        let sum = par_map_reduce(n, || 0.0f64, f64_term, |a, b| a + b);
        let expect =
            if t == 1 { (0..n).fold(0.0, |a, i| a + f64_term(i)) } else { chunked_sum(n, t) };
        assert_eq!(sum.to_bits(), expect.to_bits(), "{t} participants");

        let items: Vec<u64> = (0..1000).collect();
        assert_eq!(
            par_map_collect(&items, |&x| work(x)),
            items.iter().map(|&x| work(x)).collect::<Vec<_>>()
        );
        assert_eq!(
            par_tasks(&items, |&x| work(x)),
            items.iter().map(|&x| work(x)).collect::<Vec<_>>()
        );
        assert_eq!(
            par_tasks_lpt(&items, |&x| x % 7, |&x| work(x)),
            items.iter().map(|&x| work(x)).collect::<Vec<_>>()
        );
    }
}

#[test]
fn f64_reduction_is_bit_equal_for_a_fixed_thread_count() {
    let _t = threads(3);
    let n = 50_000;
    let first = par_map_reduce(n, || 0.0f64, f64_term, |a, b| a + b);
    assert_eq!(first.to_bits(), chunked_sum(n, 3).to_bits());
    for _ in 0..20 {
        let again = par_map_reduce(n, || 0.0f64, f64_term, |a, b| a + b);
        assert_eq!(again.to_bits(), first.to_bits());
    }
    // Nested in a task, the reduction runs on one thread over the same
    // chunks, so it is bit-equal too.
    let nested = par_tasks(&[0u8; 4], |_| par_map_reduce(n, || 0.0f64, f64_term, |a, b| a + b));
    assert!(nested.iter().all(|s| s.to_bits() == first.to_bits()));
}

#[test]
fn consecutive_calls_reuse_the_same_threads() {
    let _t = threads(2);
    let items: Vec<u64> = (0..8).collect();
    let mut ids: HashSet<ThreadId> = HashSet::new();
    for round in 0..200u64 {
        let out = par_tasks(&items, |&x| {
            thread::sleep(std::time::Duration::from_micros(20));
            (thread::current().id(), x + round)
        });
        for (k, (id, v)) in out.into_iter().enumerate() {
            assert_eq!(v, k as u64 + round);
            ids.insert(id);
        }
    }
    // The caller plus at most the workers ever started: one per extra
    // participant any test here, or the default count, has asked for.
    let bound = num_threads().max(MOST).max(thread::available_parallelism().map_or(1, |n| n.get()));
    assert!(ids.len() <= bound, "200 calls ran on {} threads (bound {bound})", ids.len());
    assert!(ids.contains(&thread::current().id()), "the caller takes part");
    assert!(ids.len() >= 2, "a worker takes part");
}

#[test]
fn a_panicking_task_reraises_on_the_caller_and_the_pool_recovers() {
    let _t = threads(2);
    let items: Vec<u64> = (0..64).collect();
    let caller = thread::current().id();

    // Wherever item 13 runs, its panic reaches the caller with its payload.
    let err = panic::catch_unwind(AssertUnwindSafe(|| {
        par_tasks(&items, |&x| {
            assert!(x != 13, "task 13 failed");
            work(x)
        })
    }))
    .expect_err("the panic must reach the caller");
    let msg = err
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| err.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("");
    assert!(msg.contains("task 13 failed"), "payload kept: {msg:?}");

    // A panic on a worker thread is re-raised on the caller too.  Items
    // take ~0.1 ms each, so a worker claims some; retry if it did not.
    let on_worker = (0..20).any(|_| {
        panic::catch_unwind(AssertUnwindSafe(|| {
            par_tasks(&items, |&x| {
                thread::sleep(std::time::Duration::from_micros(100));
                assert!(thread::current().id() == caller, "worker task failed");
                x
            })
        }))
        .is_err()
    });
    assert!(on_worker, "no task ever ran on a worker");

    // The pool is still usable and correct.
    for _ in 0..10 {
        assert_eq!(
            par_tasks(&items, |&x| work(x)),
            items.iter().map(|&x| work(x)).collect::<Vec<_>>()
        );
    }
}

#[test]
fn nested_calls_neither_deadlock_nor_change_results() {
    let _t = threads(MOST);
    let outer: Vec<u64> = (0..12).collect();
    let inner: Vec<u64> = (0..100).collect();
    let got = par_tasks(&outer, |&o| {
        let row = par_tasks(&inner, |&i| work(o * 1000 + i));
        let total = par_map_reduce(5000, || 0u64, |i| i as u64 ^ o, |a, b| a.wrapping_add(b));
        (row, total)
    });
    for (o, (row, total)) in outer.iter().zip(got) {
        assert_eq!(row, inner.iter().map(|&i| work(o * 1000 + i)).collect::<Vec<_>>());
        assert_eq!(total, (0..5000u64).fold(0u64, |a, i| a.wrapping_add(i ^ o)));
    }
}

#[test]
fn concurrent_callers_each_get_their_own_results() {
    let _t = threads(2);
    thread::scope(|s| {
        for c in 0..4u64 {
            s.spawn(move || {
                let items: Vec<u64> = (0..200).map(|i| i * 4 + c).collect();
                for _ in 0..50 {
                    assert_eq!(
                        par_tasks(&items, |&x| work(x)),
                        items.iter().map(|&x| work(x)).collect::<Vec<_>>()
                    );
                    let n = 10_000;
                    let s = par_map_reduce(n, || 0u64, |i| i as u64 * (c + 1), |a, b| a + b);
                    assert_eq!(s, (c + 1) * (n as u64) * (n as u64 - 1) / 2);
                }
            });
        }
    });
}

#[test]
fn tasks_borrow_the_callers_stack() {
    let _t = threads(2);
    let table = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3];
    let scale = 10u64;
    let idx: Vec<usize> = (0..table.len()).collect();
    let out = par_tasks(&idx, |&i| table[i] * scale);
    assert_eq!(out, table.iter().map(|x| x * scale).collect::<Vec<_>>());

    let mut buf = [0u32; 2 * svpar::PAR_THRESHOLD];
    par_chunks_mut(&mut buf, |off, chunk| {
        for (k, x) in chunk.iter_mut().enumerate() {
            *x = (off + k) as u32 + table[(off + k) % table.len()] as u32;
        }
    });
    assert!(buf.iter().enumerate().all(|(i, &x)| x == i as u32 + table[i % table.len()] as u32));
}

#[test]
fn one_thread_runs_on_the_caller_only() {
    let _t = threads(1);
    let caller = thread::current().id();
    let on_caller = || assert_eq!(thread::current().id(), caller);
    let n = 2 * svpar::PAR_THRESHOLD;
    par_for(n, |_| on_caller());
    par_chunks_mut(&mut vec![0u8; n], |_, _| on_caller());
    par_map_reduce(n, || (), |_| on_caller(), |_, _| ());
    let items: Vec<u32> = (0..200).collect();
    par_map_collect(&items, |_| on_caller());
    par_tasks(&items, |_| on_caller());
    par_tasks_lpt(&items, |&x| x.into(), |_| on_caller());
}
