//! The persistent worker pool behind every `par_*` entry (DESIGN §23).
//!
//! One process-wide pool of named `std::thread` workers, started lazily by
//! the first parallel call, grown on demand and never shrunk.  Between
//! calls its workers park on a condition variable.  A call publishes one
//! job, runs the job on the calling thread as well, then retracts it and
//! waits until every worker that joined has left, so the job may borrow
//! the caller's stack exactly as a scoped thread could.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A published job: the caller's body with its lifetime erased.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn() + Sync + 'static));

// SAFETY: the pointee is `Sync`, so a shared reference to it may be used
// from any thread; how long it stays valid is `run`'s contract.
unsafe impl Send for Job {}

struct State {
    /// The job on offer, if any.
    job: Option<Job>,
    /// Workers that may still join the job on offer.
    open: usize,
    /// Workers running the job right now.
    inside: usize,
    /// The first panic a worker caught in the current job.
    panic: Option<Box<dyn Any + Send>>,
    /// Workers started so far.
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    /// Workers park here between jobs.
    wake: Condvar,
    /// The caller parks here until the last worker has left its job.
    left: Condvar,
    /// Set while one caller owns the pool.
    held: AtomicBool,
}

static POOL: Pool = Pool {
    state: Mutex::new(State { job: None, open: 0, inside: 0, panic: None, workers: 0 }),
    wake: Condvar::new(),
    left: Condvar::new(),
    held: AtomicBool::new(false),
};

thread_local! {
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// No code runs under the lock that can panic, but a poisoned lock would
/// still hold consistent counters, so recover it rather than cascade.
fn lock() -> MutexGuard<'static, State> {
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Clears `held` when the owning call returns or unwinds.
struct Held;

impl Drop for Held {
    fn drop(&mut self) {
        POOL.held.store(false, Ordering::Release);
    }
}

/// Run `body` on the calling thread and on up to `helpers` pool workers at
/// once; returns when every one of them has returned from it.  `body` is
/// expected to claim its work from a shared cursor, so one participant
/// alone completes it.
///
/// A call from a pool worker, or made while another call owns the pool
/// (including a call nested in the owner's own body), runs `body` on the
/// calling thread only.  A panic in any participant is re-raised here
/// after the join; the pool stays usable.
pub(crate) fn run(helpers: usize, body: &(dyn Fn() + Sync)) {
    if helpers == 0 || ON_WORKER.with(Cell::get) || POOL.held.swap(true, Ordering::Acquire) {
        body();
        return;
    }
    let _held = Held;
    // SAFETY: the erased reference is only dereferenced by workers that
    // took it from `State::job` and counted themselves in `State::inside`
    // under the lock.  Below, this call retracts the job under the same
    // lock (no worker can take it afterwards) and does not return, or
    // unwind, until `inside` is back to zero: `body`'s own panic is caught
    // first and the retract-and-wait cannot panic.  So every dereference
    // happens while `body` and everything it borrows are alive, which is
    // the guarantee `std::thread::scope` gives its threads.
    let job = Job(unsafe {
        std::mem::transmute::<*const (dyn Fn() + Sync + '_), *const (dyn Fn() + Sync + 'static)>(
            body,
        )
    });
    let helpers = {
        let mut st = lock();
        grow(&mut st, helpers);
        st.job = Some(job);
        st.open = helpers.min(st.workers);
        st.open
    };
    for _ in 0..helpers {
        POOL.wake.notify_one();
    }
    let mine = panic::catch_unwind(AssertUnwindSafe(body));
    let theirs = {
        let mut st = lock();
        st.job = None;
        st.open = 0;
        while st.inside > 0 {
            st = POOL.left.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.panic.take()
    };
    if let Err(p) = mine {
        panic::resume_unwind(p);
    }
    if let Some(p) = theirs {
        panic::resume_unwind(p);
    }
}

/// Start workers until there are `want` of them.  Only the owner of the
/// pool calls this.  A failed spawn leaves the pool at the size it
/// reached; the call then runs with fewer helpers.
fn grow(st: &mut State, want: usize) {
    while st.workers < want {
        let name = format!("svpar-{}", st.workers + 1);
        // Default stack size on purpose: work run here (the interpreter's
        // coverage runs during indexing) is budgeted for it.
        match std::thread::Builder::new().name(name).spawn(worker) {
            Ok(_) => st.workers += 1,
            Err(_) => break,
        }
    }
}

fn worker() {
    ON_WORKER.with(|w| w.set(true));
    let mut st = lock();
    loop {
        match st.job {
            Some(job) if st.open > 0 => {
                st.open -= 1;
                st.inside += 1;
                drop(st);
                // SAFETY: `run` keeps the job alive until `inside` is zero
                // again, and this worker is counted in it.
                let r = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)() }));
                st = lock();
                st.inside -= 1;
                if let Err(p) = r {
                    st.panic.get_or_insert(p);
                }
                if st.inside == 0 {
                    POOL.left.notify_one();
                }
            }
            _ => st = POOL.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}
