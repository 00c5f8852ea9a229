//! Job scheduler: the server's one set of threads, with in-flight
//! deduplication and a real failure model.
//!
//! One grow-on-demand, retire-when-idle set of threads runs the reactor's
//! request *frames* ([`JobPool::post`], at most [`EXEC_CAP`] at once) and
//! routed *jobs* ([`JobPool::submit`], at most `workers` at once).  Frames
//! block on jobs, so a thread takes a runnable job first, and threads are
//! bounded by `EXEC_CAP + workers`: blocked frames never starve the jobs
//! they wait on.  Identical jobs that arrive while one is queued or
//! executing attach to its in-flight slot, so N clients hammering the same
//! divergence matrix cost one computation (the content-addressed cache
//! then covers *sequential* repeats).
//!
//! The failure model, in one invariant: **a [`Ticket`] handed out by
//! [`JobPool::submit`] is always completed** — with the job's result, or
//! with a structured error.  Concretely:
//!
//! * a panicking job is caught (`catch_unwind`) and answered with a
//!   `panic` error; a panic escaping that catch (infrastructure code, or
//!   an injected `pool.worker` fault) is caught one level up, so the
//!   ticket completes and the thread lives on;
//! * the queue is bounded: past [`PoolConfig::max_queue`] pending jobs,
//!   new submissions are shed with a retryable `overloaded` error;
//! * each job may carry a deadline: [`Ticket::wait`] gives up with
//!   `deadline_exceeded` when it passes (dropping a ticket gives up too),
//!   and a queued job that expired, or that every waiter gave up on, is
//!   skipped ([`JobCtx`] lets long handlers cooperate mid-run);
//! * [`JobPool::begin_drain`] switches the pool to graceful-drain mode:
//!   in-flight jobs finish, queued jobs are shed with `shutting_down`;
//! * every lock acquisition tolerates poisoning — one panic must never
//!   wedge the scheduler for every later request.
//!
//! Per-job timing lands on a pool-owned `svtrace::Registry`: busy time
//! feeds the `stats` endpoint's utilization figure, two histograms split
//! every job's latency into **queue wait** vs **compute time**, and the
//! failure counters (`pool.shed`, `pool.panics`,
//! `pool.deadline_exceeded`, `pool.drained`) feed the `metrics` builtin.

use crate::faults::FaultPlan;
use crate::proto::ServeError;
use crate::svjson::Json;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use svtrace::{Counter, Histogram, Registry};

type JobResult = Result<Json, ServeError>;
type JobFn = Box<dyn FnOnce(&JobCtx) -> JobResult + Send>;
/// A request frame: it runs to completion and delivers its own reply.
pub(crate) type Frame = Box<dyn FnOnce() + Send>;

/// Upper bound on frames executing at once; more queue.
pub(crate) const EXEC_CAP: usize = 512;
/// Idle threads retire after this long without work.
pub(crate) const IDLE_TIMEOUT: Duration = Duration::from_secs(2);

/// Lock a mutex, tolerating poisoning: a thread that panicked while
/// holding the lock leaves the data in a sane state for this scheduler
/// (all critical sections are small and re-entrancy-free), and wedging
/// every subsequent request on an unwrap would turn one panic into a
/// permanent outage.
fn lock_ip<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Per-job execution context: the deadline and the cooperative
/// cancellation flag, for handlers that want to stop early instead of
/// computing a result nobody is waiting for.
pub struct JobCtx {
    deadline: Option<Instant>,
    slot: Arc<JobSlot>,
}

impl JobCtx {
    /// The check long-running handlers should poll: deadline passed or
    /// every waiter gone.
    pub fn should_stop(&self) -> bool {
        self.slot.waiters.load(Ordering::Relaxed) == 0 || expired(self.deadline)
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Rendezvous for one in-flight job: the executing thread fills `result`,
/// every attached waiter clones it.
#[derive(Default)]
struct JobSlot {
    result: Mutex<Option<JobResult>>,
    done: Condvar,
    /// Live tickets.  Attaches happen under the pool lock, as does the
    /// skip-if-zero check at pickup, so a late identical request either
    /// revives a job every waiter gave up on or finds its key free.
    waiters: AtomicUsize,
}

impl JobSlot {
    /// Block until the slot is filled or `deadline` passes; `None` means
    /// the deadline won.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<JobResult> {
        let mut guard = lock_ip(&self.result);
        loop {
            if let Some(r) = guard.as_ref() {
                return Some(r.clone());
            }
            match deadline {
                None => guard = self.done.wait(guard).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return None;
                    }
                    guard =
                        self.done.wait_timeout(guard, d - now).unwrap_or_else(|e| e.into_inner()).0;
                }
            }
        }
    }

    fn fill(&self, r: JobResult) {
        *lock_ip(&self.result) = Some(r);
        self.done.notify_all();
    }
}

/// Counter snapshot for the `stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PoolStats {
    /// Jobs handed to [`JobPool::submit`].
    pub submitted: u64,
    /// Jobs that actually executed.
    pub executed: u64,
    /// Jobs that attached to an identical in-flight job instead.
    pub deduped: u64,
    /// Jobs rejected with `overloaded` because the queue was full.
    pub shed: u64,
    /// Queued jobs shed with `shutting_down` during a graceful drain.
    pub drained: u64,
    /// Panics caught or absorbed (ticket completed with a `panic` error).
    pub panics: u64,
    /// Deadline misses (waiter timeouts plus expired-in-queue skips).
    pub deadline_exceeded: u64,
    /// Jobs currently queued (submitted, not yet picked up).
    pub queued: usize,
    /// Jobs that may execute at once.
    pub workers: usize,
    /// Fraction of `workers` wall-clock spent executing jobs since the
    /// pool started, in `[0, 1]`.
    pub utilization: f64,
}

/// Pool construction knobs; [`JobPool::new`] uses the defaults with an
/// explicit worker count.
#[derive(Clone)]
pub struct PoolConfig {
    /// Jobs that may execute at once (minimum 1).
    pub workers: usize,
    /// Maximum queued (not yet picked up) jobs before submissions are
    /// shed with `overloaded` (minimum 1).
    pub max_queue: usize,
    /// Optional fault-injection plan; sites `pool.worker` (outside the
    /// job's `catch_unwind`) and `pool.execute` (inside it — models a
    /// faulty handler).
    pub faults: Option<Arc<FaultPlan>>,
}

/// Default bound on the queue: deep enough that only a genuinely
/// overloaded server sheds, shallow enough to bound memory and latency.
pub const DEFAULT_MAX_QUEUE: usize = 1024;

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig { workers: 1, max_queue: DEFAULT_MAX_QUEUE, faults: None }
    }
}

struct Job {
    slot: Arc<JobSlot>,
    key: String,
    submitted_at: Instant,
    deadline: Option<Instant>,
    /// The submitting thread's trace context, re-installed around the
    /// job so its spans chain under the request span.
    trace: Option<svtrace::ActiveTrace>,
    f: JobFn,
}

enum Work {
    Frame(Frame),
    Job(Job),
}

/// Everything the pool lock guards.
#[derive(Default)]
struct State {
    frames: VecDeque<Frame>,
    jobs: VecDeque<Job>,
    /// Queued or executing jobs by key, for in-flight dedup.
    inflight: HashMap<String, Arc<JobSlot>>,
    frames_running: usize,
    jobs_running: usize,
    /// Threads not running work: parked, starting, or between two items.
    idle: usize,
    threads: usize,
    /// Set by a drain: threads exit once nothing is runnable.
    draining: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Signals work and drains to idle threads, and exits to shutdown.
    work: Condvar,
    workers: usize,
    max_queue: usize,
    faults: Option<Arc<FaultPlan>>,
    registry: Registry,
    submitted: Arc<Counter>,
    executed: Arc<Counter>,
    deduped: Arc<Counter>,
    shed: Arc<Counter>,
    drained: Arc<Counter>,
    panics: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    busy_nanos: Arc<Counter>,
    queue_wait_us: Arc<Histogram>,
    exec_us: Arc<Histogram>,
}

thread_local! {
    /// The pool this thread belongs to: shutdown on one of a pool's own
    /// threads must not wait for that thread.
    static OWN_POOL: Cell<*const Shared> = const { Cell::new(std::ptr::null()) };
}

/// The server's thread pool.  Dropping it (or calling
/// [`JobPool::shutdown`]) drains gracefully: in-flight jobs finish,
/// queued jobs are shed, and every thread exits.
pub struct JobPool {
    shared: Arc<Shared>,
    started: Instant,
}

impl JobPool {
    /// A pool that runs at most `workers` jobs at once (minimum 1), with
    /// the default queue bound and no fault injection.
    pub fn new(workers: usize) -> JobPool {
        JobPool::with_config(PoolConfig { workers, ..PoolConfig::default() })
    }

    /// A pool with explicit robustness knobs.  Threads start on demand.
    pub fn with_config(config: PoolConfig) -> JobPool {
        let registry = Registry::new();
        let bounds = svtrace::latency_bounds_us();
        let shared = Arc::new(Shared {
            state: Mutex::default(),
            work: Condvar::new(),
            workers: config.workers.max(1),
            max_queue: config.max_queue.max(1),
            faults: config.faults,
            submitted: registry.counter("pool.submitted"),
            executed: registry.counter("pool.executed"),
            deduped: registry.counter("pool.deduped"),
            shed: registry.counter("pool.shed"),
            drained: registry.counter("pool.drained"),
            panics: registry.counter("pool.panics"),
            deadline_exceeded: registry.counter("pool.deadline_exceeded"),
            busy_nanos: registry.counter("pool.busy_nanos"),
            queue_wait_us: registry.histogram("pool.queue_wait_us", &bounds),
            exec_us: registry.histogram("pool.exec_us", &bounds),
            registry,
        });
        JobPool { shared, started: Instant::now() }
    }

    /// The pool's metrics registry (counters plus the queue-wait/exec-time
    /// histograms), for the live `metrics` endpoint.
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Run a request frame.  Frames are never deduplicated, shed or
    /// drained: each one delivers a reply.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    pub(crate) fn post(&self, frame: Frame) {
        let mut s = self.shared.lock();
        s.frames.push_back(frame);
        self.shared.wake(&mut s);
    }

    /// Execute `job` on the pool and block until its result is available.
    ///
    /// `key` is the job's content identity (method + canonicalised
    /// params): if an identical job is already queued or executing, this
    /// call attaches to it and returns the same result without running
    /// `job` at all.
    pub fn run(&self, key: String, job: impl FnOnce() -> JobResult + Send + 'static) -> JobResult {
        self.run_with(key, None, move |_| job())
    }

    /// [`JobPool::run`] with a deadline and a [`JobCtx`] the job can poll
    /// for cooperative cancellation: [`JobPool::submit`], then
    /// [`Ticket::wait`].
    pub fn run_with(
        &self,
        key: String,
        deadline: Option<Instant>,
        job: impl FnOnce(&JobCtx) -> JobResult + Send + 'static,
    ) -> JobResult {
        self.submit(key, deadline, job).wait()
    }

    /// Queue `job` (deduplicated by `key` as in [`JobPool::run`]) and
    /// return at once with its [`Ticket`].  A submission the pool refuses
    /// (queue full, or draining) gets a ticket already completed with the
    /// error.
    pub fn submit(
        &self,
        key: String,
        deadline: Option<Instant>,
        job: impl FnOnce(&JobCtx) -> JobResult + Send + 'static,
    ) -> Ticket {
        let sh = &self.shared;
        sh.submitted.inc();
        let submitted_at = Instant::now();
        let mut s = sh.lock();
        let slot = match s.inflight.get(&key) {
            Some(slot) => {
                sh.deduped.inc();
                Arc::clone(slot)
            }
            None => {
                let slot = Arc::new(JobSlot::default());
                let backlog = s.jobs.len();
                if s.draining {
                    slot.fill(Err(ServeError::new("shutting_down", "job pool is draining")));
                } else if backlog >= sh.max_queue {
                    sh.shed.inc();
                    slot.fill(Err(ServeError::overloaded(format!(
                        "queue full ({backlog} jobs queued, limit {}); retry with backoff",
                        sh.max_queue
                    ))));
                } else {
                    s.inflight.insert(key.clone(), Arc::clone(&slot));
                    let trace = svtrace::ctx::capture();
                    let (slot, key, f) = (Arc::clone(&slot), key.clone(), Box::new(job));
                    s.jobs.push_back(Job { slot, key, submitted_at, deadline, trace, f });
                    sh.wake(&mut s);
                }
                slot
            }
        };
        // Under the lock, so the job cannot be picked up (or skipped)
        // before this ticket counts.
        slot.waiters.fetch_add(1, Ordering::SeqCst);
        Ticket { shared: Arc::clone(sh), slot, key, deadline }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        let sh = &self.shared;
        let elapsed = self.started.elapsed().as_nanos() as f64 * sh.workers as f64;
        let busy = sh.busy_nanos.get() as f64;
        PoolStats {
            submitted: sh.submitted.get(),
            executed: sh.executed.get(),
            deduped: sh.deduped.get(),
            shed: sh.shed.get(),
            drained: sh.drained.get(),
            panics: sh.panics.get(),
            deadline_exceeded: sh.deadline_exceeded.get(),
            queued: sh.lock().jobs.len(),
            workers: sh.workers,
            utilization: if elapsed > 0.0 { (busy / elapsed).min(1.0) } else { 0.0 },
        }
    }

    /// True once a drain was requested.
    pub fn is_draining(&self) -> bool {
        self.shared.lock().draining
    }

    /// Switch to graceful-drain mode: jobs already executing finish
    /// normally, queued jobs are shed with `shutting_down` now (under the
    /// lock submissions take, so none slips in behind), new submissions
    /// are rejected, and idle threads exit.  Does not block.
    pub fn begin_drain(&self) {
        let mut s = self.shared.lock();
        s.draining = true;
        self.shared.work.notify_all();
        for job in std::mem::take(&mut s.jobs) {
            s.inflight.remove(&job.key);
            self.shared.drained.inc();
            job.slot
                .fill(Err(ServeError::new("shutting_down", "server draining: queued job shed")));
        }
    }

    /// Drain gracefully and wait for every thread to exit, except the
    /// calling one if it is the pool's own (a server's last reference can
    /// drop at the end of a frame): that one exits when its frame returns.
    pub fn shutdown(&mut self) {
        self.begin_drain();
        let own = OWN_POOL.with(Cell::get) == Arc::as_ptr(&self.shared);
        let mut s = self.shared.lock();
        while s.threads > usize::from(own) {
            s = self.shared.work.wait(s).unwrap_or_else(|e| e.into_inner());
        }
    }

    #[cfg(test)]
    fn threads(&self) -> usize {
        self.shared.lock().threads
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A claim on one submitted job's result.  Dropping it unwaited gives up
/// on the job, as a missed deadline does: once every waiter has given
/// up, a queued job is skipped and a running one sees
/// [`JobCtx::should_stop`].
#[must_use = "dropping a ticket gives up on its job"]
pub struct Ticket {
    shared: Arc<Shared>,
    slot: Arc<JobSlot>,
    key: String,
    deadline: Option<Instant>,
}

impl Ticket {
    /// Block until the job's result is available or the deadline passes.
    pub fn wait(self) -> JobResult {
        self.slot.wait_until(self.deadline).unwrap_or_else(|| {
            self.shared.deadline_exceeded.inc();
            Err(ServeError::deadline_exceeded(format!(
                "job '{}' did not complete within its deadline",
                self.key.split_whitespace().next().unwrap_or(&self.key)
            )))
        })
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        self.slot.waiters.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("opaque panic payload")
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        lock_ip(&self.state)
    }

    /// Queued work a thread could start now, within both caps.
    fn runnable(&self, s: &State) -> usize {
        s.jobs.len().min(self.workers - s.jobs_running)
            + s.frames.len().min(EXEC_CAP - s.frames_running)
    }

    /// After queueing work: wake an idle thread, and start one more when
    /// runnable work outnumbers idle threads.
    fn wake(self: &Arc<Self>, s: &mut State) {
        if s.idle > 0 {
            self.work.notify_one();
        }
        if self.runnable(s) > s.idle && s.threads < EXEC_CAP + self.workers {
            s.threads += 1;
            s.idle += 1;
            let shared = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name("svserve-pool".into())
                .spawn(move || thread_main(shared));
            // On spawn failure the work stays queued for the next thread
            // that frees up; the next submission retries the spawn.
            if spawned.is_err() {
                s.threads -= 1;
                s.idle -= 1;
            }
        }
    }

    /// Claim the next runnable piece of work, jobs first.  A queued job
    /// every waiter gave up on is dropped here, under the lock attaches
    /// take.
    fn take(&self, s: &mut State) -> Option<Work> {
        while s.jobs_running < self.workers {
            let Some(job) = s.jobs.pop_front() else { break };
            if job.slot.waiters.load(Ordering::SeqCst) == 0 {
                s.inflight.remove(&job.key);
                if expired(job.deadline) {
                    self.deadline_exceeded.inc();
                }
                continue;
            }
            s.jobs_running += 1;
            s.idle -= 1;
            return Some(Work::Job(job));
        }
        if s.frames_running == EXEC_CAP {
            return None;
        }
        let frame = s.frames.pop_front()?;
        s.frames_running += 1;
        s.idle -= 1;
        Some(Work::Frame(frame))
    }

    /// Run one job and complete its ticket.  A panic that escapes the
    /// job's own catch (the `pool.worker` fault site, or scheduler code)
    /// is caught here, so the ticket still completes and the thread lives
    /// on.
    fn complete(&self, job: Job) {
        let (slot, key) = (Arc::clone(&job.slot), job.key.clone());
        let result = catch_unwind(AssertUnwindSafe(|| self.execute(job))).unwrap_or_else(|_| {
            self.panics.inc();
            Err(ServeError::panicked(format!("worker died while processing job '{key}'")))
        });
        // Unregister before waking waiters: requests that arrive from
        // here on start a fresh job (and will typically be answered by
        // the result cache).
        self.lock().inflight.remove(&key);
        slot.fill(result);
    }

    fn execute(&self, job: Job) -> JobResult {
        let t0 = Instant::now();
        self.queue_wait_us.record(t0.duration_since(job.submitted_at).as_micros() as u64);
        let Job { slot, key, deadline, trace, f, .. } = job;
        if expired(deadline) {
            // The deadline passed while the job sat in the queue: skip
            // the work, don't burn a thread on it.
            self.deadline_exceeded.inc();
            return Err(ServeError::deadline_exceeded(
                "job deadline expired before a worker picked it up",
            ));
        }
        // Infrastructure fault site — deliberately OUTSIDE the job's
        // catch_unwind, so an injected panic exercises the catch above.
        if let Some(p) = &self.faults {
            p.fire("pool.worker")?;
        }
        let ctx = JobCtx { deadline, slot };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(p) = &self.faults {
                p.fire("pool.execute")?;
            }
            let _trace = svtrace::ctx::install(trace);
            let _s = svtrace::span!("pool.execute", key = key);
            f(&ctx)
        }));
        let elapsed = t0.elapsed();
        self.busy_nanos.add(elapsed.as_nanos() as u64);
        self.exec_us.record(elapsed.as_micros() as u64);
        self.executed.inc();
        outcome.unwrap_or_else(|payload| {
            self.panics.inc();
            Err(ServeError::panicked(format!(
                "job '{}' panicked: {}",
                key.split_whitespace().next().unwrap_or(&key),
                panic_message(payload.as_ref())
            )))
        })
    }
}

/// One pool thread: take work until none comes for [`IDLE_TIMEOUT`] or
/// the pool stops.
fn thread_main(shared: Arc<Shared>) {
    OWN_POOL.with(|p| p.set(Arc::as_ptr(&shared)));
    let mut s = shared.lock();
    loop {
        match shared.take(&mut s) {
            Some(Work::Job(job)) => {
                drop(s);
                shared.complete(job);
                s = shared.lock();
                s.jobs_running -= 1;
            }
            Some(Work::Frame(frame)) => {
                drop(s);
                // Frames answer handler panics themselves; this backstop
                // keeps the thread and the counts honest regardless.
                let _ = catch_unwind(AssertUnwindSafe(frame));
                s = shared.lock();
                s.frames_running -= 1;
            }
            None if s.draining => break,
            None => {
                let (guard, timeout) =
                    shared.work.wait_timeout(s, IDLE_TIMEOUT).unwrap_or_else(|e| e.into_inner());
                s = guard;
                if timeout.timed_out() && shared.runnable(&s) == 0 {
                    break;
                }
                continue;
            }
        }
        s.idle += 1;
    }
    s.idle -= 1;
    s.threads -= 1;
    if s.draining {
        shared.work.notify_all();
    }
}

/// Sub-jobs of one fan-out request outstanding at once: enough to keep
/// every worker busy, far under the default `max_queue`.
const FANOUT_WINDOW: usize = 32;

/// Pool access for fan-out handlers, which run on the request's own
/// thread (a handler running *as* a job that blocked on sub-jobs could
/// deadlock the job slots).  Each sub-job inherits the server's deadline,
/// dedup-by-key, shedding, and panic isolation.
pub struct FanoutCtx<'a> {
    pub(crate) pool: &'a JobPool,
    pub(crate) deadline: Option<Duration>,
}

impl FanoutCtx<'_> {
    /// Run one sub-job per `(key, job)` item and return the results in
    /// item order; equal keys execute once.  Submissions come from the
    /// calling thread, at most [`FANOUT_WINDOW`] outstanding, so the
    /// sub-jobs' spans parent under the request span.  After an error the
    /// outstanding sub-jobs are given up, nothing more is submitted, and
    /// the first error in item order is returned.
    pub fn run_all<F>(
        &self,
        items: impl IntoIterator<Item = (String, F)>,
    ) -> Result<Vec<Json>, ServeError>
    where
        F: FnOnce(&JobCtx) -> JobResult + Send + 'static,
    {
        let mut items = items.into_iter();
        let mut window = VecDeque::with_capacity(FANOUT_WINDOW);
        let mut results = Vec::with_capacity(items.size_hint().0);
        loop {
            window.extend(items.by_ref().take(FANOUT_WINDOW - window.len()).map(|(key, job)| {
                self.pool.submit(key, self.deadline.map(|d| Instant::now() + d), job)
            }));
            match window.pop_front() {
                Some(ticket) => results.push(ticket.wait()?),
                None => return Ok(results),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::Fault;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn runs_jobs_and_returns_results() {
        let pool = JobPool::new(2);
        let r = pool.run("a".into(), || Ok(Json::Num(5.0))).unwrap();
        assert_eq!(r, Json::Num(5.0));
        let e = pool.run("b".into(), || Err(ServeError::internal("boom"))).unwrap_err();
        assert_eq!(e.code, "internal");
        let s = pool.stats();
        assert_eq!((s.submitted, s.executed, s.deduped), (2, 2, 0));
    }

    #[test]
    fn identical_inflight_jobs_execute_once() {
        let pool = Arc::new(JobPool::new(2));
        let n = 6;
        let barrier = Arc::new(Barrier::new(n));
        let executions = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let barrier = Arc::clone(&barrier);
                let executions = Arc::clone(&executions);
                std::thread::spawn(move || {
                    barrier.wait();
                    pool.run("same-key".into(), move || {
                        executions.fetch_add(1, Ordering::Relaxed);
                        // Stay in flight long enough for every submitter
                        // to observe the slot.
                        std::thread::sleep(Duration::from_millis(200));
                        Ok(Json::Num(42.0))
                    })
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap().unwrap(), Json::Num(42.0));
        }
        assert_eq!(executions.load(Ordering::Relaxed), 1, "deduped to one execution");
        let s = pool.stats();
        assert_eq!(s.submitted, n as u64);
        assert_eq!(s.executed, 1);
        assert_eq!(s.deduped, n as u64 - 1);
    }

    #[test]
    fn different_keys_do_not_dedup() {
        let pool = JobPool::new(2);
        for i in 0..4 {
            pool.run(format!("k{i}"), move || Ok(Json::Num(i as f64))).unwrap();
        }
        let s = pool.stats();
        assert_eq!((s.executed, s.deduped), (4, 0));
    }

    #[test]
    fn key_frees_up_after_completion() {
        let pool = JobPool::new(1);
        let first = pool.run("k".into(), || Ok(Json::Num(1.0))).unwrap();
        let second = pool.run("k".into(), || Ok(Json::Num(2.0))).unwrap();
        // Sequential identical keys both execute (the result cache, not
        // the scheduler, handles repeats).
        assert_eq!((first, second), (Json::Num(1.0), Json::Num(2.0)));
        assert_eq!(pool.stats().deduped, 0);
    }

    #[test]
    fn utilization_grows_with_work() {
        let pool = JobPool::new(1);
        pool.run("w".into(), || {
            std::thread::sleep(Duration::from_millis(50));
            Ok(Json::Null)
        })
        .unwrap();
        let s = pool.stats();
        assert!(s.utilization > 0.0, "busy time recorded: {s:?}");
        assert!(s.utilization <= 1.0);
    }

    #[test]
    fn registry_splits_queue_wait_from_exec_time() {
        let pool = JobPool::new(1);
        for i in 0..3 {
            pool.run(format!("j{i}"), || {
                std::thread::sleep(Duration::from_millis(10));
                Ok(Json::Null)
            })
            .unwrap();
        }
        let snap = pool.registry().snapshot();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|h| h.name == name)
                .unwrap_or_else(|| panic!("histogram {name} missing"))
        };
        assert_eq!(hist("pool.queue_wait_us").count, 3);
        let exec = hist("pool.exec_us");
        assert_eq!(exec.count, 3);
        assert!(exec.min >= 10_000, "each job slept 10ms: {exec:?}");
        let counters: std::collections::HashMap<_, _> =
            snap.counters.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(counters["pool.submitted"], 3);
        assert_eq!(counters["pool.executed"], 3);
    }

    /// The headline bug of ISSUE 3: a panicking job must complete the
    /// ticket with an error (no client hang) and the pool must keep
    /// serving afterwards.
    #[test]
    fn panicking_job_returns_error_and_pool_survives() {
        let pool = JobPool::new(1);
        let e = pool.run("explodes".into(), || panic!("handler bug")).unwrap_err();
        assert_eq!(e.code, "panic");
        assert!(e.message.contains("handler bug"), "{}", e.message);
        // Same worker thread keeps serving.
        assert_eq!(pool.run("after".into(), || Ok(Json::Num(1.0))).unwrap(), Json::Num(1.0));
        assert_eq!(pool.stats().panics, 1);
    }

    /// A panic that escapes the job's catch_unwind (injected at the
    /// `pool.worker` infrastructure site) must still complete the ticket,
    /// and the thread that caught it keeps serving.
    #[test]
    fn worker_fault_completes_ticket_and_thread_survives() {
        let plan = FaultPlan::new(42);
        plan.script("pool.worker", [Fault::Panic("worker infrastructure bug".into())]);
        let pool = JobPool::with_config(PoolConfig {
            workers: 1,
            faults: Some(plan),
            ..PoolConfig::default()
        });
        let e = pool.run("victim".into(), || Ok(Json::Null)).unwrap_err();
        assert_eq!(e.code, "panic");
        assert!(e.message.contains("victim"), "{}", e.message);
        // The running slot was freed: the next job is served.
        assert_eq!(pool.run("next".into(), || Ok(Json::Num(2.0))).unwrap(), Json::Num(2.0));
        assert_eq!(pool.stats().panics, 1);
        assert_eq!(pool.threads(), 1, "the thread survived; none was added");
    }

    fn gated_job(release: Arc<(Mutex<bool>, Condvar)>) -> impl FnOnce() -> JobResult + Send {
        move || {
            let (lock, cv) = &*release;
            let mut open = lock_ip(lock);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
            Ok(Json::str("gated"))
        }
    }

    fn open_gate(release: &Arc<(Mutex<bool>, Condvar)>) {
        *lock_ip(&release.0) = true;
        release.1.notify_all();
    }

    fn wait_for<T>(what: &str, mut poll: impl FnMut() -> Option<T>) -> T {
        for _ in 0..500 {
            if let Some(v) = poll() {
                return v;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    #[test]
    fn full_queue_sheds_with_overloaded() {
        let pool =
            Arc::new(JobPool::with_config(PoolConfig { workers: 1, max_queue: 1, faults: None }));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Occupy the single worker.
        let p = Arc::clone(&pool);
        let g = Arc::clone(&gate);
        let busy = std::thread::spawn(move || p.run("busy".into(), gated_job(g)));
        wait_for("worker pickup", || {
            (pool.stats().queued == 0 && pool.stats().submitted >= 1).then_some(())
        });
        // Fill the queue (capacity 1).
        let p = Arc::clone(&pool);
        let g = Arc::clone(&gate);
        let queued = std::thread::spawn(move || p.run("queued".into(), gated_job(g)));
        wait_for("job to queue", || (pool.stats().queued == 1).then_some(()));
        // Third distinct job: shed immediately, not blocked.
        let t0 = Instant::now();
        let e = pool.run("shed-me".into(), || Ok(Json::Null)).unwrap_err();
        assert_eq!(e.code, "overloaded");
        assert!(e.message.contains("queue full"), "{}", e.message);
        assert!(t0.elapsed() < Duration::from_secs(2), "shedding must not block");
        open_gate(&gate);
        assert!(busy.join().unwrap().is_ok());
        assert!(queued.join().unwrap().is_ok());
        let s = pool.stats();
        assert_eq!(s.shed, 1);
        assert_eq!(s.executed, 2);
    }

    #[test]
    fn deadline_exceeded_instead_of_blocking_forever() {
        let pool = Arc::new(JobPool::new(1));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let p = Arc::clone(&pool);
        let g = Arc::clone(&gate);
        let busy = std::thread::spawn(move || p.run("busy".into(), gated_job(g)));
        wait_for("worker pickup", || {
            (pool.stats().submitted >= 1 && pool.stats().queued == 0).then_some(())
        });
        // This job queues behind the gated one and can't start in time.
        let t0 = Instant::now();
        let e = pool
            .run_with("late".into(), Some(Instant::now() + Duration::from_millis(50)), |_| {
                Ok(Json::Null)
            })
            .unwrap_err();
        assert_eq!(e.code, "deadline_exceeded");
        let waited = t0.elapsed();
        assert!(waited >= Duration::from_millis(45), "honoured the deadline: {waited:?}");
        assert!(waited < Duration::from_secs(5), "timed out promptly: {waited:?}");
        open_gate(&gate);
        assert!(busy.join().unwrap().is_ok());
        // The expired job is skipped by the worker (sole waiter left),
        // so only the gated job ever executed.
        wait_for("expired job skip", || (pool.stats().queued == 0).then_some(()));
        let s = pool.stats();
        assert!(s.deadline_exceeded >= 1, "{s:?}");
        assert_eq!(s.executed, 1, "expired queued job must not execute: {s:?}");
    }

    #[test]
    fn drain_finishes_inflight_and_sheds_queued() {
        let pool =
            Arc::new(JobPool::with_config(PoolConfig { workers: 1, max_queue: 16, faults: None }));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let p = Arc::clone(&pool);
        let g = Arc::clone(&gate);
        let inflight = std::thread::spawn(move || p.run("inflight".into(), gated_job(g)));
        wait_for("worker pickup", || {
            (pool.stats().submitted >= 1 && pool.stats().queued == 0).then_some(())
        });
        let p = Arc::clone(&pool);
        let queued = std::thread::spawn(move || p.run("queued".into(), || Ok(Json::Null)));
        wait_for("job to queue", || (pool.stats().queued == 1).then_some(()));

        pool.begin_drain();
        open_gate(&gate);
        // In-flight finishes with its real result; queued is shed.
        assert_eq!(inflight.join().unwrap().unwrap(), Json::str("gated"));
        let e = queued.join().unwrap().unwrap_err();
        assert_eq!(e.code, "shutting_down");
        // New submissions are rejected during the drain.
        assert_eq!(
            pool.run("rejected".into(), || Ok(Json::Null)).unwrap_err().code,
            "shutting_down"
        );
        let s = pool.stats();
        assert_eq!(s.drained, 1, "{s:?}");
        assert_eq!(s.executed, 1, "{s:?}");
    }

    #[test]
    fn injected_latency_blows_the_deadline() {
        let plan = FaultPlan::new(7);
        plan.script("pool.execute", [Fault::Delay(Duration::from_millis(400))]);
        let pool = JobPool::with_config(PoolConfig {
            workers: 1,
            faults: Some(Arc::clone(&plan)),
            ..PoolConfig::default()
        });
        let t0 = Instant::now();
        let e = pool
            .run_with("slow".into(), Some(Instant::now() + Duration::from_millis(50)), |_| {
                Ok(Json::Null)
            })
            .unwrap_err();
        assert_eq!(e.code, "deadline_exceeded");
        assert!(t0.elapsed() < Duration::from_millis(350), "reply beat the slow handler");
        assert_eq!(plan.fired("pool.execute"), 1);
    }

    fn counting_frame(n: &Arc<AtomicU64>) -> Frame {
        let n = Arc::clone(n);
        Box::new(move || {
            n.fetch_add(1, Ordering::SeqCst);
        })
    }

    #[test]
    fn frames_run_and_idle_threads_retire() {
        let pool = JobPool::new(1);
        let n = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            pool.post(counting_frame(&n));
        }
        wait_for("16 frames", || (n.load(Ordering::SeqCst) == 16).then_some(()));
        assert!(pool.threads() <= 16);
        // After the idle timeout every thread retires.
        for _ in 0..(IDLE_TIMEOUT.as_millis() / 10 + 500) {
            if pool.threads() == 0 {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("{} threads still alive past the idle timeout", pool.threads());
    }

    #[test]
    fn pool_thread_survives_panicking_frame() {
        let pool = JobPool::new(1);
        pool.post(Box::new(|| panic!("boom")));
        let n = Arc::new(AtomicU64::new(0));
        pool.post(counting_frame(&n));
        wait_for("the frame after the panic", || (n.load(Ordering::SeqCst) == 1).then_some(()));
        assert_eq!(pool.run("job".into(), || Ok(Json::Null)).unwrap(), Json::Null);
    }

    #[test]
    fn frame_runs_while_the_only_job_slot_is_busy() {
        let pool = JobPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let busy = pool.submit("busy".into(), None, move |_| gated_job(g)());
        wait_for("job pickup", || (pool.stats().queued == 0).then_some(()));
        let n = Arc::new(AtomicU64::new(0));
        pool.post(counting_frame(&n));
        wait_for("the frame", || (n.load(Ordering::SeqCst) == 1).then_some(()));
        open_gate(&gate);
        assert_eq!(busy.wait().unwrap(), Json::str("gated"));
    }

    #[test]
    fn running_jobs_never_exceed_workers() {
        let pool = JobPool::new(2);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let running = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                let (g, running, peak) =
                    (Arc::clone(&gate), Arc::clone(&running), Arc::clone(&peak));
                pool.submit(format!("j{i}"), None, move |_| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    let r = gated_job(g)();
                    running.fetch_sub(1, Ordering::SeqCst);
                    r
                })
            })
            .collect();
        // Two jobs hold both slots at the gate; the other six stay queued.
        wait_for("both slots busy", || {
            (running.load(Ordering::SeqCst) == 2 && pool.stats().queued == 6).then_some(())
        });
        open_gate(&gate);
        for t in tickets {
            assert_eq!(t.wait().unwrap(), Json::str("gated"));
        }
        assert_eq!(peak.load(Ordering::SeqCst), 2);
        assert_eq!(pool.stats().executed, 8);
    }

    #[test]
    fn dropped_ticket_cancels_its_queued_job() {
        let pool = JobPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g = Arc::clone(&gate);
        let busy = pool.submit("busy".into(), None, move |_| gated_job(g)());
        wait_for("job pickup", || (pool.stats().queued == 0).then_some(()));
        let ran = Arc::new(AtomicU64::new(0));
        let r = Arc::clone(&ran);
        drop(pool.submit("dropped".into(), None, move |_| {
            r.fetch_add(1, Ordering::SeqCst);
            Ok(Json::Null)
        }));
        open_gate(&gate);
        assert!(busy.wait().is_ok());
        // One slot, FIFO: this job runs after the dropped one was taken.
        assert!(pool.run("after".into(), || Ok(Json::Null)).is_ok());
        assert_eq!(ran.load(Ordering::SeqCst), 0, "the abandoned job was skipped");
        let s = pool.stats();
        assert_eq!((s.executed, s.deadline_exceeded), (2, 0), "{s:?}");
    }

    #[test]
    fn dropping_the_last_reference_on_a_pool_thread_returns() {
        let pool = Arc::new(JobPool::new(1));
        let handed_over = Arc::new(Barrier::new(2));
        let returned = Arc::new(AtomicU64::new(0));
        let (last, h, r) = (Arc::clone(&pool), Arc::clone(&handed_over), Arc::clone(&returned));
        pool.post(Box::new(move || {
            h.wait();
            // The last reference: the pool shuts down on its own thread.
            drop(last);
            r.store(1, Ordering::SeqCst);
        }));
        drop(pool);
        handed_over.wait();
        wait_for("the drop to return", || (returned.load(Ordering::SeqCst) == 1).then_some(()));
    }

    fn fanout_items(
        n: usize,
        fail: impl Fn(usize) -> Option<Duration> + Send + Sync + 'static,
    ) -> impl Iterator<Item = (String, impl FnOnce(&JobCtx) -> JobResult + Send + 'static)> {
        let fail = Arc::new(fail);
        (0..n).map(move |i| {
            let fail = Arc::clone(&fail);
            (format!("item {i}"), move |_: &JobCtx| match fail(i) {
                None => Ok(Json::Num(i as f64)),
                Some(delay) => {
                    std::thread::sleep(delay);
                    Err(ServeError::internal(format!("item {i} failed")))
                }
            })
        })
    }

    #[test]
    fn run_all_keeps_item_order_under_the_default_queue_bound() {
        let pool = JobPool::new(2);
        let ctx = FanoutCtx { pool: &pool, deadline: None };
        let results = ctx.run_all(fanout_items(2_000, |_| None)).unwrap();
        let want: Vec<Json> = (0..2_000).map(|i| Json::Num(i as f64)).collect();
        assert_eq!(results, want);
        let s = pool.stats();
        assert_eq!((s.executed, s.shed), (2_000, 0), "{s:?}");
    }

    #[test]
    fn run_all_returns_the_first_error_in_item_order() {
        let pool = JobPool::new(2);
        let ctx = FanoutCtx { pool: &pool, deadline: None };
        // Item 3 fails after item 7 has failed, so the first error in
        // time is item 7's.
        let e = ctx
            .run_all(fanout_items(40, |i| match i {
                3 => Some(Duration::from_millis(300)),
                7 => Some(Duration::ZERO),
                _ => None,
            }))
            .unwrap_err();
        assert_eq!(e.message, "item 3 failed");
    }
}
