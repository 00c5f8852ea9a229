//! TCP analysis server: accept loop, per-connection framing, dispatch.
//!
//! The server is method-agnostic — analysis handlers are registered on a
//! [`Router`] by the embedding application (the `silvervale` binary
//! registers index/compare/cluster/… there), while `ping`, `stats` and
//! `shutdown` are built in.  Every routed request becomes a job on the
//! shared [`JobPool`], keyed by `method + canonical params`, so identical
//! concurrent requests from different connections execute once.
//!
//! One listener serves two wires through the same dispatch path: the
//! line-framed JSON protocol (the original wire, kept byte-identical for
//! old clients) and a length-prefixed binary protocol
//! ([`crate::binproto`]) that carries svpack bytes verbatim.  Each
//! connection picks its wire with its first bytes ([`Parser`]).  The epoll
//! [`crate::reactor`] drives every connection, so the server runs on
//! Linux only; elsewhere [`serve_with`] returns `Unsupported`.

use crate::binproto::{self, FrameAccum};
use crate::client::Wire;
use crate::faults::FaultPlan;
use crate::proto::{
    id_hex, parse_id_hex, parse_request, response_err, response_ok, FrameRead, LineAccum, Request,
    ServeError,
};
use crate::sched::{JobPool, PoolConfig, DEFAULT_MAX_QUEUE};
use crate::svjson::Json;
use crate::tracewire;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use svtrace::{
    ActiveTrace, HistogramSnapshot, MetricsSnapshot, Recorder, RecorderConfig, RollingWindow,
    TraceCtx,
};

/// Methods served directly by [`ServerState::dispatch`] rather than by a
/// registered handler.  Also the set the flight recorder does *not*
/// self-sample: a `stats --follow` poll every second must not churn the
/// recent-trace ring (an explicit client trace context is always
/// honoured, builtin or not).
const BUILTIN_METHODS: [&str; 8] =
    ["health", "methods", "metrics", "ping", "shutdown", "slowlog", "stats", "trace"];

/// Server construction knobs: pool sizing plus the robustness layer
/// (deadline, queue bound, fault injection).  [`serve`] uses the defaults
/// with an explicit worker count; [`serve_with`] takes the full config.
#[derive(Clone)]
pub struct ServeConfig {
    /// Routed jobs that may execute at once (minimum 1).
    pub workers: usize,
    /// Bound on queued jobs before submissions are shed with a retryable
    /// `overloaded` error.
    pub max_queue: usize,
    /// Per-request deadline for routed methods.  A request that cannot
    /// complete in time is answered with `deadline_exceeded` instead of
    /// blocking the connection.  `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Deterministic fault-injection plan shared with the pool (tests
    /// only; production servers leave this `None`).
    pub faults: Option<Arc<FaultPlan>>,
    /// Completed requests at least this slow are tail-sampled into the
    /// flight recorder's slowlog.  `None` keeps the recorder default
    /// (500ms).
    pub slow_threshold: Option<Duration>,
    /// Self-sample routed requests into the flight recorder even when
    /// the client sent no trace context (on by default; explicit client
    /// contexts are always honoured).
    pub flight_recorder: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 1,
            max_queue: DEFAULT_MAX_QUEUE,
            deadline: None,
            faults: None,
            slow_threshold: None,
            flight_recorder: true,
        }
    }
}

/// A registered request handler.
pub type Handler = Arc<dyn Fn(&Json) -> Result<Json, ServeError> + Send + Sync>;

/// A registered blob handler: returns JSON metadata plus an opaque byte
/// payload (svpack, typically).  On the binary wire the bytes ride the
/// frame verbatim; the JSON wire folds them into the result as
/// `svpack_hex`.
pub type BlobHandler = Arc<dyn Fn(&Json) -> Result<(Json, Arc<Vec<u8>>), ServeError> + Send + Sync>;

/// What dispatch hands the frame layer: the JSON result plus the
/// out-of-band payload blob handlers produce (`None` for plain methods).
pub(crate) type DispatchReply = Result<(Json, Option<Arc<Vec<u8>>>), ServeError>;

/// Method-name → handler table plus an optional application stats source.
#[derive(Default, Clone)]
pub struct Router {
    handlers: HashMap<String, Handler>,
    blob: HashMap<String, BlobHandler>,
    app_stats: Option<Arc<dyn Fn() -> Json + Send + Sync>>,
    app_metrics: Option<Arc<dyn Fn() -> MetricsSnapshot + Send + Sync>>,
}

impl Router {
    pub fn new() -> Router {
        Router::default()
    }

    /// Register `f` under `method` (replacing any previous handler).
    pub fn register(
        &mut self,
        method: impl Into<String>,
        f: impl Fn(&Json) -> Result<Json, ServeError> + Send + Sync + 'static,
    ) {
        self.handlers.insert(method.into(), Arc::new(f));
    }

    /// Register a blob handler under `method`: besides its JSON result
    /// it returns opaque bytes, carried verbatim on the binary wire and
    /// as `svpack_hex` on the JSON one.  Blob handlers run inline on the
    /// serving thread (they are expected to be store lookups, not
    /// computations); a plain handler of the same name wins.
    pub fn register_blob(
        &mut self,
        method: impl Into<String>,
        f: impl Fn(&Json) -> Result<(Json, Arc<Vec<u8>>), ServeError> + Send + Sync + 'static,
    ) {
        self.blob.insert(method.into(), Arc::new(f));
    }

    /// Provide the application section of the `stats` response (cache
    /// counters, DB registry size, …).
    pub fn stats_provider(&mut self, f: impl Fn() -> Json + Send + Sync + 'static) {
        self.app_stats = Some(Arc::new(f));
    }

    /// Provide the application section of the `metrics` response — a
    /// [`MetricsSnapshot`] merged into the server/pool/global snapshot (the
    /// service typically forwards its cache registry here).
    pub fn metrics_provider(&mut self, f: impl Fn() -> MetricsSnapshot + Send + Sync + 'static) {
        self.app_metrics = Some(Arc::new(f));
    }

    /// Registered method names (sorted), for error messages and docs.
    pub fn methods(&self) -> Vec<String> {
        let mut m: Vec<String> = self.handlers.keys().cloned().collect();
        m.extend(self.blob.keys().filter(|k| !self.handlers.contains_key(*k)).cloned());
        m.sort();
        m
    }
}

pub(crate) struct ServerState {
    pub(crate) router: Router,
    pub(crate) pool: JobPool,
    pub(crate) deadline: Option<Duration>,
    pub(crate) started: Instant,
    pub(crate) shutdown: AtomicBool,
    pub(crate) connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) errors: AtomicU64,
    /// Per-server flight recorder (tail-sampled span trees).
    pub(crate) recorder: Arc<Recorder>,
    /// Self-sample routed requests when the client sent no context.
    pub(crate) flight_recorder: bool,
    /// Rolling request-latency window (µs) and error-count window.
    pub(crate) win_requests: RollingWindow,
    pub(crate) win_errors: RollingWindow,
    /// Per-wire request counts (the JSON wire's residual traffic is the
    /// interesting number during migration).
    pub(crate) win_json: RollingWindow,
    pub(crate) win_bin: RollingWindow,
    /// Installed by the reactor: wakes its `epoll_wait`.
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
}

impl ServerState {
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    pub(crate) fn set_waker(&self, w: Arc<dyn Fn() + Send + Sync>) {
        *self.waker.lock().unwrap_or_else(|p| p.into_inner()) = Some(w);
    }

    /// Wake the reactor's `epoll_wait` so it sees the shutdown flag.
    pub(crate) fn wake(&self) {
        let waker = self.waker.lock().unwrap_or_else(|p| p.into_inner()).clone();
        if let Some(w) = waker {
            w();
        }
    }

    pub(crate) fn count_connection(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    /// The reply for an oversized JSON line (counted as a server error;
    /// the connection survives — the reader resyncs on the newline).
    pub(crate) fn reject_oversized_json(&self) -> String {
        self.errors.fetch_add(1, Ordering::Relaxed);
        response_err(None, &ServeError::frame_too_large())
    }

    /// The reply for an oversized binary length prefix (counted as a
    /// server error; the connection closes — nothing to resync on).
    pub(crate) fn reject_oversized_bin(&self) -> Vec<u8> {
        self.errors.fetch_add(1, Ordering::Relaxed);
        binproto::encode_response_err(None, &ServeError::frame_too_large())
    }
    /// Everything the `stats` method (and the shutdown banner) reports.
    fn stats_json(&self) -> Json {
        let p = self.pool.stats();
        let mut sections = vec![
            (
                "server".to_string(),
                Json::obj([
                    ("connections", Json::Num(self.connections.load(Ordering::Relaxed) as f64)),
                    ("requests", Json::Num(self.requests.load(Ordering::Relaxed) as f64)),
                    ("errors", Json::Num(self.errors.load(Ordering::Relaxed) as f64)),
                ]),
            ),
            (
                "pool".to_string(),
                Json::obj([
                    ("workers", Json::Num(p.workers as f64)),
                    ("jobs_submitted", Json::Num(p.submitted as f64)),
                    ("jobs_executed", Json::Num(p.executed as f64)),
                    ("jobs_deduped", Json::Num(p.deduped as f64)),
                    ("jobs_shed", Json::Num(p.shed as f64)),
                    ("jobs_drained", Json::Num(p.drained as f64)),
                    ("panics", Json::Num(p.panics as f64)),
                    ("deadline_exceeded", Json::Num(p.deadline_exceeded as f64)),
                    ("queued", Json::Num(p.queued as f64)),
                    ("utilization", Json::Num((p.utilization * 1e4).round() / 1e4)),
                ]),
            ),
        ];
        let round = |v: f64| (v * 100.0).round() / 100.0;
        let (w1, w10, w60) =
            (self.win_requests.stats(1), self.win_requests.stats(10), self.win_requests.stats(60));
        sections.push((
            "window".to_string(),
            Json::obj([
                ("rate_1s", Json::Num(round(w1.rate_per_sec))),
                ("rate_10s", Json::Num(round(w10.rate_per_sec))),
                ("rate_60s", Json::Num(round(w60.rate_per_sec))),
                ("p50_us", Json::Num(w10.p50 as f64)),
                ("p90_us", Json::Num(w10.p90 as f64)),
                ("p99_us", Json::Num(w10.p99 as f64)),
                ("err_rate_10s", Json::Num(round(self.win_errors.stats(10).rate_per_sec))),
                ("json_rate_10s", Json::Num(round(self.win_json.stats(10).rate_per_sec))),
                ("bin_rate_10s", Json::Num(round(self.win_bin.stats(10).rate_per_sec))),
            ]),
        ));
        if let Some(f) = &self.router.app_stats {
            sections.push(("app".to_string(), f()));
        }
        Json::Object(sections.into_iter().collect())
    }

    /// Everything the `metrics` method reports: server counters, the pool
    /// registry (queue-wait/exec histograms), the process-wide
    /// `svtrace::global()` registry, and whatever the application's
    /// metrics provider contributes (cache counters, service totals).
    fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.push_counter("server.connections", self.connections.load(Ordering::Relaxed));
        snap.push_counter("server.requests", self.requests.load(Ordering::Relaxed));
        snap.push_counter("server.errors", self.errors.load(Ordering::Relaxed));
        snap.merge(self.pool.registry().snapshot());
        snap.merge(svtrace::global().snapshot());
        if let Some(f) = &self.router.app_metrics {
            snap.merge(f());
        }
        snap
    }

    /// [`dispatch_full`](ServerState::dispatch_full) flattened for JSON
    /// consumers: a blob payload is folded into the result object as
    /// `svpack_hex` (the JSON wire's carriage).  Production code
    /// reaches it through [`fold_blob`] at the frame layer; unit tests
    /// drive it directly.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn dispatch(
        self: &Arc<Self>,
        method: &str,
        params: &Json,
    ) -> Result<Json, ServeError> {
        self.dispatch_full(method, params).map(|(result, blob)| fold_blob(result, blob))
    }

    /// Serve one request: builtins inline, routed methods through the
    /// pool.  Blob handlers return their payload out-of-band so the
    /// binary wire can write it verbatim.
    fn dispatch_full(self: &Arc<Self>, method: &str, params: &Json) -> DispatchReply {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let _req_span = svtrace::span!("serve.request", method = method);
        let plain = match method {
            "ping" => Ok(Json::str("pong")),
            "stats" => Ok(self.stats_json()),
            "metrics" => Ok(snapshot_json(&self.metrics_snapshot())),
            "health" => {
                let p = self.pool.stats();
                let draining = self.pool.is_draining() || self.shutdown.load(Ordering::SeqCst);
                Ok(Json::obj([
                    ("status", Json::str(if draining { "draining" } else { "ok" })),
                    ("workers", Json::Num(p.workers as f64)),
                    ("queued", Json::Num(p.queued as f64)),
                    ("uptime_ms", Json::Num(self.started.elapsed().as_millis() as f64)),
                    // Which TED DP kernel this host dispatches to
                    // ("simd-avx512f" … "scalar"), so operators can tell
                    // at a glance whether the hot path is vectorised.
                    ("kernel", Json::str(svdist::active_kernel_name())),
                    // Both wires share the listener (see `binproto::PREFACE`).
                    ("protocols", Json::Array(vec![Json::str("json"), Json::str("bin")])),
                ]))
            }
            "methods" => {
                let mut m = self.router.methods();
                m.extend(BUILTIN_METHODS.iter().map(|b| b.to_string()));
                m.sort();
                Ok(Json::Array(m.into_iter().map(Json::Str).collect()))
            }
            "trace" => {
                let id = params
                    .get("id")
                    .and_then(Json::as_str)
                    .and_then(parse_id_hex)
                    .filter(|&v| v != 0)
                    .ok_or_else(|| ServeError::bad_params("trace needs a hex string 'id'"))?;
                match self.recorder.lookup(id) {
                    Some(t) => Ok(tracewire::trace_record_json(&t)),
                    None => Err(ServeError::not_found(format!("no recorded trace {}", id_hex(id)))),
                }
            }
            "slowlog" => {
                let limit = params.get("limit").and_then(Json::as_u64).unwrap_or(u64::MAX) as usize;
                let entries = self.recorder.slowlog();
                Ok(Json::obj([
                    (
                        "slow_threshold_ms",
                        Json::Num(self.recorder.slow_threshold().as_secs_f64() * 1e3),
                    ),
                    (
                        "entries",
                        Json::Array(
                            entries.iter().take(limit).map(tracewire::trace_record_json).collect(),
                        ),
                    ),
                ]))
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                // Graceful drain: in-flight jobs finish and get their
                // replies; queued jobs are shed with `shutting_down`.
                self.pool.begin_drain();
                // Wake the reactor (or the blocking accept loops) so the
                // serving side can wind down.
                self.wake();
                Ok(Json::str("shutting down"))
            }
            _ => match self.router.handlers.get(method) {
                None => match self.router.blob.get(method) {
                    None => Err(ServeError::unknown_method(method)),
                    // Blob handlers run inline: store lookups, not
                    // computations.
                    Some(handler) => return handler(params).map(|(j, b)| (j, Some(b))),
                },
                Some(handler) => {
                    // Content identity of the job: method + canonical
                    // params (svjson objects serialise with sorted keys).
                    let key = format!("{method} {}", params.to_string_compact());
                    let handler = Arc::clone(handler);
                    let params = params.clone();
                    let deadline = self.deadline.map(|d| Instant::now() + d);
                    self.pool.run_with(key, deadline, move |ctx| {
                        if ctx.should_stop() {
                            return Err(ServeError::deadline_exceeded(
                                "request deadline passed before the handler started",
                            ));
                        }
                        handler(&params)
                    })
                }
            },
        };
        plain.map(|j| (j, None))
    }
}

/// Fold an out-of-band blob into a JSON result as `svpack_hex` (the
/// JSON wire cannot carry raw bytes).
fn fold_blob(result: Json, blob: Option<Arc<Vec<u8>>>) -> Json {
    match blob {
        None => result,
        Some(bytes) => {
            let hex = Json::Str(binproto::hex_encode(&bytes));
            match result {
                Json::Object(mut map) => {
                    map.insert("svpack_hex".to_string(), hex);
                    Json::Object(map)
                }
                other => Json::obj([("value", other), ("svpack_hex", hex)]),
            }
        }
    }
}

/// Handle to a running server: address, stats access, shutdown.
pub struct ServeHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ServeHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live stats snapshot, same shape as the `stats` method's result.
    pub fn stats_json(&self) -> Json {
        self.state.stats_json()
    }

    /// True once `shutdown` was requested (by a client or this handle).
    pub fn is_shutting_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// Request shutdown, wait for the connection loop to finish, and
    /// return the final stats snapshot.
    ///
    /// The shutdown is a graceful drain: jobs already executing finish
    /// (and their clients get real replies), queued jobs are shed with
    /// `shutting_down`.
    pub fn shutdown(mut self) -> Json {
        self.state.shutdown.store(true, Ordering::SeqCst);
        self.state.pool.begin_drain();
        self.state.wake();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.state.stats_json()
    }

    /// Block until a client asks the server to shut down, then join the
    /// accept loop and return the final stats (the `silvervale serve`
    /// foreground path).
    pub fn wait(mut self) -> Json {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.state.stats_json()
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(t) = self.accept_thread.take() {
            self.state.shutdown.store(true, Ordering::SeqCst);
            self.state.pool.begin_drain();
            self.state.wake();
            let _ = t.join();
        }
    }
}

/// A connection holding part of a frame, with nothing in flight, that
/// sends nothing for this long is closed (idle ones stay open).
pub(crate) const STALL_TIMEOUT: Duration = Duration::from_secs(10);

/// Bind `addr` and serve `router`, at most `workers` routed jobs at once.
///
/// Returns immediately; the accept loop runs on a background thread.
/// Use `addr` `"127.0.0.1:0"` to let the OS pick a free port.
pub fn serve(addr: impl ToSocketAddrs, router: Router, workers: usize) -> io::Result<ServeHandle> {
    serve_with(addr, router, ServeConfig { workers, ..ServeConfig::default() })
}

/// [`serve`] with the full robustness configuration: queue bound,
/// per-request deadline, and (in tests) a fault-injection plan.  One
/// socket serves both wires.  A failure to set up the reactor (epoll,
/// eventfd) is returned here; on targets other than Linux, which have no
/// epoll, so is `io::ErrorKind::Unsupported`.
pub fn serve_with(
    addr: impl ToSocketAddrs,
    router: Router,
    config: ServeConfig,
) -> io::Result<ServeHandle> {
    #[cfg(target_os = "linux")]
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let state = new_state(router, config);
        let reactor = crate::reactor::Reactor::new(listener, Arc::clone(&state))?;
        let accept_thread = std::thread::Builder::new()
            .name("svserve-accept".into())
            .spawn(move || reactor.run())?;
        Ok(ServeHandle { addr, state, accept_thread: Some(accept_thread) })
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (addr, router, config);
        Err(io::Error::new(io::ErrorKind::Unsupported, "svserve serves on Linux only (epoll)"))
    }
}

fn new_state(router: Router, config: ServeConfig) -> Arc<ServerState> {
    let mut recorder_cfg = RecorderConfig::default();
    if let Some(t) = config.slow_threshold {
        recorder_cfg.slow_threshold = t;
    }
    Arc::new(ServerState {
        router,
        pool: JobPool::with_config(PoolConfig {
            workers: config.workers,
            max_queue: config.max_queue,
            faults: config.faults,
        }),
        deadline: config.deadline,
        started: Instant::now(),
        shutdown: AtomicBool::new(false),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        recorder: Arc::new(Recorder::new(recorder_cfg)),
        flight_recorder: config.flight_recorder,
        win_requests: RollingWindow::latency_us(),
        win_errors: RollingWindow::new(&[1]),
        win_json: RollingWindow::new(&[1]),
        win_bin: RollingWindow::new(&[1]),
        waker: Mutex::new(None),
    })
}

/// Serve one request end to end: self-sampling, flight-recorder
/// bookkeeping, dispatch under `catch_unwind`, latency/error windows.
/// Both wires funnel through here, so their semantics cannot drift.
pub(crate) fn process_request(
    state: &Arc<ServerState>,
    req: &Request,
    wire: Wire,
) -> DispatchReply {
    let t0 = Instant::now();
    // An explicit client context wins; routed methods are otherwise
    // self-sampled so the flight recorder can tail-sample them.
    let trace_ctx = req.trace.or_else(|| {
        (state.flight_recorder && !BUILTIN_METHODS.contains(&req.method.as_str()))
            .then(TraceCtx::root)
    });
    let sampled = trace_ctx.map_or(0, |c| if c.sampled { c.trace_id } else { 0 });
    if sampled != 0 {
        state.recorder.begin(sampled);
    }
    // Last line of defence: a panic anywhere in dispatch (the pool
    // already isolates handler panics) must produce an error reply,
    // never a dead connection.
    let outcome = {
        let _trace = trace_ctx.map(|ctx| {
            svtrace::ctx::install(Some(ActiveTrace {
                ctx,
                sink: (sampled != 0).then(|| Arc::clone(&state.recorder)),
            }))
        });
        catch_unwind(AssertUnwindSafe(|| state.dispatch_full(&req.method, &req.params)))
    };
    let code = match &outcome {
        Ok(Ok(_)) => "ok",
        Ok(Err(e)) => e.code,
        Err(_) => "panic",
    };
    state.win_requests.record(t0.elapsed().as_micros() as u64);
    match wire {
        Wire::Json => state.win_json.record(1),
        Wire::Bin => state.win_bin.record(1),
    }
    if code != "ok" {
        state.win_errors.record(1);
    }
    // Finish before the reply is written: a follow-up `trace` request
    // must already find the record.
    if sampled != 0 {
        state.recorder.finish(sampled, &req.method, code);
    }
    match outcome {
        Ok(r) => r,
        Err(_) => Err(ServeError::panicked("request dispatch panicked")),
    }
}

/// One JSON line in, one JSON reply line out.
fn handle_frame_json(state: &Arc<ServerState>, line: &str) -> String {
    match parse_request(line) {
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            response_err(None, &e)
        }
        Ok(req) => match process_request(state, &req, Wire::Json) {
            Ok((result, blob)) => response_ok(req.id, fold_blob(result, blob)),
            Err(e) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                response_err(Some(req.id), &e)
            }
        },
    }
}

/// One binary frame payload in, one framed binary reply out.
fn handle_frame_bin(state: &Arc<ServerState>, payload: &[u8]) -> Vec<u8> {
    match binproto::decode_request(payload) {
        Err(e) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            binproto::encode_response_err(None, &e)
        }
        Ok((req, _blobs)) => match process_request(state, &req, Wire::Bin) {
            Ok((result, blob)) => {
                binproto::encode_response_ok(req.id, &result, blob.as_ref().map(|b| b.as_slice()))
            }
            Err(e) => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                binproto::encode_response_err(Some(req.id), &e)
            }
        },
    }
}

/// A connection's inbound framing: one parser for both wires, so their
/// rules cannot drift between them.
///
/// Every connection starts in `Sniff`, buffering until its first bytes
/// decide the wire ([`binproto::sniff`]): the full preface switches it
/// to binary frames (the preface itself dropped); bytes that stop
/// matching the preface are replayed into the JSON line framer, so a
/// garbage line gets the same `parse_error` reply it always did.
pub(crate) enum Parser {
    Sniff(Vec<u8>),
    Json(LineAccum),
    Bin(FrameAccum),
}

/// A complete inbound frame, ready to execute.
pub(crate) enum Job {
    Json(String),
    Bin(Vec<u8>),
}

/// One parse attempt's outcome.
pub(crate) enum Step {
    /// No complete frame buffered.
    Idle,
    Dispatch(Job),
    /// Oversized JSON line: error reply, resync, connection survives.
    JsonTooLarge,
    /// Oversized/corrupt binary length prefix: error reply, then close.
    BinFatal,
}

impl Parser {
    pub(crate) fn new() -> Parser {
        Parser::Sniff(Vec::new())
    }

    pub(crate) fn push(&mut self, bytes: &[u8]) {
        match self {
            Parser::Json(lines) => lines.push(bytes),
            Parser::Bin(frames) => frames.push(bytes),
            Parser::Sniff(head) => {
                head.extend_from_slice(bytes);
                match binproto::sniff(head) {
                    None => {}
                    Some(Wire::Json) => {
                        let mut lines = LineAccum::new();
                        lines.push(head);
                        *self = Parser::Json(lines);
                    }
                    Some(Wire::Bin) => {
                        let mut frames = FrameAccum::new();
                        frames.push(&head[binproto::PREFACE.len()..]);
                        *self = Parser::Bin(frames);
                    }
                }
            }
        }
    }

    /// True while part of a frame (or of the preface) is buffered.
    pub(crate) fn has_partial(&self) -> bool {
        match self {
            Parser::Sniff(head) => !head.is_empty(),
            Parser::Json(lines) => lines.buffered() > 0,
            Parser::Bin(frames) => frames.buffered() > 0,
        }
    }

    pub(crate) fn step(&mut self) -> Step {
        match self {
            Parser::Sniff(_) => Step::Idle,
            Parser::Json(lines) => loop {
                match lines.next_frame() {
                    None => return Step::Idle,
                    // Empty lines are skipped without a reply.
                    Some(FrameRead::Line(line)) if line.trim().is_empty() => {}
                    Some(FrameRead::Line(line)) => return Step::Dispatch(Job::Json(line)),
                    // `LineAccum` yields only lines and `TooLarge`.
                    Some(_) => return Step::JsonTooLarge,
                }
            },
            Parser::Bin(frames) => match frames.next_frame() {
                Ok(Some(payload)) => Step::Dispatch(Job::Bin(payload)),
                Ok(None) => Step::Idle,
                Err(_) => Step::BinFatal,
            },
        }
    }
}

impl Job {
    /// Execute the frame and encode the reply on its own wire.  A panic
    /// anywhere on the way still produces a reply.
    pub(crate) fn reply(&self, state: &Arc<ServerState>) -> Vec<u8> {
        catch_unwind(AssertUnwindSafe(|| match self {
            Job::Json(line) => handle_frame_json(state, line).into_bytes(),
            Job::Bin(payload) => handle_frame_bin(state, payload),
        }))
        .unwrap_or_else(|_| {
            let e = ServeError::panicked("request dispatch panicked");
            match self {
                Job::Json(_) => response_err(None, &e).into_bytes(),
                Job::Bin(_) => binproto::encode_response_err(None, &e),
            }
        })
    }
}

/// Convert a [`MetricsSnapshot`] into the wire [`Json`] shape served by the
/// `metrics` method:
///
/// ```json
/// {"counters": {..}, "gauges": {..},
///  "histograms": {"name": {"count":.., "sum":.., "min":.., "max":..,
///                          "p50":.., "p90":.., "p99":..,
///                          "buckets": [[le, count], ..]}}}
/// ```
///
/// The overflow bucket's bound is rendered as `null` (JSON has no `+inf`).
pub fn snapshot_json(snap: &MetricsSnapshot) -> Json {
    fn hist_json(h: &HistogramSnapshot) -> Json {
        let buckets = h
            .buckets
            .iter()
            .map(|&(le, n)| {
                let bound = if le == u64::MAX { Json::Null } else { Json::Num(le as f64) };
                Json::Array(vec![bound, Json::Num(n as f64)])
            })
            .collect();
        Json::obj([
            ("count", Json::Num(h.count as f64)),
            ("sum", Json::Num(h.sum as f64)),
            ("min", Json::Num(h.min as f64)),
            ("max", Json::Num(h.max as f64)),
            ("p50", Json::Num(h.p50() as f64)),
            ("p90", Json::Num(h.p90() as f64)),
            ("p99", Json::Num(h.p99() as f64)),
            ("buckets", Json::Array(buckets)),
        ])
    }
    Json::obj([
        (
            "counters",
            Json::Object(
                snap.counters.iter().map(|(k, v)| (k.clone(), Json::Num(*v as f64))).collect(),
            ),
        ),
        (
            "gauges",
            Json::Object(snap.gauges.iter().map(|(k, v)| (k.clone(), Json::Num(*v))).collect()),
        ),
        (
            "histograms",
            Json::Object(snap.histograms.iter().map(|h| (h.name.clone(), hist_json(h))).collect()),
        ),
    ])
}

/// Render a stats JSON document as the human-readable report printed by
/// `silvervale stats` and on server shutdown.
pub fn render_stats(stats: &Json) -> String {
    fn num(v: Option<&Json>) -> f64 {
        v.and_then(Json::as_f64).unwrap_or(0.0)
    }
    let mut s = String::from("svserve statistics\n");
    if let Some(sv) = stats.get("server") {
        s.push_str(&format!(
            "  server   connections {:>8}   requests {:>8}   errors {:>6}\n",
            num(sv.get("connections")),
            num(sv.get("requests")),
            num(sv.get("errors")),
        ));
    }
    if let Some(p) = stats.get("pool") {
        s.push_str(&format!(
            "  pool     workers {:>12}   executed {:>8}   deduped {:>5}   utilization {:.1}%\n",
            num(p.get("workers")),
            num(p.get("jobs_executed")),
            num(p.get("jobs_deduped")),
            num(p.get("utilization")) * 100.0,
        ));
    }
    if let Some(w) = stats.get("window") {
        s.push_str(&format!(
            "  window   req/s 1s {:.1} / 10s {:.1} / 60s {:.1}   p50 {}us   p99 {}us   err/s {:.1}\n",
            num(w.get("rate_1s")),
            num(w.get("rate_10s")),
            num(w.get("rate_60s")),
            num(w.get("p50_us")),
            num(w.get("p99_us")),
            num(w.get("err_rate_10s")),
        ));
        // Per-wire breakdown — only when the stats document carries
        // it (older servers do not; their reports must not change).
        if w.get("json_rate_10s").is_some() || w.get("bin_rate_10s").is_some() {
            s.push_str(&format!(
                "  proto    json req/s 10s {:.1}   bin req/s 10s {:.1}\n",
                num(w.get("json_rate_10s")),
                num(w.get("bin_rate_10s")),
            ));
        }
    }
    if let Some(cache) = stats.get("app").and_then(|a| a.get("cache")) {
        let hits = num(cache.get("hits"));
        let misses = num(cache.get("misses"));
        let rate = if hits + misses > 0.0 { hits / (hits + misses) * 100.0 } else { 0.0 };
        s.push_str(&format!(
            "  cache    hits {:>15}   misses {:>10}   evictions {:>3}   hit rate {rate:.1}%\n",
            hits,
            misses,
            num(cache.get("evictions")),
        ));
        s.push_str(&format!(
            "           entries {:>12}   bytes {:>11}   budget {:>8}\n",
            num(cache.get("entries")),
            num(cache.get("bytes")),
            num(cache.get("byte_budget")),
        ));
    }
    if let Some(dbs) = stats.get("app").and_then(|a| a.get("databases")).and_then(Json::as_array) {
        let names: Vec<&str> = dbs.iter().filter_map(Json::as_str).collect();
        s.push_str(&format!(
            "  loaded   {}\n",
            if names.is_empty() { "(no databases)".to_string() } else { names.join(", ") }
        ));
    }
    s
}

/// Render a `slowlog` reply as the table printed by `silvervale slowlog`:
/// newest flagged request first, with its outcome, duration, and how much
/// of its span tree the flight recorder retained.
pub fn render_slowlog(reply: &Json) -> String {
    let threshold = reply.get("slow_threshold_ms").and_then(Json::as_f64).unwrap_or(0.0);
    let entries = reply.get("entries").and_then(Json::as_array).unwrap_or(&[]);
    if entries.is_empty() {
        return format!("slowlog empty (threshold {threshold:.0}ms)\n");
    }
    let mut s = format!(
        "slowlog — {} flagged request(s), newest first (threshold {threshold:.0}ms)\n",
        entries.len()
    );
    s.push_str("  trace             method            outcome                dur     spans\n");
    for e in entries {
        let text = |key: &str| e.get(key).and_then(Json::as_str).unwrap_or("?");
        let spans = e.get("spans").and_then(Json::as_array).map_or(0, <[Json]>::len);
        let dropped = e.get("dropped_spans").and_then(Json::as_u64).unwrap_or(0);
        let dropped = if dropped > 0 { format!(" (+{dropped} dropped)") } else { String::new() };
        s.push_str(&format!(
            "  {:<16}  {:<16}  {:<16} {:>9.1}ms {:>6}{}\n",
            text("trace"),
            text("method"),
            text("outcome"),
            e.get("dur_ms").and_then(Json::as_f64).unwrap_or(0.0),
            spans,
            dropped,
        ));
    }
    s
}

/// Render a stats JSON document as one `silvervale top` frame: the rolling
/// window rates up front (the part that moves), then the full stats body.
pub fn render_top(stats: &Json) -> String {
    fn num(v: Option<&Json>) -> f64 {
        v.and_then(Json::as_f64).unwrap_or(0.0)
    }
    let mut s = String::new();
    if let Some(w) = stats.get("window") {
        s.push_str(&format!(
            "req/s  {:>7.1} (1s) {:>7.1} (10s) {:>7.1} (60s)    err/s {:>5.1}\n",
            num(w.get("rate_1s")),
            num(w.get("rate_10s")),
            num(w.get("rate_60s")),
            num(w.get("err_rate_10s")),
        ));
        s.push_str(&format!(
            "lat    p50 {:>7}us   p90 {:>7}us   p99 {:>7}us\n\n",
            num(w.get("p50_us")),
            num(w.get("p90_us")),
            num(w.get("p99_us")),
        ));
    }
    s.push_str(&render_stats(stats));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_router() -> Router {
        let mut r = Router::new();
        r.register("echo", |p| Ok(p.clone()));
        r.register("fail", |_| Err(ServeError::internal("nope")));
        r
    }

    #[test]
    fn builtin_and_registered_dispatch() {
        let h = serve("127.0.0.1:0", test_router(), 2).unwrap();
        let state = Arc::clone(&h.state);
        assert_eq!(state.dispatch("ping", &Json::Null).unwrap(), Json::str("pong"));
        let echoed = state.dispatch("echo", &Json::Num(3.0)).unwrap();
        assert_eq!(echoed, Json::Num(3.0));
        assert_eq!(state.dispatch("fail", &Json::Null).unwrap_err().code, "internal");
        assert_eq!(state.dispatch("gone", &Json::Null).unwrap_err().code, "unknown_method");
        let methods = state.dispatch("methods", &Json::Null).unwrap();
        let names: Vec<&str> =
            methods.as_array().unwrap().iter().filter_map(Json::as_str).collect();
        assert!(names.contains(&"echo") && names.contains(&"stats"));
        h.shutdown();
    }

    #[test]
    fn shutdown_returns_stats() {
        let h = serve("127.0.0.1:0", test_router(), 1).unwrap();
        let stats = h.shutdown();
        assert!(stats.get("server").is_some());
        assert!(stats.get("pool").is_some());
        let text = render_stats(&stats);
        assert!(text.contains("svserve statistics"));
        assert!(text.contains("pool"));
    }

    #[test]
    fn metrics_method_merges_all_registries() {
        let mut r = test_router();
        r.metrics_provider(|| {
            let mut s = MetricsSnapshot::default();
            s.push_counter("app.things", 7);
            s
        });
        let h = serve("127.0.0.1:0", r, 1).unwrap();
        let state = Arc::clone(&h.state);
        // Run one job through the pool so its histograms have samples.
        state.dispatch("echo", &Json::Num(1.0)).unwrap();
        let m = state.dispatch("metrics", &Json::Null).unwrap();
        let counters = m.get("counters").unwrap();
        assert!(counters.get("server.requests").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(counters.get("pool.executed").unwrap().as_f64(), Some(1.0));
        assert_eq!(counters.get("app.things").unwrap().as_f64(), Some(7.0));
        let wait = m.get("histograms").unwrap().get("pool.queue_wait_us").unwrap();
        assert_eq!(wait.get("count").unwrap().as_f64(), Some(1.0));
        assert!(wait.get("buckets").unwrap().as_array().unwrap().len() > 1);
        // `metrics` is advertised alongside the other builtins.
        let methods = state.dispatch("methods", &Json::Null).unwrap();
        let names: Vec<&str> =
            methods.as_array().unwrap().iter().filter_map(Json::as_str).collect();
        assert!(names.contains(&"metrics"));
        h.shutdown();
    }

    #[test]
    fn health_builtin_reports_status_and_drain() {
        let h = serve("127.0.0.1:0", test_router(), 1).unwrap();
        let state = Arc::clone(&h.state);
        let healthy = state.dispatch("health", &Json::Null).unwrap();
        assert_eq!(healthy.get("status").unwrap(), &Json::str("ok"));
        assert_eq!(healthy.get("workers").unwrap().as_f64(), Some(1.0));
        state.pool.begin_drain();
        let draining = state.dispatch("health", &Json::Null).unwrap();
        assert_eq!(draining.get("status").unwrap(), &Json::str("draining"));
        h.shutdown();
    }

    #[test]
    fn trace_and_slowlog_builtins_are_wired() {
        let h = serve("127.0.0.1:0", test_router(), 1).unwrap();
        let state = Arc::clone(&h.state);
        // Unknown trace id: structured not_found, bad id: bad_params.
        let params = Json::obj([("id", Json::str(id_hex(0x1234)))]);
        assert_eq!(state.dispatch("trace", &params).unwrap_err().code, "not_found");
        assert_eq!(state.dispatch("trace", &Json::Null).unwrap_err().code, "bad_params");
        let log = state.dispatch("slowlog", &Json::Null).unwrap();
        assert_eq!(log.get("entries").and_then(Json::as_array).map(<[Json]>::len), Some(0));
        assert_eq!(log.get("slow_threshold_ms").and_then(Json::as_f64), Some(500.0));
        // Both are advertised.
        let methods = state.dispatch("methods", &Json::Null).unwrap();
        let names: Vec<&str> =
            methods.as_array().unwrap().iter().filter_map(Json::as_str).collect();
        assert!(names.contains(&"trace") && names.contains(&"slowlog"), "{names:?}");
        h.shutdown();
    }

    #[test]
    fn stats_include_a_window_section_and_render_adds_a_line() {
        let h = serve("127.0.0.1:0", test_router(), 1).unwrap();
        let state = Arc::clone(&h.state);
        state.win_requests.record(1_500);
        let stats = state.stats_json();
        let w = stats.get("window").expect("window section");
        assert!(w.get("rate_1s").and_then(Json::as_f64).unwrap() >= 1.0);
        assert!(w.get("p50_us").and_then(Json::as_f64).unwrap() >= 1.0);
        let text = render_stats(&stats);
        assert!(text.contains("  window   req/s 1s "), "{text}");
        h.shutdown();
    }

    #[test]
    fn render_slowlog_formats_entries_and_empty_logs() {
        let empty =
            Json::obj([("slow_threshold_ms", Json::Num(500.0)), ("entries", Json::Array(vec![]))]);
        assert_eq!(render_slowlog(&empty), "slowlog empty (threshold 500ms)\n");
        let reply = Json::obj([
            ("slow_threshold_ms", Json::Num(250.0)),
            (
                "entries",
                Json::Array(vec![Json::obj([
                    ("trace", Json::str("00000000000000ab")),
                    ("method", Json::str("matrix")),
                    ("outcome", Json::str("deadline_exceeded")),
                    ("dur_ms", Json::Num(612.375)),
                    ("dropped_spans", Json::Num(3.0)),
                    ("spans", Json::Array(vec![Json::Null, Json::Null])),
                ])]),
            ),
        ]);
        let text = render_slowlog(&reply);
        assert!(text.starts_with("slowlog — 1 flagged request(s)"), "{text}");
        assert!(text.contains("threshold 250ms"), "{text}");
        assert!(text.contains("00000000000000ab"), "{text}");
        assert!(text.contains("deadline_exceeded"), "{text}");
        assert!(text.contains("612.4ms"), "{text}");
        assert!(text.contains("2 (+3 dropped)"), "{text}");
    }

    #[test]
    fn render_top_leads_with_the_window_rates() {
        let stats = Json::obj([
            (
                "window",
                Json::obj([
                    ("rate_1s", Json::Num(12.0)),
                    ("rate_10s", Json::Num(8.4)),
                    ("rate_60s", Json::Num(3.1)),
                    ("p50_us", Json::Num(840.0)),
                    ("p90_us", Json::Num(1900.0)),
                    ("p99_us", Json::Num(4200.0)),
                    ("err_rate_10s", Json::Num(0.2)),
                ]),
            ),
            (
                "server",
                Json::obj([
                    ("connections", Json::Num(5.0)),
                    ("requests", Json::Num(1234.0)),
                    ("errors", Json::Num(2.0)),
                ]),
            ),
        ]);
        let text = render_top(&stats);
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("req/s"), "{text}");
        assert!(first.contains("12.0 (1s)"), "{text}");
        assert!(text.contains("p99    4200us"), "{text}");
        // The full stats body follows the dashboard header.
        assert!(text.contains("svserve statistics"), "{text}");
        assert!(text.contains("requests     1234"), "{text}");
    }

    #[test]
    fn serve_with_deadline_times_out_slow_handlers() {
        let mut r = Router::new();
        r.register("slow", |_| {
            std::thread::sleep(Duration::from_millis(500));
            Ok(Json::Null)
        });
        let h = serve_with(
            "127.0.0.1:0",
            r,
            ServeConfig {
                workers: 1,
                deadline: Some(Duration::from_millis(50)),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let state = Arc::clone(&h.state);
        let t0 = Instant::now();
        let e = state.dispatch("slow", &Json::Null).unwrap_err();
        assert_eq!(e.code, "deadline_exceeded");
        assert!(t0.elapsed() < Duration::from_millis(400), "reply beat the handler");
        h.shutdown();
    }

    #[test]
    fn snapshot_json_renders_overflow_bound_as_null() {
        let reg = svtrace::Registry::new();
        let hist = reg.histogram("h", &[10, 100]);
        hist.record(5);
        hist.record(1_000); // overflow bucket
        let j = snapshot_json(&reg.snapshot());
        let buckets = j.get("histograms").unwrap().get("h").unwrap().get("buckets").unwrap();
        let buckets = buckets.as_array().unwrap();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets[2].as_array().unwrap()[0], Json::Null);
        assert_eq!(buckets[2].as_array().unwrap()[1].as_f64(), Some(1.0));
    }

    /// The human-readable stats report is a stable interface: scripts grep
    /// it, and the counter migration onto `svtrace` must not move a byte.
    #[test]
    fn render_stats_format_is_byte_stable() {
        let stats = Json::obj([
            (
                "server",
                Json::obj([
                    ("connections", Json::Num(3.0)),
                    ("requests", Json::Num(12.0)),
                    ("errors", Json::Num(1.0)),
                ]),
            ),
            (
                "pool",
                Json::obj([
                    ("workers", Json::Num(4.0)),
                    ("jobs_submitted", Json::Num(12.0)),
                    ("jobs_executed", Json::Num(9.0)),
                    ("jobs_deduped", Json::Num(3.0)),
                    ("utilization", Json::Num(0.5)),
                ]),
            ),
            (
                "app",
                Json::obj([
                    (
                        "cache",
                        Json::obj([
                            ("hits", Json::Num(6.0)),
                            ("misses", Json::Num(2.0)),
                            ("insertions", Json::Num(2.0)),
                            ("evictions", Json::Num(0.0)),
                            ("entries", Json::Num(2.0)),
                            ("bytes", Json::Num(640.0)),
                            ("byte_budget", Json::Num(1024.0)),
                        ]),
                    ),
                    ("databases", Json::Array(vec![Json::str("serial"), Json::str("openmp")])),
                ]),
            ),
        ]);
        let expected = "svserve statistics\n\
            \x20 server   connections        3   requests       12   errors      1\n\
            \x20 pool     workers            4   executed        9   deduped     3   utilization 50.0%\n\
            \x20 cache    hits               6   misses          2   evictions   0   hit rate 75.0%\n\
            \x20          entries            2   bytes         640   budget     1024\n\
            \x20 loaded   serial, openmp\n";
        assert_eq!(render_stats(&stats), expected);
    }
}
