//! Integration tests for the analysis service: a real TCP server, real
//! clients, full index → compare → cluster sessions, protocol abuse, and
//! the cache/dedup guarantees under concurrency.

use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use silvervale::{divergence_from, index_app, model_matrix, pipeline};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use svmetrics::{Metric, Variant};
use svserve::{
    serve, serve_with, Client, Fault, FaultPlan, RetryPolicy, Router, ServeConfig, ServeError,
    ServeHandle,
};

/// Spin up a server on an OS-assigned port with the full handler set.
fn start_server() -> (ServeHandle, Arc<AnalysisService>) {
    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    let handle = serve("127.0.0.1:0", router, 2).expect("bind test server");
    (handle, service)
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

#[test]
fn metrics_request_inspects_a_live_server() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("minibude"))])).unwrap();
    client
        .call("matrix", Json::obj([("db", Json::str("minibude")), ("metric", Json::str("t_sem"))]))
        .unwrap();
    let m = client.call("metrics", Json::Null).unwrap();
    let counters = m.get("counters").expect("counters section");
    // Server, pool, app-service, and cache registries are all merged in.
    assert!(num(counters.get("server.requests")) >= 3.0);
    assert!(num(counters.get("pool.executed")) >= 2.0);
    assert!(num(counters.get("service.pair_computes")) > 0.0);
    assert!(num(counters.get("cache.insertions")) > 0.0);
    assert_eq!(num(counters.get("service.databases")), 1.0);
    // Pool latency histograms carry one sample per executed job.
    let hists = m.get("histograms").expect("histograms section");
    let wait = hists.get("pool.queue_wait_us").expect("queue-wait histogram");
    assert!(num(wait.get("count")) >= 2.0);
    assert!(num(wait.get("p50")) <= num(wait.get("max")));
    let exec = hists.get("pool.exec_us").expect("exec-time histogram");
    assert!(num(exec.get("max")) > 0.0, "matrix job took measurable time");
    // Cache gauges reflect resident entries.
    let gauges = m.get("gauges").expect("gauges section");
    assert!(num(gauges.get("cache.entries")) > 0.0);
    assert!(num(gauges.get("cache.bytes")) > 0.0);
    handle.shutdown();
}

#[test]
fn index_compare_cluster_session_end_to_end() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // index
    let r = client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    assert_eq!(r.get("db").and_then(Json::as_str), Some("babelstream"));
    assert_eq!(num(r.get("units")), 10.0);

    // inventory
    let r = client.call("inventory", Json::obj([("db", Json::str("babelstream"))])).unwrap();
    let text = r.get("text").and_then(Json::as_str).unwrap();
    assert!(text.contains("babelstream") && text.contains("CUDA"));

    // compare — must equal the one-shot pipeline, value for value.
    let r = client
        .call(
            "compare",
            Json::obj([
                ("db", Json::str("babelstream")),
                ("metric", Json::str("t_sem")),
                ("from", Json::str("Serial")),
            ]),
        )
        .unwrap();
    let db = index_app(svcorpus::App::BabelStream, false).unwrap();
    let direct = divergence_from(&db, Metric::TSem, Variant::PLAIN, "Serial").unwrap();
    let served = r.get("divergences").and_then(Json::as_array).unwrap();
    assert_eq!(served.len(), direct.len());
    for item in served {
        let label = item.get("label").and_then(Json::as_str).unwrap();
        let d = num(item.get("divergence"));
        let expect = direct.iter().find(|(l, _)| l == label).unwrap().1;
        assert_eq!(d, expect, "{label}: served divergence differs from pipeline");
    }

    // matrix — bit-identical to the pipeline matrix, across the wire.
    let r = client
        .call(
            "matrix",
            Json::obj([("db", Json::str("babelstream")), ("metric", Json::str("t_sem"))]),
        )
        .unwrap();
    let m = model_matrix(&db, Metric::TSem, Variant::PLAIN);
    let labels: Vec<&str> =
        r.get("labels").and_then(Json::as_array).unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(labels, m.labels().iter().map(String::as_str).collect::<Vec<_>>());
    let rows = r.get("rows").and_then(Json::as_array).unwrap();
    for (i, row) in rows.iter().enumerate() {
        for (j, cell) in row.as_array().unwrap().iter().enumerate() {
            assert_eq!(cell.as_f64().unwrap(), m.get(i, j), "cell ({i}, {j})");
        }
    }

    // cluster
    let r = client
        .call(
            "cluster",
            Json::obj([("db", Json::str("babelstream")), ("metric", Json::str("t_sem"))]),
        )
        .unwrap();
    let dendro = r.get("dendrogram").and_then(Json::as_str).unwrap();
    let expect = pipeline::model_dendrogram(&db, Metric::TSem, Variant::PLAIN).render();
    assert_eq!(dendro, expect, "served dendrogram differs from pipeline");
    assert!(r.get("heatmap").and_then(Json::as_str).is_some());

    handle.shutdown();
}

#[test]
fn repeated_compare_is_served_from_cache() {
    let (handle, service) = start_server();
    let db = index_app(svcorpus::App::MiniBude, false).unwrap();
    service.insert_db("minibude", db);

    let mut client = Client::connect(handle.addr()).unwrap();
    let params = Json::obj([
        ("db", Json::str("minibude")),
        ("metric", Json::str("t_sem")),
        ("from", Json::str("Serial")),
    ]);

    let first = client.call("compare", params.clone()).unwrap();
    let computes_after_first = service.pair_computes();
    assert!(computes_after_first > 0, "cold compare computed pairs");
    let stats = client.call("stats", Json::Null).unwrap();
    let hits_cold = num(stats.get("app").and_then(|a| a.get("cache")).and_then(|c| c.get("hits")));

    let second = client.call("compare", params).unwrap();
    assert_eq!(second, first, "cache-served response differs");
    assert_eq!(service.pair_computes(), computes_after_first, "repeated compare recomputed pairs");
    let stats = client.call("stats", Json::Null).unwrap();
    let cache = stats.get("app").and_then(|a| a.get("cache")).unwrap();
    assert!(num(cache.get("hits")) > hits_cold, "cache hit counter did not increment");

    handle.shutdown();
}

#[test]
fn malformed_oversized_and_unknown_requests_get_structured_errors() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Malformed JSON frame.
    client.send_raw("this is not json\n").unwrap();
    let (_, res) = client.recv().unwrap();
    assert_eq!(res.unwrap_err().code, "parse_error");

    // Valid JSON, invalid request shape.
    client.send_raw("{\"no\":\"id or method\"}\n").unwrap();
    let (_, res) = client.recv().unwrap();
    assert_eq!(res.unwrap_err().code, "parse_error");

    // Oversized frame: above MAX_FRAME, the server must reject and resync.
    let mut big = String::with_capacity(svserve::MAX_FRAME + 64);
    big.push_str("{\"id\":1,\"method\":\"ping\",\"params\":\"");
    big.push_str(&"x".repeat(svserve::MAX_FRAME));
    big.push_str("\"}\n");
    client.send_raw(&big).unwrap();
    let (_, res) = client.recv().unwrap();
    assert_eq!(res.unwrap_err().code, "frame_too_large");

    // Unknown method.
    let err = client.call("frobnicate", Json::Null).unwrap_err();
    assert_eq!(err.code, "unknown_method");
    assert!(err.message.contains("frobnicate"));

    // Bad params on a real method.
    let err = client.call("inventory", Json::Null).unwrap_err();
    assert_eq!(err.code, "bad_params");

    // Missing DB.
    let err = client.call("inventory", Json::obj([("db", Json::str("ghost"))])).unwrap_err();
    assert_eq!(err.code, "not_found");

    // After all that abuse the same connection still works.
    assert_eq!(client.call("ping", Json::Null).unwrap(), Json::str("pong"));

    handle.shutdown();
}

#[test]
fn deeply_nested_frame_gets_an_error_and_the_server_keeps_serving() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();

    // A million `[` fit in one frame.  Parsing them recursively would
    // overflow the server's stack and abort the whole process.
    let depth = 1_000_000;
    let mut frame = String::with_capacity(depth + 64);
    frame.push_str("{\"id\":1,\"method\":\"ping\",\"params\":");
    frame.push_str(&"[".repeat(depth));
    frame.push_str("}\n");
    assert!(frame.len() < svserve::MAX_FRAME);
    client.send_raw(&frame).unwrap();
    let (_, res) = client.recv().unwrap();
    let err = res.unwrap_err();
    assert_eq!(err.code, "parse_error");
    assert!(err.message.contains("nesting"), "{}", err.message);

    // Nesting within the bound still parses.
    let ok_depth = svserve::svjson::MAX_DEPTH - 1;
    let params = format!("{}{}", "[".repeat(ok_depth), "]".repeat(ok_depth));
    client.send_raw(&format!("{{\"id\":2,\"method\":\"ping\",\"params\":{params}}}\n")).unwrap();
    let (_, res) = client.recv().unwrap();
    assert_eq!(res.unwrap(), Json::str("pong"));

    // The same connection and a fresh one are both served.
    assert_eq!(client.call("ping", Json::Null).unwrap(), Json::str("pong"));
    let mut fresh = Client::connect(handle.addr()).unwrap();
    assert_eq!(fresh.call("ping", Json::Null).unwrap(), Json::str("pong"));

    handle.shutdown();
}

#[test]
fn concurrent_identical_matrix_requests_compute_pairs_once() {
    let (handle, service) = start_server();
    let db = index_app(svcorpus::App::TeaLeaf, false).unwrap();
    service.insert_db("tealeaf", db);
    let addr = handle.addr();

    let n = 6;
    let workers: Vec<_> = (0..n)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client
                    .call(
                        "matrix",
                        Json::obj([("db", Json::str("tealeaf")), ("metric", Json::str("t_sem"))]),
                    )
                    .unwrap()
                    .to_string_compact()
            })
        })
        .collect();
    let results: Vec<String> = workers.into_iter().map(|t| t.join().unwrap()).collect();
    for r in &results[1..] {
        assert_eq!(r, &results[0], "concurrent responses diverged");
    }

    // 10 models → 45 unique pairs; across N concurrent identical requests
    // the scheduler's in-flight dedup plus the cache admit each pair to be
    // computed at most once.
    assert!(service.pair_computes() <= 45, "pairs recomputed: {} > 45", service.pair_computes());

    // The scheduler accounted for every request, and dedup + execution
    // cover all submissions.
    let stats = handle.stats_json();
    let pool = stats.get("pool").unwrap();
    let submitted = num(pool.get("jobs_submitted"));
    let executed = num(pool.get("jobs_executed"));
    let deduped = num(pool.get("jobs_deduped"));
    assert_eq!(submitted, n as f64);
    assert_eq!(executed + deduped, submitted);
    assert!(executed >= 1.0);

    let final_stats = handle.shutdown();
    assert!(final_stats.get("app").is_some(), "shutdown stats include the app section");
}

/// A handler gate: requests through gated handlers announce themselves
/// (`entered`) and then block until the test opens the gate — the
/// deterministic way to hold a worker busy / keep a job queued.
struct Gate {
    state: Mutex<bool>,
    cv: Condvar,
    entered: AtomicUsize,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            state: Mutex::new(false),
            cv: Condvar::new(),
            entered: AtomicUsize::new(0),
        })
    }

    fn pass(&self) {
        self.entered.fetch_add(1, Ordering::SeqCst);
        let mut open = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !*open {
            open = self.cv.wait(open).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn open(&self) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

fn counter(client: &mut Client, name: &str) -> f64 {
    let m = client.call("metrics", Json::Null).unwrap();
    num(m.get("counters").and_then(|c| c.get(name)))
}

/// The headline ISSUE 3 bug: a panicking handler used to kill a pool
/// worker and leave the client blocked forever in the ticket wait.  Now
/// the panic is caught and answered, the pool keeps serving, and a panic
/// that escapes past the catch (injected at the `pool.worker`
/// infrastructure site) still completes the ticket.
#[test]
fn panicking_handler_replies_with_error_and_pool_self_heals() {
    let plan = FaultPlan::new(1001);
    let mut router = Router::new();
    router.register("boom", |_| panic!("handler exploded"));
    router.register("ok", |_| Ok(Json::str("fine")));
    let handle = serve_with(
        "127.0.0.1:0",
        router,
        ServeConfig { workers: 1, faults: Some(Arc::clone(&plan)), ..ServeConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Handler panic: structured error reply, not a hang or dead socket.
    let err = client.call("boom", Json::Null).unwrap_err();
    assert_eq!(err.code, "panic");
    assert!(err.message.contains("handler exploded"), "{}", err.message);
    // The same connection and the same (sole) worker keep serving.
    assert_eq!(client.call("ok", Json::Null).unwrap(), Json::str("fine"));
    assert!(counter(&mut client, "pool.panics") >= 1.0);

    // Worker fault: inject a panic outside the job's catch_unwind.  The
    // pool must still answer the client and free the job slot.
    plan.script("pool.worker", [Fault::Panic("worker killed".into())]);
    let err = client.call("ok", Json::Null).unwrap_err();
    assert_eq!(err.code, "panic");
    // The pool's one job slot serves again.
    assert_eq!(client.call("ok", Json::Null).unwrap(), Json::str("fine"));

    let stats = handle.shutdown();
    assert!(num(stats.get("pool").and_then(|p| p.get("panics"))) >= 2.0);
}

/// Injected handler latency must convert into a timely `deadline_exceeded`
/// reply — the client never waits out the slow handler.
#[test]
fn deadline_exceeded_under_injected_latency() {
    let plan = FaultPlan::new(1002);
    plan.script("pool.execute", [Fault::Delay(Duration::from_millis(600))]);
    let mut router = Router::new();
    router.register("fast", |_| Ok(Json::str("done")));
    let handle = serve_with(
        "127.0.0.1:0",
        router,
        ServeConfig {
            workers: 1,
            deadline: Some(Duration::from_millis(60)),
            faults: Some(Arc::clone(&plan)),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let t0 = Instant::now();
    let err = client.call("fast", Json::Null).unwrap_err();
    assert_eq!(err.code, "deadline_exceeded");
    assert!(
        t0.elapsed() < Duration::from_millis(500),
        "reply must beat the 600ms injected delay: {:?}",
        t0.elapsed()
    );
    assert_eq!(plan.fired("pool.execute"), 1, "the delay fault actually fired");

    // Once the slow job has finished (and left the in-flight table), the
    // same method succeeds — the injected latency is exhausted.
    wait_until("slow job completion", || counter(&mut client, "pool.executed") >= 1.0);
    assert_eq!(client.call("fast", Json::Null).unwrap(), Json::str("done"));
    assert!(counter(&mut client, "pool.deadline_exceeded") >= 1.0);
    handle.shutdown();
}

/// A full queue sheds with a retryable `overloaded`, and the client's
/// backoff retry succeeds once the queue frees up.
#[test]
fn overloaded_shed_is_retryable_and_backoff_succeeds() {
    let gate = Gate::new();
    let mut router = Router::new();
    let g = Arc::clone(&gate);
    router.register("gated_a", move |_| {
        g.pass();
        Ok(Json::str("a"))
    });
    let g = Arc::clone(&gate);
    router.register("gated_b", move |_| {
        g.pass();
        Ok(Json::str("b"))
    });
    router.register("fast", |_| Ok(Json::str("done")));
    let handle = serve_with(
        "127.0.0.1:0",
        router,
        ServeConfig { workers: 1, max_queue: 1, ..ServeConfig::default() },
    )
    .unwrap();
    let addr = handle.addr();

    // Occupy the single worker, then fill the single queue slot.
    let c1 = std::thread::spawn(move || Client::connect(addr).unwrap().call("gated_a", Json::Null));
    wait_until("worker busy", || gate.entered.load(Ordering::SeqCst) == 1);
    let c2 = std::thread::spawn(move || Client::connect(addr).unwrap().call("gated_b", Json::Null));
    let mut probe = Client::connect(addr).unwrap();
    wait_until("queue full", || {
        num(probe.call("health", Json::Null).unwrap().get("queued")) >= 1.0
    });

    // Plain call: shed immediately with the retryable error.
    let mut client = Client::connect(addr).unwrap();
    let err = client.call("fast", Json::Null).unwrap_err();
    assert_eq!(err.code, "overloaded");
    assert!(err.is_retryable());

    // Retrying call in the background; open the gate once it has been
    // shed at least once, so the retry path is provably exercised.
    let retry = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        let policy = RetryPolicy {
            max_retries: 20,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            seed: 77,
        };
        let r = c.call_with_retry("fast", Json::Null, &policy);
        (r, c.retries())
    });
    wait_until("a shed retry attempt", || counter(&mut probe, "pool.shed") >= 2.0);
    gate.open();

    let (result, retries) = retry.join().unwrap();
    assert_eq!(result.unwrap(), Json::str("done"), "backoff retry eventually succeeded");
    assert!(retries >= 1, "at least one retry happened");
    assert_eq!(c1.join().unwrap().unwrap(), Json::str("a"));
    assert_eq!(c2.join().unwrap().unwrap(), Json::str("b"));
    assert!(counter(&mut probe, "pool.shed") >= 2.0);
    handle.shutdown();
}

/// Graceful drain: a `shutdown` request lets the in-flight job finish
/// (its client gets the real result), sheds queued jobs with
/// `shutting_down`, and the final stats report the drain counters.
#[test]
fn graceful_drain_completes_inflight_and_sheds_queued() {
    let gate = Gate::new();
    let mut router = Router::new();
    let g = Arc::clone(&gate);
    router.register("gated", move |_| {
        g.pass();
        Ok(Json::str("finished"))
    });
    router.register("idle", |_| Ok(Json::str("idle")));
    let handle =
        serve_with("127.0.0.1:0", router, ServeConfig { workers: 1, ..ServeConfig::default() })
            .unwrap();
    let addr = handle.addr();

    let inflight =
        std::thread::spawn(move || Client::connect(addr).unwrap().call("gated", Json::Null));
    wait_until("worker busy", || gate.entered.load(Ordering::SeqCst) == 1);
    let queued =
        std::thread::spawn(move || Client::connect(addr).unwrap().call("idle", Json::Null));
    let mut probe = Client::connect(addr).unwrap();
    wait_until("job queued", || {
        num(probe.call("health", Json::Null).unwrap().get("queued")) >= 1.0
    });
    assert_eq!(
        probe.call("health", Json::Null).unwrap().get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Request shutdown while one job runs and one is queued.
    let r = probe.call("shutdown", Json::Null).unwrap();
    assert_eq!(r.as_str(), Some("shutting down"));
    gate.open();

    assert_eq!(inflight.join().unwrap().unwrap(), Json::str("finished"));
    let err: ServeError = queued.join().unwrap().unwrap_err();
    assert_eq!(err.code, "shutting_down");
    assert!(err.is_retryable(), "shed-on-drain is a retry-me-elsewhere error");

    let stats = handle.wait();
    let pool = stats.get("pool").unwrap();
    assert_eq!(num(pool.get("jobs_drained")), 1.0, "the queued job was shed");
    assert!(num(pool.get("jobs_executed")) >= 1.0, "the in-flight job completed");
}

#[test]
fn shutdown_request_stops_the_server_and_reports_stats() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.call("ping", Json::Null).unwrap(), Json::str("pong"));
    let r = client.call("shutdown", Json::Null).unwrap();
    assert_eq!(r.as_str(), Some("shutting down"));
    let stats = handle.wait();
    assert!(num(stats.get("server").and_then(|s| s.get("requests"))) >= 2.0);
    let text = svserve::render_stats(&stats);
    assert!(text.contains("svserve statistics"));
}
