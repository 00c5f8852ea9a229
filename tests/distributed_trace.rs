//! Distributed tracing end-to-end: a traced client request against a
//! live TCP server must come back with a trace id that finds the
//! server's span tree via the `trace` method, the pool job parented
//! under the request span, and a merged Chrome trace with one pid lane
//! per process.  The flight recorder's tail-sampling is exercised with
//! an injected delay: the slow request lands in `slowlog`, fast ones
//! don't.  Work a request fans out over `svpar` helper threads records
//! into the request's trace too: every pair of a served matrix, every
//! gate of a served `evaluate`.
//!
//! Caveat: client and server share this test process, so the *global*
//! span collector sees both sides at once — assertions on the local
//! span set are existence-based, never count-based.

use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use std::time::Duration;
use svserve::{
    id_hex, merged_chrome_trace, serve, serve_with, Client, Fault, FaultPlan, Router, ServeConfig,
    ServeHandle,
};

/// Spin up a server on an OS-assigned port with the full handler set.
fn start_server() -> (ServeHandle, std::sync::Arc<AnalysisService>) {
    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    let handle = serve("127.0.0.1:0", router, 2).expect("bind test server");
    (handle, service)
}

/// Walk `span`'s parent chain inside `spans`; true if it passes through
/// `ancestor_span_id`.
fn has_ancestor<'a>(spans: &[&'a Json], mut parent: &'a str, ancestor_span_id: &str) -> bool {
    for _hop in 0..spans.len() + 1 {
        if parent == ancestor_span_id {
            return true;
        }
        let Some(next) = spans
            .iter()
            .find(|s| s.get("span").and_then(Json::as_str) == Some(parent))
            .and_then(|s| s.get("parent").and_then(Json::as_str))
        else {
            return false;
        };
        parent = next;
    }
    false
}

#[test]
fn traced_request_merges_client_and_server_spans() {
    let (handle, _service) = start_server();
    svtrace::reset_spans();
    svtrace::set_enabled(true);
    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_tracing(true);

    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    client
        .call(
            "matrix",
            Json::obj([("db", Json::str("babelstream")), ("metric", Json::str("t_sem"))]),
        )
        .unwrap();
    let matrix_tid = client.last_trace_id().expect("matrix call was traced");

    // `evaluate` runs as a pool job on another thread and must still land
    // in the same trace.
    client
        .call(
            "evaluate",
            Json::obj([
                ("db", Json::str("babelstream")),
                ("app", Json::str("babelstream")),
                ("candidates", Json::Num(8.0)),
                ("seed", Json::Num(1.0)),
            ]),
        )
        .unwrap();
    let tid = client.last_trace_id().expect("evaluate call was traced");
    assert_ne!(tid, matrix_tid, "every traced call gets a fresh trace id");

    // Fetch the server's span tree for the evaluate request.
    let record = client.call("trace", Json::obj([("id", Json::str(id_hex(tid)))])).unwrap();
    assert_eq!(record.get("trace").and_then(Json::as_str), Some(id_hex(tid).as_str()));
    assert_eq!(record.get("method").and_then(Json::as_str), Some("evaluate"));
    assert_eq!(record.get("outcome").and_then(Json::as_str), Some("ok"));
    let spans: Vec<&Json> = record.get("spans").and_then(Json::as_array).unwrap().iter().collect();
    let request = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("serve.request"))
        .expect("server recorded the request span");
    let request_span = request.get("span").and_then(Json::as_str).unwrap();
    let executes: Vec<&&Json> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Json::as_str) == Some("pool.execute"))
        .collect();
    assert!(!executes.is_empty(), "evaluate's pool job recorded a pool.execute span");
    for e in &executes {
        assert_eq!(e.get("trace").and_then(Json::as_str), Some(id_hex(tid).as_str()));
        let parent = e.get("parent").and_then(Json::as_str).unwrap();
        assert!(
            has_ancestor(&spans, parent, request_span),
            "pool.execute parents under serve.request"
        );
    }
    // The matrix request is independently retrievable under its own id.
    let matrix_rec =
        client.call("trace", Json::obj([("id", Json::str(id_hex(matrix_tid)))])).unwrap();
    assert_eq!(matrix_rec.get("method").and_then(Json::as_str), Some("matrix"));

    // Merge local + server spans into one Chrome trace: both pids, both
    // ends' spans, one shared trace id.
    svtrace::set_enabled(false);
    let local = svtrace::take_spans();
    assert!(
        local.iter().any(|s| s.name == "client.call" && s.trace_id == tid),
        "local client.call span carries the trace id"
    );
    let merged = merged_chrome_trace(&local, Some(&record));
    assert!(merged.contains("\"pid\":1") && merged.contains("\"pid\":2"), "{merged:.200}");
    assert!(merged.contains("client.call"), "client side present");
    assert!(merged.contains("serve.request"), "server side present");
    assert!(merged.contains(&id_hex(tid)), "shared trace id ties the lanes");
    // The merged document is valid JSON by the repo's own parser.
    silvervale::svjson::parse(&merged).expect("merged trace parses");

    handle.shutdown();
}

/// The server's recorded spans of the client's last traced call, and the
/// span id of its `serve.request`.
fn recorded_spans(client: &mut Client) -> (Vec<Json>, String) {
    let tid = client.last_trace_id().expect("the call was traced");
    let record = client.call("trace", Json::obj([("id", Json::str(id_hex(tid)))])).unwrap();
    let spans = record.get("spans").and_then(Json::as_array).unwrap().to_vec();
    let request = spans
        .iter()
        .find(|s| s.get("name").and_then(Json::as_str) == Some("serve.request"))
        .and_then(|s| s.get("span").and_then(Json::as_str))
        .expect("server recorded the request span")
        .to_string();
    (spans, request)
}

/// The spans named `name`, each checked to sit under `request`.
fn spans_under<'a>(spans: &'a [Json], request: &str, name: &str) -> Vec<&'a Json> {
    let all: Vec<&Json> = spans.iter().collect();
    let named: Vec<&Json> =
        spans.iter().filter(|s| s.get("name").and_then(Json::as_str) == Some(name)).collect();
    for s in &named {
        let parent = s.get("parent").and_then(Json::as_str).unwrap();
        assert!(has_ancestor(&all, parent, request), "{name} parents under serve.request");
    }
    named
}

#[test]
fn traced_matrix_records_every_pair_under_the_request() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    client.set_tracing(true);
    client
        .call(
            "matrix",
            Json::obj([("db", Json::str("babelstream")), ("metric", Json::str("t_sem"))]),
        )
        .unwrap();
    let (spans, request) = recorded_spans(&mut client);
    // Ten models, 45 pairs, whichever thread computed each one.
    let pairs = spans_under(&spans, &request, "matrix.pair");
    assert_eq!(pairs.len(), 10 * 9 / 2, "every matrix.pair span is in the request's trace");
    handle.shutdown();
}

#[test]
fn traced_evaluate_records_one_gate_per_built_candidate() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    let builds = |client: &mut Client| {
        let m = client.call("metrics", Json::Null).unwrap();
        m.get("counters").and_then(|c| c.get("service.cand_builds")).and_then(Json::as_f64)
    };
    let before = builds(&mut client).unwrap_or(0.0);
    client.set_tracing(true);
    client
        .call(
            "evaluate",
            Json::obj([
                ("db", Json::str("babelstream")),
                ("app", Json::str("babelstream")),
                ("candidates", Json::Num(16.0)),
                ("seed", Json::Num(2.0)),
            ]),
        )
        .unwrap();
    let (spans, request) = recorded_spans(&mut client);
    client.set_tracing(false);
    let built = builds(&mut client).unwrap() - before;
    assert!(built >= 2.0, "the population builds several candidates");
    let gates = spans_under(&spans, &request, "port.gate");
    assert_eq!(gates.len() as f64, built, "one port.gate span per candidate built");
    handle.shutdown();
}

#[test]
fn slow_requests_land_in_the_slowlog_and_fast_ones_do_not() {
    let mut router = Router::new();
    router.register("echo", |p| Ok(p.clone()));
    let faults = FaultPlan::new(7);
    // Only the first pool job is delayed past the threshold.
    faults.script("pool.execute", [Fault::Delay(Duration::from_millis(250))]);
    let handle = serve_with(
        "127.0.0.1:0",
        router,
        ServeConfig {
            workers: 1,
            slow_threshold: Some(Duration::from_millis(100)),
            faults: Some(faults),
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let mut client = Client::connect(handle.addr()).unwrap();
    client.set_tracing(true);
    client.call("echo", Json::str("slow")).unwrap();
    let slow_tid = client.last_trace_id().unwrap();
    client.call("echo", Json::str("fast")).unwrap();
    let fast_tid = client.last_trace_id().unwrap();

    let log = client.call("slowlog", Json::Null).unwrap();
    assert_eq!(log.get("slow_threshold_ms").and_then(Json::as_f64), Some(100.0));
    let entries = log.get("entries").and_then(Json::as_array).unwrap();
    let traces: Vec<&str> =
        entries.iter().filter_map(|e| e.get("trace").and_then(Json::as_str)).collect();
    assert!(traces.contains(&id_hex(slow_tid).as_str()), "delayed request flagged: {traces:?}");
    assert!(!traces.contains(&id_hex(fast_tid).as_str()), "fast request not flagged: {traces:?}");
    let slow = entries
        .iter()
        .find(|e| e.get("trace").and_then(Json::as_str) == Some(id_hex(slow_tid).as_str()))
        .unwrap();
    assert!(slow.get("dur_ms").and_then(Json::as_f64).unwrap() >= 100.0);
    // The flagged record keeps its span tree for postmortem reading.
    let n_spans = slow.get("spans").and_then(Json::as_array).unwrap().len();
    assert!(n_spans >= 2, "serve.request + pool.execute retained, got {n_spans}");
    // `limit` trims the reply.
    let log = client.call("slowlog", Json::obj([("limit", Json::Num(0.0))])).unwrap();
    assert_eq!(log.get("entries").and_then(Json::as_array).map(<[Json]>::len), Some(0));

    handle.shutdown();
}
