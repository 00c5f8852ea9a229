//! Integration tests for the binary wire protocol and its interplay with
//! the JSON wire on the same port: the preface sniff (including
//! adversarial openings), result parity across wires, verbatim svpack
//! carriage via the artifact store, max-frame guards on both wires, and
//! the per-wire telemetry.

use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use silvervale::{index_app, pipeline};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svcorpus::App;
use svserve::binproto::{self, BinFrameReader, BinRead, PREFACE};
use svserve::proto::{FrameRead, FrameReader, Request};
use svserve::{serve_with, Client, Router, ServeConfig, ServeHandle, Wire, MAX_FRAME};

/// Spin up a server with the full handler set.
fn start_server() -> (ServeHandle, Arc<AnalysisService>) {
    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    let config = ServeConfig { workers: 2, ..ServeConfig::default() };
    let handle = serve_with("127.0.0.1:0", router, config).expect("bind test server");
    (handle, service)
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// A raw socket to the server with a read timeout, so a test that expects
/// a reply fails instead of hanging when none comes.
fn raw(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

fn health_frame(id: u64) -> Vec<u8> {
    let req = Request { id, method: "health".into(), params: Json::Null, trace: None };
    binproto::encode_request(&req, &[])
}

/// Read one binary reply and return its id and `health` status.
fn read_health(reader: &mut BinFrameReader<TcpStream>) -> (Option<u64>, String) {
    let BinRead::Frame(payload) = reader.read_frame().unwrap() else {
        panic!("expected a health reply");
    };
    let (id, res) = binproto::decode_response(&payload).unwrap();
    let (health, _) = res.unwrap();
    (id, health.get("status").and_then(Json::as_str).unwrap().to_string())
}

#[test]
fn negotiated_client_upgrades_and_answers_match_json() {
    let (handle, _service) = start_server();
    // Both clients dial the one port; the binary one opens with the
    // preface, no `health` round trip first.
    let mut bin = Client::connect_negotiated(handle.addr()).unwrap();
    assert_eq!(bin.wire(), Wire::Bin);
    let mut json = Client::connect(handle.addr()).unwrap();
    assert_eq!(json.wire(), Wire::Json);

    bin.call("index", Json::obj([("app", Json::str("minibude"))])).unwrap();
    let params = || {
        Json::obj([
            ("db", Json::str("minibude")),
            ("metric", Json::str("t_sem")),
            ("from", Json::str("Serial")),
        ])
    };
    // The same request must produce the identical value on either wire —
    // the binary framing changes carriage, never content.
    let over_bin = bin.call("compare", params()).unwrap();
    let over_json = json.call("compare", params()).unwrap();
    assert_eq!(over_bin, over_json);
    // Errors carry the same code space too.
    let e_bin = bin.call("compare", Json::obj([("db", Json::str("nope"))])).unwrap_err();
    let e_json = json.call("compare", Json::obj([("db", Json::str("nope"))])).unwrap_err();
    assert_eq!(e_bin.code, e_json.code);
    assert_eq!(e_bin.code, "not_found");
    handle.shutdown();
}

#[test]
fn json_and_binary_clients_are_served_concurrently_on_one_port() {
    let (handle, _service) = start_server();
    let addr = handle.addr();
    std::thread::scope(|s| {
        for k in 0..4 {
            s.spawn(move || {
                let mut c = if k % 2 == 0 {
                    Client::connect(addr).unwrap()
                } else {
                    Client::connect_negotiated(addr).unwrap()
                };
                for _ in 0..20 {
                    assert_eq!(c.call("ping", Json::Null).unwrap(), Json::str("pong"));
                }
            });
        }
    });
    let stats = handle.shutdown();
    assert_eq!(num(stats.get("server").and_then(|s| s.get("connections"))), 4.0);
    assert_eq!(num(stats.get("server").and_then(|s| s.get("errors"))), 0.0);
}

#[test]
fn preface_sent_one_byte_per_write_is_binary() {
    let (handle, _service) = start_server();
    let mut stream = raw(handle.addr());
    stream.set_nodelay(true).unwrap();
    for b in PREFACE {
        stream.write_all(&[b]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
    }
    stream.write_all(&health_frame(11)).unwrap();
    let mut reader = BinFrameReader::new(stream.try_clone().unwrap());
    assert_eq!(read_health(&mut reader), (Some(11), "ok".to_string()));
    handle.shutdown();
}

#[test]
fn stalled_partial_preface_does_not_delay_other_connections() {
    let (handle, _service) = start_server();
    // Two of the four preface bytes, then nothing: the server cannot
    // tell the wire yet and must keep waiting without blocking anyone.
    let mut stalled = raw(handle.addr());
    stalled.write_all(&PREFACE[..2]).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    let mut json = Client::connect(handle.addr()).unwrap();
    let mut bin = Client::connect_negotiated(handle.addr()).unwrap();
    for _ in 0..10 {
        json.call("ping", Json::Null).unwrap();
        bin.call("ping", Json::Null).unwrap();
    }
    assert!(t0.elapsed() < Duration::from_secs(2), "served in {:?}", t0.elapsed());
    // The stalled connection is still open and finishes as binary.
    stalled.write_all(&PREFACE[2..]).unwrap();
    stalled.write_all(&health_frame(5)).unwrap();
    let mut reader = BinFrameReader::new(stalled.try_clone().unwrap());
    assert_eq!(read_health(&mut reader), (Some(5), "ok".to_string()));
    handle.shutdown();
}

/// A peer that sends half the preface and then nothing is closed once it
/// has been silent for the server's stall timeout (10 s), not held open
/// forever.
#[test]
fn stalled_half_preface_is_closed_after_the_stall_timeout() {
    let (handle, _service) = start_server();
    let mut stalled = TcpStream::connect(handle.addr()).unwrap();
    stalled.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let t0 = Instant::now();
    stalled.write_all(&PREFACE[..2]).unwrap();
    let mut buf = [0u8; 16];
    let closed = match stalled.read(&mut buf) {
        Ok(0) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
        Ok(n) => panic!("unexpected {n} bytes from the server"),
    };
    let waited = t0.elapsed();
    assert!(closed, "the server closed the stalled connection");
    assert!(waited >= Duration::from_secs(10), "closed before the timeout: {waited:?}");
    assert!(waited < Duration::from_secs(13), "closed late: {waited:?}");
    // The server keeps serving.
    let mut client = Client::connect_negotiated(handle.addr()).unwrap();
    assert_eq!(client.call("ping", Json::Null).unwrap(), Json::str("pong"));
    handle.shutdown();
}

#[test]
fn nul_garbage_line_gets_the_json_parse_error_reply() {
    let (handle, _service) = start_server();
    // A NUL first byte that does not go on into the preface is the JSON
    // wire: the line is replayed into the line framer and answered as
    // any garbage line is, byte for byte.
    let mut stream = raw(handle.addr());
    stream.write_all(b"\0garbage\n").unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    let FrameRead::Line(line) = reader.read_frame().unwrap() else {
        panic!("expected a reply line");
    };
    assert_eq!(
        line,
        r#"{"error":{"code":"parse_error","message":"json error at byte 0: expected a value"},"id":null,"ok":false}"#
    );
    // The connection survives on the JSON wire.
    stream.write_all(b"{\"id\":2,\"method\":\"ping\"}\n").unwrap();
    let FrameRead::Line(line) = reader.read_frame().unwrap() else {
        panic!("expected a ping reply");
    };
    assert_eq!(line, r#"{"id":2,"ok":true,"result":"pong"}"#);
    handle.shutdown();
}

#[test]
fn preface_then_eof_closes_cleanly() {
    let (handle, _service) = start_server();
    let mut stream = raw(handle.addr());
    stream.write_all(&PREFACE).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing to answer: {rest:?}");
    // The server is unharmed.
    let mut c = Client::connect_negotiated(handle.addr()).unwrap();
    assert_eq!(c.call("ping", Json::Null).unwrap(), Json::str("pong"));
    let stats = handle.shutdown();
    assert_eq!(num(stats.get("server").and_then(|s| s.get("errors"))), 0.0);
}

#[test]
fn tree_blob_is_verbatim_svpack_on_both_wires() {
    let (handle, service) = start_server();
    let mut bin = Client::connect_negotiated(handle.addr()).unwrap();
    assert_eq!(bin.wire(), Wire::Bin);
    bin.call("index", Json::obj([("app", Json::str("minibude"))])).unwrap();

    // The ground truth: the same deterministic index, serialised locally.
    let db = index_app(App::MiniBude, false).unwrap();
    let entry = db.entry("Serial").expect("Serial unit");
    let expected = svtree::pack::write_tree(entry.artifacts.t_sem.tree());
    let fp = entry.artifacts.t_sem.structural_hash();

    let params = || {
        Json::obj([
            ("db", Json::str("minibude")),
            ("label", Json::str("Serial")),
            ("metric", Json::str("t_sem")),
        ])
    };
    let (meta, blobs) = bin.call_blob("tree", params()).unwrap();
    assert_eq!(blobs.len(), 1);
    assert_eq!(blobs[0], expected, "svpack bytes ride the binary frame verbatim");
    assert_eq!(svtree::pack::probe_tree(&blobs[0]), Some(2), "svpack v2 payload");
    assert_eq!(meta.get("fp").and_then(Json::as_str), Some(format!("{fp:016x}").as_str()));
    assert_eq!(num(meta.get("bytes")), expected.len() as f64);

    // The JSON wire folds the same bytes in as hex — after
    // unfolding, both wires return the identical (meta, blob) pair.
    let mut json = Client::connect(handle.addr()).unwrap();
    let (meta_j, blobs_j) = json.call_blob("tree", params()).unwrap();
    assert_eq!(meta_j, meta);
    assert_eq!(blobs_j, blobs);

    // Counter-proof that the store served it: the tree was appended at
    // index time (content-addressed) and the fetches added no records.
    assert!(service.store().contains(fp));
    let m = bin.call("metrics", Json::Null).unwrap();
    let counters = m.get("counters").expect("counters section");
    assert!(num(counters.get("store.appends")) >= 20.0, "10 units x t_sem+t_src");
    assert!(num(counters.get("store.append_bytes")) > 0.0);
    handle.shutdown();
}

#[test]
fn oversized_binary_frame_is_rejected_then_closed() {
    let (handle, _service) = start_server();
    let mut stream = raw(handle.addr());
    // A length prefix over MAX_FRAME must be refused before buffering —
    // and the stream cannot resync on a length, so the server closes it.
    stream.write_all(&PREFACE).unwrap();
    stream.write_all(&((MAX_FRAME as u32) + 1).to_le_bytes()).unwrap();
    let mut reader = BinFrameReader::new(stream.try_clone().unwrap());
    match reader.read_frame().unwrap() {
        BinRead::Frame(payload) => {
            let (id, res) = binproto::decode_response(&payload).unwrap();
            assert_eq!(id, None);
            assert_eq!(res.unwrap_err().code, "frame_too_large");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    assert_eq!(reader.read_frame().unwrap(), BinRead::Eof, "connection closed after reply");
    handle.shutdown();
}

#[test]
fn oversized_json_line_is_rejected_and_connection_survives() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    let huge = format!("{}\n", "x".repeat(MAX_FRAME + 1));
    client.send_raw(&huge).unwrap();
    let (_, res) = client.recv().unwrap();
    assert_eq!(res.unwrap_err().code, "frame_too_large");
    // Newline framing resyncs: the same connection keeps serving.
    let health = client.call("health", Json::Null).unwrap();
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    handle.shutdown();
}

#[test]
fn corrupt_binary_payload_is_parse_error_and_connection_survives() {
    let (handle, _service) = start_server();
    let mut stream = raw(handle.addr());
    // A well-framed but undecodable payload: framing is intact, so the
    // connection survives with a parse_error reply.
    let garbage = [0xffu8, 0xee, 0xdd];
    stream.write_all(&PREFACE).unwrap();
    stream.write_all(&(garbage.len() as u32).to_le_bytes()).unwrap();
    stream.write_all(&garbage).unwrap();
    let mut reader = BinFrameReader::new(stream.try_clone().unwrap());
    let BinRead::Frame(payload) = reader.read_frame().unwrap() else {
        panic!("expected a reply frame");
    };
    let (_, res) = binproto::decode_response(&payload).unwrap();
    assert_eq!(res.unwrap_err().code, "parse_error");

    // Same connection, now a valid request.
    stream.write_all(&health_frame(7)).unwrap();
    assert_eq!(read_health(&mut reader), (Some(7), "ok".to_string()));
    handle.shutdown();
}

#[test]
fn stats_window_breaks_requests_down_per_listener() {
    let (handle, _service) = start_server();
    let mut bin = Client::connect_negotiated(handle.addr()).unwrap();
    assert_eq!(bin.wire(), Wire::Bin);
    let mut json = Client::connect(handle.addr()).unwrap();
    for _ in 0..5 {
        bin.call("health", Json::Null).unwrap();
        json.call("health", Json::Null).unwrap();
    }
    let stats = json.call("stats", Json::Null).unwrap();
    let w = stats.get("window").expect("window section");
    assert!(num(w.get("json_rate_10s")) > 0.0, "json wire saw traffic");
    assert!(num(w.get("bin_rate_10s")) > 0.0, "bin wire saw traffic");
    // The rendered dashboard surfaces the same split.
    let rendered = svserve::render_stats(&stats);
    assert!(rendered.contains("json req/s"), "per-proto line in render:\n{rendered}");
    handle.shutdown();
}

#[test]
fn binary_wire_carries_trace_context() {
    let (handle, _service) = start_server();
    let mut bin = Client::connect_negotiated(handle.addr()).unwrap();
    assert_eq!(bin.wire(), Wire::Bin);
    bin.set_tracing(true);
    bin.call("index", Json::obj([("app", Json::str("minibude"))])).unwrap();
    let trace_id = bin.last_trace_id().expect("traced call records its id");
    // The server's flight recorder holds spans under the propagated id.
    let reply =
        bin.call("trace", Json::obj([("id", Json::str(svserve::id_hex(trace_id)))])).unwrap();
    let spans = match reply.get("spans") {
        Some(Json::Array(s)) => s.len(),
        _ => 0,
    };
    assert!(spans > 0, "server sampled spans for the binary-wire trace id");
    handle.shutdown();
}

#[test]
fn evaluate_and_cluster_match_across_wires() {
    let (handle, _service) = start_server();
    let mut bin = Client::connect_negotiated(handle.addr()).unwrap();
    let mut json = Client::connect(handle.addr()).unwrap();
    bin.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    let params = || Json::obj([("db", Json::str("babelstream")), ("metric", Json::str("t_sem"))]);
    let c_bin = bin.call("cluster", params()).unwrap();
    let c_json = json.call("cluster", params()).unwrap();
    assert_eq!(c_bin, c_json, "cluster output identical across wires");
    // And both match the one-shot pipeline.
    let db = index_app(App::BabelStream, false).unwrap();
    let direct = pipeline::model_matrix(&db, svmetrics::Metric::TSem, svmetrics::Variant::PLAIN);
    let dendro = svcluster::cluster_rows(&direct);
    assert_eq!(c_bin.get("dendrogram").and_then(Json::as_str), Some(dendro.render().as_str()));
    handle.shutdown();
}
