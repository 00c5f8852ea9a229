//! Wire-protocol throughput: binary framing vs the JSON wire.
//!
//! One server on one port, one `tree` blob handler serving a synthetic
//! svpack v2 tree out of the mmap'd artifact store.  Each cycle is a
//! full client lifetime — connect, fetch the tree, close — measured raw
//! on each wire (no retry machinery), so the figure isolates what the
//! framing itself costs: the JSON path hex-encodes the payload and
//! re-parses it as a string; the binary path opens with the preface and
//! carries the svpack bytes verbatim.
//!
//! Writes `BENCH_serve.json` and asserts at run time that the binary
//! path sustains at least [`MIN_SPEEDUP`] times the JSON path's
//! connection rate; CI runs the bench, so the gate is measured on the
//! runner.

use bench::save_figure;
use silvervale::svjson::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use svdist::SharedTree;
use svserve::binproto::{self, BinFrameReader, BinRead, PREFACE};
use svserve::proto::{parse_response, Request};
use svserve::{serve_with, ArtifactStore, Router, ServeConfig};
use svtree::Tree;

/// Synthetic comparison tree: ~20k nodes (a large unit's t_sem), deep
/// and label-diverse enough that svpack's columnar encoding does real
/// work.  Sized so the hex-folded JSON response stays under MAX_FRAME.
fn synthetic_tree() -> Tree {
    fn level(depth: u32, fan: usize, salt: u64) -> Tree {
        let names = ["fn", "for", "if", "call", "block", "assign", "index", "binop"];
        let name = names[(salt as usize) % names.len()];
        if depth == 0 {
            return Tree::leaf(format!("{name}{}", salt % 97));
        }
        let children =
            (0..fan).map(|i| level(depth - 1, fan, salt.wrapping_mul(31).wrapping_add(i as u64)));
        Tree::node(name, children.collect())
    }
    // 6 levels of fan-out 5 → (5^7 - 1) / 4 ≈ 19.5k nodes.
    level(6, 5, 7)
}

/// The gate on bin/JSON conn/s.  Thirty recorded runs on a 2-core host
/// (half before and half after the one-port server, EXPERIMENTS.md)
/// measured 8.3x-18.7x; the bound keeps 2x margin under the lowest of
/// them.
const MIN_SPEEDUP: f64 = 4.0;

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// One JSON-wire cycle: connect, fetch the tree, decode the hex fold.
fn json_cycle(addr: std::net::SocketAddr, expect: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("connect json");
    stream.write_all(b"{\"id\":1,\"method\":\"tree\",\"params\":null}\n").expect("send");
    let mut line = String::new();
    BufReader::new(&stream).read_line(&mut line).expect("recv");
    let (_, res) = parse_response(&line).expect("parse");
    let result = res.expect("ok response");
    let hex = result.get("svpack_hex").and_then(Json::as_str).expect("hex fold");
    let bytes = binproto::hex_decode(hex).expect("hex payload");
    assert_eq!(bytes, expect, "json wire returns the same svpack bytes");
}

/// One binary-wire cycle: connect, send the preface and the request in
/// one write, fetch the tree, take the blob verbatim.
fn bin_cycle(addr: std::net::SocketAddr, expect: &[u8]) {
    let stream = TcpStream::connect(addr).expect("connect bin");
    let req = Request { id: 1, method: "tree".into(), params: Json::Null, trace: None };
    let msg = [&PREFACE[..], &binproto::encode_request(&req, &[])].concat();
    (&stream).write_all(&msg).expect("send");
    let mut reader = BinFrameReader::new(&stream);
    let BinRead::Frame(payload) = reader.read_frame().expect("recv") else {
        panic!("expected a response frame");
    };
    let (_, res) = binproto::decode_response(&payload).expect("decode");
    let (_, blobs) = res.expect("ok response");
    assert_eq!(blobs[0], expect, "binary wire returns the svpack bytes verbatim");
}

fn run(n: usize, mut cycle: impl FnMut()) -> (f64, f64, f64) {
    let mut lat_us: Vec<f64> = Vec::with_capacity(n);
    let t = Instant::now();
    for _ in 0..n {
        let c = Instant::now();
        cycle();
        lat_us.push(c.elapsed().as_secs_f64() * 1e6);
    }
    let total = t.elapsed().as_secs_f64();
    lat_us.sort_by(f64::total_cmp);
    (n as f64 / total, percentile(&lat_us, 0.5), percentile(&lat_us, 0.99))
}

fn main() {
    let store = Arc::new(ArtifactStore::temp().expect("temp store"));
    let tree = SharedTree::new(synthetic_tree());
    let nodes = tree.size();
    let hash = store.append_tree(&tree).expect("append");
    let payload = store.raw(hash).expect("stored payload");
    assert!(
        payload.len() * 2 + 4096 < svserve::MAX_FRAME,
        "hex fold must fit the JSON frame ({} bytes raw)",
        payload.len()
    );

    let mut router = Router::new();
    let handler_store = Arc::clone(&store);
    router.register_blob("tree", move |_| {
        let bytes = handler_store
            .raw(hash)
            .ok_or_else(|| svserve::ServeError::internal("store lost the bench record"))?;
        Ok((Json::obj([("nodes", Json::Num(0.0))]), bytes))
    });
    let handle =
        serve_with("127.0.0.1:0", router, ServeConfig { workers: 2, ..ServeConfig::default() })
            .expect("bind bench server");
    let addr = handle.addr();

    const WARMUP: usize = 20;
    const CYCLES: usize = 200;
    for _ in 0..WARMUP {
        json_cycle(addr, &payload);
        bin_cycle(addr, &payload);
    }
    let (json_cps, json_p50, json_p99) = run(CYCLES, || json_cycle(addr, &payload));
    let (bin_cps, bin_p50, bin_p99) = run(CYCLES, || bin_cycle(addr, &payload));
    handle.shutdown();

    let speedup = bin_cps / json_cps;
    // One field per line, like the other committed figures.
    let json = format!(
        "{{\n  \"cycles\": {CYCLES},\n  \
         \"tree_nodes\": {nodes},\n  \
         \"svpack_bytes\": {},\n  \
         \"json_conn_per_sec\": {json_cps:.2},\n  \
         \"json_p50_us\": {json_p50:.2},\n  \"json_p99_us\": {json_p99:.2},\n  \
         \"bin_conn_per_sec\": {bin_cps:.2},\n  \
         \"bin_p50_us\": {bin_p50:.2},\n  \"bin_p99_us\": {bin_p99:.2},\n  \
         \"conn_speedup\": {speedup:.2},\n  \
         \"note\": \"full connect-fetch-close cycles against one server, both wires \
         on one port (a binary connection opens with the 4-byte preface), serving \
         the same svpack payload from the artifact store; the JSON wire pays \
         hex-fold plus re-parse, the binary wire carries the bytes verbatim\"\n}}\n",
        payload.len()
    );
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::fs::write(format!("{repo_root}/BENCH_serve.json"), &json).expect("write BENCH_serve");
    save_figure("BENCH_serve.json", &json);
    assert!(
        speedup >= MIN_SPEEDUP,
        "binary wire must sustain >={MIN_SPEEDUP}x the JSON connection rate \
         ({bin_cps:.0} vs {json_cps:.0} conn/s = {speedup:.2}x)"
    );
}
