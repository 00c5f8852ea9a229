//! The server's thread bound: one `evaluate` request fans its candidates
//! out over the `svpar` pool without starting a thread per candidate, and
//! every server thread is gone soon after shutdown.
//!
//! This file holds a single test, so no other test's threads run in the
//! process while it counts.  It reads `Threads:` from `/proc/self/status`,
//! hence Linux only.

#![cfg(target_os = "linux")]

use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use svserve::{serve_with, Client, Router, ServeConfig};

const WORKERS: usize = 2;

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a Threads: line")
}

#[test]
fn evaluate_stays_within_the_pool_and_shutdown_ends_every_thread() {
    // Start svpar's lazily grown helpers now, so they count in `before`.
    let items: Vec<usize> = (0..64).collect();
    svpar::par_tasks(&items, |&i| i);
    let helpers = svpar::num_threads() - 1;
    let before = threads();

    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    let handle = serve_with(
        "127.0.0.1:0",
        router,
        ServeConfig { workers: WORKERS, ..ServeConfig::default() },
    )
    .expect("bind test server");
    let addr = handle.addr();
    Client::connect(addr)
        .unwrap()
        .call("index", Json::obj([("app", Json::str("babelstream"))]))
        .unwrap();

    // The request runs on a client thread while this one samples.
    let done = Arc::new(AtomicBool::new(false));
    let finished = Arc::clone(&done);
    let request = std::thread::spawn(move || {
        let params = Json::obj([
            ("db", Json::str("babelstream")),
            ("app", Json::str("babelstream")),
            ("candidates", Json::Num(64.0)),
            ("seed", Json::Num(3.0)),
        ]);
        let reply = Client::connect(addr).unwrap().call("evaluate", params);
        finished.store(true, Ordering::SeqCst);
        reply
    });
    let mut peak = 0;
    while !done.load(Ordering::SeqCst) {
        peak = peak.max(threads());
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = request.join().unwrap().expect("evaluate succeeds");
    assert_eq!(reply.get("candidates").and_then(Json::as_f64), Some(64.0));
    // The client thread, the reactor, the request's frame thread, up to
    // `WORKERS` job threads, and svpar's helpers.
    let bound = before + WORKERS + helpers + 3;
    assert!(peak <= bound, "peak {peak} threads, bound {bound} (before {before})");

    handle.shutdown();
    let t0 = Instant::now();
    while threads() > before && t0.elapsed() < Duration::from_millis(500) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before, "server threads still alive {:?} after shutdown", t0.elapsed());
}
