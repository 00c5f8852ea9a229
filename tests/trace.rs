//! End-to-end tracing: a traced compare/matrix run must produce a
//! well-formed Chrome `trace_event` JSON document that round-trips
//! through the repo's own `svjson` parser, with a span for every
//! pipeline stage, parent/child nesting, and monotonic timestamps.
//!
//! Span collection is process-global, so everything lives in ONE test
//! function — a second concurrently-running test would interleave its
//! spans into ours.

use silvervale::svjson::{self, Json};
use silvervale::{divergence_from, index_app, model_matrix};
use svcorpus::App;
use svmetrics::{Metric, Variant};

#[test]
fn traced_compare_run_round_trips_through_svjson() {
    svtrace::reset_spans();
    svtrace::set_enabled(true);
    let db = index_app(App::BabelStream, false).expect("index babelstream");
    let matrix = model_matrix(&db, Metric::TSem, Variant::PLAIN);
    let divs = divergence_from(&db, Metric::TSem, Variant::PLAIN, "Serial").expect("compare");
    svtrace::set_enabled(false);
    let spans = svtrace::take_spans();
    assert!(!divs.is_empty() && matrix.len() == divs.len());

    // Every pipeline stage shows up.
    for stage in [
        "unit.compile",
        "unit.preprocess",
        "unit.lex",
        "unit.normalise",
        "unit.parse",
        "unit.lower",
        "unit.inline",
        "matrix.build",
        "matrix.pair",
        "ted.compute",
    ] {
        assert!(
            spans.iter().any(|s| s.name == stage),
            "no '{stage}' span among {} spans",
            spans.len()
        );
    }
    // Every span ran on the calling thread or on a persistent svpar
    // worker, so the run keeps a fixed set of trace lanes however many
    // parallel calls it made.
    let tids: std::collections::BTreeSet<u64> = spans.iter().map(|s| s.tid).collect();
    assert!(
        tids.len() <= svpar::num_threads(),
        "spans spread over {} thread lanes ({tids:?}); at most {} participate",
        tids.len(),
        svpar::num_threads()
    );

    // One matrix.pair span per upper-triangle cell.
    let n = matrix.len();
    let pairs = spans.iter().filter(|s| s.name == "matrix.pair").count();
    assert_eq!(pairs, n * (n - 1) / 2);

    // Nesting: stage spans sit strictly inside their unit.compile parent.
    let compile = spans.iter().find(|s| s.name == "unit.compile").unwrap();
    let child = spans
        .iter()
        .find(|s| s.name == "unit.lex" && s.tid == compile.tid && s.start_ns >= compile.start_ns)
        .expect("a unit.lex on the same thread as unit.compile");
    assert!(child.depth > compile.depth, "child is deeper");
    assert!(child.end_ns <= compile.end_ns, "child ends inside its parent");

    // The Chrome export parses with our own JSON parser…
    let trace = svtrace::chrome_trace(&spans);
    let parsed = svjson::parse(&trace).expect("chrome trace is valid JSON");
    let events = parsed.as_array().expect("top level is an event array");
    assert_eq!(events.len(), spans.len());

    // …and every event is a well-formed complete event with monotonic
    // timestamps per thread.
    let mut last_ts: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Json::as_str), Some("X"));
        assert!(ev.get("name").and_then(Json::as_str).is_some());
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        let dur = ev.get("dur").and_then(Json::as_f64).expect("dur");
        assert!(ts >= 0.0 && dur >= 0.0);
        let prev = last_ts.insert(tid, ts).unwrap_or(0.0);
        assert!(ts >= prev, "timestamps monotonic within thread {tid}: {prev} -> {ts}");
    }

    // The text tree renders the same spans (smoke check).
    let tree = svtrace::render_tree(&spans);
    assert!(tree.contains("unit.compile") && tree.contains("ted.compute"));

    // Disabled again: new work records nothing.
    let _ = model_matrix(&db, Metric::TSem, Variant::PLAIN);
    assert!(svtrace::take_spans().is_empty(), "disabled tracing records no spans");
}

/// Exporter edge cases need no live span collection, so they can run as
/// their own test functions: they build records and snapshots by hand.
#[test]
fn two_process_merge_keeps_pids_apart_and_timestamps_monotonic() {
    let span = |pid: u32, tid: u64, start: u64, end: u64, name: &'static str| svtrace::TraceEvent {
        name: name.to_string(),
        detail: String::new(),
        pid,
        tid,
        start_ns: start,
        dur_ns: end - start,
        trace_id: 0xfeed,
        span_id: start, // unique enough for the exporter
        parent_span_id: 0,
    };
    // Two processes with overlapping thread ids and deliberately
    // shuffled event order; client clock far ahead of server clock.
    let events = vec![
        span(2, 1, 50, 90, "serve.request"),
        span(1, 1, 9_000_000, 9_000_900, "client.call"),
        span(2, 1, 60, 70, "pool.execute"),
        span(2, 2, 10, 20, "pool.execute"),
        span(1, 1, 8_000_000, 9_500_000, "session"),
    ];
    let merged = svtrace::chrome_trace_events(&events);
    let parsed = svjson::parse(&merged).expect("merged trace parses");
    let evs = parsed.as_array().unwrap();
    assert_eq!(evs.len(), events.len());

    // Both pid lanes survive, and within each (pid, tid) lane the
    // timestamps are monotone even though the input was shuffled and the
    // two processes' clocks are wildly different.
    let mut pids = std::collections::BTreeSet::new();
    let mut last: std::collections::HashMap<(u64, u64), f64> = std::collections::HashMap::new();
    for ev in evs {
        let pid = ev.get("pid").and_then(Json::as_f64).expect("pid") as u64;
        let tid = ev.get("tid").and_then(Json::as_f64).expect("tid") as u64;
        let ts = ev.get("ts").and_then(Json::as_f64).expect("ts");
        pids.insert(pid);
        let prev = last.insert((pid, tid), ts).unwrap_or(f64::MIN);
        assert!(ts >= prev, "lane ({pid},{tid}) monotonic: {prev} -> {ts}");
    }
    assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    // Same-thread events of different processes never collapse into one
    // lane: pid 1 / tid 1 and pid 2 / tid 1 both recorded above.
    assert!(last.contains_key(&(1, 1)) && last.contains_key(&(2, 1)));
}

#[test]
fn prometheus_histogram_buckets_are_cumulative_up_to_inf() {
    let reg = svtrace::Registry::new();
    let h = reg.histogram("req_latency.us", &[10, 100, 1000]);
    for v in [5, 5, 50, 500, 5_000, 50_000] {
        h.record(v);
    }
    let text = svtrace::prometheus(&reg.snapshot());

    // Cumulative `le` buckets: each bound counts everything at or below
    // it, and `+Inf` equals `_count` exactly.
    assert!(text.contains("req_latency_us_bucket{le=\"10\"} 2"), "{text}");
    assert!(text.contains("req_latency_us_bucket{le=\"100\"} 3"), "{text}");
    assert!(text.contains("req_latency_us_bucket{le=\"1000\"} 4"), "{text}");
    assert!(text.contains("req_latency_us_bucket{le=\"+Inf\"} 6"), "{text}");
    assert!(text.contains("req_latency_us_count 6"), "{text}");
    let sum: u64 = [5u64, 5, 50, 500, 5_000, 50_000].iter().sum();
    assert!(text.contains(&format!("req_latency_us_sum {sum}")), "{text}");
    // Bucket counts never decrease as the bound grows (cumulativity is
    // what Prometheus quantile math relies on).
    let counts: Vec<u64> = text
        .lines()
        .filter(|l| l.starts_with("req_latency_us_bucket"))
        .filter_map(|l| l.rsplit(' ').next()?.parse().ok())
        .collect();
    assert_eq!(counts.len(), 4);
    assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
}
