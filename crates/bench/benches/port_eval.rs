//! Port-candidate evaluation throughput: cold vs warm fan-out.
//!
//! The `evaluate` method fans one request into one pool job per
//! candidate.  Cold, every unique candidate pays the full pipeline —
//! compile, interpreted gate run against the serial baseline, TED for
//! both TBMD variants.  Warm, the candidate memo answers the gate and
//! the content-addressed `TedCache` answers the divergences, so a
//! repeated evaluation is pure lookups plus ranking.  This bench runs
//! the real TCP service end-to-end, measures candidates/second in both
//! regimes, and writes the medians to
//! `target/figures/BENCH_port_eval.json`.  Warm evaluation must be ≥2×
//! cold.

use bench::save_figure;
use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use std::time::Instant;
use svserve::{serve, Client, Router, ServeHandle};

const CANDIDATES: usize = 100;
const SEED: u64 = 17;
const COLD_ITERS: usize = 3;
const WARM_ITERS: usize = 7;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn start_server() -> ServeHandle {
    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    serve("127.0.0.1:0", router, 4).expect("bind bench server")
}

fn evaluate(client: &mut Client) -> (f64, String) {
    let params = Json::obj([
        ("db", Json::str("babelstream")),
        ("app", Json::str("babelstream")),
        ("candidates", Json::Num(CANDIDATES as f64)),
        ("seed", Json::Num(SEED as f64)),
    ]);
    let t = Instant::now();
    let r = client.call("evaluate", params).expect("evaluate");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert_eq!(r.get("candidates").and_then(Json::as_f64), Some(CANDIDATES as f64));
    (ms, r.get("text").and_then(Json::as_str).expect("leaderboard text").to_string())
}

fn main() {
    // Cold: a fresh service per iteration — nothing memoised, nothing
    // cached, every candidate compiled and interpreted.
    let mut t_cold = Vec::new();
    let mut reference: Option<String> = None;
    for _ in 0..COLD_ITERS {
        let handle = start_server();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
        let (ms, text) = evaluate(&mut client);
        t_cold.push(ms);
        match &reference {
            Some(r) => assert_eq!(&text, r, "cold evaluation must be deterministic per seed"),
            None => reference = Some(text),
        }
        handle.shutdown();
    }
    let reference = reference.unwrap();

    // Warm: repeated evaluations against one long-lived service — the
    // candidate memo + TED cache steady state.
    let handle = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    let (_, text) = evaluate(&mut client); // warm-up: populate memo + cache
    assert_eq!(text, reference, "served leaderboard must match across services");
    let mut t_warm = Vec::new();
    for _ in 0..WARM_ITERS {
        let (ms, text) = evaluate(&mut client);
        t_warm.push(ms);
        assert_eq!(text, reference, "warm evaluation must reproduce the cold leaderboard");
    }
    handle.shutdown();

    let med_cold = median(t_cold);
    let med_warm = median(t_warm);
    let cold_cps = CANDIDATES as f64 / (med_cold / 1e3);
    let warm_cps = CANDIDATES as f64 / (med_warm / 1e3);
    let speedup = med_cold / med_warm;
    assert!(
        speedup >= 2.0,
        "warm evaluation must be ≥2x cold, got {speedup:.2}x ({med_cold:.0} ms -> {med_warm:.0} ms)"
    );

    let json = format!(
        "{{\n  \"workload\": \"BabelStream port evaluation, {CANDIDATES} candidates, seed {SEED}\",\n  \
         \"candidates\": {CANDIDATES},\n  \
         \"cold_ms\": {med_cold:.3},\n  \
         \"warm_ms\": {med_warm:.3},\n  \
         \"cold_candidates_per_s\": {cold_cps:.1},\n  \
         \"warm_candidates_per_s\": {warm_cps:.1},\n  \
         \"speedup_warm_over_cold\": {speedup:.3},\n  \
         \"note\": \"one pool job per candidate through the live service; cold pays compile + \
         interpreted gate + TED per unique candidate, warm is served by the candidate memo and \
         the content-addressed TedCache (pure lookups + ranking)\"\n}}\n",
    );

    save_figure("BENCH_port_eval.json", &json);
}
