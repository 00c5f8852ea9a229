//! Live-server smoke test for `evaluate`: a seeded candidate population
//! is ranked end-to-end through a real TCP server as one pool job, with
//! the correctness gate filtering wrong answers, deterministic output per
//! seed, and warm re-evaluation collapsing into the candidate memo + TED
//! cache (observable via the `metrics` builtin).  The offline scorer is
//! pinned, and agrees with the served one bit for bit.

use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use silvervale::{evaluate_ports, score_ports, GatedPort};
use std::collections::HashSet;
use std::sync::Arc;
use svcorpus::{App, Model};
use svmetrics::Measured;
use svserve::{serve, Client, Router, ServeHandle, TedCache};

fn start_server() -> (ServeHandle, Arc<AnalysisService>) {
    let service = AnalysisService::new(1 << 22);
    let mut router = Router::new();
    service.register_on(&mut router);
    let handle = serve("127.0.0.1:0", router, 4).expect("bind test server");
    (handle, service)
}

fn num(v: Option<&Json>) -> f64 {
    v.and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn counter(client: &mut Client, name: &str) -> f64 {
    let m = client.call("metrics", Json::Null).unwrap();
    num(m.get("counters").and_then(|c| c.get(name)))
}

fn jobs_submitted(handle: &ServeHandle) -> f64 {
    num(handle.stats_json().get("pool").and_then(|p| p.get("jobs_submitted")))
}

#[test]
fn evaluate_ranks_100_candidates_through_a_live_server() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();

    let params = Json::obj([
        ("db", Json::str("babelstream")),
        ("app", Json::str("babelstream")),
        ("candidates", Json::Num(100.0)),
        ("seed", Json::Num(11.0)),
        ("csv", Json::Bool(true)),
    ]);

    // Cold evaluation: one pool job, in which every unique candidate is
    // compiled, gated, and scored once.
    let submitted = jobs_submitted(&handle);
    let cold = client.call("evaluate", params.clone()).unwrap();
    assert_eq!(jobs_submitted(&handle), submitted + 1.0, "each evaluate is one pool job");
    assert_eq!(num(cold.get("candidates")), 100.0);
    let rows = cold.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 100, "one leaderboard row per candidate");
    let distinct: HashSet<&str> =
        rows.iter().filter_map(|r| r.get("fingerprint").and_then(Json::as_str)).collect();
    assert!(distinct.len() < rows.len(), "the population holds duplicate sources");

    // The gate produced a mixed population and the ranking respects it:
    // only correct candidates may score above zero, scores descend.
    let counts = cold.get("counts").unwrap();
    let correct = num(counts.get("correct"));
    let failed = num(counts.get("build-fail"))
        + num(counts.get("runtime-fail"))
        + num(counts.get("wrong-answer"));
    assert!(correct >= 1.0, "population includes correct ports");
    assert!(failed >= 1.0, "population includes gated-out ports");
    let mut prev = f64::INFINITY;
    for row in rows {
        let score = num(row.get("score"));
        assert!(score <= prev, "leaderboard must be sorted by score descending");
        prev = score;
        if row.get("class").and_then(Json::as_str) != Some("correct") {
            assert_eq!(score, 0.0, "gated-out candidates must score zero");
        }
    }

    // The reply carries every rendering the CLI prints.
    let text = cold.get("text").and_then(Json::as_str).unwrap().to_string();
    assert!(text.contains("correct"), "leaderboard text lists gate classes");
    assert!(cold.get("chart").and_then(Json::as_str).is_some(), "navigation chart attached");
    let csv = cold.get("csv").and_then(Json::as_str).unwrap();
    assert_eq!(csv.lines().count(), 101, "csv: header + one line per candidate");
    assert!(csv.starts_with("rank,candidate,model,class,score"), "csv header");

    let builds_cold = counter(&mut client, "service.cand_builds");
    assert_eq!(builds_cold, distinct.len() as f64, "a cold run builds each distinct source once");
    let memo_hits_cold = counter(&mut client, "service.cand_memo_hits");

    // Warm evaluation: identical request, identical leaderboard — but the
    // candidate memo skips every compile + interpret, and the baseline
    // divergences come straight out of the TED cache.
    let submitted = jobs_submitted(&handle);
    let warm = client.call("evaluate", params).unwrap();
    assert_eq!(jobs_submitted(&handle), submitted + 1.0, "each evaluate is one pool job");
    assert_eq!(
        warm.get("text").and_then(Json::as_str),
        Some(text.as_str()),
        "evaluation must be deterministic per seed"
    );
    assert_eq!(
        counter(&mut client, "service.cand_builds"),
        builds_cold,
        "warm evaluation must not rebuild any candidate"
    );
    assert!(
        counter(&mut client, "service.cand_memo_hits") > memo_hits_cold,
        "warm evaluation is served from the candidate memo"
    );
    assert!(
        counter(&mut client, "cache.hits") > 0.0,
        "duplicate candidates route their TBMD through the TED cache"
    );

    handle.shutdown();
}

#[test]
fn evaluate_rejects_bad_populations_and_unknown_apps() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();

    let err = client
        .call(
            "evaluate",
            Json::obj([
                ("db", Json::str("babelstream")),
                ("app", Json::str("babelstream")),
                ("candidates", Json::Num(0.0)),
            ]),
        )
        .unwrap_err();
    assert_eq!(err.code, "bad_params");

    let err = client
        .call(
            "evaluate",
            Json::obj([("db", Json::str("babelstream")), ("app", Json::str("nosuchapp"))]),
        )
        .unwrap_err();
    assert_eq!(err.code, "bad_params");

    let err = client
        .call(
            "evaluate",
            Json::obj([("db", Json::str("ghost")), ("app", Json::str("babelstream"))]),
        )
        .unwrap_err();
    assert_eq!(err.code, "not_found");

    // `evaluate` is advertised alongside the other handlers.
    let methods = client.call("methods", Json::Null).unwrap();
    let names: Vec<&str> = methods.as_array().unwrap().iter().filter_map(Json::as_str).collect();
    assert!(names.contains(&"evaluate"), "methods advertises evaluate: {names:?}");
    handle.shutdown();
}

/// Offline `evaluate_ports` on a fixed population: the gate-class counts
/// and the rendered leaderboard are pinned, so a change in the
/// interpreter's semantics or step accounting cannot silently reclassify
/// candidates.  The class counts date from before the interpreter stopped
/// cloning AST; the digest was re-recorded when `tbmd_sem` moved from the
/// matrix cell's max(|T_base|, |T_cand|) normaliser to Eq. 7's |T_cand|
/// (same classes, same `tbmd_src`).
#[test]
fn offline_evaluate_gate_classes_are_pinned() {
    let board = evaluate_ports(App::BabelStream, 48, 5).expect("evaluate");
    let counts = board.class_counts().map(|(c, n)| (c.name(), n));
    let text = board.render();
    let digest = svtree::intern::fnv64(&text);
    assert_eq!(
        (counts, digest),
        (
            [("build-fail", 1), ("runtime-fail", 4), ("wrong-answer", 14), ("correct", 29)],
            0x43b9e6f55a4096c3
        ),
        "leaderboard drifted:\n{text}"
    );
}

/// The offline scorer and the served `evaluate` agree bit for bit on both
/// TBMD columns: each is Eq. 7's divergence from the baseline, normalised
/// by the candidate's tree size.
#[test]
fn library_and_served_tbmd_are_bit_equal() {
    let (handle, _service) = start_server();
    let mut client = Client::connect(handle.addr()).unwrap();
    client.call("index", Json::obj([("app", Json::str("babelstream"))])).unwrap();
    let served = client
        .call(
            "evaluate",
            Json::obj([
                ("db", Json::str("babelstream")),
                ("app", Json::str("babelstream")),
                ("candidates", Json::Num(60.0)),
                ("seed", Json::Num(7.0)),
            ]),
        )
        .unwrap();
    handle.shutdown();
    let served: std::collections::HashMap<String, (Option<f64>, Option<f64>)> = served
        .get("rows")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|r| {
            let label = r.get("label").and_then(Json::as_str).unwrap().to_string();
            let tbmd = |k| r.get(k).and_then(Json::as_f64);
            (label, (tbmd("tbmd_sem"), tbmd("tbmd_src")))
        })
        .collect();

    let board = evaluate_ports(App::BabelStream, 60, 7).expect("evaluate");
    assert_eq!(board.rows.len(), served.len());
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    let mut scored = 0;
    for r in &board.rows {
        let (sem, src) = served[&r.label];
        assert_eq!(bits(r.tbmd_sem), bits(sem), "{} tbmd_sem", r.label);
        assert_eq!(bits(r.tbmd_src), bits(src), "{} tbmd_src", r.label);
        scored += usize::from(r.tbmd_sem.is_some());
    }
    assert!(scored > 0, "the population has built candidates");
}

/// The scorer ranks identically with and without a pair memo, cold and
/// warm: the memo only changes where TBMD comes from, never its bits.
#[test]
fn scorer_with_a_memo_matches_the_plain_scorer_cold_and_warm() {
    let (app, n, seed) = (App::BabelStream, 40, 3);
    let plain = evaluate_ports(app, n, seed).expect("evaluate");

    let cache = TedCache::new(1 << 22);
    let baseline = svport::baseline_run(app).expect("baseline");
    let base = svcorpus::unit(app, Model::Serial).expect("base unit");
    let cands = svport::generate(app, n, seed);
    let gate = |c: &svport::Candidate, _| {
        Arc::new(GatedPort::new(svport::gate(app, c, &baseline), Some(&cache)))
    };
    let score = || score_ports(app, seed, &cands, &Measured::new(&base), gate, Some(&cache));
    let cold = score();
    let computed = cache.stats().misses;
    assert!(computed > 0, "a cold memo computes its pairs");
    let warm = score();
    assert_eq!(cache.stats().misses, computed, "a warm memo computes nothing");

    let bits = |v: Option<f64>| v.map(f64::to_bits);
    for (pass, board) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(board.render(), plain.render(), "{pass} leaderboard");
        assert_eq!(board.rows.len(), plain.rows.len());
        for (got, want) in board.rows.iter().zip(&plain.rows) {
            assert_eq!((got.id, got.class, &got.detail), (want.id, want.class, &want.detail));
            assert_eq!(bits(got.tbmd_sem), bits(want.tbmd_sem), "{pass} {} tbmd_sem", got.label);
            assert_eq!(bits(got.tbmd_src), bits(want.tbmd_src), "{pass} {} tbmd_src", got.label);
            assert_eq!(got.score.to_bits(), want.score.to_bits(), "{pass} {} score", got.label);
        }
    }
}
