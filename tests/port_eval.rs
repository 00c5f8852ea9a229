//! Live-server smoke test for the `evaluate` fan-out: a seeded candidate
//! population is ranked end-to-end through a real TCP server, one pool
//! job per candidate, with the correctness gate filtering wrong answers,
//! deterministic output per seed, and warm re-evaluation collapsing into
//! the candidate memo + TED cache (observable via the `metrics` builtin).

use silvervale::serve::AnalysisService;
use silvervale::svjson::Json;
use std::sync::Arc;
use svserve::{serve, Client, Router, ServeHandle};

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

    // Cold evaluation: every unique candidate is compiled, gated, and
    // scored as its own pool job.
    let cold = client.call("evaluate", params.clone()).unwrap();
    assert_eq!(num(cold.get("candidates")), 100.0);
    let rows = cold.get("rows").and_then(Json::as_array).unwrap();
    assert_eq!(rows.len(), 100, "one leaderboard row per candidate");

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
    assert!(builds_cold >= 1.0, "cold evaluation built candidates");
    let memo_hits_cold = counter(&mut client, "service.cand_memo_hits");

    // Warm evaluation: identical request, identical leaderboard — but the
    // candidate memo skips every compile + interpret, and the baseline
    // divergences come straight out of the TED cache.
    let warm = client.call("evaluate", params).unwrap();
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

    // The fan-out accounted one pool job per submitted candidate:
    // executions + in-flight dedups cover all submissions.
    let stats = handle.stats_json();
    let pool = stats.get("pool").unwrap();
    let submitted = num(pool.get("jobs_submitted"));
    assert!(submitted >= 200.0, "two evaluations fan out 100 sub-jobs each");
    assert_eq!(
        num(pool.get("jobs_executed")) + num(pool.get("jobs_deduped")),
        submitted,
        "every sub-job either executed or deduped in flight"
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

    // The fan-out method is advertised alongside the plain handlers.
    let methods = client.call("methods", Json::Null).unwrap();
    let names: Vec<&str> = methods.as_array().unwrap().iter().filter_map(Json::as_str).collect();
    assert!(names.contains(&"evaluate"), "methods advertises evaluate: {names:?}");
    handle.shutdown();
}

/// Offline `svport::evaluate` on a fixed population: the gate-class counts
/// and the rendered leaderboard are pinned, so a change in the
/// interpreter's semantics or step accounting cannot silently reclassify
/// candidates.  The class counts date from before the interpreter stopped
/// cloning AST; the digest was re-recorded when `tbmd_sem` moved from the
/// matrix cell's max(|T_base|, |T_cand|) normaliser to Eq. 7's |T_cand|
/// (same classes, same `tbmd_src`).
#[test]
fn offline_evaluate_gate_classes_are_pinned() {
    let board = svport::evaluate(svcorpus::App::BabelStream, 48, 5).expect("evaluate");
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

/// The library scorer and the served `evaluate` agree bit for bit on both
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

    let board = svport::evaluate(svcorpus::App::BabelStream, 60, 7).expect("evaluate");
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
