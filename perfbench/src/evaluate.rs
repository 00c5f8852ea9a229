//! `evaluate`: cache writes through the served port-evaluation path.
//!
//! A closed loop on one negotiated (binary) connection sends `evaluate`
//! requests on BabelStream, each with a fresh candidate seed drawn from
//! `--seed` and never repeated within a run, and `CANDIDATES` candidates.
//! Candidates miss the memo and the TED cache, fan out as pool sub-jobs,
//! and run through the interpreter gate.  Set-up starts the in-process
//! server, indexes the app and warms the gate baseline.  Every round of
//! requests runs on a freshly set-up server and connection.

use crate::harness::{Amount, Block, Config, Extras, Op, Report, Workload};
use crate::host;
use crate::served::{call, Server, Snapshot};
use crate::stats::{Digest, SplitMix};
use silvervale::svjson::Json;
use std::collections::HashSet;
use std::time::Instant;
use svcorpus::App;
use svmetrics::{divergence, Measured, Metric, Variant};
use svserve::Client;

const APP: App = App::BabelStream;
/// Candidates per request.
pub const CANDIDATES: usize = 12;
/// Requests per round; every round runs on a freshly set-up server.
const ROUND: usize = 4;
/// Requests whose rows are re-scored in-process by the TBMD check.
const TBMD_SAMPLES: usize = 2;

fn request(seed: u64) -> Json {
    Json::obj([
        ("db", Json::str(APP.name())),
        ("app", Json::str(APP.name())),
        ("candidates", Json::Num(CANDIDATES as f64)),
        ("seed", Json::Num(seed as f64)),
    ])
}

pub struct Evaluate {
    seeds: SplitMix,
    warm_seeds: SplitMix,
    used: HashSet<u64>,
    digest: Digest,
    server: Option<Server>,
    client: Option<Client>,
    /// (seed, reply) of the first requests, kept for the checks.
    kept: Vec<(u64, Json)>,
    /// Per-block layer figures.
    reply_bytes: Vec<f64>,
    candidates: f64,
    correct: f64,
    unique: f64,
    seeds_in_block: Vec<u64>,
    /// Server metrics accumulated over the block's rounds.
    delta: Snapshot,
    decompositions: u64,
}

impl Evaluate {
    pub fn new(cfg: &Config) -> Evaluate {
        Evaluate {
            seeds: SplitMix::new(cfg.seed),
            warm_seeds: SplitMix::new(cfg.seed ^ 0xba5e),
            used: HashSet::new(),
            digest: Digest::new(),
            server: None,
            client: None,
            kept: Vec::new(),
            reply_bytes: Vec::new(),
            candidates: 0.0,
            correct: 0.0,
            unique: 0.0,
            seeds_in_block: Vec::new(),
            delta: Snapshot::default(),
            decompositions: 0,
        }
    }

    /// The next request seed not used before in the run (seeds stay below
    /// 2^53 so they survive the JSON number encoding exactly).
    fn fresh_seed(&mut self) -> u64 {
        loop {
            let s = self.seeds.next_u64() >> 11;
            if self.used.insert(s) {
                self.digest.add(&s.to_le_bytes());
                return s;
            }
        }
    }

    /// Validate one leaderboard reply and fold it into the block's layer
    /// figures.
    fn score(&mut self, seed: u64, reply: Json, rep: &mut Report) {
        let rows = reply.get("rows").and_then(Json::as_array).unwrap_or(&[]);
        if rows.len() != CANDIDATES || reply.get("text").and_then(Json::as_str).is_none() {
            rep.fail(format!("seed {seed}: malformed leaderboard"));
        }
        let fps: HashSet<&str> =
            rows.iter().filter_map(|r| r.get("fingerprint")?.as_str()).collect();
        self.candidates += rows.len() as f64;
        self.unique += fps.len() as f64;
        self.correct += reply.get("counts").and_then(|c| c.get("correct")?.as_f64()).unwrap_or(0.0);
        self.reply_bytes.push(reply.to_string_compact().len() as f64);
        if self.kept.len() < TBMD_SAMPLES {
            self.kept.push((seed, reply));
        }
    }

    /// Replace the server with a fresh one: start it, index the app and
    /// warm the gate baseline with a one-candidate request whose seed
    /// comes from a separate stream.
    fn restart(&mut self) -> Result<(), String> {
        self.teardown();
        let server = Server::start()?;
        let mut c = Client::connect_negotiated(server.addr()).map_err(|e| e.to_string())?;
        call(&mut c, "index", Json::obj([("app", Json::str(APP.name()))]))?;
        let warm = Json::obj([
            ("db", Json::str(APP.name())),
            ("app", Json::str(APP.name())),
            ("candidates", Json::Num(1.0)),
            ("seed", Json::Num((self.warm_seeds.next_u64() >> 11) as f64)),
        ]);
        call(&mut c, "evaluate", warm)?;
        self.server = Some(server);
        self.client = Some(c);
        Ok(())
    }
}

impl Workload for Evaluate {
    const TAIL_P: f64 = 90.0;
    const UNIT: &'static str = "request";

    fn round(&self) -> usize {
        ROUND
    }

    fn setup(&mut self, _cfg: &Config) -> Result<(), String> {
        self.restart()
    }

    /// Rounds of `ROUND` requests, each on a freshly restarted server
    /// (untimed, untraced): the service's candidate memo and TED cache only
    /// grow, and candidates repeat across seeds, so a long-lived server
    /// would turn cache writes into hits as the run goes on.
    fn block(&mut self, amount: Amount, rep: &mut Report) -> Block {
        let mut block = Block::default();
        self.reply_bytes.clear();
        self.seeds_in_block.clear();
        self.delta = Snapshot::default();
        (self.candidates, self.correct, self.unique) = (0.0, 0.0, 0.0);
        let dec0 = svdist::decompose_count();
        // The block's clock only advances while a request is in flight.
        let mut busy = 0.0;
        while !amount.done(block.ops.len(), block.units, 1) {
            let (paused, paused_cpu) = (Instant::now(), host::cpu_seconds());
            let tracing = svtrace::enabled();
            svtrace::set_enabled(false);
            let t = Instant::now();
            let restarted = self.restart();
            block.setups.push(t.elapsed().as_secs_f64());
            let before = self.client.as_mut().map(Snapshot::take);
            svtrace::set_enabled(tracing);
            block.paused_s += paused.elapsed().as_secs_f64();
            block.paused_cpu_s += host::cpu_seconds() - paused_cpu;
            let (Ok(()), Some(Ok(before)), Some(mut c)) = (restarted, before, self.client.take())
            else {
                rep.attempted += 1;
                rep.fail("server restart failed");
                break;
            };
            for _ in 0..ROUND {
                let seed = self.fresh_seed();
                self.seeds_in_block.push(seed);
                let t = Instant::now();
                let r = call(&mut c, "evaluate", request(seed));
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rep.attempted += 1;
                block.ops.push(Op { start_s: busy, ms });
                busy += ms / 1e3;
                block.units += 1;
                match r {
                    Ok(reply) => self.score(seed, reply, rep),
                    Err(e) => rep.fail(format!("seed {seed}: {e}")),
                }
            }
            let (paused, paused_cpu) = (Instant::now(), host::cpu_seconds());
            svtrace::set_enabled(false);
            if let Ok(after) = Snapshot::take(&mut c) {
                self.delta.accumulate(&before, &after);
            }
            svtrace::set_enabled(tracing);
            block.paused_s += paused.elapsed().as_secs_f64();
            block.paused_cpu_s += host::cpu_seconds() - paused_cpu;
            self.client = Some(c);
        }
        block.wall_s = busy;
        self.decompositions = svdist::decompose_count() - dec0;
        rep.note(format!(
            "inputs digest (request seeds, {CANDIDATES} candidates each): {}",
            self.digest.hex()
        ));
        block
    }

    fn check(&mut self, rep: &mut Report) {
        let Some(mut c) = self.client.take() else { return };
        // Determinism: a seed's leaderboard text never changes; the
        // digest of the first one is printed so runs can be compared.
        if let Some((seed, first)) = self.kept.first().cloned() {
            let again = call(&mut c, "evaluate", request(seed));
            let text = |j: &Json| j.get("text").and_then(Json::as_str).map(str::to_string);
            let same = again.as_ref().map(|j| text(j) == text(&first)).unwrap_or(false);
            rep.check(same, || format!("seed {seed}: leaderboard text changed on repeat"));
            let mut d = Digest::new();
            d.add(text(&first).unwrap_or_default().as_bytes());
            rep.note(format!("first leaderboard (seed {seed}) digest: {}", d.hex()));
        }
        self.client = Some(c);

        // Served TBMD_sem equals svmetrics::divergence computed in-process.
        let db = match silvervale::index_app(APP, false) {
            Ok(db) => db,
            Err(e) => {
                rep.check(false, || format!("in-process index: {e}"));
                return;
            }
        };
        let Some(base) = db.entry("Serial") else { return };
        let base_m = Measured::of(&base.artifacts);
        for (seed, reply) in &self.kept {
            let cands = svport::generate(APP, CANDIDATES, *seed);
            for row in reply.get("rows").and_then(Json::as_array).unwrap_or(&[]) {
                let Some(served) = row.get("tbmd_sem").and_then(Json::as_f64) else { continue };
                let fp = row.get("fingerprint").and_then(Json::as_str).unwrap_or("");
                let Some(cand) = cands
                    .iter()
                    .find(|c| format!("{:016x}", svport::source_fingerprint(&c.source)) == fp)
                else {
                    rep.check(false, || format!("seed {seed}: no candidate with fingerprint {fp}"));
                    continue;
                };
                let local = svport::compile_candidate(APP, cand).map(|u| {
                    divergence(Metric::TSem, Variant::PLAIN, &base_m, &Measured::new(&u))
                        .normalized()
                });
                rep.check(matches!(local, Ok(d) if d.to_bits() == served.to_bits()), || {
                    format!("seed {seed} {fp}: served TBMD_sem {served} != in-process {local:?}")
                });
            }
        }
    }

    fn extras(&mut self, attr: &crate::attrib::Attribution, block: &Block, x: &mut Extras) {
        let per = block.units.max(1) as f64;
        self.delta.layer_metrics(&self.reply_bytes, block.wall_s, x);
        x.insert("svmetrics.pairs", self.delta.counter("service.pair_computes") / per);
        x.insert("svdist.decompositions", self.decompositions as f64 / per);
        let gates = attr.counts.get("port.gate").copied().unwrap_or(0) as f64;
        x.insert("svexec.runs", gates / per);
        x.insert("svport.gate_pass_ratio", self.correct / self.candidates.max(1.0));
        x.insert("svport.unique_ratio", self.unique / self.candidates.max(1.0));
        // Generation cost of the block's populations, re-run client-side.
        let t = Instant::now();
        for &s in &self.seeds_in_block {
            std::hint::black_box(svport::generate(APP, CANDIDATES, s));
        }
        x.insert("svport.gen_ms", t.elapsed().as_secs_f64() * 1e3 / per);
        // DP cells per request: base-vs-candidate T_sem and T_src pairs of
        // the built candidates of the block's first request.
        if let (Some(&seed), Ok(db)) =
            (self.seeds_in_block.first(), silvervale::index_app(APP, false))
        {
            if let Some(base) = db.entry("Serial") {
                let bm = Measured::of(&base.artifacts);
                let mut cells = 0u64;
                for cand in svport::generate(APP, CANDIDATES, seed) {
                    let Ok(u) = svport::compile_candidate(APP, &cand) else { continue };
                    let cm = Measured::new(&u);
                    for metric in [Metric::TSem, Metric::TSrc] {
                        let ta = svmetrics::tree_of(&bm, metric, Variant::PLAIN);
                        let tb = svmetrics::tree_of(&cm, metric, Variant::PLAIN);
                        if ta.structural_hash() != tb.structural_hash() {
                            cells += svdist::ted::dp_cell_estimate(
                                ta.tree(),
                                tb.tree(),
                                svdist::Strategy::Auto,
                            );
                        }
                    }
                }
                x.insert("svdist.dp_cells", cells as f64 * per);
            }
        }
    }

    fn teardown(&mut self) {
        self.client = None;
        if let Some(mut s) = self.server.take() {
            s.stop();
        }
    }
}
