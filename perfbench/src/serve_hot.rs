//! `serve_hot`: cache reads through the served analysis path.
//!
//! Two closed-loop clients, one on the negotiated binary wire and one on
//! the JSON wire, send seeded draws from a mix of cacheable reads:
//! `compare` (most requests), `matrix`, and `cluster` (which rebuilds its
//! dendrogram on every request and is the slowest class, so the tail
//! percentile falls inside it).  Set-up indexes the four apps and sends
//! every request of the mix once, so the timed window only reads the
//! cache.  `tree` blobs are left out: their cost differs sharply between
//! the two wires.

use crate::harness::{Amount, Block, Config, Extras, Op, Report, Workload};
use crate::served::{call, Server, Snapshot};
use crate::stats::{median, percentile, Digest, SplitMix};
use silvervale::serve::{parse_app, parse_metric};
use silvervale::svjson::Json;
use std::collections::HashMap;
use std::time::Instant;
use svcorpus::{App, Model};
use svmetrics::Variant;
use svserve::{Client, Wire};

const METRICS: [&str; 1] = ["t_sem"];

/// Class shares of the mix, in percent.
const COMPARE_PCT: u64 = 75;
const MATRIX_PCT: u64 = 10;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Compare,
    Matrix,
    Cluster,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Compare => "compare",
            Class::Matrix => "matrix",
            Class::Cluster => "cluster",
        }
    }
}

/// What one connection's loop returns: (op, request index, reply bytes)
/// per request, and failure messages.
type ConnResult = (Vec<(Op, usize, usize)>, Vec<String>);

/// One distinct request of the mix.
struct Req {
    class: Class,
    params: Json,
    key: String,
}

fn mix() -> Vec<Req> {
    let mut out = Vec::new();
    for app in App::ALL {
        for metric in METRICS {
            let base = [("db", Json::str(app.name())), ("metric", Json::str(metric))];
            for model in Model::ALL {
                let [a, b] = base.clone();
                out.push((Class::Compare, Json::obj([a, b, ("from", Json::str(model.name()))])));
            }
            out.push((Class::Matrix, Json::obj(base.clone())));
            out.push((Class::Cluster, Json::obj(base)));
        }
    }
    out.into_iter()
        .map(|(class, params)| {
            let key = format!("{} {}", class.name(), params.to_string_compact());
            Req { class, params, key }
        })
        .collect()
}

/// Seeded request stream of one connection: a class by share, then a
/// uniform request of that class.
#[derive(Clone)]
struct Stream(SplitMix);

impl Stream {
    fn new(seed: u64, conn: usize) -> Stream {
        Stream(SplitMix::new(seed ^ (conn as u64 + 1).wrapping_mul(0xc0ffee)))
    }

    fn next(&mut self, by_class: &[Vec<usize>; 3]) -> usize {
        let roll = self.0.below(100);
        let c = if roll < COMPARE_PCT {
            0
        } else if roll < COMPARE_PCT + MATRIX_PCT {
            1
        } else {
            2
        };
        by_class[c][self.0.below(by_class[c].len() as u64) as usize]
    }
}

pub struct ServeHot {
    reqs: Vec<Req>,
    by_class: [Vec<usize>; 3],
    server: Option<Server>,
    clients: Vec<Client>,
    /// Canonical text of the first reply to each request (set-up).
    first: Vec<String>,
    streams: [Stream; 2],
    digest: Digest,
    // Last block's layer figures.
    reply_bytes: Vec<f64>,
    /// Server metrics over the last block.
    delta: Snapshot,
    cluster_reqs: Vec<usize>,
}

impl ServeHot {
    pub fn new(cfg: &Config) -> ServeHot {
        let reqs = mix();
        let mut by_class: [Vec<usize>; 3] = Default::default();
        for (i, r) in reqs.iter().enumerate() {
            by_class[r.class as usize].push(i);
        }
        let streams = [0, 1].map(|conn| Stream::new(cfg.seed, conn));
        // Digest of the first 4096 draws of each connection's stream.
        let mut digest = Digest::new();
        for s in &streams {
            let mut s = s.clone();
            for _ in 0..4096 {
                digest.add(reqs[s.next(&by_class)].key.as_bytes());
            }
        }
        ServeHot {
            reqs,
            by_class,
            server: None,
            clients: Vec::new(),
            first: Vec::new(),
            streams,
            digest,
            reply_bytes: Vec::new(),
            delta: Snapshot::default(),
            cluster_reqs: Vec::new(),
        }
    }
}

impl Workload for ServeHot {
    const TAIL_P: f64 = 99.0;
    const UNIT: &'static str = "request";

    fn round(&self) -> usize {
        1000
    }

    fn setup(&mut self, _cfg: &Config) -> Result<(), String> {
        self.teardown();
        let server = Server::start()?;
        let bin = Client::connect_negotiated(server.addr()).map_err(|e| e.to_string())?;
        let json = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        if bin.wire() != Wire::Bin {
            return Err("binary wire negotiation fell back to JSON".into());
        }
        self.clients = vec![bin, json];
        for app in App::ALL {
            call(&mut self.clients[0], "index", Json::obj([("app", Json::str(app.name()))]))?;
        }
        // Warm-up: every request of the mix once, on both wires.  The
        // matrices go first: they fill the cache with every pair in
        // parallel, where a cold `compare` would solve its row serially.
        let mut first = vec![String::new(); self.reqs.len()];
        let mut order: Vec<usize> = (0..self.reqs.len()).collect();
        order.sort_by_key(|&i| self.reqs[i].class != Class::Matrix);
        for i in order {
            let r = &self.reqs[i];
            let reply = call(&mut self.clients[0], r.class.name(), r.params.clone())?;
            first[i] = reply.to_string_compact();
        }
        for r in &self.reqs {
            call(&mut self.clients[1], r.class.name(), r.params.clone())?;
        }
        self.first = first;
        self.server = Some(server);
        Ok(())
    }

    fn block(&mut self, amount: Amount, rep: &mut Report) -> Block {
        let mut block = Block::default();
        let mut clients = std::mem::take(&mut self.clients);
        if clients.len() != 2 {
            return block;
        }
        let before = Snapshot::take(&mut clients[0]).unwrap_or_default();
        let t0 = Instant::now();
        let reqs = &self.reqs;
        let first = &self.first;
        let by_class = &self.by_class;
        let results: Vec<ConnResult> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(self.streams.iter_mut())
                .map(|(c, stream)| {
                    s.spawn(move || {
                        let mut ops = Vec::new();
                        let mut fails = Vec::new();
                        while !amount.done(ops.len(), ops.len(), 2) {
                            let i = stream.next(by_class);
                            let r = &reqs[i];
                            let start_s = t0.elapsed().as_secs_f64();
                            let t = Instant::now();
                            let reply = c.call(r.class.name(), r.params.clone());
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let len = match reply {
                                Ok(j) => {
                                    let text = j.to_string_compact();
                                    if text != first[i] {
                                        fails.push(format!("{}: reply differs from first", r.key));
                                    }
                                    text.len()
                                }
                                Err(e) => {
                                    fails.push(format!("{}: {e:?}", r.key));
                                    0
                                }
                            };
                            ops.push((Op { start_s, ms }, i, len));
                        }
                        (ops, fails)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        block.wall_s = t0.elapsed().as_secs_f64();
        let after = Snapshot::take(&mut clients[0]).unwrap_or_default();
        self.delta = Snapshot::default();
        self.delta.accumulate(&before, &after);
        self.clients = clients;

        self.reply_bytes.clear();
        self.cluster_reqs.clear();
        let mut by_class: HashMap<&str, Vec<f64>> = HashMap::new();
        for (ops, fails) in results {
            for (op, i, len) in ops {
                rep.attempted += 1;
                by_class.entry(self.reqs[i].class.name()).or_default().push(op.ms);
                if self.reqs[i].class == Class::Cluster {
                    self.cluster_reqs.push(i);
                }
                self.reply_bytes.push(len as f64);
                block.ops.push(op);
                block.units += 1;
            }
            for f in fails {
                rep.fail(f);
            }
        }
        let mut classes: Vec<_> = by_class.into_iter().collect();
        classes.sort_by(|a, b| a.0.cmp(b.0));
        for (name, v) in classes {
            rep.note(format!(
                "  class {name}: n={} p50={:.3} ms p99={:.3} ms",
                v.len(),
                median(&v),
                percentile(&v, 99.0).0
            ));
        }
        rep.note(format!("inputs digest (request sequences): {}", self.digest.hex()));
        block
    }

    fn check(&mut self, rep: &mut Report) {
        // Served matrices equal the in-process pipeline bit for bit.
        for app in App::ALL {
            let db = match silvervale::index_app(app, false) {
                Ok(db) => db,
                Err(e) => {
                    rep.check(false, || format!("in-process index {}: {e}", app.name()));
                    continue;
                }
            };
            for metric in METRICS {
                let Some(r) = self.reqs.iter().position(|r| {
                    r.class == Class::Matrix
                        && r.params.get("db").and_then(Json::as_str) == Some(app.name())
                        && r.params.get("metric").and_then(Json::as_str) == Some(metric)
                }) else {
                    continue;
                };
                let m = silvervale::model_matrix(
                    &db,
                    parse_metric(metric).expect("known metric"),
                    Variant::PLAIN,
                );
                let served = silvervale::svjson::parse(&self.first[r]).ok();
                let rows =
                    served.as_ref().and_then(|j| j.get("rows")?.as_array().map(<[Json]>::to_vec));
                let same = rows.is_some_and(|rows| {
                    rows.len() == m.len()
                        && rows.iter().enumerate().all(|(i, row)| {
                            row.as_array().is_some_and(|row| {
                                row.len() == m.len()
                                    && row.iter().enumerate().all(|(j, v)| {
                                        v.as_f64().map(f64::to_bits) == Some(m.get(i, j).to_bits())
                                    })
                            })
                        })
                });
                rep.check(same, || {
                    format!("served matrix {} {metric} != model_matrix", app.name())
                });
            }
        }
    }

    fn extras(&mut self, _attr: &crate::attrib::Attribution, block: &Block, x: &mut Extras) {
        let per = block.units.max(1) as f64;
        self.delta.layer_metrics(&self.reply_bytes, block.wall_s, x);
        x.insert("svmetrics.pairs", self.delta.counter("service.pair_computes") / per);
        // Probe: the clustering step of the block's cluster requests,
        // re-run in-process on the matrices they cluster.
        let mut matrices: HashMap<usize, Option<svdist::DistanceMatrix>> = HashMap::new();
        let mut cluster_ms = 0.0;
        for &i in &self.cluster_reqs {
            let m = matrices.entry(i).or_insert_with(|| {
                let p = &self.reqs[i].params;
                let app = p.get("db").and_then(Json::as_str).and_then(parse_app)?;
                let metric = p.get("metric").and_then(Json::as_str).and_then(parse_metric)?;
                let db = silvervale::index_app(app, false).ok()?;
                Some(silvervale::model_matrix(&db, metric, Variant::PLAIN))
            });
            if let Some(m) = m {
                let t = Instant::now();
                std::hint::black_box(svcluster::cluster_rows(m));
                cluster_ms += t.elapsed().as_secs_f64() * 1e3;
            }
        }
        x.insert("svcluster.cluster_ms", cluster_ms / per);
    }

    fn teardown(&mut self) {
        self.clients.clear();
        if let Some(mut s) = self.server.take() {
            s.stop();
        }
    }
}
