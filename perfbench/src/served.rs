//! In-process analysis server shared by the two served workloads, and
//! readings of its `metrics` registry.

use crate::harness::Extras;
use crate::stats::median;
use silvervale::serve::DEFAULT_CACHE_BYTES;
use silvervale::svjson::Json;
use silvervale::AnalysisService;
use std::collections::BTreeMap;
use svserve::{Client, Router, ServeConfig, ServeHandle};

/// A running server with the default analysis service: default cache
/// budget, one worker per core (the CLI's defaults).
pub struct Server {
    handle: Option<ServeHandle>,
}

impl Server {
    pub fn start() -> Result<Server, String> {
        let service = AnalysisService::new(DEFAULT_CACHE_BYTES);
        let mut router = Router::new();
        service.register_on(&mut router);
        let config = ServeConfig { workers: svpar::num_threads(), ..ServeConfig::default() };
        let handle = svserve::serve_with("127.0.0.1:0", router, config)
            .map_err(|e| format!("start server: {e}"))?;
        Ok(Server { handle: Some(handle) })
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.handle.as_ref().expect("server running").addr()
    }

    /// Drain and join the server (clients should be dropped first).
    pub fn stop(&mut self) {
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Call and turn an error reply into a message.
pub fn call(c: &mut Client, method: &str, params: Json) -> Result<Json, String> {
    c.call(method, params).map_err(|e| format!("{method}: {e:?}"))
}

/// Counters and histograms of the server's merged `metrics` registry.
#[derive(Default, Clone)]
pub struct Snapshot {
    counters: BTreeMap<String, f64>,
    /// name → (bucket upper bounds, counts); the overflow bound is +inf.
    hists: BTreeMap<String, Vec<(f64, f64)>>,
}

impl Snapshot {
    pub fn take(c: &mut Client) -> Result<Snapshot, String> {
        let m = call(c, "metrics", Json::Null)?;
        let mut s = Snapshot::default();
        // The reply nests the registry sections; walk every object and
        // pick up `counters` and `histograms` maps wherever they appear.
        collect(&m, &mut s);
        Ok(s)
    }

    /// Add the change from `before` to `after` (two readings of one
    /// server) to this accumulator.
    pub fn accumulate(&mut self, before: &Snapshot, after: &Snapshot) {
        for (name, v) in &after.counters {
            let d = v - before.counters.get(name).copied().unwrap_or(0.0);
            *self.counters.entry(name.clone()).or_default() += d;
        }
        for (name, buckets) in &after.hists {
            let prev = before.hists.get(name);
            let acc = self.hists.entry(name.clone()).or_default();
            if acc.is_empty() {
                acc.extend(buckets.iter().map(|&(le, _)| (le, 0.0)));
            }
            for (i, &(_, n)) in buckets.iter().enumerate() {
                let d = n - prev.and_then(|p| p.get(i)).map_or(0.0, |p| p.1);
                if let Some(slot) = acc.get_mut(i) {
                    slot.1 += d;
                }
            }
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Quantile `q` of an accumulated histogram: the upper bound of the
    /// first bucket reaching the rank, as `HistogramSnapshot::quantile`
    /// computes it.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        let Some(buckets) = self.hists.get(name) else { return 0.0 };
        let total: f64 = buckets.iter().map(|b| b.1).sum();
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut seen = 0.0;
        for (le, n) in buckets {
            seen += n;
            if seen >= rank {
                return *le;
            }
        }
        f64::INFINITY
    }

    /// The server-side per-layer metrics of a block, from an
    /// accumulated delta.
    pub fn layer_metrics(&self, reply_bytes: &[f64], wall_s: f64, x: &mut Extras) {
        x.insert("svserve.queue_wait_us_p50", self.quantile("pool.queue_wait_us", 0.5));
        x.insert("svserve.queue_wait_us_p99", self.quantile("pool.queue_wait_us", 0.99));
        x.insert("svserve.exec_us_p50", self.quantile("pool.exec_us", 0.5));
        x.insert("svserve.exec_us_p99", self.quantile("pool.exec_us", 0.99));
        x.insert("svserve.reply_bytes", median(reply_bytes));
        let (hits, misses) = (self.counter("cache.hits"), self.counter("cache.misses"));
        x.insert("svserve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        x.insert(
            "svserve.dedup_ratio",
            self.counter("pool.deduped") / self.counter("pool.submitted").max(1.0),
        );
        let workers = svpar::num_threads() as f64;
        x.insert(
            "svserve.pool_busy_ratio",
            self.counter("pool.busy_nanos") / 1e9 / (wall_s * workers),
        );
    }
}

fn collect(j: &Json, s: &mut Snapshot) {
    let Json::Object(map) = j else { return };
    for (k, v) in map {
        match (k.as_str(), v) {
            ("counters", Json::Object(cs)) => {
                for (name, n) in cs {
                    if let Some(n) = n.as_f64() {
                        *s.counters.entry(name.clone()).or_default() += n;
                    }
                }
            }
            ("histograms", Json::Object(hs)) => {
                for (name, h) in hs {
                    let buckets = h
                        .get("buckets")
                        .and_then(Json::as_array)
                        .map(|bs| {
                            bs.iter()
                                .filter_map(|b| {
                                    let b = b.as_array()?;
                                    let le = b.first()?.as_f64().unwrap_or(f64::INFINITY);
                                    Some((le, b.get(1)?.as_f64()?))
                                })
                                .collect()
                        })
                        .unwrap_or_default();
                    s.hists.insert(name.clone(), buckets);
                }
            }
            _ => collect(v, s),
        }
    }
}
