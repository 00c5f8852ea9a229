//! The analysis service: `svserve` handlers over the silvervale pipeline.
//!
//! [`AnalysisService`] owns a registry of in-memory codebase DBs and the
//! content-addressed TED cache, and registers one handler per analysis
//! verb on an `svserve` [`Router`].  The expensive requests run the
//! library's own code with the cache as their pair memo — `compare`,
//! `matrix` and `cluster` `svmetrics`' row and matrix, `evaluate` the one
//! port scorer ([`pipeline::score_ports`]) — so a session like
//! index → compare → cluster → compare computes each TED pair exactly
//! once — and answers identically to the one-shot pipeline functions,
//! bit for bit.

use crate::db::CodebaseDb;
use crate::pipeline::{self, measured_entries, GatedPort};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use svcluster::{cluster_rows, Heatmap};
use svcorpus::App;
use svdist::DistanceMatrix;
use svmetrics::{divergence_matrix, divergence_row, Measured, Metric, Variant};
use svport::Leaderboard;
use svserve::svjson::Json;
use svserve::{ArtifactStore, Router, ServeError, TedCache};

/// Default cache budget: 64 MiB of pair entries.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Shared state behind every handler.
pub struct AnalysisService {
    dbs: Mutex<HashMap<String, Arc<CodebaseDb>>>,
    cache: TedCache,
    /// Content-addressed svpack store: every indexed tree lands here once
    /// and is served back verbatim by the `tree` blob handler (mmap'd,
    /// zero-copy decode on cold reads).
    store: Arc<ArtifactStore>,
    /// Gate outcomes per candidate source fingerprint.  TBMD is not kept
    /// here: it always routes through the TED cache, so repeated
    /// evaluations surface as observable `cache.hits`.
    cand_memo: Mutex<HashMap<u64, Arc<GatedPort>>>,
    /// Serial baseline runs per app (the gate's comparison oracle — the
    /// corpus is deterministic, so one run per app serves every request).
    baseline_memo: Mutex<HashMap<String, Arc<svport::BaselineRun>>>,
    /// Candidate gate requests answered from the memo.
    cand_memo_hits: AtomicU64,
    /// Candidate sources actually compiled + interpreted.
    cand_builds: AtomicU64,
}

/// Lock the DB registry tolerating poisoning: handler panics are isolated
/// by the job pool, and a panic must not wedge the registry for every
/// later request (the map is always left in a consistent state — each
/// critical section is a single insert or read).
fn lock_dbs(
    m: &Mutex<HashMap<String, Arc<CodebaseDb>>>,
) -> MutexGuard<'_, HashMap<String, Arc<CodebaseDb>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Parse a metric name as the CLI spells it.
pub fn parse_metric(name: &str) -> Option<Metric> {
    match name.to_ascii_lowercase().as_str() {
        "sloc" => Some(Metric::Sloc),
        "lloc" => Some(Metric::Lloc),
        "source" => Some(Metric::Source),
        "t_src" | "tsrc" => Some(Metric::TSrc),
        "t_sem" | "tsem" => Some(Metric::TSem),
        "t_ir" | "tir" => Some(Metric::TIr),
        "codediv" | "code_divergence" => Some(Metric::CodeDivergence),
        _ => None,
    }
}

/// Parse a corpus app name as the CLI spells it.
pub fn parse_app(name: &str) -> Option<App> {
    App::ALL.iter().copied().find(|a| a.name() == name)
}

fn str_param(params: &Json, key: &str) -> Result<String, ServeError> {
    params
        .get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ServeError::bad_params(format!("missing string param '{key}'")))
}

fn bool_param(params: &Json, key: &str) -> bool {
    params.get(key).and_then(Json::as_bool).unwrap_or(false)
}

fn metric_param(params: &Json) -> Result<Metric, ServeError> {
    let name = params.get("metric").and_then(Json::as_str).unwrap_or("t_sem");
    parse_metric(name).ok_or_else(|| ServeError::bad_params(format!("unknown metric '{name}'")))
}

fn variant_param(params: &Json) -> Variant {
    Variant {
        preprocessor: bool_param(params, "pp"),
        inlining: bool_param(params, "inline"),
        coverage: bool_param(params, "cov"),
    }
}

impl AnalysisService {
    pub fn new(cache_bytes: usize) -> Arc<AnalysisService> {
        AnalysisService::with_store(cache_bytes, None)
    }

    /// Like [`new`](AnalysisService::new) but with an explicit artifact
    /// store (e.g. a persistent file passed via `--store`); `None` opens
    /// an unlinked temp store.
    pub fn with_store(
        cache_bytes: usize,
        store: Option<Arc<ArtifactStore>>,
    ) -> Arc<AnalysisService> {
        let store = store.unwrap_or_else(|| {
            Arc::new(ArtifactStore::temp().expect("create temp artifact store"))
        });
        Arc::new(AnalysisService {
            dbs: Mutex::new(HashMap::new()),
            cache: TedCache::new(cache_bytes),
            store,
            cand_memo: Mutex::new(HashMap::new()),
            baseline_memo: Mutex::new(HashMap::new()),
            cand_memo_hits: AtomicU64::new(0),
            cand_builds: AtomicU64::new(0),
        })
    }

    /// The service's content-addressed artifact store.
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// Register a DB under `name` (replacing any previous one).  Every
    /// entry's comparison trees are appended to the artifact store
    /// (content-addressed, so re-indexing the same app is free) where the
    /// binary listener's `tree` handler serves them verbatim.
    pub fn insert_db(&self, name: impl Into<String>, db: CodebaseDb) {
        for e in &db.entries {
            // Best-effort: a full disk must not fail the index request —
            // the store is a serving cache, not the source of truth.
            let _ = self.store.append_tree(&e.artifacts.t_sem);
            let _ = self.store.append_tree(&e.artifacts.t_src);
        }
        lock_dbs(&self.dbs).insert(name.into(), Arc::new(db));
    }

    /// Total pairwise distances computed (as opposed to cache-served) —
    /// the "no recompute" observable.  Every pair the service computes is
    /// a cache miss, and every miss is computed.
    pub fn pair_computes(&self) -> u64 {
        self.cache.stats().misses
    }

    fn db(&self, name: &str) -> Result<Arc<CodebaseDb>, ServeError> {
        lock_dbs(&self.dbs)
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::not_found(format!("no database '{name}' is loaded")))
    }

    fn db_param(&self, params: &Json) -> Result<Arc<CodebaseDb>, ServeError> {
        self.db(&str_param(params, "db")?)
    }

    /// The exact divergence matrix of `db`, its tree and `Source` cells
    /// served from the TED cache.
    fn matrix(&self, db: &CodebaseDb, metric: Metric, v: Variant) -> DistanceMatrix {
        divergence_matrix(metric, v, &db.labels(), &measured_entries(db, v), Some(&self.cache))
    }

    /// Register every analysis verb plus the app-stats section on `router`.
    pub fn register_on(self: &Arc<Self>, router: &mut Router) {
        let svc = Arc::clone(self);
        router.register("index", move |p| svc.handle_index(p));
        let svc = Arc::clone(self);
        router.register("load", move |p| svc.handle_load(p));
        let svc = Arc::clone(self);
        router.register("dbs", move |_| {
            let mut names: Vec<String> = lock_dbs(&svc.dbs).keys().cloned().collect();
            names.sort();
            Ok(Json::Array(names.into_iter().map(Json::Str).collect()))
        });
        let svc = Arc::clone(self);
        router.register("inventory", move |p| {
            let db = svc.db_param(p)?;
            Ok(Json::obj([("text", Json::str(pipeline::inventory(&db)))]))
        });
        let svc = Arc::clone(self);
        router.register("compare", move |p| svc.handle_compare(p));
        let svc = Arc::clone(self);
        router.register("matrix", move |p| svc.handle_matrix(p));
        let svc = Arc::clone(self);
        router.register("cluster", move |p| svc.handle_cluster(p));
        let svc = Arc::clone(self);
        router.register("chart", move |p| svc.handle_chart(p));
        let svc = Arc::clone(self);
        router.register("evaluate", move |p| svc.handle_evaluate(p));
        let svc = Arc::clone(self);
        router.register_blob("tree", move |p| svc.handle_tree(p));
        let svc = Arc::clone(self);
        router.stats_provider(move || svc.stats_json());
        let svc = Arc::clone(self);
        router.metrics_provider(move || svc.metrics_snapshot());
    }

    /// The `tree` blob handler: look a unit's comparison tree up in the
    /// artifact store and return its svpack bytes verbatim (plus JSON
    /// metadata).  A store lookup, not a computation — it runs inline on
    /// the serving thread.
    fn handle_tree(&self, params: &Json) -> Result<(Json, Arc<Vec<u8>>), ServeError> {
        let db_name = str_param(params, "db")?;
        let db = self.db(&db_name)?;
        let label = str_param(params, "label")?;
        let metric = metric_param(params)?;
        if !matches!(metric, Metric::TSrc | Metric::TSem | Metric::TIr) {
            return Err(ServeError::bad_params(format!(
                "'{}' is not a tree metric",
                metric.name()
            )));
        }
        let v = variant_param(params);
        if v.coverage {
            // Coverage-masked trees are materialised per request; the
            // store only holds content-addressed artefact trees.
            return Err(ServeError::bad_params("coverage-masked trees are not stored"));
        }
        let entry = db
            .entry(&label)
            .ok_or_else(|| ServeError::not_found(format!("no unit '{label}' in the database")))?;
        let m = Measured::of(&entry.artifacts);
        let tree = svmetrics::tree_of(&m, metric, v);
        // Indexing appended the plain t_sem/t_src trees; variant trees
        // (pp/inline) and t_ir are appended on first request.
        let hash = self
            .store
            .append_tree(&tree)
            .map_err(|e| ServeError::internal(format!("artifact store append: {e}")))?;
        let bytes = self
            .store
            .raw(hash)
            .ok_or_else(|| ServeError::internal("artifact store lost a record"))?;
        let meta = Json::obj([
            ("db", Json::str(db_name)),
            ("label", Json::str(label)),
            ("metric", Json::str(metric.name())),
            ("variant", Json::str(v.label())),
            ("fp", Json::str(format!("{hash:016x}"))),
            ("bytes", Json::Num(bytes.len() as f64)),
            ("nodes", Json::Num(tree.size() as f64)),
        ]);
        Ok((meta, bytes))
    }

    /// The application section of the `metrics` response: the cache's
    /// registry (hits/misses/evictions/sizes) plus the artifact store's
    /// counters plus service-level totals.
    pub fn metrics_snapshot(&self) -> svtrace::MetricsSnapshot {
        let mut snap = self.cache.registry().snapshot();
        snap.merge(self.store.registry().snapshot());
        snap.push_counter("service.pair_computes", self.pair_computes());
        snap.push_counter("service.databases", lock_dbs(&self.dbs).len() as u64);
        snap.push_counter("service.cand_memo_hits", self.cand_memo_hits.load(Ordering::Relaxed));
        snap.push_counter("service.cand_builds", self.cand_builds.load(Ordering::Relaxed));
        snap
    }

    /// The `app` section of the `stats` response.
    pub fn stats_json(&self) -> Json {
        let c = self.cache.stats();
        let mut names: Vec<String> = lock_dbs(&self.dbs).keys().cloned().collect();
        names.sort();
        Json::obj([
            (
                "cache",
                Json::obj([
                    ("hits", Json::Num(c.hits as f64)),
                    ("misses", Json::Num(c.misses as f64)),
                    ("insertions", Json::Num(c.insertions as f64)),
                    ("evictions", Json::Num(c.evictions as f64)),
                    ("entries", Json::Num(c.entries as f64)),
                    ("bytes", Json::Num(c.bytes as f64)),
                    ("byte_budget", Json::Num(c.byte_budget as f64)),
                ]),
            ),
            ("pair_computes", Json::Num(self.pair_computes() as f64)),
            ("databases", Json::Array(names.into_iter().map(Json::Str).collect())),
        ])
    }

    fn handle_index(&self, params: &Json) -> Result<Json, ServeError> {
        let with_coverage = bool_param(params, "coverage");
        let (default_name, db) = if bool_param(params, "fortran") {
            let db = pipeline::index_fortran().map_err(|e| ServeError::internal(e.to_string()))?;
            ("babelstream-fortran".to_string(), db)
        } else {
            let app_name = str_param(params, "app")?;
            let app = parse_app(&app_name)
                .ok_or_else(|| ServeError::bad_params(format!("unknown app '{app_name}'")))?;
            let db = pipeline::index_app(app, with_coverage)
                .map_err(|e| ServeError::internal(e.to_string()))?;
            (app_name, db)
        };
        let name =
            params.get("name").and_then(Json::as_str).map(str::to_string).unwrap_or(default_name);
        let units = db.entries.len();
        self.insert_db(name.clone(), db);
        Ok(Json::obj([("db", Json::str(name)), ("units", Json::Num(units as f64))]))
    }

    fn handle_load(&self, params: &Json) -> Result<Json, ServeError> {
        let path = str_param(params, "path")?;
        let bytes = std::fs::read(&path)
            .map_err(|e| ServeError::not_found(format!("cannot read {path}: {e}")))?;
        let db = CodebaseDb::from_bytes(&bytes)
            .map_err(|e| ServeError::bad_params(format!("cannot parse {path}: {e}")))?;
        let stem = path.rsplit('/').next().unwrap_or(&path).trim_end_matches(".svdb").to_string();
        let name = params.get("name").and_then(Json::as_str).map(str::to_string).unwrap_or(stem);
        let units = db.entries.len();
        self.insert_db(name.clone(), db);
        Ok(Json::obj([("db", Json::str(name)), ("units", Json::Num(units as f64))]))
    }

    fn handle_compare(&self, params: &Json) -> Result<Json, ServeError> {
        let db = self.db_param(params)?;
        let metric = metric_param(params)?;
        let v = variant_param(params);
        let base = params
            .get("from")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(|| db.labels().first().cloned().unwrap_or_default());
        let labels = db.labels();
        let base_idx = labels
            .iter()
            .position(|l| *l == base)
            .ok_or_else(|| ServeError::not_found(format!("no unit '{base}' in the database")))?;
        let measured = measured_entries(&db, v);
        let row = divergence_row(metric, v, &measured[base_idx], &measured, Some(&self.cache));
        let divs: Vec<(String, f64)> =
            labels.into_iter().zip(row).map(|(label, d)| (label, d.normalized())).collect();
        Ok(compare_json(metric, v, base, divs))
    }

    fn handle_matrix(&self, params: &Json) -> Result<Json, ServeError> {
        let db = self.db_param(params)?;
        let metric = metric_param(params)?;
        let v = variant_param(params);
        if bool_param(params, "approx") {
            let (m, stats) = pipeline::model_matrix_approx(&db, metric, v);
            return Ok(with_approx_stats(matrix_json(metric, v, &m), &stats));
        }
        Ok(matrix_json(metric, v, &self.matrix(&db, metric, v)))
    }

    fn handle_cluster(&self, params: &Json) -> Result<Json, ServeError> {
        let db = self.db_param(params)?;
        let metric = metric_param(params)?;
        let v = variant_param(params);
        let approx = bool_param(params, "approx");
        let (matrix, stats) = if approx {
            let (m, s) = pipeline::model_matrix_approx(&db, metric, v);
            (m, Some(s))
        } else {
            (self.matrix(&db, metric, v), None)
        };
        let out = cluster_json(metric, v, &matrix);
        Ok(match stats {
            Some(s) => with_approx_stats(out, &s),
            None => out,
        })
    }

    fn handle_chart(&self, params: &Json) -> Result<Json, ServeError> {
        let db = self.db_param(params)?;
        let app_name = str_param(params, "app")?;
        let app = parse_app(&app_name)
            .ok_or_else(|| ServeError::bad_params(format!("unknown app '{app_name}'")))?;
        let chart = pipeline::navigation_chart(app, &db)
            .map_err(|e| ServeError::internal(e.to_string()))?;
        Ok(Json::obj([("text", Json::str(chart.render()))]))
    }

    /// The serial baseline run of `app`, computed once and memoised (the
    /// corpus is deterministic, so its checksum never changes).
    fn app_baseline(&self, app: App) -> Result<Arc<svport::BaselineRun>, ServeError> {
        if let Some(hit) = lock_baseline_memo(&self.baseline_memo).get(app.name()).cloned() {
            return Ok(hit);
        }
        let b = Arc::new(
            svport::baseline_run(app)
                .map_err(|e| ServeError::internal(format!("baseline run failed: {e}")))?,
        );
        lock_baseline_memo(&self.baseline_memo).insert(app.name().to_string(), Arc::clone(&b));
        Ok(b)
    }

    /// Gate one candidate source, serving repeats from the memo.  The memo
    /// keeps the outcome with the built candidate's fingerprinted
    /// artefacts, never its `Unit`.
    fn gate_memoised(
        &self,
        app: App,
        cand: &svport::Candidate,
        fp: u64,
        baseline: &svport::BaselineRun,
    ) -> Arc<GatedPort> {
        if let Some(hit) = lock_cand_memo(&self.cand_memo).get(&fp).cloned() {
            self.cand_memo_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.cand_builds.fetch_add(1, Ordering::Relaxed);
        let port = Arc::new(GatedPort::new(svport::gate(app, cand, baseline), Some(&self.cache)));
        lock_cand_memo(&self.cand_memo).insert(fp, Arc::clone(&port));
        port
    }

    /// The `evaluate` handler: generate a seeded population of port
    /// candidates and rank it with [`pipeline::score_ports`] — the memoised
    /// gate skips the compile + interpret work of every source seen before,
    /// and TBMD is served from the TED cache.
    fn handle_evaluate(&self, params: &Json) -> Result<Json, ServeError> {
        let db = self.db_param(params)?;
        let app_name = str_param(params, "app")?;
        let app = parse_app(&app_name)
            .ok_or_else(|| ServeError::bad_params(format!("unknown app '{app_name}'")))?;
        let n = params.get("candidates").and_then(Json::as_f64).unwrap_or(100.0) as usize;
        if n == 0 || n > 10_000 {
            return Err(ServeError::bad_params("candidates must be in 1..=10000"));
        }
        let seed = params.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let base_label = params
            .get("from")
            .and_then(Json::as_str)
            .unwrap_or(svcorpus::Model::Serial.name())
            .to_string();
        let base_entry = db.entry(&base_label).ok_or_else(|| {
            ServeError::not_found(format!("no unit '{base_label}' in the database"))
        })?;
        let baseline = self.app_baseline(app)?;
        let cands = svport::generate(app, n, seed);
        let gate = |c: &svport::Candidate, fp| self.gate_memoised(app, c, fp, &baseline);
        let base = Measured::of(&base_entry.artifacts);
        let board = pipeline::score_ports(app, seed, &cands, &base, gate, Some(&self.cache));
        Ok(evaluate_json(&board, bool_param(params, "csv")))
    }
}

/// Poison-tolerant locks for the evaluate memos (same rationale as
/// [`lock_dbs`]).
fn lock_cand_memo(
    m: &Mutex<HashMap<u64, Arc<GatedPort>>>,
) -> MutexGuard<'_, HashMap<u64, Arc<GatedPort>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_baseline_memo(
    m: &Mutex<HashMap<String, Arc<svport::BaselineRun>>>,
) -> MutexGuard<'_, HashMap<String, Arc<svport::BaselineRun>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The `evaluate` reply: the leaderboard's rows, class counts and
/// renderings (plus the CSV when asked).
fn evaluate_json(board: &Leaderboard, csv: bool) -> Json {
    let counts = Json::Object(
        board
            .class_counts()
            .iter()
            .map(|(c, k)| (c.name().to_string(), Json::Num(*k as f64)))
            .collect(),
    );
    let rows = board.rows.iter().map(|r| {
        Json::obj([
            ("label", Json::str(r.label.clone())),
            ("model", Json::str(r.model.name())),
            ("class", Json::str(r.class.name())),
            ("score", Json::Num(r.score)),
            ("phi", Json::Num(r.phi)),
            ("tbmd_sem", r.tbmd_sem.map(Json::Num).unwrap_or(Json::Null)),
            ("tbmd_src", r.tbmd_src.map(Json::Num).unwrap_or(Json::Null)),
            ("fingerprint", Json::str(format!("{:016x}", r.fingerprint))),
            ("edits", Json::str(r.edits.join("; "))),
        ])
    });
    let mut reply = vec![
        ("app", Json::str(board.app.name())),
        ("seed", Json::Num(board.seed as f64)),
        ("candidates", Json::Num(board.rows.len() as f64)),
        ("counts", counts),
        ("rows", Json::Array(rows.collect())),
        ("text", Json::str(board.render())),
        ("chart", Json::str(board.nav_chart().render())),
    ];
    if csv {
        reply.push(("csv", Json::str(board.to_csv())));
    }
    Json::Object(reply.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// The `compare` reply: divergences from `base`, least divergent first.
fn compare_json(metric: Metric, v: Variant, base: String, mut divs: Vec<(String, f64)>) -> Json {
    divs.sort_by(|a, b| a.1.total_cmp(&b.1));
    let divs = divs
        .into_iter()
        .map(|(label, d)| Json::obj([("label", Json::Str(label)), ("divergence", Json::Num(d))]));
    Json::obj([
        ("metric", Json::str(metric.name())),
        ("variant", Json::str(v.label())),
        ("from", Json::str(base)),
        ("divergences", Json::Array(divs.collect())),
    ])
}

/// The `cluster` reply: the dendrogram of `matrix` and its ordered heatmap.
fn cluster_json(metric: Metric, v: Variant, matrix: &DistanceMatrix) -> Json {
    let dendro = cluster_rows(matrix);
    Json::obj([
        ("metric", Json::str(metric.name())),
        ("variant", Json::str(v.label())),
        ("dendrogram", Json::str(dendro.render())),
        ("heatmap", Json::str(Heatmap::ordered_by(matrix, &dendro).render())),
    ])
}

/// Serialise a matrix for the wire: numbers survive the JSON round trip
/// exactly (shortest-roundtrip f64 formatting on both ends).
fn matrix_json(metric: Metric, v: Variant, m: &DistanceMatrix) -> Json {
    let rows: Vec<Json> = (0..m.len())
        .map(|i| Json::Array(m.row(i).iter().map(|&d| Json::Num(d)).collect()))
        .collect();
    Json::obj([
        ("metric", Json::str(metric.name())),
        ("variant", Json::str(v.label())),
        ("labels", Json::Array(m.labels().iter().map(|l| Json::str(l.clone())).collect())),
        ("rows", Json::Array(rows)),
    ])
}

/// Append the approximate-engine counters under an `"approx"` key.  The
/// approx path deliberately bypasses the TED cache: its thresholded solves
/// can report cutoff sentinels rather than exact pair distances, and those
/// must never be cached where exact requests would read them back.
fn with_approx_stats(mut json: Json, stats: &svmetrics::ApproxStats) -> Json {
    if let Json::Object(map) = &mut json {
        map.insert(
            "approx".to_string(),
            Json::obj([
                ("pairs", Json::Num(stats.pairs as f64)),
                ("bucketed", Json::Num(stats.bucketed as f64)),
                ("lb_pruned", Json::Num(stats.lb_pruned as f64)),
                ("cutoff", Json::Num(stats.cutoff as f64)),
                ("exact_solves", Json::Num(stats.exact_solves as f64)),
                ("frontier", Json::Num(stats.frontier)),
            ]),
        );
    }
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use svcorpus::App;

    fn service_with(app: App) -> Arc<AnalysisService> {
        let svc = AnalysisService::new(1 << 20);
        let db = pipeline::index_app(app, false).unwrap();
        svc.insert_db(app.name(), db);
        svc
    }

    /// Every metric under every variant the service accepts.
    fn all_cases() -> Vec<(Metric, Variant)> {
        let variants = [Variant::PLAIN, Variant::PP, Variant::INLINED, Variant::COVERAGE];
        Metric::ALL.iter().flat_map(|&m| variants.map(|v| (m, v))).collect()
    }

    /// Request params naming `metric`/`v` the way clients spell them.
    fn params(db: &str, metric: Metric, v: Variant) -> Json {
        let name = match metric {
            Metric::CodeDivergence => "codediv".to_string(),
            m => m.name().to_ascii_lowercase(),
        };
        Json::obj([
            ("db", Json::str(db)),
            ("metric", Json::str(name)),
            ("pp", Json::Bool(v.preprocessor)),
            ("inline", Json::Bool(v.inlining)),
            ("cov", Json::Bool(v.coverage)),
        ])
    }

    fn with_from(p: Json, from: &str) -> Json {
        let Json::Object(mut map) = p else { unreachable!() };
        map.insert("from".to_string(), Json::str(from));
        Json::Object(map)
    }

    /// The served `matrix` and `cluster` replies of `cases`, cold and then
    /// warm, are byte-identical to the pipeline's uncached matrix.
    fn assert_matrix_replies_match(svc: &AnalysisService, db: &str, cases: &[(Metric, Variant)]) {
        let codebase = svc.db(db).unwrap();
        for &(metric, v) in cases {
            let direct = pipeline::model_matrix(&codebase, metric, v);
            let want_matrix = matrix_json(metric, v, &direct).to_string_compact();
            let want_cluster = cluster_json(metric, v, &direct).to_string_compact();
            for pass in ["cold", "warm"] {
                let p = params(db, metric, v);
                let matrix = svc.handle_matrix(&p).unwrap().to_string_compact();
                assert_eq!(matrix, want_matrix, "matrix {metric:?} {v:?} {pass}");
                let cluster = svc.handle_cluster(&p).unwrap().to_string_compact();
                assert_eq!(cluster, want_cluster, "cluster {metric:?} {v:?} {pass}");
            }
        }
    }

    /// The served `compare` replies of `cases`, cold and then warm, are
    /// byte-identical to the pipeline's uncached row.
    fn assert_compare_replies_match(svc: &AnalysisService, db: &str, cases: &[(Metric, Variant)]) {
        let codebase = svc.db(db).unwrap();
        for &(metric, v) in cases {
            let direct = pipeline::divergence_from(&codebase, metric, v, "Serial").unwrap();
            let want = compare_json(metric, v, "Serial".into(), direct).to_string_compact();
            for pass in ["cold", "warm"] {
                let served = svc.handle_compare(&with_from(params(db, metric, v), "Serial"));
                assert_eq!(served.unwrap().to_string_compact(), want, "{metric:?} {v:?} {pass}");
            }
        }
    }

    #[test]
    fn cached_matrix_identical_to_pipeline() {
        let svc = service_with(App::BabelStream);
        let plain = [Metric::TSem, Metric::Source, Metric::Sloc].map(|m| (m, Variant::PLAIN));
        assert_matrix_replies_match(&svc, "babelstream", &plain);
        // 45 unique pairs per cacheable metric, each computed exactly once.
        assert_eq!(svc.pair_computes(), 2 * 45);

        // Every metric and variant, on a coverage-indexed DB.  Both SYCL
        // ports carry the SYCL header after preprocessing (~32k-node
        // T_src+pp trees); one of them is left out, because the TED of
        // that one pair needs gigabytes of DP table on any path.
        let mut db = pipeline::index_app(App::BabelStream, true).unwrap();
        db.entries.retain(|e| e.label != svcorpus::Model::SyclAcc.name());
        let svc = AnalysisService::new(1 << 22);
        svc.insert_db("cov", db);
        assert_matrix_replies_match(&svc, "cov", &all_cases());
    }

    #[test]
    fn cached_compare_identical_to_pipeline() {
        let svc = service_with(App::BabelStream);
        let plain = [Metric::TSem, Metric::TSrc, Metric::Lloc, Metric::CodeDivergence]
            .map(|m| (m, Variant::PLAIN));
        assert_compare_replies_match(&svc, "babelstream", &plain);

        // Every metric and variant, on a coverage-indexed DB.
        let svc = AnalysisService::new(1 << 22);
        svc.insert_db("cov", pipeline::index_app(App::BabelStream, true).unwrap());
        assert_compare_replies_match(&svc, "cov", &all_cases());
        // A warm pass recomputes nothing.
        let computed = svc.pair_computes();
        assert_compare_replies_match(&svc, "cov", &all_cases());
        assert_eq!(svc.pair_computes(), computed);
    }

    #[test]
    fn compare_after_matrix_is_all_hits() {
        let svc = service_with(App::BabelStream);
        let p = params("babelstream", Metric::TSem, Variant::PLAIN);
        svc.handle_matrix(&p).unwrap();
        let computed = svc.pair_computes();
        // Every from-Serial pair is a subset of the matrix pairs.
        svc.handle_compare(&with_from(p, "Serial")).unwrap();
        assert_eq!(svc.pair_computes(), computed, "compare served entirely from cache");
    }

    #[test]
    fn matrix_approx_flag_is_opt_in_and_reports_stats() {
        let svc = service_with(App::BabelStream);
        let exact = svc
            .handle_matrix(&Json::obj([
                ("db", Json::str("babelstream")),
                ("metric", Json::str("t_sem")),
            ]))
            .unwrap();
        // Default path is byte-identical to today: no "approx" key at all.
        assert!(exact.get("approx").is_none());
        let approx = svc
            .handle_matrix(&Json::obj([
                ("db", Json::str("babelstream")),
                ("metric", Json::str("t_sem")),
                ("approx", Json::Bool(true)),
            ]))
            .unwrap();
        let stats = approx.get("approx").expect("approx response carries stats");
        assert_eq!(stats.get("pairs").and_then(Json::as_f64), Some(45.0));
        assert_eq!(approx.get("labels"), exact.get("labels"));
        // Every approx cell is an admissible bound: ≤ the exact cell.
        let rows = |j: &Json| match j.get("rows") {
            Some(Json::Array(r)) => r.clone(),
            _ => panic!("matrix response has rows"),
        };
        for (ra, re) in rows(&approx).iter().zip(rows(&exact).iter()) {
            if let (Json::Array(ra), Json::Array(re)) = (ra, re) {
                for (a, e) in ra.iter().zip(re.iter()) {
                    let (a, e) = (a.as_f64().unwrap(), e.as_f64().unwrap());
                    assert!(a <= e + 1e-12, "approx {a} > exact {e}");
                }
            }
        }
        // Cluster grows the same flag and echoes the same counters.
        let clustered = svc
            .handle_cluster(&Json::obj([
                ("db", Json::str("babelstream")),
                ("metric", Json::str("t_sem")),
                ("approx", Json::Bool(true)),
            ]))
            .unwrap();
        assert_eq!(clustered.get("approx").and_then(|s| s.get("pairs")), stats.get("pairs"));
    }

    #[test]
    fn unknown_db_and_label_are_not_found() {
        let svc = AnalysisService::new(1 << 16);
        assert_eq!(svc.db("nope").unwrap_err().code, "not_found");
        let svc = service_with(App::MiniBude);
        let p = with_from(params("minibude", Metric::TSem, Variant::PLAIN), "NoSuchModel");
        assert_eq!(svc.handle_compare(&p).unwrap_err().code, "not_found");
    }
}
