//! The analysis service: `svserve` handlers over the silvervale pipeline.
//!
//! [`AnalysisService`] owns a registry of in-memory codebase DBs and the
//! content-addressed TED cache, and registers one handler per analysis
//! verb on an `svserve` [`Router`].  The expensive requests (`compare`,
//! `matrix`, `cluster`) route every pairwise distance through the cache,
//! so a session like index → compare → cluster → compare computes each
//! TED pair exactly once — and answers identically to the one-shot
//! pipeline functions, bit for bit.

use crate::db::CodebaseDb;
use crate::pipeline::{self, measured_entries};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use svcluster::{cluster_rows, Heatmap};
use svcorpus::App;
use svdist::DistanceMatrix;
use svmetrics::{divergence_row, Measured, Metric, Variant};
use svperf::phi_all;
use svport::{GateClass, Leaderboard, ScoredCandidate};
use svserve::cached::{self, FpArtifact};
use svserve::svjson::Json;
use svserve::{ArtifactStore, FanoutCtx, JobCtx, Router, ServeError, TedCache};

/// Default cache budget: 64 MiB of pair entries.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Memoised gate outcome of one candidate source (keyed by its source
/// fingerprint).  Divergences are deliberately *not* memoised here: TBMD
/// always routes through the TED cache, so repeated evaluations surface
/// as observable `cache.hits` while still skipping the expensive
/// compile + interpret work.
struct CandOutcome {
    class: GateClass,
    detail: String,
    /// Comparison artefacts of the built candidate (`None` on build-fail).
    sem: Option<FpArtifact>,
    src: Option<FpArtifact>,
}

/// Shared state behind every handler.
pub struct AnalysisService {
    dbs: Mutex<HashMap<String, Arc<CodebaseDb>>>,
    cache: TedCache,
    /// Content-addressed svpack store: every indexed tree lands here once
    /// and is served back verbatim by the `tree` blob handler (mmap'd,
    /// zero-copy decode on cold reads).
    store: Arc<ArtifactStore>,
    /// Pairwise distances actually computed (cache misses that ran a TED
    /// or line edit distance) — the "no recompute" observable.
    pair_computes: AtomicU64,
    /// Gate outcomes per candidate source fingerprint.
    cand_memo: Mutex<HashMap<u64, Arc<CandOutcome>>>,
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
            pair_computes: AtomicU64::new(0),
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

    /// Total pairwise distances computed (as opposed to cache-served).
    pub fn pair_computes(&self) -> u64 {
        self.pair_computes.load(Ordering::Relaxed)
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

    /// The divergence matrix of `db`, with every cacheable pair routed
    /// through the TED cache.  Cells are bit-identical to
    /// `pipeline::model_matrix` (same integers, same f64 expressions).
    fn cached_matrix(&self, db: &CodebaseDb, metric: Metric, v: Variant) -> DistanceMatrix {
        if !cached::supports(metric) {
            return pipeline::model_matrix(db, metric, v);
        }
        let measured = measured_entries(db, v);
        let arts: Vec<FpArtifact> = measured.iter().map(|m| FpArtifact::of(m, metric, v)).collect();
        // LPT: start the biggest DPs first; fingerprint-equal pairs cost 0.
        DistanceMatrix::from_fn_par_lpt(
            db.labels(),
            |i, j| cached::pair_cost(&arts[i], &arts[j]),
            |i, j| {
                let pair = cached::pair_cached(
                    &self.cache,
                    metric,
                    v,
                    &arts[i],
                    &arts[j],
                    &self.pair_computes,
                );
                cached::matrix_cell(metric, &pair)
            },
        )
    }

    /// Divergence of every model from `base`, cache-served where possible.
    /// Values are bit-identical to `pipeline::divergence_from`.  Cacheable
    /// rows stay on the serving thread: a warm row is one cache lookup per
    /// pair, and whether a cold row gains from the svpar pool has not been
    /// measured (DESIGN §22).  The cheap metrics run
    /// `svmetrics::divergence_row`, which keeps them inline.
    fn cached_divergence_from(
        &self,
        db: &CodebaseDb,
        metric: Metric,
        v: Variant,
        base: &str,
    ) -> Result<Vec<(String, f64)>, ServeError> {
        let measured = measured_entries(db, v);
        let base_idx =
            db.labels().iter().position(|l| l == base).ok_or_else(|| {
                ServeError::not_found(format!("no unit '{base}' in the database"))
            })?;
        let out = if cached::supports(metric) {
            let arts: Vec<FpArtifact> =
                measured.iter().map(|m| FpArtifact::of(m, metric, v)).collect();
            db.labels()
                .iter()
                .enumerate()
                .map(|(i, label)| {
                    let d = cached::divergence_cached_arts(
                        &self.cache,
                        metric,
                        v,
                        &arts[base_idx],
                        &arts[i],
                        &self.pair_computes,
                    );
                    (label.clone(), d.normalized())
                })
                .collect()
        } else {
            let row = divergence_row(metric, v, &measured[base_idx], &measured);
            db.labels().into_iter().zip(row).map(|(label, d)| (label, d.normalized())).collect()
        };
        Ok(out)
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
        router.register_fanout("evaluate", move |p, ctx| svc.handle_evaluate(p, ctx));
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
        let mut divs = self.cached_divergence_from(&db, metric, v, &base)?;
        divs.sort_by(|a, b| a.1.total_cmp(&b.1));
        Ok(Json::obj([
            ("metric", Json::str(metric.name())),
            ("variant", Json::str(v.label())),
            ("from", Json::str(base)),
            (
                "divergences",
                Json::Array(
                    divs.into_iter()
                        .map(|(label, d)| {
                            Json::obj([("label", Json::Str(label)), ("divergence", Json::Num(d))])
                        })
                        .collect(),
                ),
            ),
        ]))
    }

    fn handle_matrix(&self, params: &Json) -> Result<Json, ServeError> {
        let db = self.db_param(params)?;
        let metric = metric_param(params)?;
        let v = variant_param(params);
        if bool_param(params, "approx") {
            let (m, stats) = pipeline::model_matrix_approx(&db, metric, v);
            return Ok(with_approx_stats(matrix_json(metric, v, &m), &stats));
        }
        let m = self.cached_matrix(&db, metric, v);
        Ok(matrix_json(metric, v, &m))
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
            (self.cached_matrix(&db, metric, v), None)
        };
        let dendro = cluster_rows(&matrix);
        let out = Json::obj([
            ("metric", Json::str(metric.name())),
            ("variant", Json::str(v.label())),
            ("dendrogram", Json::str(dendro.render())),
            ("heatmap", Json::str(Heatmap::ordered_by(&matrix, &dendro).render())),
        ]);
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

    /// Gate one candidate source, serving repeats from the memo; returns
    /// the outcome with the built candidate's comparison artefacts.
    fn gate_memoised(
        &self,
        app: App,
        model: svcorpus::Model,
        fp: u64,
        source: &str,
        baseline: &svport::BaselineRun,
    ) -> Arc<CandOutcome> {
        if let Some(hit) = lock_cand_memo(&self.cand_memo).get(&fp).cloned() {
            self.cand_memo_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.cand_builds.fetch_add(1, Ordering::Relaxed);
        let cand = svport::Candidate {
            id: 0,
            model,
            label: String::new(),
            source: source.to_string(),
            edits: Vec::new(),
        };
        let g = svport::gate(app, &cand, baseline);
        let (sem, src) = match g.unit.as_ref() {
            Some(u) => {
                let m = Measured::new(u);
                (
                    Some(FpArtifact::of(&m, Metric::TSem, Variant::PLAIN)),
                    Some(FpArtifact::of(&m, Metric::TSrc, Variant::PLAIN)),
                )
            }
            None => (None, None),
        };
        let outcome = Arc::new(CandOutcome { class: g.class, detail: g.detail, sem, src });
        lock_cand_memo(&self.cand_memo).insert(fp, Arc::clone(&outcome));
        outcome
    }

    /// The `evaluate` fan-out handler: generate a seeded population of
    /// port candidates, gate + score each as its own pool job, and return
    /// the ranked leaderboard.
    ///
    /// Sub-jobs are keyed by candidate *content* (source fingerprint), so
    /// racing duplicate candidates collapse through the pool's in-flight
    /// dedup, and each sub-job routes its TBMD through the TED cache —
    /// warm re-evaluations skip the compile + interpret work via the
    /// candidate memo while their divergences surface as cache hits.
    fn handle_evaluate(
        self: &Arc<Self>,
        params: &Json,
        ctx: &FanoutCtx<'_>,
    ) -> Result<Json, ServeError> {
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
        let base_m = Measured::of(&base_entry.artifacts);
        let bases = Arc::new((
            FpArtifact::of(&base_m, Metric::TSem, Variant::PLAIN),
            FpArtifact::of(&base_m, Metric::TSrc, Variant::PLAIN),
        ));

        let baseline = self.app_baseline(app)?;
        let cands = svport::generate(app, n, seed);
        let fps: Vec<u64> = cands.iter().map(|c| svport::source_fingerprint(&c.source)).collect();
        // One pool job per candidate, keyed by content: concurrent
        // duplicates dedup in flight, sequential ones hit the memo/cache.
        let results = ctx.run_all(cands.iter().zip(&fps).map(|(c, &fp)| {
            let key = format!("evaluate.cand {} {fp:016x}", app.name());
            let svc = Arc::clone(self);
            let bases = Arc::clone(&bases);
            let baseline = Arc::clone(&baseline);
            let source = c.source.clone();
            let model = c.model;
            let job = move |_: &JobCtx| {
                let out = svc.gate_memoised(app, model, fp, &source, &baseline);
                let (tbmd_sem, tbmd_src) = match (&out.sem, &out.src) {
                    (Some(sem), Some(src)) => (
                        Json::Num(
                            cached::divergence_cached_arts(
                                &svc.cache,
                                Metric::TSem,
                                Variant::PLAIN,
                                &bases.0,
                                sem,
                                &svc.pair_computes,
                            )
                            .normalized(),
                        ),
                        Json::Num(
                            cached::divergence_cached_arts(
                                &svc.cache,
                                Metric::TSrc,
                                Variant::PLAIN,
                                &bases.1,
                                src,
                                &svc.pair_computes,
                            )
                            .normalized(),
                        ),
                    ),
                    _ => (Json::Null, Json::Null),
                };
                Ok(Json::obj([
                    ("class", Json::str(out.class.name())),
                    ("detail", Json::str(out.detail.clone())),
                    ("tbmd_sem", tbmd_sem),
                    ("tbmd_src", tbmd_src),
                    ("phi", Json::Num(phi_all(app, model))),
                ]))
            };
            (key, job)
        }))?;

        let mut rows: Vec<ScoredCandidate> = Vec::with_capacity(cands.len());
        for ((c, fp), r) in cands.iter().zip(fps).zip(&results) {
            let class = r
                .get("class")
                .and_then(Json::as_str)
                .and_then(GateClass::parse)
                .ok_or_else(|| ServeError::internal("bad candidate class"))?;
            let tbmd_sem = r.get("tbmd_sem").and_then(Json::as_f64);
            let tbmd_src = r.get("tbmd_src").and_then(Json::as_f64);
            let phi = r.get("phi").and_then(Json::as_f64).unwrap_or(0.0);
            rows.push(ScoredCandidate {
                id: c.id,
                label: c.label.clone(),
                model: c.model,
                class,
                detail: r.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
                fingerprint: fp,
                edits: c.edits.clone(),
                tbmd_sem,
                tbmd_src,
                phi,
                score: svport::score_value(class, phi, tbmd_sem),
            });
        }
        rows.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        let board = Leaderboard { app, seed, rows };

        let counts = Json::Object(
            board
                .class_counts()
                .iter()
                .map(|(c, k)| (c.name().to_string(), Json::Num(*k as f64)))
                .collect(),
        );
        let rows_json = Json::Array(
            board
                .rows
                .iter()
                .map(|r| {
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
                })
                .collect(),
        );
        let mut reply = vec![
            ("app".to_string(), Json::str(app.name())),
            ("seed".to_string(), Json::Num(seed as f64)),
            ("candidates".to_string(), Json::Num(board.rows.len() as f64)),
            ("counts".to_string(), counts),
            ("rows".to_string(), rows_json),
            ("text".to_string(), Json::str(board.render())),
            ("chart".to_string(), Json::str(board.nav_chart().render())),
        ];
        if bool_param(params, "csv") {
            reply.push(("csv".to_string(), Json::str(board.to_csv())));
        }
        Ok(Json::Object(reply.into_iter().collect()))
    }
}

/// Poison-tolerant locks for the evaluate fan-out state (same rationale
/// as [`lock_dbs`]).
fn lock_cand_memo(
    m: &Mutex<HashMap<u64, Arc<CandOutcome>>>,
) -> MutexGuard<'_, HashMap<u64, Arc<CandOutcome>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_baseline_memo(
    m: &Mutex<HashMap<String, Arc<svport::BaselineRun>>>,
) -> MutexGuard<'_, HashMap<String, Arc<svport::BaselineRun>>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
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

    #[test]
    fn cached_matrix_identical_to_pipeline() {
        let svc = service_with(App::BabelStream);
        let db = svc.db("babelstream").unwrap();
        for metric in [Metric::TSem, Metric::Source, Metric::Sloc] {
            let direct = pipeline::model_matrix(&db, metric, Variant::PLAIN);
            let served = svc.cached_matrix(&db, metric, Variant::PLAIN);
            assert_eq!(served, direct, "{metric:?}");
            // And again, now fully cache-resident.
            let warm = svc.cached_matrix(&db, metric, Variant::PLAIN);
            assert_eq!(warm, direct, "{metric:?} warm");
        }
        // 45 unique pairs per cacheable metric, each computed exactly once.
        assert_eq!(svc.pair_computes(), 2 * 45);
    }

    #[test]
    fn cached_compare_identical_to_pipeline() {
        let svc = service_with(App::BabelStream);
        let db = svc.db("babelstream").unwrap();
        for metric in [Metric::TSem, Metric::TSrc, Metric::Lloc, Metric::CodeDivergence] {
            let direct = pipeline::divergence_from(&db, metric, Variant::PLAIN, "Serial").unwrap();
            let mut served =
                svc.cached_divergence_from(&db, metric, Variant::PLAIN, "Serial").unwrap();
            served.sort_by(|a, b| a.0.cmp(&b.0));
            let mut direct = direct;
            direct.sort_by(|a, b| a.0.cmp(&b.0));
            assert_eq!(served, direct, "{metric:?}");
        }
    }

    #[test]
    fn compare_after_matrix_is_all_hits() {
        let svc = service_with(App::BabelStream);
        let db = svc.db("babelstream").unwrap();
        svc.cached_matrix(&db, Metric::TSem, Variant::PLAIN);
        let computed = svc.pair_computes();
        // Every from-Serial pair is a subset of the matrix pairs.
        svc.cached_divergence_from(&db, Metric::TSem, Variant::PLAIN, "Serial").unwrap();
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
        let db = svc.db("minibude").unwrap();
        let err = svc
            .cached_divergence_from(&db, Metric::TSem, Variant::PLAIN, "NoSuchModel")
            .unwrap_err();
        assert_eq!(err.code, "not_found");
    }
}
