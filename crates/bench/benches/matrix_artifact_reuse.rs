//! Matrix-build cost under the shared artifact layer (Fig. 8 workload).
//!
//! The Fig. 8 CloverLeaf heatmap needs the full 10-model `T_sem`
//! divergence matrix — the §VII scaling bottleneck.  This bench measures
//! four matrix-build modes over the same stored artefacts and writes the
//! medians to `BENCH_matrix.json` at the repository root:
//!
//! * `cold_decompose_per_pair` — the pre-artifact-layer baseline: every
//!   pair rebuilds both LR-keyroot decompositions before its TED.
//! * `cold_decompose_once` — fresh `SharedTree`s each build: within one
//!   matrix the decompositions are built once per tree (O(n), not O(n²))
//!   and reused across its pairs.
//! * `warm_artifact_reuse` — the Codebase-DB steady state: stored
//!   artefacts keep their memoised views, so rebuilding the matrix skips
//!   all decomposition work (the TED dynamic programs still run).
//! * `warm_cached_service` — the `svserve` steady state: memoised
//!   structural hashes key a content-addressed `TedCache`, so a repeated
//!   matrix build is pure cache lookups — no hashing, no decomposition,
//!   no DP.
//!
//! All four modes must produce bit-identical matrices; the headline
//! speedup compares warm service builds against the per-pair baseline.

use bench::save_figure;
use silvervale::index_app;
use std::sync::atomic::AtomicU64;
use std::time::Instant;
use svcorpus::App;
use svdist::{ted, CostModel, DistanceMatrix, SharedTree, Strategy};
use svmetrics::{Measured, Metric, Variant};
use svserve::cached::{matrix_cell, pair_cached, FpArtifact};
use svserve::TedCache;
use svtree::Tree;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

fn cell(d: u64, wa: u64, wb: u64) -> f64 {
    d as f64 / wa.max(wb).max(1) as f64
}

fn main() {
    const COLD_ITERS: usize = 5;
    const WARM_ITERS: usize = 9;

    let db = index_app(App::CloverLeaf, false).expect("index cloverleaf");
    let labels = db.labels();
    let n = labels.len();
    assert!(n >= 6, "Fig. 8 workload needs at least 6 models, got {n}");
    let measured: Vec<Measured<'_>> =
        db.entries.iter().map(|e| Measured::of(&e.artifacts)).collect();
    // Detached plain trees: the decompose-per-pair baseline must not touch
    // any memoised state.
    let trees: Vec<Tree> = db.entries.iter().map(|e| e.artifacts.t_sem.tree().clone()).collect();

    // -- cold, decompose per pair, PR 4 kernel (the old old hot path) -----
    // Measured live (not hard-coded from the old JSON) so the ≥2× kernel
    // gate is robust to the machine the bench runs on.
    let mut t_baseline_kernel = Vec::new();
    let mut reference: Option<DistanceMatrix> = None;
    for _ in 0..COLD_ITERS {
        let (ms, m) = time(|| {
            DistanceMatrix::from_fn(labels.clone(), |i, j| {
                let d = svdist::ted::ted_with_mode(
                    &trees[i],
                    &trees[j],
                    CostModel::UNIT,
                    Strategy::Auto,
                    svdist::ted::KernelMode::Baseline,
                );
                cell(d, trees[i].size() as u64, trees[j].size() as u64)
            })
        });
        t_baseline_kernel.push(ms);
        reference.get_or_insert(m);
    }
    let reference = reference.unwrap();

    // -- cold, decompose per pair (current kernel) -------------------------
    // Fresh shared wrappers per pair: nothing memoised survives the pair.
    let mut t_per_pair = Vec::new();
    for _ in 0..COLD_ITERS {
        let (ms, m) = time(|| {
            DistanceMatrix::from_fn(labels.clone(), |i, j| {
                let fresh = |t: &Tree| SharedTree::new(t.clone());
                let d = ted(&fresh(&trees[i]), &fresh(&trees[j]), CostModel::UNIT);
                cell(d, trees[i].size() as u64, trees[j].size() as u64)
            })
        });
        t_per_pair.push(ms);
        assert_eq!(m, reference, "kernel overhaul changed a matrix cell");
    }

    // -- cold, decompose once per tree ------------------------------------
    let mut t_once = Vec::new();
    for _ in 0..COLD_ITERS {
        let shared: Vec<SharedTree> = trees.iter().map(|t| SharedTree::new(t.clone())).collect();
        let (ms, m) = time(|| {
            DistanceMatrix::from_fn(labels.clone(), |i, j| {
                let d = ted(&shared[i], &shared[j], CostModel::UNIT);
                cell(d, shared[i].size() as u64, shared[j].size() as u64)
            })
        });
        t_once.push(ms);
        assert_eq!(m, reference, "decompose-once matrix must be bit-identical");
    }

    // -- warm, stored artefacts (Codebase-DB steady state) -----------------
    let warmup = svmetrics::divergence_matrix_seq(Metric::TSem, Variant::PLAIN, &labels, &measured);
    assert_eq!(warmup, reference);
    let mut t_warm = Vec::new();
    for _ in 0..WARM_ITERS {
        let (ms, m) = time(|| {
            svmetrics::divergence_matrix_seq(Metric::TSem, Variant::PLAIN, &labels, &measured)
        });
        t_warm.push(ms);
        assert_eq!(m, reference);
    }

    // -- warm, cached service (svserve steady state) -----------------------
    let cache = TedCache::new(1 << 22);
    let computes = AtomicU64::new(0);
    let build_cached = |computes: &AtomicU64| {
        let arts: Vec<FpArtifact> =
            measured.iter().map(|m| FpArtifact::of(m, Metric::TSem, Variant::PLAIN)).collect();
        DistanceMatrix::from_fn(labels.clone(), |i, j| {
            let p = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &arts[i], &arts[j], computes);
            matrix_cell(Metric::TSem, &p)
        })
    };
    assert_eq!(build_cached(&computes), reference, "cached matrix must be bit-identical");
    let cold_computes = computes.load(std::sync::atomic::Ordering::Relaxed);
    let mut t_cached = Vec::new();
    for _ in 0..WARM_ITERS {
        let (ms, m) = time(|| build_cached(&computes));
        t_cached.push(ms);
        assert_eq!(m, reference);
    }
    assert_eq!(
        computes.load(std::sync::atomic::Ordering::Relaxed),
        cold_computes,
        "warm service builds must not recompute any TED"
    );

    let med_baseline = median(t_baseline_kernel);
    let med_per_pair = median(t_per_pair);
    let med_once = median(t_once);
    let med_warm = median(t_warm);
    let med_cached = median(t_cached);
    let speedup_kernel = med_baseline / med_per_pair;
    let speedup_once = med_per_pair / med_once;
    let speedup_warm = med_per_pair / med_warm;
    let speedup_cached = med_per_pair / med_cached;
    assert!(
        speedup_kernel >= 2.0,
        "cold matrix builds must be ≥2x the PR 4 kernel, got {speedup_kernel:.2}x \
         ({med_baseline:.0} ms -> {med_per_pair:.0} ms)"
    );
    assert!(
        speedup_cached >= 2.0,
        "steady-state matrix builds must be ≥2x the per-pair baseline, got {speedup_cached:.2}x"
    );

    let json = format!(
        "{{\n  \"workload\": \"CloverLeaf T_sem divergence matrix (Fig. 8)\",\n  \
         \"models\": {n},\n  \"pairs\": {pairs},\n  \
         \"cold_pr4_kernel_ms\": {med_baseline:.3},\n  \
         \"cold_decompose_per_pair_ms\": {med_per_pair:.3},\n  \
         \"cold_decompose_once_ms\": {med_once:.3},\n  \
         \"warm_artifact_reuse_ms\": {med_warm:.3},\n  \
         \"warm_cached_service_ms\": {med_cached:.3},\n  \
         \"speedup_cold_kernel_overhaul\": {speedup_kernel:.3},\n  \
         \"speedup_cold_decompose_once\": {speedup_once:.3},\n  \
         \"speedup_warm_artifact_reuse\": {speedup_warm:.3},\n  \
         \"speedup_warm_cached_service\": {speedup_cached:.3},\n  \
         \"note\": \"cold builds are DP-dominated: the kernel overhaul (scratch arenas, u32 \
         cells, branch-split loops — see BENCH_ted_kernel.json for the per-optimisation \
         ablation) carries the >=2x cold gate; warm builds over stored artefacts then skip \
         decompositions, and the content-addressed TedCache makes repeated service builds \
         pure lookups\"\n}}\n",
        pairs = n * (n - 1) / 2,
    );

    // Committed artefact at the repository root (target/figures is
    // gitignored); also mirrored there for the figure-collection tooling.
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    std::fs::write(format!("{repo_root}/BENCH_matrix.json"), &json).expect("write BENCH_matrix");
    save_figure("BENCH_matrix.json", &json);
}
