//! Observability proofs for the shared artifact layer: the memoised
//! derived views (structural hashes, TED decompositions) are computed at
//! most once per tree, and warm service paths cost zero recomputation.
//!
//! The assertions are **exact** counts against the process-global
//! `svtree::structural_hash_count()` / `svdist::decompose_count()`
//! counters, so everything lives in a single `#[test]` in its own
//! integration binary — no other test in this process touches trees.

use svcorpus::{unit, App, Model};
use svmetrics::{
    divergence, divergence_matrix, pair_divergence, Artifacts, Measured, Metric, PairArt, Variant,
};
use svserve::TedCache;

#[test]
fn artifact_reuse_counters() {
    let models = [Model::Serial, Model::OpenMp, Model::Cuda, Model::Kokkos];
    let units: Vec<_> = models.iter().map(|&m| unit(App::BabelStream, m).unwrap()).collect();
    let arts: Vec<Artifacts> = units.iter().map(Artifacts::from_unit).collect();
    let measured: Vec<Measured<'_>> = arts.iter().map(Measured::of).collect();
    let labels: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    let n = measured.len() as u64;

    // -- Structural hashes are memoised per stored tree ------------------
    // Fingerprinting an artefact walks its tree once; re-fingerprinting
    // the same stored artefact (the per-request path in svserve) must not
    // walk it again.
    let cache = TedCache::new(1 << 20);
    let h0 = svtree::structural_hash_count();
    let fa = PairArt::of(&measured[0], Metric::TSem, Variant::PLAIN, Some(&cache));
    let h1 = svtree::structural_hash_count();
    assert_eq!(h1 - h0, 1, "cold fingerprint hashes the tree exactly once");
    let fa_again = PairArt::of(&measured[0], Metric::TSem, Variant::PLAIN, Some(&cache));
    assert_eq!(fa.fp(), fa_again.fp());
    assert_eq!(
        svtree::structural_hash_count(),
        h1,
        "warm fingerprint of a stored artefact performs zero hash computations"
    );

    // -- Decompositions are memoised across the O(n²) pair loop ----------
    // A divergence matrix over n models builds at most 2 decompositions
    // per tree (left and right), not 2 per pair.
    let d0 = svdist::decompose_count();
    let m1 = divergence_matrix(Metric::TSem, Variant::PLAIN, &labels, &measured, None);
    let d1 = svdist::decompose_count();
    assert!(d1 - d0 <= 2 * n, "matrix build did {} decompositions for {n} trees", d1 - d0);
    assert!(d1 > d0, "cold matrix build must decompose something");

    // Rebuilding the matrix from the same stored artefacts is free: every
    // decomposition (and every hash) is served from the memo.
    let h2 = svtree::structural_hash_count();
    let m2 = divergence_matrix(Metric::TSem, Variant::PLAIN, &labels, &measured, None);
    assert_eq!(m1, m2);
    assert_eq!(svdist::decompose_count(), d1, "matrix rebuild recomputed a decomposition");
    assert_eq!(svtree::structural_hash_count(), h2, "matrix rebuild recomputed a hash");

    // -- Measured reuse across metrics/variants ---------------------------
    // Each metric/variant selects a different stored tree; once each has
    // been warmed, repeating any combination recomputes nothing.
    let combos = [
        (Metric::TSrc, Variant::PLAIN),
        (Metric::TSrc, Variant::PP),
        (Metric::TSem, Variant::PLAIN),
        (Metric::TSem, Variant::INLINED),
        (Metric::TIr, Variant::PLAIN),
    ];
    for &(metric, v) in &combos {
        divergence(metric, v, &measured[0], &measured[1]);
    }
    let (h3, d3) = (svtree::structural_hash_count(), svdist::decompose_count());
    let mut repeated = Vec::new();
    for &(metric, v) in &combos {
        repeated.push(divergence(metric, v, &measured[0], &measured[1]));
    }
    assert_eq!(
        (svtree::structural_hash_count(), svdist::decompose_count()),
        (h3, d3),
        "repeated divergences across variants recomputed a derived view"
    );
    for (&(metric, v), d) in combos.iter().zip(&repeated) {
        assert_eq!(*d, divergence(metric, v, &measured[0], &measured[1]), "{metric:?} {v:?}");
    }

    // -- Warm TedCache requests cost nothing ------------------------------
    // Cold request: fingerprints are memoised (zero hash walks — the trees
    // were hashed above), one TED compute.  Warm request: cache hit, zero
    // computes, zero hashes, zero decompositions.
    let fb = PairArt::of(&measured[1], Metric::TSem, Variant::PLAIN, Some(&cache));
    let cold = pair_divergence(Metric::TSem, Variant::PLAIN, &fa, &fb, Some(&cache));
    assert_eq!(cache.stats().misses, 1);
    let (h4, d4) = (svtree::structural_hash_count(), svdist::decompose_count());
    for _ in 0..3 {
        // The full per-request path: re-extract artefacts, then look up.
        let ra = PairArt::of(&measured[0], Metric::TSem, Variant::PLAIN, Some(&cache));
        let rb = PairArt::of(&measured[1], Metric::TSem, Variant::PLAIN, Some(&cache));
        let warm = pair_divergence(Metric::TSem, Variant::PLAIN, &ra, &rb, Some(&cache));
        assert_eq!(warm, cold);
    }
    assert_eq!(cache.stats().misses, 1, "warm requests recomputed");
    assert_eq!(
        (svtree::structural_hash_count(), svdist::decompose_count()),
        (h4, d4),
        "warm cache requests must perform zero hash or decomposition work"
    );
}
