//! Cached pairwise divergence: the bridge between [`crate::cache`] and the
//! `svmetrics` comparison kernels.
//!
//! Only the metrics whose pair cost is super-linear go through the cache —
//! the tree metrics (`T_src`/`T_sem`/`T_ir`, one TED per pair) and the
//! line-based `source` metric (O(NP) edit distance).  `SLOC`/`LLOC`/
//! `code_divergence` pairs are cheaper to recompute than to fingerprint,
//! so [`supports`] excludes them and callers fall back to the direct path.
//!
//! The approximate-first matrix engine (`svmetrics::divergence_matrix_approx`,
//! exposed as the opt-in `approx` request flag in the silvervale service)
//! bypasses this cache entirely: its threshold kernel can report cutoff
//! sentinels instead of exact pair distances, and those must never be
//! stored where an exact request would read them back.

use crate::cache::{fnv1a, CacheKey, CachedPair, TedCache};
use svdist::{edit_distance_onp, ted, CostModel, SharedTree};
use svmetrics::{lines_of, tree_of, Divergence, Measured, Metric, Variant};

/// Discriminant of the (only) TED cost model in use: unit costs.
pub const COST_UNIT: u8 = 0;

/// Stable small discriminant of a metric for cache keying.
pub fn metric_code(metric: Metric) -> u8 {
    match metric {
        Metric::Sloc => 0,
        Metric::Lloc => 1,
        Metric::Source => 2,
        Metric::TSrc => 3,
        Metric::TSem => 4,
        Metric::TIr => 5,
        Metric::CodeDivergence => 6,
    }
}

/// Variant bits for cache keying.
pub fn variant_code(v: Variant) -> u8 {
    (v.preprocessor as u8) | (v.inlining as u8) << 1 | (v.coverage as u8) << 2
}

/// True when pairs of this metric are worth caching.
pub fn supports(metric: Metric) -> bool {
    matches!(metric, Metric::TSrc | Metric::TSem | Metric::TIr | Metric::Source)
}

/// The comparison artefact of one unit under a cacheable metric, carrying
/// its content fingerprint and normalisation weight.
///
/// Extracting this once per unit (instead of once per pair) is what makes
/// an all-hits matrix request O(n) instead of O(n²) in tree masking work.
pub enum FpArtifact {
    Tree { fp: u64, tree: SharedTree },
    Lines { fp: u64, lines: Vec<String> },
}

impl FpArtifact {
    /// Extract and fingerprint the artefact `metric`/`v` compares.
    ///
    /// # Panics
    /// Panics if `metric` is not cacheable (see [`supports`]).
    pub fn of(m: &Measured<'_>, metric: Metric, v: Variant) -> FpArtifact {
        match metric {
            Metric::TSrc | Metric::TSem | Metric::TIr => {
                // `SharedTree::structural_hash` is memoised: repeated
                // requests over the same stored artefact fingerprint it
                // without re-walking the tree.
                let tree = tree_of(m, metric, v);
                FpArtifact::Tree { fp: tree.structural_hash(), tree }
            }
            Metric::Source => {
                let lines = lines_of(m, v);
                let fp = fnv1a(lines.iter().map(|l| l.as_bytes()));
                FpArtifact::Lines { fp, lines }
            }
            other => panic!("metric {other:?} is not cacheable"),
        }
    }

    /// Content fingerprint.
    pub fn fp(&self) -> u64 {
        match self {
            FpArtifact::Tree { fp, .. } | FpArtifact::Lines { fp, .. } => *fp,
        }
    }

    /// Normalisation weight: tree size or line count.
    pub fn weight(&self) -> u64 {
        match self {
            FpArtifact::Tree { tree, .. } => tree.size() as u64,
            FpArtifact::Lines { lines, .. } => lines.len() as u64,
        }
    }
}

/// Estimated compute cost of an artefact pair, used to order parallel
/// matrix schedules largest-first (LPT).  Fingerprint-equal pairs are
/// answered by the equal-artefact short-circuit without any distance
/// computation, so they cost 0; everything else scales with the DP table
/// (tree pairs) or the edit-distance working set (line pairs).  Purely an
/// ordering hint — it never changes a value.
pub fn pair_cost(a: &FpArtifact, b: &FpArtifact) -> u64 {
    if a.fp() == b.fp() {
        return 0;
    }
    match (a, b) {
        (FpArtifact::Tree { .. }, FpArtifact::Tree { .. }) => a.weight().saturating_mul(b.weight()),
        _ => a.weight().saturating_add(b.weight()),
    }
}

/// Raw pairwise distance — exactly what `svmetrics::divergence` computes
/// for this metric, with no cache involved.
fn raw_distance(a: &FpArtifact, b: &FpArtifact) -> u64 {
    match (a, b) {
        (FpArtifact::Tree { tree: ta, .. }, FpArtifact::Tree { tree: tb, .. }) => {
            let _s = svtrace::span!("ted.compute", a = ta.size(), b = tb.size());
            ted(ta, tb, CostModel::UNIT)
        }
        (FpArtifact::Lines { lines: la, .. }, FpArtifact::Lines { lines: lb, .. }) => {
            let _s = svtrace::span!("source.edit_distance", a = la.len(), b = lb.len());
            edit_distance_onp(la, lb) as u64
        }
        _ => unreachable!("artefact kinds are uniform per metric"),
    }
}

/// Distance and weights for an (ordered) artefact pair, served from the
/// cache when resident.  `compute_count` is bumped only when the distance
/// is actually computed — the "no recompute" observable tests assert on.
pub fn pair_cached(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    a: &FpArtifact,
    b: &FpArtifact,
    compute_count: &std::sync::atomic::AtomicU64,
) -> CachedPair {
    let key = CacheKey::pair(a.fp(), b.fp(), metric_code(metric), variant_code(v), COST_UNIT);
    let entry = cache.get_or_compute(key, || {
        compute_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (w_lo, w_hi) =
            if a.fp() <= b.fp() { (a.weight(), b.weight()) } else { (b.weight(), a.weight()) };
        CachedPair { distance: raw_distance(a, b), weight_lo: w_lo, weight_hi: w_hi }
    });
    // Re-orient the stored weights to the caller's (a, b) order.
    let (weight_a, weight_b) = if a.fp() <= b.fp() {
        (entry.weight_lo, entry.weight_hi)
    } else {
        (entry.weight_hi, entry.weight_lo)
    };
    CachedPair { distance: entry.distance, weight_lo: weight_a, weight_hi: weight_b }
}

/// Cached divergence over pre-extracted artefacts: identical `Divergence`
/// (Eq. 6 distance, Eq. 7 dmax) to `svmetrics::divergence`, but a
/// resident pair costs a hash lookup instead of a TED.  Identical
/// fingerprints short-circuit to distance 0 — content-identical artefacts
/// are at distance 0 by construction, no computation or cache entry
/// needed (this is the paper's self-comparison correctness check).
pub fn divergence_cached_arts(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    a: &FpArtifact,
    b: &FpArtifact,
    compute_count: &std::sync::atomic::AtomicU64,
) -> Divergence {
    if a.fp() == b.fp() {
        let dmax = match metric {
            Metric::Source => (a.weight() + b.weight()).max(1),
            _ => b.weight().max(1),
        };
        return Divergence { distance: 0, dmax };
    }
    let pair = pair_cached(cache, metric, v, a, b, compute_count);
    // weight_lo/weight_hi are in (a, b) order after pair_cached's
    // re-orientation; dmax matches svmetrics::divergence exactly:
    // tb.size().max(1) for trees, (la + lb).max(1) for source lines.
    let dmax = match metric {
        Metric::Source => (pair.weight_lo + pair.weight_hi).max(1),
        _ => pair.weight_hi.max(1),
    };
    Divergence { distance: pair.distance, dmax }
}

/// Cached form of `svmetrics::divergence(metric, v, from, to)` for
/// cacheable metrics (extracts and fingerprints both artefacts first).
pub fn divergence_cached(
    cache: &TedCache,
    metric: Metric,
    v: Variant,
    from: &Measured<'_>,
    to: &Measured<'_>,
    compute_count: &std::sync::atomic::AtomicU64,
) -> Divergence {
    let a = FpArtifact::of(from, metric, v);
    let b = FpArtifact::of(to, metric, v);
    divergence_cached_arts(cache, metric, v, &a, &b, compute_count)
}

/// Matrix-cell value for an artefact pair — bit-identical to the
/// corresponding `svmetrics::divergence_matrix` cell (same integer inputs,
/// same f64 expression).
pub fn matrix_cell(metric: Metric, pair: &CachedPair) -> f64 {
    match metric {
        Metric::Source => pair.distance as f64 / (pair.weight_lo + pair.weight_hi).max(1) as f64,
        _ => pair.distance as f64 / pair.weight_lo.max(pair.weight_hi).max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use svtree::Tree;

    fn tree_a() -> Tree {
        Tree::node("f", vec![Tree::leaf("x"), Tree::node("g", vec![Tree::leaf("y")])])
    }

    fn tree_b() -> Tree {
        Tree::node("f", vec![Tree::node("g", vec![Tree::leaf("y"), Tree::leaf("z")])])
    }

    fn fp_art(t: &Tree) -> FpArtifact {
        let tree = SharedTree::new(t.clone());
        FpArtifact::Tree { fp: tree.structural_hash(), tree }
    }

    #[test]
    fn pair_cached_matches_direct_ted_and_counts_computes() {
        let cache = TedCache::new(1 << 16);
        let computes = AtomicU64::new(0);
        let (a, b) = (fp_art(&tree_a()), fp_art(&tree_b()));
        let p1 = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        let direct = ted(&SharedTree::new(tree_a()), &SharedTree::new(tree_b()), CostModel::UNIT);
        assert_eq!(p1.distance, direct);
        assert_eq!(p1.weight_lo, tree_a().size() as u64);
        assert_eq!(p1.weight_hi, tree_b().size() as u64);
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        // Second call: served from cache, no recompute.
        let p2 = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        assert_eq!(p1, p2);
        assert_eq!(computes.load(Ordering::Relaxed), 1);
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn reversed_pair_shares_the_entry_with_swapped_weights() {
        let cache = TedCache::new(1 << 16);
        let computes = AtomicU64::new(0);
        let (a, b) = (fp_art(&tree_a()), fp_art(&tree_b()));
        let ab = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        let ba = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &b, &a, &computes);
        assert_eq!(computes.load(Ordering::Relaxed), 1, "symmetric pair computed once");
        assert_eq!(ab.distance, ba.distance);
        assert_eq!(ab.weight_lo, ba.weight_hi);
        assert_eq!(ab.weight_hi, ba.weight_lo);
    }

    #[test]
    fn metric_and_variant_separate_cache_entries() {
        let cache = TedCache::new(1 << 16);
        let computes = AtomicU64::new(0);
        let (a, b) = (fp_art(&tree_a()), fp_art(&tree_b()));
        pair_cached(&cache, Metric::TSem, Variant::PLAIN, &a, &b, &computes);
        pair_cached(&cache, Metric::TSrc, Variant::PLAIN, &a, &b, &computes);
        pair_cached(&cache, Metric::TSem, Variant::INLINED, &a, &b, &computes);
        assert_eq!(computes.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn supports_covers_exactly_the_expensive_metrics() {
        for m in Metric::ALL {
            let expect = matches!(m, Metric::TSrc | Metric::TSem | Metric::TIr | Metric::Source);
            assert_eq!(supports(m), expect, "{m:?}");
        }
    }

    #[test]
    fn metric_codes_are_distinct() {
        let mut codes: Vec<u8> = Metric::ALL.iter().map(|&m| metric_code(m)).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Metric::ALL.len());
    }
}
