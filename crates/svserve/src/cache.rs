//! Content-addressed TED result cache.
//!
//! Tree edit distance dominates the analysis service's cost (§VII calls
//! TED the scaling bottleneck), and the same pairs recur constantly: every
//! `compare`, `matrix` and `cluster` request over the same codebase DB
//! re-derives the same pairwise distances.  Instead of caching per request
//! we cache per *pair*: results are keyed by the two artefacts' content
//! fingerprints (`svtree` structural hashes for trees) plus the metric,
//! variant and cost model that produced them — so two DBs holding
//! structurally identical trees share cache entries, and a re-indexed DB
//! whose trees did not change costs nothing to re-analyse.
//!
//! Eviction is LRU under a byte budget; hits, misses, insertions and
//! evictions are counted on a per-cache `svtrace::Registry` — the same
//! handles feed the `stats` report (via [`TedCache::stats`], unchanged
//! format) and the live `metrics` endpoint (via [`TedCache::registry`]).

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};
use svmetrics::{PairEntry, PairKey, PairMemo};
use svtrace::{Counter, Gauge, Registry};

/// Lock the cache tolerating poisoning: a handler panic while holding the
/// lock (the critical sections never call user code, but panics can be
/// injected anywhere in tests) must degrade to a stale-recency cache, not
/// wedge every later request.
fn lock_ip<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Approximate resident bytes per entry: key + value + the `HashMap` and
/// recency-index bookkeeping around them.  A fixed estimate is fine — all
/// entries have the same shape.
pub const ENTRY_BYTES: usize = std::mem::size_of::<PairKey>()
    + std::mem::size_of::<PairEntry>()
    + 2 * std::mem::size_of::<(u64, PairKey)>()
    + 48;

/// Counter snapshot for the `stats` endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    pub entries: usize,
    pub bytes: usize,
    pub byte_budget: usize,
}

struct Inner {
    map: HashMap<PairKey, (PairEntry, u64)>,
    /// Last-access tick → key; the smallest tick is the LRU entry.
    recency: BTreeMap<u64, PairKey>,
    tick: u64,
}

/// Thread-safe LRU cache of pairwise distances under a byte budget.
///
/// Counters live on a cache-owned [`Registry`] (so independent caches —
/// e.g. in tests — never share counts); `entries`/`bytes` occupancy is
/// mirrored onto gauges whenever the map changes.
pub struct TedCache {
    inner: Mutex<Inner>,
    byte_budget: usize,
    registry: Registry,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    insertions: Arc<Counter>,
    evictions: Arc<Counter>,
    entries_gauge: Arc<Gauge>,
    bytes_gauge: Arc<Gauge>,
}

impl TedCache {
    /// Create a cache that holds at most `byte_budget` bytes of entries
    /// (at least one entry is always kept, so a tiny budget degenerates to
    /// a single-entry cache rather than caching nothing).
    pub fn new(byte_budget: usize) -> TedCache {
        let registry = Registry::new();
        let hits = registry.counter("cache.hits");
        let misses = registry.counter("cache.misses");
        let insertions = registry.counter("cache.insertions");
        let evictions = registry.counter("cache.evictions");
        let entries_gauge = registry.gauge("cache.entries");
        let bytes_gauge = registry.gauge("cache.bytes");
        registry.gauge("cache.byte_budget").set(byte_budget as f64);
        TedCache {
            inner: Mutex::new(Inner { map: HashMap::new(), recency: BTreeMap::new(), tick: 0 }),
            byte_budget,
            registry,
            hits,
            misses,
            insertions,
            evictions,
            entries_gauge,
            bytes_gauge,
        }
    }

    /// The cache's metrics registry, for the live `metrics` endpoint.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Maximum number of entries the byte budget admits (minimum 1).
    pub fn capacity(&self) -> usize {
        (self.byte_budget / ENTRY_BYTES).max(1)
    }

    /// Look up a pair, counting a hit or miss and refreshing recency.
    pub fn get(&self, key: &PairKey) -> Option<PairEntry> {
        let mut inner = lock_ip(&self.inner);
        let inner = &mut *inner;
        match inner.map.get_mut(key) {
            Some((val, tick)) => {
                let val = *val;
                inner.recency.remove(tick);
                inner.tick += 1;
                *tick = inner.tick;
                inner.recency.insert(inner.tick, *key);
                self.hits.inc();
                Some(val)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a pair, evicting least-recently-used entries past the budget.
    pub fn put(&self, key: PairKey, val: PairEntry) {
        let cap = self.capacity();
        let mut inner = lock_ip(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        if let Some((_, old_tick)) = inner.map.insert(key, (val, tick)) {
            // Overwrite (e.g. two threads raced the same miss): not an
            // insertion, just refresh recency.
            inner.recency.remove(&old_tick);
            inner.recency.insert(tick, key);
            return;
        }
        inner.recency.insert(tick, key);
        self.insertions.inc();
        while inner.map.len() > cap {
            let (&lru_tick, &lru_key) =
                inner.recency.iter().next().expect("recency tracks every entry");
            inner.recency.remove(&lru_tick);
            inner.map.remove(&lru_key);
            self.evictions.inc();
        }
        self.entries_gauge.set(inner.map.len() as f64);
        self.bytes_gauge.set((inner.map.len() * ENTRY_BYTES) as f64);
    }

    /// Counter + occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_ip(&self.inner);
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: inner.map.len(),
            bytes: inner.map.len() * ENTRY_BYTES,
            byte_budget: self.byte_budget,
        }
    }
}

/// The memo `svmetrics` rows and matrices consult.  It is the cache's
/// only production path, so `cache.misses` counts the pair distances the
/// service actually computed.
impl PairMemo for TedCache {
    /// Note the computation runs outside the cache lock — identical
    /// concurrent misses may both compute (benign: same value).  The job
    /// scheduler's in-flight dedup is what prevents duplicated *request*
    /// work; this keeps the cache deadlock-free under reentrant use.
    fn get_or_compute(&self, key: PairKey, compute: &mut dyn FnMut() -> PairEntry) -> PairEntry {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let v = compute();
        self.put(key, v);
        v
    }

    fn contains(&self, key: &PairKey) -> bool {
        lock_ip(&self.inner).map.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svdist::{ted, CostModel, SharedTree};
    use svmetrics::{pair_divergence, Metric, PairArt, Variant};
    use svtree::Tree;

    fn key(n: u64) -> PairKey {
        PairKey { fp_lo: n, fp_hi: n + 1, metric: 0, variant: 0, cost_model: 0 }
    }

    fn val(d: u64) -> PairEntry {
        PairEntry { distance: d, weight_lo: 10, weight_hi: 20 }
    }

    fn tree_a() -> Tree {
        Tree::node("f", vec![Tree::leaf("x"), Tree::node("g", vec![Tree::leaf("y")])])
    }

    fn tree_b() -> Tree {
        Tree::node("f", vec![Tree::node("g", vec![Tree::leaf("y"), Tree::leaf("z")])])
    }

    /// A tree artefact fingerprinted for a memo, as `PairArt::of` makes it.
    fn art(t: &Tree) -> PairArt {
        let tree = SharedTree::new(t.clone());
        let fp = tree.structural_hash();
        PairArt::Tree(tree, Some(fp))
    }

    #[test]
    fn pair_key_is_orientation_free() {
        let (m, v) = (Metric::TSem, Variant::PP);
        assert_eq!(PairKey::new(7, 3, m, v), PairKey::new(3, 7, m, v));
        assert_ne!(PairKey::new(3, 7, m, v), PairKey::new(3, 7, Metric::TIr, v));
        assert_ne!(PairKey::new(3, 7, m, v), PairKey::new(3, 7, m, Variant::INLINED));
    }

    #[test]
    fn entry_layout_keeps_its_byte_estimate() {
        // `stats.app.cache.bytes` is entries × ENTRY_BYTES: a key or entry
        // layout change would move every reported byte count.
        assert_eq!(ENTRY_BYTES, 160);
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = TedCache::new(1 << 16);
        assert_eq!(c.get(&key(1)), None);
        c.put(key(1), val(5));
        assert_eq!(c.get(&key(1)), Some(val(5)));
        // `contains` is not a lookup: it moves no counter.
        assert!(c.contains(&key(1)) && !c.contains(&key(2)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1));
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn lru_eviction_under_budget() {
        let c = TedCache::new(3 * ENTRY_BYTES);
        assert_eq!(c.capacity(), 3);
        for n in 0..3 {
            c.put(key(n * 10), val(n));
        }
        // Touch key(0): key(10) becomes LRU.
        assert!(c.get(&key(0)).is_some());
        c.put(key(30), val(9));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(&key(10)).is_none(), "LRU entry evicted");
        assert!(c.get(&key(0)).is_some(), "recently-touched entry kept");
        assert!(c.get(&key(30)).is_some());
        assert_eq!(c.stats().entries, 3);
    }

    #[test]
    fn tiny_budget_keeps_one_entry() {
        let c = TedCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.put(key(1), val(1));
        c.put(key(2), val(2));
        assert_eq!(c.stats().entries, 1);
        assert!(c.get(&key(2)).is_some());
    }

    #[test]
    fn get_or_compute_computes_once_per_resident_key() {
        let c = TedCache::new(1 << 16);
        let mut calls = 0;
        for _ in 0..3 {
            let v = PairMemo::get_or_compute(&c, key(4), &mut || {
                calls += 1;
                val(7)
            });
            assert_eq!(v, val(7));
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn overwrite_does_not_double_count_entries() {
        let c = TedCache::new(1 << 16);
        c.put(key(1), val(1));
        c.put(key(1), val(2));
        let s = c.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.insertions, 1);
        assert_eq!(c.get(&key(1)), Some(val(2)));
    }

    #[test]
    fn memo_matches_direct_ted_and_counts_computes() {
        let cache = TedCache::new(1 << 16);
        let (a, b) = (art(&tree_a()), art(&tree_b()));
        let d1 = pair_divergence(Metric::TSem, Variant::PLAIN, &a, &b, Some(&cache));
        let direct = ted(&SharedTree::new(tree_a()), &SharedTree::new(tree_b()), CostModel::UNIT);
        assert_eq!(d1.distance, direct);
        assert_eq!(d1.dmax, tree_b().size() as u64);
        assert_eq!(cache.stats().misses, 1);
        // The entry keeps both weights in fingerprint order.
        let k = PairKey::new(a.fp().unwrap(), b.fp().unwrap(), Metric::TSem, Variant::PLAIN);
        let e = cache.get(&k).unwrap();
        let (sa, sb) = (tree_a().size() as u64, tree_b().size() as u64);
        let want = if a.fp() <= b.fp() { (sa, sb) } else { (sb, sa) };
        assert_eq!((e.distance, e.weight_lo, e.weight_hi), (direct, want.0, want.1));
        // Second call: served from cache, no recompute.
        let d2 = pair_divergence(Metric::TSem, Variant::PLAIN, &a, &b, Some(&cache));
        assert_eq!(d1, d2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 2);
    }

    #[test]
    fn reversed_pair_shares_the_entry_with_swapped_weights() {
        let cache = TedCache::new(1 << 16);
        let (a, b) = (art(&tree_a()), art(&tree_b()));
        let ab = pair_divergence(Metric::TSem, Variant::PLAIN, &a, &b, Some(&cache));
        let ba = pair_divergence(Metric::TSem, Variant::PLAIN, &b, &a, Some(&cache));
        assert_eq!(cache.stats().misses, 1, "symmetric pair computed once");
        assert_eq!(ab.distance, ba.distance);
        // Eq. 7 normalises by the target, so the orientation picks dmax.
        assert_eq!(ab.dmax, tree_b().size() as u64);
        assert_eq!(ba.dmax, tree_a().size() as u64);
    }

    #[test]
    fn metric_and_variant_separate_cache_entries() {
        let cache = TedCache::new(1 << 16);
        let (a, b) = (art(&tree_a()), art(&tree_b()));
        pair_divergence(Metric::TSem, Variant::PLAIN, &a, &b, Some(&cache));
        pair_divergence(Metric::TSrc, Variant::PLAIN, &a, &b, Some(&cache));
        pair_divergence(Metric::TSem, Variant::INLINED, &a, &b, Some(&cache));
        assert_eq!(cache.stats().misses, 3);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn metric_codes_are_distinct() {
        let mut codes: Vec<u8> =
            Metric::ALL.iter().map(|&m| PairKey::new(1, 2, m, Variant::PLAIN).metric).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Metric::ALL.len());
    }
}
