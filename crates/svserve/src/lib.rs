//! # svserve — the concurrent analysis service
//!
//! Turns the one-shot `silvervale` pipeline into a long-running service:
//! index a codebase once, then answer `compare`/`cluster`/`matrix`
//! requests over a line-framed TCP protocol, with the expensive pairwise
//! work (TED — the §VII scaling bottleneck) deduplicated twice over:
//!
//! * [`cache`] — a content-addressed LRU result cache keyed by artefact
//!   fingerprint pair + metric + variant + cost model, so *sequential*
//!   repeats of a pair cost a hash lookup ([`cached`] is the bridge to
//!   the `svmetrics` kernels);
//! * [`sched`] — the server's one thread pool, with in-flight job
//!   deduplication, so *concurrent* identical requests execute once;
//! * [`proto`] / [`server`] / [`client`] — the from-scratch framed
//!   JSON protocol (over `std::net`, no external dependencies) and its
//!   two endpoints.
//!
//! The service carries an explicit failure model (see `DESIGN.md` §11):
//! handler panics are isolated (`catch_unwind`, and the pool thread
//! lives on) and answered with a `panic` error, per-request deadlines
//! turn hangs into `deadline_exceeded`, a bounded queue sheds excess load
//! with a retryable `overloaded`, shutdown drains gracefully, and the client
//! retries retryable failures with seeded exponential backoff
//! ([`client::RetryPolicy`]).  All of it is testable deterministically
//! through [`faults`] — seed-driven fault injection at named sites.
//!
//! The crate is application-agnostic below [`server::Router`]: the
//! `silvervale` binary registers the actual analysis handlers and owns
//! the `serve`/`client`/`stats` CLI.

pub mod binproto;
pub mod cache;
pub mod cached;
pub mod client;
pub mod faults;
pub mod proto;
pub mod reactor;
pub mod sched;
pub mod server;
pub mod store;
pub mod svjson;
pub mod sys;
pub mod tracewire;

pub use cache::{CacheKey, CacheStats, CachedPair, TedCache};
pub use client::{Client, RetryPolicy, Wire};
pub use faults::{Fault, FaultPlan};
pub use proto::{id_hex, parse_id_hex, trace_json, Request, ServeError, MAX_FRAME};
pub use sched::{FanoutCtx, JobCtx, JobPool, PoolConfig, PoolStats, Ticket};
pub use server::{
    render_slowlog, render_stats, render_top, serve, serve_with, snapshot_json, FanoutHandler,
    Router, ServeConfig, ServeHandle,
};
pub use store::ArtifactStore;
pub use tracewire::merged_chrome_trace;

#[cfg(test)]
mod proptests {
    //! Property tests: the cache must be invisible — cached and uncached
    //! divergence are bit-identical on arbitrary tree pairs.

    use crate::cache::TedCache;
    use crate::cached::{pair_cached, FpArtifact};
    use proptest::prelude::*;
    use std::sync::atomic::AtomicU64;
    use svdist::{ted, CostModel, SharedTree};
    use svmetrics::{Metric, Variant};
    use svtree::Tree;

    /// An arbitrary small tree: label choices are narrow on purpose so
    /// random pairs share structure (the interesting TED cases).
    fn arb_tree(depth: u32) -> impl Strategy<Value = Tree> {
        (0u8..5, 0usize..4).prop_map(move |(label, n_children)| build(depth, label, n_children))
    }

    fn build(depth: u32, label: u8, n_children: usize) -> Tree {
        let name = ["fn", "for", "if", "call", "block"][label as usize % 5];
        if depth == 0 || n_children == 0 {
            return Tree::leaf(name);
        }
        let children = (0..n_children)
            .map(|i| {
                build(depth - 1, label.wrapping_add(i as u8).wrapping_mul(7), (n_children + i) % 3)
            })
            .collect();
        Tree::node(name, children)
    }

    /// The uncached distance, over fresh shared wrappers.
    fn direct(a: &Tree, b: &Tree) -> u64 {
        ted(&SharedTree::new(a.clone()), &SharedTree::new(b.clone()), CostModel::UNIT)
    }

    fn fp(t: &Tree) -> FpArtifact {
        let tree = SharedTree::new(t.clone());
        FpArtifact::Tree { fp: tree.structural_hash(), tree }
    }

    proptest! {
        #[test]
        fn cached_ted_is_bit_identical_to_uncached(
            a in arb_tree(3),
            b in arb_tree(3),
        ) {
            let cache = TedCache::new(1 << 16);
            let computes = AtomicU64::new(0);
            let (fa, fb) = (fp(&a), fp(&b));
            let direct = direct(&a, &b);
            // Cold: computed; warm: served — both must equal the direct TED.
            let cold = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &fa, &fb, &computes);
            let warm = pair_cached(&cache, Metric::TSem, Variant::PLAIN, &fa, &fb, &computes);
            prop_assert_eq!(cold.distance, direct);
            prop_assert_eq!(warm, cold);
            prop_assert_eq!(computes.load(std::sync::atomic::Ordering::Relaxed), 1);
            prop_assert_eq!(cold.weight_lo, a.size() as u64);
            prop_assert_eq!(cold.weight_hi, b.size() as u64);
        }

        #[test]
        fn cache_eviction_never_changes_results(
            a in arb_tree(2),
            b in arb_tree(2),
            c in arb_tree(2),
        ) {
            // A single-entry cache evicts constantly; values must still
            // always match the direct computation.
            let cache = TedCache::new(0);
            let computes = AtomicU64::new(0);
            let arts = [fp(&a), fp(&b), fp(&c)];
            let trees = [&a, &b, &c];
            for _round in 0..2 {
                for i in 0..3 {
                    for j in 0..3 {
                        if i == j {
                            continue;
                        }
                        let p = pair_cached(
                            &cache, Metric::TSem, Variant::PLAIN,
                            &arts[i], &arts[j], &computes,
                        );
                        prop_assert_eq!(p.distance, direct(trees[i], trees[j]));
                    }
                }
            }
        }
    }
}
