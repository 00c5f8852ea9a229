//! Shared immutable trees with memoized derived views.
//!
//! A divergence matrix over N model variants runs O(N²) pairwise TEDs, but
//! each tree's derived data — its left/right post-order decompositions and
//! its structural hash — depends only on the tree itself.  [`SharedTree`]
//! wraps an immutable [`Tree`] in an `Arc` together with `OnceLock`-memoized
//! views, so however many pairs (or requests, in `svserve`) a tree
//! participates in, each view is computed exactly once and shared by
//! reference.
//!
//! `SharedTree` dereferences to [`Tree`], so existing read-only call sites
//! (`size()`, `label()`, traversals, serialisation) keep working unchanged.

use crate::lowerbound::TreeProfile;
use crate::ted::PostTree;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use svtree::Tree;

struct Inner {
    tree: Tree,
    hash: OnceLock<u64>,
    left: OnceLock<PostTree>,
    right: OnceLock<PostTree>,
    profile: OnceLock<TreeProfile>,
}

/// An immutable tree plus lazily-memoized derived views, cheaply cloneable
/// (`Arc`) and safe to share across threads.
#[derive(Clone)]
pub struct SharedTree(Arc<Inner>);

impl SharedTree {
    /// Wrap a tree.  Derived views are computed on first use.
    pub fn new(tree: Tree) -> Self {
        SharedTree(Arc::new(Inner {
            tree,
            hash: OnceLock::new(),
            left: OnceLock::new(),
            right: OnceLock::new(),
            profile: OnceLock::new(),
        }))
    }

    /// The underlying tree.
    pub fn tree(&self) -> &Tree {
        &self.0.tree
    }

    /// Memoized structural hash: the full Merkle walk runs at most once per
    /// `SharedTree`, no matter how many compares or cache-key derivations
    /// ask for it.
    pub fn structural_hash(&self) -> u64 {
        *self.0.hash.get_or_init(|| self.0.tree.structural_hash())
    }

    /// Memoized left-path (LR-keyroot) decomposition.
    pub fn left(&self) -> &PostTree {
        self.0.left.get_or_init(|| PostTree::build(&self.0.tree, false))
    }

    /// Memoized right-path (mirrored) decomposition.
    pub fn right(&self) -> &PostTree {
        self.0.right.get_or_init(|| PostTree::build(&self.0.tree, true))
    }

    /// Memoized lower-bound profile (label histogram + binary-branch
    /// grams) — the prefilter signature of the approximate-first engine.
    pub fn profile(&self) -> &TreeProfile {
        self.0.profile.get_or_init(|| TreeProfile::build(&self.0.tree))
    }

    /// Whether both decompositions are already materialised (i.e. further
    /// [`ted`](fn@crate::ted) calls on this tree will not decompose again).
    pub fn views_ready(&self) -> bool {
        self.0.left.get().is_some() && self.0.right.get().is_some()
    }

    /// Whether two handles share the same underlying allocation (and hence
    /// the same memoized views).
    pub fn ptr_eq(a: &SharedTree, b: &SharedTree) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for SharedTree {
    type Target = Tree;

    fn deref(&self) -> &Tree {
        &self.0.tree
    }
}

impl From<Tree> for SharedTree {
    fn from(tree: Tree) -> Self {
        SharedTree::new(tree)
    }
}

impl PartialEq for SharedTree {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.tree == other.0.tree
    }
}

impl Eq for SharedTree {}

impl fmt::Debug for SharedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0.tree, f)
    }
}

impl fmt::Display for SharedTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.0.tree, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ted::{decompose_count, ted, ted_with_mode, CostModel, KernelMode, Strategy};

    fn t(s: &str) -> Tree {
        Tree::from_sexpr(s).unwrap()
    }

    #[test]
    fn deref_exposes_tree_api() {
        let s = SharedTree::new(t("(f a b)"));
        assert_eq!(s.size(), 3);
        assert_eq!(s.to_sexpr(), "(f a b)");
    }

    #[test]
    fn hash_memoized_once() {
        // The global walk counter is shared across concurrently-running
        // tests, so assert identity of values and clone-sharing here; the
        // exact-count proof lives in the single-threaded integration test
        // (tests/artifact_reuse.rs).
        let s = SharedTree::new(t("(f (g a) b)"));
        let h1 = s.structural_hash();
        let h2 = s.clone().structural_hash();
        assert_eq!(h1, h2);
        assert_eq!(h1, s.tree().structural_hash());
    }

    #[test]
    fn decompositions_memoized_across_pairs() {
        let a = SharedTree::new(t("(f (g a b) c)"));
        let peers: Vec<SharedTree> = ["(f a)", "(g (h b))", "(f (g a b) c d)"]
            .iter()
            .map(|s| SharedTree::new(t(s)))
            .collect();
        // Warm every tree's views.
        let expect: Vec<u64> = peers.iter().map(|p| ted(&a, p, CostModel::UNIT)).collect();
        assert!(a.views_ready());
        // OnceLock views are pointer-stable: warm compares reuse the exact
        // same decompositions instead of rebuilding.
        let (l1, r1): (*const PostTree, *const PostTree) = (a.left(), a.right());
        for (p, want) in peers.iter().zip(&expect) {
            assert_eq!(ted(&a, p, CostModel::UNIT), *want);
        }
        assert_eq!(l1, a.left() as *const PostTree);
        assert_eq!(r1, a.right() as *const PostTree);
        let _ = decompose_count(); // exercised precisely in tests/artifact_reuse.rs
    }

    #[test]
    fn shared_equals_plain_ted() {
        // Memoized views give the fresh-build oracle's distances under
        // every strategy and kernel.
        let cases = [
            ("(f (d a (c b)) e)", "(f (c (d a b)) e)"),
            ("(a (b c d) e)", "(a (b c) (e d))"),
            ("(s a a a a)", "(s a a)"),
        ];
        for (sa, sb) in cases {
            let (ta, tb) = (t(sa), t(sb));
            let d =
                ted(&SharedTree::new(ta.clone()), &SharedTree::new(tb.clone()), CostModel::UNIT);
            for strat in [Strategy::Left, Strategy::Right, Strategy::Auto] {
                for mode in KernelMode::ALL {
                    let oracle = ted_with_mode(&ta, &tb, CostModel::UNIT, strat, mode);
                    assert_eq!(d, oracle, "{sa} vs {sb} {strat:?} {mode:?}");
                }
            }
        }
    }
}
