//! Cheap admissible lower bounds on tree edit distance.
//!
//! Exact Zhang–Shasha is O(n·m·depth²) per pair; at corpus scale the
//! divergence matrix is millions of pairs and most of them are *far*
//! apart.  This module computes a per-tree [`TreeProfile`] once (memoized
//! on [`SharedTree`](crate::SharedTree) next to the hash and the LR
//! decompositions) and derives from a pair of profiles a lower bound
//! `lb(a, b) ≤ ted(a, b)` in O(|profile|) — cheap enough to answer the
//! bulk of a matrix without touching the DP kernel.
//!
//! Two bounds, both admissible under arbitrary non-negative unit costs:
//!
//! * [`label_histogram_lb`] — from the multiset of node labels.  Any
//!   edit script maps an injective partial correspondence between the
//!   trees; label-preserving pairs are limited by the histogram overlap,
//!   everything else costs at least one operation.  Three components
//!   (size difference, unmatched-node count, histogram L1) are each
//!   priced at the cheapest applicable operation and the max is taken.
//! * [`pqgram_lb`] — from the *binary-branch* profile (Yang, Kalnis &
//!   Tung, SIGMOD 2005): each node contributes the gram
//!   `(label, first-child label, next-sibling label)` of the
//!   first-child/next-sibling binary encoding.  A single edit operation
//!   perturbs at most 5 grams (relabel ≤ 4, leaf insert/delete ≤ 3,
//!   inner insert/delete ≤ 5), so `ted ≥ ⌈L1(grams)/5⌉ · cmin`.  The
//!   result is floored at [`label_histogram_lb`], so
//!   `label_histogram_lb ≤ pqgram_lb ≤ ted` always holds.
//!
//! Labels are compared by their interner content hash
//! ([`Interner::hashes_snapshot`](svtree::Interner)), so profiles built
//! from different interner tables compare correctly; a hash collision
//! only ever *merges* histogram bins, which shrinks the bound — the
//! bounds stay admissible.

use crate::ted::CostModel;
use svtree::Tree;

/// Sentinel label hash standing in for a missing first child or next
/// sibling in a binary-branch gram (`ε` in the paper's notation).
const EPS: u64 = 0x9e37_79b9_7f4a_7c15;

/// Per-tree signature backing the lower bounds: node count, sorted
/// label-hash histogram, and sorted binary-branch gram multiset.
///
/// Built once per tree in O(n log n); comparisons are linear merges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeProfile {
    size: usize,
    /// `(label hash, multiplicity)` sorted by hash.
    hist: Vec<(u64, u32)>,
    /// Binary-branch gram hashes, sorted, duplicates kept.
    grams: Vec<u64>,
}

impl TreeProfile {
    /// Profile of `tree`. Empty trees yield an empty profile.
    pub fn build(tree: &Tree) -> TreeProfile {
        let hashes = tree.interner().hashes_snapshot();
        let key = |t: &Tree, id: svtree::NodeId| hashes[t.sym(id).index()];
        let mut labels: Vec<u64> = Vec::with_capacity(tree.size());
        let mut grams: Vec<u64> = Vec::with_capacity(tree.size());
        if let Some(root) = tree.root() {
            // Iterative walk (corpus trees can be deep chains); each frame
            // carries the node plus the label key of its next sibling.
            let mut stack: Vec<(svtree::NodeId, u64)> = vec![(root, EPS)];
            while let Some((v, sib)) = stack.pop() {
                let k = key(tree, v);
                let ch = tree.children(v);
                let first = ch.first().map(|&c| key(tree, c)).unwrap_or(EPS);
                labels.push(k);
                grams.push(gram_hash(k, first, sib));
                for (i, &c) in ch.iter().enumerate() {
                    let next = ch.get(i + 1).map(|&s| key(tree, s)).unwrap_or(EPS);
                    stack.push((c, next));
                }
            }
        }
        labels.sort_unstable();
        grams.sort_unstable();
        let mut hist: Vec<(u64, u32)> = Vec::new();
        for l in labels {
            match hist.last_mut() {
                Some((k, c)) if *k == l => *c += 1,
                _ => hist.push((l, 1)),
            }
        }
        TreeProfile { size: tree.size(), hist, grams }
    }

    /// Node count of the profiled tree.
    pub fn size(&self) -> usize {
        self.size
    }
}

/// FNV-1a over the three label hashes of a binary-branch gram.
fn gram_hash(node: u64, first_child: u64, next_sibling: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in [node, first_child, next_sibling] {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Merge-walk over two sorted histograms: `(Σ|ha−hb|, Σ min(ha,hb))`.
fn hist_l1_common(a: &[(u64, u32)], b: &[(u64, u32)]) -> (u64, u64) {
    let (mut l1, mut common) = (0u64, 0u64);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ka, ca) = a[i];
        let (kb, cb) = b[j];
        if ka == kb {
            l1 += u64::from(ca.abs_diff(cb));
            common += u64::from(ca.min(cb));
            i += 1;
            j += 1;
        } else if ka < kb {
            l1 += u64::from(ca);
            i += 1;
        } else {
            l1 += u64::from(cb);
            j += 1;
        }
    }
    l1 += a[i..].iter().map(|&(_, c)| u64::from(c)).sum::<u64>();
    l1 += b[j..].iter().map(|&(_, c)| u64::from(c)).sum::<u64>();
    (l1, common)
}

/// L1 distance between two sorted gram multisets.
fn grams_l1(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j) = (0, 0);
    let mut l1 = 0u64;
    while i < a.len() && j < b.len() {
        if a[i] == b[j] {
            i += 1;
            j += 1;
        } else if a[i] < b[j] {
            l1 += 1;
            i += 1;
        } else {
            l1 += 1;
            j += 1;
        }
    }
    l1 + (a.len() - i) as u64 + (b.len() - j) as u64
}

/// Label-histogram lower bound on `ted(a, b)` under `costs`.
///
/// Max of three admissible components (saturating arithmetic
/// throughout, matching the kernel's cost domain):
///
/// * **size** — a script from `a` (n nodes) to `b` (m > n nodes) performs
///   at least `m − n` inserts: `(m − n)·insert` (symmetrically deletes);
/// * **ops** — any script's node correspondence preserves at most
///   `Σ min(ha, hb)` labels for free, so at least
///   `max(n, m) − Σ min(ha, hb)` operations happen, each ≥
///   `min(delete, insert, relabel)`;
/// * **L1** — a delete or insert moves the histogram L1 by at most 1, a
///   relabel by at most 2, so the script pays at least
///   `⌊L1 · min(2·delete, 2·insert, relabel) / 2⌋`.
pub fn label_histogram_lb(a: &TreeProfile, b: &TreeProfile, costs: CostModel) -> u64 {
    let (na, nb) = (a.size as u64, b.size as u64);
    let del = u64::from(costs.delete);
    let ins = u64::from(costs.insert);
    let rel = u64::from(costs.relabel);

    let by_size =
        if nb >= na { (nb - na).saturating_mul(ins) } else { (na - nb).saturating_mul(del) };

    let (l1, common) = hist_l1_common(&a.hist, &b.hist);
    let cmin = del.min(ins).min(rel);
    let by_ops = (na.max(nb) - common).saturating_mul(cmin);

    let per_two = del.saturating_mul(2).min(ins.saturating_mul(2)).min(rel);
    let by_l1 = l1.saturating_mul(per_two) / 2;

    by_size.max(by_ops).max(by_l1)
}

/// Binary-branch (pq-gram style) lower bound, floored at
/// [`label_histogram_lb`] so the two bounds are totally ordered.
///
/// One edit operation perturbs at most 5 binary-branch grams, so the
/// gram-multiset L1 distance `g` forces at least `⌈g/5⌉` operations:
/// `ted ≥ ⌊g · min(delete, insert, relabel) / 5⌋`.
pub fn pqgram_lb(a: &TreeProfile, b: &TreeProfile, costs: CostModel) -> u64 {
    let base = label_histogram_lb(a, b, costs);
    let cmin = u64::from(costs.delete).min(u64::from(costs.insert)).min(u64::from(costs.relabel));
    let by_grams = grams_l1(&a.grams, &b.grams).saturating_mul(cmin) / 5;
    base.max(by_grams)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ted::{ted_with_mode, KernelMode, Strategy};

    fn check(a: &Tree, b: &Tree, costs: CostModel) {
        let (pa, pb) = (TreeProfile::build(a), TreeProfile::build(b));
        let hist = label_histogram_lb(&pa, &pb, costs);
        let pq = pqgram_lb(&pa, &pb, costs);
        let exact = ted_with_mode(a, b, costs, Strategy::Auto, KernelMode::Simd);
        assert!(hist <= pq, "hist {hist} > pqgram {pq}");
        assert!(pq <= exact, "pqgram {pq} > ted {exact}");
    }

    #[test]
    fn identical_trees_bound_zero() {
        let t = Tree::node("f", vec![Tree::leaf("a"), Tree::node("g", vec![Tree::leaf("b")])]);
        let p = TreeProfile::build(&t);
        assert_eq!(pqgram_lb(&p, &p, CostModel::UNIT), 0);
    }

    #[test]
    fn empty_vs_tree_is_exact() {
        let t = Tree::node("f", vec![Tree::leaf("a"), Tree::leaf("b")]);
        let (pe, pt) = (TreeProfile::build(&Tree::empty()), TreeProfile::build(&t));
        // All three nodes must be inserted; the size bound is tight here.
        assert_eq!(pqgram_lb(&pe, &pt, CostModel::UNIT), 3);
        check(&Tree::empty(), &t, CostModel::UNIT);
    }

    #[test]
    fn relabel_only_pair() {
        let a = Tree::node("f", vec![Tree::leaf("x"), Tree::leaf("y")]);
        let b = Tree::node("f", vec![Tree::leaf("x"), Tree::leaf("z")]);
        let pa = TreeProfile::build(&a);
        let pb = TreeProfile::build(&b);
        // One relabel suffices; the bound must be in 1..=1 under unit costs.
        assert_eq!(pqgram_lb(&pa, &pb, CostModel::UNIT), 1);
        check(&a, &b, CostModel::UNIT);
    }

    #[test]
    fn bounds_hold_on_assorted_pairs_and_costs() {
        let trees = [
            Tree::empty(),
            Tree::leaf("a"),
            Tree::node("f", vec![Tree::leaf("a"), Tree::leaf("b"), Tree::leaf("c")]),
            Tree::node("f", vec![Tree::node("g", vec![Tree::leaf("a")]), Tree::leaf("b")]),
            Tree::node("g", vec![Tree::node("f", vec![Tree::leaf("b")]), Tree::leaf("a")]),
            Tree::node(
                "loop",
                vec![
                    Tree::node("body", vec![Tree::leaf("ld"), Tree::leaf("st")]),
                    Tree::leaf("inc"),
                ],
            ),
        ];
        let costs = [
            CostModel::UNIT,
            CostModel { delete: 2, insert: 3, relabel: 1 },
            CostModel { delete: 0, insert: 5, relabel: 2 },
            CostModel { delete: 7, insert: 0, relabel: 9 },
            CostModel { delete: u32::MAX, insert: u32::MAX, relabel: u32::MAX },
        ];
        for a in &trees {
            for b in &trees {
                for &c in &costs {
                    check(a, b, c);
                }
            }
        }
    }

    #[test]
    fn different_interner_tables_compare_by_content() {
        let a = Tree::node("f", vec![Tree::leaf("a")]);
        // Same shape + labels built on an unrelated table: lb must be 0.
        let b = Tree::node("f", vec![Tree::leaf("a")]);
        assert!(!std::sync::Arc::ptr_eq(a.interner(), b.interner()));
        let (pa, pb) = (TreeProfile::build(&a), TreeProfile::build(&b));
        assert_eq!(pqgram_lb(&pa, &pb, CostModel::UNIT), 0);
    }
}
