//! The approximate engine's synthetic corpus and its exact reference,
//! shared by the `approx_matrix` bench and the `approx_ratio` example.
//!
//! The corpus is seeded and drawn from [`FAMILIES`] base trees (40–80
//! nodes each, family-specific + shared label palettes); each family
//! contributes its base plus small relabel mutants — the duplicate-heavy,
//! cluster-structured shape of a real many-port codebase DB.

use svdist::{ted, CostModel, DistanceMatrix, SharedTree};
use svmetrics::ApproxStats;
use svtree::Tree;

/// splitmix64: the corpus is a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A mutable flat tree: labels index into the family palette, children
/// are node ids.  Mutants relabel a few nodes and re-render.
#[derive(Clone)]
struct SynTree {
    label: Vec<usize>,
    children: Vec<Vec<usize>>,
}

impl SynTree {
    /// Random ordered tree of `size` nodes: each new node attaches to a
    /// recently-added parent (biased, so depth grows like a real AST).
    fn random(rng: &mut Rng, size: usize, palette_len: usize) -> SynTree {
        let mut t = SynTree { label: vec![rng.below(palette_len)], children: vec![Vec::new()] };
        for id in 1..size {
            let lo = id.saturating_sub(8);
            let parent = lo + rng.below(id - lo);
            t.label.push(rng.below(palette_len));
            t.children.push(Vec::new());
            t.children[parent].push(id);
        }
        t
    }

    /// Relabel `edits` random nodes to a different palette entry.
    fn mutated(&self, rng: &mut Rng, edits: usize, palette_len: usize) -> SynTree {
        let mut t = self.clone();
        for _ in 0..edits {
            let node = rng.below(t.label.len());
            let mut l = rng.below(palette_len);
            if l == t.label[node] {
                l = (l + 1) % palette_len;
            }
            t.label[node] = l;
        }
        t
    }

    fn to_sexpr(&self, palette: &[String]) -> String {
        fn rec(t: &SynTree, id: usize, palette: &[String], out: &mut String) {
            let kids = &t.children[id];
            if kids.is_empty() {
                out.push_str(&palette[t.label[id]]);
                return;
            }
            out.push('(');
            out.push_str(&palette[t.label[id]]);
            for &k in kids {
                out.push(' ');
                rec(t, k, palette, out);
            }
            out.push(')');
        }
        let mut s = String::new();
        rec(self, 0, palette, &mut s);
        s
    }
}

/// Base trees in the corpus.
pub const FAMILIES: usize = 80;
/// Trees per family: the base plus five small relabel mutants.
pub const VARIANTS: usize = 6;

/// The first `units` units of the corpus, as rendered s-expressions: unit
/// `u` is variant `(u / FAMILIES) % VARIANTS` of family `u % FAMILIES`.
/// At 1000 units every distinct tree recurs ~2× (exercising the bucketing
/// stage) and every family keeps ≥ VARIANTS−1 near neighbours (keeping the
/// frontier at in-family scale).  The families do not depend on `units`,
/// so a smaller corpus is a prefix of a larger one.
pub fn corpus(units: usize) -> Vec<String> {
    let shared: Vec<String> =
        ["seq", "add", "mul", "cmp", "ld", "st", "br", "phi"].map(str::to_string).into();
    let mut rng = Rng(0x5eed_a99c_0ffe_e001);
    let mut rendered: Vec<Vec<String>> = Vec::with_capacity(FAMILIES);
    for f in 0..FAMILIES {
        // Family-dominant palette: cross-family label histograms barely
        // overlap, so their lower bounds are large and prunable.
        let mut palette = shared.clone();
        for s in 0..12 {
            palette.push(format!("f{f}x{s}"));
        }
        let size = 40 + rng.below(41);
        let base = SynTree::random(&mut rng, size, palette.len());
        let mut family = vec![base.to_sexpr(&palette)];
        for _ in 1..VARIANTS {
            let edits = 1 + rng.below(3);
            family.push(base.mutated(&mut rng, edits, palette.len()).to_sexpr(&palette));
        }
        rendered.push(family);
    }
    (0..units).map(|u| rendered[u % FAMILIES][(u / FAMILIES) % VARIANTS].clone()).collect()
}

/// The exact cold path over pre-extracted trees: one `ted` per
/// pair in LPT order with the structural-hash short-circuit — the same
/// per-cell work as `divergence_matrix` on a tree metric.
pub fn exact_matrix(labels: &[String], trees: &[SharedTree]) -> DistanceMatrix {
    DistanceMatrix::from_fn_par_lpt(
        labels.to_vec(),
        |i, j| {
            if trees[i].size() == trees[j].size()
                && trees[i].structural_hash() == trees[j].structural_hash()
            {
                0
            } else {
                (trees[i].size() as u64).saturating_mul(trees[j].size() as u64)
            }
        },
        |i, j| {
            let d = ted(&trees[i], &trees[j], CostModel::UNIT);
            d as f64 / trees[i].size().max(trees[j].size()).max(1) as f64
        },
    )
}

/// Parse a corpus into fresh trees (every memo cold).
pub fn trees(sexprs: &[String]) -> Vec<SharedTree> {
    sexprs.iter().map(|s| SharedTree::new(Tree::from_sexpr(s).expect("corpus sexpr"))).collect()
}

/// Check an approximate matrix against the exact one: every pair is
/// answered exactly once, every cell is an admissible lower bound, and
/// every cell at or below the frontier is exact.  Returns the number of
/// cells in the frontier.
pub fn check_approx(approx: &DistanceMatrix, stats: &ApproxStats, exact: &DistanceMatrix) -> u64 {
    let n = approx.len();
    let n_pairs = (n * n.saturating_sub(1) / 2) as u64;
    assert_eq!(stats.pairs, n_pairs);
    assert_eq!(
        stats.bucketed + stats.lb_pruned + stats.cutoff + stats.exact_solves,
        n_pairs,
        "every pair must be bucketed, pruned, cut off or solved"
    );
    let mut in_frontier = 0u64;
    for (i, j) in DistanceMatrix::upper_pairs(n) {
        let (a, e) = (approx.get(i, j), exact.get(i, j));
        assert!(a <= e + 1e-12, "approx cell ({i},{j}) = {a} over-estimates exact {e}");
        if a <= stats.frontier {
            assert_eq!(a, e, "in-frontier cell ({i},{j}) must be exact");
            in_frontier += 1;
        }
    }
    in_frontier
}
