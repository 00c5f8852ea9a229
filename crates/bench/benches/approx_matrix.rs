//! Approximate-first corpus matrix: lower-bound prefilter + threshold
//! kernel vs the exact cold path (§VII corpus scale).
//!
//! The exact divergence matrix runs one Zhang–Shasha DP per distinct
//! tree pair — quadratic in units, quartic-ish in tree size — which caps
//! corpora at tens of units.  The approximate engine
//! (`svmetrics::approx_tree_matrix`) buckets hash-equal units, answers
//! far pairs from admissible pq-gram lower bounds and only runs the
//! banded threshold kernel on pairs near the resolution frontier.
//!
//! Workload: a seeded synthetic corpus of 1000 units drawn from 80 base
//! trees (40–80 nodes each, family-specific + shared label palettes);
//! each family contributes its base plus five small relabel mutants,
//! repeated — exactly the duplicate-heavy, cluster-structured shape of a
//! real many-port codebase DB.  Gates:
//!
//! * cold approx build must be ≥5× the cold exact build,
//! * every approx cell is ≤ the exact cell (admissible, never over),
//! * approx cells at or below the frontier equal the exact cells bitwise,
//! * with approx off, `model_matrix` reproduces the sequential oracle
//!   bit-identically on the PR 5 Fig. 8 workload (CloverLeaf `T_sem`).
//!
//! Timings and prefilter accounting land in
//! `target/figures/BENCH_approx.json`.

use bench::save_figure;
use silvervale::{index_app, model_matrix};
use std::time::Instant;
use svcorpus::App;
use svdist::{ted, CostModel, DistanceMatrix, SharedTree};
use svmetrics::{approx_tree_matrix, divergence_matrix_seq, Measured, Metric, Variant};
use svtree::Tree;

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

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

const FAMILIES: usize = 80;
const UNITS: usize = 1000;
const VARIANTS: usize = 6; // base + 5 relabel mutants per family

/// Build the corpus as rendered s-expressions: unit `u` is variant
/// `(u / FAMILIES) % VARIANTS` of family `u % FAMILIES`, so every
/// distinct tree recurs ~2× (exercising the bucketing stage) and every
/// family keeps ≥ VARIANTS−1 near neighbours (keeping the frontier at
/// in-family scale).
fn corpus() -> Vec<String> {
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
    (0..UNITS).map(|u| rendered[u % FAMILIES][(u / FAMILIES) % VARIANTS].clone()).collect()
}

/// The exact cold path over pre-extracted trees: one `ted` per
/// pair in LPT order with the structural-hash short-circuit — the same
/// per-cell work as `divergence_matrix` on a tree metric.
fn exact_matrix(labels: &[String], trees: &[SharedTree]) -> DistanceMatrix {
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

fn main() {
    // -- exact fallback stays bit-identical (approx off) ------------------
    let db = index_app(App::CloverLeaf, false).expect("index cloverleaf");
    let measured: Vec<Measured<'_>> =
        db.entries.iter().map(|e| Measured::of(&e.artifacts)).collect();
    let fig8 = model_matrix(&db, Metric::TSem, Variant::PLAIN);
    let fig8_seq = divergence_matrix_seq(Metric::TSem, Variant::PLAIN, &db.labels(), &measured);
    assert_eq!(fig8, fig8_seq, "approx-off matrix must reproduce the sequential oracle exactly");

    // -- synthetic 1k-unit corpus -----------------------------------------
    let sexprs = corpus();
    let labels: Vec<String> = (0..UNITS).map(|u| format!("u{u:04}")).collect();
    let parse = |s: &String| SharedTree::new(Tree::from_sexpr(s).expect("corpus sexpr"));

    // Approx first: every memo (hashes, profiles, decompositions, scratch
    // arenas) is cold.  The exact run gets fresh SharedTrees but inherits
    // warm thread-local arenas — a handicap for the speedup gate, not a
    // boost.
    let approx_trees: Vec<SharedTree> = sexprs.iter().map(parse).collect();
    let (approx_ms, (approx, stats)) = time(|| approx_tree_matrix(&labels, &approx_trees));

    let exact_trees: Vec<SharedTree> = sexprs.iter().map(parse).collect();
    let (exact_ms, exact) = time(|| exact_matrix(&labels, &exact_trees));

    // Accounting: every pair is answered exactly once, somewhere.
    let n_pairs = (UNITS * (UNITS - 1) / 2) as u64;
    assert_eq!(stats.pairs, n_pairs);
    assert_eq!(
        stats.bucketed + stats.lb_pruned + stats.cutoff + stats.exact_solves,
        n_pairs,
        "every pair must be bucketed, pruned, cut off or solved"
    );

    // Admissibility + frontier exactness, cell by cell.
    let mut in_frontier = 0u64;
    for (i, j) in DistanceMatrix::upper_pairs(UNITS) {
        let (a, e) = (approx.get(i, j), exact.get(i, j));
        assert!(a <= e + 1e-12, "approx cell ({i},{j}) = {a} over-estimates exact {e}");
        if a <= stats.frontier {
            assert_eq!(a, e, "in-frontier cell ({i},{j}) must be exact");
            in_frontier += 1;
        }
    }

    let speedup = exact_ms / approx_ms.max(1e-6);
    let prefilter_rate = (stats.bucketed + stats.lb_pruned) as f64 / n_pairs as f64;
    eprintln!(
        "exact {exact_ms:.0} ms, approx {approx_ms:.0} ms ({speedup:.1}x); \
         {} bucketed, {} lb-pruned, {} cutoff, {} exact solves, frontier {:.4}",
        stats.bucketed, stats.lb_pruned, stats.cutoff, stats.exact_solves, stats.frontier
    );
    assert!(
        speedup >= 5.0,
        "approx engine must be >=5x the cold exact matrix, got {speedup:.2}x \
         ({exact_ms:.0} ms -> {approx_ms:.0} ms)"
    );

    let json = format!(
        "{{\n  \"workload\": \"synthetic corpus: {UNITS} units, {FAMILIES} families x \
         {VARIANTS} variants, 40-80 node trees\",\n  \
         \"units\": {UNITS},\n  \"pairs\": {n_pairs},\n  \
         \"exact_cold_ms\": {exact_ms:.3},\n  \
         \"approx_cold_ms\": {approx_ms:.3},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"bucketed\": {},\n  \"lb_pruned\": {},\n  \"cutoff\": {},\n  \
         \"exact_solves\": {},\n  \
         \"prefilter_hit_rate\": {prefilter_rate:.4},\n  \
         \"frontier\": {:.6},\n  \"cells_in_frontier\": {in_frontier},\n  \
         \"note\": \"approx runs first (all memos cold); every approx cell is an \
         admissible lower bound on the exact normalised divergence and cells at or \
         below the frontier are bitwise-exact, so linkage decisions near the merge \
         order see exact distances; the Fig. 8 CloverLeaf matrix with approx off is \
         asserted bit-identical to the sequential oracle before timing\"\n}}\n",
        stats.bucketed, stats.lb_pruned, stats.cutoff, stats.exact_solves, stats.frontier
    );

    save_figure("BENCH_approx.json", &json);
}
