//! Property-based tests over the core data structures and algorithms.

use proptest::prelude::*;
use std::sync::Arc;
use svdist::ted::{
    cell_width, naive_ted, ted_with_mode, ted_within_with_mode, CellWidth, CostModel, KernelMode,
    Strategy as TedStrategy,
};
use svdist::{
    edit_distance_onp, label_histogram_lb, lcs_len, levenshtein, pqgram_lb, ted, ted_within,
    SharedTree, TreeProfile,
};
use svtree::pack::{compress, decompress, read_tree, write_tree};
use svtree::{Interner, NodeId, Span, Tree, TreeBuilder};

// ---------------------------------------------------------------------------
// generators
// ---------------------------------------------------------------------------

/// A small random labelled tree (≤ `max_nodes` nodes, labels a..e).
fn arb_tree(max_nodes: usize) -> impl Strategy<Value = Tree> {
    // Pre-order label+arity encoding drives a deterministic builder.
    proptest::collection::vec((0u8..5, 0usize..3), 1..max_nodes).prop_map(|spec| {
        let mut tree = Tree::leaf(format!("n{}", spec[0].0));
        let mut frontier = vec![(tree.root().unwrap(), spec[0].1)];
        for &(label, arity) in &spec[1..] {
            // Attach to the first frontier node with remaining capacity.
            while let Some(&(node, remaining)) = frontier.last() {
                if remaining == 0 {
                    frontier.pop();
                } else {
                    frontier.last_mut().unwrap().1 -= 1;
                    let id = tree.push_child(node, format!("n{label}"), None);
                    frontier.push((id, arity));
                    break;
                }
            }
        }
        tree
    })
}

/// A random tree with spans for serialisation tests.
fn arb_spanned_tree() -> impl Strategy<Value = Tree> {
    (arb_tree(20), any::<u32>()).prop_map(|(t, seed)| {
        let mut i = seed % 97;
        let _ = t.map_labels(|l| l.to_string()).prune(|_, _| true).filter_splice(|_, _| true);
        // Rebuild with spans through the builder API.
        let mut b = svtree::TreeBuilder::new("root");
        for n in t.preorder() {
            i = (i * 31 + 7) % 997;
            b.leaf_span(t.label(n), Some(Span::line(i % 5, 1 + i % 100)));
        }
        b.finish()
    })
}

/// Rebuild `t` label-for-label onto `table`, so both operands of a TED sit
/// on one interner and the comparison takes the same-table `Sym` fast path.
fn reinterned_onto(table: &Arc<Interner>, t: &Tree) -> Tree {
    fn go(b: &mut TreeBuilder, t: &Tree, n: NodeId) {
        if t.arity(n) == 0 {
            b.leaf_span(t.label(n), t.span(n));
        } else {
            b.open_span(t.label(n), t.span(n));
            for &c in t.children(n) {
                go(b, t, c);
            }
            b.close();
        }
    }
    match t.root() {
        None => Tree::empty_in(Arc::clone(table)),
        Some(r) => {
            let mut b = TreeBuilder::with_span_in(Arc::clone(table), t.label(r), t.span(r));
            for &c in t.children(r) {
                go(&mut b, t, c);
            }
            b.finish()
        }
    }
}

const STRATEGIES: [TedStrategy; 3] = [TedStrategy::Left, TedStrategy::Right, TedStrategy::Auto];

/// Unit-cost production TED over fresh shared wrappers of plain trees.
fn unit_ted(a: &Tree, b: &Tree) -> u64 {
    ted(&SharedTree::new(a.clone()), &SharedTree::new(b.clone()), CostModel::UNIT)
}

// ---------------------------------------------------------------------------
// TED metric axioms (cross-validated against the independent oracle)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ted_matches_oracle(a in arb_tree(9), b in arb_tree(9)) {
        let expect = naive_ted(&a, &b, CostModel::UNIT);
        prop_assert_eq!(unit_ted(&a, &b), expect);
        for s in STRATEGIES {
            for mode in KernelMode::ALL {
                prop_assert_eq!(ted_with_mode(&a, &b, CostModel::UNIT, s, mode), expect);
            }
        }
    }

    #[test]
    fn ted_matches_oracle_under_random_cost_models(
        a in arb_tree(8),
        b in arb_tree(8),
        del in 1u32..50,
        ins in 1u32..50,
        rel in 1u32..50,
    ) {
        // Non-unit weights: the production entry and every strategy of
        // the production kernel must agree with the independent
        // recursive oracle.
        let costs = CostModel { delete: del, insert: ins, relabel: rel };
        let expect = naive_ted(&a, &b, costs);
        prop_assert_eq!(ted(&SharedTree::new(a.clone()), &SharedTree::new(b.clone()), costs), expect);
        for s in STRATEGIES {
            prop_assert_eq!(ted_with_mode(&a, &b, costs, s, KernelMode::Simd), expect);
        }
    }

    #[test]
    fn kernel_modes_match_oracle_under_boundary_cost_models(
        a in arb_tree(8),
        b in arb_tree(8),
        del_i in 0usize..8,
        ins_i in 0usize..8,
        rel_i in 0usize..7,
    ) {
        // Weight palette mixing tiny values (narrow kernel) with boundary
        // values near u32::MAX (u64 fallback), zero-cost operations
        // (degenerate ramps/scans in the vector kernel), and 1.5e9, where
        // one-node trees still fit u32 cells but 3·cost does not.
        const DEL: [u32; 8] = [1, 2, 49, 1 << 27, 1_500_000_000, u32::MAX - 1, u32::MAX, 0];
        const INS: [u32; 8] = [1, 3, 47, 1 << 27, 1_500_000_000, u32::MAX - 1, u32::MAX, 0];
        const REL: [u32; 7] = [1, 5, 43, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        let (del, ins, rel) = (DEL[del_i], INS[ins_i], REL[rel_i]);
        // Every kernel — the allocating baseline, the scalar arena kernel
        // and the SIMD kernel — must agree with the oracle under every
        // strategy, including near-u32::MAX weights that force the u64
        // fallback (the adaptive selection is what keeps the narrow
        // kernel from ever wrapping).
        let costs = CostModel { delete: del, insert: ins, relabel: rel };
        // Both orientations: under asymmetric costs the swapped pair is a
        // different problem (and a one-node tree on either side may be
        // the narrow-cell target).
        for (x, y) in [(&a, &b), (&b, &a)] {
            let expect = naive_ted(x, y, costs);
            for mode in KernelMode::ALL {
                for s in STRATEGIES {
                    prop_assert_eq!(ted_with_mode(x, y, costs, s, mode), expect);
                }
            }
        }
        // Small weights must actually exercise the narrow kernel; huge
        // weights must be classified as needing u64 cells.
        if del <= 49 && ins <= 49 && rel <= 49 {
            prop_assert_eq!(cell_width(a.size(), b.size(), costs), CellWidth::U32);
        }
        if del >= u32::MAX - 1 || ins >= u32::MAX - 1 {
            prop_assert_eq!(cell_width(a.size(), b.size(), costs), CellWidth::U64);
        }
    }

    #[test]
    fn hash_equal_short_circuit_matches_full_dp(
        a in arb_tree(10),
        b in arb_tree(10),
        duplicate in any::<bool>(),
    ) {
        // `ted` short-circuits hash-equal pairs to 0 without any DP;
        // `ted_with_mode` bypasses that and always runs the kernel.  On
        // randomly duplicated trees (and on arbitrary pairs) both answers
        // must coincide — the short-circuit is an optimisation, never an
        // approximation.
        let b = if duplicate { a.clone() } else { b };
        let full = ted_with_mode(&a, &b, CostModel::UNIT, TedStrategy::Auto, KernelMode::Full);
        let fast = unit_ted(&a, &b);
        prop_assert_eq!(fast, full);
        if duplicate {
            prop_assert_eq!(fast, 0);
        }
    }

    #[test]
    fn interned_ted_matches_string_oracle_under_random_cost_models(
        a in arb_tree(8),
        b in arb_tree(8),
        del in 1u32..50,
        ins in 1u32..50,
        rel in 1u32..50,
    ) {
        // The interned-symbol comparison has two code paths — same-table
        // `Sym` equality and cross-table memoised label hashes — and both
        // must agree with the string-labelled recursive oracle, memoised
        // views or not.
        let costs = CostModel { delete: del, insert: ins, relabel: rel };
        let expect = naive_ted(&a, &b, costs);
        // Cross-table: each arb tree has its own interner.  Same-table:
        // rebuild b onto a's interner.
        let b_same = reinterned_onto(a.interner(), &b);
        let (sa, sb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
        prop_assert_eq!(ted(&sa, &sb, costs), expect);
        prop_assert_eq!(ted(&sa, &SharedTree::new(b_same.clone()), costs), expect);
        for s in STRATEGIES {
            prop_assert_eq!(ted_with_mode(&a, &b, costs, s, KernelMode::Simd), expect);
            prop_assert_eq!(ted_with_mode(&a, &b_same, costs, s, KernelMode::Simd), expect);
        }
    }

    #[test]
    fn shared_divergence_matches_plain(a in arb_tree(10), b in arb_tree(10)) {
        // The artifact layer must be invisible: memoised decompositions
        // give bit-identical distances to the fresh-build path.
        let (sa, sb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
        let plain = ted_with_mode(&a, &b, CostModel::UNIT, TedStrategy::Auto, KernelMode::Simd);
        // Twice: the first call populates the memos, the second reuses them.
        for _ in 0..2 {
            prop_assert_eq!(ted(&sa, &sb, CostModel::UNIT), plain);
        }
    }

    #[test]
    fn ted_identity_and_symmetry(a in arb_tree(12), b in arb_tree(12)) {
        prop_assert_eq!(unit_ted(&a, &a), 0);
        prop_assert_eq!(unit_ted(&a, &b), unit_ted(&b, &a));
    }

    #[test]
    fn ted_bounded_by_sizes(a in arb_tree(12), b in arb_tree(12)) {
        let d = unit_ted(&a, &b);
        prop_assert!(d <= (a.size() + b.size()) as u64);
        prop_assert!(d >= a.size().abs_diff(b.size()) as u64);
    }

    #[test]
    fn ted_triangle_inequality(a in arb_tree(7), b in arb_tree(7), c in arb_tree(7)) {
        // TED is a true metric on ordered labelled trees.
        let (a, b, c) = (SharedTree::new(a), SharedTree::new(b), SharedTree::new(c));
        let ab = ted(&a, &b, CostModel::UNIT);
        let bc = ted(&b, &c, CostModel::UNIT);
        let ac = ted(&a, &c, CostModel::UNIT);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn lower_bound_chain_is_admissible(
        a in arb_tree(9),
        b in arb_tree(9),
        del_i in 0usize..6,
        ins_i in 0usize..6,
        rel_i in 0usize..6,
    ) {
        // The approximate engine's prefilter chain: the label-histogram
        // bound never exceeds the pq-gram bound, and neither ever exceeds
        // the true TED — under unit and boundary cost models alike.
        const DEL: [u32; 6] = [1, 2, 49, 1 << 27, u32::MAX - 1, u32::MAX];
        const INS: [u32; 6] = [1, 3, 47, 1 << 27, u32::MAX - 1, u32::MAX];
        const REL: [u32; 6] = [1, 5, 43, 1 << 27, u32::MAX - 1, u32::MAX];
        for costs in [
            CostModel::UNIT,
            CostModel { delete: DEL[del_i], insert: INS[ins_i], relabel: REL[rel_i] },
        ] {
            let (pa, pb) = (TreeProfile::build(&a), TreeProfile::build(&b));
            let hist = label_histogram_lb(&pa, &pb, costs);
            let pq = pqgram_lb(&pa, &pb, costs);
            let exact = ted_with_mode(&a, &b, costs, TedStrategy::Auto, KernelMode::Simd);
            prop_assert!(hist <= pq, "hist lb {hist} > pqgram lb {pq}");
            prop_assert!(pq <= exact, "pqgram lb {pq} > ted {exact} ({costs:?})");
        }
    }

    #[test]
    fn ted_within_agrees_with_exact_at_every_threshold(
        a in arb_tree(9),
        b in arb_tree(9),
        del_i in 0usize..7,
        ins_i in 0usize..7,
        rel_i in 0usize..7,
    ) {
        // `ted_within(tau)` returns `Some(d)` iff the exact distance is
        // `d <= tau` — at tau right below, at, and above the distance,
        // under boundary cost models, through the production entry
        // (profile prefilter + memoized decompositions) and through the
        // allocating baseline, the scalar banded and the vector banded
        // kernels in every strategy.
        const DEL: [u32; 7] = [1, 2, 49, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        const INS: [u32; 7] = [1, 3, 47, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        const REL: [u32; 7] = [1, 5, 43, 1 << 27, u32::MAX - 1, u32::MAX, 0];
        let costs = CostModel { delete: DEL[del_i], insert: INS[ins_i], relabel: REL[rel_i] };
        let (sa, sb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
        let exact = ted(&sa, &sb, costs);
        let taus = [
            0,
            exact.saturating_sub(1),
            exact,
            exact.saturating_add(1),
            exact.saturating_mul(2).saturating_add(3),
        ];
        for tau in taus {
            let want = (exact <= tau).then_some(exact);
            prop_assert_eq!(
                ted_within(&sa, &sb, costs, tau), want,
                "tau={} exact={} {:?}", tau, exact, costs
            );
            for mode in KernelMode::ALL {
                for s in STRATEGIES {
                    prop_assert_eq!(
                        ted_within_with_mode(&a, &b, costs, s, tau, mode), want,
                        "{:?} {:?} disagrees at tau={} {:?}", mode, s, tau, costs
                    );
                }
            }
        }
    }

    // -----------------------------------------------------------------------
    // serialisation roundtrips
    // -----------------------------------------------------------------------

    #[test]
    fn svpack_tree_roundtrip(t in arb_spanned_tree()) {
        let bytes = write_tree(&t);
        prop_assert_eq!(bytes[4], 2, "writer emits the v2 columnar format");
        let back = read_tree(&bytes).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn svz_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn svz_roundtrip_repetitive(pattern in proptest::collection::vec(any::<u8>(), 1..32),
                                reps in 1usize..256) {
        let data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * reps).collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    // -----------------------------------------------------------------------
    // sequence distances
    // -----------------------------------------------------------------------

    #[test]
    fn onp_equals_lcs_identity(a in proptest::collection::vec(0u8..4, 0..64),
                               b in proptest::collection::vec(0u8..4, 0..64)) {
        let d = edit_distance_onp(&a, &b);
        let l = lcs_len(&a, &b);
        prop_assert_eq!(d, a.len() + b.len() - 2 * l);
    }

    #[test]
    fn levenshtein_sandwich(a in proptest::collection::vec(0u8..4, 0..48),
                            b in proptest::collection::vec(0u8..4, 0..48)) {
        let lev = levenshtein(&a, &b);
        let onp = edit_distance_onp(&a, &b);
        prop_assert!(lev <= onp);
        prop_assert!(onp <= 2 * lev);
    }

    #[test]
    fn sequence_metric_axioms(a in proptest::collection::vec(0u8..4, 0..48),
                              b in proptest::collection::vec(0u8..4, 0..48)) {
        prop_assert_eq!(edit_distance_onp(&a, &a), 0);
        prop_assert_eq!(edit_distance_onp(&a, &b), edit_distance_onp(&b, &a));
    }

    // -----------------------------------------------------------------------
    // JSON roundtrip
    // -----------------------------------------------------------------------

    #[test]
    fn json_string_roundtrip(s in "\\PC*") {
        use silvervale::svjson::{parse, Json};
        let doc = Json::Str(s.clone()).to_string_compact();
        prop_assert_eq!(parse(&doc).unwrap(), Json::Str(s));
    }

    #[test]
    fn json_number_roundtrip(v in -1.0e12f64..1.0e12) {
        use silvervale::svjson::{parse, Json};
        let doc = Json::Num(v).to_string_compact();
        let back = parse(&doc).unwrap().as_f64().unwrap();
        prop_assert!((back - v).abs() <= v.abs() * 1e-12 + 1e-9);
    }

    // -----------------------------------------------------------------------
    // clustering invariants
    // -----------------------------------------------------------------------

    #[test]
    fn clustering_invariants(dists in proptest::collection::vec(0.0f64..10.0, 6)) {
        use svcluster::{cluster, Linkage};
        use svdist::DistanceMatrix;
        // 4 items, 6 condensed entries.
        let mut m = DistanceMatrix::new(
            (0..4).map(|i| format!("m{i}")).collect()
        );
        let mut k = 0;
        for i in 0..4 {
            for j in (i + 1)..4 {
                m.set(i, j, dists[k]);
                k += 1;
            }
        }
        let d = cluster(&m, Linkage::Complete);
        prop_assert_eq!(d.merges.len(), 3);
        // Complete-linkage merge heights are monotone non-decreasing.
        for w in d.merges.windows(2) {
            prop_assert!(w[0].height <= w[1].height + 1e-12);
        }
        // Leaf order is a permutation.
        let mut order = d.leaf_order();
        order.sort_unstable();
        prop_assert_eq!(order, vec![0, 1, 2, 3]);
        // Flat cuts partition the items.
        for k in 1..=4usize {
            let cuts = d.cut(k);
            let total: usize = cuts.iter().map(Vec::len).sum();
            prop_assert_eq!(total, 4);
        }
    }

    #[test]
    fn nn_chain_matches_greedy_on_random_matrices(
        vals in proptest::collection::vec(0u32..1000, 10)
    ) {
        use svcluster::{cluster, cluster_greedy, Linkage};
        use svdist::DistanceMatrix;
        // 5 items, 10 condensed entries — distinct by construction (the
        // `k * 1e-7` tilt breaks every tie even after shrinking), so the
        // canonicalised dendrograms of the O(n³) greedy scan and the
        // O(n²) NN-chain must coincide exactly for the combinatorial
        // linkages.
        let labels: Vec<String> = (0..5).map(|i| format!("m{i}")).collect();
        let mut m = DistanceMatrix::new(labels.clone());
        let mut k = 0;
        for i in 0..5 {
            for j in (i + 1)..5 {
                m.set(i, j, vals[k] as f64 + k as f64 * 1e-7);
                k += 1;
            }
        }
        for linkage in [Linkage::Single, Linkage::Complete] {
            let chain = cluster(&m, linkage);
            let greedy = cluster_greedy(&m, linkage);
            prop_assert_eq!(&chain, &greedy, "{:?}", linkage);
        }
        // Average linkage computes each height as a differently-ordered
        // f64 sum in the two algorithms, so heights may differ in final
        // ulps; compare the induced ultrametric instead (skipping the
        // measure-zero near-tie inputs where an ulp can flip a merge).
        let chain = cluster(&m, Linkage::Average);
        let greedy = cluster_greedy(&m, Linkage::Average);
        let mut heights: Vec<f64> = greedy.merges.iter().map(|mg| mg.height).collect();
        heights.sort_by(f64::total_cmp);
        if heights.windows(2).all(|w| w[1] - w[0] > 1e-6) {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    let (ca, cg) = (
                        chain.cophenetic(&labels[i], &labels[j]).unwrap(),
                        greedy.cophenetic(&labels[i], &labels[j]).unwrap(),
                    );
                    prop_assert!(
                        (ca - cg).abs() <= 1e-9,
                        "cophenetic({}, {}) chain {} vs greedy {}", i, j, ca, cg
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// frontend robustness: arbitrary input must never panic
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cpp_frontend_never_panics(src in "[a-z0-9 \\n\\t{}()\\[\\];,.*+<>=&|!#\"'/-]{0,200}") {
        use svlang::source::SourceSet;
        use svlang::unit::{compile_unit, UnitOptions};
        let mut ss = SourceSet::new();
        let m = ss.add("fuzz.cpp", src);
        // Ok or Err are both fine; panics are not.
        let _ = compile_unit(&ss, m, &UnitOptions::default());
    }

    #[test]
    fn fortran_frontend_never_panics(src in "[a-z0-9 \\n(),:=+*!$.-]{0,200}") {
        use svlang::fortran::parse_fortran;
        use svlang::source::FileId;
        let _ = parse_fortran(&src, FileId(0), "fuzz.f90");
    }

    #[test]
    fn compile_commands_parser_never_panics(src in "[\\[\\]{}\",:a-z0-9 .\\\\/-]{0,200}") {
        let _ = silvervale::parse_compile_commands(&src);
    }

    #[test]
    fn db_loader_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = silvervale::CodebaseDb::from_bytes(&bytes);
    }

    #[test]
    fn tree_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_tree(&bytes);
        let _ = decompress(&bytes);
    }
}

// ---------------------------------------------------------------------------
// decoder mutation tier: valid payloads, one corruption each
// ---------------------------------------------------------------------------

/// One corruption of a valid payload, chosen by `kind`: flip bits of one
/// byte, truncate, or overwrite bytes with a varint of `bits` set bits
/// (an inflated length, count, distance or line delta wherever it lands).
fn corrupt(bytes: &[u8], kind: u8, at: u32, flip: u8, bits: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    if b.is_empty() {
        return b;
    }
    let at = at as usize % b.len();
    match kind % 3 {
        0 => b[at] ^= flip.max(1),
        1 => b.truncate(at),
        _ => {
            let mut v = Vec::new();
            svtree::pack::write_varint(&mut v, u64::MAX >> (64 - bits));
            let end = (at + v.len()).min(b.len());
            b.splice(at..end, v);
        }
    }
    b
}

/// Declared length of an svz payload, when its header still parses.
fn svz_declared(payload: &[u8]) -> Option<u64> {
    let mut pos = 4;
    (payload.len() >= 4).then_some(())?;
    svtree::pack::read_varint(payload, &mut pos).ok()
}

/// A small valid Codebase DB: two entries compiled from real C++ (one with
/// a coverage profile), packed once.
fn small_db_bytes() -> &'static [u8] {
    use std::sync::OnceLock;
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        use svlang::source::SourceSet;
        use svlang::unit::{compile_unit, UnitOptions};
        let mut db = silvervale::CodebaseDb::new("mut");
        for (name, src) in [
            ("a.cpp", "#define N 4\nint f(int x) { return x * N; }\nint main() { return f(1) - 4; }\n"),
            ("b.cpp", "int main() {\n  int s = 0;\n  for (int i = 0; i < 3; i++) s += i;\n  return s - 3;\n}\n"),
        ] {
            let mut ss = SourceSet::new();
            let m = ss.add(name, src);
            let u = compile_unit(&ss, m, &UnitOptions::default()).expect("fixture compiles");
            let mut cov = svtree::mask::CoverageMask::new();
            cov.record(0, 1);
            cov.record(0, 3);
            let cov = (name == "a.cpp").then_some(cov);
            db.push(name, svmetrics::Artifacts::from_unit(&u), cov);
        }
        let bytes = db.to_bytes();
        assert!(silvervale::CodebaseDb::from_bytes(&bytes).unwrap() == db);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn svz_mutations_are_typed_and_bounded(
        pattern in proptest::collection::vec(any::<u8>(), 1..24),
        reps in 1usize..200,
        tail in proptest::collection::vec(any::<u8>(), 0..64),
        kind in 0u8..3, at in any::<u32>(), flip in any::<u8>(), bits in 8u32..64,
    ) {
        let mut data: Vec<u8> = pattern.iter().copied().cycle().take(pattern.len() * reps).collect();
        data.extend_from_slice(&tail);
        let bad = corrupt(&compress(&data), kind, at, flip, bits);
        if let Ok(out) = decompress(&bad) {
            let declared = svz_declared(&bad).expect("a decoded payload has a header");
            prop_assert!(out.len() as u64 <= declared, "{} > {}", out.len(), declared);
        }
    }

    #[test]
    fn tree_mutations_are_typed(t in arb_spanned_tree(),
                                kind in 0u8..3, at in any::<u32>(), flip in any::<u8>(),
                                bits in 8u32..64) {
        let _ = read_tree(&corrupt(&write_tree(&t), kind, at, flip, bits));
    }

    #[test]
    fn db_container_mutations_are_typed(kind in 0u8..3, at in any::<u32>(), flip in any::<u8>(),
                                        bits in 8u32..64) {
        let _ = silvervale::CodebaseDb::from_bytes(&corrupt(small_db_bytes(), kind, at, flip, bits));
    }

    /// Corrupt the uncompressed body and recompress it, so the corruption
    /// reaches the record decoder instead of stopping at svz.
    #[test]
    fn db_body_mutations_are_typed(kind in 0u8..3, at in any::<u32>(), flip in any::<u8>(),
                                   bits in 8u32..64) {
        let bytes = small_db_bytes();
        let body = decompress(&bytes[4..]).unwrap();
        let mut bad = bytes[..4].to_vec();
        bad.extend_from_slice(&compress(&corrupt(&body, kind, at, flip, bits)));
        let _ = silvervale::CodebaseDb::from_bytes(&bad);
    }
}

// ---------------------------------------------------------------------------
// svpar: largest-first scheduling
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `par_tasks_lpt` only reorders the claims: for constant, reversed and
    /// random cost estimates its results come back in input order, equal to
    /// the sequential map.
    #[test]
    fn par_tasks_lpt_returns_input_order(costs in proptest::collection::vec(any::<u64>(), 0..48)) {
        let items: Vec<usize> = (0..costs.len()).collect();
        // Uneven per-item work, so the workers' claims interleave.
        let f = |&i: &usize| (i, (0..(costs[i] % 2048)).fold(i as u64, |h, k| h.rotate_left(5) ^ k));
        let expect: Vec<(usize, u64)> = items.iter().map(f).collect();
        let estimators: [&dyn Fn(&usize) -> u64; 3] =
            [&|_| 7, &|&i| i as u64, &|&i| costs[i]];
        for est in estimators {
            prop_assert_eq!(svpar::par_tasks_lpt(&items, est, f), expect.clone());
        }
    }
}
