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
//! The corpus generator and the cell checks live in `bench::approx`,
//! shared with the `approx_ratio` example, which gates CI on a smaller
//! prefix of the same corpus.  Timings and prefilter accounting land in
//! `target/figures/BENCH_approx.json`.

use bench::approx::{check_approx, corpus, exact_matrix, trees, FAMILIES, VARIANTS};
use bench::save_figure;
use silvervale::{index_app, model_matrix};
use std::time::Instant;
use svcorpus::App;
use svdist::SharedTree;
use svmetrics::{approx_tree_matrix, divergence_matrix_seq, Measured, Metric, Variant};

fn time<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64() * 1e3, r)
}

const UNITS: usize = 1000;

fn main() {
    // -- exact fallback stays bit-identical (approx off) ------------------
    let db = index_app(App::CloverLeaf, false).expect("index cloverleaf");
    let measured: Vec<Measured<'_>> =
        db.entries.iter().map(|e| Measured::of(&e.artifacts)).collect();
    let fig8 = model_matrix(&db, Metric::TSem, Variant::PLAIN);
    let fig8_seq = divergence_matrix_seq(Metric::TSem, Variant::PLAIN, &db.labels(), &measured);
    assert_eq!(fig8, fig8_seq, "approx-off matrix must reproduce the sequential oracle exactly");

    // -- synthetic 1k-unit corpus -----------------------------------------
    let sexprs = corpus(UNITS);
    let labels: Vec<String> = (0..UNITS).map(|u| format!("u{u:04}")).collect();

    // Approx first: every memo (hashes, profiles, decompositions, scratch
    // arenas) is cold.  The exact run gets fresh SharedTrees but inherits
    // warm thread-local arenas — a handicap for the speedup gate, not a
    // boost.
    let approx_trees: Vec<SharedTree> = trees(&sexprs);
    let (approx_ms, (approx, stats)) = time(|| approx_tree_matrix(&labels, &approx_trees));

    let exact_trees: Vec<SharedTree> = trees(&sexprs);
    let (exact_ms, exact) = time(|| exact_matrix(&labels, &exact_trees));

    // Accounting, admissibility and frontier exactness, cell by cell.
    let n_pairs = (UNITS * (UNITS - 1) / 2) as u64;
    let in_frontier = check_approx(&approx, &stats, &exact);

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
