//! Ablation: TED decomposition strategies (§III-B / §IV-E) and the
//! match()-pairing design decision (§III-C).

use bench::{criterion, save_figure};
use svcorpus::{unit, App, Model};
use svdist::ted::{ted, ted_with_mode, CostModel, KernelMode, Strategy};
use svdist::SharedTree;
use svtree::Tree;

/// The production kernel under an explicit decomposition strategy.
fn ted_by_strategy(a: &Tree, b: &Tree, s: Strategy) -> u64 {
    ted_with_mode(a, b, CostModel::UNIT, s, KernelMode::Simd)
}

fn main() {
    let a = unit(App::TeaLeaf, Model::Serial).unwrap().t_sem.clone();
    let b = unit(App::TeaLeaf, Model::Kokkos).unwrap().t_sem.clone();
    let (sa, sb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));

    // All strategies agree on the distance; only runtime differs.
    let mut out = String::from("Ablation — TED strategy agreement on TeaLeaf T_sem pair\n");
    for s in [Strategy::Left, Strategy::Right, Strategy::Auto] {
        let d = ted_by_strategy(&a, &b, s);
        out.push_str(&format!("  {s:?}: d = {d}\n"));
    }

    // Per-operation weights (the paper's future-work knob).
    out.push_str("\nAblation — cost-model weights (delete/insert/relabel)\n");
    for cm in [
        CostModel::UNIT,
        CostModel { delete: 1, insert: 2, relabel: 1 },
        CostModel { delete: 2, insert: 1, relabel: 1 },
        CostModel { delete: 1, insert: 1, relabel: 3 },
    ] {
        let d = ted(&sa, &sb, cm);
        out.push_str(&format!("  d={}/i={}/r={} → {d}\n", cm.delete, cm.insert, cm.relabel));
    }

    // Operation composition of the optimal script (what per-operation
    // weights would act on).
    let stats = svdist::edit_stats(&sa, &sb);
    out.push_str(&format!(
        "\nAblation — edit-script composition (Serial → Kokkos T_sem): \
         {} inserts, {} deletes, {} relabels (total {})\n",
        stats.inserts,
        stats.deletes,
        stats.relabels,
        stats.total()
    ));

    // match() pairing vs one whole-codebase tree (§III-C: "in practice,
    // this adds significant runtime overhead").
    let paired_start = std::time::Instant::now();
    let d_paired = ted(&sa, &sb, CostModel::UNIT);
    let paired_t = paired_start.elapsed();
    let whole_a = SharedTree::new(Tree::node("Codebase", vec![a.clone()]));
    let whole_b = SharedTree::new(Tree::node("Codebase", vec![b.clone()]));
    let whole_start = std::time::Instant::now();
    let d_whole = ted(&whole_a, &whole_b, CostModel::UNIT);
    let whole_t = whole_start.elapsed();
    out.push_str(&format!(
        "\nAblation — match() pairing: d={d_paired} in {paired_t:?}; \
         whole-codebase tree: d={d_whole} in {whole_t:?}\n"
    ));
    save_figure("ablation_ted_strategies.txt", &out);

    let mut c = criterion();
    c.bench_function("ted/left", |bch| bch.iter(|| ted_by_strategy(&a, &b, Strategy::Left)));
    c.bench_function("ted/right", |bch| bch.iter(|| ted_by_strategy(&a, &b, Strategy::Right)));
    c.bench_function("ted/auto", |bch| bch.iter(|| ted_by_strategy(&a, &b, Strategy::Auto)));
    c.final_summary();
}
