//! `reproduce` and `figures`: the paper's Figs. 4–14 from freshly indexed
//! codebase DBs.
//!
//! Set-up indexes the four apps (with coverage) and the Fortran ports.
//! Each timed pass first decodes fresh copies of those DBs from their
//! svpack bytes (untimed), so every pass starts with cold tree memos, then
//! computes the figure operations.  One op is one figure element: a
//! matrix + dendrogram, one heatmap row, one migration row, one cascade or
//! one navigation chart.  `reproduce` computes all 57 elements per pass
//! (8–12 s).  `figures` keeps the 35 elements whose tree distances are
//! on the small codebases (about 0.3 s per pass), so a run takes some
//! fifty passes.

use crate::harness::{Amount, Block, Config, Extras, Op, Report, Workload};
use crate::stats::Digest;
use silvervale::{
    divergence_from, index_app, index_fortran, model_matrix, navigation_chart, CodebaseDb,
};
use std::time::Instant;
use svcluster::{cluster_rows, Heatmap};
use svcorpus::{App, Model};
use svmetrics::{divergence_matrix_seq, Measured, Metric, Variant};
use svtrace::span;

/// The DBs a pass reads: the four apps, then the Fortran ports.
const DB_FORTRAN: usize = 4;

/// The six metrics of Figs. 5 and 6.
const SIX: [Metric; 6] =
    [Metric::Lloc, Metric::Sloc, Metric::Source, Metric::TSrc, Metric::TSem, Metric::TIr];

/// The 16 rows of the Fig. 7/8 heatmaps.
const HEATMAP_ROWS: [(Metric, Variant); 16] = [
    (Metric::Sloc, Variant::PLAIN),
    (Metric::Sloc, Variant::PP),
    (Metric::Sloc, Variant::COVERAGE),
    (Metric::Lloc, Variant::PLAIN),
    (Metric::Lloc, Variant::PP),
    (Metric::Source, Variant::PLAIN),
    (Metric::Source, Variant::PP),
    (Metric::Source, Variant::COVERAGE),
    (Metric::TSrc, Variant::PLAIN),
    (Metric::TSrc, Variant::PP),
    (Metric::TSrc, Variant::COVERAGE),
    (Metric::TSem, Variant::PLAIN),
    (Metric::TSem, Variant::INLINED),
    (Metric::TSem, Variant::COVERAGE),
    (Metric::TIr, Variant::PLAIN),
    (Metric::TIr, Variant::COVERAGE),
];

/// Which figure elements a pass computes.
#[derive(Clone, Copy, PartialEq)]
pub enum Scope {
    /// Every element of Figs. 4–14: the `reproduce` workload.
    All,
    /// The `figures` workload: the elements that need no tree distance,
    /// plus the tree-metric ones on the Fortran ports and miniBUDE (Fig. 6
    /// and Fig. 7 without its `T_src+pp` and `T_sem+i` rows).  Tree
    /// distances on TeaLeaf and CloverLeaf take 0.1–2 s per element; with
    /// them, ten runs on a shared host spread by 0.24–0.30, against
    /// 0.04–0.18 without them.
    Small,
}

/// One figure operation of a pass.
#[derive(Clone, Copy)]
enum FigOp {
    /// Matrix + dendrogram of one DB under one metric (Figs. 4–6).
    Dendrogram { db: usize, metric: Metric },
    /// Divergence of every model from `base` (Figs. 7–10).
    From { db: usize, metric: Metric, v: Variant, base: &'static str },
    /// Φ cascade (Figs. 11–12).
    Cascade(App),
    /// Navigation chart (Figs. 13–14).
    Navigation(App),
}

fn db_index(app: App) -> usize {
    App::ALL.iter().position(|&a| a == app).expect("app listed")
}

impl FigOp {
    /// True for the elements the `figures` workload keeps.
    fn is_small(self) -> bool {
        match self {
            FigOp::Dendrogram { db, metric } => !is_tree(metric) || db == DB_FORTRAN,
            FigOp::From { db, metric, v, .. } => {
                !is_tree(metric)
                    || (db == db_index(App::MiniBude) && v != Variant::PP && v != Variant::INLINED)
            }
            FigOp::Cascade(_) => true,
            FigOp::Navigation(_) => false,
        }
    }
}

fn pass_ops(scope: Scope) -> Vec<FigOp> {
    let tea = db_index(App::TeaLeaf);
    let mut ops = vec![FigOp::Dendrogram { db: tea, metric: Metric::TSem }];
    ops.extend(SIX.iter().map(|&metric| FigOp::Dendrogram { db: tea, metric }));
    ops.extend(SIX.iter().map(|&metric| FigOp::Dendrogram { db: DB_FORTRAN, metric }));
    for app in [App::MiniBude, App::CloverLeaf] {
        for &(metric, v) in &HEATMAP_ROWS {
            ops.push(FigOp::From { db: db_index(app), metric, v, base: "Serial" });
        }
    }
    for base in ["Serial", "CUDA"] {
        for metric in [Metric::Source, Metric::TSrc, Metric::TSem, Metric::TIr] {
            ops.push(FigOp::From { db: tea, metric, v: Variant::PLAIN, base });
        }
    }
    ops.extend([FigOp::Cascade(App::TeaLeaf), FigOp::Cascade(App::CloverLeaf)]);
    ops.extend([FigOp::Navigation(App::CloverLeaf), FigOp::Navigation(App::TeaLeaf)]);
    if scope == Scope::Small {
        ops.retain(|op| op.is_small());
    }
    ops
}

fn is_tree(metric: Metric) -> bool {
    matches!(metric, Metric::TSrc | Metric::TSem | Metric::TIr)
}

fn measured(db: &CodebaseDb) -> Vec<Measured<'_>> {
    db.entries.iter().map(|e| Measured::of(&e.artifacts)).collect()
}

/// Run one figure op; returns its rendered output (digested for the
/// determinism check) and the pair count it computed.
fn run_op(op: FigOp, dbs: &[CodebaseDb]) -> Result<(String, u64), String> {
    match op {
        FigOp::Dendrogram { db, metric } => {
            let db = &dbs[db];
            let m = if matches!(metric, Metric::Source) {
                let _s = span!("bench.lcs");
                model_matrix(db, metric, Variant::PLAIN)
            } else {
                let _s = span!("bench.matrix");
                model_matrix(db, metric, Variant::PLAIN)
            };
            let d = {
                let _s = span!("bench.cluster");
                cluster_rows(&m)
            };
            let n = m.len() as u64;
            let out =
                format!("{}{}{}", Heatmap::ordered_by(&m, &d).render(), d.render(), d.to_newick());
            Ok((out, n * (n - 1) / 2))
        }
        FigOp::From { db, metric, v, base } => {
            let db = &dbs[db];
            let divs = if matches!(metric, Metric::Source) {
                let _s = span!("bench.lcs");
                divergence_from(db, metric, v, base)
            } else {
                let _s = span!("bench.matrix");
                divergence_from(db, metric, v, base)
            }
            .map_err(|e| e.to_string())?;
            let n = divs.len() as u64;
            Ok((divs.iter().map(|(l, d)| format!("{l}={d:.17e};")).collect(), n))
        }
        FigOp::Cascade(app) => {
            let _s = span!("bench.chart");
            Ok((svperf::cascade(app).to_csv(), 0))
        }
        FigOp::Navigation(app) => {
            let _s = span!("bench.chart");
            let chart = navigation_chart(app, &dbs[db_index(app)]).map_err(|e| e.to_string())?;
            Ok((chart.to_csv(), 2 * (Model::ALL.len() as u64)))
        }
    }
}

pub struct Reproduce {
    /// svpack bytes of the set-up's DBs (apps in `App::ALL` order, then
    /// Fortran); each pass decodes fresh copies.
    packed: Vec<Vec<u8>>,
    /// Seconds each DB of the last set-up took to index and pack.
    setup_steps: Vec<f64>,
    /// Digest of the first set-up's DBs, and whether a later set-up
    /// indexed different bytes.
    inputs_digest: Option<String>,
    setups_differ: bool,
    ops: Vec<FigOp>,
    first_digest: Option<String>,
    pairs_per_pass: u64,
    decompositions: u64,
}

impl Reproduce {
    pub fn new(scope: Scope) -> Reproduce {
        Reproduce {
            packed: Vec::new(),
            setup_steps: Vec::new(),
            inputs_digest: None,
            setups_differ: false,
            ops: pass_ops(scope),
            first_digest: None,
            pairs_per_pass: 0,
            decompositions: 0,
        }
    }

    fn fresh_dbs(&self) -> Result<Vec<CodebaseDb>, String> {
        self.packed.iter().map(|b| CodebaseDb::from_bytes(b).map_err(|e| e.to_string())).collect()
    }
}

impl Workload for Reproduce {
    /// A set-up takes about 2 s.
    const SETUPS: usize = 7;
    const SPREAD_SETUPS: bool = true;
    const REPEATED: bool = true;
    const UNIT: &'static str = "pass";

    fn round(&self) -> usize {
        self.ops.len()
    }

    fn setup(&mut self, _cfg: &Config) -> Result<(), String> {
        let mut packed = Vec::new();
        self.setup_steps.clear();
        for app in App::ALL.into_iter().map(Some).chain([None]) {
            let t = Instant::now();
            let db = {
                let _s = span!("bench.index");
                match app {
                    Some(app) => index_app(app, true),
                    None => index_fortran(),
                }
                .map_err(|e| e.to_string())?
            };
            packed.push(db.to_bytes());
            self.setup_steps.push(t.elapsed().as_secs_f64());
        }
        let mut inputs = Digest::new();
        for b in &packed {
            inputs.add(b);
        }
        let d = inputs.hex();
        self.setups_differ |= *self.inputs_digest.get_or_insert_with(|| d.clone()) != d;
        self.packed = packed;
        Ok(())
    }

    fn setup_steps(&self) -> &[f64] {
        &self.setup_steps
    }

    fn block(&mut self, amount: Amount, rep: &mut Report) -> Block {
        let mut block = Block::default();
        let mut busy = 0.0;
        let dec0 = svdist::decompose_count();
        while !amount.done(block.ops.len(), block.units, 1) {
            let dbs = match self.fresh_dbs() {
                Ok(d) => d,
                Err(e) => {
                    rep.attempted += 1;
                    rep.fail(format!("decode set-up DBs: {e}"));
                    break;
                }
            };
            let mut digest = Digest::new();
            let mut pairs = 0;
            for &op in &self.ops {
                let t = Instant::now();
                let r = run_op(op, &dbs);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                rep.attempted += 1;
                match r {
                    Ok((out, n)) => {
                        digest.add(out.as_bytes());
                        pairs += n;
                    }
                    Err(e) => rep.fail(format!("figure op: {e}")),
                }
                block.ops.push(Op { start_s: busy, ms });
                busy += ms / 1e3;
            }
            // Every pass computes the same figures from the same inputs.
            let d = digest.hex();
            let first = self.first_digest.get_or_insert_with(|| d.clone()).clone();
            rep.check(d == first, || format!("figure digest {d} differs from first pass {first}"));
            self.pairs_per_pass = pairs;
            block.units += 1;
        }
        // Time spent decoding DBs between passes is excluded: the block's
        // wall is the sum of its ops.
        block.wall_s = busy;
        self.decompositions = svdist::decompose_count() - dec0;
        block
    }

    fn check(&mut self, rep: &mut Report) {
        if let Some(d) = &self.inputs_digest {
            rep.note(format!("inputs digest (set-up DBs): {d}"));
        }
        if let Some(d) = &self.first_digest {
            rep.note(format!("figure digest: {d}"));
        }
        // Indexing is deterministic: every set-up packs the same bytes.
        rep.check(!self.setups_differ, || "a set-up indexed DBs that differ from the first".into());
        let dbs = match self.fresh_dbs() {
            Ok(d) => d,
            Err(e) => {
                rep.check(false, || format!("decode: {e}"));
                return;
            }
        };
        // Fig. 4: the parallel matrix equals the sequential oracle bit for
        // bit, and CUDA↔HIP is its tightest pair (EXPERIMENTS.md).
        let tea = &dbs[db_index(App::TeaLeaf)];
        let par = model_matrix(tea, Metric::TSem, Variant::PLAIN);
        let seq =
            divergence_matrix_seq(Metric::TSem, Variant::PLAIN, &tea.labels(), &measured(tea));
        let n = par.len();
        let identical = n == seq.len()
            && par.labels() == seq.labels()
            && (0..n).all(|i| (0..n).all(|j| par.get(i, j).to_bits() == seq.get(i, j).to_bits()));
        rep.check(identical, || "Fig. 4 matrix differs from divergence_matrix_seq".into());
        let mut best = (f64::INFINITY, 0, 0);
        for i in 0..n {
            for j in i + 1..n {
                if par.get(i, j) < best.0 {
                    best = (par.get(i, j), i, j);
                }
            }
        }
        let mut pair = [par.labels()[best.1].as_str(), par.labels()[best.2].as_str()];
        pair.sort_unstable();
        rep.check(pair == ["CUDA", "HIP"], || {
            format!("Fig. 4 tightest pair is {pair:?} at {:.4}, expected CUDA/HIP", best.0)
        });
    }

    fn extras(&mut self, _attr: &crate::attrib::Attribution, block: &Block, x: &mut Extras) {
        let per = block.units.max(1) as f64;
        x.insert("svmetrics.pairs", self.pairs_per_pass as f64);
        x.insert("svdist.decompositions", self.decompositions as f64 / per);
        // DP cells of one pass: every tree-metric pair the figures solve
        // (hash-equal pairs short-circuit without DP and count 0).
        let Ok(dbs) = self.fresh_dbs() else { return };
        let mut cells = 0u64;
        for &op in &self.ops {
            let (db, metric, v, base) = match op {
                FigOp::Dendrogram { db, metric } => (db, metric, Variant::PLAIN, None),
                FigOp::From { db, metric, v, base } => (db, metric, v, Some(base)),
                FigOp::Navigation(app) => {
                    let db = db_index(app);
                    for metric in [Metric::TSem, Metric::TSrc] {
                        cells += from_cells(&dbs[db], metric, Variant::PLAIN, "Serial");
                    }
                    continue;
                }
                FigOp::Cascade(_) => continue,
            };
            if !is_tree(metric) {
                continue;
            }
            cells += match base {
                Some(b) => from_cells(&dbs[db], metric, v, b),
                None => matrix_cells(&dbs[db], metric, v),
            };
        }
        x.insert("svdist.dp_cells", cells as f64 * per);
        // Set-up probe: the 40 coverage runs indexing performs, timed one
        // by one through the interpreter's public entry point.
        let mut run_ms = 0.0;
        let mut runs = 0.0;
        for app in App::ALL {
            for model in Model::ALL {
                let Ok(unit) = svcorpus::unit(app, model) else { continue };
                let t = Instant::now();
                if svexec::run_unit(&unit).is_ok() {
                    run_ms += t.elapsed().as_secs_f64() * 1e3;
                    runs += 1.0;
                }
            }
        }
        x.insert("svexec.run_ms", run_ms);
        x.insert("svexec.runs", runs);
    }
}

fn tree_for(db: &CodebaseDb, i: usize, metric: Metric, v: Variant) -> svdist::SharedTree {
    let e = &db.entries[i];
    let m = match (&e.coverage, v.coverage) {
        (Some(c), true) => Measured::of_with_coverage(&e.artifacts, c),
        _ => Measured::of(&e.artifacts),
    };
    svmetrics::tree_of(&m, metric, v)
}

fn pair_cells(a: &svdist::SharedTree, b: &svdist::SharedTree) -> u64 {
    if a.size() == b.size() && a.structural_hash() == b.structural_hash() {
        return 0;
    }
    svdist::ted::dp_cell_estimate(a.tree(), b.tree(), svdist::Strategy::Auto)
}

fn matrix_cells(db: &CodebaseDb, metric: Metric, v: Variant) -> u64 {
    let trees: Vec<_> = (0..db.entries.len()).map(|i| tree_for(db, i, metric, v)).collect();
    let mut cells = 0;
    for i in 0..trees.len() {
        for j in i + 1..trees.len() {
            cells += pair_cells(&trees[i], &trees[j]);
        }
    }
    cells
}

fn from_cells(db: &CodebaseDb, metric: Metric, v: Variant, base: &str) -> u64 {
    let Some(b) = db.entries.iter().position(|e| e.label == base) else { return 0 };
    let tb = tree_for(db, b, metric, v);
    (0..db.entries.len()).map(|i| pair_cells(&tb, &tree_for(db, i, metric, v))).sum()
}
