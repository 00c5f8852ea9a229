//! # svmetrics — the TBMD metric family (Table I of the paper)
//!
//! Implements every codebase-summarisation metric the paper evaluates:
//!
//! | Metric   | Measure                  | Domain     | Variants          |
//! |----------|--------------------------|------------|-------------------|
//! | `SLOC`   | absolute                 | perceived  | +pp, +coverage    |
//! | `LLOC`   | absolute                 | perceived  | +pp, +coverage    |
//! | `Source` | relative (edit distance) | perceived  | +pp, +coverage    |
//! | `T_src`  | relative (TED)           | perceived  | +pp, +coverage    |
//! | `T_sem`  | relative (TED)           | semantic   | +inlining, +cov   |
//! | `T_ir`   | relative (TED)           | semantic   | +coverage         |
//!
//! Distances between codebases follow Eq. 6 (sum of TED over matched unit
//! pairs) normalised by Eq. 7's `dmax` (total node count of the target
//! trees); `Source` uses the Wu–Manber–Myers O(NP) distance over
//! normalised lines; `SLOC`/`LLOC` are absolute counts whose pairwise
//! "distance" is the absolute difference (which is exactly why their
//! clustering comes out random — they carry no semantic information).

pub mod secondary;

use svdist::{edit_distance_onp, ted, CostModel, DistanceMatrix, SharedTree};
use svlang::unit::Unit;
use svtree::mask::CoverageMask;

/// Process-global observability handles, resolved once: a TED pair
/// counter, the Eq. 7 `dmax` running total, and a distance histogram —
/// the §V normalisation accounting, inspectable via `svtrace::global()`.
mod obs {
    use std::sync::{Arc, OnceLock};
    use svtrace::{Counter, Histogram};

    pub fn ted_pairs() -> &'static Arc<Counter> {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| svtrace::global().counter("svmetrics.ted_pairs"))
    }

    pub fn dmax_total() -> &'static Arc<Counter> {
        static C: OnceLock<Arc<Counter>> = OnceLock::new();
        C.get_or_init(|| svtrace::global().counter("svmetrics.dmax_total"))
    }

    pub fn distance_hist() -> &'static Arc<Histogram> {
        static H: OnceLock<Arc<Histogram>> = OnceLock::new();
        H.get_or_init(|| {
            svtrace::global()
                .histogram("svmetrics.pair_distance", &Histogram::exponential(1, 2.0, 24))
        })
    }

    /// Record one pairwise computation into the global registry.
    pub fn record_pair(distance: u64, dmax: u64) {
        ted_pairs().inc();
        dmax_total().add(dmax);
        distance_hist().record(distance);
    }
}

/// The per-unit artefacts every metric consumes — exactly what the
/// paper's Codebase DB persists ("a portable set of semantic-bearing
/// trees and metadata files").  Detached from [`Unit`] so the database
/// layer can store and reload it without keeping ASTs alive.
///
/// Trees are held as [`SharedTree`]s: immutable, `Arc`-shared, with
/// lazily memoised derived views (structural hash, left/right TED
/// decompositions).  Cloning `Artifacts` clones the `Arc`s, so every
/// consumer of the same artefact set shares one set of memos.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifacts {
    pub name: String,
    pub lines_pre: Vec<String>,
    pub line_locs_pre: Vec<(u32, u32)>,
    pub lines_post: Vec<String>,
    pub line_locs_post: Vec<(u32, u32)>,
    pub sloc_pre: usize,
    pub lloc_pre: usize,
    pub sloc_post: usize,
    pub lloc_post: usize,
    pub t_src: SharedTree,
    pub t_src_pp: SharedTree,
    pub t_sem: SharedTree,
    pub t_sem_inl: SharedTree,
    pub t_ir: SharedTree,
}

impl Artifacts {
    /// Extract (and finalise: lowers `T_ir`) from a compiled unit.
    pub fn from_unit(u: &Unit) -> Artifacts {
        Artifacts {
            name: u.name.clone(),
            lines_pre: u.lines_pre.clone(),
            line_locs_pre: u.line_locs_pre.clone(),
            lines_post: u.lines_post.clone(),
            line_locs_post: u.line_locs_post.clone(),
            sloc_pre: u.sloc_pre,
            lloc_pre: u.lloc_pre,
            sloc_post: u.sloc_post,
            lloc_post: u.lloc_post,
            t_src: u.t_src.clone().into(),
            t_src_pp: u.t_src_pp.clone().into(),
            t_sem: u.t_sem.clone().into(),
            t_sem_inl: u.t_sem_inl.clone().into(),
            t_ir: svir::t_ir(u).into(),
        }
    }
}

/// The metric axis of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    Sloc,
    Lloc,
    Source,
    TSrc,
    TSem,
    TIr,
    /// The prior state of the art the paper improves on: Pennycook et
    /// al.'s *code divergence* — Jaccard distance over the textually
    /// distinct normalised source lines of two codebases.  Implemented as
    /// the comparison baseline.
    CodeDivergence,
}

impl Metric {
    pub const ALL: [Metric; 7] = [
        Metric::Sloc,
        Metric::Lloc,
        Metric::Source,
        Metric::TSrc,
        Metric::TSem,
        Metric::TIr,
        Metric::CodeDivergence,
    ];

    pub fn name(&self) -> &'static str {
        match self {
            Metric::Sloc => "SLOC",
            Metric::Lloc => "LLOC",
            Metric::Source => "Source",
            Metric::TSrc => "T_src",
            Metric::TSem => "T_sem",
            Metric::TIr => "T_ir",
            Metric::CodeDivergence => "CodeDiv",
        }
    }

    /// Whether the metric is absolute (one number per codebase) rather
    /// than relative (defined on pairs).
    pub fn is_absolute(&self) -> bool {
        matches!(self, Metric::Sloc | Metric::Lloc)
    }

    /// Whether the metric captures semantic (compiler-level) information.
    pub fn is_semantic(&self) -> bool {
        matches!(self, Metric::TSem | Metric::TIr)
    }
}

/// Variant modifiers of Table I.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Variant {
    /// `+preprocessor`: measure the post-preprocessing view.
    pub preprocessor: bool,
    /// `+inlining`: use `T_sem+i` (only affects `T_sem`).
    pub inlining: bool,
    /// `+coverage`: mask through runtime line coverage.
    pub coverage: bool,
}

impl Variant {
    pub const PLAIN: Variant = Variant { preprocessor: false, inlining: false, coverage: false };
    pub const PP: Variant = Variant { preprocessor: true, inlining: false, coverage: false };
    pub const INLINED: Variant = Variant { preprocessor: false, inlining: true, coverage: false };
    pub const COVERAGE: Variant = Variant { preprocessor: false, inlining: false, coverage: true };

    pub fn label(&self) -> String {
        let mut s = String::new();
        if self.preprocessor {
            s.push_str("+pp");
        }
        if self.inlining {
            s.push_str("+inline");
        }
        if self.coverage {
            s.push_str("+cov");
        }
        s
    }
}

/// Artefacts together with an optional coverage profile.
pub struct Measured<'a> {
    pub art: std::borrow::Cow<'a, Artifacts>,
    pub coverage: Option<&'a CoverageMask>,
}

impl<'a> Measured<'a> {
    /// Measure a freshly compiled unit (artefacts extracted on the spot).
    pub fn new(unit: &Unit) -> Measured<'static> {
        Measured { art: std::borrow::Cow::Owned(Artifacts::from_unit(unit)), coverage: None }
    }

    /// Measure a unit with its runtime coverage profile.
    pub fn with_coverage(unit: &Unit, coverage: &'a CoverageMask) -> Measured<'a> {
        Measured {
            art: std::borrow::Cow::Owned(Artifacts::from_unit(unit)),
            coverage: Some(coverage),
        }
    }

    /// Measure stored artefacts (the Codebase-DB path).
    pub fn of(art: &'a Artifacts) -> Measured<'a> {
        Measured { art: std::borrow::Cow::Borrowed(art), coverage: None }
    }

    /// Stored artefacts plus coverage.
    pub fn of_with_coverage(art: &'a Artifacts, coverage: &'a CoverageMask) -> Measured<'a> {
        Measured { art: std::borrow::Cow::Borrowed(art), coverage: Some(coverage) }
    }
}

/// Select (and mask) the tree a tree-based metric compares.
///
/// Plain variants return an `Arc` clone of the stored [`SharedTree`],
/// so repeated comparisons of the same artefact reuse its memoised
/// decompositions; only the coverage variant materialises a new tree.
pub fn tree_of(m: &Measured<'_>, metric: Metric, v: Variant) -> SharedTree {
    let base = match metric {
        Metric::TSrc => {
            if v.preprocessor {
                m.art.t_src_pp.clone()
            } else {
                m.art.t_src.clone()
            }
        }
        Metric::TSem => {
            if v.inlining {
                m.art.t_sem_inl.clone()
            } else {
                m.art.t_sem.clone()
            }
        }
        Metric::TIr => m.art.t_ir.clone(),
        _ => panic!("tree_of called for non-tree metric {metric:?}"),
    };
    match (v.coverage, m.coverage) {
        (true, Some(cov)) => SharedTree::new(cov.apply(&base)),
        _ => base,
    }
}

/// Normalised source lines under a variant (coverage filters lines whose
/// location never executed).
pub fn lines_of(m: &Measured<'_>, v: Variant) -> Vec<String> {
    let (lines, locs) = if v.preprocessor {
        (&m.art.lines_post, &m.art.line_locs_post)
    } else {
        (&m.art.lines_pre, &m.art.line_locs_pre)
    };
    match (v.coverage, m.coverage) {
        (true, Some(cov)) => lines
            .iter()
            .zip(locs)
            .filter(|(_, (f, l))| cov.covers(Some(svtree::Span::line(*f, *l))))
            .map(|(s, _)| s.clone())
            .collect(),
        _ => lines.clone(),
    }
}

/// Absolute measure of a unit (SLOC / LLOC; Eqs. 2–3 are the sums over a
/// codebase's units).
pub fn absolute(m: &Measured<'_>, metric: Metric, v: Variant) -> usize {
    match metric {
        Metric::Sloc => lines_of(m, v).len(),
        Metric::Lloc => {
            // LLOC has no per-line location (it is token-derived); the
            // coverage variant approximates by scaling with the covered
            // line fraction, matching how gcov reports logical coverage.
            let raw = if v.preprocessor { m.art.lloc_post } else { m.art.lloc_pre };
            if v.coverage && m.coverage.is_some() {
                let total = if v.preprocessor { m.art.sloc_post } else { m.art.sloc_pre };
                let covered = lines_of(m, v).len();
                (raw * covered).checked_div(total).unwrap_or(0)
            } else {
                raw
            }
        }
        other => panic!("absolute() called for relative metric {other:?}"),
    }
}

/// A relative divergence: raw distance plus the `dmax` normaliser (Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Divergence {
    /// `d(C1, C2)` — Eq. 6 (or the O(NP) distance for `Source`,
    /// or `|a-b|` for the absolute metrics).
    pub distance: u64,
    /// `dmax(C1, C2)` — the target's total tree size (or line/loc count).
    pub dmax: u64,
}

impl Divergence {
    /// Normalised divergence in `[0, +)`; 0 = identical.  Values near 1
    /// mean "no semantic similarity" relative to the target's size.
    pub fn normalized(&self) -> f64 {
        if self.dmax == 0 {
            if self.distance == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            self.distance as f64 / self.dmax as f64
        }
    }
}

/// Divergence between two units under a metric/variant (Eq. 6 for one
/// matched pair): extract both comparison artefacts, then
/// [`pair_divergence`].
pub fn divergence(
    metric: Metric,
    v: Variant,
    from: &Measured<'_>,
    to: &Measured<'_>,
) -> Divergence {
    pair_divergence(metric, &pair_art(from, metric, v), &pair_art(to, metric, v))
}

/// Divergence of every unit in `units` from `base` — one heatmap row of
/// Figs. 7–10, equal entry for entry to `divergence(metric, v, base, u)`.
///
/// Every artefact is extracted once, on the calling thread, so a coverage
/// variant masks the base tree (and decomposes it) once per row rather
/// than once per pair.  Tree and `Source` pairs (one TED or O(NP) line
/// distance each) then fan out over all cores through
/// `svpar::par_tasks_lpt`, largest DP first; SLOC, LLOC and
/// `CodeDivergence` pairs cost O(1)/O(n) once extracted and run inline.
pub fn divergence_row(
    metric: Metric,
    v: Variant,
    base: &Measured<'_>,
    units: &[Measured<'_>],
) -> Vec<Divergence> {
    let b = pair_art(base, metric, v);
    let arts = pair_artifacts(metric, v, units);
    match metric {
        Metric::TSrc | Metric::TSem | Metric::TIr | Metric::Source => {
            svpar::par_tasks_lpt(&arts, |a| pair_cost(&b, a), |a| pair_divergence(metric, &b, a))
        }
        Metric::Sloc | Metric::Lloc | Metric::CodeDivergence => {
            arts.iter().map(|a| pair_divergence(metric, &b, a)).collect()
        }
    }
}

/// Memory-bounded divergence: like [`divergence`], but refuses tree-metric
/// pairs whose TED dynamic-programming tables would exceed `max_bytes`
/// (the paper's GROMACS runs OOMed on exactly this; see `svdist::ted_bounded`).
///
/// The bound here is on *memory*, checked before any allocation — it is
/// not a distance threshold and never exits the DP early.  For
/// distance-threshold early exit (the approximate-first engine's
/// per-pair primitive) see `svdist::ted_within` and
/// [`divergence_matrix_approx`].
pub fn try_divergence(
    metric: Metric,
    v: Variant,
    from: &Measured<'_>,
    to: &Measured<'_>,
    max_bytes: u64,
) -> Result<Divergence, svdist::TedError> {
    match metric {
        Metric::TSrc | Metric::TSem | Metric::TIr => {
            let ta = tree_of(from, metric, v);
            let tb = tree_of(to, metric, v);
            let d = svdist::ted_bounded(&ta, &tb, CostModel::UNIT, max_bytes)?;
            Ok(Divergence { distance: d, dmax: tb.size().max(1) as u64 })
        }
        other => Ok(divergence(other, v, from, to)),
    }
}

/// The `match()` function of Eqs. 4 and 6: pair units of two codebases
/// that "implement equivalent parts in their respective code bases".
/// Pairing is by file stem (`tea_solve.cpp` ↔ `tea_solve.cu`), falling
/// back to positional pairing when no stems match and the codebases are
/// the same size.
pub fn match_units(a: &[Measured<'_>], b: &[Measured<'_>]) -> Vec<(usize, usize)> {
    fn stem(name: &str) -> &str {
        let base = name.rsplit('/').next().unwrap_or(name);
        base.split('.').next().unwrap_or(base)
    }
    let mut pairs = Vec::new();
    let mut used_b = vec![false; b.len()];
    for (i, ma) in a.iter().enumerate() {
        let sa = stem(&ma.art.name);
        if let Some(j) = (0..b.len()).find(|&j| !used_b[j] && stem(&b[j].art.name) == sa) {
            used_b[j] = true;
            pairs.push((i, j));
        }
    }
    if pairs.is_empty() && a.len() == b.len() {
        // No stems in common (e.g. whole-model renames): positional.
        return (0..a.len()).map(|i| (i, i)).collect();
    }
    pairs
}

/// Codebase-level absolute measure: Eqs. 2–3, the sum over all units.
pub fn codebase_absolute(units: &[Measured<'_>], metric: Metric, v: Variant) -> usize {
    units.iter().map(|m| absolute(m, metric, v)).sum()
}

/// Codebase-level divergence: Eq. 6 (sum of per-pair distances over
/// `match(C1, C2)`) with Eq. 7's `dmax` (sum of target tree sizes).
/// Unmatched units of the target count toward both — they would have to be
/// written from scratch.
pub fn codebase_divergence(
    metric: Metric,
    v: Variant,
    from: &[Measured<'_>],
    to: &[Measured<'_>],
) -> Divergence {
    let pairs = match_units(from, to);
    let mut distance = 0u64;
    let mut dmax = 0u64;
    let mut matched_to = vec![false; to.len()];
    for (i, j) in pairs {
        let d = divergence(metric, v, &from[i], &to[j]);
        distance += d.distance;
        dmax += d.dmax;
        matched_to[j] = true;
    }
    for (j, m) in to.iter().enumerate() {
        if matched_to[j] {
            continue;
        }
        let size = match metric {
            Metric::Sloc | Metric::Lloc => absolute(m, metric, v) as u64,
            Metric::Source | Metric::CodeDivergence => lines_of(m, v).len() as u64,
            _ => tree_of(m, metric, v).size() as u64,
        };
        distance += size;
        dmax += size;
    }
    Divergence { distance, dmax: dmax.max(1) }
}

/// Per-unit artefact a pairwise comparison consumes: extracted once per
/// unit so matrices and rows never re-extract lines or re-mask trees.
enum PairArt {
    Lines(Vec<String>),
    Tree(SharedTree),
    Abs(u64),
}

/// Extract the comparison artefact of one unit for `metric`/`v`.
fn pair_art(m: &Measured<'_>, metric: Metric, v: Variant) -> PairArt {
    match metric {
        Metric::Sloc | Metric::Lloc => PairArt::Abs(absolute(m, metric, v) as u64),
        Metric::Source | Metric::CodeDivergence => PairArt::Lines(lines_of(m, v)),
        Metric::TSrc | Metric::TSem | Metric::TIr => PairArt::Tree(tree_of(m, metric, v)),
    }
}

/// Extract the comparison artefact of every unit for `metric`/`v`.
fn pair_artifacts(metric: Metric, v: Variant, units: &[Measured<'_>]) -> Vec<PairArt> {
    units.iter().map(|m| pair_art(m, metric, v)).collect()
}

/// Eq. 6/7 divergence of `to` from `from`, normalised by the target:
/// `dmax` is `|T_to|` for trees, `|lines_from| + |lines_to|` for
/// `Source`, the target's count for SLOC/LLOC, and 10⁶ for
/// `CodeDivergence`, whose Jaccard distance is stored at that resolution
/// so it fits the integer form (distance/dmax ≈ the Jaccard divergence).
fn pair_divergence(metric: Metric, from: &PairArt, to: &PairArt) -> Divergence {
    match (from, to) {
        (PairArt::Abs(a), PairArt::Abs(b)) => {
            Divergence { distance: a.abs_diff(*b), dmax: (*b).max(1) }
        }
        (PairArt::Lines(la), PairArt::Lines(lb)) if metric == Metric::CodeDivergence => {
            let j = svdist::jaccard_divergence(la, lb);
            Divergence { distance: (j * 1.0e6).round() as u64, dmax: 1_000_000 }
        }
        (PairArt::Lines(la), PairArt::Lines(lb)) => Divergence {
            distance: edit_distance_onp(la, lb) as u64,
            dmax: (la.len() + lb.len()).max(1) as u64,
        },
        (PairArt::Tree(ta), PairArt::Tree(tb)) => {
            let _s =
                svtrace::span!("ted.compute", a = ta.size(), b = tb.size(), metric = metric.name());
            let d = ted(ta, tb, CostModel::UNIT);
            let dv = Divergence { distance: d, dmax: tb.size().max(1) as u64 };
            obs::record_pair(dv.distance, dv.dmax);
            dv
        }
        _ => unreachable!("artefact kinds are uniform per metric"),
    }
}

/// Normalised pairwise distance between two artefacts (one matrix cell).
fn pair_distance(metric: Metric, a: &PairArt, b: &PairArt) -> f64 {
    match (a, b) {
        (PairArt::Abs(a), PairArt::Abs(b)) => {
            let dmax = (*a.max(b)).max(1);
            a.abs_diff(*b) as f64 / dmax as f64
        }
        (PairArt::Lines(a), PairArt::Lines(b)) => {
            if metric == Metric::CodeDivergence {
                svdist::jaccard_divergence(a.iter(), b.iter())
            } else {
                let d = edit_distance_onp(a, b) as f64;
                d / (a.len() + b.len()).max(1) as f64
            }
        }
        (PairArt::Tree(a), PairArt::Tree(b)) => {
            // Each tree's decompositions were memoised on first use, so
            // the O(n²) pair loop performs O(n) decompositions in total.
            let _s = svtrace::span!("ted.compute", a = a.size(), b = b.size());
            let d = ted(a, b, CostModel::UNIT);
            obs::record_pair(d, a.size().max(b.size()).max(1) as u64);
            d as f64 / (a.size().max(b.size()).max(1)) as f64
        }
        _ => unreachable!("artefact kinds are uniform per metric"),
    }
}

/// Estimated DP cost of one pair (a matrix cell or a row entry), used only
/// to order the parallel schedule (largest first).  Tree pairs cost
/// roughly `|T1|·|T2|` — except hash-equal pairs, which the [`ted`]
/// short-circuit answers without any DP, so they sort with the free cells.  The structural hashes are
/// memoised on the [`SharedTree`]s, so estimating costs no extra tree walks.
fn pair_cost(a: &PairArt, b: &PairArt) -> u64 {
    match (a, b) {
        (PairArt::Tree(a), PairArt::Tree(b)) => {
            if a.size() == b.size() && a.structural_hash() == b.structural_hash() {
                0
            } else {
                (a.size() as u64).saturating_mul(b.size() as u64)
            }
        }
        (PairArt::Lines(a), PairArt::Lines(b)) => (a.len() + b.len()) as u64,
        _ => 1,
    }
}

/// Pairwise divergence matrix over a model set — the "cartesian product of
/// all models" the paper clusters.  Pair computation (one TED per cell for
/// the tree metrics — the §VII scaling bottleneck) fans out over all cores
/// via `svpar::par_tasks` in largest-DP-first (LPT) order, with per-unit
/// artefacts extracted once up front.
pub fn divergence_matrix(
    metric: Metric,
    v: Variant,
    labels: &[String],
    units: &[Measured<'_>],
) -> DistanceMatrix {
    assert_eq!(labels.len(), units.len());
    // The kernel attr records which TED DP kernel served this build
    // ("simd-avx512f" … "scalar"), so traces from different hosts stay
    // comparable when their dispatch tiers differ.
    let _s = svtrace::span!(
        "matrix.build",
        n = labels.len(),
        metric = metric.name(),
        kernel = svdist::active_kernel_name()
    );
    let arts = pair_artifacts(metric, v, units);
    DistanceMatrix::from_fn_par_lpt(
        labels.to_vec(),
        |i, j| pair_cost(&arts[i], &arts[j]),
        |i, j| pair_distance(metric, &arts[i], &arts[j]),
    )
}

/// Sequential reference for [`divergence_matrix`]: same artefacts, same
/// per-pair closure, no fan-out.  Kept as the equivalence oracle for tests
/// and the baseline of the matrix-parallelism ablation bench.
pub fn divergence_matrix_seq(
    metric: Metric,
    v: Variant,
    labels: &[String],
    units: &[Measured<'_>],
) -> DistanceMatrix {
    assert_eq!(labels.len(), units.len());
    let arts = pair_artifacts(metric, v, units);
    DistanceMatrix::from_fn(labels.to_vec(), |i, j| pair_distance(metric, &arts[i], &arts[j]))
}

/// Counters the approximate-first matrix engine reports alongside its
/// matrix — the prefilter hit-rate accounting the bench JSON publishes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ApproxStats {
    /// Distinct unit pairs (`i < j`) in the matrix.
    pub pairs: u64,
    /// Unit pairs answered by structural-hash bucketing: within-group
    /// pairs are 0 and cross-group pairs inherit their representatives'
    /// cell, so only representative pairs ever run a bound or a DP.
    pub bucketed: u64,
    /// Representative pairs answered by the lower bound alone (their
    /// bound already lies beyond the resolution frontier).
    pub lb_pruned: u64,
    /// Representative pairs where the threshold kernel proved
    /// `d > tau` without finishing the DP (cell clamped at `tau + 1`,
    /// floored by the lower bound).
    pub cutoff: u64,
    /// Representative pairs solved exactly.
    pub exact_solves: u64,
    /// Normalised distance up to which every cell is exact: the max over
    /// groups of the k-th smallest lower bound (k = min(3, groups − 1)),
    /// i.e. every group's 3-nearest-neighbour candidates are resolved
    /// exactly — what complete-linkage agglomeration actually consults
    /// first.
    pub frontier: f64,
}

/// Approximate-first divergence matrix over pre-extracted trees.
///
/// Every returned cell is a **lower bound** on the exact normalised
/// divergence, and cells at or below the frontier are *exact* (see
/// [`ApproxStats::frontier`]).  Three stages:
///
/// 1. **bucket** — units are grouped by `(size, structural hash)`; equal
///    trees share one representative, within-group cells are 0;
/// 2. **bound** — `svdist::pqgram_lb` over the memoized
///    [`TreeProfile`](svdist::TreeProfile)s of all representative pairs;
/// 3. **resolve** — pairs whose bound lands inside the frontier run the
///    banded threshold kernel `svdist::ted_within` with
///    `tau = frontier · dmax`; everything else keeps its bound.
pub fn approx_tree_matrix(
    labels: &[String],
    trees: &[SharedTree],
) -> (DistanceMatrix, ApproxStats) {
    assert_eq!(labels.len(), trees.len());
    let n = trees.len();
    let _s = svtrace::span!("matrix.approx", n = n);
    let mut stats =
        ApproxStats { pairs: (n * n.saturating_sub(1) / 2) as u64, ..ApproxStats::default() };

    // 1. Structural-hash bucketing (size disambiguates, so a hash
    // collision across sizes cannot merge distinct groups).
    let mut group_of = vec![0usize; n];
    let mut reps: Vec<usize> = Vec::new();
    let mut seen: std::collections::HashMap<(usize, u64), usize> = std::collections::HashMap::new();
    for i in 0..n {
        let key = (trees[i].size(), trees[i].structural_hash());
        let g = *seen.entry(key).or_insert_with(|| {
            reps.push(i);
            reps.len() - 1
        });
        group_of[i] = g;
    }
    let g = reps.len();
    stats.bucketed = stats.pairs - (g * g.saturating_sub(1) / 2) as u64;

    let cell_of = |d: u64, gi: usize, gj: usize| {
        let dmax = trees[reps[gi]].size().max(trees[reps[gj]].size()).max(1) as u64;
        d as f64 / dmax as f64
    };

    // 2. Lower bounds between representatives.  Profiles are memoized on
    // the SharedTrees; rows fan out across cores.
    svpar::par_tasks(&reps, |&r| {
        trees[r].profile();
    });
    let row_ids: Vec<usize> = (0..g).collect();
    let lb_rows: Vec<Vec<f64>> = svpar::par_tasks(&row_ids, |&gi| {
        (gi + 1..g)
            .map(|gj| {
                let lb = svdist::pqgram_lb(
                    trees[reps[gi]].profile(),
                    trees[reps[gj]].profile(),
                    CostModel::UNIT,
                );
                cell_of(lb, gi, gj)
            })
            .collect()
    });
    let lb_at = |gi: usize, gj: usize| {
        let (lo, hi) = (gi.min(gj), gi.max(gj));
        lb_rows[lo][hi - lo - 1]
    };

    // 3. Frontier: every group's k nearest lower-bound candidates get
    // resolved exactly — the cells agglomerative linkage consults first.
    let k = 3.min(g.saturating_sub(1));
    let mut frontier = 0.0f64;
    for gi in 0..g {
        let mut row: Vec<f64> = (0..g).filter(|&gj| gj != gi).map(|gj| lb_at(gi, gj)).collect();
        row.sort_by(f64::total_cmp);
        if k > 0 {
            frontier = frontier.max(row[k - 1]);
        }
    }
    stats.frontier = frontier;

    // 4. Resolve in-frontier pairs with the banded threshold kernel.
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut rep_cells = vec![0.0f64; g * g];
    for gi in 0..g {
        for gj in gi + 1..g {
            if lb_at(gi, gj) <= frontier {
                candidates.push((gi, gj));
            } else {
                rep_cells[gi * g + gj] = lb_at(gi, gj);
                stats.lb_pruned += 1;
            }
        }
    }
    let resolved: Vec<(f64, bool)> = svpar::par_tasks(&candidates, |&(gi, gj)| {
        let (a, b) = (&trees[reps[gi]], &trees[reps[gj]]);
        let dmax = a.size().max(b.size()).max(1) as u64;
        let tau = (frontier * dmax as f64).floor() as u64;
        match svdist::ted_within(a, b, CostModel::UNIT, tau) {
            Some(d) => {
                obs::record_pair(d, dmax);
                (cell_of(d, gi, gj), true)
            }
            // d > tau is proven: clamp at tau + 1, floored by the bound.
            None => (cell_of(tau + 1, gi, gj).max(lb_at(gi, gj)), false),
        }
    });
    for (&(gi, gj), &(cell, exact)) in candidates.iter().zip(&resolved) {
        rep_cells[gi * g + gj] = cell;
        if exact {
            stats.exact_solves += 1;
        } else {
            stats.cutoff += 1;
        }
    }

    // 5. Scatter representative cells over the full matrix.
    let mut m = DistanceMatrix::new(labels.to_vec());
    for i in 0..n {
        for j in i + 1..n {
            let (gi, gj) = (group_of[i], group_of[j]);
            if gi != gj {
                let (lo, hi) = (gi.min(gj), gi.max(gj));
                m.set(i, j, rep_cells[lo * g + hi]);
            }
        }
    }
    (m, stats)
}

/// Approximate-first [`divergence_matrix`]: tree metrics run
/// [`approx_tree_matrix`] (bucketing + lower bounds + threshold solves);
/// non-tree metrics are cheap per pair and fall back to the exact matrix
/// with zeroed stats.  Opt-in — callers that need the exact matrix keep
/// calling [`divergence_matrix`], whose path is untouched.
pub fn divergence_matrix_approx(
    metric: Metric,
    v: Variant,
    labels: &[String],
    units: &[Measured<'_>],
) -> (DistanceMatrix, ApproxStats) {
    match metric {
        Metric::TSrc | Metric::TSem | Metric::TIr => {
            let trees: Vec<SharedTree> = units.iter().map(|m| tree_of(m, metric, v)).collect();
            approx_tree_matrix(labels, &trees)
        }
        other => (divergence_matrix(other, v, labels, units), ApproxStats::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svcorpus::{unit, App, Model};

    fn measured(u: &Unit) -> Measured<'_> {
        Measured::new(u)
    }

    #[test]
    fn self_divergence_is_zero_for_all_metrics() {
        // The paper's built-in check: "SilverVale compares the base model
        // against itself; non-zero results will indicate an error".
        let u = unit(App::BabelStream, Model::Serial).unwrap();
        for metric in Metric::ALL {
            for v in [Variant::PLAIN, Variant::PP, Variant::INLINED] {
                let d = divergence(metric, v, &measured(&u), &measured(&u));
                assert_eq!(d.distance, 0, "{metric:?} {v:?}");
                assert_eq!(d.normalized(), 0.0);
            }
        }
    }

    #[test]
    fn divergence_positive_across_models() {
        let serial = unit(App::BabelStream, Model::Serial).unwrap();
        let omp = unit(App::BabelStream, Model::OpenMp).unwrap();
        for metric in [Metric::Source, Metric::TSrc, Metric::TSem, Metric::TIr] {
            let d = divergence(metric, Variant::PLAIN, &measured(&serial), &measured(&omp));
            assert!(d.distance > 0, "{metric:?}");
            assert!(d.normalized() > 0.0);
        }
    }

    #[test]
    fn ted_symmetry_in_distance() {
        let a = unit(App::BabelStream, Model::Serial).unwrap();
        let b = unit(App::BabelStream, Model::Kokkos).unwrap();
        let d1 = divergence(Metric::TSem, Variant::PLAIN, &measured(&a), &measured(&b));
        let d2 = divergence(Metric::TSem, Variant::PLAIN, &measured(&b), &measured(&a));
        // raw TED is symmetric; only the dmax normaliser differs.
        assert_eq!(d1.distance, d2.distance);
    }

    #[test]
    fn omp_semantic_exceeds_perceived_divergence() {
        // The paper's key OpenMP finding: "directive-based OpenMP has a
        // consistently higher T_sem divergence when compared to T_src".
        let serial = unit(App::TeaLeaf, Model::Serial).unwrap();
        let omp = unit(App::TeaLeaf, Model::OpenMp).unwrap();
        let dsrc = divergence(Metric::TSrc, Variant::PLAIN, &measured(&serial), &measured(&omp));
        let dsem = divergence(Metric::TSem, Variant::PLAIN, &measured(&serial), &measured(&omp));
        assert!(
            dsem.normalized() > dsrc.normalized(),
            "T_sem {} vs T_src {}",
            dsem.normalized(),
            dsrc.normalized()
        );
    }

    #[test]
    fn inlining_variant_grows_library_model_divergence() {
        // T_sem+i: "for library-based or language-based models, we see a
        // huge jump in divergence as foreign code is brought in"; OpenMP
        // shows "very little change".
        let serial = unit(App::TeaLeaf, Model::Serial).unwrap();
        let omp = unit(App::TeaLeaf, Model::OpenMp).unwrap();
        let d_plain = divergence(Metric::TSem, Variant::PLAIN, &measured(&serial), &measured(&omp));
        let d_inl = divergence(Metric::TSem, Variant::INLINED, &measured(&serial), &measured(&omp));
        // OpenMP relies on the compiler, so inlining changes little.
        let delta_omp = (d_inl.normalized() - d_plain.normalized()).abs();
        assert!(delta_omp < 0.15, "OpenMP inlining delta {delta_omp}");
    }

    #[test]
    fn sycl_pp_source_divergence_explodes() {
        // Source+pp for SYCL "exhibits extreme divergence from the serial
        // model" because of the giant header.
        let serial = unit(App::BabelStream, Model::Serial).unwrap();
        let sycl = unit(App::BabelStream, Model::SyclUsm).unwrap();
        let plain =
            divergence(Metric::Source, Variant::PLAIN, &measured(&serial), &measured(&sycl));
        let pp = divergence(Metric::Source, Variant::PP, &measured(&serial), &measured(&sycl));
        assert!(pp.distance > plain.distance * 5, "pp {} vs plain {}", pp.distance, plain.distance);
    }

    #[test]
    fn offload_t_ir_inflated_by_driver_code() {
        // "T_ir seems to misbehave for offload models … multiple layers of
        // driver code that is unrelated to the core algorithm."
        let serial = unit(App::BabelStream, Model::Serial).unwrap();
        let omp = unit(App::BabelStream, Model::OpenMp).unwrap();
        let cuda = unit(App::BabelStream, Model::Cuda).unwrap();
        let d_omp = divergence(Metric::TIr, Variant::PLAIN, &measured(&serial), &measured(&omp));
        let d_cuda = divergence(Metric::TIr, Variant::PLAIN, &measured(&serial), &measured(&cuda));
        assert!(
            d_cuda.distance > d_omp.distance,
            "cuda {} vs omp {}",
            d_cuda.distance,
            d_omp.distance
        );
    }

    #[test]
    fn coverage_variant_shrinks_trees() {
        let u = unit(App::BabelStream, Model::Serial).unwrap();
        let run = svexec::run_unit(&u).unwrap();
        let plain = tree_of(&Measured::new(&u), Metric::TSem, Variant::PLAIN);
        let covd =
            tree_of(&Measured::with_coverage(&u, &run.coverage), Metric::TSem, Variant::COVERAGE);
        assert!(covd.size() <= plain.size());
        assert!(covd.size() > 0);
    }

    #[test]
    fn coverage_variant_filters_lines() {
        let u = unit(App::BabelStream, Model::Serial).unwrap();
        let run = svexec::run_unit(&u).unwrap();
        let m = Measured::with_coverage(&u, &run.coverage);
        let all = lines_of(&m, Variant::PLAIN);
        let covered = lines_of(&m, Variant::COVERAGE);
        assert!(covered.len() <= all.len());
        assert!(!covered.is_empty());
    }

    #[test]
    fn divergence_matrix_properties() {
        let units: Vec<Unit> = [Model::Serial, Model::OpenMp, Model::Cuda]
            .iter()
            .map(|&m| unit(App::BabelStream, m).unwrap())
            .collect();
        let measured: Vec<Measured<'_>> = units.iter().map(Measured::new).collect();
        let labels: Vec<String> =
            ["Serial", "OpenMP", "CUDA"].iter().map(|s| s.to_string()).collect();
        let m = divergence_matrix(Metric::TSem, Variant::PLAIN, &labels, &measured);
        assert_eq!(m.len(), 3);
        for i in 0..3 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..3 {
                assert_eq!(m.get(i, j), m.get(j, i));
                if i != j {
                    assert!(m.get(i, j) > 0.0, "({i},{j})");
                }
            }
        }
    }

    #[test]
    fn parallel_matrix_identical_to_sequential() {
        // The service serves matrices from the parallel path; it must be
        // bit-identical to the sequential reference at every thread count.
        let units: Vec<Unit> = [Model::Serial, Model::OpenMp, Model::Cuda, Model::Kokkos]
            .iter()
            .map(|&m| unit(App::BabelStream, m).unwrap())
            .collect();
        let measured: Vec<Measured<'_>> = units.iter().map(Measured::new).collect();
        let labels: Vec<String> =
            ["Serial", "OpenMP", "CUDA", "Kokkos"].iter().map(|s| s.to_string()).collect();
        for metric in [Metric::TSem, Metric::Source, Metric::Sloc, Metric::CodeDivergence] {
            let seq = divergence_matrix_seq(metric, Variant::PLAIN, &labels, &measured);
            for threads in [1usize, 2, 4, 8] {
                svpar::set_threads(threads);
                let par = divergence_matrix(metric, Variant::PLAIN, &labels, &measured);
                assert_eq!(par, seq, "{metric:?} threads={threads}");
            }
            svpar::set_threads(0);
        }
    }

    #[test]
    fn approx_matrix_lower_bounds_exact_and_buckets_duplicates() {
        let units: Vec<Unit> = [Model::Serial, Model::OpenMp, Model::Cuda, Model::Kokkos]
            .iter()
            .map(|&m| unit(App::BabelStream, m).unwrap())
            .collect();
        // Duplicate every unit so bucketing has real groups to collapse.
        let mut measured: Vec<Measured<'_>> = units.iter().map(Measured::new).collect();
        measured.extend(units.iter().map(Measured::new));
        let labels: Vec<String> = (0..measured.len()).map(|i| format!("u{i}")).collect();
        let exact = divergence_matrix(Metric::TSem, Variant::PLAIN, &labels, &measured);
        let (approx, stats) =
            divergence_matrix_approx(Metric::TSem, Variant::PLAIN, &labels, &measured);
        let n = labels.len();
        assert_eq!(stats.pairs, (n * (n - 1) / 2) as u64);
        // 8 units in 4 structural groups: 28 pairs, 6 representative pairs.
        assert_eq!(stats.bucketed, 28 - 6);
        assert_eq!(stats.lb_pruned + stats.cutoff + stats.exact_solves, 6);
        for i in 0..n {
            for j in 0..n {
                let (e, a) = (exact.get(i, j), approx.get(i, j));
                assert!(a <= e + 1e-12, "approx must lower-bound exact at ({i},{j}): {a} > {e}");
            }
        }
        // Duplicate pairs collapse to 0 and the exact matrix agrees.
        assert_eq!(approx.get(0, 4), 0.0);
        assert_eq!(exact.get(0, 4), 0.0);
        // Each group's nearest candidates are exact: with 4 groups and
        // k = 3 every representative pair is inside the frontier, so the
        // two matrices must in fact agree wherever a solve completed.
        for i in 0..n {
            for j in 0..n {
                let a = approx.get(i, j);
                if a <= stats.frontier {
                    assert_eq!(a, exact.get(i, j), "in-frontier cell ({i},{j})");
                }
            }
        }
        // Non-tree metrics fall back to the exact matrix.
        let (fallback, fstats) =
            divergence_matrix_approx(Metric::Sloc, Variant::PLAIN, &labels, &measured);
        assert_eq!(fallback, divergence_matrix(Metric::Sloc, Variant::PLAIN, &labels, &measured));
        assert_eq!(fstats, ApproxStats::default());
    }

    #[test]
    fn bounded_divergence_guards_memory() {
        let a = unit(App::TeaLeaf, Model::Serial).unwrap();
        let b = unit(App::TeaLeaf, Model::Kokkos).unwrap();
        let ma = Measured::new(&a);
        let mb = Measured::new(&b);
        // A generous budget succeeds and matches the unbounded path.
        let ok = try_divergence(Metric::TSem, Variant::PLAIN, &ma, &mb, 1 << 30).unwrap();
        let plain = divergence(Metric::TSem, Variant::PLAIN, &ma, &mb);
        assert_eq!(ok, plain);
        // A tiny budget refuses instead of allocating.
        let err = try_divergence(Metric::TSem, Variant::PLAIN, &ma, &mb, 1024).unwrap_err();
        let svdist::TedError::BudgetExceeded { needed_bytes, .. } = err;
        assert!(needed_bytes > 1024);
        // Non-tree metrics are unaffected by the budget.
        let src = try_divergence(Metric::Source, Variant::PLAIN, &ma, &mb, 1).unwrap();
        assert!(src.distance > 0);
    }

    #[test]
    fn multi_unit_codebase_matching_and_sums() {
        // Two-unit codebases: kernels + driver.  match() pairs by stem;
        // Eq. 6 sums the pair distances; an extra unit on the target side
        // counts fully (must be written from scratch).
        use svlang::source::SourceSet;
        use svlang::unit::{compile_unit, UnitOptions};
        let build = |files: &[(&str, &str)]| -> Vec<svlang::unit::Unit> {
            let mut ss = SourceSet::new();
            for (p, t) in files {
                ss.add(*p, *t);
            }
            files
                .iter()
                .map(|(p, _)| {
                    compile_unit(&ss, ss.lookup(p).unwrap(), &UnitOptions::default()).unwrap()
                })
                .collect()
        };
        let serial = build(&[
            ("src/kernels.cpp", "void triad(double* a, const double* b, const double* c, double s, int n) { for (int i = 0; i < n; i++) { a[i] = b[i] + s * c[i]; } }"),
            ("src/driver.cpp", "int main() { return 0; }"),
        ]);
        let omp = build(&[
            (
                "omp/kernels.cpp",
                "void triad(double* a, const double* b, const double* c, double s, int n) {
#pragma omp parallel for
for (int i = 0; i < n; i++) { a[i] = b[i] + s * c[i]; } }",
            ),
            ("omp/driver.cpp", "int main() { return 0; }"),
            ("omp/extras.cpp", "void omp_only_tuning() { int chunk = 64; }"),
        ]);
        let sm: Vec<Measured<'_>> = serial.iter().map(Measured::new).collect();
        let om: Vec<Measured<'_>> = omp.iter().map(Measured::new).collect();

        let pairs = match_units(&sm, &om);
        assert_eq!(pairs.len(), 2, "kernels and driver pair by stem");

        // Eqs. 2–3: absolute sums.
        let total_sloc = codebase_absolute(&om, Metric::Sloc, Variant::PLAIN);
        let per_unit: usize = om.iter().map(|m| absolute(m, Metric::Sloc, Variant::PLAIN)).sum();
        assert_eq!(total_sloc, per_unit);

        // Eq. 6: kernels diverge (pragma), driver is identical, extras count
        // fully toward the distance.
        let d = codebase_divergence(Metric::TSem, Variant::PLAIN, &sm, &om);
        assert!(d.distance > 0);
        let kernels_only = divergence(Metric::TSem, Variant::PLAIN, &sm[0], &om[0]);
        let extras_size = om[2].art.t_sem.size() as u64;
        assert_eq!(d.distance, kernels_only.distance + extras_size);
        // Self-comparison of a codebase is 0.
        let zero = codebase_divergence(Metric::TSem, Variant::PLAIN, &sm, &sm);
        assert_eq!(zero.distance, 0);
    }

    #[test]
    fn code_divergence_baseline_vs_tbmd() {
        // The weakness the paper identifies in line-based measures: pure
        // formatting noise moves SLOC/Source/CodeDivergence but is
        // invisible to the semantic tree.
        use svlang::source::SourceSet;
        use svlang::unit::{compile_unit, UnitOptions};
        let tight =
            "void f(double* a, int n) { for (int i = 0; i < n; i++) { a[i] = 2.0 * a[i]; } }";
        let airy = "void f(double* a,
       int n)
{
  for (int i = 0;
       i < n;
       i++)
  {
    a[i] = 2.0 * a[i];
  }
}";
        let mut ss = SourceSet::new();
        let t = ss.add("t.cpp", tight);
        let a = ss.add("a.cpp", airy);
        let ut = compile_unit(&ss, t, &UnitOptions::default()).unwrap();
        let ua = compile_unit(&ss, a, &UnitOptions::default()).unwrap();
        let mt = Measured::new(&ut);
        let ma = Measured::new(&ua);
        let cd = divergence(Metric::CodeDivergence, Variant::PLAIN, &mt, &ma).normalized();
        let sl = divergence(Metric::Sloc, Variant::PLAIN, &mt, &ma).normalized();
        let sem = divergence(Metric::TSem, Variant::PLAIN, &mt, &ma).normalized();
        assert!(cd > 0.5, "line-set baseline sees formatting noise: {cd}");
        assert!(sl > 0.5, "SLOC sees formatting noise: {sl}");
        assert_eq!(sem, 0.0, "T_sem must be formatting-invariant");
    }

    #[test]
    fn code_divergence_bounds() {
        let u = unit(App::BabelStream, Model::Serial).unwrap();
        let v = unit(App::BabelStream, Model::Cuda).unwrap();
        let d = divergence(
            Metric::CodeDivergence,
            Variant::PLAIN,
            &Measured::new(&u),
            &Measured::new(&v),
        )
        .normalized();
        assert!(d > 0.0 && d <= 1.0, "{d}");
        let selfd = divergence(
            Metric::CodeDivergence,
            Variant::PLAIN,
            &Measured::new(&u),
            &Measured::new(&u),
        )
        .normalized();
        assert_eq!(selfd, 0.0);
    }

    #[test]
    fn metric_taxonomy() {
        assert!(Metric::Sloc.is_absolute());
        assert!(Metric::Lloc.is_absolute());
        assert!(!Metric::Source.is_absolute());
        assert!(Metric::TSem.is_semantic());
        assert!(Metric::TIr.is_semantic());
        assert!(!Metric::TSrc.is_semantic());
        assert_eq!(Variant::PP.label(), "+pp");
        assert_eq!(
            Variant { preprocessor: true, inlining: true, coverage: true }.label(),
            "+pp+inline+cov"
        );
    }
}
