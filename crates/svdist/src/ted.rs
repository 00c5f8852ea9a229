//! Tree Edit Distance.
//!
//! TED between two ordered labelled trees is the minimum total cost of node
//! operations — delete, insert, relabel — that transforms one into the other
//! (Zhang & Shasha 1989; survey: Bille 2005).  The paper uses unit costs for
//! all operations and strips programmer-chosen names beforehand so that
//! relabelling only fires on genuinely different token types.
//!
//! Four production entry points take [`SharedTree`]s, whose memoized
//! structural hashes and path decompositions are reused across every pair
//! a tree joins:
//!
//! * [`ted`] — the exact distance,
//! * [`ted_within`] — the **distance-threshold kernel**: given a threshold
//!   `tau` it answers `Some(exact)` iff the distance is ≤ `tau` and `None`
//!   otherwise, running a banded DP that skips every cell whose
//!   forest-size imbalance already proves its value exceeds `tau`,
//! * [`ted_bounded`] — a **memory-budget pre-check**: it refuses (without
//!   allocating) when the DP tables would exceed a byte budget, then runs
//!   the ordinary exact solve.  It never exits early on distance,
//! * [`edit_stats`] — the insert/delete/relabel split of an optimal script.
//!
//! All four answer empty and structurally equal pairs without any DP, and
//! otherwise solve over the path decomposition [`Strategy::Auto`] picks:
//! left paths (textbook Zhang–Shasha LR-keyroots) or right paths (the
//! mirrored trees; TED is invariant under mirroring both), whichever has
//! fewer relevant subproblems — APTED's optimal path strategies in
//! miniature.  The choice is input-driven and pays: on the paper's
//! corpora it takes the mirrored side for most pairs and cuts DP cells to
//! about three quarters of Left (EXPERIMENTS.md).
//!
//! The `#[doc(hidden)]` oracle entries [`ted_with_mode`] and
//! [`ted_within_with_mode`] take plain [`Tree`]s, a [`Strategy`] and a
//! [`KernelMode`], and skip the hash short-circuit; property tests and the
//! kernel bench pin every kernel against each other and against
//! [`naive_ted`], an exponential-with-memo forest recursion.
//!
//! Returned distances are `u64`; the DP cells are **width-adaptive**.  A
//! single-pair distance is bounded by `delete·|T1| + insert·|T2|`, and the
//! largest intermediate the DP ever forms by twice that plus `relabel`
//! (see [`cell_width`]), so whenever that bound fits `u32` — always true
//! for the paper's unit costs — the kernel runs with 4-byte cells, halving
//! DP memory traffic.  Cost models that could wrap a narrow cell (e.g.
//! `delete = u32::MAX` on a two-node tree) fall back to the `u64` kernel,
//! so adaptivity never trades correctness.  The DP tables themselves live
//! in a thread-local scratch arena reused across pairs and are never
//! zero-initialised: Zhang–Shasha finalises every cell under its own
//! keyroot pair before any later pair reads it (DESIGN §13).

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use svtree::{Interner, NodeId, Tree};

use crate::SharedTree;

/// Process-wide count of [`PostTree`] decomposition builds.
///
/// The shared artifact layer builds at most two decompositions (left and
/// right) per tree, however many pairs the tree participates in; tests use
/// this counter to prove matrix warm paths stop decomposing.
static DECOMPOSITIONS: AtomicU64 = AtomicU64::new(0);

/// Number of post-order decompositions built so far in this process.
pub fn decompose_count() -> u64 {
    DECOMPOSITIONS.load(Ordering::Relaxed)
}

/// Costs for the three edit operations.  The paper uses unit weights; the
/// struct exists because it calls out per-operation weights as future work
/// ("adding new code may have a different productivity impact than removing
/// existing code"), and the ablation benches exercise that.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of deleting a node from the source tree.
    pub delete: u32,
    /// Cost of inserting a node of the target tree.
    pub insert: u32,
    /// Cost of relabelling a source node into a target node with a
    /// different label (equal labels always cost 0).
    pub relabel: u32,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { delete: 1, insert: 1, relabel: 1 }
    }
}

impl CostModel {
    /// The paper's unit-cost model.
    pub const UNIT: CostModel = CostModel { delete: 1, insert: 1, relabel: 1 };
}

/// Which path decomposition the solver uses.  Production entries always
/// run `Auto`; the oracle entries take the choice as an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Zhang–Shasha over left paths (LR-keyroots).
    Left,
    /// Zhang–Shasha over right paths (mirrored trees).
    Right,
    /// Estimate both decompositions' relevant-subproblem counts and pick
    /// the cheaper one (APTED-style strategy selection).
    #[default]
    Auto,
}

/// The DP cell width the kernel runs a pair with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellWidth {
    /// 4-byte cells — half the DP memory traffic of `U64`.
    U32,
    /// 8-byte cells — the overflow-safe fallback for extreme cost models.
    U64,
}

impl CellWidth {
    /// Bytes per DP cell.
    pub fn bytes(self) -> u64 {
        match self {
            CellWidth::U32 => 4,
            CellWidth::U64 => 8,
        }
    }

    /// Short display name (`"u32"` / `"u64"`).
    pub fn name(self) -> &'static str {
        match self {
            CellWidth::U32 => "u32",
            CellWidth::U64 => "u64",
        }
    }
}

/// DP cell width the kernel will select for an `n`-vs-`m` node pair under
/// `costs`.
///
/// Every value the DP forms — including the *candidates* fed to `min`, not
/// just the minima — is bounded by `2·(delete·n + insert·m) + relabel`: a
/// forest distance never exceeds delete-everything-plus-insert-everything,
/// a tree distance is a forest distance, and the widest candidate is a
/// forest distance plus either a tree distance or one operation cost.
/// When that bound fits `u32` the kernel runs with 4-byte cells; unit-cost
/// pairs qualify for any tree that could fit its DP tables in memory.
pub fn cell_width(n: usize, m: usize, costs: CostModel) -> CellWidth {
    let bound = (n as u64)
        .saturating_mul(u64::from(costs.delete))
        .saturating_add((m as u64).saturating_mul(u64::from(costs.insert)));
    let worst = bound.saturating_mul(2).saturating_add(u64::from(costs.relabel));
    if worst <= u64::from(u32::MAX) {
        CellWidth::U32
    } else {
        CellWidth::U64
    }
}

/// Exact TED.
///
/// ```
/// use svdist::{ted, CostModel, SharedTree};
/// use svtree::Tree;
/// let a = SharedTree::new(Tree::from_sexpr("(f (c a b) d)").unwrap());
/// let b = SharedTree::new(Tree::from_sexpr("(f a (d b))").unwrap());
/// // delete c, relabel nothing, move is expressed as delete+insert:
/// // the optimal script needs 3 unit operations.
/// assert_eq!(ted(&a, &b, CostModel::UNIT), 3);
/// ```
pub fn ted(a: &SharedTree, b: &SharedTree, costs: CostModel) -> u64 {
    if let Some(d) = trivial(a, b, costs) {
        return d;
    }
    let (pa, pb) = auto_pair(a, b);
    exact_kernel(pa, pb, costs)
}

/// The distance of a pair that needs no DP: an empty side costs
/// inserting or deleting the other whole, and structurally equal trees
/// (S-vs-P ports share many unported units) are 0 apart by their memoized
/// hashes.
fn trivial(a: &SharedTree, b: &SharedTree, costs: CostModel) -> Option<u64> {
    empty_side(a, b, costs).or_else(|| {
        (a.size() == b.size() && a.structural_hash() == b.structural_hash()).then_some(0)
    })
}

/// [`Strategy::Auto`]: of the left and right decomposition pairs, the one
/// with fewer estimated relevant subproblems — `Σ|span(kr1)| · Σ|span(kr2)|`
/// over keyroot pairs, both factors precomputed by [`PostTree::build`].
/// Ties go left.
fn auto_pick<P: Borrow<PostTree>>(left: (P, P), right: (P, P)) -> (P, P) {
    let cost = |(a, b): &(P, P)| u128::from(a.borrow().span_sum) * u128::from(b.borrow().span_sum);
    if cost(&left) <= cost(&right) {
        left
    } else {
        right
    }
}

/// The Auto choice over the trees' memoized decompositions.
fn auto_pair<'t>(a: &'t SharedTree, b: &'t SharedTree) -> (&'t PostTree, &'t PostTree) {
    auto_pick((a.left(), b.left()), (a.right(), b.right()))
}

/// Fresh decompositions for the oracle entries and [`dp_cell_estimate`]:
/// Auto estimates both candidates from the same `PostTree`s the solver
/// then consumes, instead of rebuilding the chosen one.
fn build_decompositions(a: &Tree, b: &Tree, strategy: Strategy) -> (PostTree, PostTree) {
    let build = |mirrored| (PostTree::build(a, mirrored), PostTree::build(b, mirrored));
    match strategy {
        Strategy::Left => build(false),
        Strategy::Right => build(true),
        Strategy::Auto => auto_pick(build(false), build(true)),
    }
}

/// Post-order flattened tree with the auxiliary arrays Zhang–Shasha needs.
///
/// Built once per tree per direction (left/right) and reusable across every
/// pair the tree participates in: label identity is carried both as raw
/// interned symbol ids (`syms` — exact, comparable when two decompositions
/// share an [`Interner`] table) and as the interner's memoized FNV-1a label
/// hashes (`keys` — content-based, comparable across tables).  Building
/// touches no label bytes either way.
pub struct PostTree {
    /// Interned symbol ids in post-order, widened to u64 so the DP can use
    /// either label column through one slice type.
    pub(crate) syms: Vec<u64>,
    /// Memoized content hashes of the labels in post-order.
    ///
    /// Collisions are astronomically unlikely for AST label vocabularies
    /// (hundreds of distinct strings); correctness tests run against the
    /// oracle which compares strings directly, and same-table comparisons
    /// use exact symbol ids instead.
    pub(crate) keys: Vec<u64>,
    /// `lld[i]`: post-order index of the leftmost leaf descendant of node i.
    pub(crate) lld: Vec<usize>,
    /// `lld` narrowed to u32 — the SIMD kernel's column-metadata loads are
    /// contiguous 4-byte lanes (trees whose DP tables fit in memory always
    /// have post-order indices well inside u32).
    pub(crate) lld32: Vec<u32>,
    /// LR-keyroots in increasing post-order index.
    pub(crate) keyroots: Vec<usize>,
    /// Σ keyroot span lengths — this tree's factor of the relevant-
    /// subproblem estimate used by [`Strategy::Auto`].
    pub(crate) span_sum: u64,
    /// The label table the `syms` column indexes into.
    table: Arc<Interner>,
}

impl PostTree {
    /// Build the decomposition of `tree` (left paths, or right paths when
    /// `mirrored`).
    pub fn build(tree: &Tree, mirrored: bool) -> PostTree {
        DECOMPOSITIONS.fetch_add(1, Ordering::Relaxed);
        let n = tree.size();
        let mut syms = Vec::with_capacity(n);
        let mut keys = Vec::with_capacity(n);
        let mut lld = Vec::with_capacity(n);
        let mut post_index: Vec<usize> = vec![0; n];
        let label_hash = tree.interner().hashes_snapshot();

        // Post-order with optionally reversed child order (mirroring).
        let mut order: Vec<NodeId> = Vec::with_capacity(n);
        if let Some(r) = tree.root() {
            let mut stack: Vec<(NodeId, usize)> = vec![(r, 0)];
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let ch = tree.children(node);
                if *next < ch.len() {
                    let c = if mirrored { ch[ch.len() - 1 - *next] } else { ch[*next] };
                    *next += 1;
                    stack.push((c, 0));
                } else {
                    order.push(node);
                    stack.pop();
                }
            }
        }

        for (i, &id) in order.iter().enumerate() {
            post_index[id.index()] = i;
            let sym = tree.sym(id);
            syms.push(u64::from(sym.0));
            keys.push(label_hash[sym.index()]);
            // Leftmost (in traversal order) leaf descendant: for a leaf it is
            // itself; otherwise the lld of its first-traversed child.
            let ch = tree.children(id);
            if ch.is_empty() {
                lld.push(i);
            } else {
                let first = if mirrored { ch[ch.len() - 1] } else { ch[0] };
                lld.push(lld[post_index[first.index()]]);
            }
        }

        // Keyroots: the root plus every node whose lld differs from its
        // parent's lld (i.e. it has a left sibling in traversal order).
        // lld values are post-order indices < n, so a dense bitmap beats a
        // hash set.
        let mut keyroots = Vec::new();
        let mut seen_lld = vec![false; n];
        for i in (0..n).rev() {
            if !seen_lld[lld[i]] {
                seen_lld[lld[i]] = true;
                keyroots.push(i);
            }
        }
        keyroots.sort_unstable();
        let span_sum = keyroots.iter().map(|&k| (k - lld[k] + 1) as u64).sum();
        let lld32 = lld.iter().map(|&v| v as u32).collect();

        PostTree { syms, keys, lld, lld32, keyroots, span_sum, table: Arc::clone(tree.interner()) }
    }

    pub(crate) fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether `self` and `other` index the same label table, making raw
    /// symbol ids directly comparable.
    pub fn same_table(&self, other: &PostTree) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }
}

// ---------------------------------------------------------------------------
// the DP kernel: scratch arena, adaptive cells, branch-split inner loops
// ---------------------------------------------------------------------------

/// Kernel implementation selector of the oracle entries.  Production
/// entries always run the SIMD kernel with its scalar fallback; the modes
/// exist so the kernel bench and the equivalence proptests can pin each
/// kernel against the others.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// Fresh zero-initialised `u64` tables per pair, branchy inner loop —
    /// the PR 4 kernel, kept as the oracle and the bench baseline.
    Baseline,
    /// Thread-local scratch arena + width-adaptive cells + branch-split
    /// inner loops — the scalar kernel, and the fallback of `Simd`.
    Full,
    /// Arena + u32 cells + the vectorised wavefront kernel
    /// (`crate::simd`): the loop-carried min/add chain is broken by a
    /// weighted prefix-min scan so each vector of cells costs one add and
    /// one min on the carried path.  Dispatches to the widest lane set the
    /// CPU reports at runtime and falls back to `Full` when lanes are
    /// unavailable (`SV_NO_SIMD=1`, non-x86-64, pre-SSE4.1 hardware) or
    /// when the pair needs u64 cells.
    Simd,
}

impl KernelMode {
    /// Every mode, oracle first.
    pub const ALL: [KernelMode; 3] = [KernelMode::Baseline, KernelMode::Full, KernelMode::Simd];

    /// Short label for bench output.
    pub fn name(self) -> &'static str {
        match self {
            KernelMode::Baseline => "baseline",
            KernelMode::Full => "arena+u32+split",
            KernelMode::Simd => "simd",
        }
    }
}

/// Human-readable name of the DP kernel production TED paths run on this
/// host: `"simd-avx512f"`, `"simd-avx2"`, `"simd-sse4.1"`, `"scalar"`, or
/// `"scalar (SV_NO_SIMD)"` when the escape hatch forced lanes off.
/// Surfaced by `svserve`'s `health` builtin so operators can confirm what
/// a node is actually running.
pub fn active_kernel_name() -> &'static str {
    crate::simd::kernel_name()
}

/// The closed-form distance of a pair with an empty side.
fn empty_side(a: &Tree, b: &Tree, costs: CostModel) -> Option<u64> {
    match (a.is_empty(), b.is_empty()) {
        (true, _) => Some((b.size() as u64).saturating_mul(u64::from(costs.insert))),
        (false, true) => Some((a.size() as u64).saturating_mul(u64::from(costs.delete))),
        _ => None,
    }
}

/// Exact TED with an explicit strategy and kernel, and **no**
/// structural-hash short-circuit: hash-equal pairs run the full dynamic
/// program.  The oracle entry of the kernel bench and the equivalence
/// proptests; production code wants [`ted`].
#[doc(hidden)]
pub fn ted_with_mode(
    a: &Tree,
    b: &Tree,
    costs: CostModel,
    strategy: Strategy,
    mode: KernelMode,
) -> u64 {
    if let Some(d) = empty_side(a, b, costs) {
        return d;
    }
    let (pa, pb) = build_decompositions(a, b, strategy);
    match mode {
        KernelMode::Baseline => zhang_shasha_alloc(&pa, &pb, costs),
        KernelMode::Full => zs_full(&pa, &pb, costs),
        KernelMode::Simd => exact_kernel(&pa, &pb, costs),
    }
}

/// The exact kernel production entries run: the SIMD kernel where lanes
/// are live and the pair fits u32 lanes, the scalar kernel otherwise.
fn exact_kernel(a: &PostTree, b: &PostTree, costs: CostModel) -> u64 {
    crate::simd::exact(a, b, costs).unwrap_or_else(|| zs_full(a, b, costs))
}

/// The scalar kernel at the cell width [`cell_width`] proves safe.
fn zs_full(a: &PostTree, b: &PostTree, costs: CostModel) -> u64 {
    match cell_width(a.len(), b.len(), costs) {
        CellWidth::U32 => zs_dp::<u32>(a, b, costs),
        CellWidth::U64 => zs_dp::<u64>(a, b, costs),
    }
}

/// Thread-local DP scratch: the `td`/`fd` tables at both cell widths, plus
/// the SIMD kernel's pair-local u32 label columns.
///
/// Lifetime: one arena per worker thread, alive until the thread exits,
/// sized by the largest pair the thread has solved (a `ted_bounded` budget
/// caps that for adversarial inputs).  Buffers only ever grow; growth
/// zero-fills the *new* region once (`Vec::resize`), and everything else is
/// reused as-is — see `zs_dp` for why stale values are never observed.
pub(crate) struct Scratch {
    pub(crate) td32: Vec<u32>,
    pub(crate) fd32: Vec<u32>,
    pub(crate) td64: Vec<u64>,
    pub(crate) fd64: Vec<u64>,
    /// Pair-local u32 label ids for the SIMD kernel's lane-wide equality
    /// compares (see `simd::compress_labels`).
    pub(crate) la32: Vec<u32>,
    pub(crate) lb32: Vec<u32>,
}

impl Scratch {
    const fn new() -> Scratch {
        Scratch {
            td32: Vec::new(),
            fd32: Vec::new(),
            td64: Vec::new(),
            fd64: Vec::new(),
            la32: Vec::new(),
            lb32: Vec::new(),
        }
    }
}

thread_local! {
    pub(crate) static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// A DP cell: `u32` for the narrow kernel, `u64` for the wide one.
trait DpCell: Copy + Ord + std::ops::Add<Output = Self> {
    const ZERO: Self;
    fn of(cost: u32) -> Self;
    fn widen(self) -> u64;
    /// This width's arena tables, borrowed disjointly out of one `Scratch`.
    fn parts(s: &mut Scratch) -> (&mut Vec<Self>, &mut Vec<Self>)
    where
        Self: Sized;
}

impl DpCell for u32 {
    const ZERO: u32 = 0;
    fn of(cost: u32) -> u32 {
        cost
    }
    fn widen(self) -> u64 {
        u64::from(self)
    }
    fn parts(s: &mut Scratch) -> (&mut Vec<u32>, &mut Vec<u32>) {
        (&mut s.td32, &mut s.fd32)
    }
}

impl DpCell for u64 {
    const ZERO: u64 = 0;
    fn of(cost: u32) -> u64 {
        u64::from(cost)
    }
    fn widen(self) -> u64 {
        self
    }
    fn parts(s: &mut Scratch) -> (&mut Vec<u64>, &mut Vec<u64>) {
        (&mut s.td64, &mut s.fd64)
    }
}

/// Grow an arena buffer to at least `len` cells without touching the
/// existing prefix (only newly grown cells are zero-filled, once).
#[inline]
fn grow<C: DpCell>(v: &mut Vec<C>, len: usize) {
    if v.len() < len {
        v.resize(len, C::ZERO);
    }
}

/// One forest-form span of a DP row, `dj` in `[s0, s1)`: the hot core of
/// the branch-split kernel, shared by partial rows (where it covers the
/// whole row) and the forest runs of whole rows (where `pref` is the
/// insert ramp, i.e. fd row 0).  Returns the updated `left` carry.
///
/// The insert scan is unrolled 4-wide: `t0..t3` are the row-independent
/// delete/subtree candidates, `p1..p3` their in-block prefix mins off the
/// carried path, and the only cross-block dependency is `left + 4·ins` —
/// one add and one min per four cells instead of per cell.  The DP is
/// latency-bound on that chain, so the unroll (plus folding `left` in
/// last) is most of the kernel's speedup.  In-block intermediates stay
/// ≤ 2·(n·del + m·ins) (a 4-block implies `cols ≥ 5`, so `4·ins ≤ m·ins`),
/// which `cell_width` already bounds by the cell type — which is why the
/// block increments are only formed once a 4-block exists: on a narrow
/// span `3·ins` alone may exceed the cell.
///
/// Bounds (debug-asserted, guaranteed by the callers): `1 ≤ s0 ≤ s1 ≤
/// cur.len() == prev_row.len() == pj.len()`, `td_row.len() ≥ s1 - 1`, and
/// `pj[dj] = lld(j) − l2 ≤ dj − 1`, so `pref.len() ≥ s1 - 1` suffices for
/// the gather.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn forest_span<C: DpCell>(
    cur: &mut [C],
    prev_row: &[C],
    td_row: &[C],
    pj: &[u32],
    pref: &[C],
    s0: usize,
    s1: usize,
    mut left: C,
    del: C,
    ins: C,
) -> C {
    debug_assert!(1 <= s0 && s0 <= s1);
    debug_assert!(s1 <= cur.len() && s1 <= prev_row.len() && s1 <= pj.len());
    debug_assert!(td_row.len() + 1 >= s1 && pref.len() + 1 >= s1);
    // SAFETY: for dj in [s0, s1), dj < s1 ≤ cur/prev_row/pj lengths and
    // dj ≥ s0 ≥ 1 keeps `dj - 1` in td_row; the gather index satisfies
    // pj[dj] ≤ dj - 1 ≤ s1 - 2 < pref.len().  All asserted above.
    let t_at = |dj: usize| unsafe {
        let det = *pref.get_unchecked(*pj.get_unchecked(dj) as usize);
        (*prev_row.get_unchecked(dj) + del).min(det + *td_row.get_unchecked(dj - 1))
    };
    let mut dj = s0;
    if dj + 4 <= s1 {
        let ins2 = ins + ins;
        let ins3 = ins2 + ins;
        let ins4 = ins3 + ins;
        while dj + 4 <= s1 {
            let (t0, t1, t2, t3) = (t_at(dj), t_at(dj + 1), t_at(dj + 2), t_at(dj + 3));
            let p1 = t1.min(t0 + ins);
            let p2 = t2.min(p1 + ins);
            let p3 = t3.min(p2 + ins);
            let d3 = p3.min(left + ins4);
            // SAFETY: dj + 3 < s1 ≤ cur.len().
            unsafe {
                *cur.get_unchecked_mut(dj) = t0.min(left + ins);
                *cur.get_unchecked_mut(dj + 1) = p1.min(left + ins2);
                *cur.get_unchecked_mut(dj + 2) = p2.min(left + ins3);
                *cur.get_unchecked_mut(dj + 3) = d3;
            }
            left = d3;
            dj += 4;
        }
    }
    while dj < s1 {
        let d = t_at(dj).min(left + ins);
        // SAFETY: dj < s1 ≤ cur.len().
        unsafe { *cur.get_unchecked_mut(dj) = d };
        left = d;
        dj += 1;
    }
    left
}

/// The Zhang–Shasha dynamic program over the thread-local arena, generic
/// over the DP cell type.
///
/// **Why skipping zero-init is sound.**  Each `td[i·m + j]` is written
/// while processing the unique keyroot pair `(k(i), k(j))` whose spans
/// treat `i` and `j` as whole trees, and only read by keyroot pairs that
/// come later in the ascending double loop; each `fd` cell is written at
/// the top of its keyroot pair (row 0 / column 0 explicitly, the rest in
/// DP order) before any read.  Stale values from previous pairs — or from
/// previous *trees* — are therefore never observed, and the O(n·m) memset
/// the baseline kernel paid per pair is pure waste.
///
/// **Branch-split loops**: the `lld` comparisons that decide
/// tree-vs-forest cells depend only on the row (`a.lld[i] == l1`) and the
/// column (`b.lld[j] == l2`).  The column flags are precomputed per
/// keyroot as maximal constant runs, so each inner loop body is either
/// the pure tree-distance form or the pure forest form with no per-cell
/// flag test and no per-cell `lld` loads.
fn zs_dp<C: DpCell>(a: &PostTree, b: &PostTree, costs: CostModel) -> u64 {
    let (n, m) = (a.len(), b.len());
    let del = C::of(costs.delete);
    let ins = C::of(costs.insert);
    let rel = C::of(costs.relabel);

    // Label identity column: exact symbol ids when both decompositions share
    // an interner table, memoized content hashes otherwise.
    let (la, lb): (&[u64], &[u64]) =
        if a.same_table(b) { (&a.syms, &b.syms) } else { (&a.keys, &b.keys) };

    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        let (td_vec, fd_vec) = C::parts(s);
        grow(td_vec, n * m);
        grow(fd_vec, (n + 1) * (m + 1));
        // Reborrow as plain slices: indexing through `&mut Vec` forces the
        // data pointer and length to be reloaded after every store (a cell
        // store could alias the Vec header as far as LLVM can prove), which
        // costs ~15% on the inner loop.  A `&mut [C]` local keeps both in
        // registers, matching the owned-Vec codegen of the old kernel.
        let td: &mut [C] = td_vec;
        let fd: &mut [C] = fd_vec;

        // Per-keyroot-pair fixed costs matter as much as the DP cells on
        // AST-shaped trees: spans average under ten nodes, so a tree pair
        // has O(keyroots²) tiny tables (~10⁵–10⁶ of them), each paying its
        // own init and column-metadata setup.  Everything that depends
        // only on one side is therefore hoisted to this once-per-tree-pair
        // block: the column metadata of the branch-split loop (flat,
        // offset-indexed per kr2, instead of rebuilt per (kr1, kr2)), and
        // delete/insert cost ramps so border inits are a memcpy plus
        // independent stores rather than a dependent add chain.
        let nkr2 = b.keyroots.len();
        let mut pj_flat: Vec<u32> = Vec::new();
        let mut pj_off: Vec<u32> = Vec::with_capacity(nkr2);
        let mut runs_flat: Vec<(u32, u32, bool)> = Vec::new();
        let mut runs_off: Vec<u32> = Vec::with_capacity(nkr2 + 1);
        for &kr2 in &b.keyroots {
            let l2 = b.lld[kr2];
            let cols = kr2 - l2 + 2;
            pj_off.push(pj_flat.len() as u32);
            runs_off.push(runs_flat.len() as u32);
            // dj = 0 is a placeholder; dj = 1 is l2 itself, always a whole
            // (single-leaf) tree.
            pj_flat.push(0);
            let (mut start, mut whole) = (1u32, true);
            for dj in 1..cols {
                let j = l2 + dj - 1;
                let w = b.lld[j] == l2;
                pj_flat.push((b.lld[j] - l2) as u32);
                if w != whole {
                    runs_flat.push((start, dj as u32, whole));
                    start = dj as u32;
                    whole = w;
                }
            }
            runs_flat.push((start, cols as u32, whole));
        }
        runs_off.push(runs_flat.len() as u32);
        let mut del_ramp: Vec<C> = Vec::with_capacity(n + 1);
        let mut ins_ramp: Vec<C> = Vec::with_capacity(m + 1);
        let (mut d, mut i) = (C::ZERO, C::ZERO);
        del_ramp.push(d);
        ins_ramp.push(i);
        for _ in 0..n {
            d = d + del;
            del_ramp.push(d);
        }
        for _ in 0..m {
            i = i + ins;
            ins_ramp.push(i);
        }

        for &kr1 in &a.keyroots {
            let l1 = a.lld[kr1];
            let rows = kr1 - l1 + 2; // forest prefix sizes 0..=kr1-l1+1
            for (q, &kr2) in b.keyroots.iter().enumerate() {
                let l2 = b.lld[kr2];
                let cols = kr2 - l2 + 2;

                // fd row 0 is never materialised: it is exactly
                // `ins_ramp[..cols]`, and the only readers — the di == 1
                // previous row and the whole-row detached prefix (pi == 0)
                // — read the shared ramp instead, which stays cache-hot
                // across all keyroot pairs.  Column 0 is still stored
                // (rows 1..): detached-prefix gathers hit it at
                // runtime-computed offsets.
                for di in 1..rows {
                    fd[di * cols] = del_ramp[di];
                }
                let pj = &pj_flat[pj_off[q] as usize..][..cols];
                let runs = &runs_flat[runs_off[q] as usize..runs_off[q + 1] as usize];

                #[allow(clippy::needless_range_loop)] // di also derives row offsets
                for di in 1..rows {
                    let i = l1 + di - 1; // actual post-order node in a
                    let row = di * cols;
                    let prev = row - cols;

                    // Row slices: `cur` is exactly `cols` long and every
                    // other row the loop reads lies strictly below it, so
                    // one `split_at_mut` re-expresses all the 2-D indexing
                    // as in-bounds 1-D indexing.  `left` carries
                    // `cur[dj - 1]` in a register.
                    //
                    // Candidate association matters: the delete and
                    // subtree candidates depend only on earlier rows, so
                    // `min`-ing them FIRST and folding `left + ins` in
                    // LAST keeps the loop-carried dependency chain at one
                    // add plus one min (~2 cycles) instead of threading
                    // `left` through the whole three-way min (~5 cycles).
                    // The DP is latency-bound on that chain, so the
                    // association alone is worth ~2x on long rows.
                    let (fd_lo, fd_hi) = fd.split_at_mut(row);
                    let cur = &mut fd_hi[..cols];
                    let prev_row: &[C] = if di == 1 { &ins_ramp[..cols] } else { &fd_lo[prev..] };
                    let td_row = &mut td[i * m + l2..i * m + kr2 + 1];
                    let mut left = del_ramp[di];
                    if a.lld[i] == l1 {
                        let lai = la[i];
                        let lb_row = &lb[l2..kr2 + 1];
                        for &(s0, s1, whole) in runs.iter() {
                            // Runs end at `cols` by construction; the
                            // redundant clamp lets the compiler prove
                            // every in-run index below is in bounds.
                            let s0 = s0 as usize;
                            let s1 = (s1 as usize).min(cols);
                            if whole {
                                // Both forests are whole trees: record a
                                // tree distance.
                                for dj in s0..s1 {
                                    let sub = if lai == lb_row[dj - 1] { C::ZERO } else { rel };
                                    let t = (prev_row[dj] + del).min(prev_row[dj - 1] + sub);
                                    let d = t.min(left + ins);
                                    cur[dj] = d;
                                    td_row[dj - 1] = d;
                                    left = d;
                                }
                            } else {
                                // Whole row, partial column: the detached
                                // row prefix is empty (pi == 0), i.e. fd
                                // row 0, which is the insert ramp.
                                left = forest_span(
                                    cur, prev_row, td_row, pj, &ins_ramp, s0, s1, left, del, ins,
                                );
                            }
                        }
                    } else {
                        // Partial row: every cell is the general forest
                        // case — detach whole subtrees, no td writes.
                        let pref = &fd_lo[(a.lld[i] - l1) * cols..][..cols];
                        forest_span(cur, prev_row, td_row, pj, pref, 1, cols, left, del, ins);
                    }
                }
            }
        }
        td[(n - 1) * m + (m - 1)].widen()
    })
}

/// The PR 4 kernel: fresh zero-initialised `u64` tables per pair, branchy
/// inner loop.  Kept verbatim as the ablation baseline and as a second
/// implementation the proptests pin the arena kernels against.
fn zhang_shasha_alloc(a: &PostTree, b: &PostTree, costs: CostModel) -> u64 {
    let (n, m) = (a.len(), b.len());
    let del = u64::from(costs.delete);
    let ins = u64::from(costs.insert);
    let rel = u64::from(costs.relabel);

    let (la, lb): (&[u64], &[u64]) =
        if a.same_table(b) { (&a.syms, &b.syms) } else { (&a.keys, &b.keys) };

    // Permanent tree-distance table td[i][j] for subtree pairs rooted at
    // post-order nodes i, j, plus the scratch forest-distance table.
    let mut td = vec![0u64; n * m];
    let mut fd = vec![0u64; (n + 1) * (m + 1)];

    for &kr1 in &a.keyroots {
        let l1 = a.lld[kr1];
        let rows = kr1 - l1 + 2;
        for &kr2 in &b.keyroots {
            let l2 = b.lld[kr2];
            let cols = kr2 - l2 + 2;
            let at = |di: usize, dj: usize| di * cols + dj;

            fd[at(0, 0)] = 0;
            for di in 1..rows {
                fd[at(di, 0)] = fd[at(di - 1, 0)] + del;
            }
            for dj in 1..cols {
                fd[at(0, dj)] = fd[at(0, dj - 1)] + ins;
            }
            for di in 1..rows {
                let i = l1 + di - 1;
                for dj in 1..cols {
                    let j = l2 + dj - 1;
                    if a.lld[i] == l1 && b.lld[j] == l2 {
                        let sub = if la[i] == lb[j] { 0 } else { rel };
                        let d = (fd[at(di - 1, dj)] + del)
                            .min(fd[at(di, dj - 1)] + ins)
                            .min(fd[at(di - 1, dj - 1)] + sub);
                        fd[at(di, dj)] = d;
                        td[i * m + j] = d;
                    } else {
                        let pi = a.lld[i].saturating_sub(l1);
                        let pj = b.lld[j].saturating_sub(l2);
                        let d = (fd[at(di - 1, dj)] + del)
                            .min(fd[at(di, dj - 1)] + ins)
                            .min(fd[at(pi, pj)] + td[i * m + j]);
                        fd[at(di, dj)] = d;
                    }
                }
            }
        }
    }
    td[(n - 1) * m + (m - 1)]
}

/// Error from the memory-bounded solver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TedError {
    /// The DP tables for this pair would exceed the caller's budget.
    ///
    /// The paper hit exactly this wall: "we were only able to do a short
    /// and incomplete divergence run of GROMACS's SYCL and CUDA port but
    /// had to exclude OpenMP due to limited memory on our workstations."
    BudgetExceeded { needed_bytes: u64, budget_bytes: u64 },
}

impl std::fmt::Display for TedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TedError::BudgetExceeded { needed_bytes, budget_bytes } => {
                write!(f, "TED needs ~{needed_bytes} bytes of DP tables, budget is {budget_bytes}")
            }
        }
    }
}

impl std::error::Error for TedError {}

/// Lane-pad cells appended to each u32 arena table so the SIMD kernel may
/// always issue full-width loads/stores at logical table ends, and the
/// bytes that pad plus the kernel's two pair-local u32 label columns add
/// to [`memory_estimate_with`] for u32-width pairs.
pub(crate) const SIMD_LANE_PAD: usize = 16;

/// Estimated peak bytes of DP state Zhang–Shasha holds for a pair under
/// `costs`: the permanent `n·m` tree-distance table plus the
/// `(n+1)·(m+1)` scratch forest table, at the cell width the kernel will
/// actually select (see [`cell_width`]).  Unit-cost pairs — the paper's
/// GROMACS scenario — need 4-byte cells, half of what the old fixed-`u64`
/// kernel estimated; extreme cost models still cost 8 bytes per cell.
/// u32-width pairs additionally account for the SIMD kernel's lane padding
/// (two tables × [`SIMD_LANE_PAD`] cells) and its `n + m` pair-local u32
/// label ids, so the `ted_bounded` budget check covers the production
/// kernel's true footprint whichever kernel dispatch picks.
pub fn memory_estimate_with(a: &Tree, b: &Tree, costs: CostModel) -> u64 {
    let n = a.size() as u64;
    let m = b.size() as u64;
    let width = cell_width(a.size(), b.size(), costs);
    let tables = width.bytes() * (n * m + (n + 1) * (m + 1));
    match width {
        CellWidth::U32 => tables + 4 * (n + m) + 2 * 4 * SIMD_LANE_PAD as u64,
        CellWidth::U64 => tables,
    }
}

/// [`memory_estimate_with`] under the paper's unit-cost model.
pub fn memory_estimate(a: &Tree, b: &Tree) -> u64 {
    memory_estimate_with(a, b, CostModel::UNIT)
}

/// Exact count of DP cells the keyroot double loop touches for this pair
/// under `strategy` — Σ over keyroot pairs of `rows × cols`, which
/// factors as `(span_sum_a + |keyroots_a|) · (span_sum_b + |keyroots_b|)`
/// for the decomposition [`Strategy::Auto`] would select.  The ablation
/// bench divides measured wall time by this to report cells/s and place
/// each kernel stage on a roofline; production code has no use for it.
#[doc(hidden)]
pub fn dp_cell_estimate(a: &Tree, b: &Tree, strategy: Strategy) -> u64 {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let (pa, pb) = build_decompositions(a, b, strategy);
    let fa = pa.span_sum + pa.keyroots.len() as u64;
    let fb = pb.span_sum + pb.keyroots.len() as u64;
    fa * fb
}

/// TED with an explicit memory budget: refuses up front (no allocation)
/// when the DP tables would exceed `max_bytes`, instead of taking the
/// machine down the way the paper's GROMACS run did.
pub fn ted_bounded(
    a: &SharedTree,
    b: &SharedTree,
    costs: CostModel,
    max_bytes: u64,
) -> Result<u64, TedError> {
    let needed = memory_estimate_with(a, b, costs);
    if needed > max_bytes {
        return Err(TedError::BudgetExceeded { needed_bytes: needed, budget_bytes: max_bytes });
    }
    Ok(ted(a, b, costs))
}

/// Threshold TED: `Some(ted(a, b))` iff the distance is ≤ `tau`, `None`
/// otherwise — the early-exit half of the approximate-first engine
/// (clustering only needs exact values near the linkage frontier; every
/// pair provably beyond it is answered without finishing the DP).
///
/// Contract, pinned by proptest against the exact oracle:
/// `ted_within(a, b, c, tau) == Some(d)  ⟺  ted(a, b, c) == d ≤ tau`.
///
/// The memoized lower-bound profiles (see [`crate::lowerbound`]) prefilter
/// the pair first: when `pqgram_lb(a, b) > tau` no decomposition is
/// touched at all.
///
/// A note on *how* the DP exits early: a running row-minimum check is
/// unsound for Zhang–Shasha — the detached-subtree transition jumps from
/// `(lld(i), lld(j))` to `(i, j)` across many rows, and `fd[0][0] = 0`
/// keeps every row minimum at 0 anyway.  What is sound is a *band*: a
/// forest-prefix pair `(di, dj)` costs at least `(di − dj)·delete` (resp.
/// `(dj − di)·insert`) on size grounds alone, so any cell with
/// `di − dj > tau/delete` or `dj − di > tau/insert` can never sit on a
/// ≤ `tau` derivation.  The kernel computes only in-band cells (Touzet's
/// banded strategy adapted to the keyroot DP), clamps everything else at
/// `tau + 1`, and skips whole keyroot rows once their band empties.
pub fn ted_within(a: &SharedTree, b: &SharedTree, costs: CostModel, tau: u64) -> Option<u64> {
    if let Some(d) = trivial(a, b, costs) {
        return (d <= tau).then_some(d);
    }
    if crate::lowerbound::pqgram_lb(a.profile(), b.profile(), costs) > tau {
        return None;
    }
    let (pa, pb) = auto_pair(a, b);
    within_kernel(pa, pb, costs, tau)
}

/// Threshold TED with an explicit strategy and kernel, and no prefilter
/// or structural-hash short-circuit: [`KernelMode::Baseline`] solves
/// exactly with the PR 4 kernel and applies the threshold afterwards (the
/// oracle the proptests and the approx bench pin the banded kernels
/// against), `Full` runs the scalar banded kernel and `Simd` the vector
/// one with its scalar fallback.
#[doc(hidden)]
pub fn ted_within_with_mode(
    a: &Tree,
    b: &Tree,
    costs: CostModel,
    strategy: Strategy,
    tau: u64,
    mode: KernelMode,
) -> Option<u64> {
    if let Some(d) = empty_side(a, b, costs) {
        return (d <= tau).then_some(d);
    }
    let (pa, pb) = build_decompositions(a, b, strategy);
    match mode {
        KernelMode::Baseline => {
            let d = zhang_shasha_alloc(&pa, &pb, costs);
            (d <= tau).then_some(d)
        }
        KernelMode::Full => zs_within(&pa, &pb, costs, tau),
        KernelMode::Simd => within_kernel(&pa, &pb, costs, tau),
    }
}

/// The banded kernel production entries run: the SIMD banded kernel
/// whenever lanes are available and the `tau`-derived u32 intermediates
/// provably cannot wrap, the scalar `u64` banded kernel otherwise.
fn within_kernel(a: &PostTree, b: &PostTree, costs: CostModel, tau: u64) -> Option<u64> {
    crate::simd::within(a, b, costs, tau).unwrap_or_else(|| zs_within(a, b, costs, tau))
}

/// The banded (threshold) Zhang–Shasha kernel.
///
/// Runs on the `u64` scratch arena with saturating arithmetic, treating
/// `inf = tau + 1` as "provably > tau".  Soundness: every computed cell
/// satisfies `cell ≥ min(true, inf)` (each candidate is a source obeying
/// the same invariant plus a non-negative cost, and out-of-band reads
/// return `inf`, which never under-cuts `min(true, inf)`).  Exactness:
/// when the true distance is ≤ `tau`, every forest pair on an optimal
/// derivation has true value ≤ `tau` (costs are non-negative and
/// accumulate along the derivation), hence lies inside the band and is
/// computed from in-band sources — by induction the banded value equals
/// the true value.  Together: `banded ≤ tau ⟺ true ≤ tau`, and then
/// `banded == true`.
///
/// Cell liveness across keyroot pairs mirrors `zs_dp`: a `td` or `fd`
/// cell is read through the *same* band-membership test under which it
/// was (or was not) written — its local coordinates `(i − lld(i) + 1,
/// j − lld(j) + 1)` are identical in the defining and the reading keyroot
/// pair — so out-of-band cells are never materialised and stale arena
/// values are never observed.
fn zs_within(a: &PostTree, b: &PostTree, costs: CostModel, tau: u64) -> Option<u64> {
    let (n, m) = (a.len(), b.len());
    let del = u64::from(costs.delete);
    let ins = u64::from(costs.insert);
    let rel = u64::from(costs.relabel);
    let inf = tau.saturating_add(1);
    // Band half-widths in forest-prefix coordinates: a cell with
    // di − dj > bd needs more than tau worth of deletes on size grounds
    // alone (resp. inserts for dj − di > bi).  Zero-cost operations make
    // the band unbounded on that side.
    let bd = tau.checked_div(del).unwrap_or(u64::MAX);
    let bi = tau.checked_div(ins).unwrap_or(u64::MAX);
    let in_band = |r: u64, c: u64| r.saturating_sub(c) <= bd && c.saturating_sub(r) <= bi;

    let (la, lb): (&[u64], &[u64]) =
        if a.same_table(b) { (&a.syms, &b.syms) } else { (&a.keys, &b.keys) };

    SCRATCH.with(|scratch| {
        let s = &mut *scratch.borrow_mut();
        let (td_vec, fd_vec) = <u64 as DpCell>::parts(s);
        grow(td_vec, n * m);
        grow(fd_vec, (n + 1) * (m + 1));
        let td: &mut [u64] = td_vec;
        let fd: &mut [u64] = fd_vec;

        // Band-checked fd read: borders come from cost ramps (in band) or
        // `inf`; stored cells only exist in band, everything else is `inf`.
        let fd_at = |fd: &[u64], cols: usize, r: usize, c: usize| -> u64 {
            if r == 0 {
                return if (c as u64) <= bi { (c as u64).saturating_mul(ins) } else { inf };
            }
            if c == 0 {
                return if (r as u64) <= bd { (r as u64).saturating_mul(del) } else { inf };
            }
            if in_band(r as u64, c as u64) {
                fd[r * cols + c]
            } else {
                inf
            }
        };

        for &kr1 in &a.keyroots {
            let l1 = a.lld[kr1];
            let rows = kr1 - l1 + 2;
            for &kr2 in &b.keyroots {
                let l2 = b.lld[kr2];
                let cols = kr2 - l2 + 2;
                for di in 1..rows {
                    // Rows only move further below the band; once this
                    // row's window is empty all later rows' are too.
                    if (di as u64).saturating_sub(bd) > (cols - 1) as u64 {
                        break;
                    }
                    let jlo = if (di as u64) > bd { (di as u64 - bd) as usize } else { 1 }.max(1);
                    let jhi = (di as u64).saturating_add(bi).min((cols - 1) as u64) as usize;
                    let i = l1 + di - 1;
                    let row = di * cols;
                    let mut left = fd_at(fd, cols, di, jlo - 1);
                    for dj in jlo..=jhi {
                        let j = l2 + dj - 1;
                        let up = fd_at(fd, cols, di - 1, dj).saturating_add(del);
                        let lf = left.saturating_add(ins);
                        let d = if a.lld[i] == l1 && b.lld[j] == l2 {
                            let sub = if la[i] == lb[j] { 0 } else { rel };
                            let diag = fd_at(fd, cols, di - 1, dj - 1).saturating_add(sub);
                            let d = up.min(lf).min(diag).min(inf);
                            td[i * m + j] = d;
                            d
                        } else {
                            let pi = a.lld[i] - l1;
                            let pjv = b.lld[j] - l2;
                            // Whole-subtree distance, band-checked in the
                            // local coordinates of its defining pair.
                            let (tr, tc) = (i - a.lld[i] + 1, j - b.lld[j] + 1);
                            let t = if in_band(tr as u64, tc as u64) { td[i * m + j] } else { inf };
                            let detach = fd_at(fd, cols, pi, pjv).saturating_add(t);
                            up.min(lf).min(detach).min(inf)
                        };
                        fd[row + dj] = d;
                        left = d;
                    }
                }
            }
        }
        let d = if in_band(n as u64, m as u64) { td[(n - 1) * m + (m - 1)] } else { inf };
        (d <= tau).then_some(d)
    })
}

/// Composition of an optimal unit-cost edit script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditStats {
    pub inserts: u64,
    pub deletes: u64,
    pub relabels: u64,
}

impl EditStats {
    /// Total unit-cost distance.
    pub fn total(&self) -> u64 {
        self.inserts + self.deletes + self.relabels
    }
}

/// Decompose the unit-cost TED into insert/delete/relabel counts of an
/// optimal script — the quantities a per-operation cost model (the paper's
/// future-work knob: "adding new code may have a different productivity
/// impact than removing existing code") would weight.
///
/// Two exact solves share one decomposition pair (the strategy choice
/// depends only on keyroot spans, never on the cost model): with relabel
/// cost 2 a relabel never beats delete+insert, so `d₂ − d₁` counts the
/// relabels of an optimal unit-cost script, and
/// `|T₂| − |T₁| = inserts − deletes` closes the system.
pub fn edit_stats(a: &SharedTree, b: &SharedTree) -> EditStats {
    let (d1, relabels) = match trivial(a, b, CostModel::UNIT) {
        Some(d) => (d, 0),
        None => {
            let (pa, pb) = auto_pair(a, b);
            let d1 = exact_kernel(pa, pb, CostModel::UNIT);
            let d2 = exact_kernel(pa, pb, CostModel { delete: 1, insert: 1, relabel: 2 });
            (d1, d2 - d1)
        }
    };
    let matched_cost = d1 - relabels; // inserts + deletes
    let diff = b.size() as i64 - a.size() as i64; // inserts - deletes
    let inserts = ((matched_cost as i64 + diff) / 2) as u64;
    EditStats { inserts, deletes: matched_cost - inserts, relabels }
}

/// Brute-force TED oracle: direct forest recursion with memoisation.
///
/// Exponential in the worst case — only use on trees of ≲ 12 nodes.  It is
/// deliberately implemented on a completely different decomposition (root
/// lists instead of post-order spans) so that agreement with
/// the DP kernels is strong evidence of correctness.
pub fn naive_ted(a: &Tree, b: &Tree, costs: CostModel) -> u64 {
    type Forest = Vec<NodeId>;

    /// Per-node post-order index and leftmost-leaf post-order index.
    ///
    /// Every forest the rightmost-root recursion produces covers a
    /// contiguous post-order interval (removing the rightmost root and
    /// appending its children deletes the interval's top index; taking
    /// the children or the rest alone splits it), so the pair
    /// `(lld(first_root), post(last_root))` identifies a forest exactly —
    /// the memo keys on those span indices instead of cloning node lists.
    fn spans(t: &Tree) -> (Vec<u32>, Vec<u32>) {
        let n = t.size();
        let mut post = vec![0u32; n];
        let mut lo = vec![0u32; n];
        let mut idx = 0u32;
        if let Some(r) = t.root() {
            let mut stack: Vec<(NodeId, usize)> = vec![(r, 0)];
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                let ch = t.children(node);
                if *next < ch.len() {
                    let c = ch[*next];
                    *next += 1;
                    stack.push((c, 0));
                } else {
                    post[node.index()] = idx;
                    lo[node.index()] = if ch.is_empty() { idx } else { lo[ch[0].index()] };
                    idx += 1;
                    stack.pop();
                }
            }
        }
        (post, lo)
    }

    /// Span key of a forest (`u64::MAX` for the empty forest, which has
    /// no valid `lo ≤ hi` encoding).
    fn fkey(post: &[u32], lo: &[u32], f: &Forest) -> u64 {
        match (f.first(), f.last()) {
            (Some(a0), Some(al)) => (u64::from(lo[a0.index()]) << 32) | u64::from(post[al.index()]),
            _ => u64::MAX,
        }
    }

    struct Ctx<'t> {
        a: &'t Tree,
        b: &'t Tree,
        post_a: Vec<u32>,
        lo_a: Vec<u32>,
        post_b: Vec<u32>,
        lo_b: Vec<u32>,
        costs: CostModel,
        memo: HashMap<(u64, u64), u64>,
    }

    fn solve(cx: &mut Ctx<'_>, f1: &Forest, f2: &Forest) -> u64 {
        if f1.is_empty() && f2.is_empty() {
            return 0;
        }
        if f1.is_empty() {
            return f2.iter().map(|&r| cx.b.subtree_size(r) as u64).sum::<u64>()
                * u64::from(cx.costs.insert);
        }
        if f2.is_empty() {
            return f1.iter().map(|&r| cx.a.subtree_size(r) as u64).sum::<u64>()
                * u64::from(cx.costs.delete);
        }
        let k = (fkey(&cx.post_a, &cx.lo_a, f1), fkey(&cx.post_b, &cx.lo_b, f2));
        if let Some(&v) = cx.memo.get(&k) {
            return v;
        }

        // Work on the rightmost roots.
        let r1 = *f1.last().unwrap();
        let r2 = *f2.last().unwrap();

        // Option 1: delete r1 (its children join the forest).
        let mut f1_del = f1[..f1.len() - 1].to_vec();
        f1_del.extend_from_slice(cx.a.children(r1));
        let d1 = solve(cx, &f1_del, f2) + u64::from(cx.costs.delete);

        // Option 2: insert r2.
        let mut f2_ins = f2[..f2.len() - 1].to_vec();
        f2_ins.extend_from_slice(cx.b.children(r2));
        let d2 = solve(cx, f1, &f2_ins) + u64::from(cx.costs.insert);

        // Option 3: match r1 with r2.
        let sub = if cx.a.label(r1) == cx.b.label(r2) { 0 } else { u64::from(cx.costs.relabel) };
        let c1: Forest = cx.a.children(r1).to_vec();
        let c2: Forest = cx.b.children(r2).to_vec();
        let rest1: Forest = f1[..f1.len() - 1].to_vec();
        let rest2: Forest = f2[..f2.len() - 1].to_vec();
        let d3 = solve(cx, &c1, &c2) + solve(cx, &rest1, &rest2) + sub;

        let best = d1.min(d2).min(d3);
        cx.memo.insert(k, best);
        best
    }

    let (post_a, lo_a) = spans(a);
    let (post_b, lo_b) = spans(b);
    let f1: Forest = a.root().into_iter().collect();
    let f2: Forest = b.root().into_iter().collect();
    let mut cx = Ctx { a, b, post_a, lo_a, post_b, lo_b, costs, memo: HashMap::new() };
    solve(&mut cx, &f1, &f2)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn t(s: &str) -> Tree {
        Tree::from_sexpr(s).unwrap()
    }

    fn sh(s: &str) -> SharedTree {
        SharedTree::new(t(s))
    }

    /// Unit-cost [`ted`] over fresh shared wrappers of plain trees.
    fn unit(a: &Tree, b: &Tree) -> u64 {
        ted(&SharedTree::new(a.clone()), &SharedTree::new(b.clone()), CostModel::UNIT)
    }

    /// The oracle entry under every strategy, then the production entry.
    fn all_strategies(a: &Tree, b: &Tree) -> Vec<u64> {
        let mut ds: Vec<u64> = [Strategy::Left, Strategy::Right, Strategy::Auto]
            .iter()
            .map(|&s| ted_with_mode(a, b, CostModel::UNIT, s, KernelMode::Simd))
            .collect();
        ds.push(unit(a, b));
        ds
    }

    #[test]
    fn identical_trees_are_zero() {
        let a = t("(f (g a b) (h c))");
        for d in all_strategies(&a, &a.clone()) {
            assert_eq!(d, 0);
        }
    }

    #[test]
    fn empty_tree_cases() {
        let e = Tree::empty();
        let a = t("(f a b)");
        assert_eq!(unit(&e, &e), 0);
        assert_eq!(unit(&e, &a), 3);
        assert_eq!(unit(&a, &e), 3);
    }

    #[test]
    fn single_relabel() {
        let a = t("(f a b)");
        let b = t("(g a b)");
        for d in all_strategies(&a, &b) {
            assert_eq!(d, 1);
        }
    }

    #[test]
    fn single_insert_delete() {
        let a = t("(f a)");
        let b = t("(f a b)");
        assert_eq!(unit(&a, &b), 1);
        assert_eq!(unit(&b, &a), 1);
    }

    #[test]
    fn ted_within_matches_exact_across_thresholds() {
        let pairs = [
            ("(f (c a b) d)", "(f a (d b))"),
            ("(f (d a (c b)) e)", "(f (c (d a b)) e)"),
            ("(a (b c d) e)", "(a (b c) (e d))"),
            ("(s a a a a)", "(s a a)"),
            ("(f a)", "(g (h (i (j k))))"),
            ("(x)", "(x)"),
        ];
        let costs = [
            CostModel::UNIT,
            CostModel { delete: 2, insert: 3, relabel: 1 },
            CostModel { delete: 0, insert: 1, relabel: 4 },
            CostModel { delete: 5, insert: 0, relabel: 2 },
        ];
        for (sa, sb) in pairs {
            let (a, b) = (t(sa), t(sb));
            let (xa, xb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
            for &c in &costs {
                let exact = ted(&xa, &xb, c);
                let taus = [0, exact.saturating_sub(1), exact, exact + 1, 2 * exact + 3];
                for tau in taus {
                    let want = (exact <= tau).then_some(exact);
                    assert_eq!(ted_within(&xa, &xb, c, tau), want, "{sa} vs {sb} {c:?} tau={tau}");
                    for strat in [Strategy::Left, Strategy::Right, Strategy::Auto] {
                        for mode in KernelMode::ALL {
                            assert_eq!(
                                ted_within_with_mode(&a, &b, c, strat, tau, mode),
                                want,
                                "{sa} vs {sb} {c:?} {strat:?} {mode:?} tau={tau}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn ted_within_uses_profile_prefilter() {
        let a = sh("(f (g a b) (h c))");
        let b = sh("(z (y x) (w (v u) q))");
        let exact = ted(&a, &b, CostModel::UNIT);
        assert_eq!(ted_within(&a, &b, CostModel::UNIT, exact), Some(exact));
        assert_eq!(ted_within(&a, &b, CostModel::UNIT, exact - 1), None);
        // A prefiltered pair never touches the decompositions.
        let c = sh("(only root)");
        let far = sh("(a (b (c (d (e (f (g h)))))) i j k l)");
        assert_eq!(ted_within(&c, &far, CostModel::UNIT, 1), None);
        assert!(!c.views_ready() && !far.views_ready());
    }

    #[test]
    fn ted_within_max_tau_degenerates_to_exact() {
        let a = sh("(f (d a (c b)) e)");
        let b = sh("(g (c (d q b)) e f)");
        let exact = ted(&a, &b, CostModel::UNIT);
        assert_eq!(ted_within(&a, &b, CostModel::UNIT, u64::MAX), Some(exact));
    }

    #[test]
    fn paper_figure_one_distance_five() {
        // Fig. 1: "Two ASTs with a TED distance of five: four outlined nodes
        // are inserted or deleted with one relabelled node on the top."
        let a = t("(CompoundStmt (DeclStmt (VarDecl IntegerLiteral)) (ReturnStmt DeclRefExpr))");
        let b = t("(CompoundStmt (ReturnStmt (BinaryOp IntegerLiteral IntegerLiteral)))");
        // delete DeclStmt, VarDecl, DeclRefExpr; insert BinaryOp and one
        // IntegerLiteral: 5 ops (the shared IntegerLiteral and ReturnStmt map).
        assert_eq!(unit(&a, &b), 5);
        assert_eq!(naive_ted(&a, &b, CostModel::UNIT), 5);
    }

    #[test]
    fn classic_zhang_shasha_example() {
        // The canonical ZS paper example: d(f(d(a c(b)) e), f(c(d(a b)) e)) = 2.
        let a = t("(f (d a (c b)) e)");
        let b = t("(f (c (d a b)) e)");
        for d in all_strategies(&a, &b) {
            assert_eq!(d, 2);
        }
        assert_eq!(naive_ted(&a, &b, CostModel::UNIT), 2);
    }

    #[test]
    fn symmetry_under_unit_costs() {
        let a = t("(x (y a b c) (z d))");
        let b = t("(x (w a) (z d e f))");
        assert_eq!(unit(&a, &b), unit(&b, &a));
    }

    #[test]
    fn asymmetric_costs() {
        let a = sh("(f a b)"); // to reach b: insert one node
        let b = sh("(f a b c)");
        let exp = CostModel { delete: 1, insert: 7, relabel: 1 };
        assert_eq!(ted(&a, &b, exp), 7);
        assert_eq!(ted(&b, &a, exp), 1); // deletion side
        assert_eq!(naive_ted(&a, &b, exp), 7);
    }

    #[test]
    fn relabel_vs_delete_insert_tradeoff() {
        // With relabel cost 3 > delete+insert = 2, the solver must prefer
        // delete+insert over relabel.
        let a = sh("a");
        let b = sh("b");
        let cm = CostModel { delete: 1, insert: 1, relabel: 3 };
        assert_eq!(ted(&a, &b, cm), 2);
        assert_eq!(naive_ted(&a, &b, cm), 2);
    }

    #[test]
    fn distance_bounded_by_sizes() {
        let a = t("(f (g a b) c)");
        let b = t("(x (y (z q)))");
        let d = unit(&a, &b);
        assert!(d <= (a.size() + b.size()) as u64);
        assert!(d >= (a.size() as i64 - b.size() as i64).unsigned_abs());
    }

    #[test]
    fn strategies_agree_on_fixed_cases() {
        let cases = [
            ("(a (b c d) e)", "(a (b c) (e d))"),
            ("(root (l1 (l2 (l3 x))))", "(root x)"),
            ("(s a a a a)", "(s a a)"),
            ("(p (q (r (s t))))", "(p q r s t)"),
            ("(m (n o) (n o) (n o))", "(m (n o))"),
        ];
        for (sa, sb) in cases {
            let a = t(sa);
            let b = t(sb);
            let ds = all_strategies(&a, &b);
            assert!(ds.windows(2).all(|w| w[0] == w[1]), "{sa} vs {sb}: {ds:?}");
            assert_eq!(ds[0], naive_ted(&a, &b, CostModel::UNIT), "{sa} vs {sb}");
        }
    }

    #[test]
    fn kernel_modes_agree_on_fixed_cases() {
        // Every kernel — and every strategy — must compute the same
        // distances as the oracle.
        let cases = [
            ("(a (b c d) e)", "(a (b c) (e d))"),
            ("(root (l1 (l2 (l3 x))))", "(root x)"),
            ("(f (d a (c b)) e)", "(f (c (d a b)) e)"),
            ("(m (n o) (n o) (n o))", "(m (n o))"),
            ("(s a a a a)", "(s a a)"),
            ("(f a b c d e)", "g"),
        ];
        let cms = [
            CostModel::UNIT,
            CostModel { delete: 2, insert: 3, relabel: 5 },
            CostModel { delete: u32::MAX, insert: u32::MAX, relabel: 1 },
            // Fits u32 cells against a one-node target, while 3·insert
            // does not (see `cell_width_selection_rule`).
            CostModel { delete: 1, insert: 1_500_000_000, relabel: 1 },
        ];
        for (sa, sb) in cases {
            let a = t(sa);
            let b = t(sb);
            for cm in cms {
                let expect = naive_ted(&a, &b, cm);
                for mode in KernelMode::ALL {
                    for s in [Strategy::Left, Strategy::Right, Strategy::Auto] {
                        assert_eq!(
                            ted_with_mode(&a, &b, cm, s, mode),
                            expect,
                            "{sa} vs {sb} {cm:?} {mode:?} {s:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cell_width_selection_rule() {
        // Unit costs fit u32 for any realistic tree.
        assert_eq!(cell_width(10_000, 10_000, CostModel::UNIT), CellWidth::U32);
        // Extreme weights force the wide kernel even on tiny trees.
        let extreme = CostModel { delete: u32::MAX, insert: u32::MAX, relabel: 1 };
        assert_eq!(cell_width(3, 1, extreme), CellWidth::U64);
        // Boundary: the worst intermediate is 2·(del·n + ins·m) + rel.
        // With del = ins = 2^20 and n = m = 1024 that is exactly 2^32,
        // one past u32::MAX; shrinking either side by one node fits again.
        let cm = CostModel { delete: 1 << 20, insert: 1 << 20, relabel: 0 };
        assert_eq!(cell_width(1024, 1024, cm), CellWidth::U64);
        assert_eq!(cell_width(1024, 1023, cm), CellWidth::U32);
        // A one-node target keeps a 1.5e9 insert cost narrow:
        // 2·(6·1 + 1·1.5e9) + 1 < 2^32, though 3·1.5e9 alone is not.
        let wide_insert = CostModel { delete: 1, insert: 1_500_000_000, relabel: 1 };
        assert_eq!(cell_width(6, 1, wide_insert), CellWidth::U32);
        assert_eq!(CellWidth::U32.bytes(), 4);
        assert_eq!(CellWidth::U64.bytes(), 8);
    }

    #[test]
    fn deep_vs_wide() {
        // A left-comb and a right-comb: structurally mirrored chains.
        let left = t("(a (a (a (a a))))");
        let wide = t("(a a a a a)");
        assert_eq!(unit(&left, &wide), naive_ted(&left, &wide, CostModel::UNIT));
    }

    #[test]
    fn auto_picks_a_valid_answer_on_right_heavy_trees() {
        // Right-heavy trees make the right decomposition cheaper; Auto must
        // pick it and still return the exact distance.
        let a = sh("(r a (r b (r c (r d (r e f)))))");
        let b = sh("(r a (r q (r c (r d f))))");
        let (pa, pb) = auto_pair(&a, &b);
        assert!(std::ptr::eq(pa, a.right()) && std::ptr::eq(pb, b.right()));
        // Its mirror image is left-heavy, and Auto goes left.
        let (ma, mb) = (sh("(r (r (r (r (r f e) d) c) b) a)"), sh("(r (r (r (r f d) c) q) a)"));
        let (pa, pb) = auto_pair(&ma, &mb);
        assert!(std::ptr::eq(pa, ma.left()) && std::ptr::eq(pb, mb.left()));
        assert_eq!(ted(&ma, &mb, CostModel::UNIT), ted(&a, &b, CostModel::UNIT));
        let dl = ted_with_mode(&a, &b, CostModel::UNIT, Strategy::Left, KernelMode::Simd);
        let dr = ted_with_mode(&a, &b, CostModel::UNIT, Strategy::Right, KernelMode::Simd);
        assert_eq!(dl, dr);
        assert_eq!(ted(&a, &b, CostModel::UNIT), dl);
    }

    /// Deterministic pseudo-random small tree of at most `1 + budget` nodes.
    fn gen(rng: &mut rand::rngs::StdRng, budget: &mut usize, depth: usize) -> Tree {
        use rand::Rng;
        let l = ["a", "b", "c"][rng.gen_range(0..3)];
        let mut children = Vec::new();
        while *budget > 0 && depth < 4 && rng.gen_bool(0.5) {
            *budget -= 1;
            children.push(gen(rng, budget, depth + 1));
        }
        Tree::node(l, children)
    }

    #[test]
    fn moderate_random_agreement_with_oracle() {
        // Deterministic pseudo-random small trees, cross-checked across
        // strategies and kernel modes.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..60 {
            let t1 = gen(&mut rng, &mut 7, 0);
            let t2 = gen(&mut rng, &mut 7, 0);
            let expect = naive_ted(&t1, &t2, CostModel::UNIT);
            assert_eq!(unit(&t1, &t2), expect, "{t1} vs {t2}");
            for mode in KernelMode::ALL {
                for s in [Strategy::Left, Strategy::Right, Strategy::Auto] {
                    assert_eq!(
                        ted_with_mode(&t1, &t2, CostModel::UNIT, s, mode),
                        expect,
                        "{mode:?} {s:?} on {t1} vs {t2}"
                    );
                }
            }
        }
    }

    #[test]
    fn edit_stats_decomposition() {
        // pure relabel
        let a = sh("(f a b)");
        let b = sh("(g a b)");
        assert_eq!(edit_stats(&a, &b), EditStats { inserts: 0, deletes: 0, relabels: 1 });
        // pure insert
        let c = sh("(f a b c)");
        assert_eq!(edit_stats(&a, &c), EditStats { inserts: 1, deletes: 0, relabels: 0 });
        // pure delete
        assert_eq!(edit_stats(&c, &a), EditStats { inserts: 0, deletes: 1, relabels: 0 });
        // identical
        assert_eq!(edit_stats(&a, &sh("(f a b)")).total(), 0);
        // empty-side closed forms
        let e = SharedTree::new(Tree::empty());
        assert_eq!(edit_stats(&e, &a), EditStats { inserts: 3, deletes: 0, relabels: 0 });
        assert_eq!(edit_stats(&a, &e), EditStats { inserts: 0, deletes: 3, relabels: 0 });
        assert_eq!(edit_stats(&e, &e.clone()).total(), 0);
    }

    #[test]
    fn edit_stats_on_warm_views_matches_fresh() {
        // Warm memoized views answer exactly like freshly wrapped trees.
        let cases = [
            ("(f (d a (c b)) e)", "(f (c (d a b)) e)"),
            ("(a (b c d) e)", "(a (b c) (e d))"),
            ("(s a a a a)", "(s a a)"),
            ("(f a b)", "(f a b)"),
        ];
        for (sa, sb) in cases {
            let (xa, xb) = (sh(sa), sh(sb));
            // Twice: the second call runs entirely on memoized views.
            for _ in 0..2 {
                assert_eq!(edit_stats(&xa, &xb), edit_stats(&sh(sa), &sh(sb)), "{sa} vs {sb}");
            }
        }
    }

    #[test]
    fn edit_stats_consistent_with_ted() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..40 {
            let t1 = SharedTree::new(gen(&mut rng, &mut 8, 0));
            let t2 = SharedTree::new(gen(&mut rng, &mut 8, 0));
            let stats = edit_stats(&t1, &t2);
            assert_eq!(stats.total(), ted(&t1, &t2, CostModel::UNIT), "{t1} vs {t2}");
            assert_eq!(
                stats.inserts as i64 - stats.deletes as i64,
                t2.size() as i64 - t1.size() as i64,
                "{t1} vs {t2}"
            );
        }
    }

    #[test]
    fn memory_estimate_matches_table_shapes() {
        let a = t("(f (g a b) c)"); // 5 nodes
        let b = t("(x y)"); // 2 nodes
                            // unit costs select u32 cells: 4 * (5*2 + 6*3) = 4 * 28 = 112
                            // plus the SIMD footprint: labels 4·(5+2) = 28
                            // and lane pads 2·4·SIMD_LANE_PAD = 128.
        assert_eq!(memory_estimate(&a, &b), 112 + 28 + 2 * 4 * SIMD_LANE_PAD as u64);
        // Extreme weights fall back to u64 cells (a scalar-only path, no
        // SIMD footprint): 8 * 28 = 224.
        let extreme = CostModel { delete: u32::MAX, insert: u32::MAX, relabel: 1 };
        assert_eq!(memory_estimate_with(&a, &b, extreme), 224);
    }

    #[test]
    fn extreme_cost_weights_do_not_overflow() {
        // Regression: the DP cells were u32, and a cost model like
        // delete = u32::MAX overflowed them after two accumulated deletes.
        // The adaptive kernel must classify this pair as u64 (checked in
        // cell_width_selection_rule) and still agree with the oracle.
        let a = t("(f a b)"); // 3 nodes
        let b = t("g"); // 1 node
        let cm = CostModel { delete: u32::MAX, insert: u32::MAX, relabel: 1 };
        assert_eq!(cell_width(a.size(), b.size(), cm), CellWidth::U64);
        // Optimal script: relabel f→g (1), delete a and b (2·u32::MAX).
        let expect = 2 * u64::from(u32::MAX) + 1;
        let (xa, xb) = (SharedTree::new(a.clone()), SharedTree::new(b.clone()));
        assert_eq!(ted(&xa, &xb, cm), expect);
        for mode in KernelMode::ALL {
            for s in [Strategy::Left, Strategy::Right, Strategy::Auto] {
                assert_eq!(ted_with_mode(&a, &b, cm, s, mode), expect, "{mode:?} {s:?}");
            }
        }
        assert_eq!(naive_ted(&a, &b, cm), expect);
        // And the empty-tree short-circuits stay in u64 as well.
        let e = SharedTree::new(Tree::empty());
        assert_eq!(ted(&xa, &e, cm), 3 * u64::from(u32::MAX));
    }

    #[test]
    fn bounded_ted_accepts_within_budget() {
        let a = sh("(f (g a b) c)");
        let b = sh("(f (g a) c d)");
        let d = ted_bounded(&a, &b, CostModel::UNIT, 1 << 20).unwrap();
        assert_eq!(d, ted(&a, &b, CostModel::UNIT));
    }

    #[test]
    fn bounded_ted_refuses_oversize_pairs() {
        // The GROMACS scenario: two trees big enough that the DP tables
        // blow a workstation budget — refuse instead of allocating.
        fn chain(n: u32) -> SharedTree {
            let mut t = Tree::leaf("n");
            let mut cur = t.root().unwrap();
            for _ in 1..n {
                cur = t.push_child(cur, "n", None);
            }
            SharedTree::new(t)
        }
        let a = chain(50_000);
        let b = chain(50_000);
        let e = ted_bounded(&a, &b, CostModel::UNIT, 1 << 30).unwrap_err();
        let TedError::BudgetExceeded { needed_bytes, budget_bytes } = e;
        assert!(needed_bytes > budget_bytes);
        assert!(needed_bytes > 10_u64.pow(9), "{needed_bytes}");
        // The u32 cells halve the table bill relative to the old fixed-u64
        // estimate (modulo the SIMD label columns and lane pads, which the
        // u32 estimate includes and the u64 one does not), but a cost model
        // that needs u64 still pays full-width tables.
        let extreme = CostModel { delete: u32::MAX, insert: u32::MAX, relabel: 1 };
        let simd_extra = 4 * (a.size() as u64 + b.size() as u64) + 2 * 4 * SIMD_LANE_PAD as u64;
        assert_eq!(memory_estimate_with(&a, &b, extreme), 2 * (needed_bytes - simd_extra));
    }

    #[test]
    fn larger_trees_run_fast() {
        // Two ~2000-node trees must complete well under a second.
        fn big(n: usize, flavour: &str) -> Tree {
            let mut tr = Tree::leaf("root");
            let mut cur = tr.root().unwrap();
            for i in 0..n {
                let id = tr.push_child(cur, format!("{flavour}{}", i % 17), None);
                if i % 3 == 0 {
                    cur = id;
                } else if i % 11 == 0 {
                    cur = tr.root().unwrap();
                }
            }
            tr
        }
        let a = big(2000, "x");
        let b = big(2000, "y");
        let d = unit(&a, &b);
        assert!(d > 0);
        assert!(d <= (a.size() + b.size()) as u64);
        // Every kernel agrees on a non-trivial workload.
        for mode in KernelMode::ALL {
            assert_eq!(ted_with_mode(&a, &b, CostModel::UNIT, Strategy::Auto, mode), d, "{mode:?}");
        }
    }

    #[test]
    fn simd_wide_rows_and_banded_agree_with_scalar() {
        // Wide fan-out forces keyroot subproblems whose DP rows exceed the
        // widest lane tier (16 columns), exercising every step of the
        // width cascade plus the scalar tail; the descend/reset mix keeps
        // both whole-tree and forest rows in play.  Small proptest trees
        // never reach the 16-wide blocks, so this is the unit-level guard
        // for the wide path (the bench asserts the same on real corpora).
        for (fan_a, fan_b) in [(40usize, 37usize), (23, 61)] {
            let a = bushy(900, fan_a, "p");
            let b = bushy(900, fan_b, "q");
            let expect = ted_with_mode(&a, &b, CostModel::UNIT, Strategy::Auto, KernelMode::Full);
            assert_eq!(
                ted_with_mode(&a, &b, CostModel::UNIT, Strategy::Auto, KernelMode::Simd),
                expect,
                "exact, fans {fan_a}/{fan_b}"
            );
            // Banded: the iff-contract at thresholds straddling the distance.
            for tau in [0, expect - 1, expect, expect + 1, 2 * expect + 3] {
                let want = (expect <= tau).then_some(expect);
                for mode in [KernelMode::Full, KernelMode::Simd] {
                    assert_eq!(
                        ted_within_with_mode(&a, &b, CostModel::UNIT, Strategy::Auto, tau, mode),
                        want,
                        "banded {mode:?}, tau={tau}, fans {fan_a}/{fan_b}"
                    );
                }
            }
        }
    }

    /// A wide-fan tree of `n + 1` nodes: every `fan`-th node descends, every
    /// `5·fan`-th resets to the root.  Its long DP rows reach the widest SIMD
    /// lane tier.
    pub(crate) fn bushy(n: usize, fan: usize, flavour: &str) -> Tree {
        let mut tr = Tree::leaf("root");
        let mut cur = tr.root().unwrap();
        for i in 0..n {
            let id = tr.push_child(cur, format!("{flavour}{}", i % 13), None);
            if i % fan == fan - 1 {
                cur = id;
            }
            if i % (5 * fan) == 0 {
                cur = tr.root().unwrap();
            }
        }
        tr
    }
}
