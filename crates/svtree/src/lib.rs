//! # svtree — labelled n-ary trees for semantic codebase summaries
//!
//! The SilverVale productivity pipeline reduces every compilation unit of a
//! codebase into *semantic-bearing trees* (`T_src`, `T_sem`, `T_ir`).  This
//! crate provides the shared tree data model those summaries are built on:
//!
//! * [`Tree`] — an arena-backed, ordered, labelled n-ary tree with optional
//!   source-location spans on every node,
//! * [`TreeBuilder`] — a push/pop scope builder used by the frontends,
//! * [`intern`] — the label [`Interner`]: every node label is a [`Sym`]
//!   backed by a per-tree (builder-shared) string table with memoized FNV-1a
//!   hashes, so repeated labels cost four bytes per node and label-identity
//!   checks are integer compares,
//! * traversal iterators (pre-order, post-order) and structural queries
//!   (size, depth, height, structural hashing),
//! * [`mask`] — line-coverage masks used to prune never-executed subtrees,
//! * [`pack`] — the `svpack` portable binary serialisation format together
//!   with the `svz` LZ77-style compressor (the paper stores its codebase DB
//!   as Zstd-compressed MessagePack; `svpack`+`svz` is the from-scratch
//!   equivalent).
//!
//! Trees are ordered (child order is significant, as it is for an AST) and
//! rooted.  Node labels are interned symbols; the string-facing API
//! ([`Tree::label`], `impl AsRef<str>` label arguments) is unchanged from the
//! owned-`String` era, so frontends keep passing plain strings while the
//! distance layer in `svdist` compares `Sym` ids and memoized hashes.

pub mod intern;
pub mod mask;
pub mod pack;

pub use intern::{Interner, Sym};

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide count of full [`Tree::structural_hash`] computations.
///
/// The memoized artifact layer (`svdist::SharedTree`, `svmetrics::Artifacts`)
/// is supposed to hash each tree at most once; tests assert warm paths leave
/// this counter untouched.
static STRUCTURAL_HASH_COMPUTES: AtomicU64 = AtomicU64::new(0);

/// Number of full structural-hash walks performed so far in this process.
pub fn structural_hash_count() -> u64 {
    STRUCTURAL_HASH_COMPUTES.load(Ordering::Relaxed)
}

/// Identifier of a node inside a [`Tree`] arena.
///
/// Node ids are dense indices; `NodeId(0)` is always the root of a non-empty
/// tree built through [`TreeBuilder`] or [`Tree::node`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An inclusive span of source lines `[start_line, end_line]` inside a file,
/// used to keep the back-reference from tree nodes to the source code.
///
/// The paper stresses that the back reference "is important and serves
/// multiple purposes": dependency reconstruction, masking, and coverage
/// pruning all key off it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// Index of the file inside the owning codebase (frontends assign these).
    pub file: u32,
    /// 1-based first line covered by the node.
    pub start_line: u32,
    /// 1-based last line covered by the node (inclusive).
    pub end_line: u32,
}

impl Span {
    /// Create a span covering a single line.
    pub fn line(file: u32, line: u32) -> Self {
        Span { file, start_line: line, end_line: line }
    }

    /// Create a span covering an inclusive line range.
    pub fn lines(file: u32, start: u32, end: u32) -> Self {
        debug_assert!(start <= end, "span start after end");
        Span { file, start_line: start, end_line: end }
    }

    /// Smallest span covering both `self` and `other` (must be same file).
    pub fn merge(self, other: Span) -> Span {
        debug_assert_eq!(self.file, other.file);
        Span {
            file: self.file,
            start_line: self.start_line.min(other.start_line),
            end_line: self.end_line.max(other.end_line),
        }
    }
}

/// A single tree node: an interned label, an optional source span, and
/// ordered children.
///
/// `Node` equality compares raw [`Sym`] ids, which is label equality only
/// for nodes whose trees share a table; [`Tree`]'s own `PartialEq` handles
/// the cross-table case by resolving strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The interned node label, e.g. `"ForStmt"` or `"BinaryOperator(+)"`;
    /// resolve through the owning tree's [`Tree::label`] / [`Tree::resolve`].
    pub sym: Sym,
    /// Optional back-reference into the source.
    pub span: Option<Span>,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Vec<NodeId>,
}

/// An ordered, rooted, labelled n-ary tree stored in an arena, with labels
/// interned in a shared [`Interner`] table.
///
/// Cloning a tree shares its table (`Arc`); derived trees produced by
/// [`Tree::filter_splice`], [`Tree::prune`], [`Tree::extract_subtree`],
/// [`Tree::map_labels`] and same-table [`Tree::graft`] also share it, so an
/// entire compilation unit's tree family resolves labels against one table.
///
/// The empty tree (zero nodes) is representable and has size 0; it is the
/// identity for divergence computations (`dmax` of an empty target is 0).
#[derive(Debug, Clone, Default)]
pub struct Tree {
    nodes: Vec<Node>,
    root: Option<NodeId>,
    table: Arc<Interner>,
}

impl PartialEq for Tree {
    fn eq(&self, other: &Self) -> bool {
        if self.root != other.root || self.nodes.len() != other.nodes.len() {
            return false;
        }
        if Arc::ptr_eq(&self.table, &other.table) {
            // Shared table: identical syms ⇔ identical labels.
            return self.nodes == other.nodes;
        }
        self.nodes.iter().zip(&other.nodes).all(|(a, b)| {
            a.span == b.span
                && a.parent == b.parent
                && a.children == b.children
                && self.table.resolve(a.sym) == other.table.resolve(b.sym)
        })
    }
}

impl Eq for Tree {}

impl Tree {
    /// The empty tree (with its own fresh label table).
    pub fn empty() -> Self {
        Tree::default()
    }

    /// The empty tree sharing an existing label table.
    pub fn empty_in(table: Arc<Interner>) -> Self {
        Tree { nodes: Vec::new(), root: None, table }
    }

    /// Build a leaf-only tree with a single labelled node.
    pub fn leaf(label: impl AsRef<str>) -> Self {
        Tree::node(label, Vec::new())
    }

    /// Functional constructor: a root with the given label whose children are
    /// the roots of `children` (each child tree is grafted in order).
    pub fn node(label: impl AsRef<str>, children: Vec<Tree>) -> Self {
        let mut t = Tree::empty();
        let sym = t.table.intern(label.as_ref());
        let root = t.alloc(sym, None);
        t.root = Some(root);
        for c in children {
            t.graft(root, &c);
        }
        t
    }

    /// The label table backing this tree.
    pub fn interner(&self) -> &Arc<Interner> {
        &self.table
    }

    /// Intern a label into this tree's table.
    pub fn intern(&self, label: &str) -> Sym {
        self.table.intern(label)
    }

    /// Resolve a symbol issued by this tree's table.
    pub fn resolve(&self, sym: Sym) -> &str {
        self.table.resolve(sym)
    }

    /// Number of nodes, `|T|` in the paper's `dmax` definition (Eq. 7).
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Root node id, if the tree is non-empty.
    pub fn root(&self) -> Option<NodeId> {
        self.root
    }

    /// Immutable access to a node.
    pub fn get(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Label of a node.
    pub fn label(&self, id: NodeId) -> &str {
        self.table.resolve(self.nodes[id.index()].sym)
    }

    /// Interned label symbol of a node.
    pub fn sym(&self, id: NodeId) -> Sym {
        self.nodes[id.index()].sym
    }

    /// Span of a node, if recorded.
    pub fn span(&self, id: NodeId) -> Option<Span> {
        self.nodes[id.index()].span
    }

    /// Children of a node, in order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Arity (number of children) of a node.
    pub fn arity(&self, id: NodeId) -> usize {
        self.nodes[id.index()].children.len()
    }

    /// True when the node has no children.
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.nodes[id.index()].children.is_empty()
    }

    fn alloc(&mut self, sym: Sym, span: Option<Span>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { sym, span, parent: None, children: Vec::new() });
        id
    }

    /// Install the root node of an empty tree (symbol from this tree's table).
    pub(crate) fn set_root_sym(&mut self, sym: Sym, span: Option<Span>) -> NodeId {
        debug_assert!(self.is_empty(), "set_root_sym on non-empty tree");
        let id = self.alloc(sym, span);
        self.root = Some(id);
        id
    }

    /// Append a fresh child node under `parent` and return its id.
    pub fn push_child(
        &mut self,
        parent: NodeId,
        label: impl AsRef<str>,
        span: Option<Span>,
    ) -> NodeId {
        let sym = self.table.intern(label.as_ref());
        self.push_child_sym(parent, sym, span)
    }

    /// Append a fresh child whose label is an already-interned symbol *from
    /// this tree's table* and return its id.
    pub fn push_child_sym(&mut self, parent: NodeId, sym: Sym, span: Option<Span>) -> NodeId {
        let id = self.alloc(sym, span);
        self.nodes[id.index()].parent = Some(parent);
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Copy the entire `other` tree under `parent`, preserving structure,
    /// labels and spans.  Returns the id of the grafted root (or `None` when
    /// `other` is empty).
    ///
    /// When both trees share a table, symbols are copied verbatim; otherwise
    /// labels are re-interned into this tree's table.
    pub fn graft(&mut self, parent: NodeId, other: &Tree) -> Option<NodeId> {
        let oroot = other.root?;
        Some(self.graft_from(parent, other, oroot))
    }

    fn graft_from(&mut self, parent: NodeId, other: &Tree, from: NodeId) -> NodeId {
        let same_table = Arc::ptr_eq(&self.table, &other.table);
        let map_sym = |dst: &Tree, s: Sym| {
            if same_table {
                s
            } else {
                dst.table.intern(other.table.resolve(s))
            }
        };
        // Iterative copy to stay safe on pathologically deep trees.
        let n = other.get(from);
        let sym = map_sym(self, n.sym);
        let top = self.push_child_sym(parent, sym, n.span);
        let mut stack: Vec<(NodeId, NodeId)> = n.children.iter().rev().map(|&c| (c, top)).collect();
        while let Some((src, dst_parent)) = stack.pop() {
            let sn = other.get(src);
            let sym = map_sym(self, sn.sym);
            let id = self.push_child_sym(dst_parent, sym, sn.span);
            for &c in sn.children.iter().rev() {
                stack.push((c, id));
            }
        }
        top
    }

    /// Pre-order (root first) traversal of the whole tree.
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder { tree: self, stack: self.root.into_iter().collect() }
    }

    /// Pre-order traversal rooted at `id`.
    pub fn preorder_from(&self, id: NodeId) -> Preorder<'_> {
        Preorder { tree: self, stack: vec![id] }
    }

    /// Post-order (children before parent) node ids of the whole tree.
    ///
    /// Post-order numbering is the canonical ordering used by the
    /// Zhang–Shasha tree-edit-distance algorithm.
    pub fn postorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.size());
        if let Some(r) = self.root {
            self.postorder_into(r, &mut out);
        }
        out
    }

    fn postorder_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        // Explicit stack to stay robust on the deep trees real codebases make.
        let mut stack: Vec<(NodeId, usize)> = vec![(id, 0)];
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let ch = self.children(node);
            if *next < ch.len() {
                let c = ch[*next];
                *next += 1;
                stack.push((c, 0));
            } else {
                out.push(node);
                stack.pop();
            }
        }
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    /// Height of the tree: number of nodes on the longest root-to-leaf path
    /// (0 for the empty tree, 1 for a single leaf).
    pub fn height(&self) -> usize {
        let mut best = 0usize;
        let mut stack: Vec<(NodeId, usize)> = self.root.map(|r| (r, 1)).into_iter().collect();
        while let Some((n, h)) = stack.pop() {
            best = best.max(h);
            for &c in self.children(n) {
                stack.push((c, h + 1));
            }
        }
        best
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.children.is_empty()).count()
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.preorder_from(id).count()
    }

    /// Structural 64-bit hash of the tree: equal trees (labels + shape,
    /// ignoring spans) hash equal.  Used for cheap identity short-circuits
    /// before running TED.
    ///
    /// Per-node label folding reuses the hashes memoized at intern time, so
    /// no label bytes are touched; the values are bit-identical to the
    /// historical byte-folding implementation.
    pub fn structural_hash(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        STRUCTURAL_HASH_COMPUTES.fetch_add(1, Ordering::Relaxed);
        let Some(r) = self.root else { return BASIS };
        let label_hash = self.table.hashes_snapshot();
        // Iterative post-order Merkle hash.
        let order = self.postorder();
        let mut hashes = vec![0u64; self.size()];
        for id in order {
            let mut h = label_hash[self.nodes[id.index()].sym.index()];
            for &c in self.children(id) {
                h ^= hashes[c.index()].rotate_left(17);
                h = h.wrapping_mul(PRIME);
            }
            hashes[id.index()] = h;
        }
        hashes[r.index()]
    }

    /// Render as an s-expression, e.g. `(ForStmt (VarDecl) (BinaryOperator(<)))`.
    /// Intended for tests and debugging output.
    pub fn to_sexpr(&self) -> String {
        let mut s = String::new();
        let Some(r) = self.root else { return s };
        // Iterative render: Enter emits the opening, Exit the ')'.
        enum Step {
            Enter(NodeId),
            Exit,
        }
        let mut stack = vec![Step::Enter(r)];
        while let Some(step) = stack.pop() {
            match step {
                Step::Enter(id) => {
                    if !s.is_empty() && !s.ends_with('(') {
                        s.push(' ');
                    }
                    if self.is_leaf(id) {
                        s.push_str(self.label(id));
                    } else {
                        s.push('(');
                        s.push_str(self.label(id));
                        stack.push(Step::Exit);
                        for &c in self.children(id).iter().rev() {
                            stack.push(Step::Enter(c));
                        }
                    }
                }
                Step::Exit => s.push(')'),
            }
        }
        s
    }

    /// Parse the s-expression format produced by [`Tree::to_sexpr`].
    ///
    /// Labels may contain any character except whitespace and parentheses
    /// (balanced label-internal parentheses like `BinaryOperator(+)` are
    /// allowed); the frontends guarantee this for all generated labels.
    /// Used heavily by tests to write expected trees compactly.
    pub fn from_sexpr(s: &str) -> Result<Tree, SexprError> {
        let mut p = SexprParser { src: s.as_bytes(), pos: 0 };
        p.skip_ws();
        if p.at_end() {
            return Ok(Tree::empty());
        }
        let t = p.parse_tree()?;
        p.skip_ws();
        if !p.at_end() {
            return Err(SexprError::Trailing(p.pos));
        }
        Ok(t)
    }

    /// Copy the subtree rooted at `id` into a standalone tree sharing this
    /// tree's label table.
    pub fn extract_subtree(&self, id: NodeId) -> Tree {
        let mut t = Tree::empty_in(Arc::clone(&self.table));
        let n = self.get(id);
        let root = t.alloc(n.sym, n.span);
        t.root = Some(root);
        for &c in &n.children {
            t.graft_from(root, self, c);
        }
        t
    }

    /// Rebuild the tree keeping only nodes accepted by `keep`, *splicing*
    /// the children of rejected nodes into the rejected node's parent.  The
    /// root is always kept.  This is the transform used to drop low-value
    /// syntax (punctuation tokens, implicit nodes) while preserving
    /// descendant structure.  The result shares this tree's label table.
    pub fn filter_splice(&self, mut keep: impl FnMut(&Tree, NodeId) -> bool) -> Tree {
        let mut out = Tree::empty_in(Arc::clone(&self.table));
        let Some(r) = self.root else { return out };
        let root = out.alloc(self.get(r).sym, self.get(r).span);
        out.root = Some(root);
        // DFS carrying the id of the nearest kept ancestor in `out`.
        let mut stack: Vec<(NodeId, NodeId)> =
            self.children(r).iter().rev().map(|&c| (c, root)).collect();
        while let Some((node, anc)) = stack.pop() {
            let keep_this = keep(self, node);
            let n = self.get(node);
            let new_anc = if keep_this { out.push_child_sym(anc, n.sym, n.span) } else { anc };
            for &c in n.children.iter().rev() {
                stack.push((c, new_anc));
            }
        }
        out
    }

    /// Rebuild the tree *dropping entire subtrees* whose root is rejected by
    /// `keep`.  The root is always kept.  This is the transform used for
    /// coverage pruning: a region that never executed disappears wholesale.
    /// The result shares this tree's label table.
    pub fn prune(&self, mut keep: impl FnMut(&Tree, NodeId) -> bool) -> Tree {
        let mut out = Tree::empty_in(Arc::clone(&self.table));
        let Some(r) = self.root else { return out };
        let root = out.alloc(self.get(r).sym, self.get(r).span);
        out.root = Some(root);
        let mut stack: Vec<(NodeId, NodeId)> =
            self.children(r).iter().rev().map(|&c| (c, root)).collect();
        while let Some((node, parent)) = stack.pop() {
            if !keep(self, node) {
                continue;
            }
            let n = self.get(node);
            let id = out.push_child_sym(parent, n.sym, n.span);
            for &c in n.children.iter().rev() {
                stack.push((c, id));
            }
        }
        out
    }

    /// Apply `f` to every label, producing a relabelled tree with identical
    /// shape and spans.  Used by name-normalisation passes.  New labels are
    /// interned into the shared table; distinct source labels are mapped
    /// through `f` once each.
    pub fn map_labels(&self, mut f: impl FnMut(&str) -> String) -> Tree {
        let mut out = self.clone();
        // Labels repeat heavily: memoize the sym → sym mapping.
        let mut memo: std::collections::HashMap<Sym, Sym> = std::collections::HashMap::new();
        for n in &mut out.nodes {
            n.sym = *memo
                .entry(n.sym)
                .or_insert_with(|| self.table.intern(&f(self.table.resolve(n.sym))));
        }
        out
    }

    /// Count nodes whose label satisfies `pred`.
    pub fn count_labels(&self, mut pred: impl FnMut(&str) -> bool) -> usize {
        // Evaluate the predicate once per distinct symbol.
        let mut memo: std::collections::HashMap<Sym, bool> = std::collections::HashMap::new();
        self.nodes
            .iter()
            .filter(|n| *memo.entry(n.sym).or_insert_with(|| pred(self.table.resolve(n.sym))))
            .count()
    }
}

impl fmt::Display for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_sexpr())
    }
}

/// Pre-order iterator over node ids.
pub struct Preorder<'t> {
    tree: &'t Tree,
    stack: Vec<NodeId>,
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        let ch = self.tree.children(id);
        for &c in ch.iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// Errors from [`Tree::from_sexpr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SexprError {
    /// Unexpected end of input at byte offset.
    UnexpectedEof(usize),
    /// Unexpected character at byte offset.
    Unexpected(usize),
    /// Trailing input after the tree at byte offset.
    Trailing(usize),
}

impl fmt::Display for SexprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SexprError::UnexpectedEof(p) => write!(f, "unexpected end of input at {p}"),
            SexprError::Unexpected(p) => write!(f, "unexpected character at {p}"),
            SexprError::Trailing(p) => write!(f, "trailing input at {p}"),
        }
    }
}

impl std::error::Error for SexprError {}

struct SexprParser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl SexprParser<'_> {
    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn parse_label(&mut self) -> Result<String, SexprError> {
        // A structural `(` is always preceded by whitespace in the rendered
        // form, so a `(` appearing mid-label (e.g. `BinaryOperator(+)`) is
        // part of the label; `)` closes the label's own parens first and
        // only terminates the label once balance returns to zero.
        let start = self.pos;
        let mut depth = 0u32;
        while self.pos < self.src.len() {
            let b = self.src[self.pos];
            if b.is_ascii_whitespace() {
                break;
            }
            if b == b'(' {
                if self.pos == start {
                    break;
                }
                depth += 1;
            } else if b == b')' {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            self.pos += 1;
        }
        if self.pos == start {
            return Err(SexprError::Unexpected(self.pos));
        }
        Ok(String::from_utf8_lossy(&self.src[start..self.pos]).into_owned())
    }

    // Iterative parse: a single output tree built in place, with a stack of
    // open parent nodes.  Keeps the parser safe on arbitrarily deep inputs
    // (real ASTs nest thousands of levels) and interns every label into one
    // shared table instead of allocating a tree per subexpression.
    fn parse_tree(&mut self) -> Result<Tree, SexprError> {
        let mut b: Option<TreeBuilder> = None;
        loop {
            self.skip_ws();
            if self.at_end() {
                return Err(SexprError::UnexpectedEof(self.pos));
            }
            if self.src[self.pos] == b'(' {
                self.pos += 1;
                self.skip_ws();
                let label = self.parse_label()?;
                match b.as_mut() {
                    None => b = Some(TreeBuilder::new(label)),
                    Some(b) => {
                        b.open(label);
                    }
                }
            } else if self.src[self.pos] == b')' {
                self.pos += 1;
                let builder = b.as_mut().ok_or(SexprError::Unexpected(self.pos - 1))?;
                if builder.depth() == 1 {
                    return Ok(b.take().expect("builder present").finish());
                }
                builder.close();
            } else {
                let label = self.parse_label()?;
                match b.as_mut() {
                    None => return Ok(Tree::leaf(label)),
                    Some(b) => {
                        b.leaf(label);
                    }
                }
            }
        }
    }
}

/// Scope-based builder used by the frontends: `open` pushes a node and makes
/// it current, `close` pops back to its parent.
///
/// Builders can share a label [`Interner`] across trees via
/// [`TreeBuilder::new_in`]: every tree a frontend derives for one
/// compilation unit then resolves labels against a single table, making the
/// trees directly comparable by symbol.
///
/// ```
/// use svtree::TreeBuilder;
/// let mut b = TreeBuilder::new("TranslationUnit");
/// b.open("FunctionDecl");
/// b.leaf("ParmVarDecl");
/// b.close();
/// let t = b.finish();
/// assert_eq!(t.to_sexpr(), "(TranslationUnit (FunctionDecl ParmVarDecl))");
/// ```
pub struct TreeBuilder {
    tree: Tree,
    stack: Vec<NodeId>,
}

impl TreeBuilder {
    /// Start a builder whose root has the given label (fresh label table).
    pub fn new(root_label: impl AsRef<str>) -> Self {
        Self::with_span(root_label, None)
    }

    /// Start a builder whose root has the given label and span.
    pub fn with_span(root_label: impl AsRef<str>, span: Option<Span>) -> Self {
        Self::with_span_in(Arc::new(Interner::new()), root_label, span)
    }

    /// Start a builder on an existing shared label table.
    pub fn new_in(table: Arc<Interner>, root_label: impl AsRef<str>) -> Self {
        Self::with_span_in(table, root_label, None)
    }

    /// Start a builder on an existing shared label table, with a root span.
    pub fn with_span_in(
        table: Arc<Interner>,
        root_label: impl AsRef<str>,
        span: Option<Span>,
    ) -> Self {
        let mut tree = Tree::empty_in(table);
        let sym = tree.table.intern(root_label.as_ref());
        let root = tree.alloc(sym, span);
        tree.root = Some(root);
        TreeBuilder { tree, stack: vec![root] }
    }

    /// The label table of the tree under construction.
    pub fn interner(&self) -> &Arc<Interner> {
        self.tree.interner()
    }

    fn current(&self) -> NodeId {
        *self.stack.last().expect("builder stack never empty")
    }

    /// Open a child node and descend into it.
    pub fn open(&mut self, label: impl AsRef<str>) -> NodeId {
        self.open_span(label, None)
    }

    /// Open a child node with a span and descend into it.
    pub fn open_span(&mut self, label: impl AsRef<str>, span: Option<Span>) -> NodeId {
        let sym = self.tree.intern(label.as_ref());
        self.open_sym(sym, span)
    }

    /// [`TreeBuilder::open_span`] with a label already interned in this
    /// builder's table.
    pub fn open_sym(&mut self, sym: Sym, span: Option<Span>) -> NodeId {
        let id = self.tree.push_child_sym(self.current(), sym, span);
        self.stack.push(id);
        id
    }

    /// [`TreeBuilder::leaf_span`] with a label already interned in this
    /// builder's table.
    pub fn leaf_sym(&mut self, sym: Sym, span: Option<Span>) -> NodeId {
        self.tree.push_child_sym(self.current(), sym, span)
    }

    /// Add a leaf child without descending.
    pub fn leaf(&mut self, label: impl AsRef<str>) -> NodeId {
        self.leaf_span(label, None)
    }

    /// Add a leaf child with a span without descending.
    pub fn leaf_span(&mut self, label: impl AsRef<str>, span: Option<Span>) -> NodeId {
        let sym = self.tree.intern(label.as_ref());
        self.leaf_sym(sym, span)
    }

    /// Graft an existing tree as a child of the current node.
    pub fn graft(&mut self, sub: &Tree) {
        let cur = self.current();
        self.tree.graft(cur, sub);
    }

    /// Ascend to the parent of the current node.
    ///
    /// # Panics
    /// Panics if called more times than [`TreeBuilder::open`] (the root can
    /// never be closed).
    pub fn close(&mut self) {
        assert!(self.stack.len() > 1, "TreeBuilder::close called at root");
        self.stack.pop();
    }

    /// Depth of the open-scope stack (1 = at root).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Finish the build and return the tree.
    ///
    /// # Panics
    /// Panics if scopes are still open (stack deeper than the root), which
    /// always indicates a frontend bug.
    pub fn finish(self) -> Tree {
        assert_eq!(self.stack.len(), 1, "TreeBuilder finished with open scopes");
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        Tree::node(
            "a",
            vec![Tree::node("b", vec![Tree::leaf("d"), Tree::leaf("e")]), Tree::leaf("c")],
        )
    }

    #[test]
    fn empty_tree_basics() {
        let t = Tree::empty();
        assert_eq!(t.size(), 0);
        assert!(t.is_empty());
        assert_eq!(t.root(), None);
        assert_eq!(t.height(), 0);
        assert_eq!(t.postorder(), Vec::<NodeId>::new());
        assert_eq!(t.to_sexpr(), "");
    }

    #[test]
    fn build_and_query() {
        let t = sample();
        assert_eq!(t.size(), 5);
        assert_eq!(t.leaf_count(), 3);
        assert_eq!(t.height(), 3);
        let r = t.root().unwrap();
        assert_eq!(t.label(r), "a");
        assert_eq!(t.arity(r), 2);
        let b = t.children(r)[0];
        assert_eq!(t.label(b), "b");
        assert_eq!(t.depth(b), 1);
        assert_eq!(t.depth(t.children(b)[1]), 2);
        assert_eq!(t.parent(b), Some(r));
        assert_eq!(t.parent(r), None);
        assert_eq!(t.subtree_size(b), 3);
    }

    #[test]
    fn preorder_order() {
        let t = sample();
        let labels: Vec<&str> = t.preorder().map(|n| t.label(n)).collect();
        assert_eq!(labels, ["a", "b", "d", "e", "c"]);
    }

    #[test]
    fn postorder_order() {
        let t = sample();
        let labels: Vec<&str> = t.postorder().iter().map(|&n| t.label(n)).collect();
        assert_eq!(labels, ["d", "e", "b", "c", "a"]);
    }

    #[test]
    fn sexpr_roundtrip() {
        let t = sample();
        let s = t.to_sexpr();
        assert_eq!(s, "(a (b d e) c)");
        let back = Tree::from_sexpr(&s).unwrap();
        assert_eq!(back.to_sexpr(), s);
        assert_eq!(back.structural_hash(), t.structural_hash());
    }

    #[test]
    fn sexpr_label_with_parens() {
        let t = Tree::node("BinaryOperator(+)", vec![Tree::leaf("IntegerLiteral(1)")]);
        let s = t.to_sexpr();
        let back = Tree::from_sexpr(&s).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn sexpr_errors() {
        assert!(matches!(Tree::from_sexpr("(a"), Err(SexprError::UnexpectedEof(_))));
        assert!(matches!(Tree::from_sexpr("a b"), Err(SexprError::Trailing(_))));
        assert_eq!(Tree::from_sexpr("").unwrap(), Tree::empty());
        assert_eq!(Tree::from_sexpr("   ").unwrap(), Tree::empty());
    }

    #[test]
    fn structural_hash_discriminates() {
        let a = sample();
        let b = Tree::node(
            "a",
            vec![
                Tree::node("b", vec![Tree::leaf("e"), Tree::leaf("d")]), // swapped
                Tree::leaf("c"),
            ],
        );
        assert_ne!(a.structural_hash(), b.structural_hash());
        let c = sample();
        assert_eq!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn structural_hash_matches_string_fold_oracle() {
        // The memoized-hash implementation must stay bit-identical to the
        // original per-byte FNV fold (cache keys and svpack fingerprints
        // persisted before interning depend on it).
        fn oracle(t: &Tree) -> u64 {
            const PRIME: u64 = 0x0000_0100_0000_01B3;
            const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
            let Some(r) = t.root() else { return BASIS };
            let mut hashes = vec![0u64; t.size()];
            for id in t.postorder() {
                let mut h = BASIS;
                for b in t.label(id).as_bytes() {
                    h ^= u64::from(*b);
                    h = h.wrapping_mul(PRIME);
                }
                for &c in t.children(id) {
                    h ^= hashes[c.index()].rotate_left(17);
                    h = h.wrapping_mul(PRIME);
                }
                hashes[id.index()] = h;
            }
            hashes[r.index()]
        }
        for t in [Tree::empty(), Tree::leaf("x"), sample()] {
            assert_eq!(t.structural_hash(), oracle(&t));
        }
    }

    #[test]
    fn structural_hash_ignores_spans() {
        let mut t = Tree::leaf("x");
        let r = t.root().unwrap();
        t.nodes[r.index()].span = Some(Span::line(0, 3));
        let u = Tree::leaf("x");
        assert_eq!(t.structural_hash(), u.structural_hash());
    }

    #[test]
    fn graft_copies_structure() {
        let mut t = Tree::leaf("root");
        let r = t.root().unwrap();
        let sub = sample();
        let g = t.graft(r, &sub).unwrap();
        assert_eq!(t.size(), 6);
        assert_eq!(t.label(g), "a");
        assert_eq!(t.to_sexpr(), "(root (a (b d e) c))");
    }

    #[test]
    fn graft_same_table_copies_syms() {
        let mut b = TreeBuilder::new("root");
        b.open("sub");
        b.leaf("leafy");
        b.close();
        let t = b.finish();
        let sub = t.extract_subtree(t.children(t.root().unwrap())[0]);
        assert!(Arc::ptr_eq(t.interner(), sub.interner()));
        let mut host = Tree::empty_in(Arc::clone(t.interner()));
        let sym = host.intern("host");
        let r = host.alloc(sym, None);
        host.root = Some(r);
        host.graft(r, &sub);
        assert_eq!(host.to_sexpr(), "(host (sub leafy))");
        // No new labels were interned by the same-table graft.
        assert_eq!(t.interner().len(), 4, "root/sub/leafy/host only");
    }

    #[test]
    fn tree_equality_across_tables() {
        let a = sample();
        let b = sample(); // separate interner, same labels/shape
        assert!(!Arc::ptr_eq(a.interner(), b.interner()));
        assert_eq!(a, b);
        let c = Tree::node("a", vec![Tree::leaf("b")]);
        assert_ne!(a, c);
    }

    #[test]
    fn filter_splice_lifts_children() {
        let t = sample();
        // Drop "b": its children d,e splice into a's child list in place.
        let f = t.filter_splice(|t, n| t.label(n) != "b");
        assert_eq!(f.to_sexpr(), "(a d e c)");
        assert!(Arc::ptr_eq(t.interner(), f.interner()), "derived tree shares the table");
    }

    #[test]
    fn filter_splice_keeps_root() {
        let t = sample();
        let f = t.filter_splice(|_, _| false);
        assert_eq!(f.to_sexpr(), "a");
    }

    #[test]
    fn prune_drops_subtrees() {
        let t = sample();
        let p = t.prune(|t, n| t.label(n) != "b");
        assert_eq!(p.to_sexpr(), "(a c)");
        assert!(Arc::ptr_eq(t.interner(), p.interner()));
    }

    #[test]
    fn extract_subtree() {
        let t = sample();
        let b = t.children(t.root().unwrap())[0];
        let sub = t.extract_subtree(b);
        assert_eq!(sub.to_sexpr(), "(b d e)");
    }

    #[test]
    fn map_labels_relabels() {
        let t = sample();
        let m = t.map_labels(|l| l.to_uppercase());
        assert_eq!(m.to_sexpr(), "(A (B D E) C)");
        assert_eq!(m.size(), t.size());
    }

    #[test]
    fn map_labels_calls_once_per_distinct_label() {
        let mut b = TreeBuilder::new("x");
        for _ in 0..10 {
            b.leaf("y");
        }
        let t = b.finish();
        let mut calls = 0;
        let m = t.map_labels(|l| {
            calls += 1;
            format!("{l}!")
        });
        assert_eq!(calls, 2, "x and y mapped once each");
        assert_eq!(m.label(m.root().unwrap()), "x!");
    }

    #[test]
    fn count_labels_counts() {
        let t = sample();
        assert_eq!(t.count_labels(|l| l < "d"), 3);
    }

    #[test]
    fn builder_scopes() {
        let mut b = TreeBuilder::new("tu");
        b.open("fn");
        b.leaf("p1");
        b.open("body");
        b.leaf("stmt");
        b.close();
        b.close();
        b.leaf("global");
        let t = b.finish();
        assert_eq!(t.to_sexpr(), "(tu (fn p1 (body stmt)) global)");
    }

    #[test]
    fn builder_shared_table() {
        let table = Arc::new(Interner::new());
        let mut b1 = TreeBuilder::new_in(Arc::clone(&table), "tu");
        b1.leaf("shared");
        let t1 = b1.finish();
        let mut b2 = TreeBuilder::new_in(Arc::clone(&table), "other");
        b2.leaf("shared");
        let t2 = b2.finish();
        assert!(Arc::ptr_eq(t1.interner(), t2.interner()));
        // "shared" resolves to the same symbol in both trees.
        let l1 = t1.sym(t1.children(t1.root().unwrap())[0]);
        let l2 = t2.sym(t2.children(t2.root().unwrap())[0]);
        assert_eq!(l1, l2);
        assert_eq!(table.len(), 3);
    }

    #[test]
    #[should_panic(expected = "open scopes")]
    fn builder_unbalanced_panics() {
        let mut b = TreeBuilder::new("tu");
        b.open("fn");
        let _ = b.finish();
    }

    #[test]
    fn span_merge() {
        let a = Span::lines(1, 3, 5);
        let b = Span::lines(1, 4, 9);
        assert_eq!(a.merge(b), Span::lines(1, 3, 9));
    }

    #[test]
    fn deep_tree_no_stack_overflow() {
        // postorder/height/hash/sexpr use explicit stacks; verify on a deep chain.
        let mut t = Tree::leaf("n0");
        let mut cur = t.root().unwrap();
        for i in 1..100_000u32 {
            cur = t.push_child(cur, format!("n{i}"), None);
        }
        assert_eq!(t.size(), 100_000);
        assert_eq!(t.height(), 100_000);
        assert_eq!(t.postorder().len(), 100_000);
        let _ = t.structural_hash();
        let _ = t.to_sexpr();
    }

    #[test]
    fn deep_sexpr_roundtrip() {
        let mut t = Tree::leaf("n");
        let mut cur = t.root().unwrap();
        for _ in 1..2_000u32 {
            cur = t.push_child(cur, "n", None);
        }
        let s = t.to_sexpr();
        let back = Tree::from_sexpr(&s).unwrap();
        assert_eq!(back.size(), t.size());
        assert_eq!(back.structural_hash(), t.structural_hash());
    }
}
