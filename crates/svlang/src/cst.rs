//! Concrete syntax trees and the `T_src` normalisation.
//!
//! The paper obtains its CST from tree-sitter: a parse tree that "captures
//! all syntactical tokens required to fully reconstruct the source",
//! including low-semantic-value tokens like commas.  `T_src` is then the
//! CST "after normalisation … removes noise such as space, comments, and
//! control tokens", leaving "a tokenised view of the source with nodes that
//! represent syntactic elements — conceptually similar to what syntax
//! highlighters provide".  Notably the CST *cannot* discriminate between
//! function calls and functional-style casts; both are a `Call` token here,
//! exactly as the paper describes.
//!
//! This module builds that pair directly from the token stream:
//!
//! * [`build_cst`] — the raw concrete tree: bracket nesting gives structure,
//!   every token (commas, semicolons, comments when present) is a leaf.
//! * [`t_src`] — the normalised `T_src`: comments and control tokens
//!   dropped, names reduced to token types, literals and operators kept,
//!   pragmas retained as structured nodes.
//!
//! Because the CST layer is independent of the AST parser (like tree-sitter
//! is independent of Clang), `T_src` is comparable across anything that
//! lexes to the same token vocabulary.

use crate::lex::{TokKind, Token};
use std::collections::HashMap;
use std::sync::Arc;
use svtree::{Interner, Span, Sym, Tree, TreeBuilder};

/// Keywords that get their own labelled leaf in the highlight view, in
/// byte order so that [`keyword_index`] can bucket them by first byte.
const KEYWORDS: &[&str] = &[
    "__device__",
    "__global__",
    "__host__",
    "auto",
    "bool",
    "break",
    "case",
    "char",
    "class",
    "const",
    "const_cast",
    "constexpr",
    "continue",
    "default",
    "delete",
    "do",
    "double",
    "else",
    "extern",
    "false",
    "float",
    "for",
    "if",
    "inline",
    "int",
    "long",
    "mutable",
    "namespace",
    "new",
    "operator",
    "private",
    "public",
    "reinterpret_cast",
    "return",
    "size_t",
    "sizeof",
    "static",
    "static_cast",
    "struct",
    "switch",
    "template",
    "true",
    "typename",
    "using",
    "void",
    "while",
];

/// `KEYWORDS[lo..hi]` are the keywords starting with each ASCII byte.
const KEYWORD_RANGES: [(u8, u8); 128] = {
    let mut ranges = [(0u8, 0u8); 128];
    let mut i = 0;
    while i < KEYWORDS.len() {
        let first = KEYWORDS[i].as_bytes()[0] as usize;
        if ranges[first].1 == 0 {
            ranges[first].0 = i as u8;
        }
        ranges[first].1 = i as u8 + 1;
        i += 1;
    }
    ranges
};

/// Index of `id` in [`KEYWORDS`], scanning only its first byte's bucket.
fn keyword_index(id: &str) -> Option<usize> {
    let &first = id.as_bytes().first()?;
    let (lo, hi) = *KEYWORD_RANGES.get(usize::from(first))?;
    (usize::from(lo)..usize::from(hi)).find(|&k| KEYWORDS[k] == id)
}

/// Control tokens removed by `T_src` normalisation (brackets become group
/// structure, so their leaves are also control tokens).
const CONTROL_PUNCTS: &[&str] = &[",", ";", "(", ")", "[", "]", "{", "}", "::", "#"];

fn classify(kind: &TokKind, next_is_open_paren: bool) -> String {
    match kind {
        TokKind::Ident(id) if keyword_index(id).is_some() => format!("Kw({id})"),
        // The call-vs-cast ambiguity: any name followed by `(` is a Call.
        TokKind::Ident(_) if next_is_open_paren => "Call".into(),
        TokKind::Ident(_) => "Ident".into(),
        TokKind::Int(v) => format!("IntLit({v})"),
        TokKind::Real(v) => format!("RealLit({v})"),
        TokKind::Str(_) => "StrLit".into(),
        TokKind::Char(_) => "CharLit".into(),
        TokKind::Punct(p) => format!("Op({p})"),
        TokKind::Hash => "Op(#)".into(),
        TokKind::Comment(_) => "Comment".into(),
        TokKind::Newline => "Newline".into(),
        TokKind::Pragma(_) => "Pragma".into(),
    }
}

fn closer(open: &str) -> &'static str {
    match open {
        "(" => ")",
        "[" => "]",
        "{" => "}",
        _ => unreachable!(),
    }
}

/// Build the raw concrete syntax tree from a token stream.
///
/// Structure comes from bracket nesting; every token is a leaf (including
/// the brackets themselves, so the source is fully reconstructible).
/// Unbalanced closers are tolerated (they become plain leaves) so the CST
/// works on macro-mangled or partial sources, as tree-sitter does.
pub fn build_cst(tokens: &[Token]) -> Tree {
    build_cst_in(Arc::new(Interner::new()), tokens)
}

/// [`build_cst`] with the label table shared with other trees of the unit.
pub fn build_cst_in(table: Arc<Interner>, tokens: &[Token]) -> Tree {
    let mut b = TreeBuilder::new_in(table, "Source");
    let mut stack: Vec<&'static str> = Vec::new(); // expected closers
    for (i, t) in tokens.iter().enumerate() {
        let span = Some(Span::line(t.loc.file.0, t.loc.line));
        match &t.kind {
            TokKind::Punct(p) if matches!(*p, "(" | "[" | "{") => {
                b.open_span(Fixed::group(p).label(), span);
                b.leaf_span(format!("Op({p})"), span);
                stack.push(closer(p));
            }
            TokKind::Punct(p) if matches!(*p, ")" | "]" | "}") => {
                if stack.last() == Some(p) {
                    b.leaf_span(format!("Op({p})"), span);
                    b.close();
                    stack.pop();
                } else {
                    b.leaf_span(format!("Op({p})"), span);
                }
            }
            TokKind::Pragma(inner) => {
                b.open_span("Pragma", span);
                for it in inner {
                    let next_open = false;
                    b.leaf_span(classify(&it.kind, next_open), span);
                }
                b.close();
            }
            kind => {
                let next_open = tokens.get(i + 1).is_some_and(|n| n.kind.is_punct("("));
                b.leaf_span(classify(kind, next_open), span);
            }
        }
    }
    // Close any unbalanced groups so the builder finishes cleanly.
    while b.depth() > 1 {
        b.close();
    }
    b.finish()
}

/// `T_src`: the normalised perceived-syntax tree.
///
/// Drops comments and control tokens; keeps keywords, call markers,
/// identifiers (as bare token types — programmer names are already gone),
/// literals, operators, and pragma structure.
pub fn t_src(tokens: &[Token]) -> Tree {
    t_src_in(Arc::new(Interner::new()), tokens)
}

/// [`t_src`] with the label table shared with other trees of the unit (the
/// interning [`TreeBuilder`] puts every tree of one compilation unit on a
/// single string table).
///
/// Built in one pass over the tokens: it is the raw CST of
/// [`build_cst_in`] with comments, newlines and control punctuation spliced
/// out, but the dropped leaves are never pushed and labels come from a
/// per-call [`Sym`] cache.  Every label the raw CST would intern — dropped
/// ones included — is interned at its first occurrence, so `table` receives
/// the same strings in the same order as `build_cst_in(..).filter_splice(..)`
/// gives it, and the `Sym` ids of every later tree of the unit stay as they
/// were.
pub fn t_src_in(table: Arc<Interner>, tokens: &[Token]) -> Tree {
    let mut labels = Labels::new(Arc::clone(&table));
    let mut b = TreeBuilder::new_in(table, "Source");
    let mut stack: Vec<&'static str> = Vec::new(); // expected closers
    for (i, t) in tokens.iter().enumerate() {
        let span = Some(Span::line(t.loc.file.0, t.loc.line));
        match &t.kind {
            TokKind::Punct(p) if matches!(*p, "(" | "[" | "{") => {
                b.open_sym(labels.fixed(Fixed::group(p)), span);
                labels.punct(p);
                stack.push(closer(p));
            }
            TokKind::Punct(p) if matches!(*p, ")" | "]" | "}") => {
                labels.punct(p);
                if stack.last() == Some(p) {
                    b.close();
                    stack.pop();
                }
            }
            TokKind::Pragma(inner) => {
                b.open_sym(labels.fixed(Fixed::Pragma), span);
                for it in inner {
                    if let Some(sym) = labels.leaf(&it.kind, false) {
                        b.leaf_sym(sym, span);
                    }
                }
                b.close();
            }
            kind => {
                let next_open = tokens.get(i + 1).is_some_and(|n| n.kind.is_punct("("));
                if let Some(sym) = labels.leaf(kind, next_open) {
                    b.leaf_sym(sym, span);
                }
            }
        }
    }
    while b.depth() > 1 {
        b.close();
    }
    b.finish()
}

/// Labels with no payload, each cached in one slot of [`Labels`].
#[derive(Clone, Copy)]
enum Fixed {
    Ident,
    Call,
    StrLit,
    CharLit,
    Comment,
    Newline,
    Pragma,
    Parens,
    Brackets,
    Braces,
}

impl Fixed {
    const COUNT: usize = 10;

    fn label(self) -> &'static str {
        match self {
            Fixed::Ident => "Ident",
            Fixed::Call => "Call",
            Fixed::StrLit => "StrLit",
            Fixed::CharLit => "CharLit",
            Fixed::Comment => "Comment",
            Fixed::Newline => "Newline",
            Fixed::Pragma => "Pragma",
            Fixed::Parens => "Parens",
            Fixed::Brackets => "Brackets",
            Fixed::Braces => "Braces",
        }
    }

    fn group(open: &str) -> Fixed {
        match open {
            "(" => Fixed::Parens,
            "[" => Fixed::Brackets,
            "{" => Fixed::Braces,
            _ => unreachable!(),
        }
    }
}

/// Per-call cache of the `T_src` labels, interned on first use.
struct Labels {
    table: Arc<Interner>,
    fixed: [Option<Sym>; Fixed::COUNT],
    keywords: [Option<Sym>; KEYWORDS.len()],
    /// One-byte punctuation by byte: the label and whether `T_src` keeps it.
    punct1: [Option<(Sym, bool)>; 128],
    /// Longer punctuation (`->`, `<<=`, …), few enough to scan.
    punct_long: Vec<(&'static str, Sym, bool)>,
    ints: HashMap<i64, Sym>,
    reals: HashMap<u64, Sym>,
}

impl Labels {
    fn new(table: Arc<Interner>) -> Self {
        Labels {
            table,
            fixed: [None; Fixed::COUNT],
            keywords: [None; KEYWORDS.len()],
            punct1: [None; 128],
            punct_long: Vec::new(),
            ints: HashMap::new(),
            reals: HashMap::new(),
        }
    }

    fn fixed(&mut self, f: Fixed) -> Sym {
        *self.fixed[f as usize].get_or_insert_with(|| self.table.intern(f.label()))
    }

    /// Symbol of `Op(p)`, or `None` when `p` is control punctuation.
    fn punct(&mut self, p: &'static str) -> Option<Sym> {
        let table = &self.table;
        let make = || (table.intern(&format!("Op({p})")), !CONTROL_PUNCTS.contains(&p));
        let (sym, keep) = match p.as_bytes() {
            [c] if c.is_ascii() => *self.punct1[*c as usize].get_or_insert_with(make),
            _ => match self.punct_long.iter().find(|(q, ..)| *q == p) {
                Some(&(_, sym, keep)) => (sym, keep),
                None => {
                    let (sym, keep) = make();
                    self.punct_long.push((p, sym, keep));
                    (sym, keep)
                }
            },
        };
        keep.then_some(sym)
    }

    /// Symbol of the leaf [`classify`] labels `kind` with, or `None` when
    /// `T_src` drops that leaf (the label is still interned).
    fn leaf(&mut self, kind: &TokKind, next_is_open_paren: bool) -> Option<Sym> {
        let table = &self.table;
        Some(match kind {
            TokKind::Ident(id) => match keyword_index(id) {
                Some(k) => {
                    *self.keywords[k].get_or_insert_with(|| table.intern(&format!("Kw({id})")))
                }
                None if next_is_open_paren => self.fixed(Fixed::Call),
                None => self.fixed(Fixed::Ident),
            },
            TokKind::Int(v) => {
                *self.ints.entry(*v).or_insert_with(|| table.intern(&format!("IntLit({v})")))
            }
            TokKind::Real(v) => *self
                .reals
                .entry(v.to_bits())
                .or_insert_with(|| table.intern(&format!("RealLit({v})"))),
            TokKind::Str(_) => self.fixed(Fixed::StrLit),
            TokKind::Char(_) => self.fixed(Fixed::CharLit),
            TokKind::Punct(p) => return self.punct(p),
            TokKind::Hash => return self.punct("#"),
            TokKind::Comment(_) => {
                self.fixed(Fixed::Comment);
                return None;
            }
            TokKind::Newline => {
                self.fixed(Fixed::Newline);
                return None;
            }
            TokKind::Pragma(_) => self.fixed(Fixed::Pragma),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::{lex, LexOptions};
    use crate::pp::{preprocess, PpOptions};
    use crate::source::{FileId, SourceSet};

    fn toks(src: &str) -> Vec<Token> {
        lex(src, FileId(0), "t.cpp", LexOptions { keep_comments: true, keep_newlines: false })
            .unwrap()
    }

    fn pp_toks(src: &str) -> Vec<Token> {
        let mut ss = SourceSet::new();
        let m = ss.add("t.cpp", src);
        preprocess(&ss, m, &PpOptions::default()).unwrap().tokens
    }

    #[test]
    fn keyword_buckets_find_every_keyword() {
        assert!(KEYWORDS.windows(2).all(|w| w[0] < w[1]), "KEYWORDS must stay sorted");
        for (k, kw) in KEYWORDS.iter().enumerate() {
            assert_eq!(keyword_index(kw), Some(k), "{kw}");
        }
        for id in ["", "x", "iff", "i", "Int", "_", "\u{e9}t\u{e9}", "static_casts"] {
            assert_eq!(keyword_index(id), None, "{id}");
        }
    }

    #[test]
    fn raw_cst_keeps_everything() {
        let t = build_cst(&toks("f(a, b); // note"));
        let s = t.to_sexpr();
        assert!(s.contains("Call"), "{s}");
        assert!(s.contains("Op(,)"), "{s}");
        assert!(s.contains("Op(;)"), "{s}");
        assert!(s.contains("Comment"), "{s}");
    }

    #[test]
    fn nesting_follows_brackets() {
        let t = build_cst(&toks("a[i] = (b + c);"));
        let s = t.to_sexpr();
        assert!(s.contains("(Brackets"), "{s}");
        assert!(s.contains("(Parens"), "{s}");
    }

    #[test]
    fn call_vs_cast_is_one_token() {
        // Function call and functional-style cast both classify as Call —
        // the CST "cannot discriminate" per the paper.
        let call = build_cst(&toks("foo(x)"));
        let cast = build_cst(&toks("double(x)"));
        assert!(call.to_sexpr().contains("Call"));
        // `double` is a keyword so it stays Kw — use a named type instead:
        let cast2 = build_cst(&toks("T(x)"));
        assert!(cast2.to_sexpr().contains("Call"));
        let _ = cast;
    }

    #[test]
    fn normalisation_drops_noise() {
        let t = t_src(&toks("f(a, b); // note"));
        let s = t.to_sexpr();
        assert!(!s.contains("Comment"), "{s}");
        assert!(!s.contains("Op(,)"), "{s}");
        assert!(!s.contains("Op(;)"), "{s}");
        assert!(s.contains("Call"), "{s}");
        assert!(s.contains("Ident"), "{s}");
        // Group structure survives even though bracket leaves are gone.
        assert!(s.contains("(Parens"), "{s}");
    }

    #[test]
    fn names_are_normalised_away() {
        let a = t_src(&toks("alpha = beta + 1;"));
        let b = t_src(&toks("x = y + 1;"));
        assert_eq!(a.to_sexpr(), b.to_sexpr());
        let c = t_src(&toks("x = y - 1;"));
        assert_ne!(a.to_sexpr(), c.to_sexpr());
    }

    #[test]
    fn literals_and_operators_kept() {
        let t = t_src(&toks("x = 42 * 1.5;"));
        let s = t.to_sexpr();
        assert!(s.contains("IntLit(42)"), "{s}");
        assert!(s.contains("RealLit(1.5)"), "{s}");
        assert!(s.contains("Op(*)"), "{s}");
        assert!(s.contains("Op(=)"), "{s}");
    }

    #[test]
    fn pragma_survives_normalisation() {
        let t =
            t_src(&pp_toks("#pragma omp parallel for\nfor (int i = 0; i < n; i++) a[i] = 0.0;"));
        let s = t.to_sexpr();
        assert!(s.contains("(Pragma"), "{s}");
        assert!(s.contains("Kw(for)"), "{s}");
    }

    #[test]
    fn unbalanced_closers_tolerated() {
        let t = build_cst(&toks(") } ]"));
        assert_eq!(t.size(), 4); // root + three stray closer leaves
        let t2 = build_cst(&toks("( a"));
        assert!(t2.to_sexpr().contains("(Parens"));
    }

    #[test]
    fn spans_recorded() {
        let t = t_src(&toks("x = 1;\ny = 2;"));
        let spans: Vec<u32> =
            t.preorder().filter_map(|n| t.span(n)).map(|s| s.start_line).collect();
        assert!(spans.contains(&1));
        assert!(spans.contains(&2));
    }

    #[test]
    fn identical_sources_identical_trees() {
        let a = t_src(&toks("for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }"));
        let b = t_src(&toks("for (int i = 0; i < n; i++) { c[i] = a[i] + b[i]; }"));
        assert_eq!(a.structural_hash(), b.structural_hash());
    }
}
