//! Oracle for the one-pass `T_src` builder.
//!
//! `cst::t_src_in` builds `T_src` directly from the tokens.  Its definition
//! is the raw CST (`cst::build_cst_in`) with comments, newlines and control
//! punctuation spliced out by label, which is kept here as the oracle.  The
//! two must give equal trees and equal spans in preorder, and must leave
//! identical label tables (same strings, same order): svpack writes each
//! unit's table, so the order is part of the DB bytes.

use std::sync::Arc;
use svcorpus::{App, FortranModel, Model};
use svlang::cst::{build_cst_in, t_src_in};
use svlang::lex::{lex, LexOptions, TokKind, Token};
use svlang::pp::{preprocess, PpOptions};
use svlang::source::{FileId, Loc, SourceSet};
use svlang::unit::user_view_tokens;
use svtree::{Interner, Sym, Tree};

/// Control punctuation `T_src` drops (brackets become group structure).
const CONTROL: &[&str] = &[",", ";", "(", ")", "[", "]", "{", "}", "::", "#"];

/// The two-pass definition: raw CST, then splice out by label.
fn t_src_two_pass(table: Arc<Interner>, tokens: &[Token]) -> Tree {
    build_cst_in(table, tokens).filter_splice(|t, n| {
        let l = t.label(n);
        if l == "Comment" || l == "Newline" {
            return false;
        }
        if let Some(p) = l.strip_prefix("Op(").and_then(|s| s.strip_suffix(')')) {
            return !CONTROL.contains(&p);
        }
        true
    })
}

fn table_strings(table: &Interner) -> Vec<String> {
    (0..table.len()).map(|i| table.resolve(Sym(i as u32)).to_string()).collect()
}

fn preorder_spans(t: &Tree) -> Vec<Option<svtree::Span>> {
    t.preorder().map(|n| t.span(n)).collect()
}

/// Build every stream's `T_src` both ways, in order, each way on one shared
/// table (as a unit builds its pre- and post-pp trees), and compare.
fn assert_same(name: &str, streams: &[&[Token]]) {
    let one = Arc::new(Interner::new());
    let two = Arc::new(Interner::new());
    for (k, toks) in streams.iter().enumerate() {
        let a = t_src_in(Arc::clone(&one), toks);
        let b = t_src_two_pass(Arc::clone(&two), toks);
        assert_eq!(a.to_sexpr(), b.to_sexpr(), "{name}: stream {k} trees differ");
        assert_eq!(preorder_spans(&a), preorder_spans(&b), "{name}: stream {k} spans differ");
        assert!(a == b, "{name}: stream {k} node arenas differ");
    }
    assert_eq!(table_strings(&one), table_strings(&two), "{name}: label tables differ");
}

fn lexed(src: &str, keep_newlines: bool) -> Vec<Token> {
    lex(src, FileId(0), "t.cpp", LexOptions { keep_comments: true, keep_newlines }).unwrap()
}

#[test]
fn cpp_corpus_units_pre_and_post_pp() {
    for app in App::ALL {
        let sources = svcorpus::source_set(app);
        for model in Model::ALL {
            let name = svcorpus::main_path(app, model);
            let main = sources.lookup(&name).unwrap();
            let unit = svcorpus::unit(app, model).unwrap();
            let pre = user_view_tokens(&sources, main, &unit.dep_files).unwrap();
            let post = preprocess(&sources, main, &PpOptions::default()).unwrap().tokens;
            assert_same(&name, &[&pre, &post]);
            // The unit's own trees are the ones these streams give.
            assert!(unit.t_src == t_src_two_pass(Arc::new(Interner::new()), &pre), "{name}");
            assert!(unit.t_src_pp == t_src_two_pass(Arc::new(Interner::new()), &post), "{name}");
        }
    }
}

#[test]
fn fortran_babelstream_units() {
    let sources = svcorpus::fortran_source_set();
    for model in FortranModel::ALL {
        let path = svcorpus::fortran_main_path(model);
        let main = sources.lookup(&path).unwrap();
        let toks = svlang::fortran::lex_fortran(&sources.file(main).text, main, &path).unwrap();
        assert!(toks.iter().any(|t| matches!(t.kind, TokKind::Newline)), "{path}");
        assert_same(&path, &[&toks]);
    }
}

#[test]
fn adversarial_streams() {
    let cases: &[(&str, &str)] = &[
        ("empty", ""),
        ("comments only", "// one\n/* two */ // three"),
        ("stray closers", ") } ]"),
        ("unclosed openers", "( [ {"),
        ("unclosed with content", "f ( a [ b { c"),
        ("mismatched closers", "( ] [ ) { ) }"),
        ("stray hash at line start", "# x\ny"),
        ("hash mid-line", "a # b ## c"),
        ("call at end of stream", "x = g ("),
        ("ident at end of stream", "x = y"),
        ("keywords and literals", "for if while 1 2 1 1.5 1.5 0.0 -0.0 'c' \"s\" auto"),
        ("scope and arrows", "a::b->c .* d <<= 3 >>= 4 ... e"),
        ("mixed", "a[i] = (b + c); // note\nstd::vector<int> v{1, 2};"),
    ];
    for (name, src) in cases {
        assert_same(name, &[&lexed(src, false)]);
        assert_same(&format!("{name} (newlines kept)"), &[&lexed(src, true)]);
    }
    // Several streams on one table, as a unit builds them.
    let streams: Vec<Vec<Token>> = cases.iter().map(|(_, s)| lexed(s, false)).collect();
    let refs: Vec<&[Token]> = streams.iter().map(Vec::as_slice).collect();
    assert_same("all cases on one table", &refs);
}

#[test]
fn pragmas_with_parenthesised_clauses() {
    let src = "#pragma omp parallel for reduction(+:s) private(i, j) // why\n\
               for (int i = 0; i < n; i++) { s += a[i]; }\n\
               #pragma acc parallel loop copyin(a[0:n])\n";
    // Folded by the preprocessor…
    let mut ss = SourceSet::new();
    let main = ss.add("p.cpp", src);
    let post = preprocess(&ss, main, &PpOptions::default()).unwrap().tokens;
    assert!(post.iter().any(|t| matches!(t.kind, TokKind::Pragma(_))));
    // …and by the user view.
    let pre = user_view_tokens(&ss, main, &[]).unwrap();
    assert!(pre.iter().any(|t| matches!(t.kind, TokKind::Pragma(_))));
    assert_same("pragma clauses", &[&pre, &post]);

    // A pragma carrying tokens no lexer puts there: comments, newlines,
    // brackets and a nested pragma are all plain leaves inside it.
    let loc = Loc::new(FileId(0), 1);
    let tok = |kind| Token::new(kind, loc);
    let inner = vec![
        tok(TokKind::Comment("/* c */".into())),
        tok(TokKind::Punct("(")),
        tok(TokKind::Ident("x".into())),
        tok(TokKind::Newline),
        tok(TokKind::Hash),
        tok(TokKind::Pragma(vec![tok(TokKind::Int(7))])),
        tok(TokKind::Punct("}")),
    ];
    let stream = vec![tok(TokKind::Punct("{")), tok(TokKind::Pragma(inner)), tok(TokKind::Int(7))];
    assert_same("crafted pragma", &[&stream]);
}
