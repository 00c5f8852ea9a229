//! Per-compilation-unit pipeline: one source file (plus its dependency
//! closure, Eq. 1 of the paper: `unit(x) = dep(x) ∪ x`) in, every frontend
//! artefact out.
//!
//! The unit is the granularity at which all metrics compare codebases.  For
//! each unit this module produces:
//!
//! * normalised source lines, SLOC and LLOC — pre-preprocessing (user files
//!   only) and post-preprocessing (macro-expanded, system headers included,
//!   which is what makes the SYCL giant-header artefact measurable),
//! * `T_src` (pre- and post-preprocessor variants),
//! * `T_sem` and `T_sem+i` (system-header items masked out, as the paper
//!   masks system headers "during the analysis phase"),
//! * the parsed AST for downstream stages (IR lowering, interpretation).

use crate::ast::{Item, Program};
use crate::cst;
use crate::emit::{self, SemOptions};
use crate::fortran::{self, FProgram};
use crate::lex::{lex, LexOptions, TokKind, Token};
use crate::measure;
use crate::pp::{preprocess, PpOptions};
use crate::sema::Registry;
use crate::source::{FileId, LangError, Result, SourceSet};
use std::collections::HashSet;
use std::sync::Arc;
use svtree::{Interner, Tree};

/// Source language of a unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    Cpp,
    Fortran,
}

impl Language {
    /// Infer from a file extension.
    pub fn from_path(path: &str) -> Language {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".f90") || lower.ends_with(".f") || lower.ends_with(".f95") {
            Language::Fortran
        } else {
            Language::Cpp
        }
    }
}

/// Options for compiling a unit.
#[derive(Debug, Clone, Default)]
pub struct UnitOptions {
    /// `-D` style defines (model selection flags).
    pub defines: Vec<(String, Option<String>)>,
    /// Inline depth for `T_sem+i` (default taken from [`SemOptions::INLINED`]).
    pub inline_depth: Option<usize>,
}

/// All frontend artefacts of one compilation unit.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Main file path (unit name for `match()` pairing).
    pub name: String,
    pub language: Language,
    pub main: FileId,
    /// Non-system dependency files, in first-include order (main excluded).
    pub dep_files: Vec<FileId>,
    /// System headers pulled in by this unit.
    pub system_files: HashSet<FileId>,

    /// Normalised lines of the user view (main + user headers, pre-pp).
    pub lines_pre: Vec<String>,
    /// Source location (file, line) of each entry in `lines_pre`.
    pub line_locs_pre: Vec<(u32, u32)>,
    /// Normalised lines after preprocessing (includes system headers).
    pub lines_post: Vec<String>,
    /// Source location (file, line) of each entry in `lines_post`.
    pub line_locs_post: Vec<(u32, u32)>,
    pub sloc_pre: usize,
    pub lloc_pre: usize,
    pub sloc_post: usize,
    pub lloc_post: usize,

    /// `T_src` — perceived-syntax tree (user view).
    pub t_src: Tree,
    /// `T_src` `+preprocessor` variant.
    pub t_src_pp: Tree,
    /// `T_sem` — frontend semantic tree.
    pub t_sem: Tree,
    /// `T_sem+i` — semantic tree with same-codebase calls inlined.
    pub t_sem_inl: Tree,

    /// Parsed C/C++ AST (None for Fortran units).
    pub program: Option<Program>,
    /// Parsed Fortran AST (None for C/C++ units).
    pub fprogram: Option<FProgram>,
}

/// Compile one unit out of a source set.
pub fn compile_unit(sources: &SourceSet, main: FileId, opts: &UnitOptions) -> Result<Unit> {
    let path = sources.file(main).path.clone();
    match Language::from_path(&path) {
        Language::Cpp => compile_cpp(sources, main, &path, opts),
        Language::Fortran => compile_fortran(sources, main, &path),
    }
}

fn compile_cpp(sources: &SourceSet, main: FileId, path: &str, opts: &UnitOptions) -> Result<Unit> {
    let _unit_span = svtrace::span!("unit.compile", unit = path);
    // One shared label table for every tree of this unit: the trees become
    // directly comparable by symbol and the distance layer's interned fast
    // paths apply within the unit's whole tree family.
    let table = Arc::new(Interner::new());
    let pp_opts = PpOptions { defines: opts.defines.clone() };
    let mut out = {
        let _s = svtrace::span!("unit.preprocess", unit = path);
        preprocess(sources, main, &pp_opts)?
    };

    let dep_files: Vec<FileId> = out
        .included
        .iter()
        .copied()
        .filter(|f| *f != main && !out.system_files.contains(f))
        .collect();

    // --- pre-preprocessing (user) view: main + user deps, raw tokens ----
    let pre_tokens = {
        let _s = svtrace::span!("unit.lex", unit = path);
        user_view_tokens(sources, main, &dep_files)?
    };
    let norm_span = svtrace::span!("unit.normalise", unit = path);
    let pre_pairs = measure::normalized_lines_with_locs(&pre_tokens);
    let line_locs_pre: Vec<(u32, u32)> = pre_pairs.iter().map(|(_, (f, l))| (f.0, *l)).collect();
    let lines_pre: Vec<String> = pre_pairs.into_iter().map(|(s, _)| s).collect();
    let sloc_pre = lines_pre.len();
    let lloc_pre = measure::lloc(&pre_tokens);
    let t_src = cst::t_src_in(Arc::clone(&table), &pre_tokens);

    // --- post-preprocessing view ----------------------------------------
    let post_pairs = measure::normalized_lines_with_locs(&out.tokens);
    let line_locs_post: Vec<(u32, u32)> = post_pairs.iter().map(|(_, (f, l))| (f.0, *l)).collect();
    let lines_post: Vec<String> = post_pairs.into_iter().map(|(s, _)| s).collect();
    let sloc_post = lines_post.len();
    let lloc_post = measure::lloc(&out.tokens);
    let t_src_pp = cst::t_src_in(Arc::clone(&table), &out.tokens);
    drop(norm_span);

    // --- semantic trees ---------------------------------------------------
    let program = {
        let _s = svtrace::span!("unit.parse", unit = path);
        // Nothing reads the post-pp stream after this: the parser takes it.
        crate::parse::parse(std::mem::take(&mut out.tokens), main, path)?
    };
    let lower_span = svtrace::span!("unit.lower", unit = path);
    let reg = Registry::build(&program, &out.system_files);
    // Mask system-header items out of the semantic view.
    let user_items: Vec<Item> = program
        .items
        .iter()
        .filter(|it| match it {
            Item::Function(f) => !out.system_files.contains(&f.file),
            Item::Struct(s) => !out.system_files.contains(&s.file),
            Item::Global(v) => !out.system_files.contains(&v.file),
            Item::Pragma(p) => !out.system_files.contains(&p.file),
            Item::Using { .. } => true,
        })
        .cloned()
        .collect();
    let user_prog = Program { main_file: main, items: user_items };
    let t_sem = emit::t_sem_in(Arc::clone(&table), &user_prog, &reg, SemOptions::PLAIN);
    drop(lower_span);
    let inline_depth = opts.inline_depth.unwrap_or(SemOptions::INLINED.inline_depth);
    let t_sem_inl = {
        let _s = svtrace::span!("unit.inline", unit = path, depth = inline_depth);
        emit::t_sem_in(Arc::clone(&table), &user_prog, &reg, SemOptions { inline_depth })
    };

    Ok(Unit {
        name: path.to_string(),
        language: Language::Cpp,
        main,
        dep_files,
        system_files: out.system_files,
        lines_pre,
        line_locs_pre,
        lines_post,
        line_locs_post,
        sloc_pre,
        lloc_pre,
        sloc_post,
        lloc_post,
        t_src,
        t_src_pp,
        t_sem,
        t_sem_inl,
        program: Some(program),
        fprogram: None,
    })
}

/// The pre-preprocessing (user) view of a unit: `main` then each of
/// `dep_files`, lexed with comments kept and `#pragma` lines folded.
pub fn user_view_tokens(
    sources: &SourceSet,
    main: FileId,
    dep_files: &[FileId],
) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    for &f in std::iter::once(&main).chain(dep_files) {
        let sf = sources.file(f);
        let toks =
            lex(&sf.text, f, &sf.path, LexOptions { keep_comments: true, keep_newlines: false })?;
        fold_pragma_directives(toks, &mut tokens);
    }
    Ok(tokens)
}

/// In the raw (pre-pp) token stream, `#pragma …` lines are folded into the
/// structured [`TokKind::Pragma`] token the post-pp stream uses, so `T_src`
/// treats retained pragmas uniformly.  All other directives keep their raw
/// tokens — the pre-pp view is "what the programmer sees", so `#include`
/// and `#define` lines count as source.  Appends to `out`.
fn fold_pragma_directives(toks: Vec<Token>, out: &mut Vec<Token>) {
    out.reserve(toks.len());
    let mut it = toks.into_iter().peekable();
    while let Some(t) = it.next() {
        if !matches!(t.kind, TokKind::Hash) {
            out.push(t);
            continue;
        }
        let (file, line, start) = (t.loc.file, t.loc.line, out.len());
        out.push(t);
        out.extend(std::iter::from_fn(|| it.next_if(|n| n.loc.line == line && n.loc.file == file)));
        if out.get(start + 1).and_then(|t| t.kind.ident()) == Some("pragma") {
            let inner = out.split_off(start + 2);
            let loc = out[start].loc;
            out.truncate(start);
            out.push(Token::new(TokKind::Pragma(inner), loc));
        }
    }
}

fn compile_fortran(sources: &SourceSet, main: FileId, path: &str) -> Result<Unit> {
    let _unit_span = svtrace::span!("unit.compile", unit = path);
    let table = Arc::new(Interner::new());
    let text = sources.file(main).text.clone();
    let tokens = {
        let _s = svtrace::span!("unit.lex", unit = path);
        fortran::lex_fortran(&text, main, path)?
    };

    let pre_pairs = measure::normalized_lines_with_locs(&tokens);
    let line_locs_pre: Vec<(u32, u32)> = pre_pairs.iter().map(|(_, (f, l))| (f.0, *l)).collect();
    let lines_pre: Vec<String> = pre_pairs.into_iter().map(|(s, _)| s).collect();
    let sloc_pre = lines_pre.len();
    // Fortran logical lines: one per statement (Newline-delimited), pragmas
    // already count as their own statement.
    let lloc_pre = tokens.iter().filter(|t| matches!(t.kind, TokKind::Newline)).count();

    let t_src = cst::t_src_in(Arc::clone(&table), &tokens);
    let fprog = {
        let _s = svtrace::span!("unit.parse", unit = path);
        fortran::parse_fortran(&text, main, path)?
    };
    let t_sem = {
        let _s = svtrace::span!("unit.lower", unit = path);
        fortran::t_sem_fortran_in(Arc::clone(&table), &fprog)
    };

    Ok(Unit {
        name: path.to_string(),
        language: Language::Fortran,
        main,
        dep_files: Vec::new(),
        system_files: HashSet::new(),
        // Fortran has no preprocessor in the dialect: post == pre.
        lines_post: lines_pre.clone(),
        line_locs_post: line_locs_pre.clone(),
        sloc_post: sloc_pre,
        lloc_post: lloc_pre,
        lines_pre,
        line_locs_pre,
        sloc_pre,
        lloc_pre,
        t_src_pp: t_src.clone(),
        t_src,
        // No same-codebase inliner for Fortran (the paper omits T_sem+i for
        // GCC as well, citing the representation effort).
        t_sem_inl: t_sem.clone(),
        t_sem,
        program: None,
        fprogram: Some(fprog),
    })
}

impl Unit {
    /// Convenience: returns an error if any artefact is degenerate
    /// (self-check used by the indexing step).
    pub fn validate(&self) -> Result<()> {
        if self.t_src.is_empty() || self.t_sem.is_empty() {
            return Err(LangError::new(&self.name, 0, "empty semantic artefacts"));
        }
        if self.sloc_pre == 0 {
            return Err(LangError::new(&self.name, 0, "unit has no source lines"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpp_unit(files: &[(&str, &str, bool)], defines: &[(&str, Option<&str>)]) -> Unit {
        let mut ss = SourceSet::new();
        for (p, t, sys) in files {
            if *sys {
                ss.add_system(*p, *t);
            } else {
                ss.add(*p, *t);
            }
        }
        let main = ss.lookup(files[0].0).unwrap();
        let opts = UnitOptions {
            defines: defines.iter().map(|(n, v)| (n.to_string(), v.map(str::to_string))).collect(),
            inline_depth: None,
        };
        compile_unit(&ss, main, &opts).unwrap()
    }

    const MAIN: &str = "\
#include \"util.h\"
#include <sys.hpp>

// stream triad
void triad(double* a, const double* b, const double* c, double s, int n) {
  for (int i = 0; i < n; i++) {
    a[i] = b[i] + s * c[i];
  }
}

int main() {
  run();
  return 0;
}
";

    fn full() -> Unit {
        cpp_unit(
            &[
                ("main.cpp", MAIN, false),
                ("util.h", "void run();\ndouble helper(double x) { return x * 2.0; }\n", false),
                ("sys.hpp", "int sys_version = 3;\nvoid sys_init() { }\n", true),
            ],
            &[],
        )
    }

    #[test]
    fn unit_dep_closure() {
        let u = full();
        assert_eq!(u.dep_files.len(), 1, "util.h is the only user dep");
        assert_eq!(u.system_files.len(), 1);
        assert_eq!(u.language, Language::Cpp);
        u.validate().unwrap();
    }

    #[test]
    fn pre_pp_counts_user_files_only() {
        let u = full();
        assert!(u.sloc_pre >= 10, "sloc_pre = {}", u.sloc_pre);
        // system header lines must NOT appear in the pre view:
        assert!(!u.lines_pre.iter().any(|l| l.contains("sys_init")), "{:?}", u.lines_pre);
        // but util.h lines do:
        assert!(u.lines_pre.iter().any(|l| l.contains("helper")));
    }

    #[test]
    fn post_pp_includes_system_headers() {
        let u = full();
        assert!(u.lines_post.iter().any(|l| l.contains("sys_init")));
        // include lines themselves are gone after preprocessing
        assert!(!u.lines_post.iter().any(|l| l.contains("include")));
        assert!(u.sloc_post > 0);
    }

    #[test]
    fn t_sem_masks_system_items() {
        let u = full();
        // helper()/run() from util.h are in T_sem; sys_init from sys.hpp is
        // not.  (Names are stripped, so count FunctionDecls: run prototype,
        // helper, triad, main = 4 — the masked system header would add 1.)
        let fd = u.t_sem.count_labels(|l| l == "FunctionDecl");
        assert_eq!(fd, 4, "{}", u.t_sem.to_sexpr());
    }

    #[test]
    fn t_sem_inl_grows() {
        let u = cpp_unit(
            &[(
                "m.cpp",
                "double helper(double x) { return x * 2.0; }\nvoid f() { double y = helper(1.0) + helper(2.0); }",
                false,
            )],
            &[],
        );
        assert!(u.t_sem_inl.size() > u.t_sem.size());
    }

    #[test]
    fn defines_select_model_variants() {
        let src = "#ifdef USE_OMP\nvoid omp_path() { }\n#else\nvoid serial_path() { }\n#endif\nint main() { return 0; }";
        let serial = cpp_unit(&[("m.cpp", src, false)], &[]);
        let omp = cpp_unit(&[("m.cpp", src, false)], &[("USE_OMP", None)]);
        // Both have 2 functions, but sloc of pre view identical while t_sem
        // identical in shape — distinguish via post-pp lines.
        assert!(omp.lines_post.iter().any(|l| l.contains("omp_path")));
        assert!(serial.lines_post.iter().any(|l| l.contains("serial_path")));
    }

    #[test]
    fn pragma_survives_in_pre_pp_t_src() {
        let u = cpp_unit(
            &[(
                "m.cpp",
                "void f(int n) {\n#pragma omp parallel for\nfor (int i = 0; i < n; i++) a[i] = 0.0;\n}",
                false,
            )],
            &[],
        );
        assert!(u.t_src.to_sexpr().contains("(Pragma"), "{}", u.t_src.to_sexpr());
        assert!(u.t_src_pp.to_sexpr().contains("(Pragma"));
    }

    #[test]
    fn fortran_unit_pipeline() {
        let mut ss = SourceSet::new();
        let m = ss.add(
            "stream.f90",
            "program s\nimplicit none\nreal(8), allocatable :: a(:)\ninteger :: i, n\nn = 8\nallocate(a(n))\n!$omp parallel do\ndo i = 1, n\na(i) = 1.0\nend do\n!$omp end parallel do\nend program",
        );
        let u = compile_unit(&ss, m, &UnitOptions::default()).unwrap();
        assert_eq!(u.language, Language::Fortran);
        assert!(u.fprogram.is_some());
        assert!(u.program.is_none());
        assert!(u.t_sem.to_sexpr().contains("OMPParallelDoDirective"));
        assert!(u.sloc_pre >= 10);
        assert_eq!(u.lloc_pre, 12, "one logical line per statement");
        u.validate().unwrap();
    }

    #[test]
    fn language_inference() {
        assert_eq!(Language::from_path("a/b/stream.F90"), Language::Fortran);
        assert_eq!(Language::from_path("x.cpp"), Language::Cpp);
        assert_eq!(Language::from_path("x.cu"), Language::Cpp);
    }

    #[test]
    fn identical_units_have_identical_artifacts() {
        let a = full();
        let b = full();
        assert_eq!(a.t_src.structural_hash(), b.t_src.structural_hash());
        assert_eq!(a.t_sem.structural_hash(), b.t_sem.structural_hash());
        assert_eq!(a.lines_pre, b.lines_pre);
    }
}
