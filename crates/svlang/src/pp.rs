//! Preprocessor for the C/C++-family dialect.
//!
//! Handles `#include` (quoted and angle-bracket forms resolved against the
//! [`SourceSet`]), object- and function-like `#define`/`#undef`,
//! `#ifdef`/`#ifndef`/`#if`/`#elif`/`#else`/`#endif` with a small constant
//! expression evaluator (`defined(X)`, integers, comparisons, `!`, `&&`,
//! `||`), `#error`, and `#pragma`.
//!
//! Two behaviours matter for the productivity metrics:
//!
//! * **pragmas are retained**: a `#pragma omp …` line becomes a single
//!   [`TokKind::Pragma`] token carrying its content tokens, so OpenMP
//!   semantics survive preprocessing and normalisation — the paper makes
//!   "special provisions for language that store semantic-bearing
//!   information in unusual places".
//! * **expansion bookkeeping**: macro-expanded tokens take the *use site*
//!   location, and the output records every file that was pulled in, so the
//!   `+preprocessor` metric variants can reconstruct the post-pp view of a
//!   unit (this is what makes the SYCL giant-header artefact measurable).

use crate::lex::{lex, LexOptions, TokKind, Token};
use crate::source::{FileId, LangError, Loc, Result, SourceSet};
use std::collections::{HashMap, HashSet};

/// A macro definition.
#[derive(Debug, Clone)]
enum Macro {
    Object(Vec<Token>),
    Function { params: Vec<String>, body: Vec<Token> },
}

/// Preprocessor options: the `-D` flags of a compile command.
#[derive(Debug, Clone, Default)]
pub struct PpOptions {
    /// `(name, replacement)` — replacement text is lexed; `None` ⇒ `1`.
    pub defines: Vec<(String, Option<String>)>,
}

/// Result of preprocessing one main file.
#[derive(Debug, Clone)]
pub struct PpOutput {
    /// The post-preprocessing token stream (pragmas folded into
    /// [`TokKind::Pragma`] tokens).
    pub tokens: Vec<Token>,
    /// Every file that contributed tokens, in first-contribution order
    /// (main file first).  This is the unit's dependency closure.
    pub included: Vec<FileId>,
    /// Files whose tokens were included and are system headers.
    pub system_files: HashSet<FileId>,
}

impl PpOutput {
    /// Reconstruct the post-preprocessing source as lines: consecutive
    /// output tokens from the same `(file, line)` join into one line of
    /// text.  This is the view the `Source+pp` and `SLOC+pp` variants
    /// measure.
    pub fn lines(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let mut cur_key: Option<(FileId, u32)> = None;
        for t in &self.tokens {
            let key = (t.loc.file, t.loc.line);
            if cur_key != Some(key) {
                cur_key = Some(key);
                out.push(String::new());
            }
            let line = out.last_mut().unwrap();
            if !line.is_empty() {
                line.push(' ');
            }
            render_into(line, &t.kind);
        }
        out
    }
}

/// Render a token back to text (used for post-pp source reconstruction).
pub fn render_token(kind: &TokKind) -> String {
    let mut s = String::new();
    render_into(&mut s, kind);
    s
}

/// Append the text of a token to `out` — [`render_token`] without the
/// per-token allocation.
pub fn render_into(out: &mut String, kind: &TokKind) {
    use std::fmt::Write;
    // `write!` into a `String` cannot fail.
    match kind {
        TokKind::Ident(s) | TokKind::Comment(s) => out.push_str(s),
        TokKind::Int(v) => {
            let _ = write!(out, "{v}");
        }
        TokKind::Real(v) => {
            let _ = if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                write!(out, "{v:.1}")
            } else {
                write!(out, "{v}")
            };
        }
        TokKind::Str(s) => {
            let _ = write!(out, "{s:?}");
        }
        TokKind::Char(c) => {
            let _ = write!(out, "'{c}'");
        }
        TokKind::Punct(p) => out.push_str(p),
        TokKind::Hash => out.push('#'),
        TokKind::Newline => {}
        TokKind::Pragma(toks) => {
            out.push_str("#pragma");
            for t in toks {
                out.push(' ');
                render_into(out, &t.kind);
            }
        }
    }
}

/// Run the preprocessor on `main` within `sources`.
pub fn preprocess(sources: &SourceSet, main: FileId, opts: &PpOptions) -> Result<PpOutput> {
    let mut pp = Pp {
        sources,
        macros: HashMap::new(),
        out: Vec::new(),
        included: Vec::new(),
        include_stack: Vec::new(),
        once: HashSet::new(),
        system_files: HashSet::new(),
    };
    for (name, repl) in &opts.defines {
        let body = match repl {
            None => vec![Token::new(TokKind::Int(1), Loc::new(main, 0))],
            Some(text) => lex(text, main, "<command line>", LexOptions::default())?,
        };
        pp.macros.insert(name.clone(), Macro::Object(body));
    }
    pp.process_file(main)?;
    Ok(PpOutput { tokens: pp.out, included: pp.included, system_files: pp.system_files })
}

struct Pp<'s> {
    sources: &'s SourceSet,
    macros: HashMap<String, Macro>,
    out: Vec<Token>,
    included: Vec<FileId>,
    include_stack: Vec<FileId>,
    once: HashSet<FileId>,
    system_files: HashSet<FileId>,
}

/// State of one conditional-block level.
#[derive(Debug, Clone, Copy)]
struct CondState {
    /// Are we currently emitting tokens in this level?
    active: bool,
    /// Has any branch at this level already been taken?
    taken: bool,
}

impl Pp<'_> {
    fn process_file(&mut self, file: FileId) -> Result<()> {
        if self.once.contains(&file) {
            return Ok(());
        }
        if self.include_stack.contains(&file) {
            let f = self.sources.file(file);
            return Err(LangError::new(&f.path, 1, "circular #include"));
        }
        self.include_stack.push(file);
        if !self.included.contains(&file) {
            self.included.push(file);
        }
        let sf = self.sources.file(file);
        if sf.system {
            self.system_files.insert(file);
        }
        let path = sf.path.clone();
        let toks =
            lex(&sf.text, file, &path, LexOptions { keep_comments: false, keep_newlines: true })?;

        let mut i = 0usize;
        let mut conds: Vec<CondState> = Vec::new();
        while i < toks.len() {
            let t = &toks[i];
            match &t.kind {
                TokKind::Hash => {
                    // Directive: consume through end of line.
                    let line_end = toks[i..]
                        .iter()
                        .position(|t| t.kind == TokKind::Newline)
                        .map(|k| i + k)
                        .unwrap_or(toks.len());
                    let dir = &toks[i + 1..line_end];
                    self.directive(&path, t.loc, dir, &mut conds, file)?;
                    i = line_end + 1;
                }
                TokKind::Newline => {
                    i += 1;
                }
                _ => {
                    let active = conds.iter().all(|c| c.active);
                    if active {
                        i = self.emit_expanded(&toks, i, &path, &mut HashSet::new())?;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        if !conds.is_empty() {
            return Err(LangError::new(&path, 0, "unterminated conditional block"));
        }
        self.include_stack.pop();
        Ok(())
    }

    /// Expand and emit the token at `i`; returns the next input index.
    fn emit_expanded(
        &mut self,
        toks: &[Token],
        i: usize,
        path: &str,
        expanding: &mut HashSet<String>,
    ) -> Result<usize> {
        let t = &toks[i];
        if let TokKind::Ident(name) = &t.kind {
            if !expanding.contains(name) {
                match self.macros.get(name).cloned() {
                    Some(Macro::Object(body)) => {
                        expanding.insert(name.clone());
                        self.emit_body(&body, t.loc, path, expanding)?;
                        expanding.remove(name);
                        return Ok(i + 1);
                    }
                    Some(Macro::Function { params, body }) => {
                        // Function-like macros require an argument list; a
                        // bare reference passes through untouched.
                        let mut j = i + 1;
                        while j < toks.len() && toks[j].kind == TokKind::Newline {
                            j += 1;
                        }
                        if j < toks.len() && toks[j].kind.is_punct("(") {
                            let (args, after) = collect_macro_args(toks, j, path)?;
                            if args.len() != params.len()
                                && !(params.is_empty() && args.len() == 1 && args[0].is_empty())
                            {
                                return Err(LangError::new(
                                    path,
                                    t.loc.line,
                                    format!(
                                        "macro {name} expects {} args, got {}",
                                        params.len(),
                                        args.len()
                                    ),
                                ));
                            }
                            let map: HashMap<&str, &Vec<Token>> =
                                params.iter().map(String::as_str).zip(args.iter()).collect();
                            let mut substituted = Vec::new();
                            for bt in &body {
                                match &bt.kind {
                                    TokKind::Ident(p) if map.contains_key(p.as_str()) => {
                                        substituted.extend(map[p.as_str()].iter().cloned());
                                    }
                                    _ => substituted.push(bt.clone()),
                                }
                            }
                            expanding.insert(name.clone());
                            self.emit_body(&substituted, t.loc, path, expanding)?;
                            expanding.remove(name);
                            return Ok(after);
                        }
                    }
                    None => {}
                }
            }
        }
        self.out.push(t.clone());
        Ok(i + 1)
    }

    /// Emit a macro body, rewriting locations to the expansion site and
    /// recursively expanding nested macros.
    fn emit_body(
        &mut self,
        body: &[Token],
        use_loc: Loc,
        path: &str,
        expanding: &mut HashSet<String>,
    ) -> Result<()> {
        // Rewrite locations, then walk with expansion.
        let rewritten: Vec<Token> =
            body.iter().map(|t| Token::new(t.kind.clone(), use_loc)).collect();
        let mut k = 0usize;
        while k < rewritten.len() {
            k = self.emit_expanded(&rewritten, k, path, expanding)?;
        }
        Ok(())
    }

    fn directive(
        &mut self,
        path: &str,
        loc: Loc,
        dir: &[Token],
        conds: &mut Vec<CondState>,
        _file: FileId,
    ) -> Result<()> {
        let name = dir
            .first()
            .and_then(|t| t.kind.ident())
            .ok_or_else(|| LangError::new(path, loc.line, "empty preprocessor directive"))?
            .to_string();
        let rest = &dir[1..];
        let active = conds.iter().all(|c| c.active);

        match name.as_str() {
            "include" if active => self.include(path, loc, rest),
            "define" if active => self.define(path, loc, rest),
            "undef" if active => {
                if let Some(n) = rest.first().and_then(|t| t.kind.ident()) {
                    self.macros.remove(n);
                }
                Ok(())
            }
            "ifdef" | "ifndef" => {
                let defined = rest
                    .first()
                    .and_then(|t| t.kind.ident())
                    .is_some_and(|n| self.macros.contains_key(n));
                let hold = if name == "ifdef" { defined } else { !defined };
                let on = active && hold;
                conds.push(CondState { active: on, taken: on });
                Ok(())
            }
            "if" => {
                let v = active && self.eval_cond(path, loc, rest)? != 0;
                conds.push(CondState { active: v, taken: v });
                Ok(())
            }
            "elif" => {
                let level = conds
                    .last_mut()
                    .ok_or_else(|| LangError::new(path, loc.line, "#elif without #if"))?;
                if level.taken {
                    level.active = false;
                } else {
                    let parent_active = conds[..conds.len() - 1].iter().all(|c| c.active);
                    let level = conds.last_mut().unwrap();
                    let v = parent_active && self.eval_cond(path, loc, rest)? != 0;
                    level.active = v;
                    level.taken = v;
                }
                Ok(())
            }
            "else" => {
                let parent_active = conds[..conds.len().saturating_sub(1)].iter().all(|c| c.active);
                let level = conds
                    .last_mut()
                    .ok_or_else(|| LangError::new(path, loc.line, "#else without #if"))?;
                level.active = parent_active && !level.taken;
                level.taken = true;
                Ok(())
            }
            "endif" => {
                conds.pop().ok_or_else(|| LangError::new(path, loc.line, "#endif without #if"))?;
                Ok(())
            }
            "error" if active => {
                let msg: Vec<String> = rest.iter().map(|t| render_token(&t.kind)).collect();
                Err(LangError::new(path, loc.line, format!("#error {}", msg.join(" "))))
            }
            "pragma" if active => {
                // `#pragma once` is consumed; everything else is retained as
                // a Pragma token (semantic-bearing: OpenMP/OpenACC etc.).
                if rest.first().and_then(|t| t.kind.ident()) == Some("once") {
                    self.once.insert(loc.file);
                } else {
                    self.out.push(Token::new(TokKind::Pragma(rest.to_vec()), loc));
                }
                Ok(())
            }
            // Inactive-branch directives other than conditionals are skipped.
            _ => Ok(()),
        }
    }

    fn include(&mut self, path: &str, loc: Loc, rest: &[Token]) -> Result<()> {
        let (target, _system) = match rest.first() {
            Some(Token { kind: TokKind::Str(s), .. }) => (s.clone(), false),
            Some(Token { kind: TokKind::Punct("<"), .. }) => {
                // Reassemble `<a/b.h>` from tokens up to `>`.
                let mut s = String::new();
                for t in &rest[1..] {
                    if t.kind.is_punct(">") {
                        break;
                    }
                    render_into(&mut s, &t.kind);
                }
                (s, true)
            }
            _ => return Err(LangError::new(path, loc.line, "malformed #include")),
        };
        let id = self.sources.lookup(&target).ok_or_else(|| {
            LangError::new(path, loc.line, format!("include not found: {target}"))
        })?;
        self.process_file(id)
    }

    fn define(&mut self, path: &str, loc: Loc, rest: &[Token]) -> Result<()> {
        let name = rest
            .first()
            .and_then(|t| t.kind.ident())
            .ok_or_else(|| LangError::new(path, loc.line, "malformed #define"))?
            .to_string();
        let after = &rest[1..];
        // Function-like iff a '(' follows and a well-formed parameter list
        // (idents separated by commas) closes it.
        if after.first().is_some_and(|t| t.kind.is_punct("(")) {
            let mut params = Vec::new();
            let mut k = 1usize;
            let mut ok = false;
            if after.get(k).is_some_and(|t| t.kind.is_punct(")")) {
                ok = true;
                k += 1;
            } else {
                while let Some(TokKind::Ident(p)) = after.get(k).map(|t| &t.kind) {
                    params.push(p.clone());
                    k += 1;
                    match after.get(k).map(|t| &t.kind) {
                        Some(TokKind::Punct(",")) => k += 1,
                        Some(TokKind::Punct(")")) => {
                            ok = true;
                            k += 1;
                            break;
                        }
                        _ => break,
                    }
                }
            }
            if ok {
                let body = after[k..].to_vec();
                self.macros.insert(name, Macro::Function { params, body });
                return Ok(());
            }
        }
        self.macros.insert(name, Macro::Object(after.to_vec()));
        Ok(())
    }

    /// Evaluate a `#if`/`#elif` expression to an integer.
    fn eval_cond(&self, path: &str, loc: Loc, toks: &[Token]) -> Result<i64> {
        // First rewrite: defined(X)/defined X -> 0/1, then expand object
        // macros to their integer bodies where possible, unknowns -> 0.
        let mut vals: Vec<Token> = Vec::new();
        let mut i = 0usize;
        while i < toks.len() {
            match &toks[i].kind {
                TokKind::Ident(id) if id == "defined" => {
                    let (name, next) = if toks.get(i + 1).is_some_and(|t| t.kind.is_punct("(")) {
                        let n = toks
                            .get(i + 2)
                            .and_then(|t| t.kind.ident())
                            .ok_or_else(|| LangError::new(path, loc.line, "bad defined()"))?;
                        if !toks.get(i + 3).is_some_and(|t| t.kind.is_punct(")")) {
                            return Err(LangError::new(path, loc.line, "bad defined()"));
                        }
                        (n.to_string(), i + 4)
                    } else {
                        let n = toks
                            .get(i + 1)
                            .and_then(|t| t.kind.ident())
                            .ok_or_else(|| LangError::new(path, loc.line, "bad defined"))?;
                        (n.to_string(), i + 2)
                    };
                    let v = i64::from(self.macros.contains_key(&name));
                    vals.push(Token::new(TokKind::Int(v), loc));
                    i = next;
                }
                TokKind::Ident(id) => {
                    let v = match self.macros.get(id) {
                        Some(Macro::Object(body)) => match body.first().map(|t| &t.kind) {
                            Some(TokKind::Int(v)) if body.len() == 1 => *v,
                            _ => 0,
                        },
                        _ => 0,
                    };
                    vals.push(Token::new(TokKind::Int(v), loc));
                    i += 1;
                }
                _ => {
                    vals.push(toks[i].clone());
                    i += 1;
                }
            }
        }
        let mut ev = CondEval { toks: &vals, pos: 0, path, line: loc.line };
        let v = ev.or_expr()?;
        Ok(v)
    }
}

/// Gather macro-call arguments starting at the `(` token index; returns the
/// argument token lists and the index just past the closing `)`.
fn collect_macro_args(toks: &[Token], open: usize, path: &str) -> Result<(Vec<Vec<Token>>, usize)> {
    let mut args: Vec<Vec<Token>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut i = open;
    loop {
        let t = toks
            .get(i)
            .ok_or_else(|| LangError::new(path, toks[open].loc.line, "unterminated macro args"))?;
        match &t.kind {
            TokKind::Punct("(") => {
                if depth > 0 {
                    args.last_mut().unwrap().push(t.clone());
                }
                depth += 1;
            }
            TokKind::Punct(")") => {
                depth -= 1;
                if depth == 0 {
                    return Ok((args, i + 1));
                }
                args.last_mut().unwrap().push(t.clone());
            }
            TokKind::Punct(",") if depth == 1 => args.push(Vec::new()),
            TokKind::Newline => {}
            _ => args.last_mut().unwrap().push(t.clone()),
        }
        i += 1;
    }
}

/// Tiny recursive-descent evaluator for `#if` expressions.
struct CondEval<'a> {
    toks: &'a [Token],
    pos: usize,
    path: &'a str,
    line: u32,
}

impl CondEval<'_> {
    fn err(&self) -> LangError {
        LangError::new(self.path, self.line, "malformed #if expression")
    }

    fn peek_punct(&self, p: &str) -> bool {
        self.toks.get(self.pos).is_some_and(|t| t.kind.is_punct(p))
    }

    fn eat(&mut self, p: &str) -> bool {
        if self.peek_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn or_expr(&mut self) -> Result<i64> {
        let mut v = self.and_expr()?;
        while self.eat("||") {
            let r = self.and_expr()?;
            v = i64::from(v != 0 || r != 0);
        }
        Ok(v)
    }

    fn and_expr(&mut self) -> Result<i64> {
        let mut v = self.cmp_expr()?;
        while self.eat("&&") {
            let r = self.cmp_expr()?;
            v = i64::from(v != 0 && r != 0);
        }
        Ok(v)
    }

    fn cmp_expr(&mut self) -> Result<i64> {
        let v = self.add_expr()?;
        for (op, f) in [
            ("==", (|a: i64, b: i64| i64::from(a == b)) as fn(i64, i64) -> i64),
            ("!=", |a, b| i64::from(a != b)),
            ("<=", |a, b| i64::from(a <= b)),
            (">=", |a, b| i64::from(a >= b)),
            ("<", |a, b| i64::from(a < b)),
            (">", |a, b| i64::from(a > b)),
        ] {
            if self.eat(op) {
                let r = self.add_expr()?;
                return Ok(f(v, r));
            }
        }
        Ok(v)
    }

    fn add_expr(&mut self) -> Result<i64> {
        let mut v = self.unary()?;
        loop {
            if self.eat("+") {
                v += self.unary()?;
            } else if self.eat("-") {
                v -= self.unary()?;
            } else {
                return Ok(v);
            }
        }
    }

    fn unary(&mut self) -> Result<i64> {
        if self.eat("!") {
            return Ok(i64::from(self.unary()? == 0));
        }
        if self.eat("(") {
            let v = self.or_expr()?;
            if !self.eat(")") {
                return Err(self.err());
            }
            return Ok(v);
        }
        match self.toks.get(self.pos).map(|t| &t.kind) {
            Some(TokKind::Int(v)) => {
                self.pos += 1;
                Ok(*v)
            }
            _ => Err(self.err()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)], defines: &[(&str, Option<&str>)]) -> PpOutput {
        let mut ss = SourceSet::new();
        for (p, t) in files {
            if p.starts_with("sys/") || p.ends_with(".hpp") && p.contains('/') {
                ss.add_system(*p, *t);
            } else {
                ss.add(*p, *t);
            }
        }
        let main = ss.lookup(files[0].0).unwrap();
        let opts = PpOptions {
            defines: defines.iter().map(|(n, v)| (n.to_string(), v.map(str::to_string))).collect(),
        };
        preprocess(&ss, main, &opts).unwrap()
    }

    fn idents(out: &PpOutput) -> Vec<String> {
        out.tokens.iter().filter_map(|t| t.kind.ident().map(str::to_string)).collect()
    }

    #[test]
    fn plain_passthrough() {
        let out = run(&[("m.cpp", "int main ( ) { return 0 ; }")], &[]);
        assert_eq!(idents(&out), vec!["int", "main", "return"]);
    }

    #[test]
    fn object_macro_expansion() {
        let out = run(&[("m.cpp", "#define N 1024\nint a = N;")], &[]);
        let has_1024 = out.tokens.iter().any(|t| t.kind == TokKind::Int(1024));
        assert!(has_1024);
        assert!(!idents(&out).contains(&"N".to_string()));
    }

    #[test]
    fn function_macro_expansion() {
        let out = run(&[("m.cpp", "#define SQ(x) ((x) * (x))\nint a = SQ(3 + 1);")], &[]);
        let text: Vec<String> = out.tokens.iter().map(|t| render_token(&t.kind)).collect();
        let joined = text.join(" ");
        assert!(joined.contains("( ( 3 + 1 ) * ( 3 + 1 ) )"), "{joined}");
    }

    #[test]
    fn nested_macro_expansion() {
        let out = run(&[("m.cpp", "#define A B\n#define B 7\nint x = A;")], &[]);
        assert!(out.tokens.iter().any(|t| t.kind == TokKind::Int(7)));
    }

    #[test]
    fn recursive_macro_does_not_hang() {
        let out = run(&[("m.cpp", "#define X X\nint X;")], &[]);
        assert!(idents(&out).contains(&"X".to_string()));
    }

    #[test]
    fn include_quoted() {
        let out = run(&[("m.cpp", "#include \"k.h\"\nint b;"), ("k.h", "int a;")], &[]);
        assert_eq!(idents(&out), vec!["int", "a", "int", "b"]);
        assert_eq!(out.included.len(), 2);
    }

    #[test]
    fn include_angle_resolves_and_marks_system() {
        let out =
            run(&[("m.cpp", "#include <sys/omp.h>\nint b;"), ("sys/omp.h", "int omp_get;")], &[]);
        assert_eq!(idents(&out), vec!["int", "omp_get", "int", "b"]);
        assert_eq!(out.system_files.len(), 1);
    }

    #[test]
    fn missing_include_errors() {
        let mut ss = SourceSet::new();
        let m = ss.add("m.cpp", "#include \"gone.h\"\n");
        let e = preprocess(&ss, m, &PpOptions::default()).unwrap_err();
        assert!(e.message.contains("gone.h"));
    }

    #[test]
    fn circular_include_errors() {
        let mut ss = SourceSet::new();
        let a = ss.add("a.h", "#include \"b.h\"\n");
        ss.add("b.h", "#include \"a.h\"\n");
        let e = preprocess(&ss, a, &PpOptions::default()).unwrap_err();
        assert!(e.message.contains("circular"));
    }

    #[test]
    fn pragma_once_allows_diamond() {
        let out = run(
            &[
                ("m.cpp", "#include \"x.h\"\n#include \"x.h\"\nint end;"),
                ("x.h", "#pragma once\nint once_only;"),
            ],
            &[],
        );
        assert_eq!(idents(&out), vec!["int", "once_only", "int", "end"]);
    }

    #[test]
    fn ifdef_branches() {
        let src = "#ifdef GPU\nint gpu;\n#else\nint cpu;\n#endif\n";
        let out = run(&[("m.cpp", src)], &[]);
        assert_eq!(idents(&out), vec!["int", "cpu"]);
        let out = run(&[("m.cpp", src)], &[("GPU", None)]);
        assert_eq!(idents(&out), vec!["int", "gpu"]);
    }

    #[test]
    fn ifndef_guard() {
        let src = "#ifndef H\n#define H\nint body;\n#endif\nint after;";
        let out = run(&[("m.cpp", src)], &[]);
        assert_eq!(idents(&out), vec!["int", "body", "int", "after"]);
    }

    #[test]
    fn if_expression_with_defined_and_arith() {
        let src = "#if defined(A) && VALUE >= 2\nint yes;\n#else\nint no;\n#endif";
        let out = run(&[("m.cpp", src)], &[("A", None), ("VALUE", Some("3"))]);
        assert_eq!(idents(&out), vec!["int", "yes"]);
        let out = run(&[("m.cpp", src)], &[("A", None), ("VALUE", Some("1"))]);
        assert_eq!(idents(&out), vec!["int", "no"]);
    }

    #[test]
    fn elif_chains() {
        let src = "#if defined(A)\nint a;\n#elif defined(B)\nint b;\n#else\nint c;\n#endif";
        assert_eq!(idents(&run(&[("m.cpp", src)], &[("A", None)])), vec!["int", "a"]);
        assert_eq!(idents(&run(&[("m.cpp", src)], &[("B", None)])), vec!["int", "b"]);
        assert_eq!(idents(&run(&[("m.cpp", src)], &[])), vec!["int", "c"]);
    }

    #[test]
    fn nested_conditionals() {
        let src = "#ifdef A\n#ifdef B\nint ab;\n#endif\nint a;\n#endif\nint always;";
        assert_eq!(idents(&run(&[("m.cpp", src)], &[])), vec!["int", "always"]);
        assert_eq!(
            idents(&run(&[("m.cpp", src)], &[("A", None)])),
            vec!["int", "a", "int", "always"]
        );
        assert_eq!(
            idents(&run(&[("m.cpp", src)], &[("A", None), ("B", None)])),
            vec!["int", "ab", "int", "a", "int", "always"]
        );
    }

    #[test]
    fn error_directive_fires_only_when_active() {
        let mut ss = SourceSet::new();
        let m = ss.add("m.cpp", "#ifdef NOPE\n#error should not fire\n#endif\nint ok;");
        assert!(preprocess(&ss, m, &PpOptions::default()).is_ok());
        let m2 = ss.add("m2.cpp", "#error boom\n");
        let e = preprocess(&ss, m2, &PpOptions::default()).unwrap_err();
        assert!(e.message.contains("boom"));
    }

    #[test]
    fn pragma_retained_as_token() {
        let out = run(&[("m.cpp", "#pragma omp parallel for reduction(+:sum)\nfor_loop;")], &[]);
        let prag = out
            .tokens
            .iter()
            .find_map(|t| match &t.kind {
                TokKind::Pragma(inner) => Some(inner.clone()),
                _ => None,
            })
            .expect("pragma token present");
        assert_eq!(prag[0].kind.ident(), Some("omp"));
        assert_eq!(prag[1].kind.ident(), Some("parallel"));
        assert_eq!(prag[2].kind.ident(), Some("for"));
        assert!(prag.iter().any(|t| t.kind.ident() == Some("reduction")));
    }

    #[test]
    fn expansion_uses_use_site_location() {
        let out = run(&[("m.cpp", "#define K 5\n\n\nint x = K;")], &[]);
        let five = out.tokens.iter().find(|t| t.kind == TokKind::Int(5)).unwrap();
        assert_eq!(five.loc.line, 4);
    }

    #[test]
    fn lines_reconstruction_groups_by_source_line() {
        let out = run(&[("m.cpp", "int a;\nint b = 2 +\n 3;")], &[]);
        let lines = out.lines();
        assert_eq!(lines, vec!["int a ;", "int b = 2 +", "3 ;"]);
    }

    #[test]
    fn undef_removes_macro() {
        let out = run(&[("m.cpp", "#define N 9\n#undef N\nint x = N;")], &[]);
        assert!(idents(&out).contains(&"N".to_string()));
    }
}
