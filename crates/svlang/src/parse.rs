//! Recursive-descent parser: post-preprocessing tokens → [`Program`].
//!
//! The grammar is a pragmatic C++ subset sized for HPC mini-apps: functions,
//! structs with methods, templates-as-type-arguments, lambdas, CUDA/HIP
//! triple-chevron kernel launches, `static_cast`, and pragma-annotated
//! statements.  Ambiguities are resolved the way industrial C parsers do —
//! speculative parsing with backtracking (declaration-vs-expression,
//! template-argument-vs-less-than) — including the classic `>>` split when
//! closing nested template argument lists.

use crate::ast::*;
use crate::lex::{TokKind, Token};
use crate::source::{FileId, LangError, Result};
use std::sync::Arc;

/// Parse a preprocessed token stream into a [`Program`].
pub fn parse(tokens: Vec<Token>, main_file: FileId, path: &str) -> Result<Program> {
    let mut p = Parser { toks: tokens, pos: 0, path, splits: Vec::new() };
    let mut items = Vec::new();
    while !p.at_end() {
        items.push(p.item()?);
    }
    Ok(Program { main_file, items })
}

/// Builtin scalar type keywords.
const BUILTIN_TYPES: &[&str] =
    &["void", "bool", "char", "int", "long", "size_t", "float", "double", "auto"];

/// Function attributes / specifiers accepted before the return type.
const FN_ATTRS: &[&str] =
    &["static", "inline", "constexpr", "__global__", "__device__", "__host__", "extern"];

struct Parser<'a> {
    toks: Vec<Token>,
    pos: usize,
    path: &'a str,
    /// Positions where a `>>` was split into `>` `>`, for backtracking undo.
    splits: Vec<usize>,
}

/// A backtracking mark.
#[derive(Clone, Copy)]
struct Mark {
    pos: usize,
    splits: usize,
}

impl Parser<'_> {
    // -- cursor ------------------------------------------------------------

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&TokKind> {
        self.toks.get(self.pos).map(|t| &t.kind)
    }

    fn peek_at(&self, off: usize) -> Option<&TokKind> {
        self.toks.get(self.pos + off).map(|t| &t.kind)
    }

    fn file(&self) -> FileId {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.loc.file)
            .unwrap_or(FileId(0))
    }

    fn line(&self) -> u32 {
        self.toks.get(self.pos).or_else(|| self.toks.last()).map(|t| t.loc.line).unwrap_or(0)
    }

    fn prev_line(&self) -> u32 {
        self.toks.get(self.pos.saturating_sub(1)).map(|t| t.loc.line).unwrap_or(0)
    }

    fn bump(&mut self) -> Option<TokKind> {
        let k = self.toks.get(self.pos).map(|t| t.kind.clone());
        if k.is_some() {
            self.pos += 1;
        }
        k
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        LangError::new(self.path, self.line(), msg)
    }

    fn mark(&self) -> Mark {
        Mark { pos: self.pos, splits: self.splits.len() }
    }

    fn rewind(&mut self, m: Mark) {
        // Undo any `>>` splits performed after the mark.
        while self.splits.len() > m.splits {
            let at = self.splits.pop().unwrap();
            self.toks[at].kind = TokKind::Punct(">>");
        }
        self.pos = m.pos;
    }

    fn is_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|k| k.is_punct(p))
    }

    fn eat_punct(&mut self, p: &str) -> bool {
        if self.is_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: &str) -> Result<()> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.err(format!("expected '{p}', found {}", self.describe())))
        }
    }

    /// Expect a closing `>` for a template list, splitting `>>`/`>>>` if
    /// needed.
    fn expect_template_close(&mut self) -> Result<()> {
        match self.peek() {
            Some(TokKind::Punct(">")) => {
                self.pos += 1;
                Ok(())
            }
            Some(TokKind::Punct(">>")) => {
                self.toks[self.pos].kind = TokKind::Punct(">");
                self.splits.push(self.pos);
                // Leave the remaining `>` for the outer list: rewrite this
                // token to `>` and do NOT advance — the outer close consumes
                // it.  (The split bookkeeping restores `>>` on rewind.)
                Ok(())
            }
            _ => Err(self.err(format!("expected '>', found {}", self.describe()))),
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek() {
            Some(TokKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.err(format!("expected identifier, found {}", self.describe()))),
        }
    }

    fn peek_ident(&self) -> Option<&str> {
        self.peek().and_then(|k| k.ident())
    }

    fn describe(&self) -> String {
        match self.peek() {
            None => "end of input".into(),
            Some(k) => format!("{k:?}"),
        }
    }

    // -- items ---------------------------------------------------------------

    fn item(&mut self) -> Result<Item> {
        let line = self.line();
        if let Some(TokKind::Pragma(inner)) = self.peek() {
            let inner = inner.clone();
            let file = self.file();
            self.pos += 1;
            let dir = parse_pragma(&inner, file, line, self.path)?;
            return Ok(Item::Pragma(dir));
        }
        if self.peek_ident() == Some("using") {
            self.pos += 1;
            // using namespace a::b;  /  using a::b;
            if self.peek_ident() == Some("namespace") {
                self.pos += 1;
            }
            let mut path = vec![self.ident()?];
            while self.eat_punct("::") {
                path.push(self.ident()?);
            }
            self.expect_punct(";")?;
            return Ok(Item::Using { path, line });
        }
        if self.peek_ident() == Some("struct") || self.peek_ident() == Some("class") {
            return self.struct_def().map(Item::Struct);
        }

        // Function or global: attrs, type, name, then '(' decides.
        let mut attrs = Vec::new();
        while let Some(id) = self.peek_ident() {
            if FN_ATTRS.contains(&id) {
                attrs.push(id.to_string());
                self.pos += 1;
                // `extern "C"` — swallow the linkage string.
                if attrs.last().map(String::as_str) == Some("extern") {
                    if let Some(TokKind::Str(_)) = self.peek() {
                        self.pos += 1;
                    }
                }
            } else {
                break;
            }
        }
        let file = self.file();
        let ty = self.parse_type()?;
        let name = self.ident()?;
        if self.is_punct("(") {
            let f = self.function_rest(attrs, ty, name, file, line)?;
            Ok(Item::Function(f))
        } else {
            let init = if self.eat_punct("=") { Some(self.expr()?) } else { None };
            self.expect_punct(";")?;
            Ok(Item::Global(VarDecl { file, ty, name, init, line }))
        }
    }

    fn struct_def(&mut self) -> Result<StructDef> {
        let line = self.line();
        let file = self.file();
        self.pos += 1; // struct / class
        let name = self.ident()?;
        self.expect_punct("{")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.is_punct("}") {
            // `public:` / `private:` access labels.
            if matches!(self.peek_ident(), Some("public") | Some("private"))
                && self.peek_at(1).is_some_and(|k| k.is_punct(":"))
            {
                self.pos += 2;
                continue;
            }
            let mline = self.line();
            let mut attrs = Vec::new();
            while let Some(id) = self.peek_ident() {
                if FN_ATTRS.contains(&id) {
                    attrs.push(id.to_string());
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let mfile = self.file();
            let ty = self.parse_type()?;
            let mname = self.ident()?;
            if self.is_punct("(") {
                methods.push(self.function_rest(attrs, ty, mname, mfile, mline)?);
            } else {
                self.expect_punct(";")?;
                fields.push(Param { ty, name: mname, line: mline });
            }
        }
        self.expect_punct("}")?;
        let end_line = self.prev_line();
        self.eat_punct(";");
        Ok(StructDef { file, name, fields, methods, line, end_line })
    }

    fn function_rest(
        &mut self,
        attrs: Vec<String>,
        ret: Type,
        name: String,
        file: FileId,
        line: u32,
    ) -> Result<Function> {
        self.expect_punct("(")?;
        let params = self.params()?;
        self.expect_punct(")")?;
        // trailing qualifiers (const) on methods
        while self.peek_ident() == Some("const") {
            self.pos += 1;
        }
        let body = if self.eat_punct(";") { None } else { Some(self.block()?) };
        let end_line = self.prev_line();
        Ok(Function { file, attrs, ret, name, params, body, line, end_line })
    }

    fn params(&mut self) -> Result<Vec<Param>> {
        let mut out = Vec::new();
        if self.is_punct(")") {
            return Ok(out);
        }
        loop {
            let line = self.line();
            let ty = self.parse_type()?;
            // Parameter name is optional in prototypes.
            let name = match self.peek() {
                Some(TokKind::Ident(_)) => self.ident()?,
                _ => String::new(),
            };
            out.push(Param { ty, name, line });
            if !self.eat_punct(",") {
                break;
            }
        }
        Ok(out)
    }

    // -- types ---------------------------------------------------------------

    /// Parse a type; errors if the tokens do not start one.
    fn parse_type(&mut self) -> Result<Type> {
        let mut constness = false;
        if self.peek_ident() == Some("const") {
            constness = true;
            self.pos += 1;
        }
        // `class K` / `typename T` tags in template-argument position
        // (SYCL kernel names): the tag is dropped, the name parses as a
        // named type.
        if matches!(self.peek_ident(), Some("class") | Some("typename"))
            && matches!(self.peek_at(1), Some(TokKind::Ident(_)))
        {
            self.pos += 1;
        }
        let base = match self.peek_ident().map(str::to_owned).as_deref() {
            Some(id) if BUILTIN_TYPES.contains(&id) => {
                let t = match id {
                    "void" => Type::Void,
                    "bool" => Type::Bool,
                    "char" => Type::Char,
                    "int" => Type::Int,
                    "long" => Type::Long,
                    "size_t" => Type::Size,
                    "float" => Type::Float,
                    "double" => Type::Double,
                    "auto" => Type::Auto,
                    _ => unreachable!(),
                };
                self.pos += 1;
                // `long long`, `long double` — fold into Long/Double.
                if id == "long" {
                    match self.peek_ident() {
                        Some("long") => {
                            self.pos += 1;
                        }
                        Some("double") => {
                            self.pos += 1;
                            return self.type_suffixes(Type::Double, constness);
                        }
                        _ => {}
                    }
                }
                t
            }
            Some(_) => {
                let mut path = vec![self.ident()?];
                while self.is_punct("::") && matches!(self.peek_at(1), Some(TokKind::Ident(_))) {
                    self.pos += 1;
                    path.push(self.ident()?);
                }
                let args = if self.is_punct("<") { self.template_args()? } else { Vec::new() };
                Type::Named { path, args }
            }
            None => return Err(self.err("expected type")),
        };
        self.type_suffixes(base, constness)
    }

    fn type_suffixes(&mut self, mut t: Type, constness: bool) -> Result<Type> {
        if constness {
            t = Type::Const(Box::new(t));
        }
        loop {
            if self.eat_punct("*") {
                t = Type::Ptr(Box::new(t));
                // `double *const` — trailing const folds in.
                if self.peek_ident() == Some("const") {
                    self.pos += 1;
                    t = Type::Const(Box::new(t));
                }
            } else if self.eat_punct("&") {
                t = Type::Ref(Box::new(t));
            } else {
                return Ok(t);
            }
        }
    }

    fn template_args(&mut self) -> Result<Vec<Type>> {
        self.expect_punct("<")?;
        let mut args = Vec::new();
        if !self.is_punct(">") {
            loop {
                match self.peek() {
                    Some(TokKind::Int(v)) => {
                        args.push(Type::IntConst(*v));
                        self.pos += 1;
                    }
                    _ => args.push(self.parse_type()?),
                }
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_template_close()?;
        Ok(args)
    }

    // -- statements ------------------------------------------------------------

    fn block(&mut self) -> Result<Block> {
        let line = self.line();
        self.expect_punct("{")?;
        let mut stmts = Vec::new();
        while !self.is_punct("}") {
            if self.at_end() {
                return Err(self.err("unterminated block"));
            }
            stmts.push(self.stmt()?);
        }
        self.expect_punct("}")?;
        let end_line = self.prev_line();
        Ok(Block { stmts, line, end_line })
    }

    /// A statement body: `{ … }` or a single statement wrapped in a block.
    fn body(&mut self) -> Result<Block> {
        if self.is_punct("{") {
            self.block()
        } else {
            let line = self.line();
            let s = self.stmt()?;
            let end_line = self.prev_line();
            Ok(Block { stmts: vec![s], line, end_line })
        }
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        if let Some(TokKind::Pragma(inner)) = self.peek() {
            let inner = inner.clone();
            let file = self.file();
            self.pos += 1;
            let dir = parse_pragma(&inner, file, line, self.path)?;
            let stmt = if dir.attaches_to_statement() && !self.at_end() && !self.is_punct("}") {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::Pragma { dir, stmt, line });
        }
        match self.peek_ident() {
            Some("if") => return self.if_stmt(),
            Some("for") => return self.for_stmt(),
            Some("while") => return self.while_stmt(),
            Some("switch") => return self.switch_stmt(),
            Some("return") => {
                self.pos += 1;
                let expr = if self.is_punct(";") { None } else { Some(self.expr()?) };
                self.expect_punct(";")?;
                return Ok(Stmt::Return { expr, line });
            }
            Some("break") => {
                self.pos += 1;
                self.expect_punct(";")?;
                return Ok(Stmt::Break { line });
            }
            Some("continue") => {
                self.pos += 1;
                self.expect_punct(";")?;
                return Ok(Stmt::Continue { line });
            }
            _ => {}
        }
        if self.is_punct("{") {
            return Ok(Stmt::Block(self.block()?));
        }
        // Declaration or expression.
        if let Some(decl) = self.try_var_decl()? {
            return Ok(Stmt::Decl(decl));
        }
        let expr = self.expr()?;
        self.expect_punct(";")?;
        Ok(Stmt::Expr { expr, line })
    }

    /// Speculatively parse `type name [= init | (args) | {args}] ;`.
    fn try_var_decl(&mut self) -> Result<Option<VarDecl>> {
        let m = self.mark();
        let line = self.line();
        let file = self.file();
        let ty = match self.parse_type() {
            Ok(t) => t,
            Err(_) => {
                self.rewind(m);
                return Ok(None);
            }
        };
        let name = match self.peek() {
            Some(TokKind::Ident(s)) if !BUILTIN_TYPES.contains(&s.as_str()) => {
                let n = s.clone();
                self.pos += 1;
                n
            }
            _ => {
                self.rewind(m);
                return Ok(None);
            }
        };
        // Declarator tail decides whether this really is a declaration.
        if self.eat_punct(";") {
            return Ok(Some(VarDecl { file, ty, name, init: None, line }));
        }
        if self.eat_punct("=") {
            let init = self.expr()?;
            self.expect_punct(";")?;
            return Ok(Some(VarDecl { file, ty, name, init: Some(init), line }));
        }
        if self.is_punct("(") || self.is_punct("{") {
            // Constructor-style init: `sycl::queue q(dev);` / `T x{a, b};`
            let brace = self.is_punct("{");
            let close = if brace { "}" } else { ")" };
            self.pos += 1;
            let mut args = Vec::new();
            if !self.is_punct(close) {
                loop {
                    args.push(self.expr()?);
                    if !self.eat_punct(",") {
                        break;
                    }
                }
            }
            if !self.eat_punct(close) || !self.eat_punct(";") {
                self.rewind(m);
                return Ok(None);
            }
            let init = Expr::new(ExprKind::Construct { ty: ty.clone(), args, brace }, line);
            return Ok(Some(VarDecl { file, ty, name, init: Some(init), line }));
        }
        self.rewind(m);
        Ok(None)
    }

    fn if_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        self.pos += 1; // if
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let then_blk = self.body()?;
        let else_blk = if self.peek_ident() == Some("else") {
            self.pos += 1;
            if self.peek_ident() == Some("if") {
                // `else if` chains: wrap the nested if in a block.
                let eline = self.line();
                let nested = self.if_stmt()?;
                let end_line = self.prev_line();
                Some(Block { stmts: vec![nested], line: eline, end_line })
            } else {
                Some(self.body()?)
            }
        } else {
            None
        };
        Ok(Stmt::If { cond, then_blk, else_blk, line })
    }

    fn for_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        self.pos += 1; // for
        self.expect_punct("(")?;
        let init = if self.eat_punct(";") {
            None
        } else if let Some(d) = self.try_var_decl()? {
            Some(Box::new(Stmt::Decl(d)))
        } else {
            let eline = self.line();
            let e = self.expr()?;
            self.expect_punct(";")?;
            Some(Box::new(Stmt::Expr { expr: e, line: eline }))
        };
        let cond = if self.is_punct(";") { None } else { Some(self.expr()?) };
        self.expect_punct(";")?;
        let step = if self.is_punct(")") { None } else { Some(self.expr()?) };
        self.expect_punct(")")?;
        let body = self.body()?;
        Ok(Stmt::For { init, cond, step, body, line })
    }

    fn switch_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        self.pos += 1; // switch
        self.expect_punct("(")?;
        let scrutinee = self.expr()?;
        self.expect_punct(")")?;
        self.expect_punct("{")?;
        let mut arms: Vec<SwitchArm> = Vec::new();
        while !self.is_punct("}") {
            let aline = self.line();
            let value = match self.peek_ident() {
                Some("case") => {
                    self.pos += 1;
                    let neg = self.eat_punct("-");
                    match self.bump() {
                        Some(TokKind::Int(v)) => Some(if neg { -v } else { v }),
                        Some(TokKind::Char(c)) => Some(c as i64),
                        _ => return Err(self.err("expected integer case label")),
                    }
                }
                Some("default") => {
                    self.pos += 1;
                    None
                }
                _ => return Err(self.err("expected 'case' or 'default' in switch")),
            };
            self.expect_punct(":")?;
            let mut stmts = Vec::new();
            while !self.is_punct("}")
                && !matches!(self.peek_ident(), Some("case") | Some("default"))
            {
                stmts.push(self.stmt()?);
            }
            arms.push(SwitchArm { value, stmts, line: aline });
        }
        self.expect_punct("}")?;
        Ok(Stmt::Switch { scrutinee, arms, line })
    }

    fn while_stmt(&mut self) -> Result<Stmt> {
        let line = self.line();
        self.pos += 1; // while
        self.expect_punct("(")?;
        let cond = self.expr()?;
        self.expect_punct(")")?;
        let body = self.body()?;
        Ok(Stmt::While { cond, body, line })
    }

    // -- expressions -------------------------------------------------------------

    fn expr(&mut self) -> Result<Expr> {
        self.assign()
    }

    fn assign(&mut self) -> Result<Expr> {
        let line = self.line();
        let lhs = self.ternary()?;
        for op in ["=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="] {
            if self.is_punct(op) {
                self.pos += 1;
                let rhs = self.assign()?; // right associative
                let op: &'static str = leak_op(op);
                return Ok(Expr::new(
                    ExprKind::Assign { op, lhs: Box::new(lhs), rhs: Box::new(rhs) },
                    line,
                ));
            }
        }
        Ok(lhs)
    }

    fn ternary(&mut self) -> Result<Expr> {
        let line = self.line();
        let cond = self.binary(0)?;
        if self.eat_punct("?") {
            let then_e = self.expr()?;
            self.expect_punct(":")?;
            let else_e = self.ternary()?;
            return Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e: Box::new(else_e),
                },
                line,
            ));
        }
        Ok(cond)
    }

    /// Binary operators by precedence level (0 = lowest).
    fn binary(&mut self, level: usize) -> Result<Expr> {
        const LEVELS: &[&[&str]] = &[
            &["||"],
            &["&&"],
            &["|"],
            &["^"],
            &["&"],
            &["==", "!="],
            &["<", ">", "<=", ">="],
            &["<<", ">>"],
            &["+", "-"],
            &["*", "/", "%"],
        ];
        if level >= LEVELS.len() {
            return self.unary();
        }
        let line = self.line();
        let mut lhs = self.binary(level + 1)?;
        'outer: loop {
            for op in LEVELS[level] {
                if self.is_punct(op) {
                    self.pos += 1;
                    let rhs = self.binary(level + 1)?;
                    lhs = Expr::new(
                        ExprKind::Binary {
                            op: leak_op(op),
                            lhs: Box::new(lhs),
                            rhs: Box::new(rhs),
                        },
                        line,
                    );
                    continue 'outer;
                }
            }
            return Ok(lhs);
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        let line = self.line();
        for op in ["!", "-", "+", "*", "&", "~", "++", "--"] {
            if self.is_punct(op) {
                self.pos += 1;
                let e = self.unary()?;
                return Ok(Expr::new(
                    ExprKind::Unary { op: leak_op(op), expr: Box::new(e), postfix: false },
                    line,
                ));
            }
        }
        self.postfix()
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            let line = self.line();
            if self.is_punct("(") {
                let args = self.call_args()?;
                e = Expr::new(
                    ExprKind::Call { callee: Box::new(e), targs: Vec::new(), args },
                    line,
                );
            } else if self.is_punct("[") {
                self.pos += 1;
                let index = self.expr()?;
                self.expect_punct("]")?;
                e = Expr::new(ExprKind::Index { base: Box::new(e), index: Box::new(index) }, line);
            } else if self.is_punct(".") || self.is_punct("->") {
                let arrow = self.is_punct("->");
                self.pos += 1;
                let member = self.ident()?;
                e = Expr::new(ExprKind::Member { base: Box::new(e), member, arrow }, line);
            } else if self.is_punct("++") || self.is_punct("--") {
                let op = if self.is_punct("++") { "++" } else { "--" };
                self.pos += 1;
                e = Expr::new(
                    ExprKind::Unary { op: leak_op(op), expr: Box::new(e), postfix: true },
                    line,
                );
            } else if self.is_punct("<<<") {
                // CUDA/HIP launch: callee<<<grid, block>>>(args)
                self.pos += 1;
                let grid = self.expr()?;
                self.expect_punct(",")?;
                let block = self.expr()?;
                self.expect_punct(">>>")?;
                let args = if self.is_punct("(") { self.call_args()? } else { Vec::new() };
                e = Expr::new(
                    ExprKind::KernelLaunch {
                        callee: Box::new(e),
                        grid: Box::new(grid),
                        block: Box::new(block),
                        args,
                    },
                    line,
                );
            } else if self.is_punct("<")
                && matches!(e.kind, ExprKind::Path(_) | ExprKind::Member { .. })
            {
                // Maybe an explicit template call: path<targs>(args).
                let m = self.mark();
                match self.template_args() {
                    Ok(targs) if self.is_punct("(") => {
                        let args = self.call_args()?;
                        e = Expr::new(ExprKind::Call { callee: Box::new(e), targs, args }, line);
                    }
                    _ => {
                        self.rewind(m);
                        return Ok(e); // `<` is a comparison; binary() handles it
                    }
                }
            } else {
                return Ok(e);
            }
        }
    }

    fn call_args(&mut self) -> Result<Vec<Expr>> {
        self.expect_punct("(")?;
        let mut args = Vec::new();
        if !self.is_punct(")") {
            loop {
                args.push(self.expr()?);
                if !self.eat_punct(",") {
                    break;
                }
            }
        }
        self.expect_punct(")")?;
        Ok(args)
    }

    fn primary(&mut self) -> Result<Expr> {
        let line = self.line();
        match self.peek().cloned() {
            Some(TokKind::Int(v)) => {
                self.pos += 1;
                Ok(Expr::new(ExprKind::Int(v), line))
            }
            Some(TokKind::Real(v)) => {
                self.pos += 1;
                Ok(Expr::new(ExprKind::Real(v), line))
            }
            Some(TokKind::Str(s)) => {
                self.pos += 1;
                Ok(Expr::new(ExprKind::Str(s), line))
            }
            Some(TokKind::Char(c)) => {
                self.pos += 1;
                Ok(Expr::new(ExprKind::Char(c), line))
            }
            Some(TokKind::Ident(id)) => {
                match id.as_str() {
                    "true" | "false" => {
                        self.pos += 1;
                        return Ok(Expr::new(ExprKind::Bool(id == "true"), line));
                    }
                    "static_cast" | "reinterpret_cast" | "const_cast" => {
                        self.pos += 1;
                        self.expect_punct("<")?;
                        let ty = self.parse_type()?;
                        self.expect_template_close()?;
                        self.expect_punct("(")?;
                        let inner = self.expr()?;
                        self.expect_punct(")")?;
                        return Ok(Expr::new(ExprKind::Cast { ty, expr: Box::new(inner) }, line));
                    }
                    "sizeof" => {
                        self.pos += 1;
                        self.expect_punct("(")?;
                        // sizeof(type) or sizeof(expr)
                        let m = self.mark();
                        if let Ok(ty) = self.parse_type() {
                            if self.eat_punct(")") {
                                return Ok(Expr::new(
                                    ExprKind::Call {
                                        callee: Box::new(Expr::new(
                                            ExprKind::Path(vec!["sizeof".into()]),
                                            line,
                                        )),
                                        targs: vec![ty],
                                        args: Vec::new(),
                                    },
                                    line,
                                ));
                            }
                        }
                        self.rewind(m);
                        let inner = self.expr()?;
                        self.expect_punct(")")?;
                        return Ok(Expr::new(
                            ExprKind::Call {
                                callee: Box::new(Expr::new(
                                    ExprKind::Path(vec!["sizeof".into()]),
                                    line,
                                )),
                                targs: Vec::new(),
                                args: vec![inner],
                            },
                            line,
                        ));
                    }
                    _ => {}
                }
                // Qualified path.
                let mut path = vec![self.ident()?];
                while self.is_punct("::") && matches!(self.peek_at(1), Some(TokKind::Ident(_))) {
                    self.pos += 1;
                    path.push(self.ident()?);
                }
                // `Type{…}` brace construction.
                if self.is_punct("{") {
                    let m = self.mark();
                    self.pos += 1;
                    let mut args = Vec::new();
                    let mut ok = true;
                    if !self.is_punct("}") {
                        loop {
                            match self.expr() {
                                Ok(a) => args.push(a),
                                Err(_) => {
                                    ok = false;
                                    break;
                                }
                            }
                            if !self.eat_punct(",") {
                                break;
                            }
                        }
                    }
                    if ok && self.eat_punct("}") {
                        return Ok(Expr::new(
                            ExprKind::Construct {
                                ty: Type::Named { path, args: Vec::new() },
                                args,
                                brace: true,
                            },
                            line,
                        ));
                    }
                    self.rewind(m);
                }
                Ok(Expr::new(ExprKind::Path(path), line))
            }
            Some(TokKind::Punct("(")) => {
                // Cast `(builtin)expr` or parenthesised expression.
                let m = self.mark();
                self.pos += 1;
                if let Some(id) = self.peek_ident() {
                    if BUILTIN_TYPES.contains(&id) || id == "const" {
                        if let Ok(ty) = self.parse_type() {
                            if self.eat_punct(")") {
                                let inner = self.unary()?;
                                return Ok(Expr::new(
                                    ExprKind::Cast { ty, expr: Box::new(inner) },
                                    line,
                                ));
                            }
                        }
                        self.rewind(m);
                        self.pos += 1; // re-consume '('
                    }
                }
                let inner = self.expr()?;
                self.expect_punct(")")?;
                Ok(inner)
            }
            Some(TokKind::Punct("[")) => self.lambda(),
            Some(TokKind::Punct("{")) => {
                self.pos += 1;
                let mut items = Vec::new();
                if !self.is_punct("}") {
                    loop {
                        items.push(self.expr()?);
                        if !self.eat_punct(",") {
                            break;
                        }
                    }
                }
                self.expect_punct("}")?;
                Ok(Expr::new(ExprKind::InitList(items), line))
            }
            _ => Err(self.err(format!("expected expression, found {}", self.describe()))),
        }
    }

    fn lambda(&mut self) -> Result<Expr> {
        let line = self.line();
        self.expect_punct("[")?;
        // Capture list stored as raw text: `=`, `&`, `x, &y`, or empty.
        let mut capture = String::new();
        while !self.is_punct("]") {
            let k = self.bump().ok_or_else(|| self.err("unterminated lambda capture"))?;
            if !capture.is_empty() {
                capture.push(' ');
            }
            crate::pp::render_into(&mut capture, &k);
        }
        self.expect_punct("]")?;
        let params = if self.is_punct("(") {
            self.pos += 1;
            let p = self.params()?;
            self.expect_punct(")")?;
            p
        } else {
            Vec::new()
        };
        // optional `mutable` / attribute-ish identifiers before the body
        while matches!(self.peek_ident(), Some("mutable") | Some("noexcept")) {
            self.pos += 1;
        }
        let body = Arc::new(self.block()?);
        Ok(Expr::new(ExprKind::Lambda { capture, params, body }, line))
    }
}

/// Operator strings are from fixed tables, so interning them as 'static is
/// just a table lookup.
fn leak_op(op: &str) -> &'static str {
    const OPS: &[&str] = &[
        "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", "||", "&&", "|", "^",
        "&", "==", "!=", "<", ">", "<=", ">=", "<<", ">>", "+", "-", "*", "/", "%", "!", "~", "++",
        "--",
    ];
    OPS.iter().find(|&&o| o == op).copied().expect("operator not in table")
}

/// Directive words recognised as part of an OpenMP/OpenACC directive name
/// (everything after them is a clause).
const DIRECTIVE_WORDS: &[&str] = &[
    "parallel",
    "for",
    "simd",
    "target",
    "teams",
    "distribute",
    "taskloop",
    "task",
    "sections",
    "section",
    "single",
    "atomic",
    "critical",
    "barrier",
    "data",
    "enter",
    "exit",
    "update",
    "declare",
    "end",
    "loop",
    "kernels",
    "routine",
    "masked",
    "taskwait",
    "flush",
    "threadprivate",
];

/// Parse the content tokens of a `#pragma` into a [`Pragma`].
pub fn parse_pragma(tokens: &[Token], file: FileId, line: u32, path: &str) -> Result<Pragma> {
    let mut i = 0usize;
    let domain = tokens
        .get(i)
        .and_then(|t| t.kind.ident())
        .ok_or_else(|| LangError::new(path, line, "empty pragma"))?
        .to_string();
    i += 1;
    let mut dir_path = Vec::new();
    // Directive words continue while they are known words NOT followed by
    // `(` (a known word followed by `(` could still be a directive — OpenMP
    // has `if(...)`-style clauses but no parenthesised directive words).
    while let Some(t) = tokens.get(i) {
        match t.kind.ident() {
            Some(w)
                if DIRECTIVE_WORDS.contains(&w)
                    && !tokens.get(i + 1).is_some_and(|n| n.kind.is_punct("(")) =>
            {
                dir_path.push(w.to_string());
                i += 1;
            }
            _ => break,
        }
    }
    let mut clauses = Vec::new();
    while let Some(t) = tokens.get(i) {
        let name = t
            .kind
            .ident()
            .ok_or_else(|| LangError::new(path, line, "expected pragma clause name"))?
            .to_string();
        i += 1;
        let mut args = Vec::new();
        if tokens.get(i).is_some_and(|t| t.kind.is_punct("(")) {
            i += 1;
            let mut depth = 1usize;
            while let Some(t) = tokens.get(i) {
                if t.kind.is_punct("(") {
                    depth += 1;
                } else if t.kind.is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        i += 1;
                        break;
                    }
                }
                args.push(crate::pp::render_token(&t.kind));
                i += 1;
            }
        }
        clauses.push(Clause { name, args });
    }
    Ok(Pragma { file, domain, path: dir_path, clauses, line })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pp::{preprocess, PpOptions};
    use crate::source::SourceSet;

    fn parse_src(src: &str) -> Program {
        let mut ss = SourceSet::new();
        let m = ss.add("t.cpp", src);
        let out = preprocess(&ss, m, &PpOptions::default()).unwrap();
        parse(out.tokens, m, "t.cpp").unwrap()
    }

    fn parse_err(src: &str) -> LangError {
        let mut ss = SourceSet::new();
        let m = ss.add("t.cpp", src);
        let out = preprocess(&ss, m, &PpOptions::default()).unwrap();
        parse(out.tokens, m, "t.cpp").unwrap_err()
    }

    #[test]
    fn simple_function() {
        let p = parse_src("int main() { return 0; }");
        assert_eq!(p.items.len(), 1);
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert_eq!(f.name, "main");
        assert_eq!(f.ret, Type::Int);
        let body = f.body.as_ref().unwrap();
        assert!(matches!(body.stmts[0], Stmt::Return { .. }));
    }

    #[test]
    fn globals_and_using() {
        let p = parse_src("using namespace std;\ndouble scalar = 0.4;\nint n;");
        assert!(
            matches!(&p.items[0], Item::Using { path, .. } if path == &vec!["std".to_string()])
        );
        assert!(matches!(&p.items[1], Item::Global(v) if v.name == "scalar" && v.init.is_some()));
        assert!(matches!(&p.items[2], Item::Global(v) if v.init.is_none()));
    }

    #[test]
    fn function_attrs_cuda() {
        let p = parse_src("__global__ void k(double* a) { a[0] = 1.0; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert!(f.is_kernel());
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.params[0].ty, Type::Ptr(Box::new(Type::Double)));
    }

    #[test]
    fn struct_with_fields_and_methods() {
        let p = parse_src(
            "struct Vec3 { double x; double y; double z;\n double norm() { return x; } };",
        );
        let Item::Struct(s) = &p.items[0] else { panic!() };
        assert_eq!(s.name, "Vec3");
        assert_eq!(s.fields.len(), 3);
        assert_eq!(s.methods.len(), 1);
        assert_eq!(s.methods[0].name, "norm");
    }

    #[test]
    fn templated_types_nested() {
        let p = parse_src("std::vector<std::vector<double>> grid;");
        let Item::Global(v) = &p.items[0] else { panic!() };
        let Type::Named { path, args } = &v.ty else { panic!() };
        assert_eq!(path.join("::"), "std::vector");
        let Type::Named { path: p2, args: a2 } = &args[0] else { panic!() };
        assert_eq!(p2.join("::"), "std::vector");
        assert_eq!(a2[0], Type::Double);
    }

    #[test]
    fn template_int_args() {
        let p = parse_src("sycl::accessor<double, 1> acc;");
        let Item::Global(v) = &p.items[0] else { panic!() };
        let Type::Named { args, .. } = &v.ty else { panic!() };
        assert_eq!(args[1], Type::IntConst(1));
    }

    #[test]
    fn decl_vs_expr_disambiguation() {
        let p = parse_src("void f() { foo(1); sycl::queue q; int x = 2; x = bar(x); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let stmts = &f.body.as_ref().unwrap().stmts;
        assert!(matches!(&stmts[0], Stmt::Expr { .. }));
        assert!(matches!(&stmts[1], Stmt::Decl(_)));
        assert!(matches!(&stmts[2], Stmt::Decl(_)));
        assert!(matches!(&stmts[3], Stmt::Expr { .. }));
    }

    #[test]
    fn constructor_style_decl() {
        let p = parse_src("void f() { sycl::buffer<double> b(data, n); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Decl(v) = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let Some(Expr { kind: ExprKind::Construct { args, brace, .. }, .. }) = &v.init else {
            panic!()
        };
        assert_eq!(args.len(), 2);
        assert!(!brace);
    }

    #[test]
    fn for_loop_canonical() {
        let p = parse_src("void f(int n) { for (int i = 0; i < n; i++) { g(i); } }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::For { init, cond, step, body, .. } = &f.body.as_ref().unwrap().stmts[0] else {
            panic!()
        };
        assert!(matches!(init.as_deref(), Some(Stmt::Decl(_))));
        assert!(cond.is_some());
        assert!(matches!(
            step.as_ref().unwrap().kind,
            ExprKind::Unary { op: "++", postfix: true, .. }
        ));
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn unbraced_bodies() {
        let p = parse_src("void f(int n) { for (int i = 0; i < n; ++i) a[i] = b[i]; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::For { body, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn if_else_chain() {
        let p = parse_src("void f(int x) { if (x > 0) g(); else if (x < 0) h(); else k(); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::If { else_blk, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let nested = &else_blk.as_ref().unwrap().stmts[0];
        let Stmt::If { else_blk: inner_else, .. } = nested else { panic!() };
        assert!(inner_else.is_some());
    }

    #[test]
    fn while_break_continue() {
        let p = parse_src("void f() { while (true) { if (done()) break; continue; } }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert!(matches!(&f.body.as_ref().unwrap().stmts[0], Stmt::While { .. }));
    }

    #[test]
    fn operator_precedence() {
        let p = parse_src("int x = 1 + 2 * 3;");
        let Item::Global(v) = &p.items[0] else { panic!() };
        let ExprKind::Binary { op: "+", rhs, .. } = &v.init.as_ref().unwrap().kind else {
            panic!()
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: "*", .. }));
    }

    #[test]
    fn assignment_right_assoc() {
        let p = parse_src("void f() { a = b = c; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Expr { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::Assign { rhs, .. } = &expr.kind else { panic!() };
        assert!(matches!(rhs.kind, ExprKind::Assign { .. }));
    }

    #[test]
    fn ternary_expression() {
        let p = parse_src("int x = a > b ? a : b;");
        let Item::Global(v) = &p.items[0] else { panic!() };
        assert!(matches!(v.init.as_ref().unwrap().kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn member_and_index_chains() {
        let p = parse_src("void f() { obj.field[i]->next.go(); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Expr { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert!(matches!(expr.kind, ExprKind::Call { .. }));
    }

    #[test]
    fn qualified_call_with_template_args() {
        let p = parse_src("void f() { std::fill<double>(a, b, 0.0); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Expr { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::Call { callee, targs, args } = &expr.kind else { panic!() };
        assert!(matches!(&callee.kind, ExprKind::Path(p) if p.join("::") == "std::fill"));
        assert_eq!(targs.len(), 1);
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn less_than_not_template() {
        let p = parse_src("bool f(int a, int b) { return a < b && b < c; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Return { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert!(matches!(expr.as_ref().unwrap().kind, ExprKind::Binary { op: "&&", .. }));
    }

    #[test]
    fn kernel_launch_triple_chevron() {
        let p = parse_src("void f() { add_kernel<<<blocks, threads>>>(a, b, c); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Expr { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::KernelLaunch { args, .. } = &expr.kind else { panic!() };
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn lambda_expression() {
        let p = parse_src(
            "void f(sycl::handler& h) { h.parallel_for(r, [=](sycl::id<1> i) { c[i] = a[i]; }); }",
        );
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Expr { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::Call { args, .. } = &expr.kind else { panic!() };
        let ExprKind::Lambda { capture, params, body } = &args[1].kind else { panic!() };
        assert_eq!(capture, "=");
        assert_eq!(params.len(), 1);
        assert_eq!(body.stmts.len(), 1);
    }

    #[test]
    fn static_cast_expression() {
        let p = parse_src("double d = static_cast<double>(n);");
        let Item::Global(v) = &p.items[0] else { panic!() };
        let ExprKind::Cast { ty, .. } = &v.init.as_ref().unwrap().kind else { panic!() };
        assert_eq!(*ty, Type::Double);
    }

    #[test]
    fn c_style_cast_of_builtin() {
        let p = parse_src("void f() { x = (double)n * 0.5; }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Expr { expr, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let ExprKind::Assign { rhs, .. } = &expr.kind else { panic!() };
        let ExprKind::Binary { lhs, .. } = &rhs.kind else { panic!() };
        assert!(matches!(lhs.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn sizeof_type_and_expr() {
        let p = parse_src("void f() { m = malloc(n * sizeof(double)); k = sizeof(x); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert_eq!(f.body.as_ref().unwrap().stmts.len(), 2);
    }

    #[test]
    fn pragma_attaches_to_loop() {
        let p = parse_src(
            "void f(int n) {\n#pragma omp parallel for schedule(static)\nfor (int i = 0; i < n; i++) a[i] = 0.0; }",
        );
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Pragma { dir, stmt, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert_eq!(dir.domain, "omp");
        assert_eq!(dir.path, vec!["parallel", "for"]);
        assert_eq!(dir.clauses[0].name, "schedule");
        assert!(matches!(stmt.as_deref(), Some(Stmt::For { .. })));
    }

    #[test]
    fn pragma_reduction_clause_args() {
        let p = parse_src(
            "void f(int n) {\n#pragma omp parallel for reduction(+:sum)\nfor (int i = 0; i < n; i++) sum += a[i]; }",
        );
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Pragma { dir, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        let red = &dir.clauses[0];
        assert_eq!(red.name, "reduction");
        assert_eq!(red.args, vec!["+", ":", "sum"]);
    }

    #[test]
    fn standalone_pragma_no_attach() {
        let p = parse_src("void f() {\n#pragma omp barrier\ng(); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let stmts = &f.body.as_ref().unwrap().stmts;
        let Stmt::Pragma { stmt, .. } = &stmts[0] else { panic!() };
        assert!(stmt.is_none());
        assert!(matches!(&stmts[1], Stmt::Expr { .. }));
    }

    #[test]
    fn top_level_pragma_item() {
        let p = parse_src("#pragma omp declare target\ndouble f(double x) { return x; }\n#pragma omp end declare target");
        assert!(matches!(&p.items[0], Item::Pragma(d) if d.path == vec!["declare", "target"]));
        assert!(matches!(&p.items[1], Item::Function(_)));
        assert!(matches!(&p.items[2], Item::Pragma(_)));
    }

    #[test]
    fn target_map_clauses() {
        let p = parse_src(
            "void f(int n) {\n#pragma omp target teams distribute parallel for map(tofrom: a)\nfor (int i = 0; i < n; i++) a[i] = 0.0; }",
        );
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Pragma { dir, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert_eq!(dir.path, vec!["target", "teams", "distribute", "parallel", "for"]);
        assert_eq!(dir.clauses[0].name, "map");
    }

    #[test]
    fn brace_construct_and_init_list() {
        let p = parse_src("void f() { auto r = sycl::range{n}; init({1, 2, 3}); }");
        let Item::Function(f) = &p.items[0] else { panic!() };
        let stmts = &f.body.as_ref().unwrap().stmts;
        let Stmt::Decl(v) = &stmts[0] else { panic!() };
        assert!(matches!(v.init.as_ref().unwrap().kind, ExprKind::Construct { brace: true, .. }));
        let Stmt::Expr { expr, .. } = &stmts[1] else { panic!() };
        let ExprKind::Call { args, .. } = &expr.kind else { panic!() };
        assert!(matches!(args[0].kind, ExprKind::InitList(_)));
    }

    #[test]
    fn error_reports_line() {
        let e = parse_err("void f() {\n  int x = ;\n}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn line_numbers_on_nodes() {
        let p = parse_src("int a;\n\nvoid f() {\n  g();\n}");
        assert_eq!(p.items[0].line(), 1);
        assert_eq!(p.items[1].line(), 3);
        let Item::Function(f) = &p.items[1] else { panic!() };
        assert_eq!(f.body.as_ref().unwrap().stmts[0].line(), 4);
        assert_eq!(f.end_line, 5);
    }

    #[test]
    fn shift_operators_still_work() {
        let p = parse_src("int x = 1 << 4 | n >> 2;");
        let Item::Global(v) = &p.items[0] else { panic!() };
        assert!(matches!(v.init.as_ref().unwrap().kind, ExprKind::Binary { op: "|", .. }));
    }

    #[test]
    fn switch_statement_parses() {
        let p = parse_src(
            "int f(int x) { switch (x) { case 1: return 10; case -2: g(); break; default: return 0; } return 9; }",
        );
        let Item::Function(f) = &p.items[0] else { panic!() };
        let Stmt::Switch { arms, .. } = &f.body.as_ref().unwrap().stmts[0] else { panic!() };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].value, Some(1));
        assert_eq!(arms[1].value, Some(-2));
        assert_eq!(arms[2].value, None);
        assert_eq!(arms[1].stmts.len(), 2);
    }

    #[test]
    fn prototypes_without_body() {
        let p = parse_src("double dot(const double* a, const double* b, int n);");
        let Item::Function(f) = &p.items[0] else { panic!() };
        assert!(f.body.is_none());
        assert_eq!(f.params.len(), 3);
    }
}
