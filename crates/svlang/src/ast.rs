//! Abstract syntax tree for the C/C++-family dialect.
//!
//! The AST is the dialect's equivalent of the ClangAST: it retains symbolic
//! relations, template-ish type arguments, lambdas, CUDA kernel-launch
//! syntax, and — crucially — OpenMP/OpenACC pragmas as first-class nodes
//! (the paper's key observation is that "OpenMP pragmas provide additional
//! semantics beyond those of the base language" and appear as dedicated
//! AST tokens in both Clang and GCC).
//!
//! Every node records its starting source line; block-like nodes also
//! record their end line so coverage masks can prune whole regions.

use crate::source::FileId;
use std::sync::Arc;

/// A parsed translation unit (after preprocessing).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The main file this unit was parsed from.
    pub main_file: FileId,
    pub items: Vec<Item>,
}

/// Top-level items.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Function(Function),
    Struct(StructDef),
    Global(VarDecl),
    /// `using namespace foo;` / `using foo::bar;` — recorded for the tree,
    /// no semantic effect in the dialect.
    Using {
        path: Vec<String>,
        line: u32,
    },
    /// A free-standing pragma at file scope (e.g. `#pragma omp declare target`).
    Pragma(Pragma),
}

impl Item {
    /// Starting line of the item.
    pub fn line(&self) -> u32 {
        match self {
            Item::Function(f) => f.line,
            Item::Struct(s) => s.line,
            Item::Global(v) => v.line,
            Item::Using { line, .. } => *line,
            Item::Pragma(p) => p.line,
        }
    }
}

/// A struct/class definition with fields and methods.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// File the definition lives in (header functions keep their header id).
    pub file: FileId,
    pub name: String,
    pub fields: Vec<Param>,
    pub methods: Vec<Function>,
    pub line: u32,
    pub end_line: u32,
}

/// A function definition or declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// File the definition lives in (header functions keep their header id).
    pub file: FileId,
    /// Specifiers and target attributes, in source order: `static`,
    /// `inline`, `__global__`, `__device__`, `__host__`, `constexpr`.
    pub attrs: Vec<String>,
    pub ret: Type,
    pub name: String,
    pub params: Vec<Param>,
    /// `None` for a declaration (prototype).
    pub body: Option<Block>,
    pub line: u32,
    pub end_line: u32,
}

impl Function {
    /// True when the function is a CUDA/HIP device-side entry point.
    pub fn is_kernel(&self) -> bool {
        self.attrs.iter().any(|a| a == "__global__")
    }

    /// True when callable on the device (`__global__` or `__device__`).
    pub fn is_device(&self) -> bool {
        self.attrs.iter().any(|a| a == "__global__" || a == "__device__")
    }
}

/// A typed parameter or struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub ty: Type,
    pub name: String,
    pub line: u32,
}

/// Types in the dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Type {
    Void,
    Bool,
    Char,
    Int,
    Long,
    /// `size_t`
    Size,
    Float,
    Double,
    /// `auto` (inference is approximated in sema).
    Auto,
    /// Possibly-qualified named type with template arguments:
    /// `std::vector<double>`, `sycl::accessor<double, 1>`.
    Named {
        path: Vec<String>,
        args: Vec<Type>,
    },
    /// Integer template argument, e.g. the `1` in `accessor<double, 1>`.
    IntConst(i64),
    Ptr(Box<Type>),
    Ref(Box<Type>),
    Const(Box<Type>),
}

impl Type {
    /// Canonical display used in tree labels, with names retained only for
    /// builtin/STL-ish types (user names are normalised away separately).
    pub fn label(&self) -> String {
        match self {
            Type::Void => "void".into(),
            Type::Bool => "bool".into(),
            Type::Char => "char".into(),
            Type::Int => "int".into(),
            Type::Long => "long".into(),
            Type::Size => "size_t".into(),
            Type::Float => "float".into(),
            Type::Double => "double".into(),
            Type::Auto => "auto".into(),
            Type::Named { path, args } => {
                let mut s = path.join("::");
                if !args.is_empty() {
                    s.push('<');
                    let parts: Vec<String> = args.iter().map(Type::label).collect();
                    s.push_str(&parts.join(","));
                    s.push('>');
                }
                s
            }
            Type::IntConst(v) => v.to_string(),
            Type::Ptr(t) => format!("{}*", t.label()),
            Type::Ref(t) => format!("{}&", t.label()),
            Type::Const(t) => format!("const {}", t.label()),
        }
    }

    /// Strip const/ref wrappers.
    pub fn decayed(&self) -> &Type {
        match self {
            Type::Const(t) | Type::Ref(t) => t.decayed(),
            other => other,
        }
    }

    /// Is this (after decay) a floating-point scalar?
    pub fn is_float(&self) -> bool {
        matches!(self.decayed(), Type::Float | Type::Double)
    }

    /// Is this (after decay) an integer scalar?
    pub fn is_int(&self) -> bool {
        matches!(self.decayed(), Type::Int | Type::Long | Type::Size | Type::Char)
    }
}

/// A `{}`-delimited statement list.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
    pub end_line: u32,
}

/// A variable declaration (local or global).
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// File the declaration lives in.
    pub file: FileId,
    pub ty: Type,
    pub name: String,
    pub init: Option<Expr>,
    pub line: u32,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Decl(VarDecl),
    Expr {
        expr: Expr,
        line: u32,
    },
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
        line: u32,
    },
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Block,
        line: u32,
    },
    While {
        cond: Expr,
        body: Block,
        line: u32,
    },
    Return {
        expr: Option<Expr>,
        line: u32,
    },
    /// `switch (scrutinee) { case K: …; default: … }` — each arm is a
    /// statement list; fallthrough is modelled by arms without `break`.
    Switch {
        scrutinee: Expr,
        arms: Vec<SwitchArm>,
        line: u32,
    },
    Break {
        line: u32,
    },
    Continue {
        line: u32,
    },
    Block(Block),
    /// A pragma, optionally attached to the statement it governs.
    Pragma {
        dir: Pragma,
        stmt: Option<Box<Stmt>>,
        line: u32,
    },
}

impl Stmt {
    /// Starting line.
    pub fn line(&self) -> u32 {
        match self {
            Stmt::Decl(v) => v.line,
            Stmt::Expr { line, .. }
            | Stmt::If { line, .. }
            | Stmt::For { line, .. }
            | Stmt::While { line, .. }
            | Stmt::Return { line, .. }
            | Stmt::Switch { line, .. }
            | Stmt::Break { line }
            | Stmt::Continue { line }
            | Stmt::Pragma { line, .. } => *line,
            Stmt::Block(b) => b.line,
        }
    }
}

/// One arm of a `switch` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchArm {
    /// `None` for `default:`.
    pub value: Option<i64>,
    pub stmts: Vec<Stmt>,
    pub line: u32,
}

/// A parsed `#pragma` directive.
#[derive(Debug, Clone, PartialEq)]
pub struct Pragma {
    /// File the pragma lives in.
    pub file: FileId,
    /// `omp`, `acc`, or any other first identifier.
    pub domain: String,
    /// Directive words, e.g. `["target", "teams", "distribute",
    /// "parallel", "for"]`.
    pub path: Vec<String>,
    pub clauses: Vec<Clause>,
    pub line: u32,
}

/// A pragma clause: `reduction(+:sum)` → name `reduction`,
/// args `["+", ":", "sum"]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Clause {
    pub name: String,
    pub args: Vec<String>,
}

impl Pragma {
    /// OpenMP/OpenACC executable constructs attach to the next statement;
    /// standalone directives (barriers, declare, update…) do not.
    pub fn attaches_to_statement(&self) -> bool {
        const ATTACHABLE: &[&str] = &[
            "parallel",
            "for",
            "simd",
            "target",
            "teams",
            "distribute",
            "taskloop",
            "task",
            "sections",
            "single",
            "atomic",
            "critical",
            "loop",
            "kernels",
            "data",
            "masked",
        ];
        // `target data` attaches (structured block); `target update`,
        // `declare`, `barrier`, `end` do not.
        match self.path.first().map(String::as_str) {
            Some("declare") | Some("barrier") | Some("end") | Some("update") | Some("taskwait")
            | Some("flush") | Some("routine") => false,
            Some(first) => {
                if self.path.iter().any(|w| w == "update" || w == "enter" || w == "exit") {
                    return false;
                }
                ATTACHABLE.contains(&first)
            }
            None => false,
        }
    }

    /// Directive display label, e.g. `OMPTargetTeamsDistributeParallelForDirective`
    /// in the style of Clang's OpenMP AST nodes.
    pub fn ast_label(&self) -> String {
        let domain = match self.domain.as_str() {
            "omp" => "OMP",
            "acc" => "ACC",
            other => return format!("PragmaDirective({other})"),
        };
        let mut s = String::from(domain);
        for w in &self.path {
            let mut cs = w.chars();
            if let Some(c0) = cs.next() {
                s.push(c0.to_ascii_uppercase());
                s.push_str(cs.as_str());
            }
        }
        s.push_str("Directive");
        s
    }
}

/// Expressions: a kind plus the starting line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    pub kind: ExprKind,
    pub line: u32,
}

impl Expr {
    pub fn new(kind: ExprKind, line: u32) -> Self {
        Expr { kind, line }
    }
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    Int(i64),
    Real(f64),
    Str(String),
    Char(char),
    Bool(bool),
    /// Possibly-qualified name: `x`, `std::max`, `sycl::range`.
    Path(Vec<String>),
    Unary {
        op: &'static str,
        expr: Box<Expr>,
        postfix: bool,
    },
    Binary {
        op: &'static str,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Assign {
        op: &'static str,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    Ternary {
        cond: Box<Expr>,
        then_e: Box<Expr>,
        else_e: Box<Expr>,
    },
    Call {
        callee: Box<Expr>,
        targs: Vec<Type>,
        args: Vec<Expr>,
    },
    /// CUDA/HIP triple-chevron launch: `kernel<<<grid, block>>>(args…)`.
    KernelLaunch {
        callee: Box<Expr>,
        grid: Box<Expr>,
        block: Box<Expr>,
        args: Vec<Expr>,
    },
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
    },
    Member {
        base: Box<Expr>,
        member: String,
        arrow: bool,
    },
    /// `[capture](params) { body }`.  The body is shared so that an
    /// interpreter's closures can hold it without copying the subtree.
    Lambda {
        capture: String,
        params: Vec<Param>,
        body: Arc<Block>,
    },
    /// `(double)x` or `static_cast<double>(x)`.
    Cast {
        ty: Type,
        expr: Box<Expr>,
    },
    /// `Type(args)` / `Type{args}` construction.
    Construct {
        ty: Type,
        args: Vec<Expr>,
        brace: bool,
    },
    /// `{a, b, c}` initialiser list.
    InitList(Vec<Expr>),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_labels() {
        let t = Type::Named {
            path: vec!["sycl".into(), "accessor".into()],
            args: vec![Type::Double, Type::IntConst(1)],
        };
        assert_eq!(t.label(), "sycl::accessor<double,1>");
        assert_eq!(
            Type::Ptr(Box::new(Type::Const(Box::new(Type::Double)))).label(),
            "const double*"
        );
    }

    #[test]
    fn type_classification() {
        assert!(Type::Double.is_float());
        assert!(Type::Ref(Box::new(Type::Const(Box::new(Type::Float)))).is_float());
        assert!(Type::Size.is_int());
        assert!(!Type::Ptr(Box::new(Type::Int)).is_int());
    }

    #[test]
    fn pragma_labels_clang_style() {
        let p = Pragma {
            file: FileId(0),
            domain: "omp".into(),
            path: vec![
                "target".into(),
                "teams".into(),
                "distribute".into(),
                "parallel".into(),
                "for".into(),
            ],
            clauses: vec![],
            line: 1,
        };
        assert_eq!(p.ast_label(), "OMPTargetTeamsDistributeParallelForDirective");
        let a = Pragma {
            file: FileId(0),
            domain: "acc".into(),
            path: vec!["kernels".into()],
            clauses: vec![],
            line: 1,
        };
        assert_eq!(a.ast_label(), "ACCKernelsDirective");
    }

    #[test]
    fn pragma_attachment_rules() {
        let mk = |words: &[&str]| Pragma {
            file: FileId(0),
            domain: "omp".into(),
            path: words.iter().map(|s| s.to_string()).collect(),
            clauses: vec![],
            line: 1,
        };
        assert!(mk(&["parallel", "for"]).attaches_to_statement());
        assert!(mk(&["target", "teams", "distribute", "parallel", "for"]).attaches_to_statement());
        assert!(mk(&["target", "data"]).attaches_to_statement());
        assert!(!mk(&["target", "update"]).attaches_to_statement());
        assert!(!mk(&["target", "enter", "data"]).attaches_to_statement());
        assert!(!mk(&["declare", "target"]).attaches_to_statement());
        assert!(!mk(&["barrier"]).attaches_to_statement());
        assert!(!mk(&["end", "declare", "target"]).attaches_to_statement());
    }

    #[test]
    fn kernel_attr_queries() {
        let f = Function {
            file: FileId(0),
            attrs: vec!["__global__".into()],
            ret: Type::Void,
            name: "k".into(),
            params: vec![],
            body: None,
            line: 1,
            end_line: 1,
        };
        assert!(f.is_kernel());
        assert!(f.is_device());
    }
}
