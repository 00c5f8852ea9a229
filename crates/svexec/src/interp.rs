//! Tree-walking interpreter for the C/C++ dialect.
//!
//! Executes parsed programs directly off the AST, recording **line
//! coverage** as it goes — the coverage profile that the `+coverage`
//! metric variants consume is produced by genuinely running the mini-apps
//! (the paper recompiles with coverage flags and runs "a reduced problem
//! set"; here the interpreter plays the role of the instrumented binary).
//!
//! Parallel constructs execute with sequential semantics (loop iterations
//! run in order): the *semantics* of every model are honoured — kernels
//! see `threadIdx`/`blockIdx`, SYCL command groups get handlers, Kokkos
//! reducers accumulate — so verification results and coverage match what
//! the real runtimes produce for deterministic kernels.

use crate::intrinsics;
use crate::value::{ArrayRef, Closure, Env, Native, Slot, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;
use svlang::ast::*;
use svtree::mask::{CoverageMask, LineMask};

/// Deepest nesting of function calls, closure calls and kernel launches a
/// program may reach.  The interpreter recurses natively once per call, so
/// without a bound an interpreted `f(x){return f(x);}` would overflow the
/// host thread's stack and abort the process; past this depth the call
/// fails with a typed [`ExecError`] instead.  A plain recursive call costs
/// 2–3 KiB of native stack in a release build and one with six nested
/// operators in its return expression about 7.5 KiB, so 128 levels stay
/// well inside the 2 MiB a spawned thread gets by default.  The corpus
/// nests a handful of calls.
pub const MAX_CALL_DEPTH: u32 = 128;

/// Runtime error with source line.
#[derive(Debug, Clone)]
pub struct ExecError {
    pub message: String,
    pub line: u32,
}

impl ExecError {
    pub fn new(message: impl Into<String>, line: u32) -> Self {
        ExecError { message: message.into(), line }
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "runtime error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ExecError {}

pub type ExecResult<T> = Result<T, ExecError>;

/// Statement-level control flow.
pub enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// An assignable place.
enum Place {
    Slot(Slot),
    Elem(ArrayRef, usize),
    Field(Rc<RefCell<HashMap<String, Slot>>>, String),
}

impl Place {
    fn get(&self, line: u32) -> ExecResult<Value> {
        match self {
            Place::Slot(s) => Ok(s.borrow().clone()),
            Place::Elem(a, i) => a
                .borrow()
                .get(*i)
                .cloned()
                .ok_or_else(|| ExecError::new(format!("index {i} out of bounds"), line)),
            Place::Field(o, name) => o
                .borrow()
                .get(name)
                .map(|s| s.borrow().clone())
                .ok_or_else(|| ExecError::new(format!("no field {name}"), line)),
        }
    }

    fn set(&self, v: Value, line: u32) -> ExecResult<()> {
        match self {
            Place::Slot(s) => {
                *s.borrow_mut() = v;
                Ok(())
            }
            Place::Elem(a, i) => {
                let mut arr = a.borrow_mut();
                let len = arr.len();
                let cell = arr.get_mut(*i).ok_or_else(|| {
                    ExecError::new(format!("index {i} out of bounds (len {len})"), line)
                })?;
                *cell = v;
                Ok(())
            }
            Place::Field(o, name) => {
                let obj = o.borrow();
                let slot = obj
                    .get(name)
                    .ok_or_else(|| ExecError::new(format!("no field {name}"), line))?;
                *slot.borrow_mut() = v;
                Ok(())
            }
        }
    }
}

/// The interpreter.
///
/// Functions and struct definitions are copied out of the [`Program`] once,
/// in [`Interp::new`], and shared by `Rc` from then on; lambda bodies are
/// shared with the AST.  No call, launch or lambda path copies AST.
pub struct Interp {
    pub(crate) fns: HashMap<String, Rc<Function>>,
    pub(crate) structs: HashMap<String, Rc<StructDef>>,
    pub globals: Env,
    /// Line coverage recorded while running, one dense mask per file index
    /// (an empty mask means the file never executed).
    lines: Vec<LineMask>,
    /// Captured `printf` output.
    pub output: String,
    /// Simulated wall clock (advanced by timer intrinsics).
    pub time: f64,
    steps: u64,
    step_limit: u64,
    /// Current call nesting (see [`MAX_CALL_DEPTH`]).
    depth: u32,
}

impl Interp {
    /// Build an interpreter over a parsed program (globals initialised).
    pub fn new(prog: &Program) -> ExecResult<Interp> {
        let mut it = Interp {
            fns: HashMap::new(),
            structs: HashMap::new(),
            globals: Env::new(),
            lines: Vec::new(),
            output: String::new(),
            time: 0.0,
            steps: 0,
            step_limit: 400_000_000,
            depth: 0,
        };
        for item in &prog.items {
            match item {
                Item::Function(f) if f.body.is_some() => {
                    it.fns.insert(f.name.clone(), Rc::new(f.clone()));
                }
                Item::Struct(s) => {
                    it.structs.insert(s.name.clone(), Rc::new(s.clone()));
                }
                _ => {}
            }
        }
        // Globals second, so initialisers can call functions.
        for item in &prog.items {
            if let Item::Global(v) = item {
                let env = it.globals.clone();
                let val = match &v.init {
                    Some(e) => it.eval(&env, v.file.0, e)?,
                    None => default_value(&v.ty),
                };
                it.globals.declare(&v.name, val);
            }
        }
        Ok(it)
    }

    /// Cap the number of executed statements (runaway-loop guard).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Steps executed so far (the quantity the step limit bounds).
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Line coverage recorded so far, one mask per file that executed.
    pub fn coverage(&self) -> CoverageMask {
        let mut cov = CoverageMask::new();
        for (file, mask) in self.lines.iter().enumerate() {
            if mask.count() > 0 {
                cov.insert_file(file as u32, mask.clone());
            }
        }
        cov
    }

    /// Run `main()`; returns its exit value.
    pub fn run_main(&mut self) -> ExecResult<i64> {
        let v = self.call_named("main", Vec::new(), 0)?;
        Ok(v.as_int().unwrap_or(0))
    }

    /// Call a named free function with already-evaluated arguments.
    pub fn call_named(&mut self, name: &str, args: Vec<Value>, line: u32) -> ExecResult<Value> {
        let f = self
            .fns
            .get(name)
            .cloned()
            .ok_or_else(|| ExecError::new(format!("undefined function {name}"), line))?;
        self.call_function(&f, args)
    }

    pub(crate) fn call_function(&mut self, f: &Function, args: Vec<Value>) -> ExecResult<Value> {
        let env = self.globals.child();
        for (p, a) in f.params.iter().zip(args) {
            env.declare(&p.name, a);
        }
        let file = f.file.0;
        let Some(body) = &f.body else {
            return Err(ExecError::new(format!("function {} has no body", f.name), f.line));
        };
        self.record(file, f.line);
        match self.nested(f.line, |it| it.exec_block(&env, file, body))? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    /// Call a closure with positional values; reference parameters receive
    /// the provided slots when `slots` supplies one at that position.
    pub(crate) fn call_closure(
        &mut self,
        c: &Closure,
        args: &[Value],
        slots: &[Option<Slot>],
    ) -> ExecResult<Value> {
        let env = c.env.child();
        for (i, (name, by_ref)) in c.params.iter().enumerate() {
            match (by_ref, slots.get(i).cloned().flatten()) {
                (true, Some(s)) => env.bind(name, s),
                _ => {
                    env.declare(name, args.get(i).cloned().unwrap_or(Value::Unit));
                }
            }
        }
        match self.nested(c.body.line, |it| it.exec_block(&env, c.file, &c.body))? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Unit),
        }
    }

    /// Run `call` one call level deeper, failing past [`MAX_CALL_DEPTH`].
    fn nested<T>(
        &mut self,
        line: u32,
        call: impl FnOnce(&mut Interp) -> ExecResult<T>,
    ) -> ExecResult<T> {
        if self.depth >= MAX_CALL_DEPTH {
            return Err(ExecError::new("call depth exceeded", line));
        }
        self.depth += 1;
        let result = call(self);
        self.depth -= 1;
        result
    }

    pub(crate) fn record(&mut self, file: u32, line: u32) {
        let file = file as usize;
        if file >= self.lines.len() {
            self.lines.resize_with(file + 1, LineMask::new);
        }
        self.lines[file].set(line);
    }

    fn tick(&mut self, line: u32) -> ExecResult<()> {
        self.steps += 1;
        if self.steps > self.step_limit {
            return Err(ExecError::new("step limit exceeded (runaway loop?)", line));
        }
        Ok(())
    }

    // -- statements -----------------------------------------------------------

    pub(crate) fn exec_block(&mut self, env: &Env, file: u32, blk: &Block) -> ExecResult<Flow> {
        let inner = env.child();
        for s in &blk.stmts {
            match self.exec_stmt(&inner, file, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, env: &Env, file: u32, s: &Stmt) -> ExecResult<Flow> {
        self.tick(s.line())?;
        self.record(file, s.line());
        match s {
            Stmt::Decl(v) => {
                let val = match &v.init {
                    Some(e) => {
                        let raw = self.eval(env, file, e)?;
                        coerce_decl(&v.ty, raw)
                    }
                    // `sycl::queue q;` — named types default-construct.
                    None => match v.ty.decayed() {
                        Type::Named { .. } => self
                            .construct_value(&v.ty, Vec::new(), v.line)
                            .unwrap_or_else(|_| default_value(&v.ty)),
                        _ => default_value(&v.ty),
                    },
                };
                env.declare(&v.name, val);
                Ok(Flow::Normal)
            }
            Stmt::Expr { expr, .. } => {
                self.eval(env, file, expr)?;
                Ok(Flow::Normal)
            }
            Stmt::If { cond, then_blk, else_blk, .. } => {
                if self.eval(env, file, cond)?.truthy() {
                    self.exec_block(env, file, then_blk)
                } else if let Some(e) = else_blk {
                    self.exec_block(env, file, e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::For { init, cond, step, body, .. } => {
                let outer = env.child();
                if let Some(i) = init {
                    self.exec_stmt(&outer, file, i)?;
                }
                loop {
                    self.tick(s.line())?;
                    if let Some(c) = cond {
                        if !self.eval(&outer, file, c)?.truthy() {
                            break;
                        }
                    }
                    match self.exec_block(&outer, file, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                    if let Some(st) = step {
                        self.eval(&outer, file, st)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    self.tick(s.line())?;
                    if !self.eval(env, file, cond)?.truthy() {
                        break;
                    }
                    match self.exec_block(env, file, body)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        _ => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Switch { scrutinee, arms, .. } => {
                let v = self
                    .eval(env, file, scrutinee)?
                    .as_int()
                    .ok_or_else(|| ExecError::new("switch scrutinee must be integral", s.line()))?;
                // Find the matching arm (or default), then execute with C
                // fallthrough semantics until a break.
                let start = arms
                    .iter()
                    .position(|a| a.value == Some(v))
                    .or_else(|| arms.iter().position(|a| a.value.is_none()));
                if let Some(start) = start {
                    'arms: for arm in &arms[start..] {
                        for st in &arm.stmts {
                            match self.exec_stmt(env, file, st)? {
                                Flow::Break => break 'arms,
                                Flow::Return(rv) => return Ok(Flow::Return(rv)),
                                Flow::Continue => return Ok(Flow::Continue),
                                Flow::Normal => {}
                            }
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { expr, .. } => {
                let v = match expr {
                    Some(e) => self.eval(env, file, e)?,
                    None => Value::Unit,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(env, file, b),
            Stmt::Pragma { stmt, .. } => {
                // Directive semantics reduce to sequential execution; the
                // governed statement runs normally (reductions, target
                // regions and parallel loops are all order-insensitive in
                // the corpus).
                match stmt {
                    Some(s) => self.exec_stmt(env, file, s),
                    None => Ok(Flow::Normal),
                }
            }
        }
    }

    // -- expressions -----------------------------------------------------------

    pub(crate) fn eval(&mut self, env: &Env, file: u32, e: &Expr) -> ExecResult<Value> {
        self.record(file, e.line);
        match &e.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Real(v) => Ok(Value::Real(*v)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Char(c) => Ok(Value::Int(*c as i64)),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Path(p) => self.eval_path(env, p, e.line),
            ExprKind::Unary { op, expr, postfix } => self.eval_unary(env, file, op, expr, *postfix),
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit logic first.
                match *op {
                    "&&" => {
                        let l = self.eval(env, file, lhs)?;
                        if !l.truthy() {
                            return Ok(Value::Bool(false));
                        }
                        return Ok(Value::Bool(self.eval(env, file, rhs)?.truthy()));
                    }
                    "||" => {
                        let l = self.eval(env, file, lhs)?;
                        if l.truthy() {
                            return Ok(Value::Bool(true));
                        }
                        return Ok(Value::Bool(self.eval(env, file, rhs)?.truthy()));
                    }
                    _ => {}
                }
                let l = self.eval(env, file, lhs)?;
                let r = self.eval(env, file, rhs)?;
                binary_op(op, &l, &r, e.line)
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let rv = self.eval(env, file, rhs)?;
                let place = self.eval_place(env, file, lhs)?;
                let new = if *op == "=" {
                    rv
                } else {
                    let cur = place.get(e.line)?;
                    let base = op.trim_end_matches('=');
                    binary_op(base, &cur, &rv, e.line)?
                };
                place.set(new.clone(), e.line)?;
                Ok(new)
            }
            ExprKind::Ternary { cond, then_e, else_e } => {
                if self.eval(env, file, cond)?.truthy() {
                    self.eval(env, file, then_e)
                } else {
                    self.eval(env, file, else_e)
                }
            }
            ExprKind::Call { callee, targs, args } => {
                self.eval_call(env, file, callee, targs, args, e.line)
            }
            ExprKind::KernelLaunch { callee, grid, block, args } => {
                self.eval_kernel_launch(env, file, callee, grid, block, args, e.line)
            }
            ExprKind::Index { base, index } => {
                let place = self.index_place(env, file, base, index, e.line)?;
                place.get(e.line)
            }
            ExprKind::Member { base, member, .. } => {
                let b = self.eval(env, file, base)?;
                self.member_get(&b, member, e.line)
            }
            ExprKind::Lambda { params, body, .. } => {
                let c = Closure {
                    params: params
                        .iter()
                        .map(|p| (p.name.clone(), matches!(p.ty, Type::Ref(_))))
                        .collect(),
                    body: Arc::clone(body),
                    env: env.clone(),
                    file,
                };
                Ok(Value::Closure(Rc::new(c)))
            }
            ExprKind::Cast { ty, expr } => {
                let v = self.eval(env, file, expr)?;
                Ok(coerce_decl(ty, v))
            }
            ExprKind::Construct { ty, args, .. } => {
                self.eval_construct(env, file, ty, args, e.line)
            }
            ExprKind::InitList(items) => {
                let vals: ExecResult<Vec<Value>> =
                    items.iter().map(|i| self.eval(env, file, i)).collect();
                Ok(Value::Array(Rc::new(RefCell::new(vals?))))
            }
        }
    }

    fn eval_path(&mut self, env: &Env, p: &[String], line: u32) -> ExecResult<Value> {
        if p.len() == 1 {
            if let Some(slot) = env.lookup(&p[0]) {
                return Ok(slot.borrow().clone());
            }
            if self.fns.contains_key(&p[0]) {
                return Ok(Value::FnRef(p[0].clone()));
            }
        }
        intrinsics::path_value(p)
            .ok_or_else(|| ExecError::new(format!("undefined name {}", p.join("::")), line))
    }

    fn eval_unary(
        &mut self,
        env: &Env,
        file: u32,
        op: &str,
        expr: &Expr,
        _postfix: bool,
    ) -> ExecResult<Value> {
        match op {
            "++" | "--" => {
                let place = self.eval_place(env, file, expr)?;
                let cur = place.get(expr.line)?;
                let one = Value::Int(1);
                let next = binary_op(if op == "++" { "+" } else { "-" }, &cur, &one, expr.line)?;
                place.set(next.clone(), expr.line)?;
                // Both pre/post forms appear only as statements or loop
                // steps in the corpus, so the value distinction is moot.
                Ok(next)
            }
            "&" => self.eval(env, file, expr), // arrays/objects are handles already
            "*" => self.eval(env, file, expr),
            "-" => {
                let v = self.eval(env, file, expr)?;
                match v {
                    Value::Int(i) => Ok(Value::Int(-i)),
                    Value::Real(r) => Ok(Value::Real(-r)),
                    other => Err(ExecError::new(format!("cannot negate {other:?}"), expr.line)),
                }
            }
            "!" => {
                let v = self.eval(env, file, expr)?;
                Ok(Value::Bool(!v.truthy()))
            }
            "+" => self.eval(env, file, expr),
            "~" => {
                let v = self.eval(env, file, expr)?;
                Ok(Value::Int(!v.as_int().unwrap_or(0)))
            }
            other => Err(ExecError::new(format!("unsupported unary {other}"), expr.line)),
        }
    }

    fn eval_place(&mut self, env: &Env, file: u32, e: &Expr) -> ExecResult<Place> {
        match &e.kind {
            ExprKind::Path(p) if p.len() == 1 => {
                if let Some(slot) = env.lookup(&p[0]) {
                    Ok(Place::Slot(slot))
                } else {
                    // Auto-declare at global scope is an error; be strict.
                    Err(ExecError::new(format!("undefined variable {}", p[0]), e.line))
                }
            }
            ExprKind::Index { base, index } => self.index_place(env, file, base, index, e.line),
            ExprKind::Member { base, member, .. } => {
                let b = self.eval(env, file, base)?;
                match b {
                    Value::Object(o) => Ok(Place::Field(o, member.clone())),
                    other => Err(ExecError::new(
                        format!("cannot assign member {member} of {other:?}"),
                        e.line,
                    )),
                }
            }
            ExprKind::Unary { op: "*", expr, .. } => self.eval_place(env, file, expr),
            // Kokkos view / accessor call-syntax element access: `a(i) = v`.
            ExprKind::Call { callee, args, .. } if args.len() == 1 => {
                let recv = self.eval(env, file, callee)?;
                let arr = recv
                    .array()
                    .ok_or_else(|| ExecError::new("expression is not assignable", e.line))?;
                let idx = self
                    .eval(env, file, &args[0])?
                    .as_int()
                    .ok_or_else(|| ExecError::new("element index must be integral", e.line))?;
                Ok(Place::Elem(arr, idx as usize))
            }
            _ => Err(ExecError::new("expression is not assignable", e.line)),
        }
    }

    fn index_place(
        &mut self,
        env: &Env,
        file: u32,
        base: &Expr,
        index: &Expr,
        line: u32,
    ) -> ExecResult<Place> {
        let b = self.eval(env, file, base)?;
        let idx = self
            .eval(env, file, index)?
            .as_int()
            .ok_or_else(|| ExecError::new("index is not an integer", line))?;
        let arr = b.array().ok_or_else(|| ExecError::new(format!("cannot index {b:?}"), line))?;
        Ok(Place::Elem(arr, idx as usize))
    }

    fn member_get(&mut self, base: &Value, member: &str, line: u32) -> ExecResult<Value> {
        match base {
            Value::Object(o) => o
                .borrow()
                .get(member)
                .map(|s| s.borrow().clone())
                .ok_or_else(|| ExecError::new(format!("no field {member}"), line)),
            Value::Native(Native::Dim3 { x }) if member == "x" => Ok(Value::Int(*x)),
            Value::Array(a) if member == "size" => Ok(Value::Int(a.borrow().len() as i64)),
            other => Err(ExecError::new(format!("no member {member} on {other:?}"), line)),
        }
    }

    fn eval_call(
        &mut self,
        env: &Env,
        file: u32,
        callee: &Expr,
        targs: &[Type],
        args: &[Expr],
        line: u32,
    ) -> ExecResult<Value> {
        // Special forms that need unevaluated arguments (out-params etc.).
        if let ExprKind::Path(p) = &callee.kind {
            if let Some(v) = intrinsics::special_form(self, env, file, p, targs, args, line)? {
                return Ok(v);
            }
        }

        // Member calls: model-object dispatch.
        if let ExprKind::Member { base, member, .. } = &callee.kind {
            let recv = self.eval(env, file, base)?;
            let argv: ExecResult<Vec<Value>> =
                args.iter().map(|a| self.eval(env, file, a)).collect();
            let argv = argv?;
            return intrinsics::member_call(self, &recv, member, argv, line, env, file, args);
        }

        // Free calls.
        let argv: ExecResult<Vec<Value>> = args.iter().map(|a| self.eval(env, file, a)).collect();
        let argv = argv?;
        match &callee.kind {
            ExprKind::Path(p) => {
                if p.len() == 1 {
                    // Local callable value (closure / view / accessor call syntax)?
                    if let Some(slot) = env.lookup(&p[0]) {
                        let v = slot.borrow().clone();
                        match v {
                            Value::Closure(c) => {
                                let slots = self.arg_slots(env, args);
                                return self.call_closure(&c, &argv, &slots);
                            }
                            Value::Native(
                                Native::View(a) | Native::Accessor(a) | Native::Buffer(a),
                            ) => {
                                // Kokkos view(i) element read.
                                let idx = argv
                                    .first()
                                    .and_then(Value::as_int)
                                    .ok_or_else(|| ExecError::new("view index", line))?;
                                return Place::Elem(a, idx as usize).get(line);
                            }
                            Value::FnRef(name) => return self.call_named(&name, argv, line),
                            _ => {}
                        }
                    }
                    if let Some(f) = self.fns.get(&p[0]).cloned() {
                        return self.call_function(&f, argv);
                    }
                }
                // `Type(args)` construction is syntactically a call; try the
                // intrinsic functions first, then constructor dispatch.
                match intrinsics::free_call(self, p, targs, &argv, line) {
                    Err(e) if e.message.starts_with("unknown function") => {
                        let ty = Type::Named { path: p.to_vec(), args: targs.to_vec() };
                        self.construct_value(&ty, argv, line)
                    }
                    other => other,
                }
            }
            _ => {
                let f = self.eval(env, file, callee)?;
                match f {
                    Value::Closure(c) => {
                        let slots = self.arg_slots(env, args);
                        self.call_closure(&c, &argv, &slots)
                    }
                    Value::FnRef(name) => self.call_named(&name, argv, line),
                    other => Err(ExecError::new(format!("cannot call {other:?}"), line)),
                }
            }
        }
    }

    /// Slots of simple-path arguments (for by-reference parameters).
    pub(crate) fn arg_slots(&self, env: &Env, args: &[Expr]) -> Vec<Option<Slot>> {
        args.iter()
            .map(|a| match &a.kind {
                ExprKind::Path(p) if p.len() == 1 => env.lookup(&p[0]),
                _ => None,
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_kernel_launch(
        &mut self,
        env: &Env,
        file: u32,
        callee: &Expr,
        grid: &Expr,
        block: &Expr,
        args: &[Expr],
        line: u32,
    ) -> ExecResult<Value> {
        let g = self
            .eval(env, file, grid)?
            .as_int()
            .ok_or_else(|| ExecError::new("grid dim must be integral", line))?;
        let b = self
            .eval(env, file, block)?
            .as_int()
            .ok_or_else(|| ExecError::new("block dim must be integral", line))?;
        let ExprKind::Path(p) = &callee.kind else {
            return Err(ExecError::new("kernel launch target must be a name", line));
        };
        let f = self
            .fns
            .get(&p[0])
            .cloned()
            .ok_or_else(|| ExecError::new(format!("undefined kernel {}", p[0]), line))?;
        let argv: ExecResult<Vec<Value>> = args.iter().map(|a| self.eval(env, file, a)).collect();
        let argv = argv?;
        let Some(body) = &f.body else {
            return Err(ExecError::new(format!("kernel {} has no body", f.name), line));
        };
        self.nested(line, |it| {
            for tid in 0..(g * b) {
                it.tick(line)?;
                let kenv = it.globals.child();
                kenv.declare("threadIdx", Value::Native(Native::Dim3 { x: tid % b }));
                kenv.declare("blockIdx", Value::Native(Native::Dim3 { x: tid / b }));
                kenv.declare("blockDim", Value::Native(Native::Dim3 { x: b }));
                kenv.declare("gridDim", Value::Native(Native::Dim3 { x: g }));
                for (prm, a) in f.params.iter().zip(argv.iter()) {
                    kenv.declare(&prm.name, a.clone());
                }
                it.exec_block(&kenv, f.file.0, body)?;
            }
            Ok(Value::Unit)
        })
    }

    fn eval_construct(
        &mut self,
        env: &Env,
        file: u32,
        ty: &Type,
        args: &[Expr],
        line: u32,
    ) -> ExecResult<Value> {
        let argv: ExecResult<Vec<Value>> = args.iter().map(|a| self.eval(env, file, a)).collect();
        self.construct_value(ty, argv?, line)
    }

    /// Construct a value of `ty` from evaluated arguments (user struct or
    /// library type).
    pub(crate) fn construct_value(
        &mut self,
        ty: &Type,
        argv: Vec<Value>,
        line: u32,
    ) -> ExecResult<Value> {
        if let Type::Named { path, .. } = ty {
            if path.len() == 1 {
                if let Some(sd) = self.structs.get(&path[0]).cloned() {
                    let mut fields = HashMap::new();
                    for (i, fld) in sd.fields.iter().enumerate() {
                        let v = argv.get(i).cloned().unwrap_or_else(|| default_value(&fld.ty));
                        fields.insert(fld.name.clone(), Rc::new(RefCell::new(v)));
                    }
                    return Ok(Value::Object(Rc::new(RefCell::new(fields))));
                }
            }
        }
        intrinsics::construct(ty, argv, line)
    }
}

/// Default value for a declared type.
pub(crate) fn default_value(ty: &Type) -> Value {
    match ty.decayed() {
        Type::Int | Type::Long | Type::Size | Type::Char => Value::Int(0),
        Type::Float | Type::Double => Value::Real(0.0),
        Type::Bool => Value::Bool(false),
        _ => Value::Unit,
    }
}

/// Coerce a value to a declared type (C-style conversions).
pub(crate) fn coerce_decl(ty: &Type, v: Value) -> Value {
    match ty.decayed() {
        Type::Int | Type::Long | Type::Size => match v.as_int() {
            Some(i) => Value::Int(i),
            None => v,
        },
        Type::Float | Type::Double => match v {
            Value::Int(i) => Value::Real(i as f64),
            other => other,
        },
        Type::Bool => Value::Bool(v.truthy()),
        _ => v,
    }
}

/// Numeric binary operators.
pub(crate) fn binary_op(op: &str, l: &Value, r: &Value, line: u32) -> ExecResult<Value> {
    use Value::*;
    let both_int = matches!((l, r), (Int(_) | Bool(_), Int(_) | Bool(_)));
    let err = || ExecError::new(format!("invalid operands for {op}: {l:?}, {r:?}"), line);
    match op {
        "+" | "-" | "*" | "/" | "%" => {
            if both_int {
                let a = l.as_int().ok_or_else(err)?;
                let b = r.as_int().ok_or_else(err)?;
                let v = match op {
                    "+" => a.wrapping_add(b),
                    "-" => a.wrapping_sub(b),
                    "*" => a.wrapping_mul(b),
                    "/" => {
                        if b == 0 {
                            return Err(ExecError::new("integer division by zero", line));
                        }
                        a / b
                    }
                    _ => {
                        if b == 0 {
                            return Err(ExecError::new("integer modulo by zero", line));
                        }
                        a % b
                    }
                };
                Ok(Int(v))
            } else {
                let a = l.as_real().ok_or_else(err)?;
                let b = r.as_real().ok_or_else(err)?;
                let v = match op {
                    "+" => a + b,
                    "-" => a - b,
                    "*" => a * b,
                    "/" => a / b,
                    _ => a % b,
                };
                Ok(Real(v))
            }
        }
        "<<" | ">>" | "&" | "|" | "^" => {
            let a = l.as_int().ok_or_else(err)?;
            let b = r.as_int().ok_or_else(err)?;
            let v = match op {
                "<<" => a.wrapping_shl(b as u32),
                ">>" => a.wrapping_shr(b as u32),
                "&" => a & b,
                "|" => a | b,
                _ => a ^ b,
            };
            Ok(Int(v))
        }
        "==" | "!=" | "<" | ">" | "<=" | ">=" => {
            let a = l.as_real().ok_or_else(err)?;
            let b = r.as_real().ok_or_else(err)?;
            let v = match op {
                "==" => a == b,
                "!=" => a != b,
                "<" => a < b,
                ">" => a > b,
                "<=" => a <= b,
                _ => a >= b,
            };
            Ok(Bool(v))
        }
        other => Err(ExecError::new(format!("unsupported operator {other}"), line)),
    }
}
