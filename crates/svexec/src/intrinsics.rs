//! Built-in functions and programming-model runtimes.
//!
//! Each heterogeneous model's library surface is implemented here with
//! sequential semantics: CUDA/HIP memory + launch APIs, SYCL queues,
//! buffers, accessors and USM, Kokkos views and parallel patterns, TBB
//! functional loops, C++17 parallel algorithms, OpenMP runtime queries,
//! plus libc/libm basics (`malloc`, `printf`, math).  This is what lets the
//! corpus mini-apps *actually run* and verify in every model — the built-in
//! verification the paper's artefact description requires ("Each mini-app
//! contains built-in verification for correctness").

use crate::interp::{binary_op, ExecError, ExecResult, Interp};
use crate::value::{ArrayRef, Env, Native, Value};
use std::cell::RefCell;
use std::rc::Rc;
use svlang::ast::{Expr, ExprKind, Type};

fn new_array(n: usize) -> ArrayRef {
    Rc::new(RefCell::new(vec![Value::Real(0.0); n]))
}

fn int_arg(args: &[Value], i: usize, line: u32) -> ExecResult<i64> {
    args.get(i)
        .and_then(Value::as_int)
        .ok_or_else(|| ExecError::new(format!("argument {i} must be integral"), line))
}

fn real_arg(args: &[Value], i: usize, line: u32) -> ExecResult<f64> {
    args.get(i)
        .and_then(Value::as_real)
        .ok_or_else(|| ExecError::new(format!("argument {i} must be numeric"), line))
}

/// Size of a dialect type in bytes (for `sizeof` / malloc arithmetic).
fn size_of(ty: &Type) -> i64 {
    match ty.decayed() {
        Type::Char | Type::Bool => 1,
        Type::Int | Type::Float => 4,
        _ => 8,
    }
}

/// Values reachable as bare qualified names.
pub fn path_value(p: &[String]) -> Option<Value> {
    let joined = p.join("::");
    match joined.as_str() {
        "std::execution::par" => Some(Value::Native(Native::ExecPolicy("par"))),
        "std::execution::par_unseq" => Some(Value::Native(Native::ExecPolicy("par_unseq"))),
        "std::execution::seq" => Some(Value::Native(Native::ExecPolicy("seq"))),
        "sycl::gpu_selector_v" | "sycl::default_selector_v" | "sycl::cpu_selector_v" => {
            Some(Value::Native(Native::Device))
        }
        "M_PI" => Some(Value::Real(std::f64::consts::PI)),
        _ => None,
    }
}

/// Dig through `&x` / casts to find the target variable of an out-param.
fn out_param_slot(env: &Env, e: &Expr) -> Option<crate::value::Slot> {
    match &e.kind {
        ExprKind::Unary { op: "&", expr, .. } => out_param_slot(env, expr),
        ExprKind::Cast { expr, .. } => out_param_slot(env, expr),
        ExprKind::Path(p) if p.len() == 1 => env.lookup(&p[0]),
        _ => None,
    }
}

/// Special forms that need raw argument expressions (out-parameters or
/// reduction targets).  Returns `Ok(None)` when the call is not special.
pub fn special_form(
    it: &mut Interp,
    env: &Env,
    file: u32,
    path: &[String],
    targs: &[Type],
    args: &[Expr],
    line: u32,
) -> ExecResult<Option<Value>> {
    let joined = path.join("::");
    match joined.as_str() {
        // cudaMalloc((void**)&d_a, bytes) / hipMalloc(&d_a, bytes)
        "cudaMalloc" | "hipMalloc" => {
            let slot = out_param_slot(env, &args[0])
                .ok_or_else(|| ExecError::new("cudaMalloc needs &pointer", line))?;
            let bytes = it
                .eval(env, file, &args[1])?
                .as_int()
                .ok_or_else(|| ExecError::new("bad byte count", line))?;
            *slot.borrow_mut() = Value::Array(new_array((bytes / 8) as usize));
            Ok(Some(Value::Int(0)))
        }
        // Kokkos::parallel_reduce(n, lambda(i, &acc), target)
        "Kokkos::parallel_reduce" => {
            let n = range_extent(&it.eval(env, file, &args[0])?, line)?;
            let Value::Closure(c) = it.eval(env, file, &args[1])? else {
                return Err(ExecError::new("parallel_reduce needs a lambda", line));
            };
            let acc = Rc::new(RefCell::new(Value::Real(0.0)));
            for i in 0..n {
                it.call_closure(
                    &c,
                    &[Value::Int(i), Value::Real(0.0)],
                    &[None, Some(acc.clone())],
                )?;
            }
            let result = acc.borrow().clone();
            if let Some(target) = args.get(2).and_then(|a| out_param_slot(env, a)) {
                *target.borrow_mut() = result.clone();
            }
            Ok(Some(result))
        }
        // HIP device-query out-params.
        "hipGetDeviceCount" | "cudaGetDeviceCount" => {
            if let Some(slot) = out_param_slot(env, &args[0]) {
                *slot.borrow_mut() = Value::Int(1);
            }
            Ok(Some(Value::Int(0)))
        }
        "hipGetDevice" | "cudaGetDevice" => {
            if let Some(slot) = out_param_slot(env, &args[0]) {
                *slot.borrow_mut() = Value::Int(0);
            }
            Ok(Some(Value::Int(0)))
        }
        // sizeof comes through the parser as a call with a type argument.
        "sizeof" => {
            if let Some(t) = targs.first() {
                Ok(Some(Value::Int(size_of(t))))
            } else {
                let v = it.eval(env, file, &args[0])?;
                Ok(Some(Value::Int(match v {
                    Value::Real(_) => 8,
                    Value::Int(_) => 4,
                    _ => 8,
                })))
            }
        }
        _ => Ok(None),
    }
}

fn range_extent(v: &Value, line: u32) -> ExecResult<i64> {
    match v {
        Value::Int(n) => Ok(*n),
        Value::Native(Native::Range(n)) => Ok(*n),
        other => Err(ExecError::new(format!("not an iteration range: {other:?}"), line)),
    }
}

/// Apply a "binary functor" value: `std::plus` (`FnRef("+")`), a closure,
/// or a named function.
fn apply_functor(it: &mut Interp, f: &Value, a: Value, b: Value, line: u32) -> ExecResult<Value> {
    match f {
        Value::FnRef(op) if op.len() <= 2 => binary_op(op, &a, &b, line),
        Value::FnRef(name) => it.call_named(name, vec![a, b], line),
        Value::Closure(c) => it.call_closure(c, &[a, b], &[]),
        other => Err(ExecError::new(format!("not a functor: {other:?}"), line)),
    }
}

fn call_unary(it: &mut Interp, f: &Value, a: Value, line: u32) -> ExecResult<Value> {
    match f {
        Value::Closure(c) => it.call_closure(c, &[a], &[]),
        Value::FnRef(name) => it.call_named(name, vec![a], line),
        other => Err(ExecError::new(format!("not callable: {other:?}"), line)),
    }
}

/// Free-function intrinsics with evaluated arguments.
pub fn free_call(
    it: &mut Interp,
    path: &[String],
    _targs: &[Type],
    args: &[Value],
    line: u32,
) -> ExecResult<Value> {
    let joined = path.join("::");
    let last = path.last().map(String::as_str).unwrap_or("");
    match (joined.as_str(), last) {
        // ---- math -------------------------------------------------------
        (_, "sqrt") => Ok(Value::Real(real_arg(args, 0, line)?.sqrt())),
        (_, "fabs" | "abs") => match &args[0] {
            Value::Int(v) => Ok(Value::Int(v.abs())),
            other => Ok(Value::Real(
                other.as_real().ok_or_else(|| ExecError::new("abs arg", line))?.abs(),
            )),
        },
        (_, "sin") => Ok(Value::Real(real_arg(args, 0, line)?.sin())),
        (_, "cos") => Ok(Value::Real(real_arg(args, 0, line)?.cos())),
        (_, "exp") => Ok(Value::Real(real_arg(args, 0, line)?.exp())),
        (_, "log") => Ok(Value::Real(real_arg(args, 0, line)?.ln())),
        (_, "tanh") => Ok(Value::Real(real_arg(args, 0, line)?.tanh())),
        (_, "floor") => Ok(Value::Real(real_arg(args, 0, line)?.floor())),
        (_, "ceil") => Ok(Value::Real(real_arg(args, 0, line)?.ceil())),
        (_, "pow") => Ok(Value::Real(real_arg(args, 0, line)?.powf(real_arg(args, 1, line)?))),
        (_, "fmin") => Ok(Value::Real(real_arg(args, 0, line)?.min(real_arg(args, 1, line)?))),
        (_, "fmax") => Ok(Value::Real(real_arg(args, 0, line)?.max(real_arg(args, 1, line)?))),
        (_, "min") => {
            if let (Value::Int(a), Value::Int(b)) = (&args[0], &args[1]) {
                Ok(Value::Int(*a.min(b)))
            } else {
                Ok(Value::Real(real_arg(args, 0, line)?.min(real_arg(args, 1, line)?)))
            }
        }
        (_, "max") => {
            if let (Value::Int(a), Value::Int(b)) = (&args[0], &args[1]) {
                Ok(Value::Int(*a.max(b)))
            } else {
                Ok(Value::Real(real_arg(args, 0, line)?.max(real_arg(args, 1, line)?)))
            }
        }

        // ---- libc -------------------------------------------------------
        (_, "printf") => {
            let Value::Str(fmt) = &args[0] else {
                return Err(ExecError::new("printf needs a format string", line));
            };
            let text = format_printf(fmt, &args[1..], line)?;
            it.output.push_str(&text);
            Ok(Value::Int(text.len() as i64))
        }
        ("malloc", _) | ("std::malloc", _) => {
            let bytes = int_arg(args, 0, line)?;
            Ok(Value::Array(new_array((bytes / 8) as usize)))
        }
        ("free", _) | ("std::free", _) => Ok(Value::Unit),
        (_, "exit") => Err(ExecError::new("program called exit()", line)),

        // ---- OpenMP runtime ----------------------------------------------
        ("omp_get_wtime", _) => {
            it.time += 1.0e-6;
            Ok(Value::Real(it.time))
        }
        ("omp_get_max_threads", _) | ("omp_get_num_threads", _) => Ok(Value::Int(1)),
        ("omp_get_thread_num", _) => Ok(Value::Int(0)),
        ("omp_set_num_threads", _) => Ok(Value::Unit),

        // ---- CUDA / HIP ---------------------------------------------------
        ("cudaMemcpy", _) | ("hipMemcpy", _) => {
            let dst = args[0].array().ok_or_else(|| ExecError::new("memcpy dst", line))?;
            let src = args[1].array().ok_or_else(|| ExecError::new("memcpy src", line))?;
            let n = (int_arg(args, 2, line)? / 8) as usize;
            let srcv = src.borrow();
            let mut dstv = dst.borrow_mut();
            for i in 0..n.min(srcv.len()).min(dstv.len()) {
                dstv[i] = srcv[i].clone();
            }
            Ok(Value::Int(0))
        }
        ("cudaFree", _)
        | ("hipFree", _)
        | ("cudaDeviceSynchronize", _)
        | ("hipDeviceSynchronize", _)
        | ("hipSetDevice", _)
        | ("cudaSetDevice", _)
        | ("hipDeviceReset", _) => Ok(Value::Int(0)),

        // ---- SYCL USM ------------------------------------------------------
        ("sycl::malloc_shared", _) | ("sycl::malloc_device", _) | ("sycl::malloc_host", _) => {
            let n = int_arg(args, 0, line)?;
            Ok(Value::Array(new_array(n as usize)))
        }
        ("sycl::free", _) => Ok(Value::Unit),

        // ---- Kokkos ---------------------------------------------------------
        ("Kokkos::initialize", _) | ("Kokkos::finalize", _) | ("Kokkos::fence", _) => {
            Ok(Value::Unit)
        }
        ("Kokkos::parallel_for", _) => {
            let n = range_extent(&args[0], line)?;
            let f = args[1].clone();
            for i in 0..n {
                call_unary(it, &f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }

        // ---- TBB ---------------------------------------------------------------
        ("tbb::parallel_for", _) => {
            let lo = int_arg(args, 0, line)?;
            let hi = int_arg(args, 1, line)?;
            let f = args[2].clone();
            for i in lo..hi {
                call_unary(it, &f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        ("tbb::parallel_reduce", _) => {
            // tbb::parallel_reduce(lo, hi, init, body(i, acc))
            let lo = int_arg(args, 0, line)?;
            let hi = int_arg(args, 1, line)?;
            let mut acc = args[2].clone();
            let f = args[3].clone();
            for i in lo..hi {
                acc = apply_functor(it, &f, Value::Int(i), acc, line)?;
            }
            Ok(acc)
        }

        // ---- C++17 parallel algorithms (StdPar) -------------------------------
        ("std::for_each_n", _) => {
            // (policy, first_index, n, fn)
            let start = int_arg(args, 1, line)?;
            let n = int_arg(args, 2, line)?;
            let f = args[3].clone();
            for i in start..start + n {
                call_unary(it, &f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        ("std::for_each", _) => {
            // (policy, lo, hi, fn) over counting indices
            let lo = int_arg(args, 1, line)?;
            let hi = int_arg(args, 2, line)?;
            let f = args[3].clone();
            for i in lo..hi {
                call_unary(it, &f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        ("std::transform_reduce", _) => {
            // (policy, lo, hi, init, reduce, transform) over counting indices
            let lo = int_arg(args, 1, line)?;
            let hi = int_arg(args, 2, line)?;
            let mut acc = args[3].clone();
            let red = args[4].clone();
            let tr = args[5].clone();
            for i in lo..hi {
                let t = call_unary(it, &tr, Value::Int(i), line)?;
                acc = apply_functor(it, &red, acc, t, line)?;
            }
            Ok(acc)
        }

        _ => Err(ExecError::new(format!("unknown function {joined}"), line)),
    }
}

/// Method calls on model objects.
#[allow(clippy::too_many_arguments)]
pub fn member_call(
    it: &mut Interp,
    recv: &Value,
    member: &str,
    args: Vec<Value>,
    line: u32,
    _env: &Env,
    _file: u32,
    _arg_exprs: &[Expr],
) -> ExecResult<Value> {
    match (recv, member) {
        // SYCL queue
        (Value::Native(Native::Queue), "submit") => {
            let Value::Closure(c) = &args[0] else {
                return Err(ExecError::new("submit needs a command group lambda", line));
            };
            it.call_closure(c, &[Value::Native(Native::Handler)], &[])
        }
        (Value::Native(Native::Queue | Native::Handler), "parallel_for") => {
            let n = range_extent(&args[0], line)?;
            let f = args
                .get(1)
                .cloned()
                .ok_or_else(|| ExecError::new("parallel_for needs a kernel", line))?;
            for i in 0..n {
                call_unary(it, &f, Value::Int(i), line)?;
            }
            Ok(Value::Unit)
        }
        (Value::Native(Native::Queue | Native::Handler), "single_task") => {
            let Value::Closure(c) = &args[0] else {
                return Err(ExecError::new("single_task needs a lambda", line));
            };
            it.call_closure(c, &[], &[])
        }
        (Value::Native(Native::Queue), "wait" | "wait_and_throw") => Ok(Value::Unit),
        (Value::Native(Native::Queue), "memcpy") => {
            let dst = args[0].array().ok_or_else(|| ExecError::new("memcpy dst", line))?;
            let src = args[1].array().ok_or_else(|| ExecError::new("memcpy src", line))?;
            let n = (int_arg(&args, 2, line)? / 8) as usize;
            let srcv = src.borrow();
            let mut dstv = dst.borrow_mut();
            for i in 0..n.min(srcv.len()).min(dstv.len()) {
                dstv[i] = srcv[i].clone();
            }
            Ok(Value::Unit)
        }
        (Value::Native(Native::Queue), "get_device") => Ok(Value::Native(Native::Device)),
        // SYCL buffer
        (Value::Native(Native::Buffer(a)), "get_access") => {
            Ok(Value::Native(Native::Accessor(a.clone())))
        }
        // Arrays
        (Value::Array(a), "size") => Ok(Value::Int(a.borrow().len() as i64)),
        (recv, m) => Err(ExecError::new(format!("no method {m} on {recv:?}"), line)),
    }
}

/// Constructor dispatch for library types.
pub fn construct(ty: &Type, args: Vec<Value>, line: u32) -> ExecResult<Value> {
    let Type::Named { path, .. } = ty.decayed() else {
        // Scalar "constructor" = cast: double(n)
        return Ok(crate::interp::coerce_decl(ty, args.into_iter().next().unwrap_or(Value::Unit)));
    };
    let joined = path.join("::");
    match joined.as_str() {
        "sycl::queue" => Ok(Value::Native(Native::Queue)),
        "sycl::device" | "sycl::gpu_selector" | "sycl::default_selector" => {
            Ok(Value::Native(Native::Device))
        }
        "sycl::range" | "sycl::nd_range" => {
            let n = args
                .first()
                .and_then(Value::as_int)
                .ok_or_else(|| ExecError::new("range extent", line))?;
            Ok(Value::Native(Native::Range(n)))
        }
        "sycl::buffer" => {
            // buffer(host_array, n) shares the host payload; buffer(n)
            // allocates fresh.
            if let Some(a) = args.first().and_then(Value::array) {
                Ok(Value::Native(Native::Buffer(a)))
            } else {
                let n = args
                    .first()
                    .and_then(Value::as_int)
                    .ok_or_else(|| ExecError::new("buffer size", line))?;
                Ok(Value::Native(Native::Buffer(new_array(n as usize))))
            }
        }
        "sycl::accessor" => {
            let a = args
                .first()
                .and_then(Value::array)
                .ok_or_else(|| ExecError::new("accessor needs a buffer", line))?;
            Ok(Value::Native(Native::Accessor(a)))
        }
        "Kokkos::View" => {
            // View("name", n)
            let n = args
                .iter()
                .find_map(Value::as_int)
                .ok_or_else(|| ExecError::new("view extent", line))?;
            Ok(Value::Native(Native::View(new_array(n as usize))))
        }
        "Kokkos::RangePolicy" => {
            let hi = args
                .last()
                .and_then(Value::as_int)
                .ok_or_else(|| ExecError::new("range policy", line))?;
            Ok(Value::Native(Native::Range(hi)))
        }
        "dim3" => {
            let x =
                args.first().and_then(Value::as_int).ok_or_else(|| ExecError::new("dim3", line))?;
            Ok(Value::Native(Native::Dim3 { x }))
        }
        "std::plus" => Ok(Value::FnRef("+".into())),
        "std::multiplies" => Ok(Value::FnRef("*".into())),
        other => Err(ExecError::new(format!("unknown type constructor {other}"), line)),
    }
}

/// Minimal printf: `%d %ld %f %g %e %s %c %%` plus `%.Nf` precision.
fn format_printf(fmt: &str, args: &[Value], line: u32) -> ExecResult<String> {
    let mut out = String::new();
    let mut chars = fmt.chars().peekable();
    let mut next = 0usize;
    let take = |next: &mut usize| -> ExecResult<Value> {
        let v = args
            .get(*next)
            .cloned()
            .ok_or_else(|| ExecError::new("printf: not enough arguments", line))?;
        *next += 1;
        Ok(v)
    };
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        // Parse flags/width/precision (only precision affects output here).
        let mut precision: Option<usize> = None;
        let mut spec = chars.next().ok_or_else(|| ExecError::new("dangling %", line))?;
        while spec.is_ascii_digit() || spec == '.' || spec == '-' || spec == '+' {
            if spec == '.' {
                let mut p = 0usize;
                while chars.peek().is_some_and(|c| c.is_ascii_digit()) {
                    p = p * 10 + chars.next().unwrap().to_digit(10).unwrap() as usize;
                }
                precision = Some(p);
            }
            spec = chars.next().ok_or_else(|| ExecError::new("dangling %", line))?;
        }
        // length modifiers
        while spec == 'l' || spec == 'z' || spec == 'h' {
            spec = chars.next().ok_or_else(|| ExecError::new("dangling %", line))?;
        }
        match spec {
            '%' => out.push('%'),
            'd' | 'i' | 'u' => {
                let v = take(&mut next)?;
                out.push_str(&v.as_int().unwrap_or(0).to_string());
            }
            'f' | 'F' => {
                let v = take(&mut next)?.as_real().unwrap_or(0.0);
                out.push_str(&format!("{:.*}", precision.unwrap_or(6), v));
            }
            'e' | 'E' => {
                let v = take(&mut next)?.as_real().unwrap_or(0.0);
                out.push_str(&format!("{:.*e}", precision.unwrap_or(6), v));
            }
            'g' | 'G' => {
                let v = take(&mut next)?.as_real().unwrap_or(0.0);
                out.push_str(&format!("{v}"));
            }
            's' => {
                let v = take(&mut next)?;
                match v {
                    Value::Str(s) => out.push_str(&s),
                    other => out.push_str(&format!("{other:?}")),
                }
            }
            'c' => {
                let v = take(&mut next)?.as_int().unwrap_or(0);
                out.push(v as u8 as char);
            }
            other => return Err(ExecError::new(format!("printf: bad spec %{other}"), line)),
        }
    }
    Ok(out)
}
