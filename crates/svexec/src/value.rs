//! Runtime values and environments for the dialect interpreter.
//!
//! Values are dynamically typed; variables live in reference-counted cells
//! so that C++ references, lambda captures and array handles alias the way
//! the source expects.  "Library" objects of the programming models (SYCL
//! queues/buffers/accessors, Kokkos views, CUDA dim3…) are [`Native`]
//! values whose behaviour the intrinsics layer implements.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

/// A shared mutable slot (variable binding, array element store).
pub type Slot = Rc<RefCell<Value>>;

/// A shared array payload.
pub type ArrayRef = Rc<RefCell<Vec<Value>>>;

/// Runtime value.
#[derive(Clone)]
pub enum Value {
    Unit,
    Int(i64),
    Real(f64),
    Bool(bool),
    Str(String),
    /// Heap array (malloc/cudaMalloc/views/buffers all share this).
    Array(ArrayRef),
    /// A user-struct instance: named field slots.
    Object(Rc<RefCell<HashMap<String, Slot>>>),
    /// A lambda closure.
    Closure(Rc<Closure>),
    /// A named free function (function pointer).
    FnRef(String),
    /// Programming-model library object.
    Native(Native),
}

/// A lambda with its captured environment.
pub struct Closure {
    pub params: Vec<(String, bool)>, // (name, by_reference)
    /// The lambda's body, shared with the AST it was evaluated from.
    pub body: Arc<svlang::ast::Block>,
    pub env: Env,
    /// File the lambda's body lives in (for coverage).
    pub file: u32,
}

/// Library objects of the supported programming models.
#[derive(Clone)]
pub enum Native {
    /// SYCL queue / TBB arena / generic execution context.
    Queue,
    /// SYCL command-group handler.
    Handler,
    /// SYCL buffer over a host array.
    Buffer(ArrayRef),
    /// SYCL accessor into a buffer.
    Accessor(ArrayRef),
    /// sycl::range / Kokkos::RangePolicy — an iteration extent.
    Range(i64),
    /// Kokkos::View over an array.
    View(ArrayRef),
    /// CUDA dim3 / threadIdx-style coordinate.
    Dim3 { x: i64 },
    /// std::execution policy (par, par_unseq, seq).
    ExecPolicy(&'static str),
    /// A device handle (sycl::device, hipDevice…).
    Device,
}

impl Value {
    /// Numeric coercion to f64 (ints promote).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            Value::Bool(b) => Some(f64::from(*b)),
            _ => None,
        }
    }

    /// Integer view (reals truncate, as C casts do).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Real(v) => Some(*v as i64),
            Value::Bool(b) => Some(i64::from(*b)),
            Value::Native(Native::Dim3 { x }) => Some(*x),
            _ => None,
        }
    }

    /// Truthiness for conditions.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Real(v) => *v != 0.0,
            Value::Unit => false,
            _ => true,
        }
    }

    /// The array handle if this value wraps one (arrays, buffers,
    /// accessors, views all expose their payload).
    pub fn array(&self) -> Option<ArrayRef> {
        match self {
            Value::Array(a) => Some(a.clone()),
            Value::Native(Native::Buffer(a) | Native::Accessor(a) | Native::View(a)) => {
                Some(a.clone())
            }
            _ => None,
        }
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Array(a) => write!(f, "array[{}]", a.borrow().len()),
            Value::Object(_) => write!(f, "object"),
            Value::Closure(_) => write!(f, "closure"),
            Value::FnRef(n) => write!(f, "fn {n}"),
            Value::Native(n) => write!(f, "native {}", n.kind()),
        }
    }
}

impl Native {
    pub fn kind(&self) -> &'static str {
        match self {
            Native::Queue => "queue",
            Native::Handler => "handler",
            Native::Buffer(_) => "buffer",
            Native::Accessor(_) => "accessor",
            Native::Range(_) => "range",
            Native::View(_) => "view",
            Native::Dim3 { .. } => "dim3",
            Native::ExecPolicy(_) => "policy",
            Native::Device => "device",
        }
    }
}

/// A lexical environment: a chain of scopes with shared slots.
#[derive(Clone)]
pub struct Env {
    scopes: Rc<EnvNode>,
}

/// One scope.  Block scopes hold a handful of names, so they live in a
/// vector searched linearly rather than a hash map.  A name appears at most
/// once per scope: re-declaring it replaces the binding, as a map insert
/// would.
struct EnvNode {
    vars: RefCell<Vec<(String, Slot)>>,
    parent: Option<Rc<EnvNode>>,
}

impl EnvNode {
    fn get(&self, name: &str) -> Option<Slot> {
        self.vars.borrow().iter().find(|(n, _)| n == name).map(|(_, s)| s.clone())
    }

    fn insert(&self, name: &str, slot: Slot) {
        let mut vars = self.vars.borrow_mut();
        match vars.iter_mut().find(|(n, _)| n == name) {
            Some(entry) => entry.1 = slot,
            None => vars.push((name.to_string(), slot)),
        }
    }
}

impl Env {
    /// Fresh root environment.
    pub fn new() -> Env {
        Env { scopes: Rc::new(EnvNode { vars: RefCell::new(Vec::new()), parent: None }) }
    }

    /// A child environment whose lookups fall through to `self`.
    pub fn child(&self) -> Env {
        Env {
            scopes: Rc::new(EnvNode {
                vars: RefCell::new(Vec::new()),
                parent: Some(self.scopes.clone()),
            }),
        }
    }

    /// Declare (or shadow) a variable in the innermost scope.
    pub fn declare(&self, name: &str, v: Value) -> Slot {
        let slot = Rc::new(RefCell::new(v));
        self.scopes.insert(name, slot.clone());
        slot
    }

    /// Bind an existing slot (reference parameters, captured vars).
    pub fn bind(&self, name: &str, slot: Slot) {
        self.scopes.insert(name, slot);
    }

    /// Find a variable's slot anywhere up the chain.
    pub fn lookup(&self, name: &str) -> Option<Slot> {
        let mut cur = Some(&self.scopes);
        while let Some(node) = cur {
            if let Some(s) = node.get(name) {
                return Some(s);
            }
            cur = node.parent.as_ref();
        }
        None
    }
}

impl Default for Env {
    fn default() -> Self {
        Env::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).as_real(), Some(3.0));
        assert_eq!(Value::Real(2.7).as_int(), Some(2));
        assert_eq!(Value::Bool(true).as_real(), Some(1.0));
        assert!(Value::Str("x".into()).as_real().is_none());
        assert_eq!(Value::Native(Native::Dim3 { x: 5 }).as_int(), Some(5));
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Unit.truthy());
        assert!(Value::Str("".into()).truthy());
    }

    #[test]
    fn env_scoping_and_shadowing() {
        let root = Env::new();
        root.declare("x", Value::Int(1));
        let inner = root.child();
        assert_eq!(inner.lookup("x").unwrap().borrow().as_int(), Some(1));
        inner.declare("x", Value::Int(2));
        assert_eq!(inner.lookup("x").unwrap().borrow().as_int(), Some(2));
        assert_eq!(root.lookup("x").unwrap().borrow().as_int(), Some(1));
        assert!(root.lookup("missing").is_none());
    }

    #[test]
    fn slots_alias() {
        let root = Env::new();
        let slot = root.declare("a", Value::Int(10));
        let inner = root.child();
        inner.bind("alias", slot);
        *inner.lookup("alias").unwrap().borrow_mut() = Value::Int(99);
        assert_eq!(root.lookup("a").unwrap().borrow().as_int(), Some(99));
    }

    #[test]
    fn arrays_share_payload() {
        let arr: ArrayRef = Rc::new(RefCell::new(vec![Value::Real(0.0); 4]));
        let a = Value::Array(arr.clone());
        let buf = Value::Native(Native::Buffer(arr));
        a.array().unwrap().borrow_mut()[0] = Value::Real(42.0);
        assert_eq!(buf.array().unwrap().borrow()[0].as_real(), Some(42.0));
    }
}
