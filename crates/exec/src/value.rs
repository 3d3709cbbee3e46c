//! Runtime values, addresses and memory.
//!
//! KISS-C is dynamically typed at execution time: the engines check at
//! each operation that operand shapes match, and report a runtime error
//! (distinct from an assertion failure) otherwise.

use std::hash::Hasher;

use kiss_lang::hir::{Const, FuncId, GlobalId, StructId};
use kiss_lang::Program;

use crate::cow::CowVec;

/// The address of a memory cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A global variable.
    Global(GlobalId),
    /// Field `field` of heap object `obj`.
    Heap {
        /// Heap object index.
        obj: u32,
        /// Field index within the object.
        field: u32,
    },
    /// A local variable slot on some thread's stack. Sequential engines
    /// use `tid == 0`.
    Local {
        /// Owning thread.
        tid: u32,
        /// Frame depth within that thread's stack (0 = bottom).
        frame: u32,
        /// Local slot index.
        local: u32,
    },
}

/// A runtime value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// Function reference.
    Fn(FuncId),
    /// Pointer.
    Ptr(Addr),
    /// Null pointer / null function reference / uninitialized cell.
    Null,
}

impl Value {
    /// Converts a compile-time constant to a value.
    pub fn from_const(c: Const) -> Value {
        match c {
            Const::Int(n) => Value::Int(n),
            Const::Bool(b) => Value::Bool(b),
            Const::Null => Value::Null,
            Const::Fn(f) => Value::Fn(f),
        }
    }

    /// The default value for a declared type: `0`, `false`, or null.
    pub fn default_for(ty: Option<&kiss_lang::hir::Type>) -> Value {
        match ty {
            Some(kiss_lang::hir::Type::Int) => Value::Int(0),
            Some(kiss_lang::hir::Type::Bool) => Value::Bool(false),
            _ => Value::Null,
        }
    }

    /// Truthiness as an atomic proposition: a nonzero int, `true`, or a
    /// non-null reference. Used by the LTL engine to judge bare-name
    /// atoms against global values.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Int(n) => *n != 0,
            Value::Bool(b) => *b,
            Value::Fn(_) | Value::Ptr(_) => true,
            Value::Null => false,
        }
    }

    /// The integer content, if the value is an int.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Fn(_) => "fn",
            Value::Ptr(_) => "pointer",
            Value::Null => "null",
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Fn(id) => write!(f, "{id}"),
            Value::Ptr(Addr::Global(g)) => write!(f, "&global#{}", g.0),
            Value::Ptr(Addr::Heap { obj, field }) => write!(f, "&heap#{obj}.{field}"),
            Value::Ptr(Addr::Local { tid, frame, local }) => {
                write!(f, "&local#{tid}.{frame}.{local}")
            }
            Value::Null => write!(f, "null"),
        }
    }
}

/// A heap-allocated struct instance.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HeapObj {
    /// The struct this object instantiates.
    pub struct_id: StructId,
    /// One value per field.
    pub fields: Vec<Value>,
}

/// Shared memory: globals plus the heap. Thread stacks live in the
/// engines' own configurations.
///
/// Both stores are [`CowVec`]s: cloning a `Memory` into a frontier or
/// branch alternative bumps per-chunk reference counts, and the first
/// write through [`CowVec::get_mut`] copies only the touched chunk.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Memory {
    /// One value per global.
    pub globals: CowVec<Value>,
    /// Allocated objects, in allocation order.
    pub heap: CowVec<HeapObj>,
}

impl Memory {
    /// Initial memory for a program: globals set to their initializers
    /// or type defaults, empty heap.
    pub fn initial(program: &Program) -> Memory {
        let globals = program
            .globals
            .iter()
            .map(|gd| match gd.init {
                Some(c) => Value::from_const(c),
                None => Value::default_for(gd.ty.as_ref()),
            })
            .collect();
        Memory { globals, heap: CowVec::new() }
    }

    /// Feeds globals and heap into `state` through their cached chunk
    /// digests ([`CowVec::hash_cached`]): a chunk shared with another
    /// state is hashed once, whichever state asks first. Equal memories
    /// feed equal streams, whatever their sharing history; the stream is
    /// not the derived `Hash` one, so a visited table must use one of
    /// the two throughout.
    pub fn hash_cached<H: Hasher>(&self, state: &mut H) {
        self.globals.hash_cached(state);
        self.heap.hash_cached(state);
    }

    /// Allocates a struct instance with all fields defaulted, returning
    /// the address of the object (field 0).
    pub fn malloc(&mut self, program: &Program, sid: StructId) -> u32 {
        let def = &program.structs[sid.0 as usize];
        let fields = def.fields.iter().map(|(_, ty)| Value::default_for(Some(ty))).collect();
        self.heap.push(HeapObj { struct_id: sid, fields });
        (self.heap.len() - 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    #[test]
    fn truthiness_and_int_views() {
        assert!(Value::Int(2).truthy() && Value::Int(-1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(Value::Bool(true).truthy() && !Value::Bool(false).truthy());
        assert!(!Value::Null.truthy());
        assert!(Value::Fn(kiss_lang::hir::FuncId(0)).truthy());
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Bool(true).as_int(), None);
        assert_eq!(Value::Null.as_int(), None);
    }

    #[test]
    fn from_const_round_trips() {
        assert_eq!(Value::from_const(Const::Int(7)), Value::Int(7));
        assert_eq!(Value::from_const(Const::Bool(true)), Value::Bool(true));
        assert_eq!(Value::from_const(Const::Null), Value::Null);
        assert_eq!(Value::from_const(Const::Fn(FuncId(2))), Value::Fn(FuncId(2)));
    }

    #[test]
    fn defaults_follow_declared_types() {
        use kiss_lang::hir::Type;
        assert_eq!(Value::default_for(Some(&Type::Int)), Value::Int(0));
        assert_eq!(Value::default_for(Some(&Type::Bool)), Value::Bool(false));
        assert_eq!(Value::default_for(Some(&Type::Fn)), Value::Null);
        assert_eq!(Value::default_for(None), Value::Null);
    }

    #[test]
    fn initial_memory_uses_initializers() {
        let p = parse_and_lower("int a = 5; bool b; int c; void main() { skip; }").unwrap();
        let mem = Memory::initial(&p);
        assert_eq!(mem.globals, vec![Value::Int(5), Value::Bool(false), Value::Int(0)]);
        assert!(mem.heap.is_empty());
    }

    #[test]
    fn malloc_defaults_fields_per_type() {
        let p = parse_and_lower("struct D { int x; bool b; fn f; } void main() { skip; }").unwrap();
        let mut mem = Memory::initial(&p);
        let obj = mem.malloc(&p, kiss_lang::StructId(0));
        assert_eq!(obj, 0);
        assert_eq!(mem.heap[0].fields, vec![Value::Int(0), Value::Bool(false), Value::Null]);
        let obj2 = mem.malloc(&p, kiss_lang::StructId(0));
        assert_eq!(obj2, 1);
    }

    #[test]
    fn value_display_is_informative() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Ptr(Addr::Heap { obj: 1, field: 2 }).to_string(), "&heap#1.2");
    }
}
