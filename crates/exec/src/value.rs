//! Runtime values, addresses and memory.
//!
//! KISS-C is dynamically typed at execution time: the engines check at
//! each operation that operand shapes match, and report a runtime error
//! (distinct from an assertion failure) otherwise.

use std::sync::Arc;

use kiss_lang::hir::{Const, FuncId, GlobalId, StructId};
use kiss_lang::Program;

use crate::digest::{Cell, Digest};

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

/// Shared memory: globals plus the heap, and a [`Digest`] of both.
/// Thread stacks live in the engines' own configurations.
///
/// Both stores sit behind an [`Arc`]: cloning a `Memory` into a
/// frontier slot bumps two reference counts, and the first write to a
/// shared store copies that store ([`Arc::make_mut`]). They are
/// read-only from outside: every write goes through
/// [`Memory::set_global`], [`Memory::set_field`] or [`Memory::malloc`],
/// which keep the digest current. The digest is a function of the
/// contents and is compared last, so equality, ordering and `Hash`
/// depend only on the contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Memory {
    globals: Arc<Vec<Value>>,
    heap: Arc<Vec<HeapObj>>,
    /// One term per global, heap field and heap-object header.
    digest: Digest,
}

impl Memory {
    /// Initial memory for a program: globals set to their initializers
    /// or type defaults, empty heap.
    pub fn initial(program: &Program) -> Memory {
        let mut mem = Memory::default();
        let globals = Arc::make_mut(&mut mem.globals);
        for (g, gd) in program.globals.iter().enumerate() {
            let value = match gd.init {
                Some(c) => Value::from_const(c),
                None => Value::default_for(gd.ty.as_ref()),
            };
            mem.digest.add(Cell::Global(g as u32), value);
            globals.push(value);
        }
        mem
    }

    /// One value per global.
    #[inline]
    pub fn globals(&self) -> &[Value] {
        &self.globals
    }

    /// Allocated objects, in allocation order.
    #[inline]
    pub fn heap(&self) -> &[HeapObj] {
        &self.heap
    }

    /// The digest of the current contents.
    #[inline]
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// Writes global `g`, returning the value it held.
    #[inline]
    pub fn set_global(&mut self, g: GlobalId, value: Value) -> Value {
        // Read first: a write of the value already there leaves a store
        // shared with a sibling state uncopied.
        let old = self.globals[g.0 as usize];
        if old != value {
            Arc::make_mut(&mut self.globals)[g.0 as usize] = value;
            self.digest.replace(Cell::Global(g.0), old, value);
        }
        old
    }

    /// Writes field `field` of object `obj`, returning the value it
    /// held; `None`, writing nothing, when there is no such field.
    #[inline]
    pub fn set_field(&mut self, obj: u32, field: u32, value: Value) -> Option<Value> {
        let old = *self.heap.get(obj as usize)?.fields.get(field as usize)?;
        if old != value {
            Arc::make_mut(&mut self.heap)[obj as usize].fields[field as usize] = value;
            self.digest.replace(Cell::Field(obj, field), old, value);
        }
        Some(old)
    }

    /// Allocates a struct instance with all fields defaulted, returning
    /// the address of the object (field 0).
    pub fn malloc(&mut self, program: &Program, sid: StructId) -> u32 {
        let def = &program.structs[sid.0 as usize];
        let obj = self.heap.len() as u32;
        let fields: Vec<Value> =
            def.fields.iter().map(|(_, ty)| Value::default_for(Some(ty))).collect();
        self.digest.add(Cell::Object(obj), sid);
        for (f, &value) in fields.iter().enumerate() {
            self.digest.add(Cell::Field(obj, f as u32), value);
        }
        Arc::make_mut(&mut self.heap).push(HeapObj { struct_id: sid, fields });
        obj
    }

    /// Frees the most recently allocated object: takes back a
    /// [`Memory::malloc`].
    pub(crate) fn free_last(&mut self) {
        let obj = Arc::make_mut(&mut self.heap).pop().expect("an allocated object");
        let id = self.heap.len() as u32;
        self.digest.remove(Cell::Object(id), obj.struct_id);
        for (f, &value) in obj.fields.iter().enumerate() {
            self.digest.remove(Cell::Field(id, f as u32), value);
        }
    }

    /// The digest recomputed from the contents alone, the oracle the
    /// incremental one is checked against.
    #[cfg(any(test, debug_assertions))]
    pub fn digest_from_scratch(&self) -> Digest {
        let mut digest = Digest::default();
        for (g, &value) in self.globals.iter().enumerate() {
            digest.add(Cell::Global(g as u32), value);
        }
        for (obj, o) in self.heap.iter().enumerate() {
            digest.add(Cell::Object(obj as u32), o.struct_id);
            for (f, &value) in o.fields.iter().enumerate() {
                digest.add(Cell::Field(obj as u32, f as u32), value);
            }
        }
        digest
    }

    /// In builds with debug assertions, panics unless the digest equals
    /// [`Memory::digest_from_scratch`]; every engine calls it at each
    /// state it records. Compiles to nothing otherwise.
    #[inline]
    pub fn debug_assert_digest(&self) {
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(self.digest, self.digest_from_scratch(), "memory digest out of date");
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
        assert_eq!(*mem.globals(), vec![Value::Int(5), Value::Bool(false), Value::Int(0)]);
        assert!(mem.heap().is_empty());
        assert_eq!(mem.digest(), mem.digest_from_scratch());
    }

    #[test]
    fn malloc_defaults_fields_per_type() {
        let p = parse_and_lower("struct D { int x; bool b; fn f; } void main() { skip; }").unwrap();
        let mut mem = Memory::initial(&p);
        let obj = mem.malloc(&p, kiss_lang::StructId(0));
        assert_eq!(obj, 0);
        assert_eq!(mem.heap()[0].fields, vec![Value::Int(0), Value::Bool(false), Value::Null]);
        let obj2 = mem.malloc(&p, kiss_lang::StructId(0));
        assert_eq!(obj2, 1);
        assert_eq!(mem.digest(), mem.digest_from_scratch());
    }

    #[test]
    fn setters_keep_the_digest_and_return_the_old_value() {
        let p = parse_and_lower("struct D { int x; } int a; int b; void main() { skip; }").unwrap();
        let fresh = Memory::initial(&p);
        let mut mem = fresh.clone();
        assert_eq!(mem.set_global(GlobalId(1), Value::Int(4)), Value::Int(0));
        let obj = mem.malloc(&p, StructId(0));
        assert_eq!(mem.set_field(obj, 0, Value::Int(7)), Some(Value::Int(0)));
        assert_eq!(mem.set_field(obj, 1, Value::Int(7)), None, "no such field");
        assert_eq!(mem.set_field(obj + 1, 0, Value::Int(7)), None, "no such object");
        assert_eq!(mem.digest(), mem.digest_from_scratch());
        assert_ne!(mem, fresh);
        // Taking every write back restores the digest and equality.
        mem.free_last();
        mem.set_global(GlobalId(1), Value::Int(0));
        assert_eq!(mem.digest(), fresh.digest());
        assert_eq!(mem, fresh);
        assert_eq!(mem.cmp(&fresh), std::cmp::Ordering::Equal);
    }

    #[test]
    fn clones_share_storage_until_written() {
        let p = parse_and_lower("struct D { int x; } int a; int b; void main() { skip; }").unwrap();
        let mut base = Memory::initial(&p);
        base.malloc(&p, StructId(0));
        let shares = |a: &Memory, b: &Memory| {
            (a.globals().as_ptr() == b.globals().as_ptr(), a.heap().as_ptr() == b.heap().as_ptr())
        };
        let mut mem = base.clone();
        assert_eq!(shares(&mem, &base), (true, true));
        // Writing the value a cell already holds copies nothing.
        mem.set_global(GlobalId(0), Value::Int(0));
        assert_eq!(shares(&mem, &base), (true, true));
        mem.set_global(GlobalId(0), Value::Int(3));
        assert_eq!(shares(&mem, &base), (false, true), "only the globals were copied");
        let mut other = base.clone();
        other.set_field(0, 0, Value::Int(5));
        assert_eq!(shares(&other, &base), (true, false), "only the heap was copied");
        let mut grown = base.clone();
        grown.malloc(&p, StructId(0));
        assert_eq!(shares(&grown, &base), (true, false));
        let mut shrunk = base.clone();
        shrunk.free_last();
        assert_eq!(shares(&shrunk, &base), (true, false));
        // The source of every clone reads as before.
        assert_eq!(base.globals(), [Value::Int(0), Value::Int(0)]);
        assert_eq!(base.heap().len(), 1);
        assert_eq!(base.heap()[0].fields, [Value::Int(0)]);
        for m in [&base, &mem, &other, &grown, &shrunk] {
            assert_eq!(m.digest(), m.digest_from_scratch());
        }
        assert_eq!((mem.globals()[0], other.heap()[0].fields[0]), (Value::Int(3), Value::Int(5)));
        assert_eq!((grown.heap().len(), shrunk.heap().len()), (2, 0));
    }

    #[test]
    fn value_display_is_informative() {
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::Ptr(Addr::Heap { obj: 1, field: 2 }).to_string(), "&heap#1.2");
    }
}
