//! The sequential execution configuration: shared memory plus a single
//! call stack.

use std::hash::{Hash, Hasher};

use kiss_exec::{Addr, Env, ExecError, Memory, Module, Value};
use kiss_lang::hir::{FuncId, LocalId, Place, VarRef};

/// One stack frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Program counter into the function's lowered body.
    pub pc: usize,
    /// Local variable values (parameters first).
    pub locals: Vec<Value>,
    /// Where the caller wants the return value stored (resolved in the
    /// caller's frame after this one pops).
    pub dest: Option<Place>,
}

impl Frame {
    /// A frame entering `func` with the given arguments; remaining
    /// locals are defaulted per their declared types.
    pub fn enter(module: &Module, func: FuncId, args: &[Value], dest: Option<Place>) -> Frame {
        Frame { func, pc: 0, locals: entry_locals(module, func, args.iter().copied()), dest }
    }
}

/// The locals `func` starts with: `args` bind its leading locals (the
/// parameters), every other local starts at its type's default.
pub(crate) fn entry_locals(
    module: &Module,
    func: FuncId,
    args: impl ExactSizeIterator<Item = Value>,
) -> Vec<Value> {
    let defs = &module.program.func(func).locals;
    let bound = args.len().min(defs.len());
    let mut locals = Vec::with_capacity(defs.len());
    locals.extend(args.take(bound));
    locals.extend(defs[bound..].iter().map(|l| Value::default_for(l.ty.as_ref())));
    locals
}

/// The whole sequential state: memory plus the call stack.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Config {
    /// Globals and heap.
    pub mem: Memory,
    /// Call stack; the last frame is executing.
    pub stack: Vec<Frame>,
}

impl Config {
    /// The initial configuration: initialized globals, empty heap, one
    /// frame entering `main`.
    pub fn initial(module: &Module) -> Config {
        Config {
            mem: Memory::initial(&module.program),
            stack: vec![Frame::enter(module, module.program.main, &[], None)],
        }
    }

    /// A 128-bit fingerprint for visited-state hashing.
    ///
    /// Computed in a **single traversal** of the configuration: every
    /// hash write feeds two independently seeded multiply-rotate lanes.
    /// Fingerprinting happens once per recorded state on the engines'
    /// hot path — for driver harnesses the heap holds wide extension
    /// structs, so both the old scheme's double traversal and its
    /// SipHash lanes were measurable. Two 64-bit lanes with distinct
    /// odd multipliers and a splitmix64 finalizer keep the 128-bit
    /// collision behaviour (verified against the old double-pass
    /// scheme in the tests below) at a fraction of the cost.
    pub fn fingerprint(&self) -> (u64, u64) {
        let mut h = TwoLaneHasher::new();
        self.hash(&mut h);
        h.finish_pair()
    }

    /// The incremental half of a **split fingerprint**: hashes the
    /// whole configuration *except* the top frame's program counter.
    ///
    /// On a nondeterministic branch every alternative shares memory,
    /// stack and locals with its siblings and differs only in the top
    /// pc, so the BFS store hashes the common part once and derives
    /// each alternative's fingerprint with [`FpBase::with_pc`] — one
    /// traversal plus N O(1) finishes instead of N full traversals.
    ///
    /// Split fingerprints hash their writes in a different order than
    /// [`Config::fingerprint`], so the two schemes must not be mixed
    /// within one visited table.
    pub fn fingerprint_base(&self) -> FpBase {
        let mut h = TwoLaneHasher::new();
        // Memory goes in through the cached per-chunk digests: chunks
        // shared with sibling states were already digested once, so a
        // branch re-hashes only the chunks this path actually wrote.
        self.mem.globals.hash_cached(&mut h);
        self.mem.heap.hash_cached(&mut h);
        h.write_usize(self.stack.len());
        let top = self.stack.len().wrapping_sub(1);
        for (i, frame) in self.stack.iter().enumerate() {
            frame.func.hash(&mut h);
            if i != top {
                frame.pc.hash(&mut h);
            }
            frame.locals.hash(&mut h);
            frame.dest.hash(&mut h);
        }
        FpBase { h }
    }

    /// The top frame's program counter — the part a split fingerprint
    /// defers; panics on an empty stack (never fingerprinted).
    pub fn top_pc(&self) -> usize {
        self.stack.last().expect("fingerprinted config has a frame").pc
    }
}

/// A partially computed [`Config`] fingerprint: everything but the top
/// frame's pc is already mixed in. `Copy`, so deriving a sibling's
/// fingerprint copies two lane states and finishes.
#[derive(Clone, Copy)]
pub struct FpBase {
    h: TwoLaneHasher,
}

impl FpBase {
    /// Completes the fingerprint for the alternative whose top frame
    /// sits at `pc`.
    #[inline]
    pub fn with_pc(&self, pc: usize) -> (u64, u64) {
        let mut h = self.h;
        h.write_usize(pc);
        h.finish_pair()
    }
}

/// A 128-bit single-pass fingerprint of any hashable value, using the
/// same two-lane scheme as [`Config::fingerprint`]. The summary engine
/// keys its per-body visited tables on interprocedural `State`s rather
/// than `Config`s, and this saves it the historical double
/// `DefaultHasher` traversal.
pub fn fingerprint_of<T: Hash>(value: &T) -> (u64, u64) {
    let mut h = TwoLaneHasher::new();
    value.hash(&mut h);
    h.finish_pair()
}

/// One fingerprint lane: xor-multiply-rotate over 64-bit words with a
/// splitmix64 finalizer. Not cryptographic, but avalanche-tested mixing
/// is plenty for visited-state dedup where a collision needs to happen
/// on *both* independently parameterized lanes at once.
#[derive(Clone, Copy)]
struct Lane {
    state: u64,
    mult: u64,
}

impl Lane {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.state = (self.state.rotate_left(23) ^ v).wrapping_mul(self.mult);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // splitmix64 finalizer: full avalanche over the lane state.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A [`Hasher`] that feeds every write into two [`Lane`]s with
/// different seeds and multipliers, yielding a 128-bit result from one
/// traversal of the hashed value.
#[derive(Clone, Copy)]
struct TwoLaneHasher {
    lo: Lane,
    hi: Lane,
}

impl TwoLaneHasher {
    fn new() -> Self {
        TwoLaneHasher {
            // Seeds: pi fraction bits; multipliers: golden-ratio and
            // xxhash primes (both odd, so multiplication is invertible).
            lo: Lane { state: 0x243F_6A88_85A3_08D3, mult: 0x9E37_79B9_7F4A_7C15 },
            hi: Lane { state: 0x1319_8A2E_0370_7344, mult: 0xC2B2_AE3D_27D4_EB4F },
        }
    }

    #[inline]
    fn mix(&mut self, v: u64) {
        self.lo.mix(v);
        self.hi.mix(v);
    }

    fn finish_pair(&self) -> (u64, u64) {
        (self.lo.finish(), self.hi.finish())
    }
}

macro_rules! forward_write {
    ($($method:ident: $ty:ty),* $(,)?) => {
        $(
            #[inline]
            fn $method(&mut self, i: $ty) {
                self.mix(i as u64);
            }
        )*
    };
}

impl Hasher for TwoLaneHasher {
    fn finish(&self) -> u64 {
        self.lo.finish()
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut it = bytes.chunks_exact(8);
        for chunk in &mut it {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = it.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(tail));
        }
        // Length disambiguates "short write" from "padded-zero write".
        self.mix(bytes.len() as u64);
    }

    forward_write! {
        write_u8: u8, write_u16: u16, write_u32: u32, write_u64: u64,
        write_usize: usize,
        write_i8: i8, write_i16: i16, write_i32: i32, write_i64: i64,
        write_isize: isize,
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.mix(i as u64);
        self.mix((i >> 64) as u64);
    }

    #[inline]
    fn write_i128(&mut self, i: i128) {
        self.write_u128(i as u128);
    }
}

/// [`Env`] implementation: a module plus a mutable configuration.
pub struct SeqEnv<'a> {
    /// The lowered program.
    pub module: &'a Module,
    /// The configuration being stepped.
    pub config: &'a mut Config,
}

impl SeqEnv<'_> {
    fn top(&self) -> &Frame {
        self.config.stack.last().expect("empty stack")
    }

    fn top_mut(&mut self) -> &mut Frame {
        self.config.stack.last_mut().expect("empty stack")
    }
}

impl Env for SeqEnv<'_> {
    fn read_var(&self, v: VarRef) -> Value {
        match v {
            VarRef::Global(g) => self.config.mem.globals[g.0 as usize],
            VarRef::Local(LocalId(l)) => self.top().locals[l as usize],
        }
    }

    fn write_var(&mut self, v: VarRef, val: Value) {
        match v {
            VarRef::Global(g) => self.config.mem.globals[g.0 as usize] = val,
            VarRef::Local(LocalId(l)) => self.top_mut().locals[l as usize] = val,
        }
    }

    fn read_addr(&self, a: Addr) -> Result<Value, ExecError> {
        match a {
            Addr::Global(g) => Ok(self.config.mem.globals[g.0 as usize]),
            Addr::Heap { obj, field } => self
                .config
                .mem
                .heap
                .get(obj as usize)
                .and_then(|o| o.fields.get(field as usize))
                .copied()
                .ok_or(ExecError::BadField),
            Addr::Local { tid: _, frame, local } => self
                .config
                .stack
                .get(frame as usize)
                .and_then(|f| f.locals.get(local as usize))
                .copied()
                .ok_or(ExecError::DanglingLocal),
        }
    }

    fn write_addr(&mut self, a: Addr, val: Value) -> Result<(), ExecError> {
        match a {
            Addr::Global(g) => {
                self.config.mem.globals[g.0 as usize] = val;
                Ok(())
            }
            Addr::Heap { obj, field } => {
                let cell = self
                    .config
                    .mem
                    .heap
                    .get_mut(obj as usize)
                    .and_then(|o| o.fields.get_mut(field as usize))
                    .ok_or(ExecError::BadField)?;
                *cell = val;
                Ok(())
            }
            Addr::Local { tid: _, frame, local } => {
                let cell = self
                    .config
                    .stack
                    .get_mut(frame as usize)
                    .and_then(|f| f.locals.get_mut(local as usize))
                    .ok_or(ExecError::DanglingLocal)?;
                *cell = val;
                Ok(())
            }
        }
    }

    fn addr_of_var(&self, v: VarRef) -> Addr {
        match v {
            VarRef::Global(g) => Addr::Global(g),
            VarRef::Local(LocalId(l)) => Addr::Local {
                tid: 0,
                frame: (self.config.stack.len() - 1) as u32,
                local: l,
            },
        }
    }

    fn malloc(&mut self, sid: kiss_lang::hir::StructId) -> u32 {
        self.config.mem.malloc(&self.module.program, sid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    #[test]
    fn initial_config_enters_main() {
        let m = module("int g = 7; void main() { int x; bool b; skip; }");
        let c = Config::initial(&m);
        assert_eq!(c.stack.len(), 1);
        assert_eq!(c.stack[0].func, m.program.main);
        assert_eq!(c.stack[0].locals, vec![Value::Int(0), Value::Bool(false)]);
        assert_eq!(c.mem.globals, vec![Value::Int(7)]);
    }

    #[test]
    fn frame_enter_binds_args_then_defaults() {
        let m = module("void f(int a, bool b) { int c; skip; } void main() { f(1, true); }");
        let f = m.program.func_by_name("f").unwrap();
        let fr = Frame::enter(&m, f, &[Value::Int(9), Value::Bool(true)], None);
        assert_eq!(fr.locals, vec![Value::Int(9), Value::Bool(true), Value::Int(0)]);
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let m = module("int g; void main() { g = 1; }");
        let c1 = Config::initial(&m);
        let mut c2 = c1.clone();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        c2.mem.globals[0] = Value::Int(1);
        assert_ne!(c1.fingerprint(), c2.fingerprint());
        let mut c3 = c1.clone();
        c3.stack[0].pc = 1;
        assert_ne!(c1.fingerprint(), c3.fingerprint());
    }

    #[test]
    fn env_reads_and_writes_locals_and_globals() {
        let m = module("int g; void main() { int x; skip; }");
        let mut c = Config::initial(&m);
        let mut env = SeqEnv { module: &m, config: &mut c };
        env.write_var(VarRef::Global(kiss_lang::GlobalId(0)), Value::Int(5));
        env.write_var(VarRef::Local(LocalId(0)), Value::Int(6));
        assert_eq!(env.read_var(VarRef::Global(kiss_lang::GlobalId(0))), Value::Int(5));
        assert_eq!(env.read_var(VarRef::Local(LocalId(0))), Value::Int(6));
        // Address-of local points at the top frame.
        let a = env.addr_of_var(VarRef::Local(LocalId(0)));
        assert_eq!(env.read_addr(a), Ok(Value::Int(6)));
    }

    /// The historical fingerprint: two complete `DefaultHasher`
    /// traversals, the second seeded. Kept as the distribution oracle:
    /// any family of configurations the old scheme kept distinct, the
    /// new single-pass hasher must keep distinct too (no new
    /// collisions), and equal configurations must still fingerprint
    /// equally (guaranteed structurally — fingerprint is a pure
    /// function of the hashed writes).
    fn double_pass_fingerprint(c: &Config) -> (u64, u64) {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut h1);
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        0xDEAD_BEEFu64.hash(&mut h2);
        c.hash(&mut h2);
        (h1.finish(), h2.finish())
    }

    #[test]
    fn single_pass_fingerprint_is_deterministic_across_clones() {
        let m = module(
            "struct D { int x; int y; }
             int g; bool b;
             void f(int a) { int l; l = a; }
             void main() { int x; D *p; p = malloc(D); f(3); }",
        );
        let mut c = Config::initial(&m);
        // Equal configurations fingerprint equally at every mutation
        // step: globals, pc, extra frames, heap objects — every part of
        // the hashed structure.
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        c.mem.globals[0] = Value::Int(41);
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        c.stack[0].pc = 2;
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        let f = m.program.func_by_name("f").unwrap();
        c.stack.push(Frame::enter(&m, f, &[Value::Int(7)], None));
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
        let sid = kiss_lang::hir::StructId(0);
        c.mem.malloc(&m.program, sid);
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
    }

    #[test]
    fn fingerprint_distribution_matches_the_double_pass_scheme() {
        // A family of systematically distinct configurations spanning
        // globals, pc, stack depth, and heap contents. The old
        // double-pass scheme kept all of them distinct; the single-pass
        // hasher must introduce no new collisions.
        let m = module(
            "struct D { int x; int y; }
             int g; int h;
             void f(int a) { int l; l = a; }
             void main() { D *p; g = 1; h = 2; }",
        );
        let mut old_seen = std::collections::HashSet::new();
        let mut new_seen = std::collections::HashSet::new();
        let mut count = 0usize;
        for g in 0..40 {
            for h in 0..40 {
                for shape in 0..4 {
                    let mut c = Config::initial(&m);
                    c.mem.globals[0] = Value::Int(g);
                    c.mem.globals[1] = Value::Int(h);
                    match shape {
                        0 => {}
                        1 => c.stack[0].pc = 1,
                        2 => {
                            let f = m.program.func_by_name("f").unwrap();
                            c.stack.push(Frame::enter(&m, f, &[Value::Int(g)], None));
                        }
                        _ => {
                            let obj = c.mem.malloc(&m.program, kiss_lang::hir::StructId(0));
                            c.mem.heap[obj as usize].fields[0] = Value::Int(h);
                        }
                    }
                    old_seen.insert(double_pass_fingerprint(&c));
                    new_seen.insert(c.fingerprint());
                    count += 1;
                }
            }
        }
        // The old scheme kept every configuration distinct...
        assert_eq!(old_seen.len(), count);
        // ...and the new one must too: no new collisions.
        assert_eq!(new_seen.len(), count);
    }

    #[test]
    fn split_fingerprints_agree_with_a_direct_computation() {
        let m = module(
            "int g; void f(int a) { int l; l = a; } void main() { g = 1; g = 2; }",
        );
        let mut c = Config::initial(&m);
        c.mem.globals[0] = Value::Int(3);
        // Sibling alternatives: same base, different top pc. Each must
        // equal the split fingerprint computed from scratch on a config
        // that actually sits at that pc, and distinct pcs must yield
        // distinct fingerprints.
        let base = c.fingerprint_base();
        let mut seen = std::collections::HashSet::new();
        for pc in 0..3usize {
            let mut alt = c.clone();
            alt.stack[0].pc = pc;
            assert_eq!(base.with_pc(pc), alt.fingerprint_base().with_pc(alt.top_pc()));
            assert!(seen.insert(base.with_pc(pc)), "pc {pc} collided");
        }
        // The base is sensitive to everything below the top pc.
        let mut other = c.clone();
        other.mem.globals[0] = Value::Int(4);
        assert_ne!(base.with_pc(0), other.fingerprint_base().with_pc(0));
        let f = m.program.func_by_name("f").unwrap();
        let mut deeper = c.clone();
        deeper.stack.push(Frame::enter(&m, f, &[Value::Int(1)], None));
        assert_ne!(base.with_pc(0), deeper.fingerprint_base().with_pc(0));
    }

    #[test]
    fn fingerprint_of_matches_itself_and_separates_values() {
        assert_eq!(fingerprint_of(&(1u64, 2u64)), fingerprint_of(&(1u64, 2u64)));
        assert_ne!(fingerprint_of(&(1u64, 2u64)), fingerprint_of(&(2u64, 1u64)));
    }

    #[test]
    fn dangling_local_read_is_an_error() {
        let m = module("void main() { int x; skip; }");
        let mut c = Config::initial(&m);
        let mut env = SeqEnv { module: &m, config: &mut c };
        let bad = Addr::Local { tid: 0, frame: 7, local: 0 };
        assert_eq!(env.read_addr(bad), Err(ExecError::DanglingLocal));
        assert_eq!(env.write_addr(bad, Value::Int(1)), Err(ExecError::DanglingLocal));
    }
}
