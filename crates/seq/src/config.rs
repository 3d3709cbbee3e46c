//! The sequential execution configuration: shared memory plus a single
//! call stack, and its fingerprint, the key the sequential engines
//! record it under in kiss-exec's
//! [`VisitedTable`](kiss_exec::store::VisitedTable).
//!
//! A fingerprint is 128 bits from one [`TwoLaneHasher`] traversal, the
//! hasher every engine shares. Memory goes in as the [`Digest`] it keeps
//! current on every write, and each frame as its function, pc,
//! destination and the digest of its locals, so recording a state costs
//! O(frames) whatever the size of memory. The top frame's pc goes in
//! last, so BFS can hash a branch's shared part once
//! ([`Config::fingerprint_base`]) and finish each alternative with its
//! pc.
//!
//! [`Digest`]: kiss_exec::Digest

use std::hash::{Hash, Hasher};

use kiss_exec::{Frame, Memory, Module, ThreadEnv, TwoLaneHasher, UndoLog};

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

    /// The stack as the acting thread (thread 0) of a [`ThreadEnv`], the
    /// context [`kiss_exec::step::step`] executes in.
    #[inline]
    pub fn thread<'a>(&'a mut self, module: &'a Module) -> ThreadEnv<'a> {
        ThreadEnv::new(module, &mut self.mem, std::slice::from_mut(&mut self.stack), 0)
    }

    /// Takes back every change `log` recorded since it had `len`
    /// entries; the top frame's pc is the caller's to set (see
    /// [`UndoLog::undo_to`]).
    pub fn undo_to(&mut self, log: &mut UndoLog, len: usize) {
        log.undo_to(len, &mut self.mem, std::slice::from_mut(&mut self.stack));
    }

    /// The 128-bit fingerprint every engine keys its visited table on:
    /// [`Config::fingerprint_base`] finished with the top frame's pc.
    ///
    /// A finished configuration (empty stack) has no top frame and
    /// finishes with a fixed pc instead; its stack length, hashed into
    /// the base, already separates it from every running one.
    pub fn fingerprint(&self) -> (u64, u64) {
        let pc = self.stack.last().map_or(usize::MAX, |frame| frame.pc);
        self.fingerprint_base().with_pc(pc)
    }

    /// Everything of the fingerprint but the top frame's pc, in one
    /// traversal: every hash write feeds two independently seeded
    /// multiply-rotate lanes. Memory and each frame's locals go in as
    /// their digests ([`Memory::digest`], [`Frame::digest`]), so the cost
    /// follows the stack depth, not the size of memory.
    ///
    /// On a nondeterministic branch every alternative differs from its
    /// siblings only in the top pc, so BFS hashes the base once and
    /// finishes each alternative with [`FpBase::with_pc`].
    pub fn fingerprint_base(&self) -> FpBase {
        let mut h = TwoLaneHasher::new();
        self.mem.digest().hash(&mut h);
        h.write_usize(self.stack.len());
        let top = self.stack.len().wrapping_sub(1);
        for (i, frame) in self.stack.iter().enumerate() {
            frame.func.hash(&mut h);
            if i != top {
                frame.pc.hash(&mut h);
            }
            frame.dest.hash(&mut h);
            frame.digest().hash(&mut h);
        }
        FpBase { h }
    }

    /// In builds with debug assertions, panics unless the memory's and
    /// every frame's digest equal their from-scratch recomputation.
    /// Every sequential engine calls it at each state it records.
    #[inline]
    pub fn debug_assert_digests(&self) {
        self.mem.debug_assert_digest();
        self.stack.iter().for_each(Frame::debug_assert_digest);
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

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_exec::Value;
    use kiss_lang::hir::GlobalId;
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
        assert_eq!(c.stack[0].locals(), [Value::Int(0), Value::Bool(false)]);
        assert_eq!(*c.mem.globals(), vec![Value::Int(7)]);
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let m = module("int g; void main() { g = 1; }");
        let c1 = Config::initial(&m);
        let mut c2 = c1.clone();
        assert_eq!(c1.fingerprint(), c2.fingerprint());
        c2.mem.set_global(GlobalId(0), Value::Int(1));
        assert_ne!(c1.fingerprint(), c2.fingerprint());
        let mut c3 = c1.clone();
        c3.stack[0].pc = 1;
        assert_ne!(c1.fingerprint(), c3.fingerprint());
    }

    /// The historical fingerprint: two complete `DefaultHasher`
    /// traversals of the derived `Hash`, the second seeded. Kept as the
    /// distribution oracle: any family of configurations the old scheme
    /// kept distinct, the incremental-digest fingerprint must keep distinct
    /// too (no new collisions).
    fn double_pass_fingerprint(c: &Config) -> (u64, u64) {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        c.hash(&mut h1);
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        0xDEAD_BEEFu64.hash(&mut h2);
        c.hash(&mut h2);
        (h1.finish(), h2.finish())
    }

    #[test]
    fn fingerprint_is_deterministic_across_clones() {
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
        c.mem.set_global(GlobalId(0), Value::Int(41));
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
        // double-pass scheme kept all of them distinct; the
        // incremental-digest fingerprint must introduce no new collisions.
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
                    c.mem.set_global(GlobalId(0), Value::Int(g));
                    c.mem.set_global(GlobalId(1), Value::Int(h));
                    match shape {
                        0 => {}
                        1 => c.stack[0].pc = 1,
                        2 => {
                            let f = m.program.func_by_name("f").unwrap();
                            c.stack.push(Frame::enter(&m, f, &[Value::Int(g)], None));
                        }
                        _ => {
                            let obj = c.mem.malloc(&m.program, kiss_lang::hir::StructId(0));
                            c.mem.set_field(obj, 0, Value::Int(h));
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
        c.mem.set_global(GlobalId(0), Value::Int(3));
        // Sibling alternatives: same base, different top pc. Each must
        // equal the split fingerprint computed from scratch on a config
        // that actually sits at that pc, and distinct pcs must yield
        // distinct fingerprints.
        let base = c.fingerprint_base();
        let mut seen = std::collections::HashSet::new();
        for pc in 0..3usize {
            let mut alt = c.clone();
            alt.stack[0].pc = pc;
            assert_eq!(base.with_pc(pc), alt.fingerprint());
            assert!(seen.insert(base.with_pc(pc)), "pc {pc} collided");
        }
        // The base is sensitive to everything below the top pc.
        let mut other = c.clone();
        other.mem.set_global(GlobalId(0), Value::Int(4));
        assert_ne!(base.with_pc(0), other.fingerprint_base().with_pc(0));
        let f = m.program.func_by_name("f").unwrap();
        let mut deeper = c.clone();
        deeper.stack.push(Frame::enter(&m, f, &[Value::Int(1)], None));
        assert_ne!(base.with_pc(0), deeper.fingerprint_base().with_pc(0));
    }

    #[test]
    fn finished_configs_fingerprint_apart_from_running_ones() {
        let m = module("int g; void main() { g = 1; }");
        let running = Config::initial(&m);
        let finished = Config { mem: running.mem.clone(), stack: Vec::new() };
        assert_eq!(finished.fingerprint(), finished.clone().fingerprint());
        assert_ne!(finished.fingerprint(), running.fingerprint());
    }

    #[test]
    fn fingerprints_depend_on_contents_not_write_history() {
        let m = module(
            "struct D { int x; int y; }
             int g; int h;
             void main() { D *p; p = malloc(D); }",
        );
        let build = || {
            let mut c = Config::initial(&m);
            c.mem.malloc(&m.program, kiss_lang::hir::StructId(0));
            c
        };
        let mut c = build();
        let before = c.fingerprint();
        c.mem.set_global(GlobalId(1), Value::Int(5));
        c.mem.set_field(0, 1, Value::Int(6));
        assert_ne!(c.fingerprint(), before, "writes must change the fingerprint");
        c.mem.set_global(GlobalId(1), Value::Int(0));
        c.mem.set_field(0, 1, Value::Int(0));
        assert_eq!(c.fingerprint(), before);
        assert_eq!(c.fingerprint(), build().fingerprint());
        assert_eq!(c.fingerprint(), c.clone().fingerprint());
    }
}
