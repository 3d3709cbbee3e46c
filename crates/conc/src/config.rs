//! Concurrent configurations: shared memory plus one stack per thread.

use std::hash::{Hash, Hasher};

use kiss_exec::{Frame, Memory, Module, ThreadEnv, TwoLaneHasher};

/// A concurrent configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConcConfig {
    /// Globals and heap, shared by all threads.
    pub mem: Memory,
    /// One call stack per thread, bottom frame first; the vector index
    /// is the thread id (main = 0). An empty stack is a finished
    /// thread.
    pub threads: Vec<Vec<Frame>>,
}

impl ConcConfig {
    /// The initial configuration: thread 0 entering `main`.
    pub fn initial(module: &Module) -> ConcConfig {
        ConcConfig {
            mem: Memory::initial(&module.program),
            threads: vec![vec![Frame::enter(module, module.program.main, &[], None)]],
        }
    }

    /// Whether every thread has terminated.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(Vec::is_empty)
    }

    /// Thread `tid` as the acting thread of a [`ThreadEnv`], the context
    /// [`kiss_exec::step::step`] executes in.
    pub fn thread<'a>(&'a mut self, module: &'a Module, tid: usize) -> ThreadEnv<'a> {
        ThreadEnv::new(module, &mut self.mem, &mut self.threads, tid)
    }

    /// The 128-bit key the explorer records this configuration under
    /// in its [`VisitedTable`](kiss_exec::store::VisitedTable), in one
    /// [`TwoLaneHasher`] pass: the memory's digest ([`Memory::digest`]),
    /// then every thread's stack, each frame as its function, pc,
    /// destination and locals digest, then `extra` — the scheduler
    /// state the exploration mode restricts on, which is part of the
    /// search node. The cost follows the frames, not the memory.
    pub fn fingerprint(&self, extra: &impl Hash) -> (u64, u64) {
        let mut h = TwoLaneHasher::new();
        self.mem.digest().hash(&mut h);
        h.write_usize(self.threads.len());
        for stack in &self.threads {
            h.write_usize(stack.len());
            for frame in stack {
                frame.func.hash(&mut h);
                h.write_usize(frame.pc);
                frame.dest.hash(&mut h);
                frame.digest().hash(&mut h);
            }
        }
        extra.hash(&mut h);
        h.finish_pair()
    }

    /// In builds with debug assertions, panics unless the memory's and
    /// every frame's digest equal their from-scratch recomputation. The
    /// explorer calls it at each state it records.
    #[inline]
    pub fn debug_assert_digests(&self) {
        self.mem.debug_assert_digest();
        self.threads.iter().flatten().for_each(Frame::debug_assert_digest);
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
    fn initial_has_single_main_thread() {
        let m = module("int g; void main() { g = 1; }");
        let mut c = ConcConfig::initial(&m);
        assert_eq!(c.threads.len(), 1);
        assert!(!c.all_finished());
        assert_eq!(c.threads[0][0].func, m.program.main);
        c.threads[0].clear();
        assert!(c.all_finished());
    }

    #[test]
    fn fingerprint_mixes_extra_state() {
        let m = module("int g; void main() { g = 1; }");
        let c = ConcConfig::initial(&m);
        assert_ne!(c.fingerprint(&0u32), c.fingerprint(&1u32));
        assert_eq!(c.fingerprint(&7u32), c.clone().fingerprint(&7u32));
        assert_ne!(c.fingerprint(&()), c.fingerprint(&(None::<u32>, 0u32)));
        assert_ne!(c.fingerprint(&(Some(0u32), 1u32)), c.fingerprint(&(Some(1u32), 0u32)));
    }
}
