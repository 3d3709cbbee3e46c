//! Concurrent configurations: shared memory plus one stack per thread.

use std::hash::Hash;

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
    /// [`TwoLaneHasher`] pass: memory through its cached chunk digests
    /// ([`Memory::hash_cached`]), then every thread's stack, then
    /// `extra` — the scheduler state the exploration mode restricts
    /// on, which is part of the search node.
    pub fn fingerprint(&self, extra: &impl Hash) -> (u64, u64) {
        let mut h = TwoLaneHasher::new();
        self.mem.hash_cached(&mut h);
        self.threads.hash(&mut h);
        extra.hash(&mut h);
        h.finish_pair()
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
