//! Concurrent configurations: shared memory plus one stack per thread.

use std::hash::{Hash, Hasher};

use kiss_exec::{Frame, Memory, Module, ThreadEnv};

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

    /// A 128-bit fingerprint for visited-state hashing, mixed with an
    /// engine-supplied extra (scheduler restrictions are part of the
    /// exploration state).
    pub fn fingerprint(&self, extra: u64) -> (u64, u64) {
        let mut h1 = std::collections::hash_map::DefaultHasher::new();
        extra.hash(&mut h1);
        self.hash(&mut h1);
        let mut h2 = std::collections::hash_map::DefaultHasher::new();
        (extra ^ 0xDEAD_BEEF).hash(&mut h2);
        self.hash(&mut h2);
        (h1.finish(), h2.finish())
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
        assert_ne!(c.fingerprint(0), c.fingerprint(1));
        assert_eq!(c.fingerprint(7), c.fingerprint(7));
    }
}
