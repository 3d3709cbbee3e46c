//! Exhaustive interleaving exploration.
//!
//! This is the "traditional model checker" of the paper's introduction:
//! it explores all reachable states of the concurrent program across
//! all thread interleavings, recording each whole configuration in
//! kiss-exec's [`VisitedTable`] — the store the sequential engines
//! use — under [`ConcConfig::fingerprint`]. Its state count grows
//! exponentially with the number of threads — the very blowup KISS
//! avoids — which the scalability benchmark measures.
//!
//! The explorer doubles as the ground truth for Theorem 1 via
//! [`ScheduleMode::Balanced`] (only stack-disciplined schedules), and
//! as the validator for back-mapped KISS traces via
//! [`ScheduleMode::Pattern`] (only schedules following a given
//! thread-id pattern).

use kiss_exec::step::{self, Fault, Step};
use kiss_exec::store::{StateCapExceeded, VisitedTable};
use kiss_exec::{ExecError, Instr, Module, TraceStep};
use kiss_lang::hir::{FuncId, Origin};
use kiss_lang::Span;

use crate::balanced::BalanceTracker;
use crate::config::ConcConfig;

/// Which schedules the explorer may follow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleMode {
    /// All interleavings.
    Free,
    /// Only balanced (stack-disciplined) schedules — the executions
    /// Theorem 1 says KISS covers with unbounded `ts`.
    Balanced,
    /// At most `k` context switches (context-bounded exploration, the
    /// research line this paper started).
    ContextBound(u32),
    /// Only schedules whose collapsed thread-id sequence follows the
    /// given pattern (consecutive duplicates in the execution collapse
    /// onto one pattern element).
    Pattern(Vec<u32>),
}

/// One transition in a concurrent trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcTraceStep {
    /// Acting thread.
    pub tid: u32,
    /// Function executing.
    pub func: FuncId,
    /// Program counter of the executed instruction.
    pub pc: usize,
    /// Source span.
    pub span: Span,
    /// Provenance.
    pub origin: Origin,
}

impl ConcTraceStep {
    fn new(tid: usize, at: TraceStep) -> Self {
        ConcTraceStep { tid: tid as u32, func: at.func, pc: at.pc, span: at.span, origin: at.origin }
    }
}

/// A concurrent error trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConcTrace {
    /// Executed transitions, in order.
    pub steps: Vec<ConcTraceStep>,
}

impl ConcTrace {
    /// The schedule string: one thread id per transition.
    pub fn schedule(&self) -> Vec<u32> {
        self.steps.iter().map(|s| s.tid).collect()
    }

    /// The collapsed schedule: consecutive duplicates removed (the
    /// pattern of context switches).
    pub fn collapsed_schedule(&self) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for s in &self.steps {
            if out.last() != Some(&s.tid) {
                out.push(s.tid);
            }
        }
        out
    }
}

/// Exploration outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum ConcVerdict {
    /// No reachable assertion failure (within the schedule mode).
    Pass,
    /// Assertion failure found.
    Fail(ConcTrace),
    /// Runtime error found.
    RuntimeError(ExecError, ConcTrace),
    /// Budget or thread limit exceeded.
    ResourceBound {
        /// Transitions applied when the budget tripped.
        steps: u64,
        /// Distinct states recorded when the budget tripped.
        states: usize,
    },
}

impl ConcVerdict {
    /// `true` for [`ConcVerdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, ConcVerdict::Fail(_))
    }

    /// `true` for [`ConcVerdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, ConcVerdict::Pass)
    }
}

/// Search statistics — the currency of the scalability experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConcStats {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions applied.
    pub transitions: u64,
    /// Executions that ended with at least one unfinished thread and no
    /// enabled transition.
    pub deadlocks: u64,
    /// Largest thread count observed.
    pub max_threads: usize,
}

/// The exhaustive explorer.
#[derive(Debug, Clone)]
pub struct Explorer<'a> {
    module: &'a Module,
    mode: ScheduleMode,
    max_steps: u64,
    max_states: usize,
    max_threads: usize,
    max_atomic_steps: u64,
}

/// Scheduler-side exploration state (part of the search node under
/// restricted modes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct SchedState {
    last_tid: Option<u32>,
    switches: u32,
    tracker: BalanceTracker,
    pattern_pos: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct Node {
    config: ConcConfig,
    sched: SchedState,
}

#[derive(Debug)]
enum Failure {
    Assert,
    Runtime(ExecError),
    Limit,
}

struct Succ {
    step: ConcTraceStep,
    outcome: Result<Node, Failure>,
}

impl<'a> Explorer<'a> {
    /// Creates an explorer with the default (free) schedule mode.
    pub fn new(module: &'a Module) -> Self {
        Explorer {
            module,
            mode: ScheduleMode::Free,
            max_steps: 20_000_000,
            max_states: 2_000_000,
            max_threads: 8,
            max_atomic_steps: 100_000,
        }
    }

    /// Sets the schedule mode.
    pub fn with_mode(mut self, mode: ScheduleMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets transition/state budgets.
    pub fn with_budget(mut self, max_steps: u64, max_states: usize) -> Self {
        self.max_steps = max_steps;
        self.max_states = max_states;
        self
    }

    /// Sets the maximum number of threads before the search gives up.
    pub fn with_max_threads(mut self, n: usize) -> Self {
        self.max_threads = n;
        self
    }

    /// Runs the exploration.
    pub fn check(&self) -> ConcVerdict {
        self.check_with_stats().0
    }

    /// Runs the exploration, also returning statistics.
    pub fn check_with_stats(&self) -> (ConcVerdict, ConcStats) {
        let mut stats = ConcStats::default();
        let mut visited = VisitedTable::new();
        let mut trace: Vec<ConcTraceStep> = Vec::new();
        let initial = Node { config: ConcConfig::initial(self.module), sched: SchedState::default() };
        let mut pending: Vec<(Node, usize, Option<ConcTraceStep>)> = vec![(initial, 0, None)];
        let bound = |stats: ConcStats, states| {
            (ConcVerdict::ResourceBound { steps: stats.transitions, states }, stats)
        };

        'outer: while let Some((mut node, tlen, step)) = pending.pop() {
            trace.truncate(tlen);
            if let Some(s) = step {
                trace.push(s);
            }
            loop {
                if stats.transitions > self.max_steps || visited.len() > self.max_states {
                    return bound(stats, visited.len());
                }
                match visited.insert(self.fingerprint(&node)) {
                    Ok((_, true)) => {}
                    Ok((_, false)) => continue 'outer,
                    Err(StateCapExceeded) => return bound(stats, visited.len()),
                }
                stats.states = visited.len();
                stats.max_threads = stats.max_threads.max(node.config.threads.len());

                let succs = self.successors(&node);
                stats.transitions += succs.len() as u64;
                // Report reachable failures before descending further.
                for s in &succs {
                    match &s.outcome {
                        Err(Failure::Assert) => {
                            let mut t = trace.clone();
                            t.push(s.step);
                            return (ConcVerdict::Fail(ConcTrace { steps: t }), stats);
                        }
                        Err(Failure::Runtime(e)) => {
                            let mut t = trace.clone();
                            t.push(s.step);
                            return (
                                ConcVerdict::RuntimeError(e.clone(), ConcTrace { steps: t }),
                                stats,
                            );
                        }
                        Err(Failure::Limit) => return bound(stats, visited.len()),
                        Ok(_) => {}
                    }
                }
                let mut ok_succs =
                    succs.into_iter().filter_map(|s| s.outcome.ok().map(|n| (s.step, n)));
                let Some((first_step, first_node)) = ok_succs.next() else {
                    if !node.config.all_finished() {
                        stats.deadlocks += 1;
                    }
                    continue 'outer;
                };
                let here = trace.len();
                for (s, n) in ok_succs {
                    pending.push((n, here, Some(s)));
                }
                trace.push(first_step);
                node = first_node;
            }
        }
        (ConcVerdict::Pass, stats)
    }

    /// The node's visited-table key: its configuration followed by
    /// only the scheduler fields the mode restricts on. The mode is
    /// fixed for a whole exploration, so it needs no tag of its own.
    fn fingerprint(&self, node: &Node) -> (u64, u64) {
        let (config, sched) = (&node.config, &node.sched);
        match &self.mode {
            ScheduleMode::Free => config.fingerprint(&()),
            ScheduleMode::Balanced => config.fingerprint(&sched.tracker),
            ScheduleMode::ContextBound(_) => config.fingerprint(&(sched.last_tid, sched.switches)),
            ScheduleMode::Pattern(_) => config.fingerprint(&(sched.last_tid, sched.pattern_pos)),
        }
    }

    /// Whether `tid` may act next under the schedule mode, returning
    /// the updated scheduler state if so.
    fn sched_step(&self, sched: &SchedState, tid: u32) -> Option<SchedState> {
        let mut next = sched.clone();
        if sched.last_tid != Some(tid) {
            if sched.last_tid.is_some() {
                next.switches += 1;
            }
            next.last_tid = Some(tid);
        }
        match &self.mode {
            ScheduleMode::Free => {}
            ScheduleMode::Balanced => {
                if !next.tracker.step(tid) {
                    return None;
                }
            }
            ScheduleMode::ContextBound(k) => {
                if next.switches > *k {
                    return None;
                }
            }
            ScheduleMode::Pattern(pattern) => {
                if sched.last_tid == Some(tid) {
                    // Continuing the current segment.
                } else if pattern.get(next.pattern_pos_after(sched)) == Some(&tid) {
                    next.pattern_pos = next.pattern_pos_after(sched);
                } else {
                    return None;
                }
            }
        }
        Some(next)
    }

    /// All one-transition successors of a node.
    fn successors(&self, node: &Node) -> Vec<Succ> {
        let mut out = Vec::new();
        for tid in 0..node.config.threads.len() {
            let Some(sched) = self.sched_step(&node.sched, tid as u32) else { continue };
            self.thread_successors(node, tid, &sched, &mut out);
        }
        out
    }

    fn thread_successors(&self, node: &Node, tid: usize, sched: &SchedState, out: &mut Vec<Succ>) {
        let Some((instr, at)) = step::current(self.module, &node.config.threads[tid]) else { return };
        let step = ConcTraceStep::new(tid, at);
        let mut push = |outcome| out.push(Succ { step, outcome });
        let mk = |config| Ok(Node { config, sched: sched.clone() });
        match instr {
            // A whole atomic block is one transition.
            Instr::AtomicBegin => {
                match self.atomic_outcomes(&node.config, tid) {
                    Ok(configs) => configs.into_iter().for_each(|config| push(mk(config))),
                    Err(f) => push(Err(f)),
                }
                return;
            }
            Instr::Async { .. } if node.config.threads.len() >= self.max_threads => {
                return push(Err(Failure::Limit));
            }
            _ => {}
        }
        let mut config = node.config.clone();
        match step::step(&mut config.thread(self.module, tid), instr) {
            Ok(Step::Continue | Step::Finished) => {
                self.fast_forward(&mut config, tid);
                push(mk(config));
            }
            Ok(Step::Pruned) => {} // blocked: no transition now
            Ok(Step::Spawn(frame)) => {
                let child = config.threads.len();
                config.threads.push(vec![frame]);
                self.fast_forward(&mut config, tid);
                self.fast_forward(&mut config, child);
                push(mk(config));
            }
            Ok(Step::Branch(targets)) => {
                let Some((&last, rest)) = targets.split_last() else { return };
                for &t in rest {
                    if let Some(c) = self.enter_branch(config.clone(), tid, t) {
                        push(mk(c));
                    }
                }
                if let Some(c) = self.enter_branch(config, tid, last) {
                    push(mk(c));
                }
            }
            Err(Fault::Assert) => push(Err(Failure::Assert)),
            Err(Fault::Exec(e)) => push(Err(Failure::Runtime(e))),
        }
    }

    /// Moves the thread onto branch `target`, or `None` when the branch
    /// begins with a presently false assume. Skipping it is sound:
    /// committing then waiting is equivalent to waiting then committing.
    fn enter_branch(&self, mut config: ConcConfig, tid: usize, target: usize) -> Option<ConcConfig> {
        config.threads[tid].last_mut().expect("nonempty").pc = target;
        if let Some((assume @ Instr::Assume(_), _)) = step::current(self.module, &config.threads[tid]) {
            if let Ok(Step::Pruned) = step::step(&mut config.thread(self.module, tid), assume) {
                return None;
            }
            // Only peeked: the assume stays the thread's next transition.
            config.threads[tid].last_mut().expect("nonempty").pc = target;
        }
        self.fast_forward(&mut config, tid);
        Some(config)
    }

    /// Slides the thread over unconditional jumps (silent, thread-local,
    /// deterministic — collapsing them shrinks the state space without
    /// changing reachability).
    fn fast_forward(&self, config: &mut ConcConfig, tid: usize) {
        while let Some((jump @ Instr::Jump(_), _)) = step::current(self.module, &config.threads[tid]) {
            let jumped = step::step(&mut config.thread(self.module, tid), jump);
            debug_assert_eq!(jumped, Ok(Step::Continue));
        }
    }

    /// Enumerates all complete executions of the atomic block a thread
    /// is about to enter. An execution that hits a false assume is
    /// discarded (the whole block retries later); if none complete, the
    /// thread is blocked and has no successor.
    fn atomic_outcomes(&self, config: &ConcConfig, tid: usize) -> Result<Vec<ConcConfig>, Failure> {
        let mut done = Vec::new();
        let mut steps: u64 = 0;
        let mut start = config.clone();
        start.threads[tid].last_mut().expect("nonempty").pc += 1; // past AtomicBegin
        let mut pending = vec![start];
        while let Some(mut cur) = pending.pop() {
            loop {
                steps += 1;
                if steps > self.max_atomic_steps {
                    return Err(Failure::Limit);
                }
                let (instr, _) =
                    step::current(self.module, &cur.threads[tid]).expect("a thread in a block has a frame");
                let end = matches!(instr, Instr::AtomicEnd);
                match step::step(&mut cur.thread(self.module, tid), instr) {
                    Ok(Step::Continue) if end => {
                        self.fast_forward(&mut cur, tid);
                        done.push(cur);
                        break;
                    }
                    Ok(Step::Continue) => {}
                    Ok(Step::Branch(targets)) => {
                        let Some((&first, rest)) = targets.split_first() else { break };
                        for &alt in rest {
                            let mut c = cur.clone();
                            c.threads[tid].last_mut().expect("nonempty").pc = alt;
                            pending.push(c);
                        }
                        cur.threads[tid].last_mut().expect("nonempty").pc = first;
                    }
                    Ok(Step::Pruned) => break, // this path retries later
                    // Well-formedness keeps `return` and `async` out of
                    // atomic blocks.
                    Ok(Step::Finished | Step::Spawn(_)) => {
                        return Err(Failure::Runtime(ExecError::AsyncInSequential))
                    }
                    Err(Fault::Assert) => return Err(Failure::Assert),
                    Err(Fault::Exec(e)) => return Err(Failure::Runtime(e)),
                }
            }
        }
        Ok(done)
    }
}

impl Explorer<'_> {
    /// Wraps a configuration in a schedule-state-free node (used by the
    /// dynamic checker, which imposes no schedule restriction).
    pub(crate) fn node_for(&self, config: ConcConfig) -> Node {
        Node { config, sched: SchedState::default() }
    }

    /// Successors as plain configurations; assertion failures and
    /// runtime errors map to `Err(())`, limit trips are dropped.
    pub(crate) fn successors_pub(
        &self,
        node: &Node,
    ) -> Vec<(ConcTraceStep, Result<ConcConfig, ()>)> {
        self.successors(node)
            .into_iter()
            .filter_map(|s| match s.outcome {
                Ok(n) => Some((s.step, Ok(n.config))),
                Err(Failure::Assert) | Err(Failure::Runtime(_)) => Some((s.step, Err(()))),
                Err(Failure::Limit) => None,
            })
            .collect()
    }
}

impl SchedState {
    /// Index the pattern would advance to when a new segment starts.
    fn pattern_pos_after(&self, prev: &SchedState) -> usize {
        if prev.last_tid.is_none() {
            0
        } else {
            prev.pattern_pos + 1
        }
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
    fn sequential_program_behaves_like_seq_engine() {
        let m = module("int g; void main() { g = 1; assert g == 1; }");
        assert!(Explorer::new(&m).check().is_pass());
        let m = module("int g; void main() { g = 1; assert g == 2; }");
        assert!(Explorer::new(&m).check().is_fail());
    }

    #[test]
    fn finds_interleaving_bug() {
        // Classic lost-update shape: the assert fails only if the forked
        // thread runs between the read and the write.
        let src = "
            int g;
            bool done;
            void other() { g = 5; done = true; }
            void main() {
                int tmp;
                async other();
                tmp = g;
                g = tmp + 1;
                if (done) { assert g == 1; }
            }
        ";
        let v = Explorer::new(&module(src)).check();
        assert!(v.is_fail(), "{v:?}");
    }

    #[test]
    fn no_bug_without_interference() {
        let src = "
            int g;
            void other() { skip; }
            void main() { async other(); g = g + 1; assert g == 1; }
        ";
        assert!(Explorer::new(&module(src)).check().is_pass());
    }

    #[test]
    fn trace_has_schedule_and_collapse() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let ConcVerdict::Fail(trace) = Explorer::new(&module(src)).check() else {
            panic!("expected failure")
        };
        let sched = trace.schedule();
        assert!(!sched.is_empty());
        let collapsed = trace.collapsed_schedule();
        assert!(collapsed.len() <= sched.len());
    }

    #[test]
    fn atomic_blocks_are_not_interleaved() {
        // Without atomicity the increment could be torn; with it the
        // assert holds in every interleaving.
        let src = "
            int g;
            void bump() { atomic { g = g + 1; } }
            void main() {
                async bump();
                atomic { g = g + 1; }
                assume g == 2;
                assert g == 2;
            }
        ";
        assert!(Explorer::new(&module(src)).check().is_pass());
    }

    #[test]
    fn torn_increment_without_atomic_is_found() {
        let src = "
            int g;
            bool bdone;
            void bump() { int t; t = g; g = t + 1; bdone = true; }
            void main() {
                int t;
                async bump();
                t = g;
                g = t + 1;
                if (bdone) { assert g == 2; }
            }
        ";
        let v = Explorer::new(&module(src)).check();
        assert!(v.is_fail(), "{v:?}");
    }

    #[test]
    fn lock_via_atomic_assume_blocks_thread() {
        // A spin lock built from atomic+assume, as the paper sketches.
        let src = "
            int lock;
            int g;
            void acquire() { atomic { assume lock == 0; lock = 1; } }
            void release() { atomic { lock = 0; } }
            void worker() {
                int t;
                acquire();
                t = g; g = t + 1;
                release();
            }
            void main() {
                int t;
                async worker();
                acquire();
                t = g; g = t + 1;
                release();
                assume lock == 0;
                assert g <= 2;
            }
        ";
        let v = Explorer::new(&module(src)).check();
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn mutual_exclusion_actually_protects() {
        // main's critical section cannot interleave with worker's, but
        // worker may not have run at the assert: guard checks wdone.
        let src_with_spawn = "
            int lock;
            int g;
            bool wdone;
            void worker() { atomic { assume lock == 0; lock = 1; } g = g + 1; atomic { lock = 0; } wdone = true; }
            void main() {
                async worker();
                atomic { assume lock == 0; lock = 1; }
                g = g + 1;
                atomic { lock = 0; }
                if (wdone) { assert g == 2; }
            }
        ";
        let v = Explorer::new(&module(src_with_spawn)).check();
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn balanced_mode_misses_ping_pong_bugs() {
        // The bug needs schedule 0,1,0,1 (threads alternating twice) —
        // not balanced, so Balanced mode must miss it while Free finds
        // it.
        let src = "
            int phase;
            void other() {
                assume phase == 1;
                phase = 2;
            }
            void main() {
                async other();
                phase = 1;
                assume phase == 2;
                assert false;
            }
        ";
        let m = module(src);
        assert!(Explorer::new(&m).check().is_fail());
        // Hmm: 0 runs (phase=1), 1 runs fully (phase=2), 0 resumes:
        // that IS balanced (one nested block). Use a stricter shape.
        let src = "
            int phase;
            void other() {
                assume phase == 1;
                phase = 2;
                assume phase == 3;
                phase = 4;
            }
            void main() {
                async other();
                phase = 1;
                assume phase == 2;
                phase = 3;
                assume phase == 4;
                assert false;
            }
        ";
        let m = module(src);
        assert!(Explorer::new(&m).check().is_fail(), "free mode finds the handshake bug");
        let v = Explorer::new(&m).with_mode(ScheduleMode::Balanced).check();
        assert!(v.is_pass(), "balanced mode cannot follow the 0-1-0-1 handshake: {v:?}");
    }

    #[test]
    fn context_bound_zero_is_sequential_until_main_ends() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let m = module(src);
        // With zero context switches the forked thread never runs
        // before main's assert.
        let v = Explorer::new(&m).with_mode(ScheduleMode::ContextBound(0)).check();
        assert!(v.is_pass(), "{v:?}");
        // The failing schedule is 0,1,0: two context switches (into the
        // forked thread and back).
        let v = Explorer::new(&m).with_mode(ScheduleMode::ContextBound(1)).check();
        assert!(v.is_pass(), "{v:?}");
        let v = Explorer::new(&m).with_mode(ScheduleMode::ContextBound(2)).check();
        assert!(v.is_fail(), "{v:?}");
    }

    #[test]
    fn pattern_mode_finds_error_only_on_matching_schedule() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let m = module(src);
        // Failure needs thread 1 to act between the fork and the
        // assert: pattern 0,1,0.
        let v = Explorer::new(&m).with_mode(ScheduleMode::Pattern(vec![0, 1, 0])).check();
        assert!(v.is_fail(), "{v:?}");
        // Pattern 0 only: no failure.
        let v = Explorer::new(&m).with_mode(ScheduleMode::Pattern(vec![0])).check();
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn thread_limit_reports_resource_bound() {
        let src = "
            void spin() { iter { skip; } }
            void main() { iter { async spin(); } }
        ";
        let v = Explorer::new(&module(src)).with_max_threads(3).check();
        assert!(matches!(v, ConcVerdict::ResourceBound { .. }), "{v:?}");
    }

    #[test]
    fn stats_grow_with_thread_count() {
        let mk = |n: usize| {
            let spawns: String = (0..n).map(|_| "async w();".to_string()).collect();
            format!(
                "int g; void w() {{ g = g + 1; }} void main() {{ {spawns} assert g >= 0; }}"
            )
        };
        let m1 = module(&mk(1));
        let m3 = module(&mk(3));
        let (_, s1) = Explorer::new(&m1).with_max_threads(8).check_with_stats();
        let (_, s3) = Explorer::new(&m3).with_max_threads(8).check_with_stats();
        assert!(s3.states > s1.states, "interleaving blowup: {s1:?} vs {s3:?}");
    }

    /// The historical fingerprint, kept as the distribution oracle: a
    /// `DefaultHasher` pass over the mode's scheduler fields, mixed into
    /// two more over the configuration's derived `Hash`. Any family of
    /// search nodes the old scheme kept distinct, the single-pass
    /// fingerprint must keep distinct too (no new collisions).
    fn double_pass_fingerprint(mode: &ScheduleMode, node: &Node) -> (u64, u64) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let sched = &node.sched;
        let mut h = DefaultHasher::new();
        match mode {
            ScheduleMode::Free => 0u8.hash(&mut h),
            ScheduleMode::Balanced => {
                1u8.hash(&mut h);
                sched.tracker.hash(&mut h);
            }
            ScheduleMode::ContextBound(_) => {
                2u8.hash(&mut h);
                sched.last_tid.hash(&mut h);
                sched.switches.hash(&mut h);
            }
            ScheduleMode::Pattern(_) => {
                3u8.hash(&mut h);
                sched.last_tid.hash(&mut h);
                sched.pattern_pos.hash(&mut h);
            }
        }
        let extra = h.finish();
        let mut h1 = DefaultHasher::new();
        extra.hash(&mut h1);
        node.config.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        (extra ^ 0xDEAD_BEEF).hash(&mut h2);
        node.config.hash(&mut h2);
        (h1.finish(), h2.finish())
    }

    #[test]
    fn fingerprint_distribution_matches_the_double_pass_scheme() {
        use kiss_exec::{Frame, Value};
        use std::collections::BTreeSet;
        let m = module(
            "int g; int h;
             void w(int a) { int l; l = a; g = l; }
             void main() { g = 1; h = 2; }",
        );
        let w = m.program.func_by_name("w").unwrap();
        // Configurations with one to three threads, spanning globals,
        // main's pc, and a last worker that is fresh, advanced or done.
        let mut configs = Vec::new();
        for threads in 1..=3 {
            for g in 0..12 {
                for pc in 0..3 {
                    for shape in 0..if threads == 1 { 1 } else { 3 } {
                        let mut c = ConcConfig::initial(&m);
                        c.mem.globals[0] = Value::Int(g);
                        c.threads[0][0].pc = pc;
                        for t in 1..threads {
                            c.threads.push(vec![Frame::enter(&m, w, &[Value::Int(t + g)], None)]);
                        }
                        let last = c.threads.last_mut().expect("main");
                        match shape {
                            1 => last[0].pc = 1,
                            2 => last.clear(),
                            _ => {}
                        }
                        configs.push(c);
                    }
                }
            }
        }
        // Every scheduler field each mode hashes, varied on its own.
        let tids = [None, Some(0), Some(1), Some(2)];
        let mut trackers: Vec<BalanceTracker> = Vec::new();
        for len in 0..=4u32 {
            for code in 0..3u32.pow(len) {
                let schedule: Vec<u32> = (0..len).map(|i| code / 3u32.pow(i) % 3).collect();
                let mut tracker = BalanceTracker::new();
                if schedule.iter().all(|&t| tracker.step(t)) && !trackers.contains(&tracker) {
                    trackers.push(tracker);
                }
            }
        }
        let scheds = |mode: &ScheduleMode| -> Vec<SchedState> {
            let base = SchedState::default();
            match mode {
                ScheduleMode::Free => vec![base],
                ScheduleMode::Balanced => trackers
                    .iter()
                    .map(|tracker| SchedState { tracker: tracker.clone(), ..base.clone() })
                    .collect(),
                ScheduleMode::ContextBound(_) => tids
                    .iter()
                    .flat_map(|&last_tid| {
                        (0..4).map(move |switches| SchedState {
                            last_tid,
                            switches,
                            ..Default::default()
                        })
                    })
                    .collect(),
                ScheduleMode::Pattern(_) => tids
                    .iter()
                    .flat_map(|&last_tid| {
                        (0..4).map(move |pattern_pos| SchedState {
                            last_tid,
                            pattern_pos,
                            ..Default::default()
                        })
                    })
                    .collect(),
            }
        };
        let modes = [
            ScheduleMode::Free,
            ScheduleMode::Balanced,
            ScheduleMode::ContextBound(3),
            ScheduleMode::Pattern(vec![0, 1, 2, 0]),
        ];
        for mode in modes {
            let explorer = Explorer::new(&m).with_mode(mode.clone());
            let mut old_seen = BTreeSet::new();
            let mut new_seen = BTreeSet::new();
            let mut count = 0;
            for sched in scheds(&mode) {
                for config in &configs {
                    let node = Node { config: config.clone(), sched: sched.clone() };
                    old_seen.insert(double_pass_fingerprint(&mode, &node));
                    new_seen.insert(explorer.fingerprint(&node));
                    count += 1;
                }
            }
            // The old scheme kept every node distinct, and the new one
            // must too.
            assert_eq!(old_seen.len(), count, "{mode:?}");
            assert_eq!(new_seen.len(), count, "{mode:?}: new collisions");
        }
        assert!(trackers.len() > 10, "{trackers:?}");
    }

    #[test]
    fn deadlock_is_counted_not_erroneous() {
        let src = "bool never; void main() { assume never; assert false; }";
        let (v, stats) = Explorer::new(&module(src)).check_with_stats();
        assert!(v.is_pass());
        assert_eq!(stats.deadlocks, 1);
    }
}

#[cfg(test)]
mod async_arg_tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    #[test]
    fn async_arguments_are_evaluated_at_fork_time() {
        // The forked thread must see the argument value from fork time
        // even though the global changes afterwards.
        let src = "
            struct D { int x; }
            int seen;
            void w(D *p) { seen = p->x; }
            void main() {
                D *a;
                D *b;
                a = malloc(D);
                b = malloc(D);
                a->x = 1;
                b->x = 2;
                async w(a);
                a = b;
                assume seen != 0;
                assert seen == 1;
            }
        ";
        let v = Explorer::new(&module(src)).check();
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn indirect_async_through_variable() {
        let src = "
            int g;
            void w() { g = 7; }
            void main() { fn f; f = w; async f(); assume g == 7; assert g == 7; }
        ";
        let v = Explorer::new(&module(src)).check();
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn three_way_interleaving_is_complete() {
        // Two writers with distinct values: the reader can observe
        // 0, 1 or 2 depending on the schedule; assert each is possible
        // by checking that claiming otherwise fails.
        for forbidden in [0, 1, 2] {
            let src = format!(
                "int g;
                 void w1() {{ g = 1; }}
                 void w2() {{ g = 2; }}
                 void main() {{ async w1(); async w2(); assert g != {forbidden}; }}"
            );
            let v = Explorer::new(&module(&src)).check();
            assert!(v.is_fail(), "value {forbidden} must be observable");
        }
    }
}
