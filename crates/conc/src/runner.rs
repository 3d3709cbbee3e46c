//! Single-execution random runner with instrumentation hooks.
//!
//! Dynamic race detectors (the paper's related-work §7: Eraser-style
//! locksets, happens-before via vector clocks) observe *one* execution
//! at a time. This module provides the shared machinery: a randomized
//! scheduler stepping the concurrent program, emitting an event stream
//! of memory accesses, lock operations, forks and thread completions.
//!
//! Lock operations are recognized *structurally*: an `atomic` region
//! that tests a cell for 0 and stores 1 is an acquire of that cell; an
//! `atomic` region whose only effect is storing 0 is the release. This
//! matches the paper's Section 3 encoding of `lock_acquire` /
//! `lock_release` and the generated `KeAcquireSpinLock` models.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

use kiss_exec::step::{self, Fault, Step};
use kiss_exec::{eval, Addr, ExecError, Instr, Module, ThreadEnv};
use kiss_lang::hir::{Const, FuncId, Operand, Place, Rvalue};
use kiss_lang::Span;

use crate::config::ConcConfig;

/// An observable event of one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A memory access to a shared cell (globals and heap only).
    Access {
        /// Acting thread.
        tid: u32,
        /// The accessed cell.
        addr: Addr,
        /// Whether the access writes.
        is_write: bool,
        /// Source location of the accessing statement.
        span: Span,
    },
    /// A lock acquire (structurally recognized).
    Acquire {
        /// Acting thread.
        tid: u32,
        /// The lock cell.
        addr: Addr,
    },
    /// A lock release.
    Release {
        /// Acting thread.
        tid: u32,
        /// The lock cell.
        addr: Addr,
    },
    /// A thread fork.
    Fork {
        /// Forking thread.
        parent: u32,
        /// New thread.
        child: u32,
    },
    /// A thread ran to completion.
    Finish {
        /// The finished thread.
        tid: u32,
    },
    /// An assertion failed (the run stops after this event).
    AssertFail {
        /// Acting thread.
        tid: u32,
        /// Location of the assert.
        span: Span,
    },
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunEnd {
    /// All threads finished.
    Completed,
    /// No thread could make progress (all blocked).
    Deadlock,
    /// The step bound was reached.
    StepBound,
    /// An assertion failed.
    AssertFailed,
    /// A runtime error occurred.
    RuntimeError(ExecError),
}

/// Classification of an atomic region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AtomicKind {
    /// `atomic { assume *l == 0; *l = 1 }` — acquire of the stored-to
    /// place.
    Acquire(Place),
    /// `atomic { *l = 0 }` — release.
    Release(Place),
    /// Anything else (e.g. interlocked arithmetic): accesses inside are
    /// reported as ordinary accesses.
    Other,
}

/// Classifies every atomic region of a module once.
fn classify_atomics(module: &Module) -> HashMap<(FuncId, usize), AtomicKind> {
    let mut out = HashMap::new();
    for body in &module.bodies {
        let mut i = 0;
        while i < body.instrs.len() {
            if matches!(body.instrs[i], Instr::AtomicBegin) {
                let mut j = i + 1;
                let mut stores: Vec<(Place, Const)> = Vec::new();
                let mut other_store = false;
                let mut has_assume = false;
                let mut read_places: Vec<Place> = Vec::new();
                while j < body.instrs.len() && !matches!(body.instrs[j], Instr::AtomicEnd) {
                    match &body.instrs[j] {
                        Instr::Assume(_) => has_assume = true,
                        Instr::Assign(place, rv) => {
                            match rv {
                                Rvalue::Operand(Operand::Const(c)) if !matches!(place, Place::Var(kiss_lang::hir::VarRef::Local(_))) => {
                                    stores.push((*place, *c));
                                }
                                Rvalue::Load(p) => read_places.push(*p),
                                Rvalue::BinOp(_, a, b) => {
                                    for op in [a, b] {
                                        if let Operand::Var(v) = op {
                                            read_places.push(Place::Var(*v));
                                        }
                                    }
                                }
                                _ => {
                                    if !matches!(place, Place::Var(kiss_lang::hir::VarRef::Local(_))) {
                                        other_store = true;
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let kind = match (&stores[..], has_assume, other_store) {
                    ([(p, c)], true, false) if is_one(c) && reads(p, &read_places) => {
                        AtomicKind::Acquire(*p)
                    }
                    ([(p, c)], false, false) if is_zero(c) => AtomicKind::Release(*p),
                    _ => AtomicKind::Other,
                };
                out.insert((body.func, i), kind);
                i = j;
            }
            i += 1;
        }
    }
    out
}

fn is_one(c: &Const) -> bool {
    matches!(c, Const::Int(1) | Const::Bool(true))
}

fn is_zero(c: &Const) -> bool {
    matches!(c, Const::Int(0) | Const::Bool(false))
}

fn reads(p: &Place, read_places: &[Place]) -> bool {
    read_places.contains(p)
}

/// The shared-cell accesses an assignment or an `assert` performs
/// (locals excluded), resolved against the current state. The runner
/// reports no other instruction's accesses.
fn shared_accesses(env: &ThreadEnv<'_>, instr: &Instr) -> Vec<(Addr, bool)> {
    let mut out = Vec::new();
    let place_addr = |place: &Place, is_write: bool, out: &mut Vec<(Addr, bool)>| {
        match place {
            Place::Var(kiss_lang::hir::VarRef::Global(g)) => out.push((Addr::Global(*g), is_write)),
            Place::Var(kiss_lang::hir::VarRef::Local(_)) => {}
            _ => {
                if let Ok(addr) = eval::place_addr(env, place) {
                    if !matches!(addr, Addr::Local { .. }) {
                        out.push((addr, is_write));
                    }
                }
            }
        }
    };
    let read_operand = |op: &Operand, out: &mut Vec<(Addr, bool)>| {
        if let Operand::Var(kiss_lang::hir::VarRef::Global(g)) = op {
            out.push((Addr::Global(*g), false));
        }
    };
    match instr {
        Instr::Assign(place, rv) => {
            match rv {
                Rvalue::Operand(op) => read_operand(op, &mut out),
                Rvalue::Load(p) => place_addr(p, false, &mut out),
                Rvalue::BinOp(_, a, b) => {
                    read_operand(a, &mut out);
                    read_operand(b, &mut out);
                }
                Rvalue::UnOp(_, a) => read_operand(a, &mut out),
                _ => {}
            }
            place_addr(place, true, &mut out);
        }
        Instr::Assert(c) => {
            if let kiss_lang::hir::VarRef::Global(g) = c.var {
                out.push((Addr::Global(g), false));
            }
        }
        _ => {}
    }
    out
}

/// A randomized single-execution runner.
#[derive(Debug)]
pub struct Runner<'a> {
    module: &'a Module,
    atomics: HashMap<(FuncId, usize), AtomicKind>,
    max_steps: u64,
    max_threads: usize,
}

impl<'a> Runner<'a> {
    /// Creates a runner for a module.
    pub fn new(module: &'a Module) -> Self {
        Runner { module, atomics: classify_atomics(module), max_steps: 50_000, max_threads: 16 }
    }

    /// Sets the per-run step bound.
    pub fn with_max_steps(mut self, steps: u64) -> Self {
        self.max_steps = steps;
        self
    }

    /// Runs one random execution, emitting events.
    pub fn run(&self, seed: u64, mut on_event: impl FnMut(Event)) -> RunEnd {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut config = ConcConfig::initial(self.module);
        let mut steps = 0u64;
        loop {
            if steps >= self.max_steps {
                return RunEnd::StepBound;
            }
            // Enabled threads: those whose next step can fire.
            let enabled: Vec<usize> = (0..config.threads.len())
                .filter(|&tid| self.enabled(&config, tid))
                .collect();
            if enabled.is_empty() {
                return if config.all_finished() { RunEnd::Completed } else { RunEnd::Deadlock };
            }
            let tid = enabled[rng.gen_range(0..enabled.len())];
            match self.step(&mut config, tid, &mut rng, &mut on_event) {
                StepResult::Ok => {}
                StepResult::Ended(end) => return end,
            }
            steps += 1;
        }
    }

    /// Can the thread take a step right now?
    fn enabled(&self, config: &ConcConfig, tid: usize) -> bool {
        let Some((instr, _)) = step::current(self.module, &config.threads[tid]) else { return false };
        match instr {
            Instr::Assume(_) => {
                let mut probe = config.clone();
                !matches!(step::step(&mut probe.thread(self.module, tid), instr), Ok(Step::Pruned))
            }
            Instr::AtomicBegin => {
                // Enabled iff at least one path through the region
                // completes or fails; probe with a fixed choice policy
                // (first branch) is insufficient, so try a handful of
                // random probes.
                let mut rng = StdRng::seed_from_u64(0xFACE);
                (0..4).any(|_| {
                    let mut c = config.clone();
                    !matches!(self.run_atomic(&mut c, tid, &mut rng), Region::Blocked)
                })
            }
            Instr::Async { .. } => config.threads.len() < self.max_threads,
            _ => true,
        }
    }

    fn step(
        &self,
        config: &mut ConcConfig,
        tid: usize,
        rng: &mut StdRng,
        on_event: &mut impl FnMut(Event),
    ) -> StepResult {
        let Some((instr, at)) = step::current(self.module, &config.threads[tid]) else {
            return StepResult::Ok;
        };
        let (tid32, span) = (tid as u32, at.span);
        if matches!(instr, Instr::AtomicBegin) {
            let mut attempt = config.clone();
            let accesses = match self.run_atomic(&mut attempt, tid, rng) {
                Region::Done(accesses) => accesses,
                // Blocked (e.g. lock held): no state change.
                Region::Blocked => return StepResult::Ok,
                Region::AssertFailed(span) => {
                    on_event(Event::AssertFail { tid: tid32, span });
                    return StepResult::Ended(RunEnd::AssertFailed);
                }
            };
            *config = attempt;
            // A lock's cell is the one the region wrote.
            let written = accesses.iter().find(|(_, w)| *w).map(|(addr, _)| *addr);
            match self.atomics.get(&(at.func, at.pc)).copied().unwrap_or(AtomicKind::Other) {
                AtomicKind::Acquire(_) => {
                    if let Some(addr) = written {
                        on_event(Event::Acquire { tid: tid32, addr });
                    }
                }
                AtomicKind::Release(_) => {
                    if let Some(addr) = written {
                        on_event(Event::Release { tid: tid32, addr });
                    }
                }
                AtomicKind::Other => {
                    for (addr, is_write) in accesses {
                        on_event(Event::Access { tid: tid32, addr, is_write, span });
                    }
                }
            }
            return StepResult::Ok;
        }
        let mut thread = config.thread(self.module, tid);
        for (addr, is_write) in shared_accesses(&thread, instr) {
            on_event(Event::Access { tid: tid32, addr, is_write, span });
        }
        match step::step(&mut thread, instr) {
            // A false assume is re-checked when scheduled again.
            Ok(Step::Continue | Step::Pruned) => {}
            Ok(Step::Finished) => on_event(Event::Finish { tid: tid32 }),
            Ok(Step::Spawn(frame)) => {
                let child = config.threads.len() as u32;
                config.threads.push(vec![frame]);
                on_event(Event::Fork { parent: tid32, child });
            }
            Ok(Step::Branch([])) => {
                // Dead end; park the thread by popping it.
                config.threads[tid].clear();
                on_event(Event::Finish { tid: tid32 });
            }
            Ok(Step::Branch(targets)) => {
                let t = targets[rng.gen_range(0..targets.len())];
                config.threads[tid].last_mut().expect("nonempty").pc = t;
            }
            Err(Fault::Assert) => {
                on_event(Event::AssertFail { tid: tid32, span });
                return StepResult::Ended(RunEnd::AssertFailed);
            }
            Err(Fault::Exec(e)) => return StepResult::Ended(RunEnd::RuntimeError(e)),
        }
        StepResult::Ok
    }

    /// Executes a whole atomic region with random inner choices.
    fn run_atomic(&self, config: &mut ConcConfig, tid: usize, rng: &mut StdRng) -> Region {
        let mut accesses = Vec::new();
        // Step past AtomicBegin.
        config.threads[tid].last_mut().expect("nonempty").pc += 1;
        for _ in 0..10_000 {
            let Some((instr, at)) = step::current(self.module, &config.threads[tid]) else {
                return Region::Blocked;
            };
            let end = matches!(instr, Instr::AtomicEnd);
            let mut thread = config.thread(self.module, tid);
            // Inside a region only assignments report their accesses.
            if matches!(instr, Instr::Assign(..)) {
                accesses.extend(shared_accesses(&thread, instr));
            }
            match step::step(&mut thread, instr) {
                Ok(Step::Continue) if end => return Region::Done(accesses),
                Ok(Step::Continue) => {}
                Ok(Step::Branch(targets)) if !targets.is_empty() => {
                    let t = targets[rng.gen_range(0..targets.len())];
                    config.threads[tid].last_mut().expect("nonempty").pc = t;
                }
                Err(Fault::Assert) => return Region::AssertFailed(at.span),
                // A false assume, a dead end or a runtime error blocks
                // the region; well-formedness keeps calls, `return` and
                // `async` out of it.
                _ => return Region::Blocked,
            }
        }
        Region::Blocked
    }
}

/// How one attempt at an atomic region ended.
enum Region {
    /// It reached its end, performing these shared accesses.
    Done(Vec<(Addr, bool)>),
    /// It could not complete now; the caller discards the attempt.
    Blocked,
    /// The `assert` at this span failed.
    AssertFailed(Span),
}

enum StepResult {
    Ok,
    Ended(RunEnd),
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    #[test]
    fn emits_fork_access_and_finish_events() {
        let src = "
            int g;
            void w() { g = 1; }
            void main() { async w(); g = 2; }
        ";
        let m = module(src);
        let mut forks = 0;
        let mut writes = 0;
        let mut finishes = 0;
        let end = Runner::new(&m).run(7, |e| match e {
            Event::Fork { .. } => forks += 1,
            Event::Access { is_write: true, .. } => writes += 1,
            Event::Finish { .. } => finishes += 1,
            _ => {}
        });
        assert_eq!(end, RunEnd::Completed);
        assert_eq!(forks, 1);
        assert_eq!(writes, 2);
        assert_eq!(finishes, 2);
    }

    #[test]
    fn recognizes_lock_acquire_and_release() {
        let src = "
            int l;
            int g;
            void main() {
                atomic { assume l == 0; l = 1; }
                g = 1;
                atomic { l = 0; }
            }
        ";
        let m = module(src);
        let mut events = Vec::new();
        let end = Runner::new(&m).run(3, |e| events.push(e));
        assert_eq!(end, RunEnd::Completed);
        let acquires: Vec<_> =
            events.iter().filter(|e| matches!(e, Event::Acquire { .. })).collect();
        let releases: Vec<_> =
            events.iter().filter(|e| matches!(e, Event::Release { .. })).collect();
        assert_eq!(acquires.len(), 1, "{events:?}");
        assert_eq!(releases.len(), 1, "{events:?}");
    }

    #[test]
    fn interlocked_style_atomic_reports_accesses_not_locks() {
        let src = "
            int c;
            void main() { int v; atomic { c = c + 1; v = c; } }
        ";
        let m = module(src);
        let mut locks = 0;
        let mut accesses = 0;
        Runner::new(&m).run(1, |e| match e {
            Event::Acquire { .. } | Event::Release { .. } => locks += 1,
            Event::Access { .. } => accesses += 1,
            _ => {}
        });
        assert_eq!(locks, 0);
        assert!(accesses >= 2); // read + write of c
    }

    #[test]
    fn assert_failure_ends_run_with_event() {
        let m = module("void main() { assert false; }");
        let mut failed = false;
        let end = Runner::new(&m).run(0, |e| {
            if matches!(e, Event::AssertFail { .. }) {
                failed = true;
            }
        });
        assert_eq!(end, RunEnd::AssertFailed);
        assert!(failed);
    }

    #[test]
    fn a_failed_assert_inside_atomic_fails_the_run() {
        let m = module("int g; void main() { atomic { assert g == 1; } }");
        for seed in 0..20 {
            let mut failed = false;
            let end = Runner::new(&m).run(seed, |e| failed |= matches!(e, Event::AssertFail { .. }));
            assert_eq!(end, RunEnd::AssertFailed, "seed {seed}");
            assert!(failed, "seed {seed}");
        }
    }

    #[test]
    fn blocked_lock_is_a_deadlock_when_never_released() {
        let src = "
            int l;
            void main() { l = 1; atomic { assume l == 0; l = 1; } }
        ";
        let m = module(src);
        let end = Runner::new(&m).run(0, |_| {});
        assert_eq!(end, RunEnd::Deadlock);
    }

    #[test]
    fn step_bound_terminates_unbounded_recursion() {
        let m = module("void f() { f(); } void main() { f(); }");
        let end = Runner::new(&m).with_max_steps(200).run(0, |_| {});
        assert_eq!(end, RunEnd::StepBound);
    }

    #[test]
    fn nondeterministic_loop_ends_one_way_or_another() {
        // `iter` may exit at any iteration under the random scheduler,
        // so the run completes, deadlocks (committed to a blocked
        // branch) or hits the bound — but never errs.
        let m = module("void main() { iter { skip; } }");
        for seed in 0..10 {
            let end = Runner::new(&m).with_max_steps(200).run(seed, |_| {});
            assert!(
                matches!(end, RunEnd::Completed | RunEnd::StepBound),
                "unexpected end: {end:?}"
            );
        }
    }

    #[test]
    fn heap_field_accesses_are_reported() {
        let src = "
            struct D { int x; }
            D *e;
            void main() { e = malloc(D); e->x = 5; }
        ";
        let m = module(src);
        let mut heap_writes = 0;
        Runner::new(&m).run(0, |e| {
            if let Event::Access { addr: Addr::Heap { .. }, is_write: true, .. } = e {
                heap_writes += 1;
            }
        });
        assert_eq!(heap_writes, 1);
    }
}
