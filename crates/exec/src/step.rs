//! The instruction semantics, in one place.
//!
//! Every interpreter executes instructions through [`step`]: the
//! explicit DFS, the BFS over decision points, the summary engine's
//! exploration of one function body, the kiss-ltl product, and
//! kiss-conc's exhaustive explorer and random runner. So callee
//! resolution, the arity check, argument binding and return-value
//! delivery mean the same thing under sequential and interleaved
//! execution. The callers keep only their policy: where to record
//! states, what to do at a branch, how a failed `assert` or `assume`
//! ends a path, whom to schedule, and what an `async` does. The summary
//! engine also keeps its own `Call` and `Return`: it binds a call
//! through [`bind_call`] and continues with the callee's summarized
//! exits, which [`ThreadEnv::replace_memory`] installs.
//!
//! A [`ThreadEnv`] is the one [`Env`]: shared memory plus every
//! thread's stack of [`Frame`]s, acting as one thread. The sequential
//! engines run a single stack as thread 0.

use kiss_lang::hir::{CallTarget, FuncId, LocalId, Operand, Origin, Place, StructId, VarRef};
use kiss_lang::Span;

use crate::cfg::{Instr, Module};
use crate::digest::{Cell, Digest};
use crate::error::ExecError;
use crate::eval::{self, Env};
use crate::value::{Addr, Memory, Value};

/// One stack frame.
///
/// The locals are read-only from outside: every write goes through
/// [`Frame::set_local`], which keeps the frame's [`Digest`] of them
/// current. The digest is a function of the locals, so equality and
/// `Hash` depend only on the contents.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// Program counter into the function's lowered body.
    pub pc: usize,
    /// Local variable values (parameters first).
    locals: Vec<Value>,
    /// One term per local.
    digest: Digest,
    /// Where the caller wants the return value stored (resolved in the
    /// caller's frame after this one pops).
    pub dest: Option<Place>,
}

impl Frame {
    /// A frame entering `func` at pc 0 with these locals.
    pub fn new(func: FuncId, locals: Vec<Value>, dest: Option<Place>) -> Frame {
        let mut digest = Digest::default();
        for (l, &value) in locals.iter().enumerate() {
            digest.add(Cell::Local(l as u32), value);
        }
        Frame { func, pc: 0, locals, digest, dest }
    }

    /// A frame entering `func` with the given arguments; remaining
    /// locals are defaulted per their declared types.
    pub fn enter(module: &Module, func: FuncId, args: &[Value], dest: Option<Place>) -> Frame {
        Frame::new(func, entry_locals(module, func, args.iter().copied()), dest)
    }

    /// Local variable values (parameters first).
    #[inline]
    pub fn locals(&self) -> &[Value] {
        &self.locals
    }

    /// Writes local `local`, returning the value it held; `None`,
    /// writing nothing, when there is no such local.
    #[inline]
    pub fn set_local(&mut self, local: u32, value: Value) -> Option<Value> {
        let old = std::mem::replace(self.locals.get_mut(local as usize)?, value);
        if old != value {
            self.digest.replace(Cell::Local(local), old, value);
        }
        Some(old)
    }

    /// The digest of the locals.
    #[inline]
    pub fn digest(&self) -> Digest {
        self.digest
    }

    /// The digest recomputed from the locals alone, the oracle the
    /// incremental one is checked against.
    #[cfg(any(test, debug_assertions))]
    pub fn digest_from_scratch(&self) -> Digest {
        Frame::new(self.func, self.locals.clone(), self.dest).digest
    }

    /// In builds with debug assertions, panics unless the digest equals
    /// [`Frame::digest_from_scratch`]; every engine calls it at each
    /// state it records. Compiles to nothing otherwise.
    #[inline]
    pub fn debug_assert_digest(&self) {
        #[cfg(any(test, debug_assertions))]
        debug_assert_eq!(self.digest, self.digest_from_scratch(), "frame digest out of date");
    }
}

/// The locals `func` starts with: `args` bind its leading locals (the
/// parameters), every other local starts at its type's default.
pub fn entry_locals(
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

/// One executed instruction in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Function containing the instruction.
    pub func: FuncId,
    /// Program counter within the function body.
    pub pc: usize,
    /// Provenance (user statement vs. KISS instrumentation).
    pub origin: Origin,
    /// Source span of the originating statement.
    pub span: Span,
}

/// The execution context of one thread: shared memory plus every
/// thread's stack, with `tid` acting. Addresses of locals name their
/// thread, so a pointer into another thread's frame resolves.
///
/// Every write to the state goes through the [`Memory`] and [`Frame`]
/// setters, which keep the digests current, and, when the env carries
/// an [`UndoLog`], is recorded there on the same path.
pub struct ThreadEnv<'a> {
    module: &'a Module,
    mem: &'a mut Memory,
    /// One call stack per thread, the last frame executing.
    stacks: &'a mut [Vec<Frame>],
    tid: usize,
    undo: Option<&'a mut UndoLog>,
}

impl<'a> ThreadEnv<'a> {
    /// Thread `tid` of `stacks` acting on `mem`.
    #[inline]
    pub fn new(
        module: &'a Module,
        mem: &'a mut Memory,
        stacks: &'a mut [Vec<Frame>],
        tid: usize,
    ) -> Self {
        ThreadEnv { module, mem, stacks, tid, undo: None }
    }

    /// Records every write of this env in `log`, so that
    /// [`UndoLog::undo_to`] can take it back.
    #[inline]
    pub fn with_undo(mut self, log: &'a mut UndoLog) -> Self {
        self.undo = Some(log);
        self
    }

    #[inline]
    fn top(&self) -> &Frame {
        self.stacks[self.tid].last().expect("the acting thread has a frame")
    }

    #[inline]
    fn top_mut(&mut self) -> &mut Frame {
        self.stacks[self.tid].last_mut().expect("the acting thread has a frame")
    }

    #[inline]
    fn log(&mut self, entry: Undo) {
        if let Some(log) = self.undo.as_deref_mut() {
            log.entries.push(entry);
        }
    }

    /// Pushes a callee's frame on the acting thread.
    #[inline]
    fn push_frame(&mut self, frame: Frame) {
        self.stacks[self.tid].push(frame);
        self.log(Undo::Push(self.tid as u32));
    }

    /// Replaces memory whole, as a callee's summarized exit state does
    /// at its call site. With a log, the old memory waits on the log
    /// until [`UndoLog::undo_to`] puts it back; both are moves, so
    /// neither copies a store.
    #[inline]
    pub fn replace_memory(&mut self, mem: Memory) {
        let old = std::mem::replace(self.mem, mem);
        if let Some(log) = self.undo.as_deref_mut() {
            log.entries.push(Undo::Memory);
            log.memories.push(old);
        }
    }

    /// Pops the acting thread's top frame, returning its destination.
    #[inline]
    fn pop_frame(&mut self) -> Option<Place> {
        let stack = &mut self.stacks[self.tid];
        let frame = stack.pop().expect("the acting thread has a frame");
        let dest = frame.dest;
        if let Some(log) = self.undo.as_deref_mut() {
            let caller_pc = stack.last().map(|caller| caller.pc);
            log.entries.push(Undo::Pop { tid: self.tid as u32, caller_pc });
            log.popped.push(frame);
        }
        dest
    }
}

// Every access is `#[inline]`: the engines' step loops call them from
// other crates.
impl Env for ThreadEnv<'_> {
    #[inline]
    fn read_var(&self, v: VarRef) -> Value {
        match v {
            VarRef::Global(g) => self.mem.globals()[g.0 as usize],
            VarRef::Local(LocalId(l)) => self.top().locals[l as usize],
        }
    }

    #[inline]
    fn write_var(&mut self, v: VarRef, val: Value) {
        let a = self.addr_of_var(v);
        self.write_addr(a, val).expect("a variable's cell exists");
    }

    #[inline]
    fn read_addr(&self, a: Addr) -> Result<Value, ExecError> {
        match a {
            Addr::Global(g) => Ok(self.mem.globals()[g.0 as usize]),
            Addr::Heap { obj, field } => self
                .mem
                .heap()
                .get(obj as usize)
                .and_then(|o| o.fields.get(field as usize))
                .copied()
                .ok_or(ExecError::BadField),
            Addr::Local { tid, frame, local } => self
                .stacks
                .get(tid as usize)
                .and_then(|s| s.get(frame as usize))
                .and_then(|f| f.locals.get(local as usize))
                .copied()
                .ok_or(ExecError::DanglingLocal),
        }
    }

    #[inline]
    fn write_addr(&mut self, a: Addr, val: Value) -> Result<(), ExecError> {
        let old = match a {
            Addr::Global(g) => self.mem.set_global(g, val),
            Addr::Heap { obj, field } => {
                self.mem.set_field(obj, field, val).ok_or(ExecError::BadField)?
            }
            Addr::Local { tid, frame, local } => self
                .stacks
                .get_mut(tid as usize)
                .and_then(|s| s.get_mut(frame as usize))
                .and_then(|f| f.set_local(local, val))
                .ok_or(ExecError::DanglingLocal)?,
        };
        if old != val {
            self.log(Undo::Write(a, old));
        }
        Ok(())
    }

    #[inline]
    fn addr_of_var(&self, v: VarRef) -> Addr {
        match v {
            VarRef::Global(g) => Addr::Global(g),
            VarRef::Local(LocalId(l)) => Addr::Local {
                tid: self.tid as u32,
                frame: (self.stacks[self.tid].len() - 1) as u32,
                local: l,
            },
        }
    }

    #[inline]
    fn malloc(&mut self, sid: StructId) -> u32 {
        let obj = self.mem.malloc(&self.module.program, sid);
        self.log(Undo::Malloc);
        obj
    }
}

/// One change to a state that an [`UndoLog`] can take back.
#[derive(Debug, Clone, Copy)]
enum Undo {
    /// A cell held this value before a write.
    Write(Addr, Value),
    /// The last heap object was allocated.
    Malloc,
    /// A frame was pushed on this thread's stack.
    Push(u32),
    /// Thread `tid`'s top frame was popped; it waits on the log's
    /// `popped` stack. The caller it returned to, if any, sat at
    /// `caller_pc` then.
    Pop { tid: u32, caller_pc: Option<usize> },
    /// Memory was replaced whole; the old one waits on the log's
    /// `memories` stack.
    Memory,
}

/// The changes a [`ThreadEnv`] made, newest last, so that a depth-first
/// search can restore an earlier state in place instead of keeping a
/// copy of it: SPIN's depth-first search restores states by undoing
/// transitions (Holzmann, *The Model Checker SPIN*, IEEE TSE 1997).
///
/// Pc moves are not logged. Only the top frame's pc changes, so a
/// search restores it itself: the top frame at the restore point gets
/// the pc it resumes at, and a frame that became the top since has its
/// pc put back when the pop that exposed it is undone.
///
/// The log holds one entry per changed cell, allocation, push, pop and
/// memory replacement, plus the frames those pops removed and the
/// memories those replacements displaced. In a depth-first search that
/// undoes to each branch point it backtracks to, these are the changes
/// along the current path from the initial state: the log is bounded by
/// the writes along that path and, as a step writes at most a few
/// cells, by the step budget.
#[derive(Debug, Default)]
pub struct UndoLog {
    entries: Vec<Undo>,
    popped: Vec<Frame>,
    memories: Vec<Memory>,
}

impl UndoLog {
    /// An empty log.
    pub fn new() -> Self {
        UndoLog::default()
    }

    /// The number of entries, the position [`UndoLog::undo_to`] takes
    /// the state back to.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is logged.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Takes back, newest first, every change logged since the log had
    /// `len` entries, leaving `mem` and `stacks` as they were then but
    /// for the top frame's pc (see the type's docs).
    pub fn undo_to(&mut self, len: usize, mem: &mut Memory, stacks: &mut [Vec<Frame>]) {
        while self.entries.len() > len {
            match self.entries.pop().expect("longer than len") {
                Undo::Write(Addr::Global(g), old) => {
                    mem.set_global(g, old);
                }
                Undo::Write(Addr::Heap { obj, field }, old) => {
                    mem.set_field(obj, field, old).expect("a written field");
                }
                Undo::Write(Addr::Local { tid, frame, local }, old) => {
                    let frame = &mut stacks[tid as usize][frame as usize];
                    frame.set_local(local, old).expect("a written local");
                }
                Undo::Malloc => mem.free_last(),
                Undo::Push(tid) => {
                    stacks[tid as usize].pop().expect("a pushed frame");
                }
                Undo::Pop { tid, caller_pc } => {
                    let stack = &mut stacks[tid as usize];
                    if let Some(pc) = caller_pc {
                        stack.last_mut().expect("the caller").pc = pc;
                    }
                    stack.push(self.popped.pop().expect("a popped frame"));
                }
                Undo::Memory => *mem = self.memories.pop().expect("a replaced memory"),
            }
        }
    }
}

/// How one executed instruction left its thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<'m> {
    /// The instruction ran and the thread goes on.
    Continue,
    /// The top frame is parked on a `NondetJump` over these targets;
    /// the caller chooses which to take (none: a dead end).
    Branch(&'m [usize]),
    /// An `async` bound its callee: the caller's pc moved past it, and
    /// this is the new thread's entry frame. Whether and how the thread
    /// starts is the caller's policy.
    Spawn(Frame),
    /// The thread's bottom frame returned: its stack is now empty.
    Finished,
    /// An `assume` was false; nothing changed. Sequentially the path is
    /// infeasible, concurrently the thread is blocked.
    Pruned,
}

/// An instruction that could not run to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// An `assert` was false.
    Assert,
    /// An operation with undefined semantics.
    Exec(ExecError),
}

impl From<ExecError> for Fault {
    fn from(e: ExecError) -> Fault {
        Fault::Exec(e)
    }
}

/// The instruction at the top of `stack` and its trace step, or `None`
/// once the stack is empty.
///
/// The instruction is borrowed from the module body, never cloned:
/// `Call` argument lists and `NondetJump` target vectors are
/// heap-backed, and a per-step clone was the largest line in the
/// interpreter profile.
#[inline]
pub fn current<'m>(module: &'m Module, stack: &[Frame]) -> Option<(&'m Instr, TraceStep)> {
    let frame = stack.last()?;
    let body = module.body(frame.func);
    let meta = body.meta[frame.pc];
    let at = TraceStep { func: frame.func, pc: frame.pc, origin: meta.origin, span: meta.span };
    Some((&body.instrs[frame.pc], at))
}

/// Executes `instr` — the instruction [`current`] returned for the
/// acting thread — at that thread's top frame, in place. On a fault,
/// the state holds whatever the instruction changed before failing.
///
/// `atomic` brackets only advance the pc: running a region without
/// interleaving is the scheduler's business.
#[inline]
pub fn step<'m>(env: &mut ThreadEnv<'_>, instr: &'m Instr) -> Result<Step<'m>, Fault> {
    match instr {
        Instr::Assign(place, rv) => eval::exec_assign(env, place, rv)?,
        Instr::Assert(cond) => {
            if !eval::eval_cond(env, cond)? {
                return Err(Fault::Assert);
            }
        }
        Instr::Assume(cond) => {
            if !eval::eval_cond(env, cond)? {
                return Ok(Step::Pruned);
            }
        }
        Instr::Call { dest, target, args } => {
            let (func, locals) = bind_call(env.module, env, *target, args)?;
            env.top_mut().pc += 1;
            env.push_frame(Frame::new(func, locals, *dest));
            return Ok(Step::Continue);
        }
        Instr::Async { target, args } => {
            let (func, locals) = bind_call(env.module, env, *target, args)?;
            env.top_mut().pc += 1;
            return Ok(Step::Spawn(Frame::new(func, locals, None)));
        }
        Instr::Return(op) => {
            let ret = op.map_or(Value::Null, |o| eval::eval_operand(env, &o));
            let dest = env.pop_frame();
            if env.stacks[env.tid].is_empty() {
                return Ok(Step::Finished);
            }
            if let Some(dest) = dest {
                let addr = eval::place_addr(env, &dest)?;
                env.write_addr(addr, ret)?;
            }
            return Ok(Step::Continue);
        }
        Instr::Jump(target) => {
            env.top_mut().pc = *target;
            return Ok(Step::Continue);
        }
        Instr::NondetJump(targets) => return Ok(Step::Branch(targets)),
        Instr::AtomicBegin | Instr::AtomicEnd => {}
    }
    env.top_mut().pc += 1;
    Ok(Step::Continue)
}

/// Binds a call: resolves the callee, checks the argument count
/// against its parameters, and returns the callee's initial locals —
/// the evaluated arguments, then every other local at its default.
///
/// # Errors
///
/// Fails when the target is not a function or the argument count
/// differs from the callee's parameter count.
pub fn bind_call(
    module: &Module,
    env: &impl Env,
    target: CallTarget,
    args: &[Operand],
) -> Result<(FuncId, Vec<Value>), ExecError> {
    let callee = resolve_target(env, target)?;
    let expected = module.program.func(callee).param_count;
    if expected as usize != args.len() {
        return Err(ExecError::ArityMismatch { func: callee, expected, got: args.len() as u32 });
    }
    let locals = entry_locals(module, callee, args.iter().map(|a| eval::eval_operand(env, a)));
    Ok((callee, locals))
}

/// Resolves a call target to a function id.
fn resolve_target(env: &impl Env, target: CallTarget) -> Result<FuncId, ExecError> {
    match target {
        CallTarget::Direct(f) => Ok(f),
        CallTarget::Indirect(v) => match env.read_var(v) {
            Value::Fn(f) => Ok(f),
            other => Err(ExecError::NotAFunction { found: other.type_name() }),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    /// Memory and one stack entering `main`.
    fn initial(m: &Module) -> (Memory, Vec<Vec<Frame>>) {
        (Memory::initial(&m.program), vec![vec![Frame::enter(m, m.program.main, &[], None)]])
    }

    /// Steps thread 0 until something other than `Continue` happens.
    fn run<'m>(m: &'m Module, mem: &mut Memory, stacks: &mut [Vec<Frame>]) -> Result<Step<'m>, Fault> {
        loop {
            let (instr, _) = current(m, &stacks[0]).expect("a running thread");
            match step(&mut ThreadEnv::new(m, mem, stacks, 0), instr)? {
                Step::Continue => {}
                other => return Ok(other),
            }
        }
    }

    fn run_main(src: &str) -> Result<(), Fault> {
        let m = module(src);
        let (mut mem, mut stacks) = initial(&m);
        run(&m, &mut mem, &mut stacks).map(|_| ())
    }

    #[test]
    fn straight_line_code_finishes_with_its_writes() {
        let m = module("int g; int twice(int a) { return a + a; } void main() { g = twice(4); }");
        let (mut mem, mut stacks) = initial(&m);
        assert_eq!(run(&m, &mut mem, &mut stacks), Ok(Step::Finished));
        assert!(stacks[0].is_empty());
        assert_eq!(mem.globals()[0], Value::Int(8));
    }

    #[test]
    fn failed_assert_and_assume_are_told_apart() {
        assert_eq!(run_main("int g; void main() { assert g == 1; }"), Err(Fault::Assert));
        let m = module("int g; void main() { assume g == 1; }");
        let (mut mem, mut stacks) = initial(&m);
        assert_eq!(run(&m, &mut mem, &mut stacks), Ok(Step::Pruned));
    }

    #[test]
    fn a_branch_parks_on_its_targets() {
        let m = module("int g; void main() { choice { g = 1; [] g = 2; } }");
        let (mut mem, mut stacks) = initial(&m);
        let Ok(Step::Branch(targets)) = run(&m, &mut mem, &mut stacks) else {
            panic!("expected a branch")
        };
        assert_eq!(targets.len(), 2);
        let top = &stacks[0][0];
        assert!(matches!(m.body(top.func).instrs[top.pc], Instr::NondetJump(_)));
    }

    #[test]
    fn async_binds_its_callee_and_hands_it_back() {
        let m = module("int g; void w(int a) { g = a; } void main() { async w(3); g = 1; }");
        let (mut mem, mut stacks) = initial(&m);
        let Ok(Step::Spawn(frame)) = run(&m, &mut mem, &mut stacks) else {
            panic!("expected a spawn")
        };
        assert_eq!(frame.func, m.program.func_by_name("w").unwrap());
        assert_eq!(frame.locals(), [Value::Int(3)]);
        assert_eq!(frame.pc, 0);
        assert_eq!(stacks[0][0].pc, 1, "the caller moved past the async");
    }

    #[test]
    fn indirect_calls_and_asyncs_check_their_arity() {
        for src in [
            "int g; void w(int a) { g = a; } void main() { fn f; f = w; f(); }",
            "int g; void w(int a) { g = a; } void main() { fn f; f = w; async f(); }",
        ] {
            assert!(
                matches!(run_main(src), Err(Fault::Exec(ExecError::ArityMismatch { .. }))),
                "{src}"
            );
        }
    }

    #[test]
    fn frame_enter_binds_args_then_defaults() {
        let m = module("void f(int a, bool b) { int c; skip; } void main() { f(1, true); }");
        let f = m.program.func_by_name("f").unwrap();
        let fr = Frame::enter(&m, f, &[Value::Int(9), Value::Bool(true)], None);
        assert_eq!(fr.locals(), [Value::Int(9), Value::Bool(true), Value::Int(0)]);
    }

    #[test]
    fn env_reads_and_writes_locals_and_globals() {
        let m = module("int g; void main() { int x; skip; }");
        let (mut mem, mut stacks) = initial(&m);
        let mut env = ThreadEnv::new(&m, &mut mem, &mut stacks, 0);
        env.write_var(VarRef::Global(kiss_lang::GlobalId(0)), Value::Int(5));
        env.write_var(VarRef::Local(LocalId(0)), Value::Int(6));
        assert_eq!(env.read_var(VarRef::Global(kiss_lang::GlobalId(0))), Value::Int(5));
        assert_eq!(env.read_var(VarRef::Local(LocalId(0))), Value::Int(6));
        // Address-of local points at the top frame.
        let a = env.addr_of_var(VarRef::Local(LocalId(0)));
        assert_eq!(env.read_addr(a), Ok(Value::Int(6)));
    }

    #[test]
    fn a_replaced_memory_comes_back_on_undo() {
        let m = module("struct D { int x; } int g; int h; void main() { skip; }");
        let (g, h) = (kiss_lang::GlobalId(0), kiss_lang::GlobalId(1));
        let (mut mem, mut stacks) = initial(&m);
        let mut log = UndoLog::new();
        let mut env = ThreadEnv::new(&m, &mut mem, &mut stacks, 0).with_undo(&mut log);
        env.write_var(VarRef::Global(g), Value::Int(3));
        let saved = (mem.globals().to_vec(), mem.heap().len(), mem.digest());
        // A callee's exit: other globals and a grown heap.
        let mut exit = mem.clone();
        exit.set_global(h, Value::Int(9));
        exit.malloc(&m.program, StructId(0));
        let at_branch = log.len();
        let mut env = ThreadEnv::new(&m, &mut mem, &mut stacks, 0).with_undo(&mut log);
        env.replace_memory(exit);
        env.write_var(VarRef::Global(h), Value::Int(5));
        assert_eq!(mem.globals()[1], Value::Int(5));
        assert_eq!(mem.heap().len(), 1);
        log.undo_to(at_branch, &mut mem, &mut stacks);
        assert_eq!((mem.globals().to_vec(), mem.heap().len(), mem.digest()), saved);
        assert_eq!(mem.digest(), mem.digest_from_scratch());
        // Undone to the start, the write before the replacement goes too.
        log.undo_to(0, &mut mem, &mut stacks);
        assert_eq!(mem, Memory::initial(&m.program));
        assert!(log.is_empty());
    }

    #[test]
    fn local_addresses_cross_threads_and_dangling_ones_fail() {
        let m = module("void main() { int x; skip; }");
        let (mut mem, mut stacks) = initial(&m);
        stacks.push(vec![Frame::enter(&m, m.program.main, &[], None)]);
        ThreadEnv::new(&m, &mut mem, &mut stacks, 1)
            .write_var(VarRef::Local(LocalId(0)), Value::Int(42));
        let mut env = ThreadEnv::new(&m, &mut mem, &mut stacks, 0);
        // Thread 0 reads thread 1's local through an address.
        assert_eq!(env.read_addr(Addr::Local { tid: 1, frame: 0, local: 0 }), Ok(Value::Int(42)));
        for bad in [Addr::Local { tid: 5, frame: 0, local: 0 }, Addr::Local { tid: 0, frame: 7, local: 0 }] {
            assert_eq!(env.read_addr(bad), Err(ExecError::DanglingLocal));
            assert_eq!(env.write_addr(bad, Value::Int(1)), Err(ExecError::DanglingLocal));
        }
    }
}
