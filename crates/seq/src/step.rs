//! The sequential instruction semantics, in one place.
//!
//! Every engine that runs a whole [`Config`] — the explicit DFS, the
//! BFS over decision points, and the kiss-ltl product — executes
//! instructions through [`step`], so callee resolution, the arity
//! check, argument binding and return-value delivery mean the same
//! thing in all of them. The engines keep only their search policy:
//! where to record states, what to do at a branch, and how a failed
//! `assert` or `assume` ends a path. The summary engine keeps its own
//! frame model (locals without a stack) but binds calls through
//! `bind_call` too.

use kiss_exec::{eval, Env, ExecError, Instr, Module, Value};
use kiss_lang::hir::{CallTarget, FuncId, Operand};

use crate::config::{entry_locals, Config, Frame, SeqEnv};
use crate::verdict::{ErrorTrace, TraceStep, Verdict};

/// How one executed instruction left the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step<'m> {
    /// The instruction ran and the program goes on.
    Continue,
    /// The top frame is parked on a `NondetJump` over these targets;
    /// the caller chooses which to take (none: a dead end).
    Branch(&'m [usize]),
    /// `main` returned: the stack is now empty.
    Finished,
    /// An `assume` was false: the path is infeasible.
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

impl Fault {
    /// The verdict this fault ends a search with, over `trace`.
    pub fn verdict(self, trace: ErrorTrace) -> Verdict {
        match self {
            Fault::Assert => Verdict::Fail(trace),
            Fault::Exec(e) => Verdict::RuntimeError(e, trace),
        }
    }
}

impl From<ExecError> for Fault {
    fn from(e: ExecError) -> Fault {
        Fault::Exec(e)
    }
}

/// The instruction at the top frame and its trace step, or `None` once
/// the program has finished.
///
/// The instruction is borrowed from the module body, never cloned:
/// `Call` argument lists and `NondetJump` target vectors are
/// heap-backed, and a per-step clone was the largest line in the
/// interpreter profile.
#[inline]
pub fn current<'m>(module: &'m Module, config: &Config) -> Option<(&'m Instr, TraceStep)> {
    let frame = config.stack.last()?;
    let body = module.body(frame.func);
    let meta = body.meta[frame.pc];
    let at = TraceStep { func: frame.func, pc: frame.pc, origin: meta.origin, span: meta.span };
    Some((&body.instrs[frame.pc], at))
}

/// Executes `instr` — the instruction [`current`] returned for
/// `config` — at the top frame of `config`, in place. On a fault,
/// `config` holds whatever the instruction changed before failing.
#[inline]
pub fn step<'m>(
    module: &'m Module,
    config: &mut Config,
    instr: &'m Instr,
) -> Result<Step<'m>, Fault> {
    match instr {
        Instr::Assign(place, rv) => {
            eval::exec_assign(&mut SeqEnv { module, config }, place, rv)?;
        }
        Instr::Assert(cond) => {
            if !eval::eval_cond(&SeqEnv { module, config }, cond)? {
                return Err(Fault::Assert);
            }
        }
        Instr::Assume(cond) => {
            if !eval::eval_cond(&SeqEnv { module, config }, cond)? {
                return Ok(Step::Pruned);
            }
        }
        Instr::Call { dest, target, args } => {
            let (func, locals) = bind_call(module, &SeqEnv { module, config }, *target, args)?;
            top(config).pc += 1;
            config.stack.push(Frame { func, pc: 0, locals, dest: *dest });
            return Ok(Step::Continue);
        }
        Instr::Async { .. } => return Err(Fault::Exec(ExecError::AsyncInSequential)),
        Instr::Return(op) => {
            let env = SeqEnv { module, config };
            let ret = op.map_or(Value::Null, |o| eval::eval_operand(&env, &o));
            let finished = config.stack.pop().expect("nonempty");
            if config.stack.is_empty() {
                return Ok(Step::Finished);
            }
            if let Some(dest) = finished.dest {
                let mut env = SeqEnv { module, config };
                let addr = eval::place_addr(&env, &dest)?;
                env.write_addr(addr, ret)?;
            }
            return Ok(Step::Continue);
        }
        Instr::Jump(target) => {
            top(config).pc = *target;
            return Ok(Step::Continue);
        }
        Instr::NondetJump(targets) => return Ok(Step::Branch(targets)),
        // Atomicity is vacuous sequentially.
        Instr::AtomicBegin | Instr::AtomicEnd => {}
    }
    top(config).pc += 1;
    Ok(Step::Continue)
}

fn top(config: &mut Config) -> &mut Frame {
    config.stack.last_mut().expect("nonempty")
}

/// Binds a call: resolves the callee, checks the argument count
/// against its parameters, and returns the callee's initial locals —
/// the evaluated arguments, then every other local at its default.
pub(crate) fn bind_call(
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

    /// Steps `config` until something other than `Continue` happens.
    fn run<'m>(module: &'m Module, config: &mut Config) -> Result<Step<'m>, Fault> {
        loop {
            let (instr, _) = current(module, config).expect("a running program");
            match step(module, config, instr)? {
                Step::Continue => {}
                other => return Ok(other),
            }
        }
    }

    #[test]
    fn straight_line_code_finishes_with_its_writes() {
        let m = module("int g; int twice(int a) { return a + a; } void main() { g = twice(4); }");
        let mut c = Config::initial(&m);
        assert_eq!(run(&m, &mut c), Ok(Step::Finished));
        assert!(c.stack.is_empty());
        assert_eq!(c.mem.globals[0], Value::Int(8));
    }

    #[test]
    fn failed_assert_and_assume_are_told_apart() {
        let m = module("int g; void main() { assert g == 1; }");
        assert_eq!(run(&m, &mut Config::initial(&m)), Err(Fault::Assert));
        let m = module("int g; void main() { assume g == 1; }");
        assert_eq!(run(&m, &mut Config::initial(&m)), Ok(Step::Pruned));
    }

    #[test]
    fn a_branch_parks_on_its_targets() {
        let m = module("int g; void main() { choice { g = 1; [] g = 2; } }");
        let mut c = Config::initial(&m);
        let Ok(Step::Branch(targets)) = run(&m, &mut c) else { panic!("expected a branch") };
        assert_eq!(targets.len(), 2);
        let pc = c.stack[0].pc;
        assert!(matches!(m.body(c.stack[0].func).instrs[pc], Instr::NondetJump(_)));
    }
}
