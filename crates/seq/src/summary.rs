//! Summary-based interprocedural checker.
//!
//! The functional approach of Sharir–Pnueli / Reps–Horwitz–Sagiv (the
//! paper's references [37, 34] for the decidability of sequential
//! checking): for each function and each *entry state* (globals, heap,
//! argument values) reached, compute the set of *exit states* (globals,
//! heap, return value) once, and reuse it at every call site. This is
//! the analogue of SLAM's Bebop engine for our explicit value domain.
//!
//! Recursive programs are handled by iterating the analysis to a
//! fixpoint: summaries only ever grow, and the domain is finite for
//! finite-state programs, so iteration terminates.
//!
//! Each body is explored the way [`crate::explicit`] explores a whole
//! program: one [`Config`] changed in place through
//! [`kiss_exec::step::step`], with every write recorded in an
//! [`UndoLog`], so a pending alternative is only the pc it resumes at
//! and the log length at its branch. Only `Call` and `Return` are this
//! engine's own: a call binds through [`bind_call`], looks up or
//! computes the callee's summary and continues with each of its exits;
//! a return adds an exit to the body's summary.
//!
//! Compared to [`crate::explicit`], this engine reports verdicts but
//! not full traces, and it does not support pointers into another
//! function's stack frame (the explicit engine does). Below the body's
//! frame the configuration holds one frame per caller on the call path,
//! each with no locals, so the body's locals are addressed at its call
//! depth, and a dereference of a caller's local dangles. That, or a
//! local address that outlives its body through the exit state, ends
//! the check inconclusive with [`BoundReason::Unsupported`] instead of
//! touching the wrong cell.

use std::collections::{BTreeSet, HashMap};

use kiss_exec::step::{self, bind_call, entry_locals, Fault, Step};
use kiss_exec::store::VisitedTable;
use kiss_exec::{eval, Addr, Env, ExecError, Frame, Instr, Memory, Module, UndoLog, Value};
use kiss_lang::hir::FuncId;
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter};
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::stats::EngineStats;
use crate::verdict::{ErrorTrace, Verdict};

/// A function entry state: the callee's locals hold its bound
/// arguments, every other local at its default.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    func: FuncId,
    mem: Memory,
    locals: Vec<Value>,
}

/// A function exit state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Exit {
    mem: Memory,
    ret: Value,
}

impl Exit {
    /// Whether the return value or memory still points into frame
    /// `depth` or deeper: a local of the returning body, which dies
    /// with the return.
    fn holds_local_of(&self, depth: u32) -> bool {
        let dying =
            |v: &Value| matches!(v, Value::Ptr(Addr::Local { frame, .. }) if *frame >= depth);
        dying(&self.ret)
            || self.mem.globals().iter().any(dying)
            || self.mem.heap().iter().any(|obj| obj.fields.iter().any(dying))
    }
}

/// The summary-based checker.
#[derive(Debug, Clone)]
pub struct SummaryChecker<'a> {
    module: &'a Module,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
}

enum Interrupt {
    Fail,
    Runtime(ExecError),
    Budget(BoundReason),
}

impl From<ExecError> for Interrupt {
    /// A dangling local here is a pointer into another function's frame
    /// — the callers' frames hold no locals — which the entry states
    /// abstract away: unsupported, not an error of the program.
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::DanglingLocal => Interrupt::Budget(BoundReason::Unsupported),
            e => Interrupt::Runtime(e),
        }
    }
}

impl From<Fault> for Interrupt {
    fn from(fault: Fault) -> Self {
        match fault {
            Fault::Assert => Interrupt::Fail,
            Fault::Exec(e) => e.into(),
        }
    }
}

/// An alternative left to run in a body: the pc it resumes at, the
/// undo-log length at its branch, and, past a call, the callee exit it
/// continues with.
type Alternative = (usize, usize, Option<Exit>);

impl<'a> SummaryChecker<'a> {
    /// Creates a checker over a lowered module.
    pub fn new(module: &'a Module) -> Self {
        SummaryChecker {
            module,
            budget: Budget::default(),
            cancel: CancelToken::default(),
            obs: Obs::off(),
        }
    }

    /// Replaces the budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a cancellation token polled from the analysis loop.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches an observer; the analysis emits throttled progress and
    /// budget-violation events through it.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs the check.
    pub fn check(&self) -> Verdict {
        self.check_with_stats().0
    }

    /// Runs the check, also returning statistics.
    pub fn check_with_stats(&self) -> (Verdict, EngineStats) {
        let mut engine = Engine {
            module: self.module,
            meter: Meter::new(self.budget, self.cancel.clone())
                .with_observer(self.obs.clone(), "summary"),
            summaries: HashMap::new(),
            in_progress: Vec::new(),
            stored: 0,
            store_bytes: 0,
        };
        let main = self.module.program.main;
        let main_key = Key {
            func: main,
            mem: Memory::initial(&self.module.program),
            locals: entry_locals(self.module, main, std::iter::empty()),
        };
        let mut rounds = 0u32;
        let verdict = loop {
            rounds += 1;
            let before: usize = engine.summaries.values().map(BTreeSet::len).sum();
            match engine.analyze(main_key.clone()) {
                Err(Interrupt::Fail) => break Verdict::Fail(ErrorTrace::default()),
                Err(Interrupt::Runtime(e)) => break Verdict::RuntimeError(e, ErrorTrace::default()),
                Err(Interrupt::Budget(reason)) => {
                    break Verdict::ResourceBound {
                        steps: engine.meter.usage.steps,
                        states: engine.summaries.len(),
                        reason,
                    }
                }
                Ok(_) => {
                    let after: usize = engine.summaries.values().map(BTreeSet::len).sum();
                    if after == before {
                        break Verdict::Pass;
                    }
                }
            }
        };
        let stats = EngineStats {
            steps: engine.meter.usage.steps,
            states: engine.summaries.len(),
            summaries: engine.summaries.len(),
            rounds,
            states_stored: engine.stored,
            store_bytes: engine.store_bytes,
            ..EngineStats::default()
        };
        (verdict, stats)
    }
}

struct Engine<'a> {
    module: &'a Module,
    meter: Meter,
    summaries: HashMap<Key, BTreeSet<Exit>>,
    /// Keys currently being analyzed (cycle detection for recursion).
    in_progress: Vec<Key>,
    /// Fingerprints recorded across all body explorations (gauge).
    stored: usize,
    /// Peak bytes held by a single body's visited table (gauge).
    store_bytes: usize,
}

impl Engine<'_> {
    /// Computes (or reuses) the summary for a key, returning a snapshot
    /// of the exit set.
    fn analyze(&mut self, key: Key) -> Result<BTreeSet<Exit>, Interrupt> {
        if self.in_progress.contains(&key) {
            // Recursive cycle: use the current partial summary; the
            // outer fixpoint loop re-runs until it stabilizes.
            return Ok(self.summaries.get(&key).cloned().unwrap_or_default());
        }
        if let Some(done) = self.summaries.get(&key) {
            // Reuse: also correct mid-fixpoint because results only grow
            // and the outer loop re-runs until stable.
            if !done.is_empty() {
                return Ok(done.clone());
            }
        }
        self.in_progress.push(key.clone());
        let result = self.explore_body(&key);
        self.in_progress.pop();
        let exits = result?;
        let entry = self.summaries.entry(key).or_default();
        entry.extend(exits.iter().cloned());
        Ok(entry.clone())
    }

    fn explore_body(&mut self, key: &Key) -> Result<BTreeSet<Exit>, Interrupt> {
        let module = self.module;
        // `analyze` pushed this body's key onto the call path; each
        // caller below it gets an empty frame.
        let depth = self.in_progress.len() - 1;
        let mut stack: Vec<Frame> = self.in_progress[..depth]
            .iter()
            .map(|k| Frame::new(k.func, Vec::new(), None))
            .collect();
        stack.push(Frame::new(key.func, key.locals.clone(), None));
        let mut config = Config { mem: key.mem.clone(), stack };
        let mut log = UndoLog::new();

        let mut exits = BTreeSet::new();
        let mut visited = VisitedTable::new();
        let mut pending: Vec<Alternative> = vec![(0, 0, None)];
        let body = module.body(key.func);

        while let Some((pc, log_len, exit)) = pending.pop() {
            config.undo_to(&mut log, log_len);
            config.stack.last_mut().expect("the body's frame").pc = pc;
            if let Some(exit) = exit {
                take_exit(module, &mut config, &mut log, exit)?;
            }
            'path: loop {
                self.meter.tick().map_err(Interrupt::Budget)?;
                if visited.len() > self.meter.budget().max_states {
                    self.meter.emit_violation(BoundReason::States);
                    self.note_store(&visited);
                    return Err(Interrupt::Budget(BoundReason::States));
                }
                let pc = config.stack.last().expect("the body's frame").pc;
                let instr = &body.instrs[pc];
                match instr {
                    Instr::Call { target, args, .. } => {
                        if !record(&mut visited, &config)? {
                            break 'path;
                        }
                        let (callee, locals) =
                            bind_call(module, &config.thread(module), *target, args)?;
                        let call_key = Key { func: callee, mem: config.mem.clone(), locals };
                        let mut call_exits = self.analyze(call_key)?.into_iter();
                        let Some(first) = call_exits.next() else {
                            // Callee never returns (or cycle not yet
                            // resolved): path ends here this round.
                            break 'path;
                        };
                        let log_len = log.len();
                        pending.extend(call_exits.map(|exit| (pc + 1, log_len, Some(exit))));
                        config.stack.last_mut().expect("the body's frame").pc = pc + 1;
                        take_exit(module, &mut config, &mut log, first)?;
                        continue;
                    }
                    Instr::Return(op) => {
                        let env = config.thread(module);
                        let ret = op.map_or(Value::Null, |o| eval::eval_operand(&env, &o));
                        let exit = Exit { mem: config.mem.clone(), ret };
                        // `main`'s exit has no caller to read it.
                        if depth > 0 && exit.holds_local_of(depth as u32) {
                            return Err(Interrupt::Budget(BoundReason::Unsupported));
                        }
                        exits.insert(exit);
                        break 'path;
                    }
                    _ => {}
                }
                match step::step(&mut config.thread(module).with_undo(&mut log), instr)? {
                    Step::Continue => {}
                    Step::Pruned => break 'path,
                    Step::Branch(targets) => {
                        // Cycles always pass through a NondetJump or
                        // Call, which record states; see explicit.rs.
                        if !record(&mut visited, &config)? {
                            break 'path;
                        }
                        let Some((&first, rest)) = targets.split_first() else {
                            break 'path;
                        };
                        let log_len = log.len();
                        pending.extend(rest.iter().rev().map(|&alt| (alt, log_len, None)));
                        config.stack.last_mut().expect("the body's frame").pc = first;
                    }
                    Step::Spawn(_) => return Err(ExecError::AsyncInSequential.into()),
                    Step::Finished => unreachable!("the body's returns end its paths above"),
                }
            }
        }
        self.note_store(&visited);
        Ok(exits)
    }

    /// Folds one body's visited table into the engine-wide store
    /// gauges.
    fn note_store(&mut self, visited: &VisitedTable) {
        self.stored += visited.len();
        self.store_bytes = self.store_bytes.max(visited.bytes());
    }
}

/// Continues past a call with one of the callee's exits: the exit's
/// memory replaces the caller's, and its return value goes to the
/// call's destination. The top frame already sits past the call.
fn take_exit(
    module: &Module,
    config: &mut Config,
    log: &mut UndoLog,
    exit: Exit,
) -> Result<(), ExecError> {
    let top = config.stack.last().expect("the body's frame");
    let Instr::Call { dest, .. } = &module.body(top.func).instrs[top.pc - 1] else {
        unreachable!("an exit resumes past its call")
    };
    let mut env = config.thread(module).with_undo(log);
    env.replace_memory(exit.mem);
    if let Some(dest) = dest {
        let addr = eval::place_addr(&env, dest)?;
        env.write_addr(addr, exit.ret)?;
    }
    Ok(())
}

fn record(visited: &mut VisitedTable, config: &Config) -> Result<bool, Interrupt> {
    config.debug_assert_digests();
    match visited.insert(config.fingerprint()) {
        Ok((_, new)) => Ok(new),
        Err(_) => Err(Interrupt::Budget(BoundReason::StateCap)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitChecker;
    use kiss_lang::parse_and_lower;

    fn check(src: &str) -> Verdict {
        let module = Module::lower(parse_and_lower(src).unwrap());
        SummaryChecker::new(&module).check()
    }

    #[test]
    fn straightline_verdicts() {
        assert!(check("int g; void main() { g = 1; assert g == 1; }").is_pass());
        assert!(check("int g; void main() { g = 1; assert g == 2; }").is_fail());
    }

    #[test]
    fn summaries_are_reused_across_call_sites() {
        let src = "
            int g;
            void bump() { g = g + 1; }
            void main() { bump(); bump(); bump(); assert g == 3; }
        ";
        let module = Module::lower(parse_and_lower(src).unwrap());
        let (v, stats) = SummaryChecker::new(&module).check_with_stats();
        assert!(v.is_pass(), "{v:?}");
        // bump is entered with g = 0, 1, 2: three summaries plus main.
        assert_eq!(stats.summaries, 4);
    }

    #[test]
    fn choice_inside_callee_produces_multiple_exits() {
        let v = check(
            "int pick() { choice { return 1; [] return 2; } }
             void main() { int x; x = pick(); assert x >= 1; assert x <= 2; }",
        );
        assert!(v.is_pass(), "{v:?}");
        let v = check(
            "int pick() { choice { return 1; [] return 2; } }
             void main() { int x; x = pick(); assert x == 1; }",
        );
        assert!(v.is_fail());
    }

    #[test]
    fn recursion_reaches_fixpoint() {
        // Count down recursively; finite states.
        let v = check(
            "int dec(int n) { int r; if (n == 0) { return 0; } r = dec(n - 1); return r; }
             void main() { int x; x = dec(3); assert x == 0; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn agrees_with_explicit_on_a_corpus() {
        let corpus = [
            "int g; void main() { g = 2 * 3; assert g == 6; }",
            "int g; void main() { choice { g = 1; [] g = 2; } assert g != 3; }",
            "int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }",
            "int g; void main() { iter { g = g + 1; assume g <= 2; } assert g <= 2; }",
            "int g; void main() { iter { g = g + 1; assume g <= 2; } assert g < 2; }",
            "bool b; void flip() { b = !b; } void main() { flip(); flip(); assert !b; }",
            "struct D { int x; } void main() { D *p; p = malloc(D); p->x = 4; assert p->x == 4; }",
            // Runtime errors raised inside a callee.
            "int m(int a, int b) { int r; r = a % b; return r; } void main() { int x; x = m(5, 0); }",
            "struct D { int x; } int rd(D *p) { int r; r = p->x; return r; }
             void main() { D *p; int x; x = rd(p); }",
            "int sq(int a) { int r; r = a * a; return r; } void main() { int x; x = sq(3037000500); }",
            "int g; void w(int a) { g = a; } void run() { fn f; f = w; f(); } void main() { run(); }",
        ];
        // The verdict's kind, and the runtime error if it is one.
        let kind = |v: &Verdict| match v {
            Verdict::Pass => ("pass", None),
            Verdict::Fail(_) => ("fail", None),
            Verdict::RuntimeError(e, _) => ("runtime error", Some(e.clone())),
            Verdict::ResourceBound { .. } => ("inconclusive", None),
        };
        for src in corpus {
            let module = Module::lower(parse_and_lower(src).unwrap());
            let explicit = ExplicitChecker::new(&module).check();
            let summary = SummaryChecker::new(&module).check();
            assert_eq!(
                kind(&explicit),
                kind(&summary),
                "engines disagree on: {src}\nexplicit={explicit:?} summary={summary:?}"
            );
        }
    }

    #[test]
    fn budget_trips() {
        let module = Module::lower(
            parse_and_lower("int g; void main() { iter { g = g + 1; } }").unwrap(),
        );
        let v = SummaryChecker::new(&module)
            .with_budget(Budget::steps_states(5_000, 100_000))
            .check();
        assert!(v.is_inconclusive(), "{v:?}");
    }

    #[test]
    fn cancellation_is_observed() {
        let module = Module::lower(
            parse_and_lower("int g; void main() { iter { g = g + 1; } }").unwrap(),
        );
        let cancel = CancelToken::new();
        cancel.cancel();
        let v = SummaryChecker::new(&module).with_cancel(cancel).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Cancelled);
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let module = Module::lower(
            parse_and_lower("int g; void main() { iter { g = g + 1; } }").unwrap(),
        );
        let budget = Budget::generous().with_deadline(std::time::Duration::ZERO);
        let v = SummaryChecker::new(&module).with_budget(budget).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Deadline);
    }

    #[test]
    fn pointers_into_a_callers_frame_are_unsupported_not_false_errors() {
        // The callee's own `y` shares its local index with the caller's
        // `x`: resolving `p` in the callee's frame would write `y` and
        // fail the assertion that every other engine proves.
        let write = "void set(int *p) { int y; y = 0; *p = 5; }
             void main() { int x; int z; x = 1; set(&x); assert x == 5; }";
        let read = "int g;
             void get(int *p) { int y; y = 7; g = *p; }
             void main() { int x; x = 3; get(&x); assert g == 3; }";
        // Handed on one call deeper: two callers' frames lie below the
        // dereference.
        let relayed = "int g(int *q) { int w; w = *q; return w; }
             int f(int *p) { int y; int r; y = 1; r = g(p); return r; }
             void main() { int x; int s; x = 3; s = f(&x); assert s == 3; }";
        for src in [write, read, relayed] {
            let module = Module::lower(parse_and_lower(src).unwrap());
            assert!(ExplicitChecker::new(&module).check().is_pass(), "{src}");
            assert!(crate::bfs::BfsChecker::new(&module).check().is_pass(), "{src}");
            let v = SummaryChecker::new(&module).check();
            let Verdict::ResourceBound { reason, .. } = v else { panic!("{src}: {v:?}") };
            assert_eq!(reason, BoundReason::Unsupported, "{src}");
        }
    }

    #[test]
    fn a_local_address_escaping_its_body_is_unsupported() {
        for src in [
            "int *leak() { int y; return &y; } void main() { int *p; p = leak(); }",
            "int *gp; void leak() { int y; gp = &y; } void main() { leak(); }",
        ] {
            let v = check(src);
            let Verdict::ResourceBound { reason, .. } = v else { panic!("{src}: {v:?}") };
            assert_eq!(reason, BoundReason::Unsupported, "{src}");
        }
    }

    #[test]
    fn pointers_to_a_bodys_own_locals_and_passed_through_ones_still_work() {
        // Own locals resolve; a caller's pointer may be compared and
        // handed back without being dereferenced; `main` may leave its
        // own locals' addresses in memory, since nothing reads its exit.
        for src in [
            "void main() { int x; int *p; p = &x; *p = 5; assert x == 5; }",
            "int f() { int y; int *q; q = &y; *q = 4; return y; }
             void main() { int x; x = f(); assert x == 4; }",
            "int *id(int *q) { return q; }
             bool same(int *a, int *b) { bool r; r = a == b; return r; }
             void main() { int x; int *p; bool s; p = id(&x); *p = 2; s = same(p, &x);
                           assert s; assert x == 2; }",
            "int *gp; void main() { int x; gp = &x; *gp = 1; assert x == 1; }",
        ] {
            assert!(check(src).is_pass(), "{src}: {:?}", check(src));
        }
    }

    #[test]
    fn heap_growth_inside_callee_is_visible_to_caller() {
        let v = check(
            "struct D { int x; }
             D *mk() { D *p; p = malloc(D); p->x = 11; return p; }
             void main() { D *q; q = mk(); assert q->x == 11; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }
}
