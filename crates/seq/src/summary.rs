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
//! Compared to [`crate::explicit`], this engine reports verdicts but
//! not full traces, and it does not support pointers into another
//! function's stack frame (the explicit engine does). A body's locals
//! are addressed at its call depth, so a dereference of a caller's
//! local, or a local address that outlives its body through the exit
//! state, ends the check inconclusive with
//! [`BoundReason::Unsupported`] instead of touching the wrong cell.

use std::collections::{BTreeSet, HashMap};

use kiss_exec::step::{bind_call, entry_locals};
use kiss_exec::store::VisitedTable;
use kiss_exec::{eval, Addr, Env, ExecError, Instr, Memory, Module, Value};
use kiss_lang::hir::{FuncId, LocalId, VarRef};
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter};
use crate::cancel::CancelToken;
use crate::config::state_fingerprint;
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
            || self.mem.globals.iter().any(dying)
            || self.mem.heap.iter().any(|obj| obj.fields.iter().any(dying))
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
    /// — [`LocalEnv`] resolves only the body's own — which the entry
    /// states abstract away: unsupported, not an error of the program.
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::DanglingLocal => Interrupt::Budget(BoundReason::Unsupported),
            e => Interrupt::Runtime(e),
        }
    }
}

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

/// Intra-function exploration state.
#[derive(Debug, Clone)]
struct State {
    mem: Memory,
    locals: Vec<Value>,
    pc: usize,
}

/// A body's view of memory. Its locals' addresses carry its call
/// depth as their frame, so a pointer into any other frame is told
/// apart from them.
struct LocalEnv<'a> {
    module: &'a Module,
    state: &'a mut State,
    depth: u32,
}

impl Env for LocalEnv<'_> {
    fn read_var(&self, v: VarRef) -> Value {
        match v {
            VarRef::Global(g) => self.state.mem.globals[g.0 as usize],
            VarRef::Local(LocalId(l)) => self.state.locals[l as usize],
        }
    }
    fn write_var(&mut self, v: VarRef, val: Value) {
        match v {
            VarRef::Global(g) => self.state.mem.globals[g.0 as usize] = val,
            VarRef::Local(LocalId(l)) => self.state.locals[l as usize] = val,
        }
    }
    fn read_addr(&self, a: Addr) -> Result<Value, ExecError> {
        match a {
            Addr::Global(g) => Ok(self.state.mem.globals[g.0 as usize]),
            Addr::Heap { obj, field } => self
                .state
                .mem
                .heap
                .get(obj as usize)
                .and_then(|o| o.fields.get(field as usize))
                .copied()
                .ok_or(ExecError::BadField),
            // The summary engine cannot resolve pointers into other
            // frames: entry states abstract the caller's stack away.
            Addr::Local { frame, local, .. } if frame == self.depth => {
                self.state.locals.get(local as usize).copied().ok_or(ExecError::DanglingLocal)
            }
            Addr::Local { .. } => Err(ExecError::DanglingLocal),
        }
    }
    fn write_addr(&mut self, a: Addr, val: Value) -> Result<(), ExecError> {
        match a {
            Addr::Global(g) => {
                self.state.mem.globals[g.0 as usize] = val;
                Ok(())
            }
            Addr::Heap { obj, field } => {
                *self
                    .state
                    .mem
                    .heap
                    .get_mut(obj as usize)
                    .and_then(|o| o.fields.get_mut(field as usize))
                    .ok_or(ExecError::BadField)? = val;
                Ok(())
            }
            Addr::Local { frame, local, .. } if frame == self.depth => {
                *self.state.locals.get_mut(local as usize).ok_or(ExecError::DanglingLocal)? = val;
                Ok(())
            }
            Addr::Local { .. } => Err(ExecError::DanglingLocal),
        }
    }
    fn addr_of_var(&self, v: VarRef) -> Addr {
        match v {
            VarRef::Global(g) => Addr::Global(g),
            VarRef::Local(LocalId(l)) => Addr::Local { tid: 0, frame: self.depth, local: l },
        }
    }
    fn malloc(&mut self, sid: kiss_lang::hir::StructId) -> u32 {
        self.state.mem.malloc(&self.module.program, sid)
    }
}

impl Engine<'_> {
    /// Computes (or reuses) the summary for a key, returning a snapshot
    /// of the exit set.
    //
    // `Key`/`Exit` reach `CowVec`'s chunk-digest atomics, but those are
    // a content-derived cache that `Eq`/`Ord`/`Hash` never read, so the
    // keys are stable despite the interior mutability.
    #[allow(clippy::mutable_key_type)]
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

    // Digest-cache atomics again; see `analyze`.
    #[allow(clippy::mutable_key_type)]
    fn explore_body(&mut self, key: &Key) -> Result<BTreeSet<Exit>, Interrupt> {
        let initial = State { mem: key.mem.clone(), locals: key.locals.clone(), pc: 0 };
        // `analyze` pushed this body's key onto the call path.
        let depth = (self.in_progress.len() - 1) as u32;

        let mut exits = BTreeSet::new();
        let mut visited = VisitedTable::new();
        let mut pending: Vec<State> = vec![initial];
        let body = self.module.body(key.func);

        while let Some(mut state) = pending.pop() {
            'path: loop {
                self.meter.tick().map_err(Interrupt::Budget)?;
                if visited.len() > self.meter.budget().max_states {
                    self.meter.emit_violation(BoundReason::States);
                    self.note_store(&visited);
                    return Err(Interrupt::Budget(BoundReason::States));
                }
                // Borrowed, not cloned: see explicit.rs — per-step
                // clones of Call/NondetJump payloads are hot-loop cost.
                match &body.instrs[state.pc] {
                    Instr::Assign(place, rv) => {
                        let mut env = LocalEnv { module: self.module, state: &mut state, depth };
                        eval::exec_assign(&mut env, place, rv)?;
                        state.pc += 1;
                    }
                    Instr::Assert(cond) => {
                        let env = LocalEnv { module: self.module, state: &mut state, depth };
                        match eval::eval_cond(&env, cond)? {
                            true => state.pc += 1,
                            false => return Err(Interrupt::Fail),
                        }
                    }
                    Instr::Assume(cond) => {
                        let env = LocalEnv { module: self.module, state: &mut state, depth };
                        match eval::eval_cond(&env, cond)? {
                            true => state.pc += 1,
                            false => break 'path,
                        }
                    }
                    Instr::Call { dest, target, args } => {
                        if !record(&mut visited, &state).map_err(Interrupt::Budget)? {
                            break 'path;
                        }
                        let env = LocalEnv { module: self.module, state: &mut state, depth };
                        let (callee, locals) = bind_call(self.module, &env, *target, args)?;
                        let call_key = Key { func: callee, mem: state.mem.clone(), locals };
                        let call_exits = self.analyze(call_key)?;
                        if call_exits.is_empty() {
                            // Callee never returns (or cycle not yet
                            // resolved): path ends here this round.
                            break 'path;
                        }
                        state.pc += 1;
                        let mut it = call_exits.into_iter();
                        let first = it.next().expect("nonempty checked");
                        for exit in it {
                            let mut alt = state.clone();
                            apply_exit(self.module, &mut alt, depth, dest, exit)?;
                            pending.push(alt);
                        }
                        apply_exit(self.module, &mut state, depth, dest, first)?;
                    }
                    Instr::Async { .. } => {
                        return Err(Interrupt::Runtime(ExecError::AsyncInSequential));
                    }
                    Instr::Return(op) => {
                        let env = LocalEnv { module: self.module, state: &mut state, depth };
                        let ret = op.map(|o| eval::eval_operand(&env, &o)).unwrap_or(Value::Null);
                        let exit = Exit { mem: state.mem.clone(), ret };
                        // `main`'s exit has no caller to read it.
                        if depth > 0 && exit.holds_local_of(depth) {
                            return Err(Interrupt::Budget(BoundReason::Unsupported));
                        }
                        exits.insert(exit);
                        break 'path;
                    }
                    Instr::Jump(target) => {
                        // Cycles always pass through a NondetJump or
                        // Call, which record states; see explicit.rs.
                        state.pc = *target;
                    }
                    Instr::NondetJump(targets) => {
                        if !record(&mut visited, &state).map_err(Interrupt::Budget)? {
                            break 'path;
                        }
                        if targets.is_empty() {
                            break 'path;
                        }
                        for &alt in targets.iter().skip(1).rev() {
                            let mut alt_state = state.clone();
                            alt_state.pc = alt;
                            pending.push(alt_state);
                        }
                        state.pc = targets[0];
                    }
                    Instr::AtomicBegin | Instr::AtomicEnd => state.pc += 1,
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

fn apply_exit(
    module: &Module,
    state: &mut State,
    depth: u32,
    dest: &Option<kiss_lang::hir::Place>,
    exit: Exit,
) -> Result<(), ExecError> {
    state.mem = exit.mem;
    if let Some(dest) = dest {
        let mut env = LocalEnv { module, state, depth };
        let addr = eval::place_addr(&env, dest)?;
        env.write_addr(addr, exit.ret)?;
    }
    Ok(())
}

fn record(visited: &mut VisitedTable, state: &State) -> Result<bool, BoundReason> {
    match visited.insert(state_fingerprint(&state.mem, &state.locals, state.pc)) {
        Ok((_, new)) => Ok(new),
        Err(_) => Err(BoundReason::StateCap),
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
        ];
        for src in corpus {
            let module = Module::lower(parse_and_lower(src).unwrap());
            let explicit = ExplicitChecker::new(&module).check();
            let summary = SummaryChecker::new(&module).check();
            assert_eq!(
                explicit.is_fail(),
                summary.is_fail(),
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
        for src in [write, read] {
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
