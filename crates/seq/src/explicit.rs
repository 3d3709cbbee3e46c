//! Explicit-state sequential model checker.
//!
//! Depth-first search over whole configurations (globals + heap + call
//! stack) with visited-state fingerprinting. Sound and complete for
//! finite-state sequential programs; budget-bounded otherwise. This is
//! the engine KISS feeds the sequentialized program to, playing the
//! role SLAM plays in the paper's Figure 1.
//!
//! The search keeps one configuration and changes it in place. Every
//! write is recorded in an [`UndoLog`], and a pending alternative is only
//! the pc it resumes at plus the trace and log lengths at its branch:
//! resuming it undoes the log back to that length and sets the pc, as
//! SPIN's depth-first search restores states by undoing transitions.
//! No configuration is ever copied. The log holds the changes along
//! the current path, so it is bounded by the step budget.
//!
//! A state is recorded before every `Call` and `NondetJump`, through
//! [`Config::fingerprint`]. Memory and frames keep their digests
//! current on every write, so recording costs O(frames).
//!
//! At a branch, an alternative whose first instruction is an `assume`
//! already false is accounted without running it: it would cost one
//! step and end its path. The search accounts it in DFS order instead,
//! inline when it comes before the first live alternative, else as a
//! dead entry on the pending stack, so steps, states and paths are
//! those of running it.

use kiss_exec::eval::eval_cond;
use kiss_exec::step::{self, Step};
use kiss_exec::store::{StateCapExceeded, VisitedTable};
use kiss_exec::{ExecError, Instr, Module, TraceStep, UndoLog};
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter};
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::stats::EngineStats;
use crate::verdict::{ErrorTrace, Verdict};

/// The explicit-state checker.
#[derive(Debug, Clone)]
pub struct ExplicitChecker<'a> {
    module: &'a Module,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
}

impl<'a> ExplicitChecker<'a> {
    /// Creates a checker over a lowered module.
    pub fn new(module: &'a Module) -> Self {
        ExplicitChecker {
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

    /// Installs a cancellation token polled from the search loop.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches an observer; the search emits throttled progress and
    /// budget-violation events through it.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Runs the check to the first assertion failure, runtime error,
    /// exhaustion of the state space, or budget trip.
    pub fn check(&self) -> Verdict {
        self.check_with_stats().0
    }

    /// Like [`ExplicitChecker::check`], also returning search
    /// statistics.
    pub fn check_with_stats(&self) -> (Verdict, EngineStats) {
        let mut search = Search {
            module: self.module,
            meter: Meter::new(self.budget, self.cancel.clone())
                .with_observer(self.obs.clone(), "explicit"),
            visited: VisitedTable::new(),
            config: Config::initial(self.module),
            log: UndoLog::new(),
            trace: Vec::with_capacity(256),
            pending: {
                // The first path: `main` from its entry.
                let mut pending = Vec::with_capacity(32);
                pending.push((Some(0), 0, 0));
                pending
            },
            paths: 0,
            frontier_peak: 1,
        };
        let verdict = search.run();
        let usage = search.meter.usage;
        let stats = EngineStats {
            steps: usage.steps,
            states: usage.states,
            paths: search.paths,
            frontier_peak: search.frontier_peak,
            states_stored: search.visited.len(),
            store_bytes: search.visited.bytes(),
            ..EngineStats::default()
        };
        (verdict, stats)
    }
}

struct Search<'a> {
    module: &'a Module,
    meter: Meter,
    visited: VisitedTable,
    /// The one configuration, changed in place.
    config: Config,
    /// Every change to `config` along the current path.
    log: UndoLog,
    trace: Vec<TraceStep>,
    /// Alternatives left to run: the top frame's pc to resume at
    /// (`None` for a dead alternative), and the trace and undo-log
    /// lengths at their branch.
    pending: Vec<(Option<usize>, usize, usize)>,
    paths: u64,
    frontier_peak: usize,
}

enum PathEnd {
    /// Path finished without error (termination, prune, or revisit).
    Done,
    /// An error ends the whole search.
    Stop(Verdict),
}

impl Search<'_> {
    fn run(&mut self) -> Verdict {
        while let Some((alt, trace_len, log_len)) = self.pending.pop() {
            self.trace.truncate(trace_len);
            let end = match alt {
                Some(pc) => {
                    self.config.undo_to(&mut self.log, log_len);
                    self.config.stack.last_mut().expect("nonempty").pc = pc;
                    self.run_path()
                }
                None => self.run_dead(),
            };
            match end {
                PathEnd::Done => self.paths += 1,
                PathEnd::Stop(v) => return v,
            }
        }
        Verdict::Pass
    }

    /// Records the current state's fingerprint; `Ok(false)` if it was
    /// already visited (path should be pruned), `Err` when the store's
    /// id space ran out (the search stops as inconclusive).
    fn record(&mut self) -> Result<bool, Verdict> {
        self.config.debug_assert_digests();
        match self.visited.insert(self.config.fingerprint()) {
            Ok((_, true)) => {
                self.meter.note_states(self.visited.len());
                Ok(true)
            }
            Ok((_, false)) => Ok(false),
            Err(StateCapExceeded) => Err(self.meter.bound(BoundReason::StateCap)),
        }
    }

    /// Accounts a dead alternative as running it would: its `assume`
    /// costs one step and prunes the path.
    fn run_dead(&mut self) -> PathEnd {
        match self.meter.tick() {
            Ok(()) => PathEnd::Done,
            Err(reason) => PathEnd::Stop(self.meter.bound(reason)),
        }
    }

    /// Runs the current configuration to the end of its path, pushing
    /// alternatives onto `self.pending` at nondeterministic branch
    /// points.
    fn run_path(&mut self) -> PathEnd {
        let module = self.module;
        loop {
            let Some((instr, at)) = step::current(module, &self.config.stack) else {
                return PathEnd::Done; // program finished
            };
            if let Err(reason) = self.meter.tick() {
                return PathEnd::Stop(self.meter.bound(reason));
            }
            self.trace.push(at);
            // States are recorded before calls and branches only: every
            // cycle in lowered code passes through a NondetJump (the
            // `iter` header) or a Call.
            if matches!(instr, Instr::Call { .. } | Instr::NondetJump(_)) {
                match self.record() {
                    Ok(true) => {}
                    Ok(false) => return PathEnd::Done,
                    Err(v) => return PathEnd::Stop(v),
                }
            }
            let mut env = self.config.thread(module).with_undo(&mut self.log);
            let fault = match step::step(&mut env, instr) {
                Ok(Step::Continue) => continue,
                Ok(Step::Finished | Step::Pruned) => return PathEnd::Done,
                Ok(Step::Branch(targets)) => {
                    if targets.is_empty() {
                        return PathEnd::Done; // no branch: dead end
                    }
                    // This path goes on with the first live alternative
                    // (or the first one, when all are dead); the dead
                    // ones before it run and end here.
                    let go = targets
                        .iter()
                        .position(|&pc| !is_dead(module, &mut self.config, pc))
                        .unwrap_or(0);
                    for _ in 0..go {
                        match self.run_dead() {
                            PathEnd::Done => self.paths += 1,
                            stop => return stop,
                        }
                    }
                    let rest = &targets[go + 1..];
                    self.pending.reserve(rest.len());
                    let (trace_len, log_len) = (self.trace.len(), self.log.len());
                    for &alt in rest.iter().rev() {
                        let live = !is_dead(module, &mut self.config, alt);
                        self.pending.push((live.then_some(alt), trace_len, log_len));
                    }
                    self.frontier_peak = self.frontier_peak.max(self.pending.len() + 1);
                    self.config.stack.last_mut().expect("nonempty").pc = targets[go];
                    continue;
                }
                // One stack has no second thread to start.
                Ok(Step::Spawn(_)) => ExecError::AsyncInSequential.into(),
                Err(fault) => fault,
            };
            return PathEnd::Stop(Verdict::of_fault(fault, self.snapshot()));
        }
    }

    fn snapshot(&self) -> ErrorTrace {
        ErrorTrace { steps: self.trace.clone(), globals: self.config.mem.globals().to_vec() }
    }
}

/// Whether the alternative at `pc` of the top frame starts with an
/// `assume` that is false in `config`. One that cannot be evaluated is
/// live: running it reports the fault.
fn is_dead(module: &Module, config: &mut Config, pc: usize) -> bool {
    let func = config.stack.last().expect("nonempty").func;
    match &module.body(func).instrs[pc] {
        Instr::Assume(cond) => eval_cond(&config.thread(module), cond) == Ok(false),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn check(src: &str) -> Verdict {
        let module = Module::lower(parse_and_lower(src).unwrap());
        ExplicitChecker::new(&module).check()
    }

    #[test]
    fn passing_program_passes() {
        assert!(check("int g; void main() { g = 1; assert g == 1; }").is_pass());
    }

    #[test]
    fn failing_assert_is_found() {
        let v = check("int g; void main() { g = 1; assert g == 2; }");
        assert!(v.is_fail(), "{v:?}");
    }

    #[test]
    fn failure_hidden_behind_choice_is_found() {
        let v = check("int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }");
        assert!(v.is_fail());
    }

    #[test]
    fn assume_prunes_paths() {
        // Both branches assign, but the failing branch is pruned by an
        // assume.
        let v = check(
            "int g; bool c; void main() { c = false; choice { assume c; g = 2; [] assume !c; g = 1; } assert g == 1; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn iter_explores_bounded_loops() {
        // g can be incremented any number of times; assert g < 3 must
        // fail on the path with 3 iterations.
        let v = check("int g; void main() { iter { g = g + 1; assume g <= 3; } assert g < 3; }");
        assert!(v.is_fail());
    }

    #[test]
    fn revisited_states_are_pruned_so_infinite_loops_terminate() {
        // Without state hashing this loop never terminates: g toggles
        // between 0 and 1 forever.
        let v = check("int g; void main() { iter { g = 1 - g; } assert g <= 1; }");
        assert!(v.is_pass());
    }

    #[test]
    fn calls_bind_parameters_and_return_values() {
        let v = check(
            "int add(int a, int b) { int r; r = a + b; return r; }
             void main() { int x; x = add(2, 3); assert x == 5; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn recursion_terminates_via_state_hashing_or_fails() {
        // Finite-state recursion: f flips g then recurses; states
        // repeat, so the search terminates.
        let v = check(
            "bool g; void f() { g = !g; if (g) { f(); } }
             void main() { f(); assert !g || g; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn indirect_calls_resolve_through_variables() {
        let v = check(
            "int g; void work() { g = 9; }
             void main() { fn f; f = work; f(); assert g == 9; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn calling_null_is_a_runtime_error() {
        let v = check("void main() { fn f; f(); }");
        assert!(matches!(v, Verdict::RuntimeError(kiss_exec::ExecError::NotAFunction { .. }, _)), "{v:?}");
    }

    #[test]
    fn async_is_rejected_sequentially() {
        let v = check("void w() { skip; } void main() { async w(); }");
        assert!(matches!(v, Verdict::RuntimeError(kiss_exec::ExecError::AsyncInSequential, _)));
    }

    #[test]
    fn budget_trips_on_unbounded_counting() {
        let module = Module::lower(
            parse_and_lower("int g; void main() { iter { g = g + 1; } assert g >= 0; }").unwrap(),
        );
        let v = ExplicitChecker::new(&module)
            .with_budget(Budget::steps_states(10_000, 500))
            .check();
        assert!(v.is_inconclusive(), "{v:?}");
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert!(matches!(reason, crate::budget::BoundReason::Steps | crate::budget::BoundReason::States));
    }

    #[test]
    fn pre_cancelled_token_stops_before_searching() {
        let module = Module::lower(
            parse_and_lower("int g; void main() { iter { g = g + 1; } assert g >= 0; }").unwrap(),
        );
        let cancel = crate::cancel::CancelToken::new();
        cancel.cancel();
        let (v, stats) = ExplicitChecker::new(&module).with_cancel(cancel).check_with_stats();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, crate::budget::BoundReason::Cancelled);
        // The very first tick observes the flag.
        assert_eq!(stats.steps, 1);
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let module = Module::lower(
            parse_and_lower("int g; void main() { iter { g = g + 1; } assert g >= 0; }").unwrap(),
        );
        let budget = Budget::generous().with_deadline(std::time::Duration::ZERO);
        let v = ExplicitChecker::new(&module).with_budget(budget).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, crate::budget::BoundReason::Deadline);
    }

    #[test]
    fn error_trace_leads_to_the_assert() {
        let src = "int g; void main() { g = 1; g = 2; assert g == 1; }";
        let module = Module::lower(parse_and_lower(src).unwrap());
        let v = ExplicitChecker::new(&module).check();
        let Verdict::Fail(trace) = v else { panic!("expected failure") };
        // Last step is the assert itself.
        let last = trace.steps.last().unwrap();
        let body = module.body(module.program.main);
        assert!(matches!(body.instrs[last.pc], Instr::Assert(_)));
        // Trace contains both assignments before it.
        assert!(trace.steps.len() >= 3);
    }

    #[test]
    fn heap_state_is_part_of_the_search() {
        let v = check(
            "struct D { int x; }
             void main() {
                D *a;
                D *b;
                a = malloc(D);
                b = malloc(D);
                a->x = 1;
                b->x = 2;
                assert a->x == 1;
                assert b->x == 2;
             }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn stats_count_steps_and_states() {
        let module =
            Module::lower(parse_and_lower("int g; void main() { choice { g = 1; [] g = 2; } }").unwrap());
        let (v, stats) = ExplicitChecker::new(&module).check_with_stats();
        assert!(v.is_pass());
        assert!(stats.steps > 0);
        assert!(stats.states > 0);
        assert_eq!(stats.paths, 2);
    }

    #[test]
    fn while_loop_with_condition_is_exact() {
        let v = check(
            "int g; void main() { int i; i = 0; while (i < 4) { i = i + 1; g = g + 2; } assert g == 8; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn dead_assume_after_while_exit() {
        let v = check("void main() { int i; while (i < 2) { i = i + 1; } assert i == 2; }");
        assert!(v.is_pass(), "{v:?}");
    }
}

#[cfg(test)]
mod pointer_tests {
    use super::*;
    use crate::budget::Budget;
    use kiss_lang::parse_and_lower;

    fn check(src: &str) -> Verdict {
        let module = Module::lower(parse_and_lower(src).unwrap());
        ExplicitChecker::new(&module).with_budget(Budget::small()).check()
    }

    #[test]
    fn address_of_local_passed_to_callee_is_writable() {
        // The callee writes through a pointer into the caller's frame.
        let v = check(
            "void set(int *p) { *p = 9; }
             void main() { int x; int *q; q = &x; set(q); assert x == 9; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn pointer_into_popped_frame_is_dangling() {
        // mk() returns the address of its own local; any later
        // dereference is a runtime error, not silent garbage.
        let v = check(
            "int g;
             int *mk() { int x; int *p; x = 5; p = &x; return p; }
             void main() { int *q; int v; q = mk(); v = *q; g = v; }",
        );
        assert!(
            matches!(v, Verdict::RuntimeError(kiss_exec::ExecError::DanglingLocal, _)),
            "{v:?}"
        );
    }

    #[test]
    fn call_result_can_target_a_heap_field() {
        let v = check(
            "struct D { int x; }
             int five() { return 5; }
             void main() { D *e; e = malloc(D); e->x = five(); assert e->x == 5; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn deref_destination_of_call_result() {
        let v = check(
            "int g;
             int five() { return 5; }
             void main() { int *p; p = &g; *p = five(); assert g == 5; }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn chained_function_pointers() {
        let v = check(
            "int g;
             void a() { g = g + 1; }
             void b() { g = g + 10; }
             void main() {
                fn f;
                choice { f = a; [] f = b; }
                f();
                assert g == 1 || g == 10;
             }",
        );
        assert!(v.is_pass(), "{v:?}");
    }

    #[test]
    fn assume_on_nonbool_is_a_type_error() {
        let v = check("int g; void main() { assume g; }");
        assert!(matches!(v, Verdict::RuntimeError(kiss_exec::ExecError::TypeMismatch { .. }, _)), "{v:?}");
    }
}
