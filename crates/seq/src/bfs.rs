//! Breadth-first variant of the explicit-state checker: finds a
//! counterexample of **minimal branch depth**.
//!
//! The DFS engine ([`crate::explicit`]) returns the first error it
//! stumbles into, which can be needlessly long; model checkers like
//! SLAM put effort into short traces because humans read them. This
//! engine explores configurations in breadth-first order over
//! *decision points* (nondeterministic branches and loop entries) and
//! reconstructs the trace through a parent map.
//!
//! The BFS frontier stores whole configurations, so it trades memory
//! for trace quality; prefer the DFS engine for pure verdicts.
//!
//! The state store keys an open-addressing [`VisitedTable`] on **split
//! fingerprints** (the shared part of a branch's alternatives is hashed
//! once, each alternative finishes in O(1)), indexes the parent map by
//! dense [`StateId`]s, and interns the per-edge trace segments — the
//! `schedule()` preambles repeat heavily, so an owned segment per edge
//! would store the same steps once per edge instead of once per
//! distinct segment.

use std::collections::VecDeque;

use kiss_exec::step::{self, Fault, Step};
use kiss_exec::store::{trace_to, SegId, SegmentInterner, StateCapExceeded, StateId, VisitedTable};
use kiss_exec::{ExecError, Module, TraceStep, Value};
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter};
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::stats::EngineStats;
use crate::verdict::{ErrorTrace, Verdict};

/// The search's state storage.
struct Store {
    visited: VisitedTable,
    /// Parent edge per [`StateId`]; the root is its own parent — the
    /// reconstruction walk's termination sentinel.
    parents: Vec<(StateId, SegId)>,
    /// The trace segments the parent edges name.
    interner: SegmentInterner,
}

impl Store {
    /// Exact bytes held by visited + parent storage.
    fn bytes(&self) -> usize {
        self.visited.bytes()
            + self.parents.capacity() * std::mem::size_of::<(StateId, SegId)>()
            + self.interner.bytes()
    }

    /// The full trace to the node `id` followed by `tail`, ending with
    /// the failing configuration's `globals` — rebuilt lazily, only
    /// when a violation is actually reported.
    fn trace(&self, id: StateId, tail: Vec<TraceStep>, globals: Vec<Value>) -> ErrorTrace {
        let mut steps = trace_to(&self.interner, id, |id| self.parents[id.0 as usize]);
        steps.extend(tail);
        ErrorTrace { steps, globals }
    }
}

/// The breadth-first checker.
#[derive(Debug, Clone)]
pub struct BfsChecker<'a> {
    module: &'a Module,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
    state_cap: Option<u32>,
}

impl<'a> BfsChecker<'a> {
    /// Creates a checker over a lowered module.
    pub fn new(module: &'a Module) -> Self {
        BfsChecker {
            module,
            budget: Budget::default(),
            cancel: CancelToken::default(),
            obs: Obs::off(),
            state_cap: None,
        }
    }

    /// Ignores `jobs`: exploration is always the one serial loop.
    /// Kept only because the `perfbench` package still calls it; the
    /// next benchmark-defining change removes it together with
    /// perfbench's parallel leg.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Caps the visited table at `cap` entries, surfacing
    /// [`BoundReason::StateCap`] when the search outgrows it. Primarily
    /// a testing and hard-memory-ceiling knob; the default cap is the
    /// full id space.
    pub fn with_state_cap(mut self, cap: u32) -> Self {
        self.state_cap = Some(cap);
        self
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

    /// Runs the check; a `Fail` verdict carries a minimal-depth trace.
    pub fn check(&self) -> Verdict {
        self.check_with_stats().0
    }

    /// Runs the check, also returning statistics.
    pub fn check_with_stats(&self) -> (Verdict, EngineStats) {
        // The frontier stores whole configurations; charge a coarse
        // per-state estimate well above a bare fingerprint.
        let mut meter = Meter::new(self.budget, self.cancel.clone())
            .with_state_size(256)
            .with_observer(self.obs.clone(), "bfs");
        let mut frontier_peak = 1usize;
        let root = Config::initial(self.module);
        let mut visited = match self.state_cap {
            Some(cap) => VisitedTable::new().with_capacity_limit(cap),
            None => VisitedTable::new(),
        };
        let (root_id, _) = visited
            .insert(root.fingerprint())
            .expect("an empty table is never at capacity");
        let mut store = Store {
            visited,
            parents: vec![(root_id, SegId::EMPTY)],
            interner: SegmentInterner::new(),
        };
        let mut frontier: VecDeque<(Config, StateId)> = VecDeque::from([(root, root_id)]);

        let stats = |meter: &Meter, store: &Store, frontier_peak: usize| EngineStats {
            steps: meter.usage.steps,
            states: store.visited.len(),
            frontier_peak,
            states_stored: store.visited.len(),
            store_bytes: store.bytes(),
            speculative_steps: meter.usage.steps,
            ..EngineStats::default()
        };

        // Segment steps accumulate into one scratch buffer reused
        // across segments instead of a fresh allocation per segment.
        let mut steps: Vec<TraceStep> = Vec::with_capacity(64);
        while let Some((config, parent_id)) = frontier.pop_front() {
            // Run the segment to the next decision point (or to an
            // end), collecting its steps.
            match self.run_segment(config, &mut meter, &mut steps) {
                SegmentEnd::Budget(reason) => {
                    return (meter.bound(reason), stats(&meter, &store, frontier_peak))
                }
                SegmentEnd::Error(fault, globals) => {
                    let trace = store.trace(parent_id, std::mem::take(&mut steps), globals);
                    return (Verdict::of_fault(fault, trace), stats(&meter, &store, frontier_peak));
                }
                SegmentEnd::Done => {}
                SegmentEnd::Branch(mut config, targets) => {
                    // The config is parked on its NondetJump; the
                    // alternatives differ only in the top pc, so each
                    // is fingerprinted *before* it exists — by steering
                    // the parked config's pc — and only genuinely new
                    // states pay for a clone. The shared part is hashed
                    // once; the edge segment is interned only when some
                    // alternative is new; the last new alternative
                    // inherits the parked config instead of cloning it.
                    let base = config.fingerprint_base();
                    let mut seg = None;
                    let mut pending = None;
                    let mut capped = false;
                    for &t in targets {
                        let afp = base.with_pc(t);
                        let (id, new) = match store.visited.insert(afp) {
                            Ok(entry) => entry,
                            Err(StateCapExceeded) => {
                                capped = true;
                                break;
                            }
                        };
                        if new {
                            meter.note_states(store.visited.len());
                            debug_assert_eq!(store.parents.len(), id.0 as usize);
                            let seg = *seg.get_or_insert_with(|| store.interner.intern(&steps));
                            store.parents.push((parent_id, seg));
                            if let Some((pt, pid)) = pending.replace((t, id)) {
                                let mut c = config.clone();
                                c.stack.last_mut().expect("nonempty").pc = pt;
                                frontier.push_back((c, pid));
                            }
                        }
                    }
                    if let Some((pt, pid)) = pending {
                        config.stack.last_mut().expect("nonempty").pc = pt;
                        frontier.push_back((config, pid));
                    }
                    if capped {
                        // The id space is structural: retrying with a
                        // larger budget cannot widen it, so the typed
                        // reason marks this non-retryable.
                        meter.emit_violation(BoundReason::StateCap);
                        let stats = stats(&meter, &store, frontier_peak);
                        return (meter.bound(BoundReason::StateCap), stats);
                    }
                    frontier_peak = frontier_peak.max(frontier.len());
                }
            }
            if let Some(reason) = meter.over_budget() {
                return (meter.bound(reason), stats(&meter, &store, frontier_peak));
            }
        }
        (Verdict::Pass, stats(&meter, &store, frontier_peak))
    }

    /// Runs deterministically until the next NondetJump (returning the
    /// parked configuration), an error, an end, or the budget. The
    /// executed steps land in `steps` (cleared first), which the caller
    /// reuses across segments.
    fn run_segment(
        &self,
        mut config: Config,
        meter: &mut Meter,
        steps: &mut Vec<TraceStep>,
    ) -> SegmentEnd<'a> {
        steps.clear();
        loop {
            let Some((instr, at)) = step::current(self.module, &config.stack) else {
                return SegmentEnd::Done;
            };
            if let Err(reason) = meter.tick() {
                return SegmentEnd::Budget(reason);
            }
            steps.push(at);
            let fault = match step::step(&mut config.thread(self.module), instr) {
                Ok(Step::Continue) => continue,
                Ok(Step::Finished | Step::Pruned) => return SegmentEnd::Done,
                // Hand the parked config back; the caller steers its pc
                // through the targets, cloning only new states.
                Ok(Step::Branch(targets)) => return SegmentEnd::Branch(config, targets),
                // One stack has no second thread to start.
                Ok(Step::Spawn(_)) => ExecError::AsyncInSequential.into(),
                Err(fault) => fault,
            };
            return SegmentEnd::Error(fault, config.mem.globals.to_vec());
        }
    }
}

enum SegmentEnd<'m> {
    /// Segment finished (termination or pruned assume).
    Done,
    /// Hit a nondeterministic branch: the configuration parked on its
    /// `NondetJump`, and the jump's targets. The segment's steps are in
    /// the caller's scratch buffer.
    Branch(Config, &'m [usize]),
    /// An assertion failure or runtime error, with the globals at the
    /// failure (race reports read the first access's site from them);
    /// the verdict's trace ends with the caller's scratch buffer.
    Error(Fault, Vec<Value>),
    /// Out of budget, with the axis that tripped.
    Budget(BoundReason),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::ExplicitChecker;
    use kiss_exec::Instr;
    use kiss_lang::parse_and_lower;

    fn module(src: &str) -> Module {
        Module::lower(parse_and_lower(src).unwrap())
    }

    #[test]
    fn agrees_with_dfs_on_verdicts() {
        let corpus = [
            ("int g; void main() { g = 1; assert g == 1; }", false),
            ("int g; void main() { g = 1; assert g == 2; }", true),
            ("int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }", true),
            ("int g; void main() { iter { g = g + 1; assume g <= 3; } assert g <= 3; }", false),
            ("int g; void main() { iter { g = g + 1; assume g <= 3; } assert g < 3; }", true),
        ];
        for (src, fails) in corpus {
            let m = module(src);
            let bfs = BfsChecker::new(&m).check();
            let dfs = ExplicitChecker::new(&m).check();
            assert_eq!(bfs.is_fail(), fails, "bfs on {src}: {bfs:?}");
            assert_eq!(dfs.is_fail(), fails, "dfs on {src}: {dfs:?}");
        }
    }

    #[test]
    fn finds_a_trace_no_longer_than_dfs() {
        // The bug is reachable immediately via the second branch, but a
        // DFS taking first branches first wanders through the loop.
        let src = "
            int g;
            void main() {
                choice {
                    iter { g = g + 1; assume g <= 30; }
                    g = 99;
                []
                    g = 99;
                }
                assert g != 99;
            }
        ";
        let m = module(src);
        let Verdict::Fail(bfs_trace) = BfsChecker::new(&m).check() else { panic!("bfs") };
        let Verdict::Fail(dfs_trace) = ExplicitChecker::new(&m).check() else { panic!("dfs") };
        assert!(
            bfs_trace.steps.len() <= dfs_trace.steps.len(),
            "bfs {} vs dfs {}",
            bfs_trace.steps.len(),
            dfs_trace.steps.len()
        );
        // And the BFS trace is genuinely short: straight to the second
        // branch.
        assert!(bfs_trace.steps.len() < 12, "{}", bfs_trace.steps.len());
    }

    #[test]
    fn reconstructed_trace_ends_at_the_assert() {
        let src = "int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }";
        let m = module(src);
        let Verdict::Fail(trace) = BfsChecker::new(&m).check() else { panic!() };
        let last = trace.steps.last().unwrap();
        assert!(matches!(m.body(last.func).instrs[last.pc], Instr::Assert(_)));
        // The trace starts at pc 0 of main.
        assert_eq!(trace.steps.first().unwrap().pc, 0);
    }

    #[test]
    fn budget_trips() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let v = BfsChecker::new(&m).with_budget(Budget::steps_states(5_000, 200)).check();
        assert!(v.is_inconclusive(), "{v:?}");
    }

    #[test]
    fn cancellation_is_observed() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let cancel = CancelToken::new();
        cancel.cancel();
        let v = BfsChecker::new(&m).with_cancel(cancel).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Cancelled);
    }

    #[test]
    fn expired_deadline_reports_deadline() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let budget = Budget::generous().with_deadline(std::time::Duration::ZERO);
        let v = BfsChecker::new(&m).with_budget(budget).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Deadline);
    }

    #[test]
    fn budget_trips_on_each_deterministic_axis() {
        // Steps, states and the memory estimate are machine-independent:
        // a budget trips on the same axis at the same counts every run.
        let m = module("int g; void main() { iter { g = g + 1; } }");
        for (budget, axis, at) in [
            (Budget::steps_states(50, 1_000_000), BoundReason::Steps, (51, 27)),
            (Budget::steps_states(5_000, 200), BoundReason::States, (396, 201)),
            (Budget::steps_states(1_000_000, 8), BoundReason::States, (12, 9)),
            (Budget::generous().with_mem_limit(8 * 256), BoundReason::Memory, (12, 9)),
        ] {
            let (v, stats) = BfsChecker::new(&m).with_budget(budget).check_with_stats();
            let Verdict::ResourceBound { reason, steps, states } = v else { panic!("{v:?}") };
            assert_eq!(reason, axis, "{budget:?}");
            assert_eq!((steps, states), at, "{budget:?}");
            assert_eq!((stats.steps, stats.states), at, "{budget:?}");
            let again = BfsChecker::new(&m).with_budget(budget).check_with_stats();
            assert_eq!(again, (v, stats), "{budget:?}");
        }
    }

    #[test]
    fn serial_state_cap_reports_typed_inconclusive() {
        let m = module("int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }");
        let v = BfsChecker::new(&m).with_state_cap(1).check();
        let Verdict::ResourceBound { reason, states, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::StateCap);
        assert!(!reason.retryable(), "a structural cap must not trigger retries");
        assert!(states <= 1, "nothing past the cap is stored");
    }

    #[test]
    fn works_through_calls() {
        let src = "
            int g;
            int pick() { choice { return 1; [] return 2; } }
            void main() { int x; x = pick(); g = x; assert g == 1; }
        ";
        let m = module(src);
        assert!(BfsChecker::new(&m).check().is_fail());
    }
}
