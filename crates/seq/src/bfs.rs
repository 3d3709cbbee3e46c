//! Breadth-first search: the one loop of the breadth-first engines, and
//! the breadth-first checker, which finds a counterexample of **minimal
//! branch depth**.
//!
//! The DFS engine ([`crate::explicit`]) returns the first error it
//! stumbles into, which can be needlessly long; model checkers like
//! SLAM put effort into short traces because humans read them. This
//! engine explores configurations in breadth-first order over
//! *decision points* (nondeterministic branches and loop entries). Its
//! queue stores whole configurations, trading memory for trace
//! quality; prefer the DFS engine for pure verdicts.
//!
//! [`Search`] owns the loop over a [`SearchTree`]; an engine supplies
//! only the expansion of one node. [`BfsChecker`] runs a segment to its
//! next branch and fingerprints the alternatives on **split
//! fingerprints** (the shared part is hashed once, each alternative
//! finishes in O(1)); the LTL product (`kiss-ltl`) steps one
//! instruction and pairs it with a Büchi automaton.

use std::collections::VecDeque;

use kiss_exec::step::{self, Fault, Step};
use kiss_exec::store::{SearchTree, SegId, StateCapExceeded, StateId, VisitedTable};
use kiss_exec::{ExecError, Module, TraceStep, Value};
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter};
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::stats::EngineStats;
use crate::verdict::{ErrorTrace, Verdict};

/// A breadth-first search over nodes of type `N`, each queued with the
/// [`StateId`] of its state in the tree.
pub struct Search<N> {
    /// One step per expansion (an expansion that executes more
    /// instructions ticks the rest itself), and the tree's size.
    pub meter: Meter,
    /// Every state found, with the edge to it from its parent.
    pub tree: SearchTree,
    queue: VecDeque<(N, StateId)>,
    /// The longest the queue grew.
    pub frontier_peak: usize,
}

impl<N> Search<N> {
    /// A search with an empty queue over `tree`; mint its roots with
    /// [`SearchTree::root`] and queue them with [`Search::push`].
    pub fn new(meter: Meter, tree: SearchTree) -> Self {
        Search { meter, tree, queue: VecDeque::new(), frontier_peak: 0 }
    }

    /// Queues `node`, the state `id`.
    #[inline]
    pub fn push(&mut self, node: N, id: StateId) {
        self.queue.push_back((node, id));
        self.frontier_peak = self.frontier_peak.max(self.queue.len());
    }

    /// Records `fp` as reached from `parent` (see [`SearchTree::child`])
    /// and counts a new state against the budget. A full tree is
    /// [`BoundReason::StateCap`], which no larger budget widens.
    #[inline]
    pub fn child(
        &mut self,
        fp: (u64, u64),
        parent: StateId,
        seg: impl FnOnce(&mut SearchTree) -> SegId,
    ) -> Result<(StateId, bool), BoundReason> {
        match self.tree.child(fp, parent, seg) {
            Ok((id, new)) => {
                if new {
                    self.meter.note_states(self.tree.len());
                }
                Ok((id, new))
            }
            Err(StateCapExceeded) => {
                self.meter.emit_violation(BoundReason::StateCap);
                Err(BoundReason::StateCap)
            }
        }
    }

    /// Expands queued nodes in FIFO order until the queue runs dry
    /// (`Ok(None)`), an expansion finds what the engine reports
    /// (`Ok(Some)`), or the budget trips — checked before each
    /// expansion by one [`Meter::tick`] and after it for the states it
    /// added.
    pub fn run<T>(
        &mut self,
        mut expand: impl FnMut(&mut Self, N, StateId) -> Result<Option<T>, BoundReason>,
    ) -> Result<Option<T>, BoundReason> {
        while let Some((node, id)) = self.queue.pop_front() {
            self.meter.tick()?;
            if let Some(found) = expand(self, node, id)? {
                return Ok(Some(found));
            }
            if let Some(reason) = self.meter.over_budget() {
                return Err(reason);
            }
        }
        Ok(None)
    }

    /// The statistics every breadth-first engine reports.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            steps: self.meter.usage.steps,
            states: self.tree.len(),
            frontier_peak: self.frontier_peak,
            states_stored: self.tree.len(),
            store_bytes: self.tree.bytes(),
            speculative_steps: self.meter.usage.steps,
            ..EngineStats::default()
        }
    }
}

/// The breadth-first checker.
#[derive(Debug, Clone)]
pub struct BfsChecker<'a> {
    module: &'a Module,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
}

impl<'a> BfsChecker<'a> {
    /// Creates a checker over a lowered module.
    pub fn new(module: &'a Module) -> Self {
        BfsChecker {
            module,
            budget: Budget::default(),
            cancel: CancelToken::default(),
            obs: Obs::off(),
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
        // The queue stores whole configurations; charge a coarse
        // per-state estimate well above a bare fingerprint.
        let meter = Meter::new(self.budget, self.cancel.clone())
            .with_state_size(256)
            .with_observer(self.obs.clone(), "bfs");
        let mut search = Search::new(meter, SearchTree::new(VisitedTable::new()));
        let root = Config::initial(self.module);
        root.debug_assert_digests();
        let (root_id, _) =
            search.tree.root(root.fingerprint()).expect("an empty table is never at capacity");
        search.push(root, root_id);
        // Segment steps accumulate into one scratch buffer reused
        // across segments instead of a fresh allocation per segment.
        let mut steps: Vec<TraceStep> = Vec::with_capacity(64);
        let end = search.run(|search, config, id| self.expand(search, config, id, &mut steps));
        let verdict = match end {
            Ok(found) => found.unwrap_or(Verdict::Pass),
            Err(reason) => search.meter.bound(reason),
        };
        (verdict, search.stats())
    }

    /// Runs the segment from the node `id` to its next decision point
    /// and queues the branch's new alternatives.
    fn expand(
        &self,
        search: &mut Search<Config>,
        config: Config,
        id: StateId,
        steps: &mut Vec<TraceStep>,
    ) -> Result<Option<Verdict>, BoundReason> {
        match self.run_segment(config, &mut search.meter, steps) {
            SegmentEnd::Done => Ok(None),
            SegmentEnd::Budget(reason) => Err(reason),
            SegmentEnd::Error(fault, globals) => {
                let mut trace = search.tree.trace_to(id);
                trace.append(steps);
                Ok(Some(Verdict::of_fault(fault, ErrorTrace { steps: trace, globals })))
            }
            SegmentEnd::Branch(mut config, targets) => {
                // The config is parked on its NondetJump; the
                // alternatives differ only in the top pc, so each is
                // fingerprinted *before* it exists — by steering the
                // parked config's pc — and only genuinely new states pay
                // for a clone. The shared part is hashed once; the edge
                // segment is interned only when some alternative is new;
                // the last new alternative inherits the parked config
                // instead of cloning it.
                config.debug_assert_digests();
                let base = config.fingerprint_base();
                let steps = &*steps;
                let mut seg = None;
                let mut pending = None;
                for &t in targets {
                    let intern =
                        |tree: &mut SearchTree| *seg.get_or_insert_with(|| tree.intern(steps));
                    let (child, new) = search.child(base.with_pc(t), id, intern)?;
                    if new {
                        if let Some((pt, pid)) = pending.replace((t, child)) {
                            let mut c = config.clone();
                            c.stack.last_mut().expect("nonempty").pc = pt;
                            search.push(c, pid);
                        }
                    }
                }
                if let Some((pt, pid)) = pending {
                    config.stack.last_mut().expect("nonempty").pc = pt;
                    search.push(config, pid);
                }
                Ok(None)
            }
        }
    }

    /// Runs deterministically until the next NondetJump (returning the
    /// parked configuration), an error, an end, or the budget. The
    /// executed steps land in `steps` (cleared first), which the caller
    /// reuses across segments. The search loop has charged the first
    /// instruction; each one after it ticks here.
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
            steps.push(at);
            let fault = match step::step(&mut config.thread(self.module), instr) {
                // A continuing thread has an instruction to run next.
                Ok(Step::Continue) => match meter.tick() {
                    Ok(()) => continue,
                    Err(reason) => return SegmentEnd::Budget(reason),
                },
                Ok(Step::Finished | Step::Pruned) => return SegmentEnd::Done,
                // Hand the parked config back; the caller steers its pc
                // through the targets, cloning only new states.
                Ok(Step::Branch(targets)) => return SegmentEnd::Branch(config, targets),
                // One stack has no second thread to start.
                Ok(Step::Spawn(_)) => ExecError::AsyncInSequential.into(),
                Err(fault) => fault,
            };
            return SegmentEnd::Error(fault, config.mem.globals().to_vec());
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
    fn a_full_tree_stops_the_search_on_the_state_cap() {
        let agg = kiss_obs::Aggregator::new();
        let meter = Meter::new(Budget::generous(), CancelToken::new())
            .with_observer(Obs::new(agg.clone()).with_label("t"), "t");
        let tree = SearchTree::new(VisitedTable::new().with_capacity_limit(2));
        let mut search: Search<u64> = Search::new(meter, tree);
        let (root, _) = search.tree.root((0, 0)).unwrap();
        search.push(0, root);
        // Each node has two children; the third state overflows the
        // tree.
        let end = search.run(|search, n, id| {
            for child in [2 * n + 1, 2 * n + 2] {
                let (cid, new) = search.child((child, child), id, |_| SegId::EMPTY)?;
                if new {
                    search.push(child, cid);
                }
            }
            Ok(None::<()>)
        });
        let Err(reason) = end else { panic!("{end:?}") };
        assert_eq!(reason, BoundReason::StateCap);
        assert!(!reason.retryable(), "a structural cap must not trigger retries");
        assert_eq!(search.tree.len(), 2, "nothing past the cap is stored");
        assert_eq!(search.meter.usage.states, 2);
        assert_eq!(agg.event_counts().get("budget_violated"), Some(&1));
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
