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
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use kiss_exec::Module;
use kiss_obs::Obs;

use crate::budget::{BoundReason, Budget, Meter};
use crate::cancel::CancelToken;
use crate::config::Config;
use crate::stats::EngineStats;
use crate::step::{self, Fault, Step};
use crate::store::{
    trace_to, SegId, SegmentInterner, ShardedVisitedTable, StateCapExceeded, StateId,
    VisitedTable,
};
use crate::verdict::{ErrorTrace, TraceStep, Verdict};

/// The serial search's state storage.
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

    /// The full trace to the node `id` followed by `tail` — rebuilt
    /// lazily, only when a violation is actually reported.
    fn trace(&self, id: StateId, tail: Vec<TraceStep>) -> ErrorTrace {
        let mut steps = trace_to(&self.interner, id, |id| self.parents[id.0 as usize]);
        steps.extend(tail);
        ErrorTrace { steps, globals: Vec::new() }
    }
}

/// The breadth-first checker.
#[derive(Debug, Clone)]
pub struct BfsChecker<'a> {
    module: &'a Module,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
    jobs: usize,
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
            jobs: 1,
            state_cap: None,
        }
    }

    /// Explores with `jobs` worker threads (clamped to at least one).
    /// Results are byte-identical to a serial run regardless of the
    /// worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Caps each visited-table shard (serial: the whole table) at
    /// `cap` entries, surfacing [`BoundReason::StateCap`] when the
    /// search outgrows it. Primarily a testing and hard-memory-ceiling
    /// knob; the default cap is the full id space.
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
        if self.jobs > 1 {
            return self.check_parallel_with_stats();
        }
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
            .insert(root.fingerprint_base().with_pc(root.top_pc()))
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
                SegmentEnd::Error(fault) => {
                    let trace = store.trace(parent_id, std::mem::take(&mut steps));
                    return (fault.verdict(trace), stats(&meter, &store, frontier_peak));
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

    /// The parallel search: layer-synchronous speculation over the
    /// sharded store, followed by a sequential commit walk.
    ///
    /// Each frontier *layer* (all nodes at one branch depth, in serial
    /// discovery order) is speculated by worker threads: every node
    /// runs its segment under a [`Meter::speculative`] derived meter
    /// and inserts its children into the [`ShardedVisitedTable`] under
    /// provisional `(rank, target)` claims. The commit walk then
    /// replays the layer in rank order on the real meter — bulk step
    /// accounting via [`Meter::advance`], claim arbitration via
    /// min-merge (the claim the serial loop would have made first
    /// wins) — and builds the next layer in serial FIFO order.
    /// Verdicts, traces, step counts, and stored-state counts are
    /// byte-identical with `jobs = 1`; only wall-clock-dependent axes
    /// (deadline, cancellation) may observe a different step count.
    fn check_parallel_with_stats(&self) -> (Verdict, EngineStats) {
        let mut meter = Meter::new(self.budget, self.cancel.clone())
            .with_state_size(256)
            .with_observer(self.obs.clone(), "bfs");
        let store: ShardedVisitedTable<Config> = match self.state_cap {
            Some(cap) => ShardedVisitedTable::with_shard_capacity(cap),
            None => ShardedVisitedTable::new(),
        };
        let mut interner = SegmentInterner::new();
        // Every instruction any worker executed, including speculation
        // past the serial stopping point; merged at worker exit.
        let speculated = AtomicU64::new(0);

        let root = Config::initial(self.module);
        let root_fp = root.fingerprint_base().with_pc(root.top_pc());
        let (root_id, _) = store
            .insert_claimed(root_fp, 0, 0)
            .expect("an empty table is never at capacity");
        store.set_parent(root_id, root_id, SegId::EMPTY);
        store.seal();

        // Distinct states committed so far, root included — the serial
        // run's `visited.len()`. On an early exit the sharded table
        // over-contains (speculative inserts past the stopping point),
        // so stats report this count, never `store.len()`.
        let mut committed: usize = 1;
        let mut frontier_peak = 1usize;
        let mut layer: Vec<(StateId, Config)> = vec![(root_id, root)];

        loop {
            if layer.is_empty() {
                let stats =
                    pstats(&meter, committed, frontier_peak, &store, &interner, &speculated);
                return (Verdict::Pass, stats);
            }
            let layer_len = layer.len();
            // Steps the serial run could still execute without
            // tripping. Any segment it completes fits inside this, so
            // a speculative step trip is a definite serial trip.
            let spec_budget = self.budget.max_steps.saturating_sub(meter.usage.steps);
            let results = self.speculate_layer(layer, spec_budget, &store, &meter, &speculated);

            let mut next: Vec<(StateId, Config)> = Vec::new();
            // Children committed from this layer so far; the serial
            // frontier after expanding rank `r` holds the remaining
            // layer nodes plus exactly these.
            let mut layer_children = 0usize;
            for (rank, slot) in results.into_iter().enumerate() {
                let spec = slot.expect("every rank up to a terminal outcome is speculated");
                match spec {
                    Spec::Budget { reason: BoundReason::Steps, .. } => {
                        // The segment cannot finish within what the
                        // whole layer had left, so the serial run
                        // trips inside it, pinned one past the cap.
                        meter.usage.steps = self.budget.max_steps.saturating_add(1);
                        meter.emit_violation(BoundReason::Steps);
                        let stats = pstats(
                            &meter, committed, frontier_peak, &store, &interner, &speculated,
                        );
                        return (meter.bound(BoundReason::Steps), stats);
                    }
                    Spec::Budget { reason, executed } => {
                        // Wall-clock (deadline/cancel) or structural
                        // (state-cap) interruptions: the exact step
                        // count is not serially replayable, report
                        // where this worker stopped.
                        meter.usage.steps = meter.usage.steps.saturating_add(executed);
                        meter.emit_violation(reason);
                        let stats = pstats(
                            &meter, committed, frontier_peak, &store, &interner, &speculated,
                        );
                        return (meter.bound(reason), stats);
                    }
                    Spec::Done { seg_steps } => {
                        if let Err(reason) = meter.advance(seg_steps) {
                            let stats = pstats(
                                &meter, committed, frontier_peak, &store, &interner, &speculated,
                            );
                            return (meter.bound(reason), stats);
                        }
                    }
                    Spec::Error { seg_steps, parent, seg, fault } => {
                        // A step trip strictly before the erroring
                        // instruction wins, exactly like the serial
                        // interleaving of ticks and execution.
                        if let Err(reason) = meter.advance(seg_steps) {
                            let stats = pstats(
                                &meter, committed, frontier_peak, &store, &interner, &speculated,
                            );
                            return (meter.bound(reason), stats);
                        }
                        let mut steps = trace_to(&interner, parent, |id| store.parent(id));
                        steps.extend(seg);
                        let stats = pstats(
                            &meter, committed, frontier_peak, &store, &interner, &speculated,
                        );
                        return (fault.verdict(ErrorTrace { steps, globals: Vec::new() }), stats);
                    }
                    Spec::Branch { seg_steps, parent, seg, children } => {
                        if let Err(reason) = meter.advance(seg_steps) {
                            let stats = pstats(
                                &meter, committed, frontier_peak, &store, &interner, &speculated,
                            );
                            return (meter.bound(reason), stats);
                        }
                        let mut seg_id = None;
                        for (tidx, id) in children.into_iter().enumerate() {
                            if store.claim_of(id) != Some((rank as u32, tidx as u32)) {
                                // A prior-layer revisit, or a lower
                                // rank's claim won this state.
                                continue;
                            }
                            committed += 1;
                            meter.note_states(committed);
                            let sid = *seg_id.get_or_insert_with(|| interner.intern(&seg));
                            store.set_parent(id, parent, sid);
                            let config =
                                store.take_parked(id).expect("a winning entry was parked");
                            next.push((id, config));
                            layer_children += 1;
                        }
                        frontier_peak =
                            frontier_peak.max(layer_len - 1 - rank + layer_children);
                        if let Some(reason) = meter.over_budget() {
                            let stats = pstats(
                                &meter, committed, frontier_peak, &store, &interner, &speculated,
                            );
                            return (meter.bound(reason), stats);
                        }
                    }
                }
            }
            store.seal();
            layer = next;
        }
    }

    /// Speculates one layer with up to `self.jobs` workers: per-worker
    /// deques dealt round-robin by rank (so the low ranks the commit
    /// walk needs first finish early), idle workers stealing from the
    /// back of their neighbours. Returns per-rank outcomes; ranks past
    /// a discovered terminal outcome may be skipped (`None`).
    fn speculate_layer(
        &self,
        layer: Vec<(StateId, Config)>,
        spec_budget: u64,
        store: &ShardedVisitedTable<Config>,
        meter: &Meter,
        speculated: &AtomicU64,
    ) -> Vec<Option<Spec>> {
        let layer_len = layer.len();
        let workers = self.jobs.min(layer_len).max(1);
        let mut deques: Vec<VecDeque<(usize, StateId, Config)>> =
            (0..workers).map(|_| VecDeque::with_capacity(layer_len / workers + 1)).collect();
        for (rank, (id, config)) in layer.into_iter().enumerate() {
            deques[rank % workers].push_back((rank, id, config));
        }
        let deques: Vec<Mutex<VecDeque<(usize, StateId, Config)>>> =
            deques.into_iter().map(Mutex::new).collect();
        let scan = Mutex::new(LayerScan {
            results: (0..layer_len).map(|_| None).collect(),
            prefix: 0,
            prefix_steps: 0,
            stopped: false,
        });
        // Highest rank still worth speculating: once a rank's outcome
        // ends the layer (error, budget, or the committed-step prefix
        // exhausting the budget), higher ranks cannot influence the
        // verdict and workers skip them. Only an optimization — the
        // commit walk never reads past the terminal rank.
        let stop_above = AtomicUsize::new(usize::MAX);

        let run = |widx: usize| {
            let mut executed = 0u64;
            loop {
                // Two statements on purpose: the own-deque guard must
                // drop before stealing, or two workers stealing from
                // each other hold their own lock while waiting for the
                // other's — a deadlock.
                let own = deques[widx].lock().expect("deque lock").pop_front();
                let job = match own {
                    Some(job) => Some(job),
                    None => (1..workers).find_map(|off| {
                        deques[(widx + off) % workers]
                            .lock()
                            .expect("deque lock")
                            .pop_back()
                    }),
                };
                let Some((rank, id, config)) = job else { break };
                if rank > stop_above.load(Ordering::Relaxed) {
                    continue;
                }
                let (spec, steps) = self.speculate(rank, id, config, spec_budget, store, meter);
                executed += steps;
                let mut scan = scan.lock().expect("scan lock");
                scan.results[rank] = Some(spec);
                while !scan.stopped {
                    let p = scan.prefix;
                    let Some(Some(spec)) = scan.results.get(p) else { break };
                    let (add, terminal) = match spec {
                        Spec::Budget { .. } => (0, true),
                        Spec::Error { seg_steps, .. } => (*seg_steps, true),
                        Spec::Done { seg_steps } | Spec::Branch { seg_steps, .. } => {
                            (*seg_steps, false)
                        }
                    };
                    scan.prefix_steps += add;
                    scan.prefix += 1;
                    if terminal || scan.prefix_steps > spec_budget {
                        scan.stopped = true;
                        stop_above.fetch_min(p, Ordering::Relaxed);
                    }
                }
            }
            speculated.fetch_add(executed, Ordering::Relaxed);
        };

        if workers == 1 {
            run(0);
        } else {
            std::thread::scope(|s| {
                for w in 0..workers {
                    let run = &run;
                    s.spawn(move || run(w));
                }
            });
        }
        scan.into_inner().expect("scan lock").results
    }

    /// Runs one layer node speculatively: executes its segment on a
    /// derived meter and, at a branch, inserts the successor states
    /// under `(rank, target)` claims, parking a configuration for each
    /// state this call created. Returns the outcome and the number of
    /// instructions actually executed.
    fn speculate(
        &self,
        rank: usize,
        id: StateId,
        config: Config,
        spec_budget: u64,
        store: &ShardedVisitedTable<Config>,
        meter: &Meter,
    ) -> (Spec, u64) {
        let mut spec_meter = meter.speculative(spec_budget);
        let mut seg: Vec<TraceStep> = Vec::with_capacity(64);
        match self.run_segment(config, &mut spec_meter, &mut seg) {
            SegmentEnd::Budget(reason) => {
                let executed = spec_meter.usage.steps;
                (Spec::Budget { reason, executed }, executed)
            }
            SegmentEnd::Done => {
                let executed = spec_meter.usage.steps;
                (Spec::Done { seg_steps: executed }, executed)
            }
            SegmentEnd::Error(fault) => {
                let executed = spec_meter.usage.steps;
                (Spec::Error { seg_steps: executed, parent: id, seg, fault }, executed)
            }
            SegmentEnd::Branch(mut config, targets) => {
                let executed = spec_meter.usage.steps;
                // Same pending-shift as the serial path: each new
                // state the *creator* parks a clone for, except the
                // last, which inherits the parked config.
                let base = config.fingerprint_base();
                let mut children = Vec::with_capacity(targets.len());
                let mut pending: Option<(usize, StateId)> = None;
                for (tidx, &t) in targets.iter().enumerate() {
                    let afp = base.with_pc(t);
                    match store.insert_claimed(afp, rank as u32, tidx as u32) {
                        Err(StateCapExceeded) => {
                            return (
                                Spec::Budget { reason: BoundReason::StateCap, executed },
                                executed,
                            )
                        }
                        Ok((cid, created)) => {
                            children.push(cid);
                            if created {
                                if let Some((pt, pid)) = pending.replace((t, cid)) {
                                    let mut c = config.clone();
                                    c.stack.last_mut().expect("nonempty").pc = pt;
                                    store.park(pid, c);
                                }
                            }
                        }
                    }
                }
                if let Some((pt, pid)) = pending {
                    config.stack.last_mut().expect("nonempty").pc = pt;
                    store.park(pid, config);
                }
                (Spec::Branch { seg_steps: executed, parent: id, seg, children }, executed)
            }
        }
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
            let Some((instr, at)) = step::current(self.module, &config) else {
                return SegmentEnd::Done;
            };
            if let Err(reason) = meter.tick() {
                return SegmentEnd::Budget(reason);
            }
            steps.push(at);
            match step::step(self.module, &mut config, instr) {
                Ok(Step::Continue) => {}
                Ok(Step::Finished | Step::Pruned) => return SegmentEnd::Done,
                // Hand the parked config back; the caller steers its pc
                // through the targets, cloning only new states.
                Ok(Step::Branch(targets)) => return SegmentEnd::Branch(config, targets),
                Err(fault) => return SegmentEnd::Error(fault),
            }
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
    /// An assertion failure or runtime error; the verdict's trace ends
    /// with the caller's scratch buffer.
    Error(Fault),
    /// Out of budget, with the axis that tripped.
    Budget(BoundReason),
}

/// One layer node's speculative outcome, consumed by the commit walk.
enum Spec {
    /// Segment finished; only its step count is observable.
    Done { seg_steps: u64 },
    /// Segment errored after `seg_steps` instructions; `seg` is the
    /// trace tail from the layer node `parent`.
    Error { seg_steps: u64, parent: StateId, seg: Vec<TraceStep>, fault: Fault },
    /// Segment reached a branch; `children` are the claimed successor
    /// ids in target order (winners are decided at commit).
    Branch { seg_steps: u64, parent: StateId, seg: Vec<TraceStep>, children: Vec<StateId> },
    /// The speculative meter tripped after `executed` instructions, or
    /// a visited shard hit its capacity.
    Budget { reason: BoundReason, executed: u64 },
}

/// Shared progress over one layer's speculation: per-rank outcomes
/// plus a scan of the contiguous finished prefix, used to stop
/// speculating past a rank that ends the layer.
struct LayerScan {
    results: Vec<Option<Spec>>,
    /// Ranks `0..prefix` all have outcomes.
    prefix: usize,
    /// Sum of the finished prefix's committed step counts.
    prefix_steps: u64,
    /// A terminal outcome sits inside the prefix; stop scanning.
    stopped: bool,
}

/// Statistics for the parallel search. `committed` (not the sharded
/// table's length) is the serial-equivalent state count: on an early
/// exit the table also holds uncommitted speculative inserts.
fn pstats(
    meter: &Meter,
    committed: usize,
    frontier_peak: usize,
    store: &ShardedVisitedTable<Config>,
    interner: &SegmentInterner,
    speculated: &AtomicU64,
) -> EngineStats {
    EngineStats {
        steps: meter.usage.steps,
        states: committed,
        frontier_peak,
        states_stored: committed,
        store_bytes: store.bytes() + interner.bytes(),
        speculative_steps: speculated.load(Ordering::Relaxed).max(meter.usage.steps),
        ..EngineStats::default()
    }
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

    /// Programs exercising every outcome the parallel engine has to
    /// replicate: pass, fail (minimal-depth trace), runtime error
    /// paths, wide layers, and call-crossing branches.
    const PARALLEL_CORPUS: &[&str] = &[
        "int g; void main() { g = 1; assert g == 1; }",
        "int g; void main() { g = 1; assert g == 2; }",
        "int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }",
        "int g; void main() { iter { g = g + 1; assume g <= 3; } assert g <= 3; }",
        "int g; void main() { iter { g = g + 1; assume g <= 3; } assert g < 3; }",
        "int g;
         int pick() { choice { return 1; [] return 2; } }
         void main() { int x; x = pick(); g = x; assert g == 1; }",
        "int g;
         void main() {
             choice {
                 iter { g = g + 1; assume g <= 30; }
                 g = 99;
             []
                 g = 99;
             }
             assert g != 99;
         }",
        "int a; int b; int c;
         void main() {
             choice { a = 1; [] a = 2; [] a = 3; [] a = 4; }
             choice { b = 1; [] b = 2; [] b = 3; [] b = 4; }
             iter { c = c + a; assume c <= 40; }
             assert c + b <= 60;
         }",
        "int a; int b; int c;
         void main() {
             choice { a = 1; [] a = 2; [] a = 3; [] a = 4; }
             choice { b = 1; [] b = 2; [] b = 3; [] b = 4; }
             iter { c = c + a; assume c <= 40; }
             assert c + b <= 20;
         }",
    ];

    #[test]
    fn parallel_exploration_is_byte_identical_to_serial() {
        for &src in PARALLEL_CORPUS {
            let m = module(src);
            let (sv, ss) = BfsChecker::new(&m).check_with_stats();
            for jobs in [2, 4, 8] {
                let (pv, ps) = BfsChecker::new(&m).with_jobs(jobs).check_with_stats();
                // Full verdict equality covers traces byte-for-byte.
                assert_eq!(sv, pv, "verdicts diverge on {src} at jobs={jobs}");
                assert_eq!(ss.steps, ps.steps, "steps diverge on {src} at jobs={jobs}");
                assert_eq!(ss.states, ps.states, "states diverge on {src} at jobs={jobs}");
                assert_eq!(ss.paths, ps.paths, "paths diverge on {src} at jobs={jobs}");
                assert_eq!(
                    ss.frontier_peak, ps.frontier_peak,
                    "frontier diverges on {src} at jobs={jobs}"
                );
                assert_eq!(
                    ss.states_stored, ps.states_stored,
                    "stored diverge on {src} at jobs={jobs}"
                );
                assert!(
                    ps.speculative_steps >= ps.steps,
                    "speculation under-counts on {src} at jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn parallel_budget_trips_match_serial_exactly() {
        // Steps, states, and memory axes are deterministic: the trip
        // point, reported step count, and state count must all match.
        let budgets = [
            Budget::steps_states(50, 1_000_000),
            Budget::steps_states(5_000, 200),
            Budget::steps_states(1_000_000, 8),
        ];
        let m = module("int g; void main() { iter { g = g + 1; } }");
        for budget in budgets {
            let (sv, ss) =
                BfsChecker::new(&m).with_budget(budget).check_with_stats();
            assert!(sv.is_inconclusive(), "{sv:?}");
            for jobs in [2, 4] {
                let (pv, ps) = BfsChecker::new(&m)
                    .with_budget(budget)
                    .with_jobs(jobs)
                    .check_with_stats();
                assert_eq!(sv, pv, "trip verdicts diverge at jobs={jobs}");
                assert_eq!(ss.steps, ps.steps, "trip steps diverge at jobs={jobs}");
                assert_eq!(ss.states, ps.states, "trip states diverge at jobs={jobs}");
            }
        }
    }

    #[test]
    fn parallel_state_cap_is_typed_and_not_retryable() {
        // 31 distinct states across 16 shards: with one slot per
        // shard, some shard must overflow (and in serial, the single
        // table overflows immediately).
        let m = module("int g; void main() { iter { g = g + 1; assume g <= 30; } }");
        for checker in [
            BfsChecker::new(&m).with_state_cap(1),
            BfsChecker::new(&m).with_state_cap(1).with_jobs(4),
        ] {
            let v = checker.check();
            let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
            assert_eq!(reason, BoundReason::StateCap);
            assert!(!reason.retryable(), "a structural cap must not trigger retries");
        }
    }

    #[test]
    fn parallel_observes_cancellation_and_deadline() {
        let m = module("int g; void main() { iter { g = g + 1; } }");
        let cancel = CancelToken::new();
        cancel.cancel();
        let v = BfsChecker::new(&m).with_jobs(4).with_cancel(cancel).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Cancelled);

        let budget = Budget::generous().with_deadline(std::time::Duration::ZERO);
        let v = BfsChecker::new(&m).with_jobs(4).with_budget(budget).check();
        let Verdict::ResourceBound { reason, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::Deadline);
    }

    #[test]
    fn serial_state_cap_reports_typed_inconclusive() {
        let m = module("int g; void main() { choice { g = 1; [] g = 2; } assert g == 1; }");
        let v = BfsChecker::new(&m).with_state_cap(1).check();
        let Verdict::ResourceBound { reason, states, .. } = v else { panic!("{v:?}") };
        assert_eq!(reason, BoundReason::StateCap);
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
