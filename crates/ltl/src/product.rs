//! Product exploration: sequentialized program × Büchi automaton.
//!
//! The engine explores product states `(config, büchi-state)` through
//! the bfs engine's breadth-first [`Search`]: configurations
//! fingerprint through [`Config::fingerprint_base`], product
//! fingerprints fold in the automaton state, and the search tree's
//! parent edges name interned segments so a counterexample
//! reconstructs lazily. The engine supplies only the expansion of one
//! product state, plus the full edge list the lasso search needs.
//! Liveness run semantics over the KISS-transformed program:
//!
//! * a *terminated* configuration (empty stack) stutters — the final
//!   state repeats forever, so `G`-type obligations keep being judged
//!   against it;
//! * a false `assume` (or `assert`) **prunes** the path: the
//!   sequentialization uses complementary-arm assumes for every
//!   deterministic branch, so pruned arms are infeasible paths, not
//!   blocked executions — they contribute no infinite run;
//! * the transformation's RAISE truncation arms are **excluded**: they
//!   give safety checking its prefix coverage, but a truncated thread
//!   is an unfinished schedule, not an infinite behavior — keeping them
//!   would refute every eventuality vacuously.
//!
//! A violation is an accepting lasso: a nontrivial SCC of the product
//! graph containing an accepting state. Selection is deterministic
//! (smallest accepting [`StateId`], then shortest cycle by BFS), so the
//! verdict, trace and state counts are the same on every run.

use std::collections::{HashMap, VecDeque};

use kiss_exec::step::{self, Fault, Step};
use kiss_exec::store::{SearchTree, SegId, StateId, VisitedTable};
use kiss_exec::{fingerprint_of, ExecError, Module, TraceStep};
use kiss_obs::{Obs, Span, TraceId};
use kiss_seq::bfs::Search;
use kiss_seq::config::Config;
use kiss_seq::{BoundReason, Budget, CancelToken, EngineStats, ErrorTrace, Meter};
use kiss_lang::hir::Origin;
use kiss_lang::Program;

use crate::ast::{Atom, CmpOp};
use crate::buchi::{Buchi, BuchiState};

/// An atom resolved against a program: the global's index and the
/// optional comparison.
pub type ResolvedAtom = (u32, Option<(CmpOp, i64)>);

/// Resolves formula atoms against a program's globals by name.
/// Unknown names are an error carrying the offending proposition.
pub fn resolve_atoms(program: &Program, atoms: &[Atom]) -> Result<Vec<ResolvedAtom>, String> {
    atoms
        .iter()
        .map(|a| match program.global_by_name(&a.name) {
            Some(g) => Ok((g.0, a.cmp)),
            None => Err(a.name.clone()),
        })
        .collect()
}

/// A concrete liveness counterexample: a finite stem into a cycle that
/// repeats forever. An empty `cycle` means the program *terminated* and
/// its final state stutters (the cycle is the state repeating, with no
/// program steps in it).
#[derive(Debug, Clone, PartialEq)]
pub struct Lasso {
    /// Steps from the initial state to the cycle entry.
    pub stem: Vec<TraceStep>,
    /// Steps around the cycle (empty for a terminal stutter).
    pub cycle: Vec<TraceStep>,
}

/// Outcome of a product exploration.
#[derive(Debug, Clone, PartialEq)]
pub enum LtlVerdict {
    /// No accepting lasso: the formula holds on every (balanced,
    /// budget-permitting) run of the sequentialized program.
    Holds,
    /// An accepting lasso exists; the formula is violated.
    Violated(Lasso),
    /// The search exceeded its budget before completing.
    ResourceBound {
        /// Expansions performed when the budget tripped.
        steps: u64,
        /// Distinct product states recorded.
        states: usize,
        /// Which budget axis tripped.
        reason: BoundReason,
    },
    /// The program performed an operation with undefined semantics.
    RuntimeError(ExecError, ErrorTrace),
}

/// A product state in the search's queue: a configuration and a Büchi
/// state.
type Node = (Config, u32);

/// The product graph beside the search tree: every edge, not just the
/// tree's — lasso detection needs them all — and which states accept.
#[derive(Default)]
struct Graph {
    /// Successor ids per [`StateId`], each with the edge's segment.
    adj: Vec<Vec<(u32, SegId)>>,
    accepting: Vec<bool>,
}

impl Graph {
    /// Adds the state the tree just minted.
    fn add(&mut self, accepting: bool) {
        self.adj.push(Vec::new());
        self.accepting.push(accepting);
    }

    /// Bytes held by the adjacency lists (headers and edges, spare
    /// capacity included) and the accepting flags.
    fn bytes(&self) -> usize {
        self.adj.capacity() * std::mem::size_of::<Vec<(u32, SegId)>>()
            + self.adj.iter().map(Vec::capacity).sum::<usize>()
                * std::mem::size_of::<(u32, SegId)>()
            + self.accepting.capacity() * std::mem::size_of::<bool>()
    }
}

/// The product-exploration checker.
pub struct ProductChecker<'a> {
    module: &'a Module,
    buchi: &'a Buchi,
    atoms: Vec<ResolvedAtom>,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
    trace: TraceId,
    trace_parent: u64,
}

impl<'a> ProductChecker<'a> {
    /// A checker over `module` and the (negated-formula) automaton,
    /// with atoms already resolved against the module's program.
    pub fn new(module: &'a Module, buchi: &'a Buchi, atoms: Vec<ResolvedAtom>) -> Self {
        ProductChecker {
            module,
            buchi,
            atoms,
            budget: Budget::default(),
            cancel: CancelToken::default(),
            obs: Obs::off(),
            trace: TraceId::NONE,
            trace_parent: 0,
        }
    }

    /// Sets the exploration budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Installs a cooperative cancellation token.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches an observer for progress/budget events and the SCC
    /// phase span.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Ignores `jobs`: exploration is always the one serial loop.
    /// Kept only because the `perfbench` package still calls it; the
    /// next benchmark-defining change removes it together with
    /// perfbench's parallel leg.
    #[doc(hidden)]
    pub fn with_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Parents the internal `scc` span under `parent` in `trace`.
    pub fn with_trace(mut self, trace: TraceId, parent: u64) -> Self {
        self.trace = trace;
        self.trace_parent = parent;
        self
    }

    fn label_holds(&self, state: &BuchiState, config: &Config) -> bool {
        let truth = |atom: u32| -> bool {
            let (global, cmp) = self.atoms[atom as usize];
            match config.mem.globals().get(global as usize) {
                None => false,
                Some(v) => match cmp {
                    None => v.truthy(),
                    Some((op, n)) => v.as_int().is_some_and(|i| op.eval(i, n)),
                },
            }
        };
        state.pos.iter().all(|&a| truth(a)) && state.neg.iter().all(|&a| !truth(a))
    }

    /// Expands the product state `id`: executes the single instruction
    /// at its configuration's top frame through kiss-exec's shared
    /// [`step::step`], in place, and pairs each program successor with
    /// every Büchi successor of `q` whose label it satisfies (the
    /// automaton may branch at every step). Two policies differ from
    /// the safety engines: a false `assert` prunes like a false
    /// `assume` — assertion failures are the safety checker's verdict,
    /// and a failed path has no infinite continuation — and RAISE
    /// branch targets are dropped.
    fn expand(
        &self,
        search: &mut Search<Node>,
        graph: &mut Graph,
        (mut config, q): Node,
        id: StateId,
    ) -> Result<Option<LtlVerdict>, BoundReason> {
        let Some((instr, at)) = step::current(self.module, &config.stack) else {
            // Terminated: the final state repeats forever.
            return self.pair(search, graph, (config, q), id, None, std::iter::once(usize::MAX));
        };
        let e = match step::step(&mut config.thread(self.module), instr) {
            Ok(Step::Continue | Step::Finished) => {
                let here = config.stack.last().map_or(usize::MAX, |frame| frame.pc);
                return self.pair(search, graph, (config, q), id, Some(at), std::iter::once(here));
            }
            Ok(Step::Pruned) | Err(Fault::Assert) => return Ok(None),
            Ok(Step::Branch(targets)) => {
                let meta = &self.module.body(at.func).meta;
                // The transformation's RAISE arms truncate a thread
                // mid-run — prefix coverage for safety checking. A
                // truncated thread models an unfinished schedule, not
                // an infinite behavior, so liveness excludes those
                // arms: every started thread runs to completion, and
                // F-obligations are judged only against complete
                // balanced runs.
                let kept = targets.iter().copied().filter(|&t| meta[t].origin != Origin::Raise);
                return self.pair(search, graph, (config, q), id, Some(at), kept);
            }
            // One stack has no second thread to start.
            Ok(Step::Spawn(_)) => ExecError::AsyncInSequential,
            Err(Fault::Exec(e)) => e,
        };
        let mut steps = search.tree.trace_to(id);
        steps.push(at);
        let trace = ErrorTrace { steps, globals: config.mem.globals().to_vec() };
        Ok(Some(LtlVerdict::RuntimeError(e, trace)))
    }

    /// Records the edges from the product state `id` to the stepped
    /// `config`, steered to each of `pcs`, paired with every Büchi
    /// successor of `q` whose label it satisfies. Each edge is
    /// fingerprinted on `config` itself; only a new product state pays
    /// for a clone, and the last one inherits `config`.
    fn pair(
        &self,
        search: &mut Search<Node>,
        graph: &mut Graph,
        (mut config, q): Node,
        id: StateId,
        at: Option<TraceStep>,
        pcs: impl Iterator<Item = usize>,
    ) -> Result<Option<LtlVerdict>, BoundReason> {
        config.debug_assert_digests();
        let base = config.fingerprint_base();
        let mut seg = None;
        let mut pending = None;
        for pc in pcs {
            let (a, b) = base.with_pc(pc);
            for &q2 in &self.buchi.states[q as usize].succs {
                let state = &self.buchi.states[q2 as usize];
                if !self.label_holds(state, &config) {
                    continue;
                }
                let seg = *seg.get_or_insert_with(|| match &at {
                    Some(at) => search.tree.intern(std::slice::from_ref(at)),
                    None => SegId::EMPTY,
                });
                let (child, new) = search.child(fingerprint_of(&(a, b, q2)), id, |_| seg)?;
                graph.adj[id.0 as usize].push((child.0, seg));
                if new {
                    graph.add(state.accepting);
                    if let Some((pc, q2, child)) = pending.replace((pc, q2, child)) {
                        let mut c = config.clone();
                        steer(&mut c, pc);
                        search.push((c, q2), child);
                    }
                }
            }
        }
        if let Some((pc, q2, child)) = pending {
            steer(&mut config, pc);
            search.push((config, q2), child);
        }
        Ok(None)
    }

    /// Runs the product exploration to a verdict plus engine stats.
    pub fn check_with_stats(&self) -> (LtlVerdict, EngineStats) {
        let meter = Meter::new(self.budget, self.cancel.clone())
            .with_observer(self.obs.clone(), "ltl")
            .with_state_size(96);
        let mut search = Search::new(meter, SearchTree::new(VisitedTable::new()));
        let mut graph = Graph::default();
        let root = Config::initial(self.module);
        root.debug_assert_digests();
        let (a, b) = root.fingerprint();
        for &q in &self.buchi.initial {
            let state = &self.buchi.states[q as usize];
            if self.label_holds(state, &root) {
                let (id, new) = search
                    .tree
                    .root(fingerprint_of(&(a, b, q)))
                    .expect("the roots fit an uncapped table");
                if new {
                    graph.add(state.accepting);
                    search.push((root.clone(), q), id);
                }
            }
        }

        let end = search.run(|search, node, id| self.expand(search, &mut graph, node, id));
        let verdict = match end {
            Ok(Some(verdict)) => verdict,
            Err(reason) => LtlVerdict::ResourceBound {
                steps: search.meter.usage.steps,
                states: search.meter.usage.states,
                reason,
            },
            Ok(None) => {
                // Exploration complete: find an accepting lasso. The
                // span carries the SCC/lasso wall time into the trace
                // stream without touching the deterministic stdout.
                let span = Span::open(&self.obs, self.trace, self.trace_parent, "scc");
                let lasso = Self::find_lasso(&graph, &search.tree);
                span.close();
                lasso.map_or(LtlVerdict::Holds, LtlVerdict::Violated)
            }
        };
        let stats = search.stats();
        let stats = EngineStats {
            store_bytes: stats.store_bytes + graph.bytes(),
            product_states: stats.states,
            buchi_states: self.buchi.states.len(),
            ..stats
        };
        (verdict, stats)
    }

    /// Iterative Tarjan SCC + deterministic counterexample selection:
    /// the smallest accepting state inside a nontrivial SCC anchors the
    /// lasso; its cycle is the shortest path back to it within the SCC.
    fn find_lasso(graph: &Graph, tree: &SearchTree) -> Option<Lasso> {
        let Graph { adj, accepting } = graph;
        let n = adj.len();
        const UNSET: u32 = u32::MAX;
        let mut index = vec![UNSET; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut comp = vec![UNSET; n];
        let mut ncomp: u32 = 0;
        let mut counter: u32 = 0;
        let mut call: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if index[root as usize] != UNSET {
                continue;
            }
            index[root as usize] = counter;
            low[root as usize] = counter;
            counter += 1;
            stack.push(root);
            on_stack[root as usize] = true;
            call.push((root, 0));
            while let Some((v, ei)) = call.last_mut() {
                let v = *v;
                if *ei < adj[v as usize].len() {
                    let w = adj[v as usize][*ei].0;
                    *ei += 1;
                    if index[w as usize] == UNSET {
                        index[w as usize] = counter;
                        low[w as usize] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w as usize] = true;
                        call.push((w, 0));
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                } else {
                    call.pop();
                    if let Some((p, _)) = call.last() {
                        let p = *p as usize;
                        low[p] = low[p].min(low[v as usize]);
                    }
                    if low[v as usize] == index[v as usize] {
                        loop {
                            let w = stack.pop().expect("scc stack nonempty");
                            on_stack[w as usize] = false;
                            comp[w as usize] = ncomp;
                            if w == v {
                                break;
                            }
                        }
                        ncomp += 1;
                    }
                }
            }
        }
        let mut size = vec![0u32; ncomp as usize];
        for v in 0..n {
            size[comp[v] as usize] += 1;
        }
        let mut nontrivial: Vec<bool> = size.iter().map(|&s| s >= 2).collect();
        for v in 0..n {
            if adj[v].iter().any(|&(w, _)| w as usize == v) {
                nontrivial[comp[v] as usize] = true;
            }
        }
        let anchor =
            (0..n).find(|&v| accepting[v] && nontrivial[comp[v] as usize])? as u32;

        // Shortest cycle through the anchor, inside its SCC.
        let scc = comp[anchor as usize];
        let mut pred: HashMap<u32, (u32, SegId)> = HashMap::new();
        let mut queue = VecDeque::from([anchor]);
        let cycle_segs = 'search: loop {
            let u = queue.pop_front().expect("anchor SCC is nontrivial, a cycle exists");
            for &(w, seg) in &adj[u as usize] {
                if comp[w as usize] != scc {
                    continue;
                }
                if w == anchor {
                    let mut segs = vec![seg];
                    let mut cur = u;
                    while cur != anchor {
                        let (p, s) = pred[&cur];
                        segs.push(s);
                        cur = p;
                    }
                    segs.reverse();
                    break 'search segs;
                }
                if let std::collections::hash_map::Entry::Vacant(e) = pred.entry(w) {
                    e.insert((u, seg));
                    queue.push_back(w);
                }
            }
        };
        let stem = tree.trace_to(StateId(anchor));
        let mut cycle = Vec::new();
        for &s in &cycle_segs {
            cycle.extend_from_slice(tree.segment(s));
        }
        Some(Lasso { stem, cycle })
    }
}

/// Points `config`'s top frame at `pc`; a terminated configuration
/// has no frame to steer.
fn steer(config: &mut Config, pc: usize) {
    if let Some(frame) = config.stack.last_mut() {
        frame.pc = pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buchi::Buchi;
    use crate::parse::parse;

    fn module(src: &str) -> Module {
        Module::lower(kiss_lang::parse_and_lower(src).expect("sample parses"))
    }

    fn check(src: &str, formula: &str) -> (LtlVerdict, EngineStats) {
        let m = module(src);
        let f = parse(formula).expect("formula parses");
        let b = Buchi::for_negation(&f);
        let atoms = resolve_atoms(&m.program, &b.atoms).expect("atoms resolve");
        ProductChecker::new(&m, &b, atoms).check_with_stats()
    }

    const TERMINATING: &str = "int x; void main() { x = 1; }";
    const SPIN: &str = "int x; void main() { while (x == 0) { skip; } x = 2; }";

    #[test]
    fn eventually_holds_on_a_terminating_run() {
        let (v, stats) = check(TERMINATING, "F (x == 1)");
        assert_eq!(v, LtlVerdict::Holds);
        assert!(stats.product_states > 0 && stats.buchi_states > 0, "{stats:?}");
    }

    #[test]
    fn terminal_state_stutters_into_a_globally_violation() {
        // x becomes 1 and the final state repeats forever, so G (x == 0)
        // is violated by a lasso whose cycle is the empty stutter.
        let (v, _) = check(TERMINATING, "G (x == 0)");
        let LtlVerdict::Violated(lasso) = v else { panic!("expected violation, got {v:?}") };
        assert!(!lasso.stem.is_empty());
        assert!(lasso.cycle.is_empty(), "terminal stutter has no steps: {:?}", lasso.cycle);
    }

    #[test]
    fn spin_loop_violates_eventually_with_a_real_cycle() {
        // The loop never exits (x stays 0), so F (x == 2) fails and the
        // counterexample cycle contains actual loop instructions.
        let (v, _) = check(SPIN, "F (x == 2)");
        let LtlVerdict::Violated(lasso) = v else { panic!("expected violation, got {v:?}") };
        assert!(!lasso.cycle.is_empty(), "spin loop must yield a non-stutter cycle");
    }

    #[test]
    fn spin_loop_satisfies_its_invariant() {
        let (v, _) = check(SPIN, "G (x == 0)");
        assert_eq!(v, LtlVerdict::Holds);
    }

    #[test]
    fn response_property_distinguishes_release_from_deadlock() {
        let releases = "int locked; void main() { locked = 1; locked = 0; }";
        let (v, _) = check(releases, "G (locked -> F !locked)");
        assert_eq!(v, LtlVerdict::Holds);

        let stuck = "int locked; void main() { locked = 1; while (locked == 1) { skip; } }";
        let (v, _) = check(stuck, "G (locked -> F !locked)");
        assert!(matches!(v, LtlVerdict::Violated(_)), "{v:?}");
    }

    #[test]
    fn state_and_memory_budgets_bound_the_product() {
        // A loop through 40 values of g; every value is a product state.
        let src = "int g; void main() { iter { g = g + 1; assume g <= 40; } }";
        let (v, full) = check(src, "G (g <= 40)");
        assert_eq!(v, LtlVerdict::Holds);
        let m = module(src);
        let f = parse("G (g <= 40)").expect("formula");
        let b = Buchi::for_negation(&f);
        let atoms = resolve_atoms(&m.program, &b.atoms).expect("atoms");
        let cap = full.product_states / 2;
        for (budget, axis) in [
            (Budget::steps_states(1_000_000, cap), BoundReason::States),
            (Budget::generous().with_mem_limit(cap * 96), BoundReason::Memory),
        ] {
            let (v, stats) = ProductChecker::new(&m, &b, atoms.clone())
                .with_budget(budget)
                .check_with_stats();
            let LtlVerdict::ResourceBound { reason, states, .. } = v else {
                panic!("{axis:?}: {v:?}")
            };
            assert_eq!(reason, axis);
            // The trip comes right after the node that crossed the cap.
            assert!(states > cap && states < full.product_states, "{states} of {full:?}");
            assert_eq!(stats.states, states);
        }
    }

    #[test]
    fn step_budget_trips_on_the_spin_loop() {
        let m = module(SPIN);
        let f = parse("F (x == 2)").expect("formula");
        let b = Buchi::for_negation(&f);
        let atoms = resolve_atoms(&m.program, &b.atoms).expect("atoms");
        let (v, _) = ProductChecker::new(&m, &b, atoms)
            .with_budget(Budget::steps_states(5, 1_000_000))
            .check_with_stats();
        assert!(
            matches!(v, LtlVerdict::ResourceBound { reason: BoundReason::Steps, .. }),
            "{v:?}"
        );
    }

    #[test]
    fn cancellation_surfaces_as_a_resource_bound() {
        let m = module(SPIN);
        let f = parse("F (x == 2)").expect("formula");
        let b = Buchi::for_negation(&f);
        let atoms = resolve_atoms(&m.program, &b.atoms).expect("atoms");
        let cancel = CancelToken::new();
        cancel.cancel();
        let (v, _) = ProductChecker::new(&m, &b, atoms).with_cancel(cancel).check_with_stats();
        assert!(
            matches!(v, LtlVerdict::ResourceBound { reason: BoundReason::Cancelled, .. }),
            "{v:?}"
        );
    }

    #[test]
    fn unknown_proposition_is_reported_by_name() {
        let m = module(TERMINATING);
        let f = parse("F nope").expect("formula");
        let b = Buchi::for_negation(&f);
        assert_eq!(resolve_atoms(&m.program, &b.atoms), Err("nope".to_string()));
    }
}
