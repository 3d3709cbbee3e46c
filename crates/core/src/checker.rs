//! The end-to-end KISS pipeline (the paper's Figure 1).
//!
//! `concurrent program → instrumentation → sequential program →
//! sequential checker → error trace → concurrent error trace`.
//!
//! [`Kiss`] bundles the transformation configuration, the sequential
//! engine and its budget, error-trace back-mapping, and (optionally)
//! *validation*: replaying the back-mapped schedule pattern on the
//! original concurrent program with `kiss-conc` to confirm the error is
//! real — an executable witness of the paper's "never reports false
//! errors" guarantee.

use kiss_exec::Module;
use kiss_lang::hir::Origin;
use kiss_lang::Program;
use kiss_obs::{Obs, Span, TraceId};
use kiss_seq::{
    BfsChecker, BoundReason, Budget, CancelToken, EngineStats, ErrorTrace, ExplicitChecker,
    SummaryChecker, Verdict,
};

use crate::trace_map::{self, MappedTrace};
use crate::transform::{transform, RaceSite, RaceTarget, TransformConfig, TransformError, Transformed};

/// Which sequential engine analyzes the transformed program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Explicit-state DFS (full error traces; the default).
    #[default]
    Explicit,
    /// Summary-based interprocedural engine (verdicts only).
    Summary,
    /// Breadth-first engine (minimal-depth error traces).
    Bfs,
}

impl Engine {
    /// A stable lowercase name (used in events and reports).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Explicit => "explicit",
            Engine::Summary => "summary",
            Engine::Bfs => "bfs",
        }
    }

    /// Parses [`Engine::name`] output (the `--engine` flag values and
    /// the serve protocol's `engine` field).
    pub fn parse(s: &str) -> Option<Engine> {
        match s {
            "explicit" => Some(Engine::Explicit),
            "summary" => Some(Engine::Summary),
            "bfs" => Some(Engine::Bfs),
            _ => None,
        }
    }
}

/// Search statistics for one check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// The engine that produced these statistics.
    pub engine: Engine,
    /// The engine's own counters (steps, states, frontier peak, …).
    pub seq: EngineStats,
    /// Race checks emitted after pruning (race mode).
    pub checks_emitted: usize,
    /// Race checks removed by the alias analysis (race mode), counted
    /// over the code `main` reaches only; `kissc race --stats` prints
    /// it as `pruned=`.
    pub checks_pruned: usize,
}

impl CheckStats {
    /// Instructions executed by the sequential engine.
    pub fn steps(&self) -> u64 {
        self.seq.steps
    }

    /// Distinct states recorded (summaries for the summary engine).
    pub fn states(&self) -> usize {
        self.seq.states
    }
}

/// A confirmed assertion violation.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReport {
    /// The reconstructed concurrent execution.
    pub mapped: MappedTrace,
    /// `Some(true)` if the schedule pattern reproduced the failure on
    /// the original concurrent program; `None` if validation was
    /// disabled or the engine produced no trace.
    pub validated: Option<bool>,
    /// Engine statistics.
    pub stats: CheckStats,
}

/// A violated liveness property: a concrete infinite run of the
/// sequentialized program on which the LTL formula fails, reported as
/// a finite stem into a repeating cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct LivenessReport {
    /// The formula that was checked (pretty-printed).
    pub formula: String,
    /// Steps from the initial state to the cycle entry.
    pub stem: Vec<kiss_exec::TraceStep>,
    /// Steps around the repeating cycle. Empty when the violating run
    /// is a terminated execution whose final state repeats forever.
    pub cycle: Vec<kiss_exec::TraceStep>,
    /// Engine statistics.
    pub stats: CheckStats,
}

/// A detected race condition on the distinguished location.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// The first access (recorded by the instrumentation).
    pub first: RaceSite,
    /// The second, conflicting access (where the assertion fired).
    pub second: RaceSite,
    /// The reconstructed concurrent execution.
    pub mapped: MappedTrace,
    /// Engine statistics.
    pub stats: CheckStats,
}

/// The outcome of a KISS check.
#[derive(Debug, Clone, PartialEq)]
pub enum KissOutcome {
    /// The sequential search completed without finding an error. By
    /// Theorem 1 this means no *balanced* execution (within the `ts`
    /// bound) goes wrong; other interleavings may still err.
    NoErrorFound(CheckStats),
    /// A user assertion can fail.
    AssertionViolation(ErrorReport),
    /// Conflicting accesses to the distinguished location exist.
    RaceDetected(RaceReport),
    /// An LTL liveness property is violated by a concrete lasso
    /// (stem + repeating cycle) of the sequentialized program.
    LivenessViolated(LivenessReport),
    /// The search exceeded its budget — the paper's "resource bound
    /// exceeded" bucket in Table 1.
    Inconclusive {
        /// Statistics at the point the budget tripped.
        stats: CheckStats,
        /// Which budget axis ended the search (steps, states, deadline,
        /// memory, or cancellation).
        reason: BoundReason,
    },
    /// The program has a runtime error (ill-typed operation).
    RuntimeError(String),
    /// The transformation itself failed.
    TransformFailed(TransformError),
}

impl KissOutcome {
    /// `true` for any error-finding outcome.
    pub fn found_error(&self) -> bool {
        matches!(
            self,
            KissOutcome::AssertionViolation(_)
                | KissOutcome::RaceDetected(_)
                | KissOutcome::LivenessViolated(_)
        )
    }

    /// `true` for [`KissOutcome::NoErrorFound`].
    pub fn is_clean(&self) -> bool {
        matches!(self, KissOutcome::NoErrorFound(_))
    }

    /// `true` for [`KissOutcome::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, KissOutcome::Inconclusive { .. })
    }

    /// The engine statistics, when the check got far enough to have
    /// any.
    pub fn stats(&self) -> Option<&CheckStats> {
        match self {
            KissOutcome::NoErrorFound(stats) => Some(stats),
            KissOutcome::AssertionViolation(report) => Some(&report.stats),
            KissOutcome::RaceDetected(report) => Some(&report.stats),
            KissOutcome::LivenessViolated(report) => Some(&report.stats),
            KissOutcome::Inconclusive { stats, .. } => Some(stats),
            KissOutcome::RuntimeError(_) | KissOutcome::TransformFailed(_) => None,
        }
    }

    /// A stable lowercase verdict name (used in events and reports).
    pub fn verdict_str(&self) -> &'static str {
        match self {
            KissOutcome::NoErrorFound(_) => "pass",
            KissOutcome::AssertionViolation(_) => "assertion",
            KissOutcome::RaceDetected(_) => "race",
            KissOutcome::LivenessViolated(_) => "liveness",
            KissOutcome::Inconclusive { .. } => "inconclusive",
            KissOutcome::RuntimeError(_) => "runtime_error",
            KissOutcome::TransformFailed(_) => "transform_failed",
        }
    }
}

/// A check request that could not even start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// The race spec named no global or `Struct.field` in the program.
    UnknownRaceSpec {
        /// The spec as given.
        spec: String,
    },
    /// An LTL proposition named no global in the program.
    UnknownProposition {
        /// The proposition as given.
        name: String,
    },
}

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckError::UnknownRaceSpec { spec } => {
                write!(f, "race spec `{spec}` names no global or Struct.field in the program")
            }
            CheckError::UnknownProposition { name } => {
                write!(f, "proposition `{name}` names no global in the program")
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// The KISS checker.
#[derive(Debug, Clone)]
pub struct Kiss {
    max_ts: usize,
    budget: Budget,
    alias_prune: bool,
    validate: bool,
    engine: Engine,
    cancel: CancelToken,
    obs: Obs,
    trace: TraceId,
    trace_parent: u64,
}

impl Default for Kiss {
    fn default() -> Self {
        Kiss::new()
    }
}

impl Kiss {
    /// A checker with `MAX = 0`, the default budget, alias pruning and
    /// validation enabled.
    pub fn new() -> Self {
        Kiss {
            max_ts: 0,
            budget: Budget::default(),
            alias_prune: true,
            validate: true,
            engine: Engine::Explicit,
            cancel: CancelToken::default(),
            obs: Obs::off(),
            trace: TraceId::NONE,
            trace_parent: 0,
        }
    }

    /// Sets `MAX`, the `ts` multiset bound (the coverage knob).
    pub fn with_max_ts(mut self, max_ts: usize) -> Self {
        self.max_ts = max_ts;
        self
    }

    /// Sets the sequential engine's budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Enables or disables alias-based check pruning.
    pub fn with_alias_prune(mut self, on: bool) -> Self {
        self.alias_prune = on;
        self
    }

    /// Enables or disables concurrent-replay validation of reported
    /// errors.
    pub fn with_validation(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Selects the sequential engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Ignores `jobs`: every check explores in one serial loop. Kept
    /// only because the `perfbench` package still calls it; the next
    /// benchmark-defining change removes it together with perfbench's
    /// parallel leg.
    #[doc(hidden)]
    pub fn with_explore_jobs(self, _jobs: usize) -> Self {
        self
    }

    /// Installs a cancellation token threaded through to the sequential
    /// engine's inner loop. Cancelling mid-check yields
    /// [`KissOutcome::Inconclusive`] with
    /// [`BoundReason::Cancelled`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches an observer; the sequential engine emits throttled
    /// progress and budget-violation events through it. The default
    /// observer is off and costs nothing.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Threads a trace id through the check: every check brackets its
    /// transform, lower, and explore phases with spans parented under
    /// `parent` in that trace, so a request's phase breakdown is
    /// reconstructible from the event stream. With the default
    /// [`TraceId::NONE`] a fresh trace is minted per check (when the
    /// observer is on); `parent` 0 makes the phases root spans.
    pub fn with_trace(mut self, trace: TraceId, parent: u64) -> Self {
        self.trace = trace;
        self.trace_parent = parent;
        self
    }

    /// Checks the user assertions of a concurrent program
    /// (Figure 4 instrumentation).
    pub fn check_assertions(&self, program: &Program) -> KissOutcome {
        let cfg = TransformConfig { max_ts: self.max_ts, race: None, alias_prune: self.alias_prune };
        self.run(program, &cfg)
    }

    /// Checks for races on the distinguished location (Figure 5
    /// instrumentation). User assertions remain active.
    pub fn check_race(&self, program: &Program, target: RaceTarget) -> KissOutcome {
        let cfg = TransformConfig {
            max_ts: self.max_ts,
            race: Some(target),
            alias_prune: self.alias_prune,
        };
        self.run(program, &cfg)
    }

    /// Checks for races on a `"global"` or `"Struct.field"` spec.
    pub fn check_race_spec(&self, program: &Program, spec: &str) -> Option<KissOutcome> {
        RaceTarget::resolve(program, spec).map(|t| self.check_race(program, t))
    }

    /// Like [`Kiss::check_race_spec`], but an unresolvable spec is a
    /// typed error instead of `None` — callers running corpora report
    /// it per-field rather than aborting.
    pub fn try_check_race_spec(
        &self,
        program: &Program,
        spec: &str,
    ) -> Result<KissOutcome, CheckError> {
        self.check_race_spec(program, spec)
            .ok_or_else(|| CheckError::UnknownRaceSpec { spec: spec.to_string() })
    }

    /// Checks an LTL formula over the program's globals against every
    /// balanced run of the sequentialized program (within the `ts`
    /// bound): the negated formula becomes a Büchi automaton and the
    /// product with the transformed program is explored for an
    /// accepting lasso. Terminated runs stutter in their final state;
    /// pruned (`assume`-false) paths contribute no run. The `--engine`
    /// selection does not apply — liveness always uses the product
    /// engine — but budget, cancellation and observer do.
    pub fn check_ltl(
        &self,
        program: &Program,
        formula: &kiss_ltl::Formula,
    ) -> Result<KissOutcome, CheckError> {
        let cfg = TransformConfig { max_ts: self.max_ts, race: None, alias_prune: self.alias_prune };
        let trace = if self.trace.is_none() && self.obs.is_enabled() {
            TraceId::fresh()
        } else {
            self.trace
        };
        let phase = |name| Span::open(&self.obs, trace, self.trace_parent, name);
        let span = phase("transform");
        let mut info = match transform(program, &cfg) {
            Ok(t) => t,
            Err(e) => return Ok(KissOutcome::TransformFailed(e)),
        };
        span.close();
        let span = phase("buchi");
        let buchi = kiss_ltl::Buchi::for_negation(formula);
        span.close();
        let span = phase("lower");
        let module = Module::lower(std::mem::take(&mut info.program));
        span.close();
        // Transformation only appends instrumentation globals, so user
        // globals keep their ids — resolving against the transformed
        // program indexes the product configurations correctly.
        let atoms = kiss_ltl::resolve_atoms(&module.program, &buchi.atoms)
            .map_err(|name| CheckError::UnknownProposition { name })?;
        let span = phase("explore");
        let (verdict, seq) = kiss_ltl::ProductChecker::new(&module, &buchi, atoms)
            .with_budget(self.budget)
            .with_cancel(self.cancel.clone())
            .with_observer(self.obs.clone())
            .with_trace(trace, self.trace_parent)
            .check_with_stats();
        span.close();
        // The product engine runs the BFS engine's search over a
        // bigger state space; it reports under the same engine label.
        let stats = CheckStats {
            engine: Engine::Bfs,
            seq,
            checks_emitted: info.checks_emitted,
            checks_pruned: info.checks_pruned,
        };
        Ok(match verdict {
            kiss_ltl::LtlVerdict::Holds => KissOutcome::NoErrorFound(stats),
            kiss_ltl::LtlVerdict::ResourceBound { reason, .. } => {
                KissOutcome::Inconclusive { stats, reason }
            }
            kiss_ltl::LtlVerdict::RuntimeError(e, _) => KissOutcome::RuntimeError(e.to_string()),
            kiss_ltl::LtlVerdict::Violated(lasso) => {
                KissOutcome::LivenessViolated(LivenessReport {
                    formula: formula.to_string(),
                    stem: lasso.stem,
                    cycle: lasso.cycle,
                    stats,
                })
            }
        })
    }

    fn run(&self, program: &Program, cfg: &TransformConfig) -> KissOutcome {
        // A standalone check (no caller-supplied trace) still gets a
        // coherent phase tree when the observer is on.
        let trace = if self.trace.is_none() && self.obs.is_enabled() {
            TraceId::fresh()
        } else {
            self.trace
        };
        let phase = |name| Span::open(&self.obs, trace, self.trace_parent, name);
        let span = phase("transform");
        let mut info = match transform(program, cfg) {
            Ok(t) => t,
            Err(e) => return KissOutcome::TransformFailed(e),
        };
        span.close();
        // `lower` keeps the program inside the module, so hand it over
        // instead of cloning; `report` only reads the id/slot fields.
        let span = phase("lower");
        let module = Module::lower(std::mem::take(&mut info.program));
        span.close();
        let span = phase("explore");
        let (verdict, seq) = match self.engine {
            Engine::Explicit => ExplicitChecker::new(&module)
                .with_budget(self.budget)
                .with_cancel(self.cancel.clone())
                .with_observer(self.obs.clone())
                .check_with_stats(),
            Engine::Summary => SummaryChecker::new(&module)
                .with_budget(self.budget)
                .with_cancel(self.cancel.clone())
                .with_observer(self.obs.clone())
                .check_with_stats(),
            Engine::Bfs => BfsChecker::new(&module)
                .with_budget(self.budget)
                .with_cancel(self.cancel.clone())
                .with_observer(self.obs.clone())
                .check_with_stats(),
        };
        span.close();
        let stats = CheckStats {
            engine: self.engine,
            seq,
            checks_emitted: info.checks_emitted,
            checks_pruned: info.checks_pruned,
        };
        match verdict {
            Verdict::Pass => KissOutcome::NoErrorFound(stats),
            Verdict::ResourceBound { reason, .. } => KissOutcome::Inconclusive { stats, reason },
            Verdict::RuntimeError(e, _) => KissOutcome::RuntimeError(e.to_string()),
            Verdict::Fail(trace) => self.report(program, &module, &info, trace, stats),
        }
    }

    fn report(
        &self,
        program: &Program,
        module: &Module,
        info: &Transformed,
        trace: ErrorTrace,
        stats: CheckStats,
    ) -> KissOutcome {
        let mapped = trace_map::map_trace(module, info, &trace);
        // Race or user assertion? The failing step's provenance tells.
        let failing_origin = trace.steps.last().map(|s| s.origin);
        let is_race = failing_origin == Some(Origin::Check)
            || trace
                .steps
                .last()
                .map(|s| Some(s.func) == info.check_r || Some(s.func) == info.check_w)
                .unwrap_or(false);
        if is_race {
            if let Some((first, second)) = trace_map::race_sites(module, info, &trace) {
                return KissOutcome::RaceDetected(RaceReport { first, second, mapped, stats });
            }
        }
        let validated = if self.validate && !mapped.pattern.is_empty() {
            let orig = Module::lower(program.clone());
            let v = kiss_conc::Explorer::new(&orig)
                .with_mode(kiss_conc::ScheduleMode::Pattern(mapped.pattern.clone()))
                .check();
            Some(v.is_fail() || matches!(v, kiss_conc::ConcVerdict::RuntimeError(..)))
        } else {
            None
        };
        KissOutcome::AssertionViolation(ErrorReport { mapped, validated, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    fn prog(src: &str) -> Program {
        parse_and_lower(src).unwrap()
    }

    const FORK_BUG: &str = "
        int g;
        void other() { g = 1; }
        void main() { async other(); assert g == 0; }
    ";

    const SPINLOCK_CORRECT: &str = "
        int locked;
        void worker() { locked = 0; }
        void main() { locked = 1; async worker(); while (locked == 1) { skip; } }
    ";
    const SPINLOCK_MUTANT: &str = "
        int locked;
        void worker() { skip; }
        void main() { locked = 1; async worker(); while (locked == 1) { skip; } }
    ";

    #[test]
    fn ltl_distinguishes_released_from_stuck_spinlock() {
        let formula = kiss_ltl::parse("G (locked -> F !locked)").unwrap();
        let held = Kiss::new().check_ltl(&prog(SPINLOCK_CORRECT), &formula).unwrap();
        assert!(held.is_clean(), "correct spinlock must satisfy the formula: {held:?}");

        let violated = Kiss::new().check_ltl(&prog(SPINLOCK_MUTANT), &formula).unwrap();
        let KissOutcome::LivenessViolated(report) = violated else {
            panic!("expected liveness violation, got {violated:?}");
        };
        assert_eq!(report.formula, "G (locked -> F !locked)");
        assert!(!report.cycle.is_empty(), "the spin loop is a real cycle, not a stutter");
        assert!(report.stats.seq.product_states > 0);
        assert!(report.stats.seq.buchi_states > 0);
        // Rendering shows the loop's source text.
        let rendered = crate::report::render_liveness(&prog(SPINLOCK_MUTANT), &report);
        assert!(rendered.contains("cycle"), "{rendered}");
    }

    #[test]
    fn ltl_unknown_proposition_is_a_typed_error() {
        let formula = kiss_ltl::parse("F missing").unwrap();
        let err = Kiss::new().check_ltl(&prog(SPINLOCK_CORRECT), &formula).unwrap_err();
        assert_eq!(err, CheckError::UnknownProposition { name: "missing".into() });
        assert!(err.to_string().contains("`missing`"), "{err}");
    }

    #[test]
    fn finds_and_validates_fork_bug() {
        let outcome = Kiss::new().check_assertions(&prog(FORK_BUG));
        let KissOutcome::AssertionViolation(report) = outcome else {
            panic!("expected violation, got {outcome:?}");
        };
        assert_eq!(report.validated, Some(true), "mapped schedule must replay");
        assert_eq!(report.mapped.thread_count, 2);
        assert!(report.stats.steps() > 0);
        assert_eq!(report.stats.engine, Engine::Explicit);
    }

    #[test]
    fn clean_program_reports_no_error() {
        let outcome = Kiss::new().check_assertions(&prog(
            "int g; void other() { g = 1; } void main() { async other(); assert g <= 1; }",
        ));
        assert!(outcome.is_clean(), "{outcome:?}");
        assert!(!outcome.found_error());
    }

    #[test]
    fn summary_engine_agrees_on_verdicts() {
        for (src, fails) in [
            (FORK_BUG, true),
            ("int g; void o() { g = 1; } void main() { async o(); assert g <= 1; }", false),
        ] {
            let outcome =
                Kiss::new().with_engine(Engine::Summary).with_validation(false).check_assertions(&prog(src));
            assert_eq!(outcome.found_error(), fails, "summary disagrees on: {src}");
        }
    }

    #[test]
    fn race_is_detected_with_both_sites() {
        let src = "
            int r;
            void w1() { r = 1; }
            void main() { async w1(); r = 2; }
        ";
        let p = prog(src);
        let outcome = Kiss::new().check_race_spec(&p, "r").unwrap();
        let KissOutcome::RaceDetected(report) = outcome else {
            panic!("expected race, got {outcome:?}");
        };
        assert!(report.first.is_write && report.second.is_write, "write/write race");
        assert!(report.mapped.thread_count >= 2);
    }

    /// `h` escapes only through `get`'s `return`, so the indirect call
    /// `f(&g)` must bind `h`'s parameter for alias pruning to keep the
    /// write inside `h`. Every engine must find the error; how a BFS or
    /// summary race is classified is the golden table's concern.
    #[test]
    fn a_race_in_a_function_escaping_through_return_is_found() {
        let p = prog(
            "int g;
             void h(int *p) { *p = 1; }
             fn get() { return h; }
             void other() { g = 2; }
             void main() { fn f; f = get(); async other(); f(&g); }",
        );
        for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
            let outcome = Kiss::new().with_engine(engine).check_race_spec(&p, "g").unwrap();
            assert!(outcome.found_error(), "{}: {outcome:?}", engine.name());
            // The summary engine keeps no trace, so only the
            // trace-keeping engines can name the racing sites.
            if engine != Engine::Summary {
                assert_eq!(outcome.verdict_str(), "race", "{}", engine.name());
            }
        }
    }

    #[test]
    fn a_race_target_allocated_inside_atomic_is_registered() {
        // The atomic body is not instrumented, but the allocation of the
        // target struct still registers the field's address.
        for alloc in ["atomic { e = malloc(D); }", "e = malloc(D);"] {
            let p = prog(&format!(
                "struct D {{ int f; }} D *e;
                 void w() {{ e->f = 1; }}
                 void main() {{ {alloc} async w(); e->f = 2; }}"
            ));
            let outcome = Kiss::new().check_race_spec(&p, "D.f").unwrap();
            assert_eq!(outcome.verdict_str(), "race", "{alloc}: {outcome:?}");
        }
    }

    #[test]
    fn read_only_sharing_is_race_free() {
        let src = "
            int r;
            int a;
            int b;
            void rd() { a = r; }
            void main() { async rd(); b = r; }
        ";
        let p = prog(src);
        let outcome = Kiss::new().check_race_spec(&p, "r").unwrap();
        assert!(outcome.is_clean(), "two reads do not race: {outcome:?}");
    }

    #[test]
    fn lock_protected_accesses_are_race_free() {
        let src = "
            int lock;
            int r;
            void acquire() { atomic { assume lock == 0; lock = 1; } }
            void release() { atomic { lock = 0; } }
            void w1() { acquire(); r = 1; release(); }
            void main() { async w1(); acquire(); r = 2; release(); }
        ";
        let p = prog(src);
        let outcome = Kiss::new().check_race_spec(&p, "r").unwrap();
        // KISS's RAISE-after-check means: first thread records its
        // access *while holding the lock* and terminates — the lock is
        // never released, so the second thread blocks before its
        // access. No race is reported, matching the lockset intuition.
        assert!(outcome.is_clean(), "{outcome:?}");
    }

    #[test]
    fn wrong_arity_indirect_call_is_a_runtime_error_in_every_engine() {
        let p = prog(
            "int g;
             void two(int a, int b) { g = a + b; }
             void main() { fn f; f = two; f(1); }",
        );
        let expect = |outcome: KissOutcome, label: &str| match outcome {
            KissOutcome::RuntimeError(e) => {
                assert!(e.ends_with("with 1 argument(s), expected 2"), "{label}: {e}")
            }
            other => panic!("{label}: expected an arity mismatch, got {other:?}"),
        };
        for engine in [Engine::Explicit, Engine::Summary, Engine::Bfs] {
            expect(Kiss::new().with_engine(engine).check_assertions(&p), engine.name());
        }
        let formula = kiss_ltl::parse("G (g == 0)").unwrap();
        expect(Kiss::new().check_ltl(&p, &formula).unwrap(), "ltl");
    }

    #[test]
    fn unknown_race_spec_returns_none() {
        let p = prog("int r; void main() { skip; }");
        assert!(Kiss::new().check_race_spec(&p, "nope").is_none());
    }

    #[test]
    fn budget_produces_inconclusive() {
        let src = "
            int g;
            void spin() { iter { g = g + 1; } }
            void main() { async spin(); assert g >= 0; }
        ";
        let outcome = Kiss::new()
            .with_budget(Budget::steps_states(2_000, 200))
            .check_assertions(&prog(src));
        assert!(outcome.is_inconclusive(), "{outcome:?}");
    }

    #[test]
    fn cancellation_surfaces_as_inconclusive() {
        let src = "
            int g;
            void spin() { iter { g = g + 1; } }
            void main() { async spin(); assert g >= 0; }
        ";
        let cancel = CancelToken::new();
        cancel.cancel();
        let outcome = Kiss::new().with_cancel(cancel).check_assertions(&prog(src));
        let KissOutcome::Inconclusive { reason, .. } = outcome else {
            panic!("expected inconclusive, got {outcome:?}");
        };
        assert_eq!(reason, BoundReason::Cancelled);
    }

    #[test]
    fn try_check_race_spec_reports_unknown_specs_as_errors() {
        let p = prog("int r; void main() { skip; }");
        assert!(Kiss::new().try_check_race_spec(&p, "r").is_ok());
        let err = Kiss::new().try_check_race_spec(&p, "nope").unwrap_err();
        assert_eq!(err, CheckError::UnknownRaceSpec { spec: "nope".into() });
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn max_ts_knob_changes_coverage() {
        // The refcount idiom of paper §2.3 in miniature: the bug needs
        // the forked thread to run *in the middle of* the other
        // thread's call, which requires a ts slot (MAX = 1); with
        // MAX = 0 the forked thread runs as one inline block and the
        // bug is missed.
        let src = "
            int phase;
            void stopper() { phase = 1; }
            void worker() {
                int p0;
                p0 = phase;
                if (p0 == 1) { assert phase == 0; }
            }
            void main() {
                async stopper();
                worker();
            }
        ";
        // worker reads phase twice; failing needs phase==1 at first
        // read and ==1 at assert... that fails whenever stopper ran
        // first — reachable at MAX=0 too. Use the classic
        // read-switch-write shape instead:
        let src2 = "
            int x;
            void stopper() { x = 1; }
            void worker() {
                int t;
                t = x;
                assert t == x;
            }
            void main() {
                async stopper();
                worker();
            }
        ";
        let _ = src;
        // With MAX=0: stopper runs entirely before worker, after
        // worker, or... inline at the fork — never *between* worker's
        // two statements of the same synchronous call? It can: RAISE
        // terminates worker early but does not resume it. The
        // between-statements interleaving needs suspend/resume of
        // worker, i.e. a pending slot. MAX=0 must miss it; MAX=1 finds
        // it.
        let p = prog(src2);
        let at0 = Kiss::new().with_max_ts(0).check_assertions(&p);
        assert!(at0.is_clean(), "MAX=0 cannot suspend/resume worker: {at0:?}");
        let at1 = Kiss::new().with_max_ts(1).check_assertions(&p);
        assert!(at1.found_error(), "MAX=1 exposes the mid-call interleaving: {at1:?}");
        if let KissOutcome::AssertionViolation(r) = at1 {
            assert_eq!(r.validated, Some(true));
        }
    }

    #[test]
    fn checks_emit_balanced_phase_spans_under_a_caller_trace() {
        use kiss_obs::{ChannelSink, Event};
        let (tx, rx) = std::sync::mpsc::channel::<Event>();
        let obs = Obs::new(ChannelSink(tx));
        let trace = TraceId::derive(9, 9);
        let outcome = Kiss::new()
            .with_trace(trace, 42)
            .with_observer(obs)
            .with_validation(false)
            .check_assertions(&prog(FORK_BUG));
        assert!(outcome.found_error());
        let mut opened = Vec::new();
        let mut closed = Vec::new();
        for event in rx.try_iter() {
            match event {
                Event::SpanOpen { trace: t, parent, name, span, .. } => {
                    assert_eq!(t, trace.to_hex());
                    assert_eq!(parent, 42, "phases parent under the caller's span");
                    opened.push((span, name));
                }
                Event::SpanClose { trace: t, span, name, .. } => {
                    assert_eq!(t, trace.to_hex());
                    closed.push((span, name));
                }
                _ => {}
            }
        }
        let names: Vec<&str> = opened.iter().map(|(_, n)| n.as_str()).collect();
        assert_eq!(names, ["transform", "lower", "explore"]);
        assert_eq!(opened, closed, "every phase span closes, in order");
    }

    #[test]
    fn never_reports_false_errors_on_a_small_corpus() {
        // For every program where KISS reports an error, the concurrent
        // explorer (free schedules) must also find one.
        let corpus = [
            FORK_BUG,
            "int g; void o() { g = g + 1; } void main() { async o(); g = g + 1; assert g <= 2; }",
            "int r; void w() { r = 1; } void main() { async w(); assert r == 0; }",
            "bool f; void o() { f = true; } void main() { async o(); assert !f; }",
        ];
        for src in corpus {
            let p = prog(src);
            for max_ts in [0, 1] {
                let outcome =
                    Kiss::new().with_max_ts(max_ts).with_validation(false).check_assertions(&p);
                if outcome.found_error() {
                    let orig = Module::lower(p.clone());
                    let conc = kiss_conc::Explorer::new(&orig).check();
                    assert!(conc.is_fail(), "KISS error not confirmed concurrently: {src}");
                }
            }
        }
    }
}

#[cfg(test)]
mod benign_tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    /// The paper's future-work annotation: marking the deliberate
    /// lock-free read as benign suppresses the race report, while the
    /// unannotated variant is still flagged.
    #[test]
    fn benign_annotation_suppresses_the_fakemodem_style_warning() {
        let flagged = "
            int l;
            int OpenCount;
            int decision;
            void creator() { atomic { assume l == 0; l = 1; } OpenCount = OpenCount + 1; atomic { l = 0; } }
            void closer() { int t; t = OpenCount; if (t == 0) { decision = 1; } }
            void main() { async creator(); closer(); }
        ";
        let p = parse_and_lower(flagged).unwrap();
        let outcome = Kiss::new().check_race_spec(&p, "OpenCount").unwrap();
        assert!(matches!(outcome, KissOutcome::RaceDetected(_)), "{outcome:?}");

        let annotated = "
            int l;
            int OpenCount;
            int decision;
            void creator() { atomic { assume l == 0; l = 1; } OpenCount = OpenCount + 1; atomic { l = 0; } }
            void closer() { int t; benign t = OpenCount; if (t == 0) { decision = 1; } }
            void main() { async creator(); closer(); }
        ";
        let p = parse_and_lower(annotated).unwrap();
        let outcome = Kiss::new().check_race_spec(&p, "OpenCount").unwrap();
        assert!(outcome.is_clean(), "benign read must not be flagged: {outcome:?}");
    }

    /// Benign annotations do not weaken *other* accesses' checking.
    #[test]
    fn benign_does_not_mask_unrelated_races() {
        let src = "
            int r;
            int unrelated;
            void w() { benign unrelated = 1; r = 1; }
            void main() { async w(); r = 2; }
        ";
        let p = parse_and_lower(src).unwrap();
        let outcome = Kiss::new().check_race_spec(&p, "r").unwrap();
        assert!(matches!(outcome, KissOutcome::RaceDetected(_)), "{outcome:?}");
    }

    /// Assertion checking is unaffected by benign annotations.
    #[test]
    fn benign_statements_still_execute_in_assertion_mode() {
        let src = "
            int g;
            void w() { benign g = 1; }
            void main() { async w(); assert g == 0; }
        ";
        let p = parse_and_lower(src).unwrap();
        let outcome = Kiss::new().check_assertions(&p);
        assert!(outcome.found_error(), "{outcome:?}");
    }
}

#[cfg(test)]
mod bfs_engine_tests {
    use super::*;
    use kiss_lang::parse_and_lower;

    #[test]
    fn bfs_engine_finds_bugs_with_short_mapped_traces() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let p = parse_and_lower(src).unwrap();
        let bfs = Kiss::new().with_engine(Engine::Bfs).check_assertions(&p);
        let KissOutcome::AssertionViolation(bfs_report) = bfs else {
            panic!("expected violation, got {bfs:?}");
        };
        assert_eq!(bfs_report.validated, Some(true));
        let dfs = Kiss::new().check_assertions(&p);
        let KissOutcome::AssertionViolation(dfs_report) = dfs else { panic!() };
        assert!(
            bfs_report.mapped.steps.len() <= dfs_report.mapped.steps.len(),
            "bfs {} vs dfs {}",
            bfs_report.mapped.steps.len(),
            dfs_report.mapped.steps.len()
        );
    }

    #[test]
    fn bfs_engine_agrees_on_clean_programs() {
        let src = "int g; void o() { g = 1; } void main() { async o(); assert g <= 1; }";
        let p = parse_and_lower(src).unwrap();
        assert!(Kiss::new().with_engine(Engine::Bfs).check_assertions(&p).is_clean());
    }
}
