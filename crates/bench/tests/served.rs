//! Exploration pinned over the served race corpus.
//!
//! Every `corpus_batch` entry is checked the way the daemon checks a
//! served race request: transformed at `max_ts` 0 with alias pruning,
//! lowered, and explored by the explicit engine at the serve budget.
//! The steps, states and paths explored, the verdict counts and the
//! failing traces' lengths are totalled per corpus. The golden table in
//! `exploration.rs` covers the ten samples; this covers the traffic the
//! daemon actually serves. A rewrite of the engine, the state store or
//! the fingerprint may make exploration faster, never different.

use kiss_core::transform::{transform, RaceTarget, TransformConfig};
use kiss_exec::Module;
use kiss_seq::{Budget, ExplicitChecker, Verdict};

/// Totals over one corpus.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    checks: usize,
    steps: u64,
    states: usize,
    paths: u64,
    pass: usize,
    fail: usize,
    inconclusive: usize,
    runtime_errors: usize,
    /// Steps of every failing trace, summed.
    trace_steps: usize,
}

fn served_totals(refined: bool) -> Totals {
    let mut totals = Totals::default();
    for entry in kiss_drivers::corpus_batch(refined) {
        let program = kiss_lang::parse_and_lower(&entry.source).expect("corpus entries parse");
        let race = RaceTarget::resolve(&program, &entry.race_spec).expect("race target resolves");
        let cfg = TransformConfig { max_ts: 0, race: Some(race), alias_prune: true };
        let info = transform(&program, &cfg).expect("corpus entries transform");
        let module = Module::lower(info.program);
        let (verdict, stats) = ExplicitChecker::new(&module)
            .with_budget(Budget::steps_states(200_000, 20_000))
            .check_with_stats();
        totals.checks += 1;
        totals.steps += stats.steps;
        totals.states += stats.states;
        totals.paths += stats.paths;
        match verdict {
            Verdict::Pass => totals.pass += 1,
            Verdict::Fail(trace) => {
                totals.fail += 1;
                totals.trace_steps += trace.steps.len();
            }
            Verdict::RuntimeError(..) => totals.runtime_errors += 1,
            Verdict::ResourceBound { .. } => totals.inconclusive += 1,
        }
    }
    totals
}

#[test]
fn naive_corpus_exploration_totals_are_pinned() {
    let expected = Totals {
        checks: 481,
        steps: 7_479_877,
        states: 2_177_968,
        paths: 661_231,
        pass: 346,
        fail: 71,
        inconclusive: 64,
        runtime_errors: 0,
        trace_steps: 7_520,
    };
    assert_eq!(served_totals(false), expected);
}

#[test]
fn refined_corpus_exploration_totals_are_pinned() {
    let expected = Totals {
        checks: 440,
        steps: 7_452_220,
        states: 2_170_449,
        paths: 659_708,
        pass: 346,
        fail: 30,
        inconclusive: 64,
        runtime_errors: 0,
        trace_steps: 3_810,
    };
    assert_eq!(served_totals(true), expected);
}
