//! Property-based test of the paper's Theorem 1 (Completeness):
//!
//! > Suppose the multiset `ts` is unbounded. If a balanced execution of
//! > a concurrent program `s` goes wrong by failing an assertion, then
//! > the sequential program `Check(s)` also goes wrong, and vice versa.
//!
//! We generate random small concurrent programs (no loops, bounded
//! forks, so `MAX = 2` behaves as an unbounded `ts`), and check both
//! directions, under every sequential engine, against the ground-truth
//! interleaving explorer of `kiss-conc` restricted to balanced
//! (stack-disciplined) schedules.

use std::collections::HashSet;

use proptest::prelude::*;

use kiss::conc::{Explorer, ScheduleMode};
use kiss::exec::step::{self, Step};
use kiss::exec::{Instr, Module, UndoLog};
use kiss::seq::config::Config;
use kiss::{Engine, Kiss, KissOutcome, TransformConfig};

/// A tiny statement language rendered to KISS-C text.
#[derive(Debug, Clone)]
enum S {
    Set(u8, i8),
    AddFrom(u8, u8, i8),
    Assert(u8, i8, bool),
    If(u8, i8, Box<S>, Box<S>),
    Choice(Box<S>, Box<S>),
    Seq(Box<S>, Box<S>),
    Atomic(Box<S>),
    CallHelper,
    Skip,
}

impl S {
    fn render(&self, out: &mut String) {
        match self {
            S::Set(g, c) => out.push_str(&format!("g{} = {};\n", g % 3, c)),
            S::AddFrom(g, h, c) => {
                out.push_str(&format!("g{} = g{} + {};\n", g % 3, h % 3, c))
            }
            S::Assert(g, c, eq) => out.push_str(&format!(
                "assert g{} {} {};\n",
                g % 3,
                if *eq { "==" } else { "!=" },
                c
            )),
            S::If(g, c, t, e) => {
                out.push_str(&format!("if (g{} == {}) {{\n", g % 3, c));
                t.render(out);
                out.push_str("} else {\n");
                e.render(out);
                out.push_str("}\n");
            }
            S::Choice(a, b) => {
                out.push_str("choice {\n");
                a.render(out);
                out.push_str("[]\n");
                b.render(out);
                out.push_str("}\n");
            }
            S::Seq(a, b) => {
                a.render(out);
                b.render(out);
            }
            S::Atomic(inner) => {
                out.push_str("atomic {\n");
                inner.render_atomic(out);
                out.push_str("}\n");
            }
            S::CallHelper => out.push_str("helper();\n"),
            S::Skip => out.push_str("skip;\n"),
        }
    }

    /// Renders inside an `atomic` block: calls and nested atomics are
    /// forbidden by well-formedness, so they degrade to plain updates;
    /// composites recurse in atomic mode.
    fn render_atomic(&self, out: &mut String) {
        match self {
            S::Atomic(inner) => inner.render_atomic(out),
            S::CallHelper => out.push_str("g0 = g0 + 1;\n"),
            S::Seq(a, b) => {
                a.render_atomic(out);
                b.render_atomic(out);
            }
            S::Choice(a, b) => {
                out.push_str("choice {\n");
                a.render_atomic(out);
                out.push_str("[]\n");
                b.render_atomic(out);
                out.push_str("}\n");
            }
            S::If(g, c, t, e) => {
                out.push_str(&format!("if (g{} == {}) {{\n", g % 3, c));
                t.render_atomic(out);
                out.push_str("} else {\n");
                e.render_atomic(out);
                out.push_str("}\n");
            }
            other => other.render(out),
        }
    }
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        (any::<u8>(), -2i8..3).prop_map(|(g, c)| S::Set(g, c)),
        (any::<u8>(), any::<u8>(), -1i8..2).prop_map(|(g, h, c)| S::AddFrom(g, h, c)),
        (any::<u8>(), -1i8..3, any::<bool>()).prop_map(|(g, c, e)| S::Assert(g, c, e)),
        Just(S::Skip),
    ];
    let leaf = prop_oneof![leaf, Just(S::CallHelper)];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (any::<u8>(), 0i8..2, inner.clone(), inner.clone())
                .prop_map(|(g, c, t, e)| S::If(g, c, Box::new(t), Box::new(e))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| S::Choice(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| S::Seq(Box::new(a), Box::new(b))),
            inner.clone().prop_map(|a| S::Atomic(Box::new(a))),
        ]
    })
}

/// Renders a whole program: two workers, a main that forks both and
/// runs its own statements interleaved with a synchronous call.
fn render_program(w1: &S, w2: &S, m1: &S, m2: &S) -> String {
    let mut src = String::from("int g0;\nint g1;\nint g2;\n");
    src.push_str("void helper() {\ng2 = g2 + 1;\nif (g2 == 3) { g1 = g0; }\n}\n");
    src.push_str("void w1() {\n");
    w1.render(&mut src);
    src.push_str("}\nvoid w2() {\n");
    w2.render(&mut src);
    src.push_str("}\nvoid main() {\nasync w1();\n");
    m1.render(&mut src);
    src.push_str("async w2();\n");
    m2.render(&mut src);
    src.push_str("}\n");
    src
}

/// The KISS-transformed program the sequential engines check for
/// `program`'s assertions.
fn sequentialized(program: &kiss::Program) -> Module {
    let cfg = TransformConfig { max_ts: 2, ..TransformConfig::default() };
    Module::lower(kiss::transform(program, &cfg).expect("transforms").program)
}

/// Walks `module` the way the explicit engine does: one configuration
/// changed in place through an [`UndoLog`], states recorded before calls
/// and branches, and each pending alternative resumed by
/// [`UndoLog::undo_to`] plus its pc. A clone taken at every branch point
/// must equal the configuration after the undo back to it, digests and
/// fingerprint included. Returns the number of undos checked; stops
/// after `max_steps` steps.
fn assert_undo_restores_branch_points(module: &Module, max_steps: usize) -> usize {
    let mut config = Config::initial(module);
    let mut log = UndoLog::new();
    let mut visited = HashSet::new();
    // Per alternative: the configuration it resumes from, and the log
    // length at its branch.
    let mut pending: Vec<(Config, usize)> = Vec::new();
    let (mut steps, mut undos) = (0, 0);
    loop {
        while let Some((instr, _)) = step::current(module, &config.stack) {
            steps += 1;
            if steps > max_steps {
                return undos;
            }
            if matches!(instr, Instr::Call { .. } | Instr::NondetJump(_))
                && !visited.insert(config.fingerprint())
            {
                break;
            }
            match step::step(&mut config.thread(module).with_undo(&mut log), instr) {
                Ok(Step::Continue) => {}
                Ok(Step::Branch(targets)) if !targets.is_empty() => {
                    for &alt in targets[1..].iter().rev() {
                        let mut at_branch = config.clone();
                        at_branch.stack.last_mut().expect("parked frame").pc = alt;
                        pending.push((at_branch, log.len()));
                    }
                    config.stack.last_mut().expect("parked frame").pc = targets[0];
                }
                // The path ends: finished, pruned, a dead end or a fault
                // (whose partial writes are logged too).
                _ => break,
            }
        }
        let Some((at_branch, len)) = pending.pop() else {
            return undos;
        };
        config.undo_to(&mut log, len);
        config.stack.last_mut().expect("parked frame").pc =
            at_branch.stack.last().expect("parked frame").pc;
        assert_eq!(config, at_branch);
        assert_eq!(config.fingerprint(), at_branch.fingerprint());
        config.debug_assert_digests();
        undos += 1;
    }
}

#[test]
fn undo_restores_every_branch_point_of_the_samples() {
    for sample in kiss::samples::all() {
        let undos = assert_undo_restores_branch_points(&sequentialized(&sample.program()), 50_000);
        assert!(undos > 10, "{}: only {undos} undos", sample.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, max_shrink_iters: 200, ..ProptestConfig::default() })]

    /// The undo log restores every branch point of the sequentialized
    /// random programs.
    #[test]
    fn undo_restores_every_branch_point_of_random_programs(
        w1 in stmt_strategy(),
        w2 in stmt_strategy(),
        m1 in stmt_strategy(),
        m2 in stmt_strategy(),
    ) {
        let src = render_program(&w1, &w2, &m1, &m2);
        let program = kiss::parse(&src).expect("generated programs are well-formed");
        assert_undo_restores_branch_points(&sequentialized(&program), 200_000);
    }

    /// Both directions of Theorem 1 on random programs, for every
    /// engine; every explicit or bfs assertion violation must also
    /// replay on the concurrent program.
    #[test]
    fn kiss_errs_iff_a_balanced_execution_errs(
        w1 in stmt_strategy(),
        w2 in stmt_strategy(),
        m1 in stmt_strategy(),
        m2 in stmt_strategy(),
    ) {
        let src = render_program(&w1, &w2, &m1, &m2);
        let program = kiss::parse(&src).expect("generated programs are well-formed");

        // Ground truth: balanced-schedule exploration of the original
        // concurrent program.
        let module = Module::lower(program.clone());
        let conc = Explorer::new(&module)
            .with_mode(ScheduleMode::Balanced)
            .with_budget(3_000_000, 300_000)
            .check();
        prop_assume!(!matches!(conc, kiss::conc::ConcVerdict::ResourceBound { .. }));
        let balanced_fails = conc.is_fail();

        // KISS with ts effectively unbounded (2 forks, MAX = 2).
        for engine in [Engine::Explicit, Engine::Bfs, Engine::Summary] {
            let outcome = Kiss::new()
                .with_max_ts(2)
                .with_engine(engine)
                .with_validation(true)
                .check_assertions(&program);
            if outcome.is_inconclusive() {
                continue;
            }
            prop_assert_eq!(
                outcome.found_error(),
                balanced_fails,
                "Theorem 1 violated by the {} engine on:\n{}\nconc: {:?}\nkiss: {:?}",
                engine.name(), src, conc, outcome
            );
            // Summary reports carry no trace to replay.
            if let (KissOutcome::AssertionViolation(report), Engine::Explicit | Engine::Bfs) =
                (&outcome, engine)
            {
                prop_assert!(
                    report.validated == Some(true),
                    "the {} engine's violation does not replay on:\n{}\nkiss: {:?}",
                    engine.name(), src, outcome
                );
            }
        }
    }

    /// The weaker soundness direction against *free* exploration: a
    /// KISS-reported error is reproducible under some interleaving —
    /// "our technique never reports false errors".
    #[test]
    fn kiss_never_reports_false_errors(
        w1 in stmt_strategy(),
        m1 in stmt_strategy(),
        max_ts in 0usize..3,
    ) {
        let mut src = String::from("int g0;\nint g1;\nint g2;\n");
        src.push_str("void helper() {\ng2 = g2 + 1;\nif (g2 == 3) { g1 = g0; }\n}\n");
        src.push_str("void w1() {\n");
        w1.render(&mut src);
        src.push_str("}\nvoid main() {\nasync w1();\n");
        m1.render(&mut src);
        src.push_str("}\n");
        let program = kiss::parse(&src).expect("generated programs are well-formed");

        let outcome = Kiss::new()
            .with_max_ts(max_ts)
            .with_validation(false)
            .check_assertions(&program);
        if outcome.found_error() {
            let module = Module::lower(program);
            let conc = Explorer::new(&module)
                .with_budget(3_000_000, 300_000)
                .check();
            prop_assert!(
                conc.is_fail(),
                "KISS reported an error no interleaving exhibits:\n{}\nconc: {:?}",
                src, conc
            );
        }
    }
}
