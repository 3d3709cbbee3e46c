//! Human-readable rendering of mapped concurrent error traces.

use std::collections::HashMap;

use kiss_lang::hir::{FuncDef, Program, Stmt, StmtKind};
use kiss_lang::{pretty, Span};

use crate::checker::LivenessReport;
use crate::trace_map::MappedTrace;

/// Renders a mapped trace with the source text of each executed
/// statement, one line per step:
///
/// ```text
/// thread 0  9:13   async other();
/// thread 1  5:13   g = 1;
/// thread 0  10:13  assert g == 0;
/// ```
pub fn render_trace(program: &Program, mapped: &MappedTrace) -> String {
    let index = statement_index(program);
    let mut out = String::new();
    let mut last: Option<(u32, Span)> = None;
    for step in &mapped.steps {
        // Lowering splits one source statement into several core steps
        // (temporaries, atomic contents); collapse consecutive steps of
        // the same thread at the same source location.
        if last == Some((step.tid, step.span)) {
            continue;
        }
        last = Some((step.tid, step.span));
        let text: &str = if step.span.is_synthetic() {
            "<return>"
        } else {
            index.get(&step.span).map(String::as_str).unwrap_or("<statement>")
        };
        out.push_str(&format!("thread {}  {:<7} {}\n", step.tid, step.span.to_string(), text));
    }
    out
}

/// Renders a liveness counterexample: the user-visible steps of the
/// stem, then the repeating cycle. Instrumentation steps (scheduler
/// assumes, raise propagation) are elided, and consecutive steps at the
/// same source location collapse like in [`render_trace`]:
///
/// ```text
/// stem:
///   3:13   locked = 1;
/// cycle (repeats forever):
///   4:13   iter { ... }
/// ```
///
/// An empty cycle means the violating run terminated and its final
/// state repeats forever.
pub fn render_liveness(program: &Program, report: &LivenessReport) -> String {
    let index = statement_index(program);
    let mut out = String::new();
    let mut section = |title: &str, steps: &[kiss_exec::TraceStep]| {
        out.push_str(title);
        out.push('\n');
        let mut last: Option<Span> = None;
        let mut any = false;
        for step in steps {
            if !step.origin.is_user() || step.span.is_synthetic() || last == Some(step.span) {
                continue;
            }
            last = Some(step.span);
            any = true;
            let text = index.get(&step.span).map(String::as_str).unwrap_or("<statement>");
            out.push_str(&format!("  {:<7} {}\n", step.span.to_string(), text));
        }
        if !any {
            out.push_str("  <no user statements>\n");
        }
    };
    section("stem:", &report.stem);
    if report.cycle.is_empty() {
        out.push_str("cycle: the final state repeats forever (program terminated)\n");
    } else {
        section("cycle (repeats forever):", &report.cycle);
    }
    out
}

/// Maps each source span to the principal statement text at that span.
/// Lowering can attach several core statements to one source statement
/// (temporaries); traversal order puts the principal statement last, so
/// later entries win.
fn statement_index(program: &Program) -> HashMap<Span, String> {
    let mut index = HashMap::new();
    for f in &program.funcs {
        walk(program, f, &f.body, &mut index);
    }
    index
}

fn walk(program: &Program, f: &FuncDef, s: &Stmt, index: &mut HashMap<Span, String>) {
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::Choice(ss) => {
            for inner in ss {
                walk(program, f, inner, index);
            }
        }
        StmtKind::Atomic(b) | StmtKind::Iter(b) => walk(program, f, b, index),
        _ => {}
    }
    if !s.span.is_synthetic() && !matches!(s.kind, StmtKind::Seq(_)) {
        // The `while` desugar appends a loop-exit condition re-check
        // and `assume !cond` that share the loop head's span; an
        // already-indexed composite (the loop itself) stays the
        // principal statement there.
        if index.get(&s.span).is_some_and(|t| t.ends_with("{ ... }")) {
            return;
        }
        // One-line rendering; composites get their head line only.
        let text = match &s.kind {
            StmtKind::Choice(_) => "choice { ... }".to_string(),
            StmtKind::Atomic(_) => "atomic { ... }".to_string(),
            StmtKind::Iter(_) => "iter { ... }".to_string(),
            _ => pretty::print_stmt(program, f, s),
        };
        index.insert(s.span, text);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{Kiss, KissOutcome};

    #[test]
    fn rendered_trace_shows_statement_text() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let program = kiss_lang::parse_and_lower(src).unwrap();
        let KissOutcome::AssertionViolation(report) = Kiss::new().check_assertions(&program) else {
            panic!("expected violation");
        };
        let rendered = render_trace(&program, &report.mapped);
        assert!(rendered.contains("thread 0"), "{rendered}");
        assert!(rendered.contains("thread 1"), "{rendered}");
        assert!(rendered.contains("g = 1;"), "{rendered}");
        assert!(rendered.contains("assert"), "{rendered}");
    }

    #[test]
    fn index_prefers_principal_statement_over_temporaries() {
        // `assert g == 1;` lowers to a temp compare plus the assert at
        // the same span; the assert must win.
        let src = "int g; void main() { g = 1; assert g == 1; }";
        let program = kiss_lang::parse_and_lower(src).unwrap();
        let index = statement_index(&program);
        let assert_line = index.values().filter(|t| t.contains("assert")).count();
        assert!(assert_line >= 1);
    }
}
