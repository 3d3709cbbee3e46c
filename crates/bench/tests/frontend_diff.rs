//! Front-end differential table.
//!
//! `parse_and_lower` is run over every program the repository ships —
//! both served race corpora, the samples and the bluetooth models — and
//! over a few thousand seeded mutations of them. Each result is the
//! pretty-printed program plus every statement's span and origin on
//! success, or the error's `to_string()` on failure. The results are
//! digested in groups and compared with `frontend_diff.table`, so any
//! change to what the front end accepts, produces or reports — a
//! message, a position, a desugaring — fails this test.
//!
//! Mutations delete, insert and duplicate bytes; insert `{`, `}`, `;`,
//! `/*` and `//` anywhere and right at item boundaries; and add
//! non-ASCII text. A byte edit that splits a UTF-8 sequence leaves a
//! U+FFFD in its place. The mutation bases are also printed on one line
//! each and mutated again, so items and statements start mid-line and
//! every column a token carries is checked.
//!
//! When the front end changes its output on purpose, the failure
//! message prints the whole new table to check in.

mod mutate;

use kiss_lang::hir::{Program, Stmt, StmtKind};
use kiss_lang::pretty::print_program;
use mutate::{mutate, Rng};
use std::fmt::Write as _;

const TABLE: &str = include_str!("frontend_diff.table");

/// Mutated inputs, and how many of them share one table row.
const MUTATIONS: usize = 3000;
const ONE_LINE_MUTATIONS: usize = 500;
const MUTATIONS_PER_ROW: usize = 250;

fn spans(s: &Stmt, out: &mut String) {
    let _ = write!(out, "{}:{:?} ", s.span, s.origin);
    match &s.kind {
        StmtKind::Seq(ss) | StmtKind::Choice(ss) => ss.iter().for_each(|s| spans(s, out)),
        StmtKind::Atomic(b) | StmtKind::Iter(b) => spans(b, out),
        _ => {}
    }
}

/// What the front end makes of `src`, as text.
fn outcome(src: &str) -> (bool, String) {
    match kiss_lang::parse_and_lower(src) {
        Ok(program) => (true, render(&program)),
        Err(e) => (false, format!("error: {e}")),
    }
}

fn render(program: &Program) -> String {
    let mut out = print_program(program);
    for f in &program.funcs {
        let _ = write!(out, "\n{}: ", f.name);
        spans(&f.body, &mut out);
    }
    out
}

/// One table row: a group's name, its size, how many inputs were
/// accepted, and the digest of every outcome in order.
fn row(name: &str, inputs: &[String]) -> String {
    let mut accepted = 0;
    let outcomes: Vec<String> = inputs
        .iter()
        .map(|src| {
            let (ok, text) = outcome(src);
            accepted += usize::from(ok);
            text
        })
        .collect();
    let (lo, hi) = kiss_exec::fingerprint_of(&outcomes);
    format!("{name} {} {accepted} {lo:016x}{hi:016x}", inputs.len())
}

fn table() -> String {
    let corpus = |refined| -> Vec<String> {
        kiss_drivers::corpus_batch(refined)
            .into_iter()
            .map(|e| e.source)
            .collect()
    };
    let naive = corpus(false);
    let refined = corpus(true);
    let samples: Vec<String> = kiss_samples::all()
        .iter()
        .map(|s| s.source.to_string())
        .collect();
    let bluetooth: Vec<String> = mutate::BLUETOOTH.iter().map(|s| s.to_string()).collect();
    let bases = mutate::bases();

    let mut rng = Rng(0x6b69_7373_2d66_6531);
    let mutations: Vec<String> = (0..MUTATIONS)
        .map(|i| mutate(&mut rng, &bases[i % bases.len()]))
        .collect();

    let mut rows = vec![
        row("corpus-naive", &naive),
        row("corpus-refined", &refined),
        row("samples", &samples),
        row("bluetooth", &bluetooth),
    ];
    for (i, chunk) in mutations.chunks(MUTATIONS_PER_ROW).enumerate() {
        rows.push(row(&format!("mutations-{:02}", i), chunk));
    }
    // The same programs on one line each, and mutations of those.
    let one_line: Vec<String> = bases.iter().map(|b| mutate::one_line(b)).collect();
    rows.push(row("one-line", &one_line));
    let mut rng = Rng(0x6f6e_652d_6c69_6e65);
    let mutations: Vec<String> = (0..ONE_LINE_MUTATIONS)
        .map(|i| mutate(&mut rng, &one_line[i % one_line.len()]))
        .collect();
    for (i, chunk) in mutations.chunks(MUTATIONS_PER_ROW).enumerate() {
        rows.push(row(&format!("one-line-mutations-{:02}", i), chunk));
    }
    rows.join("\n") + "\n"
}

#[test]
fn the_front_end_matches_its_differential_table() {
    let got = table();
    assert!(
        got == TABLE,
        "front-end outcomes changed; the new table is:\n{got}"
    );
}
