//! The front end: source text to a checked core program, item by item.
//!
//! A byte scan splits the source into top-level items: structs,
//! globals, and functions as a header plus a body skipped by brace
//! depth. The scan follows the lexer's comment rules and splits only at
//! token boundaries; when it is unsure (unbalanced braces, an
//! unterminated comment) the whole source is one item. The
//! declarations — structs, globals and function headers — are lexed,
//! parsed and lowered first, because they fix name resolution. Then the
//! bodies `main` reaches ([`reachable_funcs`]) are lexed, parsed and
//! lowered at their real positions, so spans, race sites and trace
//! mapping are those of a whole-source parse. Every other body is
//! lowered in full too, unless a [`ValidBodies`] memo remembers it.
//!
//! The memo also keeps each lowered declaration set, keyed by the
//! [`TwoLaneHasher`] digest of every item's declaration text and its
//! position (the header AST it owns carries spans). A race sweep sends a
//! driver once per field with only the harness `main` changed, so a
//! later field finds its declarations lowered and goes straight to the
//! bodies.
//!
//! Whether a body lexes, parses, lowers and passes well-formedness
//! depends only on its bytes and the declarations: positions never
//! change success or failure. So a body is keyed by the 128-bit
//! [`TwoLaneHasher`] digest of the declaration text, its function's
//! index and its own bytes. A remembered body that `main` does not
//! reach becomes the stub the transform makes of every unreachable
//! function anyway (name, parameters as the only locals, a `skip`
//! body), without being lexed at all. Stubs never run. These are every
//! read of function bodies beyond the reachable ones, downstream of the
//! front end, and why a stub answers each as the full body would:
//!
//! * kiss-core's `transform` scans every body with
//!   [`Stmt::mallocs_to_non_var`](crate::hir::Stmt::mallocs_to_non_var)
//!   for an unregistrable race target. A body the scan is true of (for
//!   any struct) is never remembered, so it always arrives in full.
//! * kiss-core's replay validation lowers the whole original program,
//!   and its liveness renderer indexes every body's statements by span.
//!   Both look only at statements a trace executed, and a trace runs
//!   only reachable functions. (The serve daemon validates nothing.)
//!
//! Everything else the transform does (the async-arity inventory, the
//! alias analysis, the instrumentation, lowering) runs on its
//! reachable-only program, where the same functions are stubs already.
//! A new whole-program read of bodies must be added to this list, and
//! to the remembering rule if a stub would answer it differently.
//!
//! On any error the source is redone as one item (`parse_program`,
//! [`lower`], [`wf::check`]), so messages are exactly a whole-source
//! parse's: lex errors before parse, before lowering, before
//! well-formedness, each the first in file order. Nothing is remembered
//! from a failed call.

use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fingerprint::{fingerprint_of, TwoLaneHasher};
use crate::hir::{reachable_funcs, FuncId, Program};
use crate::items::{self, Item};
use crate::lexer::lex_at;
use crate::lower::{self, Decls};
use crate::parser::{Decl, Parser};
use crate::span::Span;
use crate::{ast, parse_program, wf, LangError};

/// What the front end has validated so far, shared by every caller
/// (the serve daemon's workers share one), and counts of what it saved:
/// the keys of bodies validated under their declarations, and the
/// lowered declaration sets themselves.
///
/// It holds at most [`ValidBodies::CAPACITY`] slots and is cleared when
/// full. A body key takes one slot; a declaration set takes one slot per
/// 8 bytes of its declaration text, plus one, and a set larger than the
/// whole memo is not kept. Filled with body keys, the memo holds about
/// 1.1 MB: 32,768 keys of 16 bytes in a hash table of 65,536 slots of
/// 17 bytes (key plus control byte). Filled with declaration sets, it
/// holds at most 256 KiB of declaration text lowered, about 12 MB at the
/// 47 bytes of header AST and lowered declarations that one byte of the
/// densest declarations (`int ab;` after `int ac;`) allocates. The 921
/// served race checks of the driver corpora remember 54 declaration
/// sets of 103 KB of text in 2.1 MB (about 21 bytes a byte) and about
/// 2,700 body keys: roughly 16,000 slots.
#[derive(Debug, Default)]
pub struct ValidBodies {
    memo: Mutex<Memo>,
    lowered: AtomicU64,
    stubbed: AtomicU64,
    reused: AtomicU64,
    clears: AtomicU64,
}

#[derive(Debug, Default)]
struct Memo {
    /// Keys of bodies validated under their declarations.
    bodies: HashSet<(u64, u64)>,
    /// Lowered declaration sets, by every item's declaration text and
    /// position.
    decls: HashMap<(u64, u64), Arc<Decls>>,
    /// Slots taken.
    slots: usize,
}

/// What a [`ValidBodies`] set saved so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyCounts {
    /// Function bodies lexed, parsed and lowered in full.
    pub lowered: u64,
    /// Unreached bodies stubbed because the set remembered them.
    pub stubbed: u64,
    /// Calls that took their lowered declarations from the set.
    pub decl_sets_reused: u64,
    /// Times the set was cleared on reaching its capacity.
    pub clears: u64,
}

impl ValidBodies {
    /// The most slots the memo holds before it is cleared.
    pub const CAPACITY: usize = 1 << 15;

    /// An empty set.
    pub fn new() -> Self {
        ValidBodies::default()
    }

    /// [`parse_and_lower`](crate::parse_and_lower), reusing the lowered
    /// declarations when this set remembers the same declaration items
    /// at the same positions, stubbing the bodies `main` does not reach
    /// that it remembers as valid under the same declarations, and
    /// remembering every body and declaration set it validates.
    ///
    /// # Errors
    ///
    /// Exactly [`parse_and_lower`](crate::parse_and_lower)'s.
    pub fn parse_and_lower(&self, src: &str) -> Result<Program, LangError> {
        front_end(src, Some(self))
    }

    /// The counters so far.
    pub fn counts(&self) -> BodyCounts {
        BodyCounts {
            lowered: self.lowered.load(Ordering::Relaxed),
            stubbed: self.stubbed.load(Ordering::Relaxed),
            decl_sets_reused: self.reused.load(Ordering::Relaxed),
            clears: self.clears.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Memo> {
        // Every update, an insert or a clear, leaves the memo valid, so
        // the guard of a poisoned lock is safe to take over.
        self.memo
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

impl Memo {
    /// Takes `n` slots, clearing the memo first when they do not fit.
    /// Returns whether it cleared.
    fn take(&mut self, n: usize) -> bool {
        let clear = self.slots + n > ValidBodies::CAPACITY;
        if clear {
            *self = Memo::default();
        }
        self.slots += n;
        clear
    }
}

/// The front end, with `valid` remembering bodies or nothing.
pub(crate) fn front_end(src: &str, valid: Option<&ValidBodies>) -> Result<Program, LangError> {
    if let Some(program) = items::split(src).and_then(|items| by_items(src, &items, valid)) {
        return Ok(program);
    }
    // The whole source as one item: the scan was unsure or some stage
    // failed, and this reports the failure exactly.
    let ast = parse_program(src)?;
    let program = lower::lower(&ast)?;
    wf::check(&program)?;
    Ok(program)
}

/// Lexes, parses and lowers the declaration items, or `None` on any
/// error.
fn lower_decls(src: &str, items: &[Item]) -> Option<Decls> {
    let mut ast = ast::Program::default();
    for item in items {
        let tokens = lex_at(&src[item.text.clone()], item.at).ok()?;
        match (Parser::new(tokens).parse_decl_item().ok()?, &item.body) {
            (Decl::Struct(s), None) => ast.structs.push(s),
            (Decl::Global(g), None) => ast.globals.push(g),
            (Decl::Func(f), Some(_)) => ast.funcs.push(f),
            // The scan and the parser disagree on what the item is.
            _ => return None,
        }
    }
    Decls::new(ast).ok()
}

/// A source's keys in a [`ValidBodies`] memo.
struct Keys {
    /// Its declaration set's: every item's declaration text and
    /// position.
    decls: (u64, u64),
    /// The slots its declaration set takes: one per 8 bytes of text,
    /// plus one.
    decl_slots: usize,
    /// Each function body's: the declaration text, the function's index
    /// (so its own header) and the body's bytes. Positions never change
    /// whether a body is valid.
    bodies: Vec<(u64, u64)>,
}

impl Keys {
    fn new(src: &str, items: &[Item], bodies: &[&(Range<usize>, Span)]) -> Keys {
        let mut h = TwoLaneHasher::new();
        for item in items {
            src[item.text.clone()].hash(&mut h);
        }
        let text = h.finish_pair();
        let mut h = TwoLaneHasher::new();
        text.hash(&mut h);
        for item in items {
            item.at.hash(&mut h);
        }
        let text_len: usize = items.iter().map(|item| item.text.len()).sum();
        Keys {
            decls: h.finish_pair(),
            decl_slots: 1 + text_len / 8,
            bodies: bodies
                .iter()
                .enumerate()
                .map(|(i, (body, _))| fingerprint_of(&(text, i, &src[body.clone()])))
                .collect(),
        }
    }
}

/// The program from its items, or `None` on any error.
fn by_items(src: &str, items: &[Item], valid: Option<&ValidBodies>) -> Option<Program> {
    let bodies: Vec<_> = items.iter().filter_map(|item| item.body.as_ref()).collect();

    let keys = valid.map(|_| Keys::new(src, items, &bodies));
    let (remembered, known) = match (valid, &keys) {
        (Some(valid), Some(keys)) => {
            let memo = valid.lock();
            let remembered = memo.decls.get(&keys.decls).cloned();
            let known = keys
                .bodies
                .iter()
                .map(|k| memo.bodies.contains(k))
                .collect();
            drop(memo);
            if remembered.is_some() {
                valid.reused.fetch_add(1, Ordering::Relaxed);
            }
            (remembered, known)
        }
        _ => (None, vec![false; bodies.len()]),
    };
    let decls = match &remembered {
        Some(decls) => Arc::clone(decls),
        None => Arc::new(lower_decls(src, items)?),
    };
    let main = decls.main().ok()?;

    let lower_body = |f: usize| {
        let (range, at) = bodies[f];
        let (locals, stmts) = Parser::new(lex_at(&src[range.clone()], *at).ok()?)
            .parse_body_item()
            .ok()?;
        decls.lower_func(f, &locals, &stmts).ok()
    };
    let mut funcs: Vec<Option<_>> = vec![None; bodies.len()];
    reachable_funcs(main, decls.globals(), bodies.len(), |f: FuncId, follow| {
        let def = lower_body(f.0 as usize).ok_or(())?;
        follow(&def.body);
        funcs[f.0 as usize] = Some(def);
        Ok::<_, ()>(())
    })
    .ok()?;
    // Unreached bodies: a remembered one becomes a stub, any other is
    // validated in full and kept.
    let stubbed: Vec<bool> = funcs
        .iter()
        .zip(&known)
        .map(|(def, &known)| def.is_none() && known)
        .collect();
    let funcs = funcs
        .into_iter()
        .enumerate()
        .map(|(f, def)| match def {
            Some(def) => Some(def),
            None if stubbed[f] => Some(decls.stub(f)),
            None => lower_body(f),
        })
        .collect::<Option<_>>()?;
    let program = decls.finish(funcs).ok()?;
    wf::check(&program).ok()?;

    if let (Some(valid), Some(keys)) = (valid, &keys) {
        let mut memo = valid.lock();
        let mut clears = 0;
        // A set too large for the memo even when empty is not kept.
        if remembered.is_none()
            && keys.decl_slots <= ValidBodies::CAPACITY
            && !memo.decls.contains_key(&keys.decls)
        {
            clears += u64::from(memo.take(keys.decl_slots));
            memo.decls.insert(keys.decls, decls);
        }
        for (f, def) in program.funcs.iter().enumerate() {
            // A body the transform's whole-program scan reads must
            // always arrive in full.
            if stubbed[f] || known[f] || def.body.mallocs_to_non_var(&|_| true) {
                continue;
            }
            clears += u64::from(memo.take(1));
            memo.bodies.insert(keys.bodies[f]);
        }
        drop(memo);
        let stubs = stubbed.iter().filter(|&&s| s).count() as u64;
        valid
            .lowered
            .fetch_add(stubbed.len() as u64 - stubs, Ordering::Relaxed);
        valid.stubbed.fetch_add(stubs, Ordering::Relaxed);
        valid.clears.fetch_add(clears, Ordering::Relaxed);
    }
    Some(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_body_is_remembered_for_its_own_function_only() {
        // Same declarations, and `g` takes over `f`'s body bytes, which
        // name `f`'s parameter: valid in `f`, not in `g`.
        let valid = "void f(int x) { x = 1; }\nvoid g() { skip; }\nvoid main() { f(1); }";
        let invalid = "void f(int x) { x = 1; }\nvoid g() { x = 1; }\nvoid main() { f(1); }";
        let bodies = ValidBodies::new();
        bodies.parse_and_lower(valid).unwrap();
        let err = bodies.parse_and_lower(invalid).unwrap_err();
        assert_eq!(err.to_string(), "lowering error at 2:12: unknown variable `x`");
    }

    #[test]
    fn declarations_are_part_of_every_key() {
        let with_global = "int x;\nvoid g() { x = 1; }\nvoid main() { skip; }";
        let without = "int y;\nvoid g() { x = 1; }\nvoid main() { skip; }";
        let bodies = ValidBodies::new();
        bodies.parse_and_lower(with_global).unwrap();
        assert_eq!(bodies.parse_and_lower(with_global).unwrap().funcs[0].locals, vec![]);
        assert_eq!(bodies.counts().stubbed, 1);
        let err = bodies.parse_and_lower(without).unwrap_err();
        assert_eq!(err, crate::parse_and_lower(without).unwrap_err());
    }
}
