//! The front end: source text to a checked core program, item by item.
//!
//! A byte scan splits the source into top-level items: structs,
//! globals, and functions as a header plus a body skipped by brace
//! depth. The scan follows the lexer's comment rules and splits only at
//! token boundaries; when it is unsure (unbalanced braces, an
//! unterminated comment) the whole source is one item. The
//! declarations — structs, globals and function headers — are lexed,
//! parsed and lowered on every call, because they fix name resolution.
//! Then the bodies `main` reaches ([`reachable_funcs`]) are lexed,
//! parsed and lowered at their real positions, so spans, race sites
//! and trace mapping are those of a whole-source parse. Every other body
//! is lowered in full too, unless a [`ValidBodies`] set remembers it.
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

use std::collections::HashSet;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::fingerprint::{fingerprint_of, TwoLaneHasher};
use crate::hir::{reachable_funcs, FuncId, Program};
use crate::items::{self, Item};
use crate::lexer::lex_at;
use crate::lower::{self, Decls};
use crate::parser::{Decl, Parser};
use crate::{ast, parse_program, wf, LangError};

/// Bodies validated so far, shared by every caller (the serve daemon's
/// workers share one), and counts of what they saved.
///
/// It holds at most [`ValidBodies::CAPACITY`] keys of 16 bytes and is
/// cleared when full, so its worst case is about 1.1 MB: 32,768 keys in
/// a hash table of 65,536 slots of 17 bytes (key plus control byte).
/// The 921 served race checks of the driver corpora hold about 2,700.
#[derive(Debug, Default)]
pub struct ValidBodies {
    keys: Mutex<HashSet<(u64, u64)>>,
    lowered: AtomicU64,
    stubbed: AtomicU64,
    clears: AtomicU64,
}

/// What a [`ValidBodies`] set saved so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BodyCounts {
    /// Function bodies lexed, parsed and lowered in full.
    pub lowered: u64,
    /// Unreached bodies stubbed because the set remembered them.
    pub stubbed: u64,
    /// Times the set was cleared on reaching its capacity.
    pub clears: u64,
}

impl ValidBodies {
    /// The most keys the set holds before it is cleared.
    pub const CAPACITY: usize = 1 << 15;

    /// An empty set.
    pub fn new() -> Self {
        ValidBodies::default()
    }

    /// [`parse_and_lower`](crate::parse_and_lower), stubbing the bodies
    /// `main` does not reach that this set remembers as valid under the
    /// same declarations, and remembering every body it validates.
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
            clears: self.clears.load(Ordering::Relaxed),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashSet<(u64, u64)>> {
        // Every update, an insert or a clear, leaves the set valid, so
        // the guard of a poisoned lock is safe to take over.
        self.keys
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
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

/// The program from its items, or `None` on any error.
fn by_items(src: &str, items: &[Item], valid: Option<&ValidBodies>) -> Option<Program> {
    let mut ast = ast::Program::default();
    let mut bodies = Vec::new();
    for item in items {
        let tokens = lex_at(&src[item.text.clone()], item.at).ok()?;
        match (Parser::new(tokens).parse_decl_item().ok()?, &item.body) {
            (Decl::Struct(s), None) => ast.structs.push(s),
            (Decl::Global(g), None) => ast.globals.push(g),
            (Decl::Func(f), Some(body)) => {
                ast.funcs.push(f);
                bodies.push(body);
            }
            // The scan and the parser disagree on what the item is.
            _ => return None,
        }
    }
    let decls = Decls::new(&ast).ok()?;
    let main = decls.main().ok()?;

    // A body's key: the declaration text, its function's index (so its
    // own header) and its bytes.
    let (keys, known): (Vec<(u64, u64)>, Vec<bool>) = match valid {
        Some(valid) => {
            let mut h = TwoLaneHasher::new();
            for item in items {
                src[item.text.clone()].hash(&mut h);
            }
            let decls_digest = h.finish_pair();
            let keys: Vec<_> = bodies
                .iter()
                .enumerate()
                .map(|(i, (body, _))| fingerprint_of(&(decls_digest, i, &src[body.clone()])))
                .collect();
            let set = valid.lock();
            let known = keys.iter().map(|k| set.contains(k)).collect();
            (keys, known)
        }
        None => (Vec::new(), vec![false; bodies.len()]),
    };

    let lower_body = |f: usize| {
        let (range, at) = bodies[f];
        let (locals, stmts) = Parser::new(lex_at(&src[range.clone()], *at).ok()?)
            .parse_body_item()
            .ok()?;
        decls.lower_func(&ast.funcs[f], &locals, &stmts).ok()
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
            None if stubbed[f] => Some(Decls::stub(&ast.funcs[f])),
            None => lower_body(f),
        })
        .collect::<Option<_>>()?;
    let program = decls.finish(funcs).ok()?;
    wf::check(&program).ok()?;

    if let Some(valid) = valid {
        let mut set = valid.lock();
        for (f, def) in program.funcs.iter().enumerate() {
            // A body the transform's whole-program scan reads must
            // always arrive in full.
            if stubbed[f] || known[f] || def.body.mallocs_to_non_var(&|_| true) {
                continue;
            }
            if set.len() >= ValidBodies::CAPACITY {
                set.clear();
                valid.clears.fetch_add(1, Ordering::Relaxed);
            }
            set.insert(keys[f]);
        }
        let stubs = stubbed.iter().filter(|&&s| s).count() as u64;
        valid
            .lowered
            .fetch_add(stubbed.len() as u64 - stubs, Ordering::Relaxed);
        valid.stubbed.fetch_add(stubs, Ordering::Relaxed);
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
