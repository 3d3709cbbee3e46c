//! kiss-ltl: liveness checking for KISS-sequentialized programs.
//!
//! The crate turns an LTL formula over KISS-C globals into a Büchi
//! automaton for its negation (on-the-fly GPVW tableau + counter
//! degeneralization) and explores the product of the sequentialized
//! program with that automaton. An accepting lasso in the product is a
//! concrete infinite run violating the formula; the engine explores it
//! through the safety BFS engine's search and reconstructs a violation
//! as a finite stem plus a repeating cycle from the same search tree.
//!
//! Pipeline: [`parse()`] → [`Buchi::for_negation`] → [`resolve_atoms`] →
//! [`ProductChecker`] → [`LtlVerdict`].

pub mod ast;
pub mod buchi;
pub mod parse;
pub mod product;

pub use ast::{Atom, CmpOp, Formula};
pub use buchi::{Buchi, BuchiState};
pub use parse::{parse, ParseError};
pub use product::{resolve_atoms, Lasso, LtlVerdict, ProductChecker, ResolvedAtom};
