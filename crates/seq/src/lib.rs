//! # kiss-seq
//!
//! Sequential program checkers — the substrate the paper delegates to
//! SLAM. KISS only needs *some* sound-and-complete assertion checker
//! for sequential programs with finite data (the problem is decidable,
//! paper refs [34, 37]); this crate provides three:
//!
//! * [`explicit::ExplicitChecker`] — whole-configuration depth-first
//!   search with visited-state hashing and resource budgets. Produces
//!   full error traces, which `kiss-core` maps back to concurrent
//!   executions.
//! * [`summary::SummaryChecker`] — a Sharir–Pnueli-style functional
//!   interprocedural engine that memoizes per-function input/output
//!   summaries (the Bebop analogue), trading trace detail for reuse
//!   across call sites.
//! * [`bfs::BfsChecker`] — breadth-first search over decision points,
//!   returning minimal-depth counterexamples (short traces are what a
//!   human debugging the concurrent program wants to read).
//!
//! All three agree on verdicts; an integration test checks this on a
//! program corpus. The explicit and BFS engines (and kiss-ltl's product
//! engine) execute instructions through kiss-exec's one shared
//! [`kiss_exec::step::step`], on a [`config::Config`]'s single stack; the
//! summary engine keeps its own stackless interpreter and binds calls
//! through [`kiss_exec::step::bind_call`]. All three record their states
//! in kiss-exec's one state store ([`kiss_exec::store`]), the one the
//! concurrent explorer uses too.

pub mod bfs;
pub mod budget;
pub mod cancel;
pub mod config;
pub mod explicit;
pub mod stats;
pub mod summary;
pub mod verdict;

pub use bfs::BfsChecker;
pub use budget::{BoundReason, Budget, Meter, Usage};
pub use cancel::CancelToken;
pub use explicit::ExplicitChecker;
pub use stats::EngineStats;
pub use summary::SummaryChecker;
pub use verdict::{ErrorTrace, Verdict};
