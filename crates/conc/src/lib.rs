//! # kiss-conc
//!
//! The concurrent side of the reproduction: a ground-truth interleaving
//! explorer and its companions.
//!
//! * [`explorer::Explorer`] — exhaustive exploration of thread
//!   interleavings with state hashing; the "traditional model checker"
//!   whose exponential growth in the thread count the paper's
//!   introduction argues against. Supports restricting the search to
//!   **balanced** (stack-disciplined) schedules, bounding context
//!   switches, and replaying a thread-id schedule pattern (used to
//!   validate back-mapped KISS error traces — "never reports false
//!   errors").
//! * [`balanced`] — the language `L_X` of paper Section 4.1: membership
//!   checking both by the recursive definition and by an online
//!   stack-discipline automaton (proven equivalent by property tests).
//! * [`dynamic`] — a random-schedule dynamic checker, the comparison
//!   point for the paper's related-work discussion of dynamic tools.
//! * [`runner`] — one random execution emitting an event stream, the
//!   shared machinery of the [`lockset`] and [`vclock`] race detectors.
//!
//! The explorer and the runner execute every instruction through
//! kiss-exec's [`kiss_exec::step::step`], the same semantics the
//! sequential engines use; they keep only schedule policy — which
//! thread acts, how a blocked `assume` or an `async` is handled, and
//! how an `atomic` block runs without interleaving.

pub mod balanced;
pub mod config;
pub mod dynamic;
pub mod explorer;
pub mod lockset;
pub mod runner;
pub mod vclock;

pub use balanced::{is_balanced, BalanceTracker};
pub use config::ConcConfig;
pub use dynamic::{DynamicChecker, DynamicOutcome};
pub use explorer::{ConcStats, ConcTraceStep, ConcVerdict, Explorer, ScheduleMode};
pub use lockset::{lockset_check, LocksetReport, LocksetWarning};
pub use runner::{Event, RunEnd, Runner};
pub use vclock::{hb_check, HbRace, HbReport};
