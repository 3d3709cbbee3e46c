//! # kiss-exec
//!
//! The shared execution substrate for the KISS reproduction: dynamic
//! values, addresses and heap objects ([`value`]), a flat control-flow
//! instruction form lowered from the core IR ([`mod@cfg`]), a
//! context-generic evaluator for operands, rvalues and assignments
//! ([`eval`]), and the one instruction semantics ([`mod@step`]).
//!
//! [`step::step`] executes one instruction of one thread against a
//! [`ThreadEnv`]: shared memory plus every thread's frame stack. The
//! sequential checkers (`kiss-seq`, the stand-in for SLAM, and the
//! `kiss-ltl` product) run it on a single stack; the concurrent
//! explorer and runner (`kiss-conc`) run it on the scheduled thread and
//! keep only their scheduling policy. So a statement means the same
//! thing under sequential and interleaved execution, which is what
//! makes the completeness theorem (paper Theorem 1) empirically
//! testable. The summary engine keeps only calls and returns as its
//! own: it binds a call through [`step::bind_call`] and continues with
//! the callee's summarized exits.
//!
//! Every engine also records its states in the one [`store`], keyed on
//! fingerprints from the one [`TwoLaneHasher`] (kiss-lang's). A
//! fingerprint folds in the [`digest`]s that [`Memory`] and each
//! [`Frame`] keep current on every write, so recording a state costs
//! O(frames), not O(memory). The explicit and summary engines explore
//! one configuration in place: a [`ThreadEnv`] given an [`UndoLog`]
//! records each write's old value, and the search takes writes back
//! instead of copying states at branches.

pub mod cfg;
pub mod digest;
pub mod error;
pub mod eval;
pub mod step;
pub mod store;
pub mod value;

pub use cfg::{FuncBody, Instr, InstrMeta, Module};
pub use digest::Digest;
pub use error::ExecError;
pub use eval::{eval_operand, eval_rvalue, exec_assign, place_addr, Env};
pub use kiss_lang::fingerprint::{fingerprint_of, TwoLaneHasher};
pub use step::{Fault, Frame, Step, ThreadEnv, TraceStep, UndoLog};
pub use value::{Addr, HeapObj, Memory, Value};
