//! # kiss-core
//!
//! The paper's primary contribution: the **KISS transformation** that
//! turns a concurrent KISS-C program into a sequential program whose
//! executions simulate the concurrent program's balanced (stack-
//! disciplined) executions — plus everything around it:
//!
//! * [`transform`] — the `[[·]]` translation of paper Figures 4
//!   (assertion checking) and 5 (race checking): the `raise` flag and
//!   `RAISE` prologue, the bounded multiset `ts` encoded as `MAX` extra
//!   global slots, the generated `schedule()` / `check_r` / `check_w`
//!   runtime, and the `Check(s)` entry point;
//! * [`trace_map`] — reconstruction of a concurrent error trace
//!   (thread ids + context switches) from the sequential checker's
//!   trace, as the paper's Figure 1 architecture requires;
//! * [`checker`] — the end-to-end [`checker::Kiss`] pipeline:
//!   transform, run a sequential engine (`kiss-seq`), back-map the
//!   trace, and optionally *validate* the mapped schedule against the
//!   concurrent explorer — witnessing the paper's "never reports false
//!   errors" guarantee;
//! * [`harness`] — the two-thread dispatch-routine harness used by the
//!   driver experiments (Section 6);
//! * [`supervisor`] — robust execution of many checks in sequence:
//!   panic isolation, wall-clock deadlines, cooperative cancellation,
//!   and bounded retry-with-escalation for inconclusive checks.
//!
//! ```
//! use kiss_core::checker::{Kiss, KissOutcome};
//!
//! let src = r#"
//!     int g;
//!     void other() { g = 1; }
//!     void main() { async other(); assert g == 0; }
//! "#;
//! let program = kiss_lang::parse_and_lower(src).expect("valid program");
//! let outcome = Kiss::new().check_assertions(&program);
//! assert!(matches!(outcome, KissOutcome::AssertionViolation(_)));
//! ```

pub mod checker;
pub mod harness;
pub mod report;
pub mod sigint;
pub mod supervisor;
pub mod trace_map;
pub mod transform;

pub use checker::{CheckError, Kiss, KissOutcome};
pub use supervisor::{Supervised, SupervisedRun, Supervisor};
pub use transform::{RaceTarget, TransformConfig, Transformed};
