//! # KISS: Keep It Simple and Sequential
//!
//! A Rust reproduction of *KISS: Keep It Simple and Sequential*
//! (Shaz Qadeer and Dinghao Wu, PLDI 2004): an assertion and race
//! checker for concurrent programs that works by **sequentialization**
//! — transforming the concurrent program into a sequential one that
//! simulates its stack-disciplined (balanced) interleavings, then
//! running an off-the-shelf sequential checker.
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`lang`] | `kiss-lang` | the KISS-C language: parser, core IR, printer |
//! | [`exec`] | `kiss-exec` | values, memory, flat CFG, evaluator |
//! | [`seq`]  | `kiss-seq`  | sequential checkers (the SLAM stand-in) |
//! | [`conc`] | `kiss-conc` | interleaving explorer, balanced schedules, dynamic checker |
//! | [`alias`]| `kiss-alias`| unification points-to analysis |
//! | [`core`] | `kiss-core` | **the KISS transformation**, trace back-mapping, checker |
//! | [`ltl`]  | `kiss-ltl`  | LTL liveness: formulas, Büchi tableau, product exploration |
//! | [`obs`]  | `kiss-obs`  | structured events, run reports, trace/metrics sinks |
//! | [`fault`] | `kiss-fault` | deterministic failpoints for robustness testing |
//! | [`serve`] | `kiss-serve` | check service: wire protocol, result cache, server, client |
//! | [`drivers`] | `kiss-drivers` | Bluetooth model, OS stubs, 18-driver corpus |
//! | [`samples`] | `kiss-samples` | classic concurrency algorithms with ground-truth verdicts |
//!
//! ## Quickstart
//!
//! ```
//! use kiss::{Kiss, KissOutcome};
//!
//! let program = kiss::parse(r#"
//!     int g;
//!     void other() { g = 1; }
//!     void main() { async other(); assert g == 0; }
//! "#).expect("valid KISS-C");
//!
//! match Kiss::new().check_assertions(&program) {
//!     KissOutcome::AssertionViolation(report) => {
//!         // The error trace is mapped back to a concurrent schedule
//!         // and validated by replaying it on the original program.
//!         assert_eq!(report.validated, Some(true));
//!         assert_eq!(report.mapped.thread_count, 2);
//!     }
//!     other => panic!("expected a violation, got {other:?}"),
//! }
//! ```

pub use kiss_alias as alias;
pub use kiss_conc as conc;
pub use kiss_core as core;
pub use kiss_drivers as drivers;
pub use kiss_exec as exec;
pub use kiss_fault as fault;
pub use kiss_obs as obs;
pub use kiss_samples as samples;
pub use kiss_lang as lang;
pub use kiss_ltl as ltl;
pub use kiss_seq as seq;
pub use kiss_serve as serve;

pub use kiss_core::checker::{Engine, ErrorReport, Kiss, KissOutcome, LivenessReport, RaceReport};
pub use kiss_core::transform::{transform, RaceTarget, TransformConfig, Transformed};
pub use kiss_lang::{LangError, Program};
pub use kiss_seq::Budget;

/// Parses and lowers KISS-C source into a checked core program.
///
/// # Errors
///
/// Returns the first lexing, parsing, lowering or well-formedness
/// error.
pub fn parse(src: &str) -> Result<Program, LangError> {
    kiss_lang::parse_and_lower(src)
}
