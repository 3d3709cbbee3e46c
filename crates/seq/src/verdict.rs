//! Check outcomes and error traces.

use kiss_exec::{ExecError, Fault, TraceStep};
use kiss_lang::hir::Origin;

use crate::budget::BoundReason;

/// A full error trace: every instruction executed from the initial
/// state to the failure, in order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ErrorTrace {
    /// The executed steps.
    pub steps: Vec<TraceStep>,
    /// Global variable values at the failure point (used by race
    /// reporting to recover which site performed the first access).
    pub globals: Vec<kiss_exec::Value>,
}

impl ErrorTrace {
    /// Only the steps that originate from user statements (what a
    /// developer reads, and what trace back-mapping consumes).
    pub fn user_steps(&self) -> impl Iterator<Item = &TraceStep> {
        self.steps.iter().filter(|s| s.origin == Origin::User)
    }
}

/// The outcome of a sequential check.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The full (budget-permitting exhaustive) search found no
    /// assertion failure.
    Pass,
    /// An assertion failed; the trace leads to it.
    Fail(ErrorTrace),
    /// The program performed an operation with undefined semantics.
    RuntimeError(ExecError, ErrorTrace),
    /// The search exceeded its budget before completing.
    ResourceBound {
        /// Instructions executed when the budget tripped.
        steps: u64,
        /// Distinct states recorded when the budget tripped.
        states: usize,
        /// Which budget axis tripped.
        reason: BoundReason,
    },
}

impl Verdict {
    /// The verdict a fault ends a search with, over `trace`.
    pub fn of_fault(fault: Fault, trace: ErrorTrace) -> Verdict {
        match fault {
            Fault::Assert => Verdict::Fail(trace),
            Fault::Exec(e) => Verdict::RuntimeError(e, trace),
        }
    }

    /// `true` for [`Verdict::Fail`].
    pub fn is_fail(&self) -> bool {
        matches!(self, Verdict::Fail(_))
    }

    /// `true` for [`Verdict::Pass`].
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// `true` for [`Verdict::ResourceBound`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, Verdict::ResourceBound { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass => write!(f, "pass"),
            Verdict::Fail(t) => write!(f, "assertion failure after {} step(s)", t.steps.len()),
            Verdict::RuntimeError(e, _) => write!(f, "runtime error: {e}"),
            Verdict::ResourceBound { steps, states, reason } => {
                write!(f, "resource bound exceeded: {reason} ({steps} steps, {states} states)")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kiss_lang::hir::FuncId;
    use kiss_lang::Span;

    #[test]
    fn predicates_match_variants() {
        assert!(Verdict::Pass.is_pass());
        assert!(Verdict::Fail(ErrorTrace::default()).is_fail());
        let rb = Verdict::ResourceBound { steps: 1, states: 1, reason: BoundReason::Steps };
        assert!(rb.is_inconclusive());
        assert!(!Verdict::Pass.is_fail());
    }

    #[test]
    fn user_steps_filters_instrumentation() {
        let mk = |origin| TraceStep { func: FuncId(0), pc: 0, origin, span: Span::synthetic() };
        let t = ErrorTrace {
            steps: vec![mk(Origin::User), mk(Origin::Sched), mk(Origin::User), mk(Origin::Raise)],
            globals: Vec::new(),
        };
        assert_eq!(t.user_steps().count(), 2);
    }

    #[test]
    fn display_summarizes() {
        assert_eq!(Verdict::Pass.to_string(), "pass");
        let rb = Verdict::ResourceBound { steps: 5, states: 2, reason: BoundReason::Deadline };
        assert!(rb.to_string().contains("5 steps"));
        assert!(rb.to_string().contains("deadline"));
    }
}
