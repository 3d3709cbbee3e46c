//! Supervised execution of individual checks.
//!
//! The paper's experiments run 481 field checks under a per-check
//! resource bound (20 minutes / 800 MB), recording "resource bound
//! exceeded" for the ones that do not finish — one divergent or crashing
//! check must never take down the rest of the corpus. [`Supervisor`]
//! provides that robustness layer for our reproduction:
//!
//! * **panic isolation** — the check closure runs under
//!   [`std::panic::catch_unwind`]; a panic becomes
//!   [`Supervised::Crashed`] with the panic payload as the cause,
//!   instead of aborting the corpus run;
//! * **retry with escalation** — an inconclusive check (budget tripped)
//!   is retried under a doubled, then quadrupled budget (the ladder is
//!   bounded by [`Supervisor::with_retries`]); a check cut short by
//!   *cancellation* is never retried, because the supervisor itself is
//!   being shut down;
//! * **deadline and cancellation plumbing** — each attempt receives the
//!   (escalated) [`Budget`] and the shared [`CancelToken`], which the
//!   engines poll from their inner loops.
//!
//! The crash path is testable on demand: the `supervisor.attempt`
//! failpoint (`kiss-fault`) sits inside the unwind boundary, so an
//! injected panic takes exactly the route a buggy engine would.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use kiss_obs::{CheckMetrics, Event, Obs};
use kiss_seq::{BoundReason, Budget, CancelToken};

use crate::checker::{CheckStats, KissOutcome};

/// Failpoint: one supervised attempt, inside `catch_unwind`.
const ATTEMPT_POINT: &str = "supervisor.attempt";

/// How a supervised check ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Supervised {
    /// The check ran to a verdict (possibly still inconclusive after
    /// the whole escalation ladder).
    Completed(KissOutcome),
    /// The check panicked; the corpus run continues without it.
    Crashed {
        /// The panic payload, stringified.
        cause: String,
    },
}

impl Supervised {
    /// `true` for [`Supervised::Crashed`].
    pub fn is_crashed(&self) -> bool {
        matches!(self, Supervised::Crashed { .. })
    }
}

/// One supervised run: the final result plus attempt accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedRun {
    /// The final result.
    pub result: Supervised,
    /// Attempts made (1 = no retry was needed or allowed).
    pub attempts: u32,
    /// The budget of the last attempt (base budget × 2^(attempts-1)
    /// unless the run crashed or was cancelled earlier).
    pub last_budget: Budget,
}

/// Runs check closures with panic isolation, cancellation, and a
/// bounded retry-with-escalation ladder.
#[derive(Debug, Clone)]
pub struct Supervisor {
    budget: Budget,
    retries: u32,
    cancel: CancelToken,
    obs: Obs,
}

impl Supervisor {
    /// A supervisor granting each check `budget`, with the default
    /// two-step escalation ladder (retry at 2× and 4×).
    pub fn new(budget: Budget) -> Self {
        Supervisor {
            budget,
            retries: 2,
            cancel: CancelToken::default(),
            obs: Obs::off(),
        }
    }

    /// Sets how many escalating retries an inconclusive check gets
    /// after its first attempt (0 disables retrying). Retry `i` runs
    /// under `budget.scaled(2^i)`.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Shares a cancellation token with every attempt. Once cancelled,
    /// running checks wind down and no further attempts start.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// The base (unescalated) budget.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// The shared cancellation token.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Attaches an observer. [`Supervisor::run_scoped`] relabels it per
    /// check and emits lifecycle events (`check_started`,
    /// `retry_escalated`, `check_finished`) through it.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observer (disabled by default).
    pub fn observer(&self) -> &Obs {
        &self.obs
    }

    /// Runs `check` under supervision. The closure receives the budget
    /// for the current attempt and the shared cancellation token; it is
    /// called again with a scaled budget while it reports a *retryable*
    /// inconclusive outcome and the ladder is not exhausted.
    ///
    /// No events are emitted: callers that want the check's lifecycle
    /// observed use [`Supervisor::run_scoped`].
    pub fn run<F>(&self, mut check: F) -> SupervisedRun
    where
        F: FnMut(Budget, CancelToken) -> KissOutcome,
    {
        self.run_inner(&Obs::off(), |budget, cancel, _| check(budget, cancel))
    }

    /// Like [`Supervisor::run`], but relabels the attached observer
    /// with `label`, passes it to the closure (for
    /// [`crate::checker::Kiss::with_observer`]), and emits the check's
    /// lifecycle events around the attempts.
    pub fn run_scoped<F>(&self, label: &str, check: F) -> SupervisedRun
    where
        F: FnMut(Budget, CancelToken, &Obs) -> KissOutcome,
    {
        self.run_inner(&self.obs.with_label(label), check)
    }

    fn run_inner<F>(&self, obs: &Obs, mut check: F) -> SupervisedRun
    where
        F: FnMut(Budget, CancelToken, &Obs) -> KissOutcome,
    {
        obs.emit(|label| Event::CheckStarted { check: label.to_string() });
        let started = Instant::now();
        let mut attempts = 0u32;
        let mut budget = self.budget;
        loop {
            attempts += 1;
            if self.cancel.is_cancelled() {
                return self.finish(
                    obs,
                    started,
                    SupervisedRun {
                        result: Supervised::Completed(KissOutcome::Inconclusive {
                            stats: CheckStats::default(),
                            reason: BoundReason::Cancelled,
                        }),
                        attempts,
                        last_budget: budget,
                    },
                );
            }
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                // Failpoint inside the unwind boundary: an injected
                // panic exercises exactly the crash path a buggy engine
                // would take, surfacing as `Supervised::Crashed`.
                if let Some(action) = kiss_fault::hit(ATTEMPT_POINT) {
                    obs.emit(|_| Event::FaultInjected {
                        point: ATTEMPT_POINT.to_string(),
                        action: action.name().to_string(),
                    });
                    match action {
                        kiss_fault::Action::Error | kiss_fault::Action::Panic => {
                            panic!("kiss-fault: injected {} at {ATTEMPT_POINT}", action.name())
                        }
                        kiss_fault::Action::Delay(d) => std::thread::sleep(d),
                        kiss_fault::Action::Truncate(_) => {}
                    }
                }
                check(budget, self.cancel.clone(), obs)
            }));
            let outcome = match attempt {
                Ok(outcome) => outcome,
                Err(payload) => {
                    return self.finish(
                        obs,
                        started,
                        SupervisedRun {
                            result: Supervised::Crashed { cause: panic_cause(payload) },
                            attempts,
                            last_budget: budget,
                        },
                    )
                }
            };
            let retry_reason = match &outcome {
                KissOutcome::Inconclusive { reason, .. } if reason.retryable() => Some(*reason),
                _ => None,
            };
            if let Some(reason) = retry_reason {
                if attempts <= self.retries {
                    budget = budget.scaled(2);
                    obs.emit(|label| Event::RetryEscalated {
                        check: label.to_string(),
                        attempt: u64::from(attempts) + 1,
                        reason: reason.as_str().to_string(),
                    });
                    continue;
                }
            }
            return self.finish(
                obs,
                started,
                SupervisedRun {
                    result: Supervised::Completed(outcome),
                    attempts,
                    last_budget: budget,
                },
            );
        }
    }

    fn finish(&self, obs: &Obs, started: Instant, run: SupervisedRun) -> SupervisedRun {
        obs.emit(|label| Event::CheckFinished {
            metrics: metrics_for(label, &run, started.elapsed().as_millis() as u64),
        });
        run
    }
}

/// Builds the [`CheckMetrics`] record for one finished supervised run.
fn metrics_for(label: &str, run: &SupervisedRun, wall_ms: u64) -> CheckMetrics {
    let mut m = CheckMetrics {
        check: label.to_string(),
        wall_ms,
        retries: u64::from(run.attempts.saturating_sub(1)),
        ..CheckMetrics::default()
    };
    match &run.result {
        Supervised::Crashed { .. } => m.verdict = "crashed".to_string(),
        Supervised::Completed(outcome) => {
            m.verdict = outcome.verdict_str().to_string();
            if let KissOutcome::Inconclusive { reason, .. } = outcome {
                m.bound_reason = Some(reason.as_str().to_string());
            }
            if let Some(stats) = outcome.stats() {
                m.engine = stats.engine.name().to_string();
                m.steps = stats.seq.steps;
                m.states = stats.seq.states as u64;
                m.frontier_peak = stats.seq.frontier_peak as u64;
                m.states_stored = stats.seq.states_stored as u64;
                m.store_bytes = stats.seq.store_bytes as u64;
                m.summaries = stats.seq.summaries as u64;
                m.rounds = u64::from(stats.seq.rounds);
                m.product_states = stats.seq.product_states as u64;
                m.buchi_states = stats.seq.buchi_states as u64;
            }
        }
    }
    m
}

/// Stringifies a panic payload (`&str` and `String` payloads cover
/// everything `panic!` and `unwrap` produce).
fn panic_cause(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::{CheckStats, Kiss};
    use kiss_seq::BoundReason;
    use std::time::Duration;

    fn small() -> Budget {
        Budget::steps_states(1_000, 100)
    }

    fn no_error() -> KissOutcome {
        KissOutcome::NoErrorFound(CheckStats::default())
    }

    fn inconclusive(reason: BoundReason) -> KissOutcome {
        KissOutcome::Inconclusive { stats: CheckStats::default(), reason }
    }

    #[test]
    fn clean_check_takes_one_attempt() {
        let run = Supervisor::new(small()).run(|_, _| no_error());
        assert_eq!(run.attempts, 1);
        assert_eq!(run.result, Supervised::Completed(no_error()));
        assert_eq!(run.last_budget, small());
    }

    #[test]
    fn escalation_ladder_doubles_then_caps() {
        let mut budgets = Vec::new();
        let run = Supervisor::new(small()).with_retries(2).run(|b, _| {
            budgets.push(b);
            inconclusive(BoundReason::Steps)
        });
        // 1×, 2×, 4× — then the ladder is exhausted.
        assert_eq!(run.attempts, 3);
        assert_eq!(budgets, vec![small(), small().scaled(2), small().scaled(4)]);
        assert_eq!(run.result, Supervised::Completed(inconclusive(BoundReason::Steps)));
        assert_eq!(run.last_budget, small().scaled(4));
    }

    #[test]
    fn zero_retries_disables_the_ladder() {
        let mut calls = 0;
        let run = Supervisor::new(small()).with_retries(0).run(|_, _| {
            calls += 1;
            inconclusive(BoundReason::States)
        });
        assert_eq!(run.attempts, 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn success_on_retry_stops_the_ladder() {
        let mut calls = 0;
        let run = Supervisor::new(small()).with_retries(2).run(|_, _| {
            calls += 1;
            if calls == 1 {
                inconclusive(BoundReason::Steps)
            } else {
                no_error()
            }
        });
        assert_eq!(run.attempts, 2);
        assert_eq!(run.result, Supervised::Completed(no_error()));
    }

    #[test]
    fn panicking_check_is_isolated_as_crashed() {
        let run = Supervisor::new(small()).run(|_, _| panic!("model exploded: field 7"));
        assert_eq!(run.attempts, 1);
        let Supervised::Crashed { cause } = run.result else { panic!("{:?}", run.result) };
        assert!(cause.contains("model exploded"), "{cause}");
    }

    #[test]
    fn formatted_panic_payloads_are_captured() {
        let field = 9;
        let run = Supervisor::new(small()).run(|_, _| panic!("bad field {field}"));
        let Supervised::Crashed { cause } = run.result else { panic!() };
        assert_eq!(cause, "bad field 9");
    }

    #[test]
    fn crashes_are_not_retried() {
        let mut calls = 0;
        let run = Supervisor::new(small()).with_retries(5).run(|_, _| {
            calls += 1;
            panic!("boom")
        });
        assert_eq!(calls, 1);
        assert_eq!(run.attempts, 1);
        assert!(run.result.is_crashed());
    }

    #[test]
    fn cancellation_is_not_retried() {
        let cancel = CancelToken::new();
        let mut calls = 0;
        let run = Supervisor::new(small()).with_retries(5).with_cancel(cancel.clone()).run(
            |_, token| {
                calls += 1;
                // Simulates an engine observing mid-check cancellation.
                cancel.cancel();
                assert!(token.is_cancelled());
                inconclusive(BoundReason::Cancelled)
            },
        );
        assert_eq!(calls, 1);
        assert_eq!(run.result, Supervised::Completed(inconclusive(BoundReason::Cancelled)));
    }

    #[test]
    fn pre_cancelled_supervisor_skips_the_check_entirely() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut calls = 0;
        let run = Supervisor::new(small()).with_cancel(cancel).run(|_, _| {
            calls += 1;
            no_error()
        });
        assert_eq!(calls, 0);
        let Supervised::Completed(KissOutcome::Inconclusive { reason, .. }) = run.result else {
            panic!("{:?}", run.result);
        };
        assert_eq!(reason, BoundReason::Cancelled);
    }

    #[test]
    fn deadline_expiry_on_a_real_check_reports_deadline_through_the_ladder() {
        // A zero deadline stays zero under scaling, so every rung of
        // the ladder reports Deadline and the run ends inconclusive.
        let src = "
            int g;
            void spin() { iter { g = g + 1; } }
            void main() { async spin(); assert g >= 0; }
        ";
        let program = kiss_lang::parse_and_lower(src).unwrap();
        let budget = Budget::generous().with_deadline(Duration::ZERO);
        let run = Supervisor::new(budget)
            .with_retries(1)
            .run(|b, token| Kiss::new().with_budget(b).with_cancel(token).check_assertions(&program));
        assert_eq!(run.attempts, 2);
        let Supervised::Completed(KissOutcome::Inconclusive { reason, .. }) = run.result else {
            panic!("{:?}", run.result);
        };
        assert_eq!(reason, BoundReason::Deadline);
    }

    #[test]
    fn run_scoped_emits_lifecycle_events() {
        let agg = kiss_obs::Aggregator::new();
        let sup = Supervisor::new(small()).with_retries(1).with_observer(Obs::new(agg.clone()));
        let mut calls = 0;
        let run = sup.run_scoped("drv/0", |_, _, _| {
            calls += 1;
            if calls == 1 {
                inconclusive(BoundReason::Steps)
            } else {
                no_error()
            }
        });
        assert_eq!(run.attempts, 2);
        let counts = agg.event_counts();
        assert_eq!(counts.get("check_started"), Some(&1), "{counts:?}");
        assert_eq!(counts.get("retry_escalated"), Some(&1), "{counts:?}");
        assert_eq!(counts.get("check_finished"), Some(&1), "{counts:?}");
        let report = agg.report();
        assert_eq!(report.checks, 1);
        assert_eq!(report.retries, 1);
        assert_eq!(report.outcomes.get("pass"), Some(&1));
    }

    #[test]
    fn plain_run_emits_nothing() {
        let agg = kiss_obs::Aggregator::new();
        let sup = Supervisor::new(small()).with_observer(Obs::new(agg.clone()));
        sup.run(|_, _| no_error());
        assert!(agg.event_counts().is_empty());
    }

    #[test]
    fn escalation_resolves_a_genuinely_tight_budget() {
        // The check needs more steps than the base budget allows but
        // fits in 4×: the ladder turns inconclusive into a verdict.
        let src = "
            int g;
            void o() { g = 1; }
            void main() { async o(); assert g <= 1; }
        ";
        let program = kiss_lang::parse_and_lower(src).unwrap();
        let (_, full) = {
            let module = kiss_exec::Module::lower(
                crate::transform::transform(
                    &program,
                    &crate::transform::TransformConfig { max_ts: 0, race: None, alias_prune: true },
                )
                .unwrap()
                .program,
            );
            kiss_seq::ExplicitChecker::new(&module).check_with_stats()
        };
        // Base budget covers a quarter of the needed steps (rounded
        // up), so the first attempts trip and the 4× rung completes.
        let base = Budget::steps_states(full.steps.div_ceil(4), usize::MAX);
        let run = Supervisor::new(base)
            .with_retries(2)
            .run(|b, token| Kiss::new().with_budget(b).with_cancel(token).check_assertions(&program));
        let Supervised::Completed(outcome) = &run.result else { panic!("{:?}", run.result) };
        assert!(outcome.is_clean(), "{outcome:?}");
        assert!(run.attempts > 1, "base budget should have tripped at least once");
    }
}
