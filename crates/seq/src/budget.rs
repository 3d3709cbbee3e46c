//! Resource budgets.
//!
//! The paper runs each per-field race check under "a resource bound of
//! 20 minutes of CPU time and 800MB of memory"; checks that exceed it
//! are reported as inconclusive (neither "race" nor "no race" in
//! Table 1). We primarily bound steps and distinct visited states,
//! which is deterministic and machine-independent, and optionally add
//! the paper's own knobs: a wall-clock deadline and an approximate
//! memory cap. [`BoundReason`] records *which* axis tripped, so a
//! supervisor can decide whether retrying with a larger budget is worth
//! it (a deadline may just be a slow machine; a state explosion is
//! not).

use std::time::{Duration, Instant};

use kiss_obs::{Event, Obs};

use crate::cancel::CancelToken;

/// Execution budget for one check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of executed instructions across the whole search.
    pub max_steps: u64,
    /// Maximum number of distinct visited states.
    pub max_states: usize,
    /// Optional wall-clock deadline for one check.
    pub max_wall: Option<Duration>,
    /// Optional cap on the *approximate* memory attributable to the
    /// search (visited-state storage estimate), in bytes.
    pub max_mem_bytes: Option<usize>,
}

impl Budget {
    /// A budget bounding only steps and states (no deadline, no memory
    /// cap) — the historical constructor.
    pub fn steps_states(max_steps: u64, max_states: usize) -> Self {
        Budget { max_steps, max_states, max_wall: None, max_mem_bytes: None }
    }

    /// A budget large enough for all the bundled examples.
    pub fn generous() -> Self {
        Budget::steps_states(50_000_000, 4_000_000)
    }

    /// A small budget for unit tests.
    pub fn small() -> Self {
        Budget::steps_states(100_000, 20_000)
    }

    /// An unlimited budget (use only on known-finite programs).
    pub fn unlimited() -> Self {
        Budget::steps_states(u64::MAX, usize::MAX)
    }

    /// Adds a wall-clock deadline.
    pub fn with_deadline(mut self, wall: Duration) -> Self {
        self.max_wall = Some(wall);
        self
    }

    /// Adds an approximate memory cap.
    pub fn with_mem_limit(mut self, bytes: usize) -> Self {
        self.max_mem_bytes = Some(bytes);
        self
    }

    /// This budget with every axis multiplied by `factor` (saturating).
    /// Used by retry-with-escalation: an inconclusive check is re-run
    /// under `scaled(2)`, then `scaled(4)`, before giving up.
    pub fn scaled(&self, factor: u32) -> Self {
        Budget {
            max_steps: self.max_steps.saturating_mul(factor as u64),
            max_states: self.max_states.saturating_mul(factor as usize),
            max_wall: self.max_wall.map(|w| w.saturating_mul(factor)),
            max_mem_bytes: self.max_mem_bytes.map(|m| m.saturating_mul(factor as usize)),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::generous()
    }
}

/// Which budget axis ended a search early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundReason {
    /// The step (instruction) budget ran out.
    Steps,
    /// The distinct-state budget ran out.
    States,
    /// The wall-clock deadline passed.
    Deadline,
    /// The approximate memory cap was hit.
    Memory,
    /// Cancellation was requested (signal, supervisor shutdown).
    Cancelled,
    /// The state store ran out of dense-id space (a
    /// [`kiss_exec::store::VisitedTable`] exhausted its id range).
    /// Distinct from [`BoundReason::States`]: that axis is a configured
    /// budget, this one is a structural capacity limit.
    StateCap,
    /// The program needs what the engine does not model — the summary
    /// engine's pointer into another function's frame. Not a budget
    /// axis: another engine can decide the check.
    Unsupported,
}

impl BoundReason {
    /// A stable lowercase name (used in journals and reports).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundReason::Steps => "steps",
            BoundReason::States => "states",
            BoundReason::Deadline => "deadline",
            BoundReason::Memory => "memory",
            BoundReason::Cancelled => "cancelled",
            BoundReason::StateCap => "state-cap",
            BoundReason::Unsupported => "unsupported",
        }
    }

    /// Parses [`BoundReason::as_str`] output (journal round-trip).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "steps" => BoundReason::Steps,
            "states" => BoundReason::States,
            "deadline" => BoundReason::Deadline,
            "memory" => BoundReason::Memory,
            "cancelled" => BoundReason::Cancelled,
            "state-cap" => BoundReason::StateCap,
            "unsupported" => BoundReason::Unsupported,
            _ => return None,
        })
    }

    /// Whether retrying the same check with a *larger* budget could
    /// plausibly resolve it. Cancellation is not retryable: the
    /// supervisor is shutting down. Neither is a state-cap trip: the
    /// id space is structural, a bigger budget does not widen it; nor
    /// an unsupported program, which no budget makes supported.
    pub fn retryable(&self) -> bool {
        !matches!(self, BoundReason::Cancelled | BoundReason::StateCap | BoundReason::Unsupported)
    }
}

impl std::fmt::Display for BoundReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Running totals checked against a [`Budget`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Usage {
    /// Instructions executed.
    pub steps: u64,
    /// Distinct states recorded.
    pub states: usize,
    /// Approximate bytes attributable to visited-state storage.
    pub mem_bytes: usize,
}

impl Usage {
    /// The first deterministic axis (steps, states, memory estimate)
    /// this usage violates, if any. Wall-clock and cancellation are
    /// checked by [`Meter`], which owns the clock.
    pub fn violation(&self, budget: &Budget) -> Option<BoundReason> {
        if self.steps > budget.max_steps {
            Some(BoundReason::Steps)
        } else if self.states > budget.max_states {
            Some(BoundReason::States)
        } else if budget.max_mem_bytes.is_some_and(|cap| self.mem_bytes > cap) {
            Some(BoundReason::Memory)
        } else {
            None
        }
    }
}

/// Bytes one fingerprinted state is charged against `max_mem_bytes`.
/// A conservative estimate: the visited table measures about 32 B per
/// state (a 16-byte fingerprint plus its 4-byte slots, both with growth
/// headroom). The value decides where `--mem-limit` trips.
pub const BYTES_PER_FINGERPRINT: usize = 48;

/// Per-check budget enforcement shared by all engines.
///
/// Centralizes the bookkeeping the engines used to do by hand: step
/// counting, state accounting, and — new — wall-clock deadline and
/// cancellation polling. `Instant::now()` and the atomic load are kept
/// off the hot path by polling only every 1024 steps (and on the very
/// first step, so tiny budgets still observe cancellation).
#[derive(Debug, Clone)]
pub struct Meter {
    budget: Budget,
    cancel: CancelToken,
    started: Instant,
    bytes_per_state: usize,
    obs: Obs,
    engine: &'static str,
    /// Running totals, readable by the engine for statistics.
    pub usage: Usage,
}

/// Progress events are emitted every `TICK_EVENT_MASK + 1` steps — a
/// power of two so the test is a mask, nested inside the 1024-step
/// slow-path window.
const TICK_EVENT_MASK: u64 = (1 << 18) - 1;

impl Meter {
    /// Starts metering against `budget`; the deadline clock starts now.
    pub fn new(budget: Budget, cancel: CancelToken) -> Self {
        Meter {
            budget,
            cancel,
            started: Instant::now(),
            bytes_per_state: BYTES_PER_FINGERPRINT,
            obs: Obs::off(),
            engine: "",
            usage: Usage::default(),
        }
    }

    /// The inconclusive verdict for a trip on `reason` at the current
    /// usage.
    pub fn bound(&self, reason: BoundReason) -> crate::verdict::Verdict {
        crate::verdict::Verdict::ResourceBound {
            steps: self.usage.steps,
            states: self.usage.states,
            reason,
        }
    }

    /// Overrides the per-state size estimate (engines that store whole
    /// configurations rather than fingerprints pass a larger number).
    pub fn with_state_size(mut self, bytes_per_state: usize) -> Self {
        self.bytes_per_state = bytes_per_state;
        self
    }

    /// Attaches an observer: the meter emits throttled
    /// `EngineTick` progress events and a `BudgetViolated` event when
    /// any axis trips. `engine` names the engine in those events.
    pub fn with_observer(mut self, obs: Obs, engine: &'static str) -> Self {
        self.obs = obs;
        self.engine = engine;
        self
    }

    /// The budget being enforced.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Counts one executed instruction and checks every bound.
    /// Deterministic axes are checked on every call; the clock and the
    /// cancellation flag every 1024 steps (and on the first).
    #[inline]
    pub fn tick(&mut self) -> Result<(), BoundReason> {
        self.usage.steps += 1;
        if let Some(reason) = self.usage.violation(&self.budget) {
            self.emit_violation(reason);
            return Err(reason);
        }
        if self.usage.steps & 1023 == 1 {
            self.slow_tick()
        } else {
            Ok(())
        }
    }

    /// The infrequent part of [`Meter::tick`]: clock + cancellation
    /// (cancellation first), plus (even less frequently) a progress
    /// event.
    fn slow_tick(&mut self) -> Result<(), BoundReason> {
        if self.usage.steps & TICK_EVENT_MASK == 1 {
            self.obs.emit(|check| Event::EngineTick {
                check: check.to_string(),
                engine: self.engine,
                steps: self.usage.steps,
                states: self.usage.states as u64,
            });
        }
        if self.cancel.is_cancelled() {
            self.emit_violation(BoundReason::Cancelled);
            return Err(BoundReason::Cancelled);
        }
        if self.budget.max_wall.is_some_and(|w| self.started.elapsed() > w) {
            self.emit_violation(BoundReason::Deadline);
            return Err(BoundReason::Deadline);
        }
        Ok(())
    }

    /// Records the current distinct-state count (and the derived memory
    /// estimate). Violations surface on the next [`Meter::tick`].
    pub fn note_states(&mut self, states: usize) {
        self.usage.states = states;
        self.usage.mem_bytes = states.saturating_mul(self.bytes_per_state);
    }

    /// Re-checks the deterministic axes without counting a step — for
    /// engines that grow state in bulk between ticks (a breadth-first
    /// expansion).
    pub fn over_budget(&self) -> Option<BoundReason> {
        let violation = self.usage.violation(&self.budget);
        if let Some(reason) = violation {
            self.emit_violation(reason);
        }
        violation
    }

    pub(crate) fn emit_violation(&self, reason: BoundReason) {
        self.obs.emit(|check| Event::BudgetViolated {
            check: check.to_string(),
            engine: self.engine,
            reason: reason.as_str().to_string(),
            steps: self.usage.steps,
            states: self.usage.states as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn violation_checks_both_axes() {
        let b = Budget::steps_states(10, 5);
        assert!(Usage { steps: 10, states: 5, mem_bytes: 0 }.violation(&b).is_none());
        assert_eq!(
            Usage { steps: 11, states: 0, mem_bytes: 0 }.violation(&b),
            Some(BoundReason::Steps)
        );
        assert_eq!(
            Usage { steps: 0, states: 6, mem_bytes: 0 }.violation(&b),
            Some(BoundReason::States)
        );
    }

    #[test]
    fn memory_axis_only_applies_when_capped() {
        let uncapped = Budget::steps_states(10, 5);
        let capped = uncapped.with_mem_limit(100);
        let usage = Usage { steps: 0, states: 0, mem_bytes: 101 };
        assert!(usage.violation(&uncapped).is_none());
        assert_eq!(usage.violation(&capped), Some(BoundReason::Memory));
    }

    #[test]
    fn presets_are_ordered() {
        assert!(Budget::small().max_steps < Budget::generous().max_steps);
        assert!(Budget::generous().max_steps < Budget::unlimited().max_steps);
    }

    #[test]
    fn scaled_multiplies_every_axis() {
        let b = Budget::steps_states(100, 10)
            .with_deadline(Duration::from_secs(3))
            .with_mem_limit(1000);
        let s = b.scaled(4);
        assert_eq!(s.max_steps, 400);
        assert_eq!(s.max_states, 40);
        assert_eq!(s.max_wall, Some(Duration::from_secs(12)));
        assert_eq!(s.max_mem_bytes, Some(4000));
        // Saturates instead of overflowing.
        assert_eq!(Budget::unlimited().scaled(8).max_steps, u64::MAX);
    }

    #[test]
    fn bound_reason_round_trips_through_strings() {
        for r in [
            BoundReason::Steps,
            BoundReason::States,
            BoundReason::Deadline,
            BoundReason::Memory,
            BoundReason::Cancelled,
            BoundReason::StateCap,
            BoundReason::Unsupported,
        ] {
            assert_eq!(BoundReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(BoundReason::parse("bogus"), None);
    }

    #[test]
    fn only_cancellation_state_cap_and_unsupported_are_not_retryable() {
        assert!(BoundReason::Steps.retryable());
        assert!(BoundReason::Deadline.retryable());
        assert!(!BoundReason::Cancelled.retryable());
        assert!(!BoundReason::StateCap.retryable());
        assert!(!BoundReason::Unsupported.retryable());
    }

    #[test]
    fn meter_trips_on_steps() {
        let mut m = Meter::new(Budget::steps_states(3, 100), CancelToken::new());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert!(m.tick().is_ok());
        assert_eq!(m.tick(), Err(BoundReason::Steps));
    }

    #[test]
    fn meter_observes_cancellation_on_first_step() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut m = Meter::new(Budget::generous(), cancel);
        assert_eq!(m.tick(), Err(BoundReason::Cancelled));
    }

    #[test]
    fn meter_observes_late_cancellation_within_poll_window() {
        let cancel = CancelToken::new();
        let mut m = Meter::new(Budget::generous(), cancel.clone());
        for _ in 0..100 {
            assert!(m.tick().is_ok());
        }
        cancel.cancel();
        // Cancellation must surface within one poll window (1024 steps).
        let tripped = (0..2048).find_map(|_| m.tick().err());
        assert_eq!(tripped, Some(BoundReason::Cancelled));
    }

    #[test]
    fn meter_trips_on_expired_deadline() {
        let budget = Budget::generous().with_deadline(Duration::ZERO);
        let mut m = Meter::new(budget, CancelToken::new());
        assert_eq!(m.tick(), Err(BoundReason::Deadline));
    }

    #[test]
    fn meter_accounts_memory_through_note_states() {
        let budget = Budget::generous().with_mem_limit(10 * BYTES_PER_FINGERPRINT);
        let mut m = Meter::new(budget, CancelToken::new());
        m.note_states(10);
        assert!(m.tick().is_ok());
        m.note_states(11);
        assert_eq!(m.tick(), Err(BoundReason::Memory));
    }

    // --- violation-ordering guarantees ------------------------------
    //
    // Downstream consumers (retry ladder, reports) rely on `tick`
    // checking the deterministic axes in a fixed order before ever
    // touching the clock, so identical runs always report the same
    // `BoundReason`.

    #[test]
    fn tick_reports_memory_before_deadline() {
        // Memory and deadline are both violated; the deterministic axis
        // must win, or the verdict would depend on machine speed.
        let budget = Budget::generous()
            .with_mem_limit(BYTES_PER_FINGERPRINT)
            .with_deadline(Duration::ZERO);
        let mut m = Meter::new(budget, CancelToken::new());
        m.note_states(2);
        assert_eq!(m.tick(), Err(BoundReason::Memory));
    }

    #[test]
    fn tick_reports_steps_before_states_and_memory() {
        let budget = Budget::steps_states(0, 0).with_mem_limit(0);
        let mut m = Meter::new(budget, CancelToken::new());
        m.note_states(5);
        assert_eq!(m.tick(), Err(BoundReason::Steps));

        // With steps still in budget, states wins over memory.
        let budget = Budget::steps_states(1000, 0).with_mem_limit(0);
        let mut m = Meter::new(budget, CancelToken::new());
        m.note_states(5);
        assert_eq!(m.tick(), Err(BoundReason::States));
    }

    #[test]
    fn poll_reports_cancellation_before_deadline() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let mut m = Meter::new(Budget::generous().with_deadline(Duration::ZERO), cancel);
        assert_eq!(m.tick(), Err(BoundReason::Cancelled));
    }

    #[test]
    fn meter_emits_tick_and_violation_events() {
        let agg = kiss_obs::Aggregator::new();
        let obs = Obs::new(agg.clone()).with_label("t");
        let mut m =
            Meter::new(Budget::steps_states(5, 100), CancelToken::new()).with_observer(obs, "x");
        while m.tick().is_ok() {}
        let counts = agg.event_counts();
        assert_eq!(counts.get("engine_tick"), Some(&1), "{counts:?}");
        assert_eq!(counts.get("budget_violated"), Some(&1), "{counts:?}");
    }
}
