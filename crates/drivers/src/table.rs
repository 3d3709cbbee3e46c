//! Per-field race checking over the corpus — the machinery behind
//! Tables 1 and 2.
//!
//! "For each device driver, we checked for race conditions on each
//! field of the device extension separately" under "a resource bound of
//! 20 minutes of CPU time and 800MB of memory" (paper §6). Here each
//! field gets a deterministic step/state budget instead; the harness
//! for a field runs the dispatch routines that access it, paired
//! according to the naive or refined OS model.

use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};

use kiss_core::checker::{Kiss, KissOutcome};
use kiss_core::harness::dispatch_harness;
use kiss_core::supervisor::{Supervised, Supervisor};
use kiss_lang::Program;
use kiss_obs::{ChannelSink, CheckMetrics, Event, Obs};
use kiss_seq::{BoundReason, Budget};

use crate::corpus::{DriverModel, FieldClass};
use crate::journal::Journal;

/// Outcome of one per-field check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldOutcome {
    /// A race was reported.
    Race,
    /// The check completed without reporting a race.
    NoRace,
    /// The check exceeded the resource bound on the recorded axis.
    Inconclusive(BoundReason),
    /// The check panicked; the supervisor isolated it and the corpus
    /// run continued.
    Crashed {
        /// The panic payload.
        cause: String,
    },
    /// The check could not run (malformed model, unresolvable harness
    /// or race spec, runtime error in the generated program).
    Failed {
        /// What went wrong.
        cause: String,
    },
}

impl FieldOutcome {
    /// `true` when the check produced a definite race/no-race answer.
    pub fn is_definite(&self) -> bool {
        matches!(self, FieldOutcome::Race | FieldOutcome::NoRace)
    }
}

/// Result for one field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldResult {
    /// Field index within the extension struct.
    pub field: usize,
    /// Seeded class (ground truth from the generator).
    pub class: FieldClass,
    /// The checker's verdict.
    pub outcome: FieldOutcome,
}

/// One Table 1 / Table 2 row.
#[derive(Debug, Clone)]
pub struct DriverResult {
    /// Driver name.
    pub name: String,
    /// Generated source lines.
    pub loc: usize,
    /// Number of extension fields.
    pub fields: usize,
    /// Fields with reported races.
    pub races: usize,
    /// Fields proved race-free within the bound.
    pub no_races: usize,
    /// Fields whose check exceeded the bound.
    pub inconclusive: usize,
    /// Fields whose check panicked (isolated by the supervisor).
    pub crashed: usize,
    /// Fields whose check could not run at all.
    pub failed: usize,
    /// Per-field details.
    pub results: Vec<FieldResult>,
}

/// The default per-field budget (the analogue of the paper's
/// 20 min / 800 MB bound).
pub fn default_budget() -> Budget {
    Budget::steps_states(3_000_000, 60_000)
}

/// Checks every field of one driver. Never panics: a model that does
/// not parse, a harness that cannot be built, or a spec that does not
/// resolve yields per-field [`FieldOutcome::Failed`] results instead.
pub fn check_driver(model: &DriverModel, refined: bool, budget: Budget) -> DriverResult {
    check_driver_supervised(model, refined, &Supervisor::new(budget).with_retries(0), None)
}

/// Like [`check_driver`], with the full robustness layer: each field
/// check runs under `supervisor` (panic isolation, deadline,
/// cancellation, retry-with-escalation), and completed fields are
/// recorded in — and on resume skipped via — the optional `journal`.
pub fn check_driver_supervised(
    model: &DriverModel,
    refined: bool,
    supervisor: &Supervisor,
    mut journal: Option<&mut Journal>,
) -> DriverResult {
    let program = match kiss_lang::parse_and_lower(&model.source) {
        Ok(p) => p,
        Err(e) => return fail_all_fields(model, supervisor, &e.to_string()),
    };
    let mut results = Vec::with_capacity(model.fields.len());
    for (i, field) in model.fields.iter().enumerate() {
        if let Some(done) = journal.as_ref().and_then(|j| j.lookup(&model.name, i)) {
            results.push(FieldResult { field: i, class: field.class, outcome: done });
            continue;
        }
        let outcome = check_field(model, &program, i, refined, supervisor);
        // Cancellation is a shutdown artifact, not a result: leave it
        // out of the journal so a resumed run re-checks the field.
        let journalable = !matches!(outcome, FieldOutcome::Inconclusive(BoundReason::Cancelled));
        if journalable {
            if let Some(j) = journal.as_deref_mut() {
                // A journal write failure must not kill the run; the
                // check result itself is still good.
                let _ = j.record(&model.name, i, &outcome);
            }
        }
        results.push(FieldResult { field: i, class: field.class, outcome });
    }
    summarize(model, results)
}

/// The whole model is unusable (it does not parse); fail every field,
/// but keep the row so corpus totals stay aligned with the spec.
fn fail_all_fields(model: &DriverModel, supervisor: &Supervisor, error: &str) -> DriverResult {
    let cause = format!("driver {} does not parse: {error}", model.name);
    let results = model
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| {
            emit_searchless(supervisor.observer(), &format!("{}/{}", model.name, i), "failed");
            FieldResult {
                field: i,
                class: f.class,
                outcome: FieldOutcome::Failed { cause: cause.clone() },
            }
        })
        .collect();
    summarize(model, results)
}

/// Messages the worker pool pushes through its shared channel:
/// forwarded observability events multiplexed with completed field
/// results (std's mpsc has no `select`, so one channel carries both).
enum WorkerMsg {
    Event(Event),
    Done(usize, FieldOutcome),
}

impl From<Event> for WorkerMsg {
    fn from(event: Event) -> Self {
        WorkerMsg::Event(event)
    }
}

/// Like [`check_driver_supervised`], checking fields on `jobs` worker
/// threads (`jobs <= 1` is exactly the serial path). `jobs` is a cap,
/// not a demand: the pool never exceeds the remaining fields or the
/// machine's hardware threads, and degenerates to the serial path when
/// only one worker would run.
///
/// The pool is a [`std::thread::scope`] over a shared
/// `Mutex<VecDeque>` work queue with heavy fields scheduled first, so
/// the longest checks never straggle behind an almost-drained queue.
/// The run is observably identical to a serial one:
///
/// * **results** are collected into per-field slots and summarized in
///   field order, so the table row is byte-identical;
/// * **journal records** are written by the single draining thread in
///   field-index order (the decided prefix), so an uninterrupted
///   parallel run's journal is byte-identical to a serial run's — and
///   an interrupted one can only under-report completed work;
/// * **events** from workers are funneled through one channel and
///   replayed into the real sink by the draining thread, so
///   single-threaded sinks need no changes; per-check event streams
///   interleave across checks exactly as concurrent wall-clock does;
/// * **cancellation** fans out through the supervisor's shared
///   [`kiss_seq::CancelToken`]: workers keep draining the queue, but
///   every remaining check completes immediately as
///   `Inconclusive(Cancelled)` (never journaled).
pub fn check_driver_jobs(
    model: &DriverModel,
    refined: bool,
    supervisor: &Supervisor,
    mut journal: Option<&mut Journal>,
    jobs: usize,
) -> DriverResult {
    if jobs <= 1 {
        return check_driver_supervised(model, refined, supervisor, journal);
    }
    let program = match kiss_lang::parse_and_lower(&model.source) {
        Ok(p) => p,
        Err(e) => return fail_all_fields(model, supervisor, &e.to_string()),
    };
    let n = model.fields.len();
    let mut slots: Vec<Option<FieldResult>> = vec![None; n];
    let mut from_journal = vec![false; n];
    let mut todo: Vec<usize> = Vec::new();
    for (i, field) in model.fields.iter().enumerate() {
        if let Some(done) = journal.as_ref().and_then(|j| j.lookup(&model.name, i)) {
            slots[i] = Some(FieldResult { field: i, class: field.class, outcome: done });
            from_journal[i] = true;
        } else {
            todo.push(i);
        }
    }
    // Longest-first schedule; ties keep field order.
    todo.sort_by_key(|&i| (model.fields[i].class != FieldClass::Heavy, i));
    // More workers than hardware threads only adds scheduler churn:
    // every check is CPU-bound, so clamp to the machine, and fall back
    // to the serial path when only one worker would actually run.
    let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    let workers = jobs.min(todo.len()).min(cores);
    if workers <= 1 {
        // The serial path redoes the journal lookups itself.
        return check_driver_supervised(model, refined, supervisor, journal);
    }
    let obs_on = supervisor.observer().is_enabled();
    let queue = Mutex::new(VecDeque::from(todo));
    let (tx, rx) = mpsc::channel::<WorkerMsg>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            // When observability is off, forwarding every event through
            // the channel is pure overhead; give workers a dead sink.
            let worker_obs =
                if obs_on { Obs::new(ChannelSink(tx.clone())) } else { Obs::off() };
            let worker = supervisor.clone().with_observer(worker_obs);
            let queue = &queue;
            let program = &program;
            s.spawn(move || loop {
                let next = queue.lock().expect("work queue lock").pop_front();
                let Some(i) = next else { break };
                let outcome = check_field(model, program, i, refined, &worker);
                let _ = tx.send(WorkerMsg::Done(i, outcome));
            });
        }
        // Close the drain loop's own sender; `rx` ends when the last
        // worker finishes.
        drop(tx);
        let obs = supervisor.observer();
        let mut next_journal = 0usize;
        for msg in rx {
            match msg {
                WorkerMsg::Event(event) => obs.forward(&event),
                WorkerMsg::Done(i, outcome) => {
                    slots[i] =
                        Some(FieldResult { field: i, class: model.fields[i].class, outcome });
                    // Journal the decided prefix, in field order.
                    while next_journal < n {
                        let Some(r) = &slots[next_journal] else { break };
                        let journalable = !from_journal[next_journal]
                            && !matches!(
                                r.outcome,
                                FieldOutcome::Inconclusive(BoundReason::Cancelled)
                            );
                        if journalable {
                            if let Some(j) = journal.as_deref_mut() {
                                // A journal write failure must not kill
                                // the run; the result itself is good.
                                let _ = j.record(&model.name, next_journal, &r.outcome);
                            }
                        }
                        next_journal += 1;
                    }
                }
            }
        }
    });
    let results = slots.into_iter().map(|r| r.expect("every field checked")).collect();
    summarize(model, results)
}

/// Checks one field, resolving the harness and spec outside the
/// supervised closure so setup errors surface as
/// [`FieldOutcome::Failed`] rather than crashes.
fn check_field(
    model: &DriverModel,
    program: &Program,
    field: usize,
    refined: bool,
    supervisor: &Supervisor,
) -> FieldOutcome {
    let label = format!("{}/{}", model.name, field);
    let pairs = model.field_pairs(field, refined);
    if pairs.is_empty() {
        // No two routines may access this field concurrently: the
        // refined OS model rules the race out without a search.
        emit_searchless(supervisor.observer(), &label, "pass");
        return FieldOutcome::NoRace;
    }
    let pair_refs: Vec<(&str, &str)> = pairs.iter().map(|(a, b)| (a.as_str(), b.as_str())).collect();
    let harnessed = match dispatch_harness(program, Some("DriverInit"), &pair_refs) {
        Ok(h) => h,
        Err(e) => {
            emit_searchless(supervisor.observer(), &label, "failed");
            return FieldOutcome::Failed { cause: format!("harness: {e}") };
        }
    };
    let spec = model.race_spec(field);
    let target = match kiss_core::RaceTarget::resolve(&harnessed, &spec) {
        Some(t) => t,
        None => {
            emit_searchless(supervisor.observer(), &label, "failed");
            return FieldOutcome::Failed { cause: format!("race spec `{spec}` did not resolve") };
        }
    };
    let run = supervisor.run_scoped(&label, |budget, cancel, obs| {
        Kiss::new()
            .with_budget(budget)
            .with_cancel(cancel)
            .with_observer(obs.clone())
            .check_race(&harnessed, target)
    });
    field_outcome(run.result)
}

/// Emits a synthetic `check_started`/`check_finished` pair for a field
/// decided (or abandoned) without running a search, so trace consumers
/// can rely on started == finished and the outcome histogram covering
/// *every* field.
fn emit_searchless(obs: &Obs, label: &str, verdict: &str) {
    let obs = obs.with_label(label);
    obs.emit(|check| Event::CheckStarted { check: check.to_string() });
    obs.emit(|check| Event::CheckFinished {
        metrics: CheckMetrics {
            check: check.to_string(),
            engine: "none".to_string(),
            verdict: verdict.to_string(),
            ..CheckMetrics::default()
        },
    });
}

/// Runs one field-check closure under `supervisor` and maps the result
/// into the [`FieldOutcome`] taxonomy. Public so integration tests can
/// inject panicking or divergent checks without a generator hook.
pub fn supervised_field_outcome(
    supervisor: &Supervisor,
    check: impl FnMut(Budget, kiss_seq::CancelToken) -> KissOutcome,
) -> FieldOutcome {
    field_outcome(supervisor.run(check).result)
}

fn field_outcome(result: Supervised) -> FieldOutcome {
    match result {
        Supervised::Crashed { cause } => FieldOutcome::Crashed { cause },
        Supervised::Completed(KissOutcome::RaceDetected(_)) => FieldOutcome::Race,
        Supervised::Completed(KissOutcome::NoErrorFound(_)) => FieldOutcome::NoRace,
        Supervised::Completed(KissOutcome::Inconclusive { reason, .. }) => {
            FieldOutcome::Inconclusive(reason)
        }
        Supervised::Completed(KissOutcome::AssertionViolation(_)) => {
            FieldOutcome::Failed { cause: "assertion violation in race harness".to_string() }
        }
        // Race harnesses never run liveness checks; reaching here means
        // the harness was miswired, which is a failure, not a race.
        Supervised::Completed(KissOutcome::LivenessViolated(_)) => {
            FieldOutcome::Failed { cause: "liveness verdict in race harness".to_string() }
        }
        Supervised::Completed(KissOutcome::RuntimeError(e)) => {
            FieldOutcome::Failed { cause: format!("runtime error: {e}") }
        }
        Supervised::Completed(KissOutcome::TransformFailed(e)) => {
            FieldOutcome::Failed { cause: format!("transform failed: {e:?}") }
        }
    }
}

fn summarize(model: &DriverModel, results: Vec<FieldResult>) -> DriverResult {
    let count = |f: fn(&FieldOutcome) -> bool| results.iter().filter(|r| f(&r.outcome)).count();
    DriverResult {
        name: model.name.clone(),
        loc: model.loc,
        fields: model.fields.len(),
        races: count(|o| matches!(o, FieldOutcome::Race)),
        no_races: count(|o| matches!(o, FieldOutcome::NoRace)),
        inconclusive: count(|o| matches!(o, FieldOutcome::Inconclusive(_))),
        crashed: count(|o| matches!(o, FieldOutcome::Crashed { .. })),
        failed: count(|o| matches!(o, FieldOutcome::Failed { .. })),
        results,
    }
}

/// Checks the whole corpus, invoking `progress` after each driver.
pub fn check_corpus(
    models: &[DriverModel],
    refined: bool,
    budget: Budget,
    mut progress: impl FnMut(&DriverResult),
) -> Vec<DriverResult> {
    models
        .iter()
        .map(|m| {
            let r = check_driver(m, refined, budget);
            progress(&r);
            r
        })
        .collect()
}

/// Checks the whole corpus under a supervisor, journaling per-field
/// outcomes so a killed run can resume where it stopped. Once the
/// supervisor's cancellation token fires, remaining fields complete as
/// [`FieldOutcome::Inconclusive`]`(Cancelled)` without being journaled
/// (cancellation is not a result worth resuming *from*), and remaining
/// drivers are skipped entirely.
pub fn check_corpus_supervised(
    models: &[DriverModel],
    refined: bool,
    supervisor: &Supervisor,
    journal: Option<&mut Journal>,
    progress: impl FnMut(&DriverResult),
) -> Vec<DriverResult> {
    check_corpus_parallel(models, refined, supervisor, journal, 1, progress)
}

/// Like [`check_corpus_supervised`], with each driver's fields checked
/// on `jobs` worker threads (see [`check_driver_jobs`]). Drivers still
/// run one at a time, so `progress` fires in corpus order and rendered
/// rows stream exactly as in a serial run.
pub fn check_corpus_parallel(
    models: &[DriverModel],
    refined: bool,
    supervisor: &Supervisor,
    mut journal: Option<&mut Journal>,
    jobs: usize,
    mut progress: impl FnMut(&DriverResult),
) -> Vec<DriverResult> {
    let mut rows = Vec::with_capacity(models.len());
    for m in models {
        if supervisor.cancel_token().is_cancelled() {
            break;
        }
        let r = check_driver_jobs(m, refined, supervisor, journal.as_deref_mut(), jobs);
        progress(&r);
        rows.push(r);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::generate_driver;
    use crate::spec::paper_table;

    fn test_budget() -> Budget {
        // Small enough to keep tests quick, large enough for every
        // non-heavy field.
        Budget::steps_states(1_500_000, 25_000)
    }

    #[test]
    fn toastmon_row_matches_table_1_and_2() {
        let spec = paper_table().into_iter().find(|d| d.name == "toaster_toastmon").unwrap();
        let model = generate_driver(&spec);
        let naive = check_driver(&model, false, test_budget());
        assert_eq!(naive.races, spec.races_naive, "naive races: {naive:?}");
        assert_eq!(naive.no_races, spec.no_races, "naive no-races: {naive:?}");
        assert_eq!(naive.inconclusive, spec.inconclusive());
        let refined = check_driver(&model, true, test_budget());
        assert_eq!(refined.races, spec.races_refined, "refined races: {refined:?}");
    }

    #[test]
    fn tracedrv_is_fully_clean() {
        let spec = paper_table().into_iter().find(|d| d.name == "tracedrv").unwrap();
        let model = generate_driver(&spec);
        let naive = check_driver(&model, false, test_budget());
        assert_eq!(naive.races, 0);
        assert_eq!(naive.no_races, 3);
        assert_eq!(naive.inconclusive, 0);
    }

    #[test]
    fn moufiltr_ioctl_races_vanish_when_refined() {
        let spec = paper_table().into_iter().find(|d| d.name == "moufiltr").unwrap();
        let model = generate_driver(&spec);
        let naive = check_driver(&model, false, test_budget());
        assert_eq!(naive.races, 7);
        let refined = check_driver(&model, true, test_budget());
        assert_eq!(refined.races, 0);
    }

    #[test]
    fn outcomes_follow_seeded_classes() {
        let spec = paper_table().into_iter().find(|d| d.name == "imca").unwrap();
        let model = generate_driver(&spec);
        let naive = check_driver(&model, false, test_budget());
        for r in &naive.results {
            let matches = match r.class {
                FieldClass::Spurious | FieldClass::Real | FieldClass::Benign => {
                    r.outcome == FieldOutcome::Race
                }
                FieldClass::Heavy => matches!(r.outcome, FieldOutcome::Inconclusive(_)),
                FieldClass::Clean => r.outcome == FieldOutcome::NoRace,
            };
            assert!(matches, "field {} class {:?} got {:?}", r.field, r.class, r.outcome);
        }
    }

    #[test]
    fn heavy_fields_record_which_axis_tripped() {
        let spec = paper_table().into_iter().find(|d| d.name == "mouser").unwrap();
        let model = generate_driver(&spec);
        // Heavy fields are built to exhaust any budget, so a tiny one
        // keeps this fast; other fields' outcomes are irrelevant here.
        let naive = check_driver(&model, false, Budget::steps_states(50_000, 5_000));
        let heavy: Vec<_> =
            naive.results.iter().filter(|r| r.class == FieldClass::Heavy).collect();
        assert!(!heavy.is_empty());
        for r in heavy {
            let FieldOutcome::Inconclusive(reason) = &r.outcome else {
                panic!("heavy field {} got {:?}", r.field, r.outcome);
            };
            assert!(
                matches!(reason, kiss_seq::BoundReason::Steps | kiss_seq::BoundReason::States),
                "{reason:?}"
            );
        }
    }
}

#[cfg(test)]
mod benign_annotation_tests {
    use super::*;
    use crate::corpus::{generate_driver, generate_driver_annotated};
    use crate::spec::paper_table;

    /// The paper's future-work scenario, end to end: annotating the
    /// fakemodem-style `OpenCount` read as benign removes exactly the
    /// benign warnings from the Table 2 row.
    #[test]
    fn annotating_benign_reads_removes_their_table2_warnings() {
        let spec = paper_table().into_iter().find(|d| d.name == "fakemodem").unwrap();
        assert_eq!(spec.benign, 1);
        let budget = Budget::steps_states(1_500_000, 25_000);
        let plain = check_driver(&generate_driver(&spec), true, budget);
        assert_eq!(plain.races, spec.races_refined); // 6
        let annotated = check_driver(&generate_driver_annotated(&spec), true, budget);
        assert_eq!(
            annotated.races,
            spec.races_refined - spec.benign,
            "the annotated benign read must drop out: {annotated:?}"
        );
    }
}
