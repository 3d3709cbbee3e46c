//! Back-mapping sequential error traces to concurrent executions.
//!
//! "An error trace produced by SLAM is transformed into an error trace
//! of the original concurrent program" (paper Section 1). The
//! sequential trace interleaves user statements with instrumentation;
//! this module reconstructs which *thread* of the original concurrent
//! program performs each user statement, by replaying the scheduler
//! structure the transformation encodes:
//!
//! * thread ids are assigned in fork order (matching `kiss-conc`'s
//!   numbering): a store into a `__tsN_fn` slot or an inline
//!   `ts`-full call registers a fork;
//! * a call with [`Origin::ThreadStart`] begins executing a thread: the
//!   one from the slot `__schedule` just popped, or the just-forked
//!   inline thread;
//! * when the call that started a thread returns (tracked by call
//!   depth), the thread's block is over and control returns to the
//!   preempted thread below it — the stack discipline of balanced
//!   executions.

use std::collections::HashMap;

use kiss_exec::{Instr, Module, TraceStep};
use kiss_lang::hir::{Const, GlobalId, Operand, Origin, Place, Rvalue, VarRef};
use kiss_lang::Span;
use kiss_seq::ErrorTrace;

use crate::transform::Transformed;

/// One step of the reconstructed concurrent execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedStep {
    /// The thread performing the action (0 = the main thread).
    pub tid: u32,
    /// Source span of the original statement.
    pub span: Span,
}

/// The reconstructed concurrent error trace.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MappedTrace {
    /// Original-program actions with their thread attribution.
    pub steps: Vec<MappedStep>,
    /// The schedule string (one tid per step).
    pub schedule: Vec<u32>,
    /// The collapsed schedule (context-switch pattern), suitable for
    /// `kiss_conc::ScheduleMode::Pattern` validation.
    pub pattern: Vec<u32>,
    /// Number of context switches in the schedule.
    pub context_switches: usize,
    /// Total number of threads involved.
    pub thread_count: u32,
}

impl MappedTrace {
    fn push(&mut self, tid: u32, span: Span) {
        self.steps.push(MappedStep { tid, span });
        if self.pattern.last() != Some(&tid) {
            self.pattern.push(tid);
        }
        self.schedule.push(tid);
    }
}

/// Reconstructs the concurrent trace from a sequential error trace
/// over the *transformed* module.
pub fn map_trace(module: &Module, info: &Transformed, trace: &ErrorTrace) -> MappedTrace {
    let slot_of_fn_global: HashMap<GlobalId, usize> =
        info.ts_slots.iter().enumerate().map(|(i, s)| (s.fn_g, i)).collect();

    let mut out = MappedTrace::default();
    // The active-thread stack: main is thread 0.
    let mut active: Vec<u32> = vec![0];
    // For each active thread above main: the call depth of its root
    // frame.
    let mut markers: Vec<usize> = Vec::new();
    let mut depth: usize = 1; // __kiss_main's frame
    let mut slot_tid: HashMap<usize, u32> = HashMap::new();
    let mut pending_slot: Option<usize> = None;
    let mut next_tid: u32 = 1;

    for step in &trace.steps {
        let instr = &module.body(step.func).instrs[step.pc];
        let top = *active.last().expect("main never pops");

        // User statements map 1:1 onto concurrent actions.
        if step.origin.is_user() && !instr.is_silent() {
            out.push(top, step.span);
        }

        match instr {
            Instr::Assign(Place::Var(VarRef::Global(g)), rv) => {
                if let Some(&slot) = slot_of_fn_global.get(g) {
                    match rv {
                        // A put: the async registered a pending thread.
                        Rvalue::Operand(op) if !matches!(op, Operand::Const(Const::Null)) => {
                            slot_tid.insert(slot, next_tid);
                            next_tid += 1;
                            // The fork itself is an action of the
                            // forking thread.
                            out.push(top, step.span);
                        }
                        _ => {} // slot clear / harness init
                    }
                }
            }
            Instr::Assign(Place::Var(VarRef::Local(_)), Rvalue::Operand(Operand::Var(VarRef::Global(g))))
                if step.origin == Origin::Sched =>
            {
                // `__f = __tsN_fn` inside __schedule: remember which
                // pending thread is about to start.
                if let Some(&slot) = slot_of_fn_global.get(g) {
                    pending_slot = Some(slot);
                }
            }
            Instr::Call { .. } => {
                depth += 1;
                if step.origin == Origin::ThreadStart {
                    let tid = match pending_slot.take() {
                        Some(slot) => slot_tid.get(&slot).copied().unwrap_or_else(|| {
                            let t = next_tid;
                            next_tid += 1;
                            t
                        }),
                        None => {
                            // Inline (ts-full) fork: fork and start at
                            // once; the fork is the forker's action.
                            let t = next_tid;
                            next_tid += 1;
                            out.push(top, step.span);
                            t
                        }
                    };
                    active.push(tid);
                    markers.push(depth);
                }
            }
            Instr::Return(_) => {
                if markers.last() == Some(&depth) {
                    markers.pop();
                    active.pop();
                }
                depth = depth.saturating_sub(1);
            }
            _ => {}
        }
    }

    out.context_switches = out.schedule.windows(2).filter(|w| w[0] != w[1]).count();
    out.thread_count = next_tid.max(1);
    out
}

/// Extracts the two access sites of a detected race: the first access
/// (recorded in `__access_site` at the failure state) and the second,
/// failing access (the last check call in the trace).
pub fn race_sites(
    module: &Module,
    info: &Transformed,
    trace: &ErrorTrace,
) -> Option<(crate::transform::RaceSite, crate::transform::RaceSite)> {
    let site_global = info.access_site?;
    let first_idx = match trace.globals.get(site_global.0 as usize)? {
        kiss_exec::Value::Int(n) if *n >= 0 => *n as usize,
        _ => return None,
    };
    let first = *info.race_sites.get(first_idx)?;
    // The failing access: the last Check-origin call in the trace.
    let second = trace.steps.iter().rev().find_map(|s: &TraceStep| {
        if s.origin != Origin::Check {
            return None;
        }
        match &module.body(s.func).instrs[s.pc] {
            Instr::Call { args, .. } => match args.get(1) {
                Some(Operand::Const(Const::Int(site))) if *site >= 0 => {
                    info.race_sites.get(*site as usize).copied()
                }
                _ => None,
            },
            _ => None,
        }
    })?;
    Some((first, second))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{transform, TransformConfig};
    use kiss_seq::{ExplicitChecker, Verdict};

    fn fail_trace(src: &str, cfg: &TransformConfig) -> (Module, Transformed, ErrorTrace) {
        let p = kiss_lang::parse_and_lower(src).unwrap();
        let t = transform(&p, cfg).unwrap();
        let module = Module::lower(t.program.clone());
        let v = ExplicitChecker::new(&module).check();
        let Verdict::Fail(trace) = v else { panic!("expected failure, got {v:?}") };
        (module, t, trace)
    }

    #[test]
    fn inline_fork_maps_to_two_threads() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let (module, info, trace) =
            fail_trace(src, &TransformConfig { max_ts: 0, ..Default::default() });
        let mapped = map_trace(&module, &info, &trace);
        assert_eq!(mapped.thread_count, 2);
        // The failing execution runs thread 1 inline between main's
        // fork and assert: pattern 0,1,0.
        assert_eq!(mapped.pattern, vec![0, 1, 0]);
        assert_eq!(mapped.context_switches, 2);
        assert!(kiss_conc::is_balanced(&mapped.schedule));
    }

    #[test]
    fn slot_fork_maps_to_deferred_thread() {
        // With MAX=1 the thread can be deferred; the bug requires it to
        // run after main's assignment.
        let src = "
            int g;
            void other() { assert g == 1; }
            void main() { async other(); g = 1; }
        ";
        let (module, info, trace) =
            fail_trace(src, &TransformConfig { max_ts: 1, ..Default::default() });
        // Wait: other asserts g == 1; failing requires other to run
        // while g == 0 — i.e. immediately. Either way we get a mapped
        // trace with two threads and a balanced schedule.
        let mapped = map_trace(&module, &info, &trace);
        assert_eq!(mapped.thread_count, 2);
        assert!(kiss_conc::is_balanced(&mapped.schedule), "{:?}", mapped.schedule);
    }

    #[test]
    fn mapped_steps_carry_source_spans() {
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let (module, info, trace) =
            fail_trace(src, &TransformConfig { max_ts: 0, ..Default::default() });
        let mapped = map_trace(&module, &info, &trace);
        // All steps except implicit end-of-function returns carry real
        // source spans.
        assert!(mapped.steps.iter().filter(|s| !s.span.is_synthetic()).count() >= 3);
        // The last step is main's assert, with a real location.
        let last = mapped.steps.last().unwrap();
        assert_eq!(last.tid, 0);
        assert!(!last.span.is_synthetic());
    }

    #[test]
    fn race_sites_are_recovered() {
        let src = "
            int r;
            void w1() { r = 1; }
            void main() { async w1(); r = 2; }
        ";
        let p = kiss_lang::parse_and_lower(src).unwrap();
        let target = crate::transform::RaceTarget::resolve(&p, "r").unwrap();
        let (module, info, trace) = fail_trace(
            src,
            &TransformConfig { max_ts: 0, race: Some(target), alias_prune: true },
        );
        let (first, second) = race_sites(&module, &info, &trace).expect("race sites");
        assert!(first.is_write);
        assert!(second.is_write);
        assert_ne!(first.span, second.span, "the two accesses are distinct statements");
    }

    #[test]
    fn schedule_pattern_validates_against_concurrent_explorer() {
        // End-to-end "never reports false errors": the mapped schedule
        // pattern must reproduce the failure in the *original*
        // concurrent program.
        let src = "
            int g;
            void other() { g = 1; }
            void main() { async other(); assert g == 0; }
        ";
        let (module, info, trace) =
            fail_trace(src, &TransformConfig { max_ts: 0, ..Default::default() });
        let mapped = map_trace(&module, &info, &trace);
        let orig = Module::lower(kiss_lang::parse_and_lower(src).unwrap());
        let v = kiss_conc::Explorer::new(&orig)
            .with_mode(kiss_conc::ScheduleMode::Pattern(mapped.pattern.clone()))
            .check();
        assert!(v.is_fail(), "mapped pattern {:?} must reproduce the bug: {v:?}", mapped.pattern);
    }
}

#[cfg(test)]
mod multi_slot_tests {
    use super::*;
    use crate::transform::{transform, TransformConfig};
    use kiss_seq::{ExplicitChecker, Verdict};

    /// With two slots and two forked threads, the mapped trace must
    /// attribute actions to three distinct threads and stay balanced.
    #[test]
    fn two_pending_threads_map_to_distinct_tids() {
        let src = "
            int a;
            int b;
            void w1() { a = 1; }
            void w2() { b = 1; }
            void main() {
                async w1();
                async w2();
                assert a + b < 2;
            }
        ";
        let p = kiss_lang::parse_and_lower(src).unwrap();
        let t = transform(&p, &TransformConfig { max_ts: 2, ..Default::default() }).unwrap();
        let module = Module::lower(t.program.clone());
        let Verdict::Fail(trace) = ExplicitChecker::new(&module).check() else {
            panic!("a + b reaches 2 when both threads run");
        };
        let mapped = map_trace(&module, &t, &trace);
        assert_eq!(mapped.thread_count, 3, "{mapped:?}");
        assert!(kiss_conc::is_balanced(&mapped.schedule), "{:?}", mapped.schedule);
        // Replay the pattern on the original program.
        let orig = Module::lower(p);
        let v = kiss_conc::Explorer::new(&orig)
            .with_mode(kiss_conc::ScheduleMode::Pattern(mapped.pattern.clone()))
            .check();
        assert!(v.is_fail(), "pattern {:?} must reproduce: {v:?}", mapped.pattern);
    }
}
