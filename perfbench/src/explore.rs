//! The explore leg of serve-cold's traced run: `kissc check` equivalents
//! in-process — parse, then `Kiss` with validation on — over the seeded
//! program family, then the same ops again through the layer calls. It
//! supplies the per-layer figures of what the daemon's race checks never
//! run: the bfs and summary engines, the LTL product, validation by
//! concurrent replay, and the parallel leg.
//!
//! It is not timed end to end. These searches are bound by memory
//! throughput, and on a shared CPU that throughput follows the
//! neighbours' load for stretches longer than a run (a random-access
//! probe ran up to 1.6 times slower while an ALU loop held within 5%),
//! so their wall time spread past any bound from one run to the next.

use std::io;

use kiss_core::checker::Engine;
use kiss_core::{Kiss, KissOutcome};
use kiss_seq::Budget;

use crate::gen::{self, ExploreOp, Mode, CLASSES};
use crate::stats::{classify, metric, Metric, OpResult};
use crate::trace::{check_layered, layer_metrics, CheckRecord, Tracer, Work};
use crate::RunCfg;

/// Blocks of [`CLASSES`] ops the leg runs: each class this many times.
const BLOCKS: usize = 8;
/// bfs and ltl ops the parallel leg runs at each worker count.
const PAR_OPS: usize = 16;
/// The per-layer metrics of [`layer_metrics`] the leg supplies; serve-cold
/// supplies the rest itself.
const LEG_LAYERS: [&str; 8] = [
    "seq.bfs_ms",
    "seq.summary_ms",
    "ltl.buchi_ms",
    "ltl.buchi_states",
    "ltl.product_ms",
    "ltl.product_states",
    "conc.validate_ms",
    "conc.validated_share",
];

fn budget() -> Budget {
    Budget::generous()
}

/// What an op answered, in the terms the replay is compared on.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    verdict: &'static str,
    steps: u64,
    states_stored: usize,
    validated: Option<bool>,
}

/// One op as `kissc check` runs it.
fn run_op(op: &ExploreOp, jobs: usize) -> Result<KissOutcome, String> {
    let program = kiss_lang::parse_and_lower(&op.source).map_err(|e| e.to_string())?;
    let kiss = Kiss::new().with_budget(budget()).with_explore_jobs(jobs);
    match (op.mode, &op.formula) {
        (Mode::Ltl, Some(text)) => {
            let formula = kiss_ltl::parse(text).map_err(|e| e.to_string())?;
            kiss.check_ltl(&program, &formula)
                .map_err(|e| e.to_string())
        }
        (Mode::Explicit, _) => Ok(kiss
            .with_engine(Engine::Explicit)
            .check_assertions(&program)),
        (Mode::Bfs, _) => Ok(kiss.with_engine(Engine::Bfs).check_assertions(&program)),
        (Mode::Summary, _) => Ok(kiss.with_engine(Engine::Summary).check_assertions(&program)),
        (Mode::Ltl, None) => Err("ltl op without a formula".to_string()),
    }
}

/// Checks one answer against the reference: the verdict known by
/// construction, and for every reported assertion that carries a trace
/// (explicit and bfs; the summary engine reports verdicts only), a
/// schedule that replays on the concurrent program.
fn judge(op: &ExploreOp, outcome: &Result<KissOutcome, String>) -> (OpResult, Option<Answer>) {
    let Ok(outcome) = outcome else {
        return (OpResult::Failed, None);
    };
    let validated = match outcome {
        KissOutcome::AssertionViolation(report) => report.validated,
        _ => None,
    };
    let stats = outcome.stats().copied().unwrap_or_default();
    let answer = Answer {
        verdict: outcome.verdict_str(),
        steps: stats.steps(),
        states_stored: stats.seq.states_stored,
        validated,
    };
    let mut result = classify(answer.verdict, op.expected());
    let needs_replay =
        answer.verdict == "assertion" && matches!(op.mode, Mode::Explicit | Mode::Bfs);
    if result == OpResult::Ok && needs_replay && validated != Some(true) {
        result = OpResult::Mismatch;
    }
    (result, Some(answer))
}

/// Runs the leg on `cfg.seed`'s family and returns the metrics it
/// supplies; answers that miss their reference, and replays that
/// disagree with `Kiss`, land in `problems`. Spans go to
/// `spans-explore-leg.jsonl` beside the run's own.
pub fn explore_leg(cfg: &RunCfg, problems: &mut Vec<String>) -> io::Result<Vec<Metric>> {
    let ops: Vec<ExploreOp> = (0..BLOCKS * CLASSES)
        .map(|n| gen::explore_op(cfg.seed, n))
        .collect();
    let mut tracer = Tracer::new(true);
    let mut recs: Vec<CheckRecord> = Vec::with_capacity(ops.len());
    for (n, op) in ops.iter().enumerate() {
        let (result, answer) = judge(op, &run_op(op, 1));
        if result != OpResult::Ok {
            problems.push(format!(
                "explore leg op {n}: {} answered {answer:?}, expected {}",
                op.mode.name(),
                op.expected()
            ));
        }
        let work = match &op.formula {
            Some(f) => Work::Ltl(f),
            None => Work::Assertions,
        };
        let rec = tracer.op(n as u32, |t| {
            check_layered(t, &op.source, &work, op.mode, budget(), true, 1)
        });
        let replayed = Answer {
            verdict: rec.verdict,
            steps: rec.stats.steps,
            states_stored: rec.stats.states_stored,
            validated: rec.validated,
        };
        if answer.as_ref() != Some(&replayed) {
            problems.push(format!(
                "explore leg op {n}: replay answered {replayed:?}, Kiss {answer:?}"
            ));
        }
        recs.push(rec);
    }
    tracer.write_jsonl(&cfg.spans_path.with_file_name("spans-explore-leg.jsonl"))?;
    let mut out: Vec<Metric> = layer_metrics(&tracer, &recs)
        .into_iter()
        .filter(|m| LEG_LAYERS.contains(&m.name))
        .collect();
    out.extend(parallel_leg(&ops, problems));
    Ok(out)
}

/// The bfs and ltl ops again at one worker and at one per core: how
/// much of a parallel search is speculation, and what the wall time does.
/// Verdicts and step counts must not move.
fn parallel_leg(ops: &[ExploreOp], problems: &mut Vec<String>) -> [Metric; 2] {
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let chosen: Vec<&ExploreOp> = ops
        .iter()
        .filter(|op| matches!(op.mode, Mode::Bfs | Mode::Ltl))
        .take(PAR_OPS)
        .collect();
    let leg = |jobs: usize| {
        let t0 = std::time::Instant::now();
        let outcomes: Vec<Result<KissOutcome, String>> =
            chosen.iter().map(|op| run_op(op, jobs)).collect();
        (t0.elapsed().as_secs_f64(), outcomes)
    };
    let (serial_s, serial) = leg(1);
    let (parallel_s, parallel) = leg(jobs);
    let (mut steps, mut speculative) = (0u64, 0u64);
    for (op, (a, b)) in chosen.iter().zip(serial.iter().zip(&parallel)) {
        let (sa, sb) = (judge(op, a).1, judge(op, b).1);
        if sa != sb {
            problems.push(format!(
                "jobs {jobs} answered {sb:?} where jobs 1 answered {sa:?}"
            ));
        }
        if let Ok(outcome) = b {
            let stats = outcome.stats().copied().unwrap_or_default();
            steps += stats.seq.steps;
            speculative += stats.seq.speculative_steps;
        }
    }
    let spec_ratio = steps as f64 / speculative as f64;
    let wall_ratio = parallel_s / serial_s;
    println!(
        "parallel leg: {} bfs/ltl ops at 1 and at {jobs} workers: seq.par_wall_ratio {wall_ratio:.3}, \
         seq.spec_ratio {spec_ratio:.3}",
        chosen.len(),
    );
    [
        metric("seq.spec_ratio", "ratio", spec_ratio),
        metric("seq.par_wall_ratio", "ratio", wall_ratio),
    ]
}
