//! kiss-conc's two interpreters pinned over the sample corpus.
//!
//! For every kiss-samples program the table fixes the exhaustive
//! explorer's verdict (with a digest of its trace) and its
//! [`ConcStats`](kiss_conc::ConcStats) under three schedule modes, and
//! a digest of [`Runner::run`]'s event stream for a few fixed seeds on
//! every sample and on every `detectors` scenario. Any rewrite of how
//! the explorer or the runner steps a thread must leave every row
//! unchanged.

use kiss_conc::explorer::ConcTrace;
use kiss_conc::{ConcVerdict, Explorer, RunEnd, Runner, ScheduleMode};
use kiss_exec::Module;

/// The `detectors` binary's scenarios, by name.
const SCENARIOS: &[(&str, &str)] = &[
    ("plain-race", "int r; void w() { r = 1; } void main() { async w(); r = 2; }"),
    (
        "locked-counter",
        "int l; int r;
         void w() { atomic { assume l == 0; l = 1; } r = r + 1; atomic { l = 0; } }
         void main() { async w(); atomic { assume l == 0; l = 1; } r = r + 1; atomic { l = 0; } }",
    ),
    (
        "event-handoff",
        "bool ev; int r;
         void consumer() { assume ev; r = r + 1; }
         void main() { async consumer(); r = 1; ev = true; }",
    ),
    (
        "benign-counter",
        "int l; int r; int d;
         void c() { atomic { assume l == 0; l = 1; } r = r + 1; atomic { l = 0; } }
         void main() { int t; async c(); t = r; if (t == 0) { d = 1; } }",
    ),
];

const SEEDS: [u64; 4] = [0, 1, 7, 42];

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `len:digest` over a trace's `(tid, func, pc, line, col)` steps.
fn trace_digest(trace: &ConcTrace) -> String {
    let words = trace
        .steps
        .iter()
        .flat_map(|s| [s.tid, s.func.0, s.pc as u32, s.span.line, s.span.col]);
    format!("{}:{:016x}", trace.steps.len(), fnv1a(words.flat_map(u32::to_le_bytes)))
}

fn verdict(v: &ConcVerdict) -> String {
    match v {
        ConcVerdict::Pass => "pass".into(),
        ConcVerdict::Fail(t) => format!("fail:{}", trace_digest(t)),
        ConcVerdict::RuntimeError(e, t) => format!("error({e}):{}", trace_digest(t)),
        ConcVerdict::ResourceBound { steps, states } => format!("bound:{steps}:{states}"),
    }
}

/// `name mode verdict states transitions deadlocks max_threads`.
fn explorer_rows(name: &str, module: &Module) -> Vec<String> {
    let modes = [
        ("free", ScheduleMode::Free),
        ("balanced", ScheduleMode::Balanced),
        ("cb2", ScheduleMode::ContextBound(2)),
    ];
    modes
        .into_iter()
        .map(|(label, mode)| {
            let (v, s) = Explorer::new(module).with_mode(mode).check_with_stats();
            format!(
                "{name} {label} {} {} {} {} {}",
                verdict(&v),
                s.states,
                s.transitions,
                s.deadlocks,
                s.max_threads
            )
        })
        .collect()
}

/// `name seed end events:digest`, the digest over the debug-rendered
/// event stream.
fn runner_rows(name: &str, module: &Module) -> Vec<String> {
    SEEDS
        .iter()
        .map(|&seed| {
            let mut text = String::new();
            let mut events = 0usize;
            let end: RunEnd = Runner::new(module).run(seed, |e| {
                events += 1;
                text.push_str(&format!("{e:?};"));
            });
            format!("{name} seed{seed} {end:?} {events}:{:016x}", fnv1a(text.bytes()))
        })
        .collect()
}

fn module(src: &str) -> Module {
    Module::lower(kiss_lang::parse_and_lower(src).expect("pinned program parses"))
}

fn check_table(rows: &[String], golden: &[&str]) {
    let table = rows.join("\",\n    \"");
    assert_eq!(rows.len(), golden.len(), "table size changed; current table:\n    \"{table}\"");
    for (got, want) in rows.iter().zip(golden) {
        assert_eq!(got, want, "interpreter diverged; current table:\n    \"{table}\"");
    }
}

/// Recorded while the explorer still carried its own copy of the
/// instruction semantics.
const EXPLORER_GOLDEN: &[&str] = &[
    "peterson free pass 3775 7293 24 2",
    "peterson balanced pass 2754 3198 190 2",
    "peterson cb2 pass 2754 3198 190 2",
    "peterson-broken free fail:25:4afa1dff6aa31ab7 875 1629 9 2",
    "peterson-broken balanced fail:25:4afa1dff6aa31ab7 921 1037 100 2",
    "peterson-broken cb2 fail:25:4afa1dff6aa31ab7 921 1037 100 2",
    "locked-producers free pass 66 120 0 3",
    "locked-producers balanced pass 117 126 19 3",
    "locked-producers cb2 pass 43 42 9 3",
    "racy-producers free fail:12:bc50d1476642a576 43 75 0 3",
    "racy-producers balanced fail:11:67d8af9b43599cf4 72 80 10 3",
    "racy-producers cb2 pass 51 50 12 3",
    "barrier free pass 168 287 0 2",
    "barrier balanced pass 200 239 19 2",
    "barrier cb2 pass 200 239 19 2",
    "dcl-correct free pass 451 827 0 2",
    "dcl-correct balanced pass 514 649 24 2",
    "dcl-correct cb2 pass 514 649 24 2",
    "dcl-broken free fail:18:42bccff0f2761d60 108 196 0 2",
    "dcl-broken balanced fail:18:42bccff0f2761d60 186 265 8 2",
    "dcl-broken cb2 fail:18:42bccff0f2761d60 186 265 8 2",
    "ticket-lock free pass 81 123 2 2",
    "ticket-lock balanced pass 94 107 11 2",
    "ticket-lock cb2 pass 94 107 11 2",
    "dekker free pass 1055 1889 32 2",
    "dekker balanced pass 712 889 85 2",
    "dekker cb2 pass 712 889 85 2",
    "rw-lock free pass 93 145 1 2",
    "rw-lock balanced pass 131 163 7 2",
    "rw-lock cb2 pass 131 163 7 2",
];

/// Recorded while the runner still carried its own copy of the
/// instruction semantics.
const RUNNER_GOLDEN: &[&str] = &[
    "peterson seed0 Deadlock 14:71f5d02caf4604ae",
    "peterson seed1 Deadlock 7:70d14118da68c245",
    "peterson seed7 Deadlock 7:c27e585717609619",
    "peterson seed42 Deadlock 8:df5e0c6c71493dd2",
    "peterson-broken seed0 Deadlock 18:8380c3b4f591af90",
    "peterson-broken seed1 Deadlock 7:d484bda27203f8b2",
    "peterson-broken seed7 Deadlock 14:b1ede1454c185d47",
    "peterson-broken seed42 Deadlock 8:a885d10a4ff44329",
    "locked-producers seed0 Completed 19:677eaded8298624e",
    "locked-producers seed1 Completed 19:aa7530825d1c8472",
    "locked-producers seed7 Completed 19:aa7530825d1c8472",
    "locked-producers seed42 Completed 19:43cfff408affce7e",
    "racy-producers seed0 Completed 15:66f137e98ec7eebc",
    "racy-producers seed1 AssertFailed 15:a2e01be289377384",
    "racy-producers seed7 Completed 15:b7111c2b6e3bf2f2",
    "racy-producers seed42 Completed 15:f9864e110c157010",
    "barrier seed0 Completed 18:a7dc2231091299b0",
    "barrier seed1 Deadlock 13:f70b7f514fe5defc",
    "barrier seed7 Deadlock 13:3f9db26a54ff545c",
    "barrier seed42 Deadlock 13:71efc45dbb7b21ca",
    "dcl-correct seed0 Deadlock 3:87dadeb90a64ac92",
    "dcl-correct seed1 Deadlock 5:dc812c444a8ea9eb",
    "dcl-correct seed7 Deadlock 5:a2d0d0015cc5dfc1",
    "dcl-correct seed42 Deadlock 9:6e3e2e988802a41a",
    "dcl-broken seed0 Deadlock 3:87dadeb90a64ac92",
    "dcl-broken seed1 Deadlock 5:dc812c444a8ea9eb",
    "dcl-broken seed7 Deadlock 5:a2d0d0015cc5dfc1",
    "dcl-broken seed42 Deadlock 9:e3a9994cd1b534a0",
    "ticket-lock seed0 Completed 20:236155103b54c51c",
    "ticket-lock seed1 Completed 20:e1a524a142261fa8",
    "ticket-lock seed7 Completed 21:36a865992d062d8c",
    "ticket-lock seed42 Completed 20:fc65ce12aaa341be",
    "dekker seed0 Deadlock 6:2c8be73e81610fa7",
    "dekker seed1 Deadlock 5:e03c25d4711d4f7f",
    "dekker seed7 Deadlock 6:ee3771a76cf99d6c",
    "dekker seed42 Deadlock 10:89e4e8b60079512f",
    "rw-lock seed0 Deadlock 8:eca4460d86788ff2",
    "rw-lock seed1 Deadlock 8:eca4460d86788ff2",
    "rw-lock seed7 Deadlock 8:59855e21172f3a72",
    "rw-lock seed42 Completed 18:c2ce430aefc6c2dd",
    "plain-race seed0 Completed 5:d37198760926f529",
    "plain-race seed1 Completed 5:d37198760926f529",
    "plain-race seed7 Completed 5:d37198760926f529",
    "plain-race seed42 Completed 5:26e67364e8a550b5",
    "locked-counter seed0 Completed 11:f58ecba2058a95dc",
    "locked-counter seed1 Completed 11:f58ecba2058a95dc",
    "locked-counter seed7 Completed 11:35f140e84fa2dd14",
    "locked-counter seed42 Completed 11:35f140e84fa2dd14",
    "event-handoff seed0 Completed 7:1d4bc47e678b5be1",
    "event-handoff seed1 Completed 7:067d43069e196233",
    "event-handoff seed7 Completed 7:1d4bc47e678b5be1",
    "event-handoff seed42 Completed 7:1d4bc47e678b5be1",
    "benign-counter seed0 Deadlock 7:920fc310116e3f24",
    "benign-counter seed1 Completed 9:0aa89044217e2d15",
    "benign-counter seed7 Completed 9:a89cdbaca77b32f9",
    "benign-counter seed42 Completed 9:0aa89044217e2d15",
];

#[test]
fn the_explorer_matches_its_golden_table() {
    let rows: Vec<String> = kiss_samples::all()
        .iter()
        .flat_map(|s| explorer_rows(s.name, &Module::lower(s.program())))
        .collect();
    check_table(&rows, EXPLORER_GOLDEN);
}

#[test]
fn the_runner_matches_its_golden_event_digests() {
    let samples = kiss_samples::all();
    let programs = samples
        .iter()
        .map(|s| (s.name, Module::lower(s.program())))
        .chain(SCENARIOS.iter().map(|&(name, src)| (name, module(src))));
    let rows: Vec<String> = programs.flat_map(|(name, m)| runner_rows(name, &m)).collect();
    check_table(&rows, RUNNER_GOLDEN);
}
