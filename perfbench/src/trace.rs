//! The traced replay: the benchmark's own calls into each layer, timed
//! one by one. Nothing inside the program is instrumented; spans are
//! taken around the public functions the pipeline is made of, kept in
//! memory, and written out when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use kiss_core::trace_map;
use kiss_core::transform::{transform, RaceTarget, TransformConfig};
use kiss_exec::Module;
use kiss_lang::hir::Origin;
use kiss_seq::{BfsChecker, Budget, EngineStats, ExplicitChecker, SummaryChecker, Verdict};

use crate::gen::Mode;

/// One recorded span. `parent` 0 marks an op's root span.
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. A disabled tracer runs the very same calls without
/// reading the clock, which is what `trace.overhead_pct` compares
/// against.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    op: u32,
    root: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            op: 0,
            root: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs one op under a root span; spans opened inside parent on it.
    pub fn op<R>(&mut self, op: u32, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let ix = self.spans.len();
        let id = ix as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            id,
            parent: 0,
            name: "op",
            start_ns,
            end_ns: start_ns,
        });
        self.op = op;
        self.root = id;
        let r = f(self);
        self.spans[ix].end_ns = self.now_ns();
        r
    }

    /// Times one layer call.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            op: self.op,
            id,
            parent: self.root,
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Total milliseconds and call count of the spans named `name`.
    pub fn total_ms(&self, name: &str) -> (f64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(ms, n), s| {
                (ms + (s.end_ns - s.start_ns) as f64 / 1e6, n + 1)
            })
    }

    /// Mean milliseconds per call of the spans named `name` (0 when the
    /// layer was never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (ms, n) = self.total_ms(name);
        if n == 0 {
            0.0
        } else {
            ms / n as f64
        }
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What a check asks for.
pub enum Work<'a> {
    Assertions,
    /// A race check on a `global` or `Struct.field` spec.
    Race(&'a str),
    /// An LTL formula over the program's globals.
    Ltl(&'a str),
}

/// Counts taken at the layer boundaries of one check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckRecord {
    pub verdict: &'static str,
    pub detail: String,
    pub source_bytes: usize,
    pub engine: Option<Mode>,
    pub stats: EngineStats,
    pub bounded: bool,
    pub checks_emitted: usize,
    pub checks_pruned: usize,
    pub instrs: usize,
    pub buchi_states: usize,
    pub validated: Option<bool>,
}

fn error(verdict: &'static str, detail: String) -> CheckRecord {
    CheckRecord {
        verdict,
        detail,
        ..CheckRecord::default()
    }
}

/// One check taken apart into its layers: the same calls, in the same
/// order and with the same settings, as `Kiss` makes (and, with
/// `validate` off, as the daemon's workers make). Span names:
/// `parse`, `transform`, `buchi`, `lower`, the engine
/// (`explicit`/`bfs`/`summary`/`product`), `trace_map`, `validate`.
pub fn check_layered(
    t: &mut Tracer,
    source: &str,
    work: &Work<'_>,
    engine: Mode,
    budget: Budget,
    validate: bool,
    jobs: usize,
) -> CheckRecord {
    let program = match t.span("parse", || kiss_lang::parse_and_lower(source)) {
        Ok(p) => p,
        Err(e) => return error("error", format!("parse: {e}")),
    };
    let race = match work {
        Work::Race(spec) => match RaceTarget::resolve(&program, spec) {
            Some(target) => Some(target),
            None => return error("error", format!("unknown race target `{spec}`")),
        },
        _ => None,
    };
    let cfg = TransformConfig {
        max_ts: 0,
        race,
        alias_prune: true,
    };
    let mut info = match t.span("transform", || transform(&program, &cfg)) {
        Ok(info) => info,
        Err(e) => return error("transform_failed", format!("transform failed: {e}")),
    };
    let mut rec = CheckRecord {
        source_bytes: source.len(),
        checks_emitted: info.checks_emitted,
        checks_pruned: info.checks_pruned,
        ..CheckRecord::default()
    };
    let buchi = match work {
        Work::Ltl(text) => match t.span("buchi", || {
            kiss_ltl::parse(text).map(|f| kiss_ltl::Buchi::for_negation(&f))
        }) {
            Ok(b) => Some(b),
            Err(e) => return error("error", format!("ltl: {e}")),
        },
        _ => None,
    };
    let module = t.span("lower", || Module::lower(std::mem::take(&mut info.program)));
    rec.instrs = module.instr_count();

    if let Some(buchi) = &buchi {
        let atoms = match kiss_ltl::resolve_atoms(&module.program, &buchi.atoms) {
            Ok(atoms) => atoms,
            Err(name) => {
                return error(
                    "error",
                    format!("ltl: proposition `{name}` names no global"),
                )
            }
        };
        rec.engine = Some(Mode::Ltl);
        rec.buchi_states = buchi.states.len();
        let (verdict, stats) = t.span("product", || {
            kiss_ltl::ProductChecker::new(&module, buchi, atoms)
                .with_budget(budget)
                .with_jobs(jobs)
                .check_with_stats()
        });
        rec.stats = stats;
        rec.verdict = match verdict {
            kiss_ltl::LtlVerdict::Holds => "pass",
            kiss_ltl::LtlVerdict::Violated(_) => "liveness",
            kiss_ltl::LtlVerdict::ResourceBound { .. } => {
                rec.bounded = true;
                "inconclusive"
            }
            kiss_ltl::LtlVerdict::RuntimeError(..) => "runtime_error",
        };
        return rec;
    }

    rec.engine = Some(engine);
    let (verdict, stats) = match engine {
        Mode::Explicit => t.span("explicit", || {
            ExplicitChecker::new(&module)
                .with_budget(budget)
                .check_with_stats()
        }),
        Mode::Bfs => t.span("bfs", || {
            BfsChecker::new(&module)
                .with_budget(budget)
                .with_jobs(jobs)
                .check_with_stats()
        }),
        Mode::Summary => t.span("summary", || {
            SummaryChecker::new(&module)
                .with_budget(budget)
                .check_with_stats()
        }),
        Mode::Ltl => unreachable!("LTL checks carry a formula"),
    };
    rec.stats = stats;
    match verdict {
        Verdict::Pass => {
            rec.verdict = "pass";
            rec.detail = "no error found".to_string();
        }
        Verdict::ResourceBound { reason, .. } => {
            rec.verdict = "inconclusive";
            rec.bounded = true;
            rec.detail = format!("resource bound exceeded on {}", reason.as_str());
        }
        Verdict::RuntimeError(e, _) => {
            rec.verdict = "runtime_error";
            rec.detail = format!("runtime error: {e}");
        }
        Verdict::Fail(trace) => {
            // Race or user assertion: the failing step's provenance
            // tells, exactly as `Kiss` decides it.
            let (mapped, sites) = t.span("trace_map", || {
                let mapped = trace_map::map_trace(&module, &info, &trace);
                let last = trace.steps.last();
                let is_race = last.is_some_and(|s| {
                    s.origin == Origin::Check
                        || Some(s.func) == info.check_r
                        || Some(s.func) == info.check_w
                });
                let sites = if is_race {
                    trace_map::race_sites(&module, &info, &trace)
                } else {
                    None
                };
                (mapped, sites)
            });
            if let Some((first, second)) = sites {
                let kind = |write: bool| if write { "write" } else { "read" };
                rec.verdict = "race";
                rec.detail = format!(
                    "race: {} at {} vs {} at {}",
                    kind(first.is_write),
                    first.span,
                    kind(second.is_write),
                    second.span
                );
            } else {
                rec.verdict = "assertion";
                rec.detail = format!(
                    "assertion violation: {} threads, {} context switches",
                    mapped.thread_count, mapped.context_switches
                );
                if validate && !mapped.pattern.is_empty() {
                    rec.validated = Some(t.span("validate", || {
                        let original = Module::lower(program.clone());
                        let v = kiss_conc::Explorer::new(&original)
                            .with_mode(kiss_conc::ScheduleMode::Pattern(mapped.pattern.clone()))
                            .check();
                        v.is_fail() || matches!(v, kiss_conc::ConcVerdict::RuntimeError(..))
                    }));
                }
            }
        }
    }
    rec
}

/// Per-layer metrics common to every workload, from a traced replay and
/// the counts its checks recorded. Layers a workload does not exercise
/// read 0.
pub fn layer_metrics(t: &Tracer, recs: &[CheckRecord]) -> Vec<crate::stats::Metric> {
    use crate::stats::metric;
    let n = recs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&CheckRecord) -> f64| recs.iter().map(f).sum::<f64>() / n;
    let (parse_ms, _) = t.total_ms("parse");
    let bytes: f64 = recs.iter().map(|r| r.source_bytes as f64).sum();
    let explore_ms: f64 = ["explicit", "bfs", "summary", "product"]
        .iter()
        .map(|s| t.total_ms(s).0)
        .sum();
    let steps: f64 = recs.iter().map(|r| r.stats.steps as f64).sum();
    let stored: f64 = recs.iter().map(|r| r.stats.states_stored as f64).sum();
    let store_bytes: f64 = recs.iter().map(|r| r.stats.store_bytes as f64).sum();
    let ltl: Vec<&CheckRecord> = recs
        .iter()
        .filter(|r| r.engine == Some(Mode::Ltl))
        .collect();
    let ltl_mean = |f: &dyn Fn(&CheckRecord) -> f64| {
        if ltl.is_empty() {
            0.0
        } else {
            ltl.iter().map(|r| f(r)).sum::<f64>() / ltl.len() as f64
        }
    };
    let replayable = recs.iter().filter(|r| r.validated.is_some()).count();
    let validated = recs.iter().filter(|r| r.validated == Some(true)).count();
    vec![
        metric("lang.parse_ms", "ms", t.mean_ms("parse")),
        metric(
            "lang.parse_mb_per_s",
            "MB/s",
            bytes / 1e6 / (parse_ms / 1e3),
        ),
        metric("core.transform_ms", "ms", t.mean_ms("transform")),
        metric(
            "core.checks_emitted",
            "count",
            mean(&|r| r.checks_emitted as f64),
        ),
        metric(
            "core.checks_pruned",
            "count",
            mean(&|r| r.checks_pruned as f64),
        ),
        metric("exec.lower_ms", "ms", t.mean_ms("lower")),
        metric("exec.instrs", "count", mean(&|r| r.instrs as f64)),
        metric("seq.explicit_ms", "ms", t.mean_ms("explicit")),
        metric("seq.bfs_ms", "ms", t.mean_ms("bfs")),
        metric("seq.summary_ms", "ms", t.mean_ms("summary")),
        metric("seq.steps", "count", steps / n),
        metric("seq.steps_per_s", "1/s", steps / (explore_ms / 1e3)),
        metric("seq.states_stored", "count", stored / n),
        metric("seq.store_bytes_per_state", "B", store_bytes / stored),
        metric(
            "seq.frontier_peak",
            "count",
            mean(&|r| r.stats.frontier_peak as f64),
        ),
        metric(
            "seq.budget_bound_share",
            "ratio",
            mean(&|r| f64::from(u8::from(r.bounded))),
        ),
        metric("ltl.buchi_ms", "ms", t.mean_ms("buchi")),
        metric(
            "ltl.buchi_states",
            "count",
            ltl_mean(&|r| r.buchi_states as f64),
        ),
        metric("ltl.product_ms", "ms", t.mean_ms("product")),
        metric(
            "ltl.product_states",
            "count",
            ltl_mean(&|r| r.stats.product_states as f64),
        ),
        metric("core.trace_map_ms", "ms", t.mean_ms("trace_map")),
        metric("conc.validate_ms", "ms", t.mean_ms("validate")),
        metric(
            "conc.validated_share",
            "ratio",
            if replayable == 0 {
                0.0
            } else {
                validated as f64 / replayable as f64
            },
        ),
    ]
}
