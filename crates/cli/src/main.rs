//! `kissc` — the KISS checker as a command-line tool.
//!
//! ```text
//! kissc check <file.kc> [--max-ts N] [--engine explicit|summary|bfs] [--no-validate]
//!                       [--timeout S] [--max-steps N] [--max-states N] [--retries N]
//!                       [--stats] [--trace-out PATH] [--metrics PATH] [--progress]
//! kissc race <file.kc> <target> [--max-ts N] [--no-prune]
//!                       [--timeout S] [--max-steps N] [--max-states N] [--retries N]
//!                       [--stats] [--trace-out PATH] [--metrics PATH] [--progress]
//! kissc transform <file.kc> [--max-ts N] [--race <target>]
//! kissc explore <file.kc> [--balanced] [--context-bound K]
//! kissc detectors <file.kc> <target> [--runs N]
//! kissc serve [--socket PATH] [--port N] [--jobs N] [--io-threads N]
//!             [--cache-dir DIR] [--max-queue N]
//! kissc submit <file.kc>... | --corpus  (--socket PATH | --port N)
//! kissc ping (--socket PATH | --port N)
//! kissc metrics [--json] (--socket PATH | --port N)
//! kissc top [--interval MS] [--count N] (--socket PATH | --port N)
//! ```
//!
//! `<target>` is a global name or `Struct.field`. Exit code 0 means no
//! error was found, 1 means an error was reported, 2 means usage or
//! input problems, 3 means the check was inconclusive (budget, deadline,
//! or ^C), 4 means the check itself crashed (and was isolated), and 5
//! means an `--ltl` liveness property was violated.
//!
//! Robustness: `serve` drains on SIGTERM exactly as on ^C (exit 0), can
//! shed load with typed `overloaded` responses when the queue stays
//! full past `--admission-wait`, closes dead-idle connections after
//! `--idle-timeout`, and accepts deterministic fault injection via
//! `--fault SPEC` or the `KISS_FAULT` environment variable. `submit`
//! retries idempotent work over fresh connections (`--retry`) with
//! capped exponential backoff and jitter.
//!
//! `check` and `race` run under the supervisor: `--timeout` adds a
//! wall-clock deadline the engines poll cooperatively, `--retries`
//! re-runs an inconclusive check under a doubled-then-quadrupled
//! budget, a panic in the checker is reported as a crash instead of a
//! backtrace, and SIGINT cancels the search cleanly.
//!
//! Observability: `--stats` prints an engine-statistics line after the
//! verdict, `--trace-out` writes a JSONL event trace, `--metrics`
//! writes the aggregated `RunReport` as JSON, and `--progress` renders
//! a throttled heartbeat on stderr. Against a live server, `kissc
//! metrics` scrapes one snapshot (histograms, queue, cache, faults)
//! over the wire `metrics` op, and `kissc top` polls the same snapshot
//! into a refreshing terminal view.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use kiss_core::checker::{Engine, Kiss, KissOutcome};
use kiss_core::report::{render_liveness, render_trace};
use kiss_core::sigint::{install_sigint_cancel, install_sigterm_cancel, restore_sigpipe_default};
use kiss_core::supervisor::{Supervised, SupervisedRun, Supervisor};
use kiss_core::transform::{transform, RaceTarget, TransformConfig};
use kiss_exec::Module;
use kiss_lang::Program;
use kiss_obs::{Aggregator, Event, Heartbeat, JsonlSink, Obs, Observer};
use kiss_seq::{BoundReason, Budget, CancelToken};
use kiss_serve::{submit_batch_with, Endpoint, Request, ServeConfig, Server, SubmitOptions};

fn main() -> ExitCode {
    restore_sigpipe_default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  kissc check <file.kc> [--max-ts N] [--engine explicit|summary|bfs] [--no-validate]
                        [--ltl FORMULA]
                        [--timeout S] [--max-steps N] [--max-states N] [--retries N]
                        [--stats] [--trace-out PATH] [--metrics PATH] [--progress]
  kissc race <file.kc> <target> [--max-ts N] [--no-prune]
                        [--timeout S] [--max-steps N] [--max-states N] [--retries N]
                        [--stats] [--trace-out PATH] [--metrics PATH] [--progress]
  kissc transform <file.kc> [--max-ts N] [--race <target>]
  kissc explore <file.kc> [--balanced] [--context-bound K]
  kissc detectors <file.kc> <target> [--runs N]
  kissc serve [--socket PATH] [--port N] [--jobs N] [--io-threads N]
              [--cache-dir DIR] [--max-queue N]
              [--admission-wait S] [--idle-timeout S] [--fault SPEC]
              [--timeout S] [--max-steps N] [--max-states N] [--retries N]
              [--trace-out PATH] [--metrics PATH] [--progress]
  kissc submit <file.kc>... [--race <target> | --ltl FORMULA] (--socket PATH | --port N)
  kissc submit --corpus [--refined] [--limit N] (--socket PATH | --port N)
              [--engine explicit|summary|bfs] [--max-ts N]
              [--timeout S] [--max-steps N] [--max-states N] [--no-cache]
              [--no-batch] [--retry N] [--retry-backoff MS] [--request-timeout S]
  kissc ping (--socket PATH | --port N) [--request-timeout S]
  kissc metrics [--json] (--socket PATH | --port N) [--request-timeout S]
  kissc top [--interval MS] [--count N] (--socket PATH | --port N)
            [--request-timeout S]

serving (serve, submit, ping, metrics, top):
  --socket PATH     unix socket to listen/connect on
  --port N          loopback TCP port to listen/connect on (serve: 0 picks one)
  --jobs N          worker threads executing checks (default: CPU count)
  --io-threads N    driver threads multiplexing connections (default 2);
                    accepted connections round-robin across them
  --cache-dir DIR   persist the result cache journal here (survives restarts)
  --max-queue N     bounded job-queue depth; full = backpressure (default 64)
  --admission-wait S  shed with a typed `overloaded` response after the queue
                      stays full this long (default 10)
  --idle-timeout S  close connections idle with no in-flight work this long
  --fault SPEC      arm deterministic failpoints, e.g.
                    `seed=7;serve.journal.append=error*1`; the KISS_FAULT
                    environment variable is read when the flag is absent
  --corpus          submit the 18-driver evaluation corpus (deduplicated)
  --refined         corpus under the refined OS model
  --limit N         submit only the first N corpus entries
  --no-cache        ask the server to skip its cache lookup
  --no-batch        send one frame per request instead of pipelined batch
                    frames (what pre-batch clients did)
  --retry N         reconnect and re-send unanswered idempotent work up to
                    N times (exponential backoff, deterministic jitter)
  --retry-backoff MS  initial backoff before the first retry (default 100)
  --request-timeout S give up on a silent connection after this long
  --json            print the raw metrics snapshot JSON (metrics)
  --interval MS     refresh period for `top` (default 1000)
  --count N         render N frames then exit; 0 polls until ^C (default 0)
  ^C or SIGTERM drains in-flight requests before the server exits

liveness (check, submit):
  --ltl FORMULA     check an LTL formula over the program's globals
                    instead of its assertions, e.g. 'G(locked -> F !locked)'
                    (propositions: `name` or `name OP INT`; operators
                    G F X U R ! && || -> <->). A violation prints the
                    stem and repeating cycle of a concrete lasso and
                    exits 5

observability (check, race):
  --stats           print an engine-statistics line after the verdict
  --trace-out PATH  write a JSONL event trace (one event per line)
  --metrics PATH    write the aggregated run report as JSON
  --progress        render a throttled progress heartbeat on stderr

exit codes:
  0  no error found
  1  an error was reported (assertion violation, race, runtime error)
  2  usage or input problem
  3  inconclusive (budget, deadline, or ^C)
  4  the check itself crashed (isolated by the supervisor)
  5  a liveness property was violated (--ltl)";

/// Minimal flag scanner: `--name value` and boolean `--name`.
struct Flags<'a> {
    rest: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    fn new(args: &'a [String]) -> Self {
        Flags { rest: args.iter().map(String::as_str).collect() }
    }

    fn positional(&mut self) -> Option<&'a str> {
        let idx = self.rest.iter().position(|a| !a.starts_with("--"))?;
        Some(self.rest.remove(idx))
    }

    fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| *a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<&'a str>, String> {
        match self.rest.iter().position(|a| *a == name) {
            Some(i) if i + 1 < self.rest.len() => {
                self.rest.remove(i);
                Ok(Some(self.rest.remove(i)))
            }
            Some(_) => Err(format!("{name} needs a value")),
            None => Ok(None),
        }
    }

    fn finish(self) -> Result<(), String> {
        if self.rest.is_empty() {
            return Ok(());
        }
        // Name the offending flag so a typo like `--max-step` is
        // diagnosed directly instead of dumped in a pile.
        match self.rest.iter().find(|a| a.starts_with("--")) {
            Some(flag) => Err(format!("unrecognized flag `{flag}`")),
            None => Err(format!("unexpected argument `{}`", self.rest[0])),
        }
    }
}

fn load(path: &str) -> Result<Program, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    kiss_lang::parse_and_lower(&src).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    if matches!(cmd.as_str(), "--help" | "-h" | "help") {
        println!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    let mut flags = Flags::new(&args[1..]);
    match cmd.as_str() {
        "check" => {
            let file = flags.positional().ok_or("missing <file>")?;
            let max_ts: usize = parse_num(flags.value("--max-ts")?.unwrap_or("0"))?;
            let engine = match flags.value("--engine")?.unwrap_or("explicit") {
                "explicit" => Engine::Explicit,
                "summary" => Engine::Summary,
                "bfs" => Engine::Bfs,
                other => return Err(format!("unknown engine `{other}`")),
            };
            let validate = !flags.flag("--no-validate");
            let ltl = ltl_flag(&mut flags)?;
            let (budget, retries) = bound_flags(&mut flags)?;
            let obs_opts = obs_flags(&mut flags)?;
            flags.finish()?;
            let program = load(file)?;
            // Resolve the propositions before supervising so a typo is
            // a usage error (exit 2), not a supervised failure — the
            // same treatment `race` gives an unknown target.
            if let Some(formula) = &ltl {
                kiss_ltl::resolve_atoms(&program, &formula.atoms())
                    .map_err(|name| format!("--ltl: proposition `{name}` names no global"))?;
            }
            let (obs, agg) = build_obs(&obs_opts)?;
            let supervisor = supervisor_with_sigint(budget, retries).with_observer(obs.clone());
            let run = supervisor.run_scoped(file, |b, token, check_obs| {
                let kiss = Kiss::new()
                    .with_max_ts(max_ts)
                    .with_engine(engine)
                    .with_validation(validate)
                    .with_budget(b)
                    .with_cancel(token)
                    .with_observer(check_obs.clone());
                match &ltl {
                    Some(formula) => {
                        kiss.check_ltl(&program, formula).expect("propositions pre-resolved")
                    }
                    None => kiss.check_assertions(&program),
                }
            });
            finish_observed(&obs, agg.as_ref(), &obs_opts)?;
            report_supervised(&program, run, obs_opts.stats)
        }
        "race" => {
            let file = flags.positional().ok_or("missing <file>")?;
            let target = flags.positional().ok_or("missing <target>")?;
            let max_ts: usize = parse_num(flags.value("--max-ts")?.unwrap_or("0"))?;
            let prune = !flags.flag("--no-prune");
            let (budget, retries) = bound_flags(&mut flags)?;
            let obs_opts = obs_flags(&mut flags)?;
            flags.finish()?;
            let program = load(file)?;
            // Resolve the spec before supervising so a typo is a usage
            // error (exit 2), not a supervised failure.
            let resolved = RaceTarget::resolve(&program, target)
                .ok_or_else(|| format!("unknown race target `{target}`"))?;
            let (obs, agg) = build_obs(&obs_opts)?;
            let supervisor = supervisor_with_sigint(budget, retries).with_observer(obs.clone());
            let label = format!("{file}:{target}");
            let run = supervisor.run_scoped(&label, |b, token, check_obs| {
                Kiss::new()
                    .with_max_ts(max_ts)
                    .with_alias_prune(prune)
                    .with_budget(b)
                    .with_cancel(token)
                    .with_observer(check_obs.clone())
                    .check_race(&program, resolved)
            });
            finish_observed(&obs, agg.as_ref(), &obs_opts)?;
            report_supervised(&program, run, obs_opts.stats)
        }
        "transform" => {
            let file = flags.positional().ok_or("missing <file>")?;
            let max_ts: usize = parse_num(flags.value("--max-ts")?.unwrap_or("0"))?;
            let race = flags.value("--race")?;
            flags.finish()?;
            let program = load(file)?;
            let race = match race {
                Some(spec) => Some(
                    RaceTarget::resolve(&program, spec)
                        .ok_or_else(|| format!("unknown race target `{spec}`"))?,
                ),
                None => None,
            };
            let t = transform(&program, &TransformConfig { max_ts, race, alias_prune: true })
                .map_err(|e| e.to_string())?;
            print!("{}", kiss_lang::pretty::print_program(&t.program));
            Ok(ExitCode::SUCCESS)
        }
        "explore" => {
            let file = flags.positional().ok_or("missing <file>")?;
            let balanced = flags.flag("--balanced");
            let cb = flags.value("--context-bound")?;
            flags.finish()?;
            let program = load(file)?;
            let module = Module::lower(program);
            let mut explorer = kiss_conc::Explorer::new(&module);
            if balanced {
                explorer = explorer.with_mode(kiss_conc::ScheduleMode::Balanced);
            } else if let Some(k) = cb {
                explorer =
                    explorer.with_mode(kiss_conc::ScheduleMode::ContextBound(parse_num(k)? as u32));
            }
            let (verdict, stats) = explorer.check_with_stats();
            println!(
                "explored {} states, {} transitions, up to {} threads, {} deadlocked path(s)",
                stats.states, stats.transitions, stats.max_threads, stats.deadlocks
            );
            match verdict {
                kiss_conc::ConcVerdict::Pass => {
                    println!("no assertion failure reachable");
                    Ok(ExitCode::SUCCESS)
                }
                kiss_conc::ConcVerdict::Fail(trace) => {
                    println!(
                        "assertion failure; schedule pattern {:?}",
                        trace.collapsed_schedule()
                    );
                    Ok(ExitCode::from(1))
                }
                kiss_conc::ConcVerdict::RuntimeError(e, _) => {
                    println!("runtime error: {e}");
                    Ok(ExitCode::from(1))
                }
                kiss_conc::ConcVerdict::ResourceBound { steps, states } => {
                    println!("inconclusive: budget exceeded ({steps} steps, {states} states)");
                    Ok(ExitCode::from(3))
                }
            }
        }
        "detectors" => {
            let file = flags.positional().ok_or("missing <file>")?;
            let target = flags.positional().ok_or("missing <target>")?;
            let runs: u32 = parse_num(flags.value("--runs")?.unwrap_or("100"))? as u32;
            flags.finish()?;
            let program = load(file)?;
            let module = Module::lower(program.clone());
            let kiss = Kiss::new()
                .check_race_spec(&program, target)
                .ok_or_else(|| format!("unknown race target `{target}`"))?;
            let ls = kiss_conc::lockset_check(&module, runs, 11);
            let hb = kiss_conc::hb_check(&module, runs, 11);
            println!("KISS      : {}", if kiss.found_error() { "race" } else { "no race" });
            println!("lockset   : {} warning(s) over {runs} runs", ls.warnings.len());
            println!("happens-b.: {} race(s) over {runs} runs", hb.races.len());
            Ok(ExitCode::SUCCESS)
        }
        "serve" => {
            let socket = flags.value("--socket")?.map(PathBuf::from);
            let port = match flags.value("--port")? {
                Some(s) => Some(parse_num(s)? as u16),
                None => None,
            };
            let jobs = match flags.value("--jobs")? {
                Some(s) => parse_num(s)?,
                None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2),
            };
            let io_threads = match flags.value("--io-threads")? {
                Some(s) => {
                    let n: usize = parse_num(s)?;
                    if n == 0 {
                        return Err("--io-threads needs at least 1".into());
                    }
                    n
                }
                None => ServeConfig::default().io_threads,
            };
            let max_queue = match flags.value("--max-queue")? {
                Some(s) => parse_num(s)?,
                None => 64,
            };
            let cache_dir = flags.value("--cache-dir")?.map(PathBuf::from);
            let admission_wait = match flags.value("--admission-wait")? {
                Some(s) => Duration::from_secs(parse_num(s)? as u64),
                None => Duration::from_secs(10),
            };
            let idle_timeout = flags
                .value("--idle-timeout")?
                .map(|s| parse_num(s).map(|secs| Duration::from_secs(secs as u64)))
                .transpose()?;
            let fault = flags.value("--fault")?;
            let (budget, retries) = bound_flags(&mut flags)?;
            let obs_opts = obs_flags(&mut flags)?;
            flags.finish()?;
            match fault {
                Some(spec) => {
                    kiss_fault::configure(spec).map_err(|e| format!("--fault: {e}"))?;
                    eprintln!("fault injection armed: {spec}");
                }
                None => {
                    if let Some(spec) =
                        kiss_fault::configure_from_env().map_err(|e| format!("KISS_FAULT: {e}"))?
                    {
                        eprintln!("fault injection armed from KISS_FAULT: {spec}");
                    }
                }
            }
            let (obs, agg) = build_obs(&obs_opts)?;
            let shutdown = CancelToken::new();
            install_sigint_cancel(shutdown.clone());
            install_sigterm_cancel(shutdown.clone());
            let cfg = ServeConfig {
                socket: socket.clone(),
                port,
                jobs,
                io_threads,
                max_queue,
                admission_wait,
                idle_timeout,
                cache_dir,
                budget,
                retries,
                obs: obs.clone(),
            };
            let server = Server::bind(cfg).map_err(|e| e.to_string())?;
            if let Some(path) = &socket {
                println!("listening on {}", path.display());
            }
            if let Some(port) = server.local_port() {
                println!("listening on 127.0.0.1:{port}");
            }
            println!("serving with {jobs} worker(s); ^C or SIGTERM drains and exits");
            let stats = server.run(&shutdown).map_err(|e| format!("serve failed: {e}"))?;
            finish_observed(&obs, agg.as_ref(), &obs_opts)?;
            println!(
                "served {} request(s): {} cache hit(s), {} miss(es), {} shed",
                stats.requests, stats.cache_hits, stats.cache_misses, stats.shed
            );
            let fired = kiss_fault::total_fired();
            if fired > 0 {
                println!("fault injection: {fired} fault(s) fired");
            }
            Ok(ExitCode::SUCCESS)
        }
        "submit" => {
            let socket = flags.value("--socket")?.map(PathBuf::from);
            let port = match flags.value("--port")? {
                Some(s) => Some(parse_num(s)? as u16),
                None => None,
            };
            let corpus = flags.flag("--corpus");
            let refined = flags.flag("--refined");
            let limit = flags.value("--limit")?.map(parse_num).transpose()?;
            let engine = match flags.value("--engine")? {
                None => Engine::default(),
                Some(s) => Engine::parse(s).ok_or_else(|| format!("unknown engine `{s}`"))?,
            };
            let max_ts: usize = parse_num(flags.value("--max-ts")?.unwrap_or("0"))?;
            let timeout_ms = flags
                .value("--timeout")?
                .map(|s| parse_num(s).map(|secs| (secs as u64) * 1000))
                .transpose()?;
            let max_steps = flags.value("--max-steps")?.map(parse_num).transpose()?;
            let max_states = flags.value("--max-states")?.map(parse_num).transpose()?;
            let no_cache = flags.flag("--no-cache");
            let no_batch = flags.flag("--no-batch");
            let race = flags.value("--race")?;
            let ltl = ltl_flag(&mut flags)?;
            if race.is_some() && ltl.is_some() {
                return Err("--race and --ltl are mutually exclusive".into());
            }
            let retry = match flags.value("--retry")? {
                Some(s) => parse_num(s)? as u32,
                None => 0,
            };
            let retry_backoff = match flags.value("--retry-backoff")? {
                Some(s) => Duration::from_millis(parse_num(s)? as u64),
                None => Duration::from_millis(100),
            };
            let request_timeout = flags
                .value("--request-timeout")?
                .map(|s| parse_num(s).map(|secs| Duration::from_secs(secs as u64)))
                .transpose()?;
            let mut files = Vec::new();
            while let Some(f) = flags.positional() {
                files.push(f);
            }
            flags.finish()?;
            let endpoint = endpoint_of(socket, port)?;
            let configure = |mut request: Request| {
                request.engine = engine;
                request.max_ts = max_ts;
                request.max_steps = max_steps.map(|n| n as u64);
                request.max_states = max_states.map(|n| n as u64);
                request.timeout_ms = timeout_ms;
                request.no_cache = no_cache;
                request
            };
            let mut requests = Vec::new();
            if corpus {
                if !files.is_empty() {
                    return Err("--corpus and <file.kc> arguments are mutually exclusive".into());
                }
                if ltl.is_some() {
                    return Err("--corpus and --ltl are mutually exclusive".into());
                }
                let mut entries = kiss_drivers::corpus_batch(refined);
                if let Some(limit) = limit {
                    entries.truncate(limit);
                }
                for entry in entries {
                    requests
                        .push(configure(Request::race(entry.label, entry.source, entry.race_spec)));
                }
            } else {
                if files.is_empty() {
                    return Err("submit needs <file.kc> arguments or --corpus".into());
                }
                for file in files {
                    let source = std::fs::read_to_string(file)
                        .map_err(|e| format!("cannot read `{file}`: {e}"))?;
                    requests.push(configure(match (race, &ltl) {
                        (Some(target), _) => Request::race(file, source, target),
                        // The formula travels pretty-printed: two
                        // spellings of one formula share a cache entry.
                        (None, Some(formula)) => {
                            Request::ltl(file, source, formula.to_string())
                        }
                        (None, None) => Request::check(file, source),
                    }));
                }
            }
            let opts = SubmitOptions {
                retries: retry,
                backoff: retry_backoff,
                request_timeout,
                batch: !no_batch,
                ..SubmitOptions::default()
            };
            let started = std::time::Instant::now();
            let outcome = submit_batch_with(&endpoint, &requests, &opts)
                .map_err(|e| format!("submit failed: {e}"))?;
            let wall = started.elapsed();
            for (response, cache) in outcome.responses.iter().zip(&outcome.entry_cache) {
                println!(
                    "{}: {} — {} [{}]",
                    response.id,
                    response.verdict,
                    response.detail,
                    cache.as_str()
                );
            }
            let answered = outcome.hits + outcome.misses;
            let hit_rate = if answered == 0 {
                0.0
            } else {
                100.0 * outcome.hits as f64 / answered as f64
            };
            let rps = outcome.responses.len() as f64 / wall.as_secs_f64().max(1e-9);
            println!(
                "{} entries ({} unique) in {} ms: hits={} misses={} hit-rate={hit_rate:.1}% — {rps:.0} req/s",
                outcome.responses.len(),
                outcome.unique,
                wall.as_millis(),
                outcome.hits,
                outcome.misses,
            );
            if outcome.retries > 0 {
                println!("reconnected {} time(s) to complete the batch", outcome.retries);
            }
            let verdicts: Vec<&str> =
                outcome.responses.iter().map(|r| r.verdict.as_str()).collect();
            if outcome.responses.iter().any(|r| r.found_error()) {
                Ok(ExitCode::from(1))
            } else if verdicts.contains(&"liveness") {
                Ok(ExitCode::from(5))
            } else if verdicts.contains(&"crashed") {
                Ok(ExitCode::from(4))
            } else if verdicts.contains(&"inconclusive") {
                Ok(ExitCode::from(3))
            } else if verdicts.iter().any(|v| *v == "error" || *v == "transform_failed") {
                Ok(ExitCode::from(2))
            } else {
                Ok(ExitCode::SUCCESS)
            }
        }
        "ping" => {
            let (endpoint, timeout) = client_flags(&mut flags)?;
            flags.finish()?;
            let snap = kiss_serve::fetch_metrics(&endpoint, timeout)
                .map_err(|e| format!("ping failed: {e}"))?;
            println!(
                "pong from {endpoint}: uptime {:.1}s, queue depth {} (peak {}), {} in flight",
                snap.uptime_ms as f64 / 1000.0,
                snap.queue_depth,
                snap.queue_peak,
                snap.in_flight,
            );
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let json = flags.flag("--json");
            let (endpoint, timeout) = client_flags(&mut flags)?;
            flags.finish()?;
            let snap = kiss_serve::fetch_metrics(&endpoint, timeout)
                .map_err(|e| format!("metrics failed: {e}"))?;
            if json {
                println!("{}", snap.to_json());
            } else {
                print!("{}", snap.render());
            }
            Ok(ExitCode::SUCCESS)
        }
        "top" => {
            let interval = match flags.value("--interval")? {
                Some(s) => Duration::from_millis(parse_num(s)? as u64),
                None => Duration::from_millis(1000),
            };
            let count: usize = match flags.value("--count")? {
                Some(s) => parse_num(s)?,
                None => 0,
            };
            let (endpoint, timeout) = client_flags(&mut flags)?;
            flags.finish()?;
            let stop = CancelToken::new();
            install_sigint_cancel(stop.clone());
            let mut frames = 0usize;
            while !stop.is_cancelled() {
                let snap = kiss_serve::fetch_metrics(&endpoint, timeout)
                    .map_err(|e| format!("top: {e}"))?;
                // Clear the screen and re-home the cursor between
                // frames so the view refreshes in place.
                if frames > 0 || count == 0 {
                    print!("\x1b[2J\x1b[H");
                }
                println!(
                    "kissc top — {endpoint} — every {}ms (^C quits)",
                    interval.as_millis()
                );
                print!("{}", snap.render());
                use std::io::Write as _;
                let _ = std::io::stdout().flush();
                frames += 1;
                if count != 0 && frames >= count {
                    break;
                }
                // Sleep in short slices so ^C stays responsive.
                let deadline = std::time::Instant::now() + interval;
                while !stop.is_cancelled() {
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(Duration::from_millis(25)));
                }
            }
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Parses the shared client flags of `ping`, `metrics`, and `top`:
/// the endpoint plus the per-request timeout.
fn client_flags(flags: &mut Flags) -> Result<(Endpoint, Duration), String> {
    let socket = flags.value("--socket")?.map(PathBuf::from);
    let port = match flags.value("--port")? {
        Some(s) => Some(parse_num(s)? as u16),
        None => None,
    };
    let timeout = match flags.value("--request-timeout")? {
        Some(s) => Duration::from_secs(parse_num(s)? as u64),
        None => Duration::from_secs(5),
    };
    Ok((endpoint_of(socket, port)?, timeout))
}

/// Picks the client endpoint from `--socket`/`--port`.
fn endpoint_of(socket: Option<PathBuf>, port: Option<u16>) -> Result<Endpoint, String> {
    #[cfg(unix)]
    if let Some(path) = socket {
        return Ok(Endpoint::Unix(path));
    }
    #[cfg(not(unix))]
    if socket.is_some() {
        return Err("unix sockets are not available on this platform; use --port".into());
    }
    match port {
        Some(port) => Ok(Endpoint::Tcp(format!("127.0.0.1:{port}"))),
        None => Err("submit needs a server --socket or --port".into()),
    }
}

fn parse_num(s: &str) -> Result<usize, String> {
    s.parse().map_err(|_| format!("invalid number `{s}`"))
}

/// Parses the shared `--ltl` flag of `check` and `submit`: an LTL
/// formula over the program's globals. A malformed formula is a usage
/// error (exit 2) whose message names the offending token.
fn ltl_flag(flags: &mut Flags) -> Result<Option<kiss_ltl::Formula>, String> {
    match flags.value("--ltl")? {
        None => Ok(None),
        Some(s) => kiss_ltl::parse(s).map(Some).map_err(|e| format!("--ltl: {e}")),
    }
}

/// Parses the shared resource-bound flags of `check` and `race`.
fn bound_flags(flags: &mut Flags) -> Result<(Budget, u32), String> {
    let mut budget = Budget::default();
    if let Some(s) = flags.value("--timeout")? {
        budget = budget.with_deadline(Duration::from_secs(parse_num(s)? as u64));
    }
    if let Some(s) = flags.value("--max-steps")? {
        budget.max_steps = parse_num(s)? as u64;
    }
    if let Some(s) = flags.value("--max-states")? {
        budget.max_states = parse_num(s)?;
    }
    let retries = match flags.value("--retries")? {
        Some(s) => parse_num(s)? as u32,
        None => 0,
    };
    Ok((budget, retries))
}

/// Parses the shared observability flags of `check` and `race`.
fn obs_flags(flags: &mut Flags) -> Result<ObsOpts, String> {
    Ok(ObsOpts {
        stats: flags.flag("--stats"),
        trace_out: flags.value("--trace-out")?.map(str::to_string),
        metrics: flags.value("--metrics")?.map(str::to_string),
        progress: flags.flag("--progress"),
    })
}

struct ObsOpts {
    stats: bool,
    trace_out: Option<String>,
    metrics: Option<String>,
    progress: bool,
}

/// Builds the observer pipeline for one CLI check. Returns `Obs::off()`
/// (which compiles the engine hooks to no-ops) when no observability
/// flag was given; otherwise an aggregator always rides along so the
/// final `RunSummary` event carries a complete report.
fn build_obs(opts: &ObsOpts) -> Result<(Obs, Option<Aggregator>), String> {
    if opts.trace_out.is_none() && opts.metrics.is_none() && !opts.progress {
        return Ok((Obs::off(), None));
    }
    let mut sinks: Vec<Box<dyn Observer>> = Vec::new();
    if let Some(path) = &opts.trace_out {
        let sink = JsonlSink::create(path)
            .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
        sinks.push(Box::new(sink));
    }
    let agg = Aggregator::new();
    sinks.push(Box::new(agg.clone()));
    if opts.progress {
        sinks.push(Box::new(Heartbeat::stderr()));
    }
    Ok((Obs::multi(sinks), Some(agg)))
}

/// Emits the final `RunSummary` event and writes the `--metrics` file.
fn finish_observed(obs: &Obs, agg: Option<&Aggregator>, opts: &ObsOpts) -> Result<(), String> {
    let Some(agg) = agg else { return Ok(()) };
    let report = agg.report();
    if let Some(path) = &opts.metrics {
        std::fs::write(path, format!("{}\n", report.to_json()))
            .map_err(|e| format!("cannot write metrics file `{path}`: {e}"))?;
    }
    obs.emit(|_| Event::RunSummary { report: report.clone() });
    Ok(())
}

/// Builds the supervisor for one CLI check, wiring SIGINT to its
/// cancellation token so ^C winds the search down cleanly (the check
/// reports `inconclusive: cancelled` and exits 3).
fn supervisor_with_sigint(budget: Budget, retries: u32) -> Supervisor {
    let cancel = CancelToken::new();
    install_sigint_cancel(cancel.clone());
    Supervisor::new(budget).with_retries(retries).with_cancel(cancel)
}

/// Reports a supervised run: a crash is isolated and mapped to its own
/// exit code (4) so scripts can tell "the checker broke" from "the
/// program has a bug" (1) and "the bound was hit" (3).
fn report_supervised(
    program: &Program,
    run: SupervisedRun,
    show_stats: bool,
) -> Result<ExitCode, String> {
    match run.result {
        Supervised::Completed(outcome) => {
            if show_stats {
                if let Some(stats) = outcome.stats() {
                    println!(
                        "stats: engine={} {} emitted={} pruned={} attempts={}",
                        stats.engine.name(),
                        stats.seq.render(),
                        stats.checks_emitted,
                        stats.checks_pruned,
                        run.attempts
                    );
                }
            }
            report_outcome(program, outcome)
        }
        Supervised::Crashed { cause } => {
            println!("CHECK CRASHED: {cause}");
            println!("(the failure was isolated; the input program was not judged)");
            Ok(ExitCode::from(4))
        }
    }
}

fn report_outcome(program: &Program, outcome: KissOutcome) -> Result<ExitCode, String> {
    match outcome {
        KissOutcome::NoErrorFound(stats) => {
            println!(
                "no error found ({} steps, {} states explored)",
                stats.steps(),
                stats.states()
            );
            Ok(ExitCode::SUCCESS)
        }
        KissOutcome::AssertionViolation(report) => {
            println!("ASSERTION VIOLATION");
            println!(
                "threads: {}, context switches: {}, schedule pattern {:?}",
                report.mapped.thread_count, report.mapped.context_switches, report.mapped.pattern
            );
            if let Some(v) = report.validated {
                println!("replay-validated on the concurrent program: {v}");
            }
            println!("concurrent trace:");
            print!("{}", render_trace(program, &report.mapped));
            Ok(ExitCode::from(1))
        }
        KissOutcome::RaceDetected(report) => {
            println!("RACE CONDITION");
            println!(
                "  first access : {} at {}",
                if report.first.is_write { "write" } else { "read" },
                report.first.span
            );
            println!(
                "  second access: {} at {}",
                if report.second.is_write { "write" } else { "read" },
                report.second.span
            );
            println!("concurrent trace:");
            print!("{}", render_trace(program, &report.mapped));
            Ok(ExitCode::from(1))
        }
        KissOutcome::LivenessViolated(report) => {
            println!("LIVENESS VIOLATION");
            println!("formula: {}", report.formula);
            print!("{}", render_liveness(program, &report));
            Ok(ExitCode::from(5))
        }
        KissOutcome::Inconclusive { stats, reason } => {
            let (steps, states) = (stats.steps(), stats.states());
            if reason == BoundReason::Cancelled {
                println!("inconclusive: cancelled ({steps} steps, {states} states)");
            } else {
                println!(
                    "inconclusive: resource bound exceeded on {reason} \
                     ({steps} steps, {states} states)"
                );
            }
            Ok(ExitCode::from(3))
        }
        KissOutcome::RuntimeError(e) => {
            println!("runtime error in program: {e}");
            Ok(ExitCode::from(1))
        }
        KissOutcome::TransformFailed(e) => Err(e.to_string()),
    }
}
