//! Consistency checker for observability artifacts: validates that a
//! JSONL event trace (from `--trace-out`) parses and is internally
//! consistent, and that the `--metrics` report agrees with the trace's
//! final `run_summary` event.
//!
//! ```text
//! cargo run -p kiss-bench --bin obs_verify -- <trace.jsonl> [metrics.json]
//! ```
//!
//! Checks performed:
//!
//! * every line is a JSON object whose `event` field is a known kind;
//! * every check label is started exactly once and finished exactly
//!   once, and every per-check event names a started check;
//! * the sum of per-check `retries` equals the number of
//!   `retry_escalated` events;
//! * serve-mode accounting balances: every `cache_hit`, `cache_miss`,
//!   `request_shed`, and `request_done` names a received request id,
//!   each received request is answered exactly once (`request_done`
//!   count equals `request_received` — shed requests are answered with
//!   a typed `overloaded` response), and
//!   requests = cache hits + cache misses + requests shed;
//! * spans balance: every `span_open` is matched by exactly one
//!   `span_close` with the same (trace, span) identity and no span
//!   closes twice or without opening; root `recv` spans name the
//!   request they trace and no two requests share a trace id;
//! * the summary report's serving counters satisfy the same balance,
//!   agree with the trace when the report covers exactly this trace,
//!   and its latency histogram holds one sample per request (so the
//!   per-request percentiles are well-defined);
//! * exactly one `run_summary` event exists, it is the last line, and
//!   its report covers at least every non-cancelled finished check
//!   (more only when the report merges resumed sessions);
//! * when the report covers exactly the trace's checks (no merged
//!   sessions), each engine's summed `store_bytes` in the report equals
//!   the sum over that engine's `check_finished` events;
//! * the metrics file, when given, parses as a `RunReport` whose
//!   deterministic counts match the trace's summary report.
//!
//! Exits 0 when consistent, 1 on any inconsistency, 2 on usage or I/O
//! problems.

use std::collections::BTreeMap;
use std::process::ExitCode;

use kiss_obs::json::Json;
use kiss_obs::RunReport;

const KINDS: [&str; 15] = [
    "check_started",
    "engine_tick",
    "retry_escalated",
    "budget_violated",
    "check_finished",
    "request_received",
    "cache_hit",
    "cache_miss",
    "request_done",
    "request_shed",
    "fault_injected",
    "client_retry",
    "span_open",
    "span_close",
    "run_summary",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (trace_path, metrics_path) = match args.as_slice() {
        [t] => (t.as_str(), None),
        [t, m] => (t.as_str(), Some(m.as_str())),
        _ => {
            eprintln!("usage: obs_verify <trace.jsonl> [metrics.json]");
            return ExitCode::from(2);
        }
    };
    let trace = match std::fs::read_to_string(trace_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("obs_verify: cannot read `{trace_path}`: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = match metrics_path.map(std::fs::read_to_string) {
        None => None,
        Some(Ok(s)) => Some(s),
        Some(Err(e)) => {
            eprintln!("obs_verify: cannot read metrics file: {e}");
            return ExitCode::from(2);
        }
    };

    match verify(&trace, metrics.as_deref()) {
        Ok(summary) => {
            println!("{summary}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("obs_verify: INCONSISTENT: {msg}");
            ExitCode::from(1)
        }
    }
}

fn verify(trace: &str, metrics: Option<&str>) -> Result<String, String> {
    let mut kind_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut started: BTreeMap<String, u64> = BTreeMap::new();
    let mut finished: BTreeMap<String, u64> = BTreeMap::new();
    let mut finished_retries = 0u64;
    let mut cancelled = 0u64;
    let mut store_by_engine: BTreeMap<String, u64> = BTreeMap::new();
    let mut received: BTreeMap<String, u64> = BTreeMap::new();
    let mut hits = 0u64;
    let mut misses = 0u64;
    let mut shed = 0u64;
    let mut done = 0u64;
    // Span balance: (trace, span) -> (opens, closes, name). Workers
    // close spans opened by the reader thread, so an open and its
    // close may land in either order in the file; only the final
    // counts are constrained.
    let mut spans: BTreeMap<(String, u64), (u64, u64, String)> = BTreeMap::new();
    // Root `recv` spans: trace id -> request id, for uniqueness.
    let mut recv_traces: BTreeMap<String, String> = BTreeMap::new();
    let mut summary: Option<(usize, RunReport)> = None;
    let mut lines = 0usize;

    for (i, line) in trace.lines().enumerate() {
        let n = i + 1;
        lines = n;
        let v = Json::parse(line).ok_or(format!("line {n}: not valid JSON"))?;
        let kind = v
            .get("event")
            .and_then(Json::as_str)
            .ok_or(format!("line {n}: missing `event` field"))?;
        if !KINDS.contains(&kind) {
            return Err(format!("line {n}: unknown event kind `{kind}`"));
        }
        *kind_counts.entry(kind.to_string()).or_insert(0) += 1;
        let check = v.get("check").and_then(Json::as_str);
        match kind {
            "check_started" => {
                let check = check.ok_or(format!("line {n}: check_started without check"))?;
                *started.entry(check.to_string()).or_insert(0) += 1;
            }
            "check_finished" => {
                let check = check.ok_or(format!("line {n}: check_finished without check"))?;
                if !started.contains_key(check) {
                    return Err(format!("line {n}: `{check}` finished but never started"));
                }
                *finished.entry(check.to_string()).or_insert(0) += 1;
                finished_retries += v
                    .get("retries")
                    .and_then(Json::as_u64)
                    .ok_or(format!("line {n}: check_finished without retries"))?;
                if v.get("bound_reason").and_then(Json::as_str) == Some("cancelled") {
                    cancelled += 1;
                }
                // Pre-gauge traces lack the field; they sum to 0 and the
                // summary comparison below is skipped for merged reports.
                let bytes = v.get("store_bytes").and_then(Json::as_u64).unwrap_or(0);
                if let Some(engine) = v.get("engine").and_then(Json::as_str) {
                    *store_by_engine.entry(engine.to_string()).or_insert(0) += bytes;
                }
            }
            "engine_tick" | "budget_violated" | "retry_escalated" => {
                let check = check.ok_or(format!("line {n}: {kind} without check"))?;
                if !started.contains_key(check) {
                    return Err(format!("line {n}: {kind} for unstarted check `{check}`"));
                }
            }
            "request_received" => {
                let request = v
                    .get("request")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {n}: request_received without request id"))?;
                *received.entry(request.to_string()).or_insert(0) += 1;
            }
            "cache_hit" | "cache_miss" | "request_shed" | "request_done" => {
                let request = v
                    .get("request")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {n}: {kind} without request id"))?;
                if !received.contains_key(request) {
                    return Err(format!("line {n}: {kind} for unreceived request `{request}`"));
                }
                match kind {
                    "cache_hit" => hits += 1,
                    "cache_miss" => misses += 1,
                    "request_shed" => shed += 1,
                    _ => {
                        done += 1;
                        if v.get("wall_ms").and_then(Json::as_u64).is_none() {
                            return Err(format!("line {n}: request_done without wall_ms"));
                        }
                    }
                }
            }
            // Client-side and injection events have no pairing
            // constraints; the counts still land in the summary checks.
            "fault_injected" | "client_retry" => {}
            "span_open" | "span_close" => {
                let trace = v
                    .get("trace")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {n}: {kind} without trace id"))?;
                let span = v
                    .get("span")
                    .and_then(Json::as_u64)
                    .ok_or(format!("line {n}: {kind} without span id"))?;
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("line {n}: {kind} without name"))?;
                let entry = spans
                    .entry((trace.to_string(), span))
                    .or_insert((0, 0, name.to_string()));
                if entry.2 != name {
                    return Err(format!(
                        "line {n}: span {span} of trace {trace} is named `{name}` here \
                         but `{}` elsewhere",
                        entry.2
                    ));
                }
                if kind == "span_open" {
                    entry.0 += 1;
                    if name == "recv" {
                        let request = v
                            .get("request")
                            .and_then(Json::as_str)
                            .ok_or(format!("line {n}: recv span without request id"))?;
                        if let Some(prior) =
                            recv_traces.insert(trace.to_string(), request.to_string())
                        {
                            return Err(format!(
                                "line {n}: trace {trace} roots request `{request}` but \
                                 already rooted `{prior}`; trace ids must be unique \
                                 per request"
                            ));
                        }
                    }
                } else {
                    entry.1 += 1;
                    if v.get("wall_us").and_then(Json::as_u64).is_none() {
                        return Err(format!("line {n}: span_close without wall_us"));
                    }
                }
            }
            "run_summary" => {
                if summary.is_some() {
                    return Err(format!("line {n}: second run_summary"));
                }
                let report = v
                    .get("report")
                    .and_then(RunReport::from_value)
                    .ok_or(format!("line {n}: run_summary report does not parse"))?;
                summary = Some((n, report));
            }
            _ => unreachable!("kind was validated against KINDS"),
        }
    }

    if let Some((check, count)) = started.iter().find(|(_, c)| **c != 1) {
        return Err(format!("`{check}` started {count} times"));
    }
    if let Some((check, count)) = finished.iter().find(|(_, c)| **c != 1) {
        return Err(format!("`{check}` finished {count} times"));
    }
    if started.len() != finished.len() {
        let open: Vec<&str> = started
            .keys()
            .filter(|c| !finished.contains_key(*c))
            .map(String::as_str)
            .collect();
        return Err(format!("{} check(s) never finished: {}", open.len(), open.join(", ")));
    }
    let escalations = kind_counts.get("retry_escalated").copied().unwrap_or(0);
    if finished_retries != escalations {
        return Err(format!(
            "finished checks report {finished_retries} retries but the trace has \
             {escalations} retry_escalated event(s)"
        ));
    }
    for ((trace, span), (opens, closes, name)) in &spans {
        if *opens == 0 {
            return Err(format!(
                "span {span} (`{name}`) of trace {trace} closed but never opened"
            ));
        }
        if *opens > 1 {
            return Err(format!(
                "span {span} (`{name}`) of trace {trace} opened {opens} times"
            ));
        }
        if *closes != 1 {
            return Err(format!(
                "span {span} (`{name}`) of trace {trace} opened once but closed \
                 {closes} time(s)"
            ));
        }
    }
    let requests: u64 = received.values().sum();
    if hits + misses + shed != requests {
        return Err(format!(
            "trace received {requests} request(s) but resolved {hits} cache hit(s) \
             + {misses} cache miss(es) + {shed} shed"
        ));
    }
    if done != requests {
        return Err(format!(
            "trace received {requests} request(s) but has {done} request_done event(s)"
        ));
    }
    let (summary_line, report) =
        summary.ok_or("no run_summary event".to_string())?;
    if summary_line != lines {
        return Err(format!("run_summary at line {summary_line} is not the last line ({lines})"));
    }
    let counted = finished.len() as u64 - cancelled;
    if report.checks < counted {
        return Err(format!(
            "summary report covers {} checks but the trace finished {counted} \
             (excluding {cancelled} cancelled)",
            report.checks
        ));
    }
    let histogram: u64 = report.outcomes.values().sum();
    if histogram != report.checks {
        return Err(format!(
            "summary outcome histogram sums to {histogram} but reports {} checks",
            report.checks
        ));
    }
    // The store gauges are additive, so when the report covers exactly
    // this trace's checks, each engine's total must equal the sum over
    // its check_finished events. A merged or resumable report covers a
    // different check set, so the equality does not apply there.
    if report.checks == finished.len() as u64 {
        for (engine, totals) in &report.engines {
            let traced = store_by_engine.get(engine).copied().unwrap_or(0);
            if totals.store_bytes != traced {
                return Err(format!(
                    "engine {engine}: summary reports {} store bytes but the trace's \
                     check_finished events sum to {traced}",
                    totals.store_bytes
                ));
            }
        }
    }

    if report.cache_hits + report.cache_misses + report.requests_shed != report.requests {
        return Err(format!(
            "summary reports {} request(s) but {} cache hit(s) + {} cache miss(es) \
             + {} shed",
            report.requests, report.cache_hits, report.cache_misses, report.requests_shed
        ));
    }
    if report.request_latency.count() != report.requests {
        return Err(format!(
            "summary reports {} request(s) but its latency histogram holds {} \
             sample(s); per-request percentiles need one sample per request",
            report.requests,
            report.request_latency.count()
        ));
    }
    if report.requests < requests {
        return Err(format!(
            "summary report covers {} request(s) but the trace received {requests}",
            report.requests
        ));
    }
    // As with store gauges: when the report covers exactly this trace's
    // requests, the hit/miss/shed split must match the traced events.
    if report.requests == requests
        && (report.cache_hits, report.cache_misses, report.requests_shed)
            != (hits, misses, shed)
    {
        return Err(format!(
            "summary reports {} hit(s) / {} miss(es) / {} shed but the trace has \
             {hits} / {misses} / {shed}",
            report.cache_hits, report.cache_misses, report.requests_shed
        ));
    }

    if let Some(text) = metrics {
        let from_file = RunReport::from_json(text.trim())
            .ok_or("metrics file does not parse as a RunReport".to_string())?;
        if !from_file.counts_match(&report) {
            return Err("metrics file disagrees with the trace's run_summary".to_string());
        }
    }

    let counts: Vec<String> =
        kind_counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    let serving = if requests > 0 {
        let shed_note = if shed > 0 { format!(" / {shed} shed") } else { String::new() };
        format!(", {requests} request(s) ({hits} hit / {misses} miss{shed_note})")
    } else {
        String::new()
    };
    let spanning = if spans.is_empty() {
        String::new()
    } else {
        let traces: std::collections::BTreeSet<&str> =
            spans.keys().map(|(t, _)| t.as_str()).collect();
        format!(", {} span(s) balanced across {} trace(s)", spans.len(), traces.len())
    };
    Ok(format!(
        "trace OK: {lines} events ({}), {} check(s){serving}{spanning}, \
         summary covers {} check(s){}",
        counts.join(" "),
        finished.len(),
        report.checks,
        if metrics.is_some() { ", metrics file matches" } else { "" },
    ))
}

#[cfg(test)]
mod tests {
    use super::verify;
    use kiss_obs::{Aggregator, CheckMetrics, Event, Obs};

    fn trace_of(events: &[Event]) -> (String, String) {
        let agg = Aggregator::new();
        let obs = Obs::new(agg.clone());
        for e in events {
            obs.emit(|_| e.clone());
        }
        let report = agg.report();
        let mut trace: String =
            events.iter().map(|e| format!("{}\n", e.to_json())).collect();
        trace.push_str(&format!(
            "{}\n",
            Event::RunSummary { report: report.clone() }.to_json()
        ));
        (trace, format!("{}\n", report.to_json()))
    }

    fn lifecycle(check: &str, verdict: &str) -> [Event; 2] {
        [
            Event::CheckStarted { check: check.to_string() },
            Event::CheckFinished {
                metrics: CheckMetrics {
                    check: check.to_string(),
                    verdict: verdict.to_string(),
                    ..CheckMetrics::default()
                },
            },
        ]
    }

    #[test]
    fn a_consistent_trace_verifies() {
        let mut events = lifecycle("a/0", "pass").to_vec();
        events.extend(lifecycle("a/1", "race"));
        let (trace, metrics) = trace_of(&events);
        verify(&trace, Some(&metrics)).unwrap();
    }

    #[test]
    fn store_gauges_must_sum_across_the_trace() {
        let mut m = CheckMetrics {
            check: "a/0".to_string(),
            engine: "bfs".to_string(),
            verdict: "pass".to_string(),
            store_bytes: 64,
            ..CheckMetrics::default()
        };
        // Consistent: the summary observed exactly the traced check.
        let (trace, _) = trace_of(&[
            Event::CheckStarted { check: "a/0".to_string() },
            Event::CheckFinished { metrics: m.clone() },
        ]);
        verify(&trace, None).unwrap();
        // Tampered: the summary claims double the traced store bytes.
        let mut report = kiss_obs::RunReport::default();
        m.store_bytes = 128;
        report.observe(&m);
        m.store_bytes = 64;
        let trace = format!(
            "{}\n{}\n{}\n",
            Event::CheckStarted { check: "a/0".to_string() }.to_json(),
            Event::CheckFinished { metrics: m }.to_json(),
            Event::RunSummary { report }.to_json(),
        );
        assert!(verify(&trace, None).unwrap_err().contains("store bytes"));
    }

    fn request_lifecycle(id: &str, hit: bool) -> [Event; 3] {
        let request = id.to_string();
        [
            Event::RequestReceived { request: request.clone(), queue_depth: 0 },
            if hit {
                Event::CacheHit { request: request.clone() }
            } else {
                Event::CacheMiss { request: request.clone() }
            },
            Event::RequestDone { request, verdict: "pass".to_string(), wall_ms: 3, queue_depth: 0 },
        ]
    }

    #[test]
    fn a_serving_trace_verifies_and_balances() {
        let mut events = request_lifecycle("q0", false).to_vec();
        events.extend(request_lifecycle("q1", true));
        let (trace, metrics) = trace_of(&events);
        let summary = verify(&trace, Some(&metrics)).unwrap();
        assert!(summary.contains("2 request(s) (1 hit / 1 miss)"), "{summary}");
    }

    #[test]
    fn serving_imbalances_are_reported() {
        // A hit for a request the server never received.
        let (trace, _) = trace_of(&[Event::CacheHit { request: "ghost".to_string() }]);
        assert!(verify(&trace, None).unwrap_err().contains("unreceived"));
        // A request classified miss but never answered.
        let [recv, miss, _] = request_lifecycle("q0", false);
        let (trace, _) = trace_of(&[recv.clone(), miss]);
        assert!(verify(&trace, None).unwrap_err().contains("request_done"));
        // A request answered without a hit/miss classification.
        let [_, _, done] = request_lifecycle("q0", false);
        let (trace, _) = trace_of(&[recv, done]);
        assert!(verify(&trace, None).unwrap_err().contains("cache hit(s)"));
    }

    fn shed_lifecycle(id: &str) -> [Event; 3] {
        let request = id.to_string();
        [
            Event::RequestReceived { request: request.clone(), queue_depth: 8 },
            Event::RequestShed { request: request.clone(), queue_depth: 8 },
            Event::RequestDone {
                request,
                verdict: "overloaded".to_string(),
                wall_ms: 5,
                queue_depth: 8,
            },
        ]
    }

    #[test]
    fn a_trace_with_shed_requests_and_faults_balances() {
        let mut events = request_lifecycle("q0", false).to_vec();
        events.extend(shed_lifecycle("q1"));
        events.push(Event::FaultInjected {
            point: "serve.enqueue".to_string(),
            action: "error".to_string(),
        });
        events.push(Event::ClientRetry {
            attempt: 2,
            wait_ms: 12,
            reason: "overloaded".to_string(),
        });
        let (trace, metrics) = trace_of(&events);
        let summary = verify(&trace, Some(&metrics)).unwrap();
        assert!(summary.contains("2 request(s) (0 hit / 1 miss / 1 shed)"), "{summary}");
    }

    #[test]
    fn shed_imbalances_are_reported() {
        // A shed for a request the server never received.
        let (trace, _) = trace_of(&[Event::RequestShed {
            request: "ghost".to_string(),
            queue_depth: 1,
        }]);
        assert!(verify(&trace, None).unwrap_err().contains("unreceived"));
        // A shed request must still be answered (typed overloaded).
        let [recv, shed, _] = shed_lifecycle("q0");
        let (trace, _) = trace_of(&[recv, shed]);
        assert!(verify(&trace, None).unwrap_err().contains("request_done"));
    }

    fn span_pair(trace: &str, span: u64, name: &str, request: Option<&str>) -> [Event; 2] {
        [
            Event::SpanOpen {
                trace: trace.to_string(),
                span,
                parent: 0,
                name: name.to_string(),
                request: request.map(str::to_string),
            },
            Event::SpanClose {
                trace: trace.to_string(),
                span,
                name: name.to_string(),
                wall_us: 1,
            },
        ]
    }

    #[test]
    fn balanced_spans_verify_even_out_of_order() {
        // One close lands before its open: a worker's close can beat
        // the reader's open into the shared sink, so only the final
        // counts are constrained, not the order.
        let mut events = request_lifecycle("q0", false).to_vec();
        let [recv_open, recv_close] = span_pair("00000000000000ab", 1, "recv", Some("q0"));
        let [queued_open, queued_close] = span_pair("00000000000000ab", 2, "queued", None);
        events.extend([recv_open, queued_close, queued_open, recv_close]);
        let (trace, _) = trace_of(&events);
        let summary = verify(&trace, None).unwrap();
        assert!(summary.contains("2 span(s) balanced across 1 trace(s)"), "{summary}");
    }

    #[test]
    fn span_imbalances_and_trace_reuse_are_reported() {
        // Opened but never closed.
        let [open, _] = span_pair("00000000000000ab", 1, "check", None);
        let (trace, _) = trace_of(&[open]);
        assert!(verify(&trace, None).unwrap_err().contains("closed 0 time(s)"));
        // Closed but never opened.
        let [_, close] = span_pair("00000000000000ab", 1, "check", None);
        let (trace, _) = trace_of(&[close]);
        assert!(verify(&trace, None).unwrap_err().contains("never opened"));
        // Two requests rooted under the same trace id.
        let [r0, c0] = span_pair("00000000000000ab", 1, "recv", Some("q0"));
        let [r1, c1] = span_pair("00000000000000ab", 2, "recv", Some("q1"));
        let (trace, _) = trace_of(&[r0, c0, r1, c1]);
        assert!(verify(&trace, None).unwrap_err().contains("unique"));
    }

    #[test]
    fn summary_serving_counters_must_match_the_trace() {
        // Hand-build a summary whose hit/miss split disagrees with the
        // traced events (report claims a hit, trace shows a miss).
        let events = request_lifecycle("q0", false);
        let agg = Aggregator::new();
        let obs = Obs::new(agg.clone());
        for e in &request_lifecycle("q0", true) {
            obs.emit(|_| e.clone());
        }
        let tampered = agg.report();
        let mut trace: String =
            events.iter().map(|e| format!("{}\n", e.to_json())).collect();
        trace.push_str(&format!("{}\n", Event::RunSummary { report: tampered }.to_json()));
        let err = verify(&trace, None).unwrap_err();
        assert!(err.contains("but the trace has"), "{err}");
    }

    #[test]
    fn inconsistencies_are_reported() {
        assert!(verify("not json\n", None).is_err());
        // Finished without started.
        let [_, finish] = lifecycle("a/0", "pass");
        let (trace, _) = trace_of(&[finish]);
        assert!(verify(&trace, None).unwrap_err().contains("never started"));
        // Started without finished.
        let [start, _] = lifecycle("a/0", "pass");
        let (trace, _) = trace_of(&[start]);
        assert!(verify(&trace, None).unwrap_err().contains("never finished"));
        // Metrics file disagreeing with the summary.
        let (trace, _) = trace_of(&lifecycle("a/0", "pass"));
        let (_, other) = trace_of(&lifecycle("b/0", "race"));
        assert!(verify(&trace, Some(&other)).unwrap_err().contains("disagrees"));
    }
}
