//! Structured events and per-check metrics.

use crate::json::quoted;
use crate::report::RunReport;

/// Everything measured about one supervised check, attached to
/// [`Event::CheckFinished`] and aggregated into a
/// [`RunReport`].
///
/// `steps`/`states` describe the *final* attempt; retried attempts'
/// partial work is visible through [`Event::EngineTick`] and
/// [`Event::BudgetViolated`] but is not double-counted here.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckMetrics {
    /// Check label, e.g. `diskperf/3` for field 3 of driver diskperf.
    pub check: String,
    /// Engine kind (`explicit`, `summary`, `bfs`; `none` when a check
    /// was decided without a search; empty when unknown, e.g. crashes).
    pub engine: String,
    /// Final verdict: `pass`, `assertion`, `race`, `inconclusive`,
    /// `runtime_error`, `transform_failed`, or `crashed`.
    pub verdict: String,
    /// Instructions executed by the final attempt.
    pub steps: u64,
    /// Distinct states recorded by the final attempt.
    pub states: u64,
    /// Peak frontier/pending size (DFS stack or BFS queue).
    pub frontier_peak: u64,
    /// Entries held by the state store (visited fingerprints).
    pub states_stored: u64,
    /// Bytes held by the state store (visited table, parent arenas,
    /// interned trace segments).
    pub store_bytes: u64,
    /// Function summaries computed (summary engine only).
    pub summaries: u64,
    /// Fixpoint rounds taken (summary engine only).
    pub rounds: u64,
    /// Wall-clock time for the whole supervised run, all attempts.
    pub wall_ms: u64,
    /// Which budget axis ended an inconclusive check.
    pub bound_reason: Option<String>,
    /// Retries the escalation ladder spent (attempts - 1).
    pub retries: u64,
    /// Distinct `(configuration, Büchi state)` product states explored
    /// (LTL liveness checks only).
    pub product_states: u64,
    /// States of the negated-formula Büchi automaton (LTL liveness
    /// checks only).
    pub buchi_states: u64,
}

impl CheckMetrics {
    /// Serializes the fields *without* surrounding braces, so callers
    /// can splice them into an enclosing object.
    fn json_fields(&self, out: &mut String) {
        out.push_str(&format!(
            "\"check\":{},\"engine\":{},\"verdict\":{},\"steps\":{},\"states\":{},\
             \"frontier_peak\":{},\"states_stored\":{},\"store_bytes\":{},\
             \"summaries\":{},\"rounds\":{},\"wall_ms\":{},\
             \"bound_reason\":{},\"retries\":{},\
             \"product_states\":{},\"buchi_states\":{}",
            quoted(&self.check),
            quoted(&self.engine),
            quoted(&self.verdict),
            self.steps,
            self.states,
            self.frontier_peak,
            self.states_stored,
            self.store_bytes,
            self.summaries,
            self.rounds,
            self.wall_ms,
            match &self.bound_reason {
                Some(r) => quoted(r),
                None => "null".to_string(),
            },
            self.retries,
            self.product_states,
            self.buchi_states,
        ));
    }
}

/// One structured observation, emitted through
/// [`crate::Obs::emit`] and consumed by [`crate::Observer`] sinks.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A supervised check is starting (attempt 1).
    CheckStarted {
        /// Check label.
        check: String,
    },
    /// Periodic engine progress (throttled inside the engines' meters,
    /// roughly every 2^18 steps).
    EngineTick {
        /// Check label.
        check: String,
        /// Engine kind.
        engine: &'static str,
        /// Steps so far in the current attempt.
        steps: u64,
        /// Distinct states so far in the current attempt.
        states: u64,
    },
    /// The supervisor is re-running an inconclusive check with an
    /// escalated budget.
    RetryEscalated {
        /// Check label.
        check: String,
        /// The attempt about to start (2 = first retry).
        attempt: u64,
        /// The bound that tripped the previous attempt.
        reason: String,
    },
    /// A budget axis tripped inside an engine.
    BudgetViolated {
        /// Check label.
        check: String,
        /// Engine kind.
        engine: &'static str,
        /// The axis that tripped.
        reason: String,
        /// Steps at the trip point.
        steps: u64,
        /// Distinct states at the trip point.
        states: u64,
    },
    /// A supervised check ended (all attempts done).
    CheckFinished {
        /// The full metrics record; its `check` field is the label.
        metrics: CheckMetrics,
    },
    /// A serve-mode request was accepted off a client connection
    /// (emitted after the frame parsed, before the cache lookup).
    RequestReceived {
        /// Request id, as sent by the client.
        request: String,
        /// Jobs waiting in the server queue at acceptance time.
        queue_depth: u64,
    },
    /// A request was answered from the content-addressed result cache.
    CacheHit {
        /// Request id.
        request: String,
    },
    /// A request missed the cache (or bypassed it with `no_cache`) and
    /// was scheduled for execution.
    CacheMiss {
        /// Request id.
        request: String,
    },
    /// A request was answered — from the cache or after execution.
    /// Every received request produces exactly one of these.
    RequestDone {
        /// Request id.
        request: String,
        /// The verdict sent back to the client.
        verdict: String,
        /// Receive-to-answer latency, queueing included.
        wall_ms: u64,
        /// Jobs waiting in the server queue at completion time.
        queue_depth: u64,
    },
    /// A request was rejected because the server queue stayed full for
    /// the whole admission wait. The client got a typed `overloaded`
    /// response; the request counts in `requests_shed`, not in the
    /// hit/miss split.
    RequestShed {
        /// Request id.
        request: String,
        /// Jobs waiting in the server queue at rejection time.
        queue_depth: u64,
    },
    /// A named failpoint fired (kiss-fault). Emitted by the component
    /// that owns the site, not by kiss-fault itself.
    FaultInjected {
        /// Failpoint site, e.g. `serve.journal.append`.
        point: String,
        /// The action taken: `error`, `panic`, `delay`, `truncate`.
        action: String,
    },
    /// The client is about to retry after a connection failure or an
    /// `overloaded` response.
    ClientRetry {
        /// The attempt about to start (2 = first retry).
        attempt: u64,
        /// Backoff slept before this attempt.
        wait_ms: u64,
        /// Why the previous attempt failed, e.g. `connect`, `overloaded`.
        reason: String,
    },
    /// A tracing span opened (see [`crate::span`]). Together with its
    /// matching [`Event::SpanClose`], one stage of a request's life.
    SpanOpen {
        /// Owning trace id, fixed-width hex (see
        /// [`crate::span::TraceId::to_hex`]).
        trace: String,
        /// Process-unique span id.
        span: u64,
        /// Parent span id; 0 = root of its trace.
        parent: u64,
        /// Stage name: `recv`, `queued`, `check`, `reply`,
        /// `transform`, `lower`, `explore`.
        name: String,
        /// The request this root span covers, when known — the anchor
        /// tying a trace id to a request id.
        request: Option<String>,
    },
    /// A tracing span closed. Every `span_open` has exactly one.
    SpanClose {
        /// Owning trace id, fixed-width hex.
        trace: String,
        /// The span id from the matching [`Event::SpanOpen`].
        span: u64,
        /// Stage name, repeated for grep-ability.
        name: String,
        /// Wall time the span covered, in microseconds.
        wall_us: u64,
    },
    /// End-of-run summary.
    RunSummary {
        /// The aggregated report.
        report: RunReport,
    },
}

impl Event {
    /// Stable event-kind name, matching the `"event"` field of
    /// [`Event::to_json`].
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CheckStarted { .. } => "check_started",
            Event::EngineTick { .. } => "engine_tick",
            Event::RetryEscalated { .. } => "retry_escalated",
            Event::BudgetViolated { .. } => "budget_violated",
            Event::CheckFinished { .. } => "check_finished",
            Event::RequestReceived { .. } => "request_received",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::RequestDone { .. } => "request_done",
            Event::RequestShed { .. } => "request_shed",
            Event::FaultInjected { .. } => "fault_injected",
            Event::ClientRetry { .. } => "client_retry",
            Event::SpanOpen { .. } => "span_open",
            Event::SpanClose { .. } => "span_close",
            Event::RunSummary { .. } => "run_summary",
        }
    }

    /// The check label, for every per-check event kind.
    pub fn check(&self) -> Option<&str> {
        match self {
            Event::CheckStarted { check }
            | Event::EngineTick { check, .. }
            | Event::RetryEscalated { check, .. }
            | Event::BudgetViolated { check, .. } => Some(check),
            Event::CheckFinished { metrics } => Some(&metrics.check),
            Event::RequestReceived { .. }
            | Event::CacheHit { .. }
            | Event::CacheMiss { .. }
            | Event::RequestDone { .. }
            | Event::RequestShed { .. }
            | Event::FaultInjected { .. }
            | Event::ClientRetry { .. }
            | Event::SpanOpen { .. }
            | Event::SpanClose { .. }
            | Event::RunSummary { .. } => None,
        }
    }

    /// The request id, for every serve-mode event kind.
    pub fn request(&self) -> Option<&str> {
        match self {
            Event::RequestReceived { request, .. }
            | Event::CacheHit { request }
            | Event::CacheMiss { request }
            | Event::RequestDone { request, .. }
            | Event::RequestShed { request, .. } => Some(request),
            _ => None,
        }
    }

    /// One-line JSON encoding (no trailing newline) — the JSONL trace
    /// format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(96);
        out.push_str("{\"event\":");
        out.push_str(&quoted(self.kind()));
        match self {
            Event::CheckStarted { check } => {
                out.push_str(&format!(",\"check\":{}", quoted(check)));
            }
            Event::EngineTick { check, engine, steps, states } => {
                out.push_str(&format!(
                    ",\"check\":{},\"engine\":{},\"steps\":{steps},\"states\":{states}",
                    quoted(check),
                    quoted(engine),
                ));
            }
            Event::RetryEscalated { check, attempt, reason } => {
                out.push_str(&format!(
                    ",\"check\":{},\"attempt\":{attempt},\"reason\":{}",
                    quoted(check),
                    quoted(reason),
                ));
            }
            Event::BudgetViolated { check, engine, reason, steps, states } => {
                out.push_str(&format!(
                    ",\"check\":{},\"engine\":{},\"reason\":{},\"steps\":{steps},\"states\":{states}",
                    quoted(check),
                    quoted(engine),
                    quoted(reason),
                ));
            }
            Event::CheckFinished { metrics } => {
                out.push(',');
                metrics.json_fields(&mut out);
            }
            Event::RequestReceived { request, queue_depth } => {
                out.push_str(&format!(
                    ",\"request\":{},\"queue_depth\":{queue_depth}",
                    quoted(request),
                ));
            }
            Event::CacheHit { request } | Event::CacheMiss { request } => {
                out.push_str(&format!(",\"request\":{}", quoted(request)));
            }
            Event::RequestDone { request, verdict, wall_ms, queue_depth } => {
                out.push_str(&format!(
                    ",\"request\":{},\"verdict\":{},\"wall_ms\":{wall_ms},\
                     \"queue_depth\":{queue_depth}",
                    quoted(request),
                    quoted(verdict),
                ));
            }
            Event::RequestShed { request, queue_depth } => {
                out.push_str(&format!(
                    ",\"request\":{},\"queue_depth\":{queue_depth}",
                    quoted(request),
                ));
            }
            Event::FaultInjected { point, action } => {
                out.push_str(&format!(
                    ",\"point\":{},\"action\":{}",
                    quoted(point),
                    quoted(action),
                ));
            }
            Event::ClientRetry { attempt, wait_ms, reason } => {
                out.push_str(&format!(
                    ",\"attempt\":{attempt},\"wait_ms\":{wait_ms},\"reason\":{}",
                    quoted(reason),
                ));
            }
            Event::SpanOpen { trace, span, parent, name, request } => {
                out.push_str(&format!(
                    ",\"trace\":{},\"span\":{span},\"parent\":{parent},\"name\":{}",
                    quoted(trace),
                    quoted(name),
                ));
                if let Some(request) = request {
                    out.push_str(&format!(",\"request\":{}", quoted(request)));
                }
            }
            Event::SpanClose { trace, span, name, wall_us } => {
                out.push_str(&format!(
                    ",\"trace\":{},\"span\":{span},\"name\":{},\"wall_us\":{wall_us}",
                    quoted(trace),
                    quoted(name),
                ));
            }
            Event::RunSummary { report } => {
                out.push_str(",\"report\":");
                out.push_str(&report.to_json());
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn events_serialize_to_parseable_json_with_matching_kind() {
        let events = [
            Event::CheckStarted { check: "drv/0".into() },
            Event::EngineTick { check: "drv/0".into(), engine: "explicit", steps: 5, states: 2 },
            Event::RetryEscalated { check: "drv/0".into(), attempt: 2, reason: "steps".into() },
            Event::BudgetViolated {
                check: "drv/0".into(),
                engine: "bfs",
                reason: "memory".into(),
                steps: 10,
                states: 4,
            },
            Event::CheckFinished {
                metrics: CheckMetrics {
                    check: "drv/0".into(),
                    engine: "explicit".into(),
                    verdict: "pass".into(),
                    steps: 100,
                    ..CheckMetrics::default()
                },
            },
            Event::RunSummary { report: RunReport::default() },
        ];
        for e in events {
            let parsed = Json::parse(&e.to_json()).expect("event must be valid JSON");
            assert_eq!(parsed.get("event").and_then(Json::as_str), Some(e.kind()));
            assert_eq!(parsed.get("check").and_then(Json::as_str), e.check());
        }
    }

    #[test]
    fn serve_events_serialize_with_request_ids() {
        let events = [
            Event::RequestReceived { request: "q0".into(), queue_depth: 3 },
            Event::CacheHit { request: "q0".into() },
            Event::CacheMiss { request: "q1".into() },
            Event::RequestDone {
                request: "q1".into(),
                verdict: "pass".into(),
                wall_ms: 7,
                queue_depth: 2,
            },
        ];
        for e in &events {
            let parsed = Json::parse(&e.to_json()).expect("serve event must be valid JSON");
            assert_eq!(parsed.get("event").and_then(Json::as_str), Some(e.kind()));
            assert_eq!(parsed.get("request").and_then(Json::as_str), e.request());
            assert_eq!(e.check(), None);
        }
        let done = Json::parse(&events[3].to_json()).unwrap();
        assert_eq!(done.get("verdict").and_then(Json::as_str), Some("pass"));
        assert_eq!(done.get("wall_ms").and_then(Json::as_u64), Some(7));
        assert_eq!(done.get("queue_depth").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn robustness_events_serialize_with_their_payloads() {
        let shed = Event::RequestShed { request: "q7".into(), queue_depth: 64 };
        let parsed = Json::parse(&shed.to_json()).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("request_shed"));
        assert_eq!(parsed.get("request").and_then(Json::as_str), Some("q7"));
        assert_eq!(parsed.get("queue_depth").and_then(Json::as_u64), Some(64));
        assert_eq!(shed.request(), Some("q7"));

        let fault = Event::FaultInjected {
            point: "serve.journal.append".into(),
            action: "truncate".into(),
        };
        let parsed = Json::parse(&fault.to_json()).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("fault_injected"));
        assert_eq!(parsed.get("point").and_then(Json::as_str), Some("serve.journal.append"));
        assert_eq!(parsed.get("action").and_then(Json::as_str), Some("truncate"));
        assert_eq!(fault.request(), None);
        assert_eq!(fault.check(), None);

        let retry = Event::ClientRetry { attempt: 2, wait_ms: 40, reason: "overloaded".into() };
        let parsed = Json::parse(&retry.to_json()).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("client_retry"));
        assert_eq!(parsed.get("attempt").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("wait_ms").and_then(Json::as_u64), Some(40));
        assert_eq!(parsed.get("reason").and_then(Json::as_str), Some("overloaded"));
    }

    #[test]
    fn span_events_serialize_with_trace_hex_and_ids() {
        let open = Event::SpanOpen {
            trace: "0123456789abcdef".into(),
            span: 7,
            parent: 3,
            name: "check".into(),
            request: None,
        };
        let parsed = Json::parse(&open.to_json()).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("span_open"));
        assert_eq!(parsed.get("trace").and_then(Json::as_str), Some("0123456789abcdef"));
        assert_eq!(parsed.get("span").and_then(Json::as_u64), Some(7));
        assert_eq!(parsed.get("parent").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some("check"));
        assert!(parsed.get("request").is_none(), "absent request must be omitted");
        assert_eq!(open.check(), None);
        assert_eq!(open.request(), None, "spans are keyed by trace, not request");

        let root = Event::SpanOpen {
            trace: "00000000000000ff".into(),
            span: 1,
            parent: 0,
            name: "recv".into(),
            request: Some("q0".into()),
        };
        let parsed = Json::parse(&root.to_json()).unwrap();
        assert_eq!(parsed.get("request").and_then(Json::as_str), Some("q0"));
        assert_eq!(parsed.get("parent").and_then(Json::as_u64), Some(0));

        let close = Event::SpanClose {
            trace: "0123456789abcdef".into(),
            span: 7,
            name: "check".into(),
            wall_us: 12_345,
        };
        let parsed = Json::parse(&close.to_json()).unwrap();
        assert_eq!(parsed.get("event").and_then(Json::as_str), Some("span_close"));
        assert_eq!(parsed.get("span").and_then(Json::as_u64), Some(7));
        assert_eq!(parsed.get("wall_us").and_then(Json::as_u64), Some(12_345));
    }

    #[test]
    fn finished_event_carries_all_metric_fields() {
        let m = CheckMetrics {
            check: "d\"x/1".into(),
            engine: "summary".into(),
            verdict: "inconclusive".into(),
            steps: 7,
            states: 3,
            frontier_peak: 2,
            states_stored: 3,
            store_bytes: 144,
            summaries: 5,
            rounds: 2,
            wall_ms: 12,
            bound_reason: Some("deadline".into()),
            retries: 1,
            product_states: 21,
            buchi_states: 4,
        };
        let parsed = Json::parse(&Event::CheckFinished { metrics: m }.to_json()).unwrap();
        assert_eq!(parsed.get("check").and_then(Json::as_str), Some("d\"x/1"));
        assert_eq!(parsed.get("summaries").and_then(Json::as_u64), Some(5));
        assert_eq!(parsed.get("states_stored").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("store_bytes").and_then(Json::as_u64), Some(144));
        assert_eq!(parsed.get("bound_reason").and_then(Json::as_str), Some("deadline"));
        assert_eq!(parsed.get("retries").and_then(Json::as_u64), Some(1));
        assert_eq!(parsed.get("speculative_steps"), None);
        assert_eq!(parsed.get("product_states").and_then(Json::as_u64), Some(21));
        assert_eq!(parsed.get("buchi_states").and_then(Json::as_u64), Some(4));
    }
}
