//! The wire protocol: newline-delimited JSON frames.
//!
//! One request per line, one response per line. Responses may arrive
//! out of request order (cache hits answer immediately while misses
//! queue), so clients correlate by `id`. The encoding reuses
//! `kiss-obs`'s hand-rolled JSON — the protocol has no dependency the
//! workspace does not already carry.
//!
//! A request frame:
//!
//! ```json
//! {"id":"q0","op":"race","target":"Ext.field","source":"int g; ...",
//!  "engine":"explicit","max_ts":0,
//!  "max_steps":50000,"max_states":8000,"timeout_ms":2000,"no_cache":true}
//! ```
//!
//! `id`, `op`, and `source` (plus `target` for `op:"race"`) are
//! required; everything else defaults. Clients that predate the single
//! state store send a `"store"` field on every frame, and clients that
//! predate serial-only exploration may send `"explore_jobs"`; both are
//! ignored, whatever their value. A response frame:
//!
//! ```json
//! {"id":"q0","verdict":"race","detail":"...","steps":123,"states":45,
//!  "cache":"miss"}
//! ```
//!
//! Responses deliberately carry no timing fields: a warm answer is
//! byte-identical to the cold answer it was cached from.
//!
//! ## Batch frames
//!
//! A client holding many requests may pipeline them as one frame
//! instead of one line each:
//!
//! ```json
//! {"id":"b0","op":"batch","entries":[{"id":"q0",...},{"id":"q1",...}]}
//! ```
//!
//! Each entry is a complete request object with its own `id`; the
//! server answers with ordinary single-response lines correlated by
//! entry id (out of order, exactly as if the entries had arrived as
//! separate frames), so batching changes framing only — never
//! verdicts, caching, or accounting. The batch `id` appears on the
//! wire only when the batch frame itself is rejected. Entries are
//! restricted to the checking ops (`check`, `race`, `ltl`);
//! control-plane ops stay single frames. An old server that predates batching
//! answers the frame with a single `unknown op `batch`` error.

use kiss_core::checker::Engine;
use kiss_obs::json::{quoted, Json};
use kiss_obs::{Histogram, TraceId};

/// Hard cap on one frame's byte length. Driver sources are tens of
/// kilobytes; anything past this is a protocol error, not a program.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// What a request asks the checker to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Check the program's user assertions.
    Check,
    /// Check for races on a `"global"` or `"Struct.field"` target.
    Race {
        /// The race target spec.
        target: String,
    },
    /// Check an LTL liveness formula over the program's globals. An
    /// old server that predates liveness answers with a single
    /// ``unknown op `ltl` `` error, which clients surface verbatim.
    Ltl {
        /// The formula text, e.g. `G (locked -> F !locked)`. Senders
        /// should pretty-print a parsed formula so the two spellings
        /// of one formula share a cache entry.
        formula: String,
    },
    /// Control-plane ping: answer immediately with queue depth, cache
    /// size, and uptime. Needs no `source`, never queues, never counts
    /// in the request/cache accounting.
    Status,
    /// Control-plane metrics scrape: answer immediately with a
    /// [`ServeSnapshot`] in the response `detail`. Like `status`, it
    /// needs no `source`, never queues, and never counts in the
    /// request/cache accounting.
    Metrics,
}

/// One check request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    /// What to check.
    pub op: Op,
    /// The KISS-C program text.
    pub source: String,
    /// Sequential engine to run.
    pub engine: Engine,
    /// The `MAX` coverage bound.
    pub max_ts: usize,
    /// Step-budget override (server default when absent).
    pub max_steps: Option<u64>,
    /// State-budget override.
    pub max_states: Option<u64>,
    /// Wall-clock deadline override, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Skip the cache lookup (the verdict is still stored).
    pub no_cache: bool,
    /// Client-minted trace id threading this request's spans through
    /// the server's event stream. [`TraceId::NONE`] (the default) lets
    /// the server mint one. Like `id`, a transport concern — excluded
    /// from the cache key.
    pub trace: TraceId,
}

impl Request {
    /// A `check` request with every knob at its default.
    pub fn check(id: impl Into<String>, source: impl Into<String>) -> Request {
        Request {
            id: id.into(),
            op: Op::Check,
            source: source.into(),
            engine: Engine::default(),
            max_ts: 0,
            max_steps: None,
            max_states: None,
            timeout_ms: None,
            no_cache: false,
            trace: TraceId::NONE,
        }
    }

    /// A `race` request with every knob at its default.
    pub fn race(
        id: impl Into<String>,
        source: impl Into<String>,
        target: impl Into<String>,
    ) -> Request {
        Request { op: Op::Race { target: target.into() }, ..Request::check(id, source) }
    }

    /// An `ltl` liveness request with every knob at its default.
    pub fn ltl(
        id: impl Into<String>,
        source: impl Into<String>,
        formula: impl Into<String>,
    ) -> Request {
        Request { op: Op::Ltl { formula: formula.into() }, ..Request::check(id, source) }
    }

    /// A `status` ping (no source).
    pub fn status(id: impl Into<String>) -> Request {
        Request { op: Op::Status, ..Request::check(id, "") }
    }

    /// A `metrics` scrape (no source).
    pub fn metrics(id: impl Into<String>) -> Request {
        Request { op: Op::Metrics, ..Request::check(id, "") }
    }

    /// The content address: a 128-bit fingerprint over every field that
    /// determines the verdict — source text, operation and target,
    /// engine, `MAX`, and the budget overrides. The `id` and
    /// `no_cache` fields are transport concerns and excluded.
    pub fn cache_key(&self) -> u128 {
        // The formula rides the target slot; the op name alone keeps an
        // `ltl` request distinct from a `race` on an equal spelling.
        let (op, target) = match &self.op {
            Op::Check => ("check", ""),
            Op::Race { target } => ("race", target.as_str()),
            Op::Ltl { formula } => ("ltl", formula.as_str()),
            Op::Status => ("status", ""),
            Op::Metrics => ("metrics", ""),
        };
        let (hi, lo) = kiss_exec::fingerprint_of(&(
            op,
            target,
            self.source.as_str(),
            self.engine.name(),
            // The store name the key hashed when there were two stores:
            // keeps journals written before then hitting.
            "cow",
            self.max_ts,
            self.max_steps,
            self.max_states,
            self.timeout_ms,
        ));
        (u128::from(hi) << 64) | u128::from(lo)
    }

    /// One-line JSON encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        self.to_json_as(&self.id)
    }

    /// [`Request::to_json`] with `id` on the wire instead of
    /// `self.id`. Senders rewrite correlation ids per attempt; doing
    /// it here spares them cloning the (large) source just to change a
    /// tag.
    pub fn to_json_as(&self, id: &str) -> String {
        let mut out = String::with_capacity(self.source.len() + 160);
        out.push_str(&format!("{{\"id\":{}", quoted(id)));
        match &self.op {
            Op::Check => out.push_str(",\"op\":\"check\""),
            Op::Race { target } => {
                out.push_str(&format!(",\"op\":\"race\",\"target\":{}", quoted(target)));
            }
            Op::Ltl { formula } => {
                out.push_str(&format!(",\"op\":\"ltl\",\"formula\":{}", quoted(formula)));
            }
            Op::Status => out.push_str(",\"op\":\"status\""),
            Op::Metrics => out.push_str(",\"op\":\"metrics\""),
        }
        out.push_str(&format!(
            ",\"source\":{},\"engine\":{},\"max_ts\":{}",
            quoted(&self.source),
            quoted(self.engine.name()),
            self.max_ts,
        ));
        for (name, value) in [
            ("max_steps", self.max_steps),
            ("max_states", self.max_states),
            ("timeout_ms", self.timeout_ms),
        ] {
            if let Some(v) = value {
                out.push_str(&format!(",\"{name}\":{v}"));
            }
        }
        if self.no_cache {
            out.push_str(",\"no_cache\":true");
        }
        if !self.trace.is_none() {
            out.push_str(&format!(",\"trace\":\"{}\"", self.trace.to_hex()));
        }
        out.push('}');
        out
    }
}

/// Where a response came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Answered from the result cache.
    Hit,
    /// Executed (and, when cacheable, stored).
    Miss,
    /// Not a cacheable exchange (protocol errors, setup failures).
    None,
}

impl CacheStatus {
    /// A stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::None => "none",
        }
    }

    /// Parses [`CacheStatus::as_str`] output.
    pub fn parse(s: &str) -> Option<CacheStatus> {
        match s {
            "hit" => Some(CacheStatus::Hit),
            "miss" => Some(CacheStatus::Miss),
            "none" => Some(CacheStatus::None),
            _ => None,
        }
    }
}

/// One check response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id (empty when the request line did not parse far
    /// enough to have one).
    pub id: String,
    /// `pass`, `assertion`, `race`, `inconclusive`, `runtime_error`,
    /// `transform_failed`, `crashed`, `error` (request-level failure:
    /// malformed frame, parse error, unknown target), `overloaded`
    /// (typed load shed — safe to retry), or `ok` (status pings).
    pub verdict: String,
    /// Human-readable detail. Deterministic — no wall times, so a warm
    /// answer is byte-identical to the cold one.
    pub detail: String,
    /// Steps the final attempt executed (0 for cache-free errors).
    pub steps: u64,
    /// Distinct states the final attempt recorded.
    pub states: u64,
    /// Whether the cache answered.
    pub cache: CacheStatus,
}

impl Response {
    /// A request-level failure response.
    pub fn error(id: impl Into<String>, detail: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            verdict: "error".to_string(),
            detail: detail.into(),
            steps: 0,
            states: 0,
            cache: CacheStatus::None,
        }
    }

    /// The typed load-shedding response: the queue stayed full for the
    /// whole admission wait. Clients may safely retry — the request was
    /// never executed.
    pub fn overloaded(id: impl Into<String>, queue_depth: u64) -> Response {
        Response {
            id: id.into(),
            verdict: "overloaded".to_string(),
            detail: format!("server overloaded: queue full at depth {queue_depth}"),
            steps: 0,
            states: 0,
            cache: CacheStatus::None,
        }
    }

    /// Whether this response is the typed overload rejection.
    pub fn is_overloaded(&self) -> bool {
        self.verdict == "overloaded"
    }

    /// `true` when the verdict reports a program error (the exchanges
    /// that map to exit code 1).
    pub fn found_error(&self) -> bool {
        matches!(self.verdict.as_str(), "assertion" | "race" | "runtime_error")
    }

    /// One-line JSON encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"id\":{},\"verdict\":{},\"detail\":{},\"steps\":{},\"states\":{},\"cache\":{}}}",
            quoted(&self.id),
            quoted(&self.verdict),
            quoted(&self.detail),
            self.steps,
            self.states,
            quoted(self.cache.as_str()),
        )
    }
}

/// Why a frame was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The line exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The offending length.
        bytes: usize,
    },
    /// The line is not a well-formed frame.
    Malformed {
        /// What was wrong.
        reason: String,
    },
}

impl FrameError {
    /// The message sent back in an error response's `detail`.
    pub fn message(&self) -> String {
        match self {
            FrameError::Oversized { bytes } => {
                format!("oversized frame: {bytes} bytes exceeds the {MAX_FRAME_BYTES}-byte limit")
            }
            FrameError::Malformed { reason } => format!("malformed frame: {reason}"),
        }
    }
}

fn malformed(reason: impl Into<String>) -> FrameError {
    FrameError::Malformed { reason: reason.into() }
}

/// A batch of pipelined requests travelling as one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The batch frame's own id — used only when the frame itself is
    /// rejected (entries answer under their own ids).
    pub id: String,
    /// The pipelined requests, checking ops only.
    pub entries: Vec<Request>,
}

impl Batch {
    /// One-line JSON encoding (no trailing newline).
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self.entries.iter().map(Request::to_json).collect();
        Batch::frame_json(&self.id, &parts)
    }

    /// Assembles the batch wire frame from already-serialized entry
    /// frames (each the [`Request::to_json`] of one request). Escaping
    /// request sources dominates serialization cost, so a sender that
    /// needs entry sizes for chunking can serialize each entry once
    /// and assemble frames with plain copies.
    pub fn frame_json(id: &str, entry_jsons: &[String]) -> String {
        let payload: usize = entry_jsons.iter().map(|e| e.len() + 1).sum();
        let mut out = String::with_capacity(40 + id.len() + payload);
        out.push_str("{\"id\":");
        out.push_str(&quoted(id));
        out.push_str(",\"op\":\"batch\",\"entries\":[");
        for (i, entry) in entry_jsons.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(entry);
        }
        out.push_str("]}");
        out
    }
}

/// One decoded inbound frame: a single request or a pipelined batch.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// An ordinary one-request frame.
    Single(Request),
    /// A pipelined batch frame.
    Batch(Batch),
}

/// Decodes one inbound line as either frame shape. Single-request
/// lines decode exactly as [`decode_request`] does, so a batch-aware
/// server interoperates with old single-frame clients unchanged.
pub fn decode_frame(line: &str) -> Result<Frame, FrameError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { bytes: line.len() });
    }
    let v = Json::parse(line).ok_or_else(|| malformed("not valid JSON"))?;
    if v.as_obj().is_none() {
        return Err(malformed("frame is not a JSON object"));
    }
    if v.get("op").and_then(Json::as_str) != Some("batch") {
        return Ok(Frame::Single(request_from_value(&v)?));
    }
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing `id`"))?
        .to_string();
    let entries_json = v
        .get("entries")
        .and_then(Json::as_arr)
        .ok_or_else(|| malformed("op `batch` needs an `entries` array"))?;
    if entries_json.is_empty() {
        return Err(malformed("batch has no entries"));
    }
    let mut entries = Vec::with_capacity(entries_json.len());
    for entry in entries_json {
        if entry.as_obj().is_none() {
            return Err(malformed("batch entry is not a JSON object"));
        }
        let request = request_from_value(entry)?;
        if !matches!(request.op, Op::Check | Op::Race { .. } | Op::Ltl { .. }) {
            return Err(malformed("batch entries must be check, race, or ltl ops"));
        }
        entries.push(request);
    }
    Ok(Frame::Batch(Batch { id, entries }))
}

/// Decodes one request line. Batch frames are rejected here with
/// `unknown op `batch``, the exact answer a pre-batch server gives.
pub fn decode_request(line: &str) -> Result<Request, FrameError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { bytes: line.len() });
    }
    let v = Json::parse(line).ok_or_else(|| malformed("not valid JSON"))?;
    if v.as_obj().is_none() {
        return Err(malformed("frame is not a JSON object"));
    }
    request_from_value(&v)
}

fn request_from_value(v: &Json) -> Result<Request, FrameError> {
    let id = v
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| malformed("missing `id`"))?
        .to_string();
    let op = match v.get("op").and_then(Json::as_str) {
        Some("check") => Op::Check,
        Some("race") => {
            let target = v
                .get("target")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed("op `race` needs a `target`"))?;
            Op::Race { target: target.to_string() }
        }
        Some("ltl") => {
            let formula = v
                .get("formula")
                .and_then(Json::as_str)
                .ok_or_else(|| malformed("op `ltl` needs a `formula`"))?;
            Op::Ltl { formula: formula.to_string() }
        }
        Some("status") => Op::Status,
        Some("metrics") => Op::Metrics,
        Some(other) => return Err(malformed(format!("unknown op `{other}`"))),
        None => return Err(malformed("missing `op`")),
    };
    // Control-plane ops carry no program; every checking op must.
    let source = match v.get("source").and_then(Json::as_str) {
        Some(s) => s.to_string(),
        None if op == Op::Status || op == Op::Metrics => String::new(),
        None => return Err(malformed("missing `source`")),
    };
    let engine = match v.get("engine").and_then(Json::as_str) {
        None => Engine::default(),
        Some(s) => Engine::parse(s).ok_or_else(|| malformed(format!("unknown engine `{s}`")))?,
    };
    let num = |name: &str| -> Result<Option<u64>, FrameError> {
        match v.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(n) => {
                Ok(Some(n.as_u64().ok_or_else(|| {
                    malformed(format!("`{name}` must be a non-negative number"))
                })?))
            }
        }
    };
    Ok(Request {
        id,
        op,
        source,
        engine,
        max_ts: num("max_ts")?.unwrap_or(0) as usize,
        max_steps: num("max_steps")?,
        max_states: num("max_states")?,
        timeout_ms: num("timeout_ms")?,
        no_cache: matches!(v.get("no_cache"), Some(Json::Bool(true))),
        // Tolerant: an unparsable trace degrades to "server mints one",
        // never to a rejected frame.
        trace: v
            .get("trace")
            .and_then(Json::as_str)
            .and_then(TraceId::from_hex)
            .unwrap_or(TraceId::NONE),
    })
}

/// Decodes one response line.
pub fn decode_response(line: &str) -> Result<Response, FrameError> {
    if line.len() > MAX_FRAME_BYTES {
        return Err(FrameError::Oversized { bytes: line.len() });
    }
    let v = Json::parse(line).ok_or_else(|| malformed("not valid JSON"))?;
    let field = |name: &str| -> Result<String, FrameError> {
        Ok(v.get(name)
            .and_then(Json::as_str)
            .ok_or_else(|| malformed(format!("missing `{name}`")))?
            .to_string())
    };
    let cache = match v.get("cache").and_then(Json::as_str) {
        None => CacheStatus::None,
        Some(s) => {
            CacheStatus::parse(s).ok_or_else(|| malformed(format!("unknown cache state `{s}`")))?
        }
    };
    Ok(Response {
        id: field("id")?,
        verdict: field("verdict")?,
        detail: v.get("detail").and_then(Json::as_str).unwrap_or("").to_string(),
        steps: v.get("steps").and_then(Json::as_u64).unwrap_or(0),
        states: v.get("states").and_then(Json::as_u64).unwrap_or(0),
        cache,
    })
}

/// A point-in-time view of a running server, answered inline by the
/// `metrics` op (the snapshot travels in the response `detail`).
///
/// Every field is an integer — no floats cross the wire, so a snapshot
/// is byte-stable and diffable. Derived ratios (hit rate) are computed
/// by the consumer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ServeSnapshot {
    /// Milliseconds since the server started accepting.
    pub uptime_ms: u64,
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: u64,
    /// High-water mark of the queue depth since start.
    pub queue_peak: u64,
    /// Workers executing a check right now.
    pub in_flight: u64,
    /// Client connections open right now.
    pub conns_open: u64,
    /// High-water mark of open connections since start.
    pub conns_peak: u64,
    /// Connections accepted since start.
    pub accepted: u64,
    /// Admissions that found the queue full and had to wait (the
    /// accept-backlog pressure signal).
    pub admission_waits: u64,
    /// Pipelined batch frames received since start.
    pub batches: u64,
    /// Live entries in the result cache.
    pub cache_entries: u64,
    /// Lines in the cache journal (live + dead + garbage).
    pub journal_records: u64,
    /// Approximate cache journal size on disk, in bytes.
    pub journal_bytes: u64,
    /// Journal compaction passes completed since start.
    pub compactions: u64,
    /// Independently locked cache partitions.
    pub cache_shards: u64,
    /// Cache shard-lock acquisitions since start.
    pub shard_acquires: u64,
    /// Acquisitions that found the shard lock held and blocked — near
    /// zero when sharding has removed the contention.
    pub shard_contended: u64,
    /// Check/race requests accepted (control-plane ops excluded).
    pub requests: u64,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that executed (and, when cacheable, stored).
    pub misses: u64,
    /// Requests shed with the typed `overloaded` response.
    pub shed: u64,
    /// Injected faults fired since start (kiss-fault).
    pub faults: u64,
    /// Function bodies the misses' front end lexed, parsed and lowered
    /// in full.
    pub bodies_lowered: u64,
    /// Bodies `main` did not reach that the front end stubbed because
    /// the daemon had validated them before (`kiss_lang::ValidBodies`).
    pub bodies_stubbed: u64,
    /// Misses whose front end reused the declarations it had lowered for
    /// the same declaration items at the same positions.
    pub decl_sets_reused: u64,
    /// Times that memo of validated bodies and declaration sets was
    /// cleared on filling up.
    pub body_set_clears: u64,
    /// Per-operation latency histograms (milliseconds), keyed by a
    /// stable lowercase name (`check`, `hit`), sorted by name.
    pub latency: Vec<(String, Histogram)>,
}

impl ServeSnapshot {
    /// Cache hit rate over the answered (non-shed) requests, or `None`
    /// before the first answer.
    pub fn hit_rate(&self) -> Option<f64> {
        let answered = self.hits + self.misses;
        (answered > 0).then(|| self.hits as f64 / answered as f64)
    }

    /// One-line JSON encoding (no trailing newline). Keys are emitted
    /// in a fixed order, so equal snapshots encode identically.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"uptime_ms\":{},\"queue_depth\":{},\"queue_peak\":{},\"in_flight\":{}",
            self.uptime_ms, self.queue_depth, self.queue_peak, self.in_flight,
        ));
        out.push_str(&format!(
            ",\"conns_open\":{},\"conns_peak\":{},\"accepted\":{},\"admission_waits\":{},\"batches\":{}",
            self.conns_open, self.conns_peak, self.accepted, self.admission_waits, self.batches,
        ));
        out.push_str(&format!(
            ",\"cache_entries\":{},\"journal_records\":{},\"journal_bytes\":{},\"compactions\":{}",
            self.cache_entries, self.journal_records, self.journal_bytes, self.compactions,
        ));
        out.push_str(&format!(
            ",\"cache_shards\":{},\"shard_acquires\":{},\"shard_contended\":{}",
            self.cache_shards, self.shard_acquires, self.shard_contended,
        ));
        out.push_str(&format!(
            ",\"requests\":{},\"hits\":{},\"misses\":{},\"shed\":{},\"faults\":{}",
            self.requests, self.hits, self.misses, self.shed, self.faults,
        ));
        out.push_str(&format!(
            ",\"bodies_lowered\":{},\"bodies_stubbed\":{},\"decl_sets_reused\":{},\"body_set_clears\":{}",
            self.bodies_lowered, self.bodies_stubbed, self.decl_sets_reused, self.body_set_clears,
        ));
        out.push_str(",\"latency\":{");
        for (i, (name, hist)) in self.latency.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", quoted(name), hist.to_json()));
        }
        out.push_str("}}");
        out
    }

    /// Decodes [`ServeSnapshot::to_json`] output (absent fields default
    /// to zero, so older servers stay scrapeable).
    pub fn parse(text: &str) -> Option<ServeSnapshot> {
        let v = Json::parse(text)?;
        v.as_obj()?;
        let num = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
        let mut latency = Vec::new();
        if let Some(map) = v.get("latency").and_then(Json::as_obj) {
            for (name, value) in map {
                latency.push((name.clone(), Histogram::from_value(value)?));
            }
        }
        Some(ServeSnapshot {
            uptime_ms: num("uptime_ms"),
            queue_depth: num("queue_depth"),
            queue_peak: num("queue_peak"),
            in_flight: num("in_flight"),
            conns_open: num("conns_open"),
            conns_peak: num("conns_peak"),
            accepted: num("accepted"),
            admission_waits: num("admission_waits"),
            batches: num("batches"),
            cache_entries: num("cache_entries"),
            journal_records: num("journal_records"),
            journal_bytes: num("journal_bytes"),
            compactions: num("compactions"),
            cache_shards: num("cache_shards"),
            shard_acquires: num("shard_acquires"),
            shard_contended: num("shard_contended"),
            requests: num("requests"),
            hits: num("hits"),
            misses: num("misses"),
            shed: num("shed"),
            faults: num("faults"),
            bodies_lowered: num("bodies_lowered"),
            bodies_stubbed: num("bodies_stubbed"),
            decl_sets_reused: num("decl_sets_reused"),
            body_set_clears: num("body_set_clears"),
            latency,
        })
    }

    /// A fixed-width human rendering (the body of `kissc top`).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "uptime    : {:.1}s\n",
            self.uptime_ms as f64 / 1000.0
        ));
        out.push_str(&format!(
            "queue     : depth={} peak={} in_flight={}\n",
            self.queue_depth, self.queue_peak, self.in_flight,
        ));
        out.push_str(&format!(
            "conns     : open={} peak={} accepted={} admission-waits={}\n",
            self.conns_open, self.conns_peak, self.accepted, self.admission_waits,
        ));
        let rate = match self.hit_rate() {
            Some(r) => format!("{:.1}%", r * 100.0),
            None => "n/a".to_string(),
        };
        out.push_str(&format!(
            "requests  : total={} hits={} misses={} shed={} batches={} hit-rate={rate}\n",
            self.requests, self.hits, self.misses, self.shed, self.batches,
        ));
        out.push_str(&format!(
            "cache     : entries={} journal={}B/{} records compactions={}\n",
            self.cache_entries, self.journal_bytes, self.journal_records, self.compactions,
        ));
        out.push_str(&format!(
            "shards    : n={} acquires={} contended={}\n",
            self.cache_shards, self.shard_acquires, self.shard_contended,
        ));
        out.push_str(&format!(
            "bodies    : lowered={} stubbed={} decl-sets-reused={} set-clears={}\n",
            self.bodies_lowered, self.bodies_stubbed, self.decl_sets_reused, self.body_set_clears,
        ));
        out.push_str(&format!("faults    : fired={}\n", self.faults));
        for (name, hist) in &self.latency {
            let q = |p| {
                hist.quantile(p).map_or("-".to_string(), |ms| format!("{ms}ms"))
            };
            out.push_str(&format!(
                "lat {:<6}: n={} p50={} p90={} p99={}\n",
                name,
                hist.count(),
                q(50),
                q(90),
                q(99),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_with_all_fields() {
        let req = Request {
            id: "q\"7".to_string(),
            op: Op::Race { target: "Ext.field".to_string() },
            source: "int g;\nvoid main() { skip; }".to_string(),
            engine: Engine::Bfs,
            max_ts: 2,
            max_steps: Some(50_000),
            max_states: Some(8_000),
            timeout_ms: Some(2_000),
            no_cache: true,
            trace: TraceId(0x1234_5678_9abc_def0),
        };
        assert_eq!(decode_request(&req.to_json()), Ok(req));
    }

    #[test]
    fn request_defaults_fill_in() {
        let req = decode_request(r#"{"id":"a","op":"check","source":"void main() { skip; }"}"#)
            .unwrap();
        assert_eq!(req.engine, Engine::Explicit);
        assert_eq!(req.max_ts, 0);
        assert_eq!(req.max_steps, None);
        assert!(!req.no_cache);
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        for (line, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "not a JSON object"),
            (r#"{"op":"check","source":"x"}"#, "missing `id`"),
            (r#"{"id":"a","source":"x"}"#, "missing `op`"),
            (r#"{"id":"a","op":"zap","source":"x"}"#, "unknown op"),
            (r#"{"id":"a","op":"race","source":"x"}"#, "needs a `target`"),
            (r#"{"id":"a","op":"check"}"#, "missing `source`"),
            (r#"{"id":"a","op":"check","source":"x","engine":"warp"}"#, "unknown engine"),
            (r#"{"id":"a","op":"check","source":"x","max_steps":"ten"}"#, "non-negative"),
        ] {
            let err = decode_request(line).unwrap_err();
            assert!(err.message().contains(needle), "{line} -> {}", err.message());
        }
    }

    #[test]
    fn unknown_enum_values_name_the_offending_value() {
        // The error detail must quote the value the client sent, so a
        // misconfigured corpus run is debuggable from the response alone.
        for (line, offending) in [
            (r#"{"id":"a","op":"zap","source":"x"}"#, "`zap`"),
            (r#"{"id":"a","op":"check","source":"x","engine":"warp"}"#, "`warp`"),
        ] {
            let err = decode_request(line).unwrap_err();
            assert!(err.message().contains(offending), "{line} -> {}", err.message());
        }
    }

    #[test]
    fn a_store_field_from_an_old_client_is_ignored() {
        let plain = decode_request(r#"{"id":"a","op":"check","source":"x"}"#).unwrap();
        for store in ["cow", "legacy", "zipdb"] {
            let line = format!(r#"{{"id":"a","op":"check","source":"x","store":"{store}"}}"#);
            assert_eq!(decode_request(&line), Ok(plain.clone()), "{line}");
        }
        assert!(!plain.to_json().contains("store"), "{}", plain.to_json());
    }

    #[test]
    fn cache_keys_are_stable_across_upgrades() {
        // Journals persist keys across server versions: these values
        // were computed before the store field left the protocol.
        let mut req = Request::race(
            "q",
            "int g; void w() { g = 1; } void main() { async w(); g = 2; }",
            "g",
        );
        req.engine = Engine::Bfs;
        req.max_ts = 1;
        req.max_steps = Some(50_000);
        req.timeout_ms = Some(2_000);
        assert_eq!(req.cache_key(), 0xcb31_ebec_f570_172d_1ee9_5150_08b3_1915);
        assert_eq!(
            Request::check("a", "void main() { skip; }").cache_key(),
            0xb3c8_13d1_b3be_17b3_5b36_73a3_9943_f54f
        );
    }

    #[test]
    fn ltl_requests_round_trip_and_need_a_formula() {
        let req = Request::ltl("q4", "int locked; void main() { skip; }", "G (locked -> F !locked)");
        let line = req.to_json();
        assert!(line.contains("\"op\":\"ltl\""), "{line}");
        assert!(line.contains("\"formula\":"), "{line}");
        assert_eq!(decode_request(&line), Ok(req));
        let err = decode_request(r#"{"id":"a","op":"ltl","source":"x"}"#).unwrap_err();
        assert!(err.message().contains("needs a `formula`"), "{}", err.message());
        // Checking op: a program is still required.
        assert!(decode_request(r#"{"id":"a","op":"ltl","formula":"G p"}"#).is_err());
    }

    #[test]
    fn ltl_cache_keys_never_conflate_with_plain_checks() {
        // One source, three ops: a cached reachability verdict must
        // never answer a liveness request (or vice versa), and two
        // different formulas must not share an entry.
        let src = "int locked; void main() { locked = 1; }";
        let check = Request::check("a", src);
        let ltl = Request::ltl("a", src, "G (locked -> F !locked)");
        let other = Request::ltl("a", src, "F (locked == 1)");
        assert_ne!(check.cache_key(), ltl.cache_key());
        assert_ne!(ltl.cache_key(), other.cache_key());
        // A race target spelled like a formula is still a distinct op.
        let race = Request::race("a", src, "G (locked -> F !locked)");
        assert_ne!(race.cache_key(), ltl.cache_key());
        // Transport fields stay excluded, exactly as for check/race.
        let mut same = ltl.clone();
        same.id = "other-id".to_string();
        same.no_cache = true;
        assert_eq!(ltl.cache_key(), same.cache_key());
    }

    #[test]
    fn batches_carry_ltl_entries() {
        let batch = Batch {
            id: "b1".to_string(),
            entries: vec![
                Request::check("q0", "void main() { skip; }"),
                Request::ltl("q1", "int g; void main() { g = 1; }", "F (g == 1)"),
            ],
        };
        assert_eq!(decode_frame(&batch.to_json()), Ok(Frame::Batch(batch)));
    }

    #[test]
    fn status_requests_need_no_source() {
        let req = decode_request(r#"{"id":"ping","op":"status"}"#).unwrap();
        assert_eq!(req.op, Op::Status);
        assert_eq!(req.source, "");
        let round = Request::status("ping");
        assert_eq!(decode_request(&round.to_json()), Ok(round));
        // Checking ops still require a program.
        assert!(decode_request(r#"{"id":"a","op":"check"}"#).is_err());
    }

    #[test]
    fn metrics_requests_need_no_source() {
        let req = decode_request(r#"{"id":"m0","op":"metrics"}"#).unwrap();
        assert_eq!(req.op, Op::Metrics);
        assert_eq!(req.source, "");
        let round = Request::metrics("m0");
        assert_eq!(decode_request(&round.to_json()), Ok(round));
    }

    #[test]
    fn an_explore_jobs_field_from_an_old_client_is_ignored() {
        let plain = decode_request(r#"{"id":"a","op":"check","source":"x"}"#).unwrap();
        for jobs in ["4", "0", "\"many\""] {
            let line = format!(r#"{{"id":"a","op":"check","source":"x","explore_jobs":{jobs}}}"#);
            assert_eq!(decode_request(&line), Ok(plain.clone()), "{line}");
            assert_eq!(decode_frame(&line), Ok(Frame::Single(plain.clone())), "{line}");
        }
        assert!(!plain.to_json().contains("explore_jobs"), "{}", plain.to_json());
    }

    #[test]
    fn trace_ids_round_trip_and_tolerate_garbage() {
        let mut req = Request::check("a", "void main() { skip; }");
        // Absent from the frame when unset.
        assert!(!req.to_json().contains("trace"));
        req.trace = TraceId(0xdead_beef_cafe_f00d);
        assert!(req.to_json().contains("\"trace\":\"deadbeefcafef00d\""));
        assert_eq!(decode_request(&req.to_json()), Ok(req.clone()));
        // Trace is transport, not content: the key ignores it.
        let mut untraced = req.clone();
        untraced.trace = TraceId::NONE;
        assert_eq!(req.cache_key(), untraced.cache_key());
        // A mangled trace degrades to NONE, never to a rejected frame.
        let line = r#"{"id":"a","op":"check","source":"x","trace":"zz"}"#;
        assert_eq!(decode_request(line).unwrap().trace, TraceId::NONE);
    }

    #[test]
    fn serve_snapshot_round_trips_and_renders() {
        let snap = ServeSnapshot {
            uptime_ms: 12_500,
            queue_depth: 3,
            queue_peak: 17,
            in_flight: 2,
            conns_open: 5,
            conns_peak: 9,
            accepted: 31,
            admission_waits: 4,
            batches: 6,
            cache_shards: 16,
            shard_acquires: 210,
            shard_contended: 1,
            cache_entries: 40,
            journal_records: 55,
            journal_bytes: 4_096,
            compactions: 1,
            requests: 100,
            hits: 60,
            misses: 39,
            shed: 1,
            faults: 2,
            bodies_lowered: 12,
            bodies_stubbed: 340,
            decl_sets_reused: 38,
            body_set_clears: 1,
            latency: vec![
                ("check".to_string(), Histogram::from_samples([5, 9, 120])),
                ("hit".to_string(), Histogram::from_samples([0, 1])),
            ],
        };
        assert_eq!(ServeSnapshot::parse(&snap.to_json()), Some(snap.clone()));
        assert_eq!(snap.hit_rate(), Some(60.0 / 99.0));
        let view = snap.render();
        assert!(view.contains("depth=3 peak=17 in_flight=2"), "{view}");
        assert!(view.contains("open=5 peak=9 accepted=31 admission-waits=4"), "{view}");
        assert!(view.contains("total=100 hits=60 misses=39 shed=1 batches=6"), "{view}");
        assert!(view.contains("n=16 acquires=210 contended=1"), "{view}");
        assert!(view.contains("lowered=12 stubbed=340 decl-sets-reused=38 set-clears=1"), "{view}");
        assert!(view.contains("lat check : n=3"), "{view}");
        // Absent fields default; an empty object parses to zeroes.
        let empty = ServeSnapshot::parse("{}").unwrap();
        assert_eq!(empty, ServeSnapshot::default());
        assert_eq!(empty.hit_rate(), None);
        assert!(ServeSnapshot::parse("[1]").is_none());
    }

    #[test]
    fn overloaded_responses_are_typed() {
        let resp = Response::overloaded("q3", 64);
        assert!(resp.is_overloaded());
        assert!(!resp.found_error());
        assert!(resp.detail.contains("depth 64"));
        let back = decode_response(&resp.to_json()).unwrap();
        assert_eq!(back, resp);
        assert!(!Response::error("q3", "boom").is_overloaded());
    }

    #[test]
    fn oversized_frames_are_rejected() {
        let line = "x".repeat(MAX_FRAME_BYTES + 1);
        let err = decode_request(&line).unwrap_err();
        assert_eq!(err, FrameError::Oversized { bytes: MAX_FRAME_BYTES + 1 });
        assert!(err.message().contains("oversized"));
        assert!(decode_response(&line).is_err());
    }

    #[test]
    fn response_round_trips() {
        let resp = Response {
            id: "q0".to_string(),
            verdict: "race".to_string(),
            detail: "race: write at 3:4 vs write at 7:8".to_string(),
            steps: 123,
            states: 45,
            cache: CacheStatus::Hit,
        };
        assert_eq!(decode_response(&resp.to_json()), Ok(resp));
        let err = Response::error("", "malformed frame: not valid JSON");
        assert_eq!(decode_response(&err.to_json()), Ok(err));
    }

    #[test]
    fn batch_frames_round_trip() {
        let batch = Batch {
            id: "b7".to_string(),
            entries: vec![
                Request::check("q0", "void main() { skip; }"),
                Request::race("q1", "int g;\nvoid main() { g = 1; }", "g"),
            ],
        };
        let line = batch.to_json();
        assert_eq!(decode_frame(&line), Ok(Frame::Batch(batch)));
        // Single-request lines decode through decode_frame unchanged.
        let single = Request::check("q9", "void main() { skip; }");
        assert_eq!(decode_frame(&single.to_json()), Ok(Frame::Single(single)));
    }

    #[test]
    fn batch_frames_reject_bad_shapes() {
        for (line, needle) in [
            (r#"{"op":"batch","entries":[]}"#.to_string(), "missing `id`"),
            (r#"{"id":"b0","op":"batch"}"#.to_string(), "needs an `entries` array"),
            (r#"{"id":"b0","op":"batch","entries":[]}"#.to_string(), "no entries"),
            (r#"{"id":"b0","op":"batch","entries":[7]}"#.to_string(), "not a JSON object"),
            (
                r#"{"id":"b0","op":"batch","entries":[{"id":"q0","op":"check"}]}"#.to_string(),
                "missing `source`",
            ),
            (
                r#"{"id":"b0","op":"batch","entries":[{"id":"q0","op":"status"}]}"#.to_string(),
                "must be check, race, or ltl",
            ),
        ] {
            let err = decode_frame(&line).unwrap_err();
            assert!(err.message().contains(needle), "{line} -> {}", err.message());
        }
    }

    #[test]
    fn old_request_decoder_rejects_batches_with_the_fallback_marker() {
        // The single-frame decoder must answer a batch exactly like a
        // pre-batch server would.
        let batch = Batch {
            id: "b0".to_string(),
            entries: vec![Request::check("q0", "void main() { skip; }")],
        };
        let err = decode_request(&batch.to_json()).unwrap_err();
        assert!(err.message().contains("unknown op `batch`"), "{}", err.message());
    }

    #[test]
    fn cache_key_tracks_semantic_fields_only() {
        let base = Request::check("a", "void main() { skip; }");
        let mut same = base.clone();
        same.id = "completely-different".to_string();
        same.no_cache = true;
        assert_eq!(base.cache_key(), same.cache_key());
        let mut other = base.clone();
        other.engine = Engine::Bfs;
        assert_ne!(base.cache_key(), other.cache_key());
        let mut bounded = base.clone();
        bounded.max_steps = Some(10);
        assert_ne!(base.cache_key(), bounded.cache_key());
        assert_ne!(
            Request::check("a", "x").cache_key(),
            Request::race("a", "x", "g").cache_key()
        );
    }
}

